#!/usr/bin/env python3
"""Outside-in benchmark of the Hetis serving simulator.

Builds `perfbench/` (a standalone Cargo package over the simulator's
crates) and runs one named workload through the simulator's public API:

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics with no instrumentation, in
rounds until --seconds have passed (at least one round per sub-seed). A
round is one run of the host-speed yardstick (`perfbench --reference`),
one plain simulation run and SETUPS_PER_ROUND set-up-only runs, each its
own process, cycling through the sub-seeds 64*seed + i.
  * The modelled `sim_*` metrics are the mean over the first run of each
    sub-seed; they are exact for a given --seed.
  * Host timings are scaled to a host on which the yardstick takes
    REFERENCE_S seconds, by the mean yardstick time of the window:
    `sim_s_per_wall_s` is the mean over the plain runs, `setup_s` the
    median over the set-up-only and plain runs. The host this was built
    on drifts by tens of percent within minutes, and the yardstick drifts
    with it.
  * `peak_rss_mb` is the median VmHWM of the plain runs.
--trace 1 measures the per-layer split: pairs of one plain and one traced
  run of sub-seed 64*seed, alternating which goes first, until --seconds
  have passed. Counts are exact for a given --seed; times are medians.

Every run is checked (conservation, unique completion ids, causal rows);
runs of one sub-seed must agree on the behaviour digest and on every
`RunReport` counter, traced or not. The last stdout line is one JSON
object {correct, attempted, failed, metrics}; a table with units goes to
stderr and the full record, raw timings included, is appended to --out
(JSONL).

`python3 perfbench/run.py --manifest` prints the BENCHMARK.json this
file's catalogue implies.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# name -> (sub-seeds per --trace 0 run, why it was chosen)
WORKLOADS = {
    "static_stream": (
        6,
        "StaticPolicy, ~1e5 short chat turns at ~85% load: host time is engine "
        "bookkeeping; control workload that bypasses Eq. 7, KV pressure, prefix "
        "cache, churn, telemetry",
    ),
    "hetis_slo_mix": (
        6,
        "HetisPolicy on the paper cluster: bursty interactive chat + LongBench "
        "batch, chunked/fused/SLO-slack; Eq. 7 dispatch, re-dispatch, KV growth "
        "under long prompts",
    ),
    "elastic_sessions": (
        16,
        "ElasticPolicy<Hetis> on multi-turn sessions: prefix reuse, P100 "
        "preemption storm, telemetry + closed loop; the only reader of those "
        "paths",
    ),
}
SETUPS_PER_ROUND = 2
# Host timings are reported as if the yardstick took this many seconds.
REFERENCE_S = 0.15
# Optional rounds stop being started past this many seconds of the run.
HARD_STOP_S = 140.0

# (name, unit, better, bound): measured with --trace 0.
END_TO_END = [
    ("sim_s_per_wall_s", "s/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
    ("sim_ttft_p50_s", "s", "lower", 0.2),
    ("sim_ttft_p99_s", "s", "lower", 0.2),
    ("sim_tpot_p50_s", "s", "lower", 0.2),
    ("sim_tpot_p99_s", "s", "lower", 0.2),
    ("sim_goodput_tok_s", "tok/s", "higher", 0.2),
    ("sim_slo_attainment", "ratio", "higher", 0.2),
]
MODELLED = [n for n, _, _, _ in END_TO_END if n.startswith("sim_") and n != "sim_s_per_wall_s"]

# (name, unit, better): measured with --trace 1. Counts of work done
# (calls, solves, events, growths) are "lower": the same output with less.
PER_LAYER = [
    ("engine.step_us_p50", "us", "lower"),
    ("engine.step_us_p99", "us", "lower"),
    ("engine.step_us_p999", "us", "lower"),
    ("engine.step_tail_share", "ratio", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.self_share", "ratio", "lower"),
    ("engine.events", "count", "lower"),
    ("engine.events_per_s", "1/s", "higher"),
    ("engine.new_s", "s", "lower"),
    ("workload.requests", "count", "lower"),
    ("workload.prompt_tokens", "count", "lower"),
    ("workload.gen_s", "s", "lower"),
    ("policy.topology_s", "s", "lower"),
    ("policy.self_s", "s", "lower"),
    ("policy.self_share", "ratio", "lower"),
    ("policy.route.calls", "count", "lower"),
    ("policy.route.self_s", "s", "lower"),
    ("policy.place_batch.calls", "count", "lower"),
    ("policy.place_batch.self_s", "s", "lower"),
    ("policy.place_batch.placed_ratio", "ratio", "higher"),
    ("policy.before_decode.calls", "count", "lower"),
    ("policy.before_decode.self_s", "s", "lower"),
    ("policy.before_decode.ops", "count", "lower"),
    ("policy.select_victim.calls", "count", "lower"),
    ("policy.select_victim.self_s", "s", "lower"),
    ("lp.waterfill_solves", "count", "lower"),
    ("lp.simplex_solves", "count", "lower"),
    ("engine.kv_growths", "count", "lower"),
    ("engine.kv_grow_failures", "count", "lower"),
    ("engine.preemptions", "count", "lower"),
    ("engine.peak_kv_reserved_gb", "GB", "lower"),
    ("engine.prefill_iterations", "count", "lower"),
    ("engine.fused_iterations", "count", "higher"),
    ("engine.prefill_tokens", "count", "lower"),
    ("engine.prefix_probes", "count", "lower"),
    ("engine.prefix_hit_rate", "ratio", "higher"),
    ("engine.prefix_hit_tokens", "count", "higher"),
    ("elastic.on_cluster_change.calls", "count", "lower"),
    ("elastic.on_cluster_change.self_s", "s", "lower"),
    ("elastic.on_telemetry_tick.calls", "count", "lower"),
    ("elastic.on_telemetry_tick.self_s", "s", "lower"),
    ("elastic.self_s", "s", "lower"),
    ("engine.replans", "count", "lower"),
    ("engine.migrations", "count", "lower"),
    ("engine.migrated_gb", "GB", "lower"),
    ("engine.lost_tokens", "count", "lower"),
    ("telemetry.dropped", "count", "lower"),
    ("telemetry.control_actions", "count", "lower"),
    ("trace_overhead", "ratio", "lower"),
]
# Per-layer metrics taken from the plain (untraced) run of each pair.
FROM_PLAIN = {"workload.gen_s", "policy.topology_s", "engine.new_s"}
CHECKS = ("check.conservation", "check.unique_ids", "check.causal_rows")


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 30,
        "workloads": [{"name": n, "why": w[1]} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": x} for n, u, b, x in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else float("nan")


def mean(values):
    values = list(values)
    return statistics.fmean(values) if values else float("nan")


def build():
    """Builds the benchmark binary; returns its path or None."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    binary = target / "release" / "perfbench"
    return binary if done.returncode == 0 and binary.exists() else None


class Runner:
    """Starts benchmark processes and keeps every output."""

    def __init__(self, binary, workload):
        self.binary = binary
        self.workload = workload
        self.runs = []  # simulation runs: (subseed, mode, output or None)
        self.setups = []  # set-up-only outputs (None when the process failed)
        self.references = []  # yardstick seconds (None when the process failed)

    def _start(self, args):
        cmd = [str(self.binary), *args]
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        except subprocess.TimeoutExpired:
            done = None
        if done is not None and done.returncode == 0:
            try:
                return json.loads(done.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                pass
        log(f"run failed: {' '.join(cmd)}")
        if done is not None:
            log(done.stderr[-2000:])
        return None

    def run(self, subseed, mode):
        out = self._start(["--workload", self.workload, "--seed", str(subseed), "--mode", mode])
        if mode == "setup":
            self.setups.append(out)
        else:
            self.runs.append((subseed, mode, out))
        return out

    def reference(self):
        out = self._start(["--reference"])
        self.references.append(out and out["reference_s"])

    def complete(self):
        return all(o is not None for o in self.setups + self.references) and all(
            o is not None for _, _, o in self.runs
        )


def verdict(runner):
    """(correct, attempted, failed) over every simulation run."""
    attempted = failed = 0
    correct = runner.complete()
    sizes = {s: o["attempted"] for s, _, o in runner.runs if o}
    fingerprints = {}
    for subseed, _, out in runner.runs:
        if out is None:
            # A crash counts every request of that run as failed.
            attempted += sizes.get(subseed, 1)
            failed += sizes.get(subseed, 1)
            continue
        attempted += out["attempted"]
        failed += out["unfinished"]
        if not all(out[c] for c in CHECKS):
            correct = False
        fp = (out["digest"], out["counters"])
        if fingerprints.setdefault(subseed, fp) != fp:
            log(f"sub-seed {subseed}: runs disagree on digest or counters")
            correct = False
    return correct, max(attempted, 1), failed


def until(begin, seconds, start):
    now = time.monotonic()
    return now - begin < seconds and now - start < HARD_STOP_S


def end_to_end(runner, seed, seconds, start):
    """End-to-end metrics and the raw host timings behind them."""
    count = WORKLOADS[runner.workload][0]
    subseeds = [seed * 64 + i for i in range(count)]
    begin = time.monotonic()
    rounds = 0
    while rounds < count or until(begin, seconds, start):
        runner.reference()
        runner.run(subseeds[rounds % count], "plain")
        for j in range(SETUPS_PER_ROUND):
            runner.run(subseeds[(rounds + j) % count], "setup")
        rounds += 1
    runner.reference()
    plain = [o for _, _, o in runner.runs if o]
    # Means, not medians, for the two numbers that get scaled: the host
    # switches between a fast and a slow mode, and a median of a few
    # samples lands in either mode while a mean tracks the share of time
    # spent in each, for the simulation and the yardstick alike.
    raw = {
        "reference_s": mean(r for r in runner.references if r),
        "sim_s_per_wall_s": mean(o["sim_s_per_wall_s"] for o in plain),
        "setup_s": median([o["setup_s"] for o in runner.setups + plain if o]),
    }
    slowdown = raw["reference_s"] / REFERENCE_S
    metrics = {
        "sim_s_per_wall_s": raw["sim_s_per_wall_s"] * slowdown,
        "peak_rss_mb": median([o["peak_rss_mb"] for o in plain]),
        "setup_s": raw["setup_s"] / slowdown,
    }
    first = [o for _, _, o in runner.runs[:count] if o]
    for name in MODELLED:
        metrics[name] = mean(o[name] for o in first)
    return metrics, raw


def per_layer(runner, seed, seconds, start):
    subseed = seed * 64
    begin = time.monotonic()
    pairs = []
    while not pairs or until(begin, seconds, start):
        order = ("plain", "traced") if len(pairs) % 2 == 0 else ("traced", "plain")
        got = {mode: runner.run(subseed, mode) for mode in order}
        if got["plain"] is None or got["traced"] is None:
            break
        pairs.append((got["plain"], got["traced"]))
    metrics = {}
    for name, _, _ in PER_LAYER:
        if name == "trace_overhead":
            values = [t["loop_s"] / p["loop_s"] - 1.0 for p, t in pairs]
        elif name == "engine.events_per_s":
            values = [t["engine.events"] / p["loop_s"] for p, t in pairs]
        else:
            values = [(p if name in FROM_PLAIN else t)[name] for p, t in pairs]
        metrics[name] = median(values)
    return metrics, {}


def host():
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpus": os.cpu_count(), "cpu_model": model, "machine": platform.machine()}


def bench(binary, workload, seed, seconds, trace, out_path):
    start = time.monotonic()
    runner = Runner(binary, workload)
    if trace:
        metrics, raw = per_layer(runner, seed, seconds, start)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        metrics, raw = end_to_end(runner, seed, seconds, start)
        units = {n: u for n, u, _, _ in END_TO_END}
    correct, attempted, failed = verdict(runner)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        # A metric that could not be measured (every run failed) is null.
        "metrics": {n: {"value": metrics[n] if metrics[n] == metrics[n] else None,
                        "unit": units[n]} for n in units},
    }
    log(f"== {workload} seed={seed} trace={trace}: {len(runner.runs)} simulation runs, "
        f"correct={correct}, attempted={attempted}, failed={failed} "
        f"(failed_frac={failed / attempted:.6g})")
    for n in units:
        log(f"  {n:36s} {metrics[n]:>16.6g} {units[n]}")
    for n, v in raw.items():
        log(f"  raw {n:32s} {v:>16.6g}")
    samples = [{"seed": s, "mode": m, **{k: o[k] for k in ("loop_s", "sim_s", "setup_s")}}
               for s, m, o in runner.runs if o]
    record = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  host=host(), raw=raw, references=runner.references, samples=samples,
                  setups=[o["setup_s"] for o in runner.setups if o],
                  digests=sorted({o["digest"] for _, _, o in runner.runs if o}))
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("a") as f:
        f.write(json.dumps(record) + "\n")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=".bench_results/results.jsonl",
                    help="JSONL file the full record is appended to")
    ap.add_argument("--manifest", action="store_true", help="print BENCHMARK.json")
    args = ap.parse_args()
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "crates").is_dir():
        log("perfbench: the simulator sources (crates/) are not next to perfbench/")
        return 1
    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    out_path = Path(args.out)
    if not out_path.is_absolute():
        out_path = ROOT / out_path
    # Each measured window starts after the build.
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.workload == "all" else (args.trace,)
    for name in names:
        for trace in traces:
            result = bench(binary, name, args.seed, args.seconds, trace, out_path)
            print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
