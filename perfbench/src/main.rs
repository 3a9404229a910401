//! One run of one named workload through the simulator's public API.
//!
//! ```text
//! perfbench --workload <static_stream|hetis_slo_mix|elastic_sessions>
//!           --seed <n> --mode <setup|plain|traced>
//! perfbench --reference
//! ```
//!
//! * `setup`  — builds the trace, the policy topology and the engine,
//!   then exits: set-up time only.
//! * `plain`  — set-up plus the untimed-inside event loop: host speed,
//!   peak RSS and the modelled serving metrics.
//! * `traced` — the same run with every policy hook behind a timing
//!   wrapper and every `Engine::step` timed: the per-layer split.
//! * `--reference` — times the host-speed yardstick in [`reference`].
//!
//! The engine is driven step by step on the calling thread; the run
//! never goes through `hetis_engine::run`, which may pick the sharded
//! path from the environment. Prints one JSON object on stdout.

mod reference;
mod timed;
mod workloads;

use hetis_cluster::cluster::paper_cluster;
use hetis_cluster::Cluster;
use hetis_core::{HetisConfig, HetisPolicy, WorkloadProfile};
use hetis_elastic::{ElasticController, ElasticPolicy};
use hetis_engine::policy::StaticPolicy;
use hetis_engine::{Engine, Policy, RunReport};
use hetis_model::{llama_13b, ModelSpec};
use hetis_sim::percentile;
use hetis_workload::DatasetKind;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::time::Instant;
use timed::{Hook, HookStats, SharedStats, Timed};
use workloads::{Kind, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Setup,
    Plain,
    Traced,
}

/// Ordered `key: value` pairs rendered as one JSON object.
#[derive(Default)]
struct Out(Vec<(String, String)>);

impl Out {
    fn num(&mut self, key: &str, v: f64) {
        let v = if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        };
        self.0.push((key.into(), v));
    }
    fn int(&mut self, key: &str, v: u64) {
        self.0.push((key.into(), v.to_string()));
    }
    fn flag(&mut self, key: &str, v: bool) {
        self.0.push((key.into(), v.to_string()));
    }
    fn text(&mut self, key: &str, v: &str) {
        self.0.push((key.into(), format!("\"{v}\"")));
    }
    fn render(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What a run hands back besides its report.
struct LoopTiming {
    /// Host seconds of the step loop.
    wall_s: f64,
    /// Per-step host nanoseconds (traced mode only).
    step_ns: Vec<u64>,
    /// Outer-policy hook nanoseconds spent inside the loop.
    hook_ns: u64,
}

struct Bench<'a> {
    cluster: &'a Cluster,
    model: &'a ModelSpec,
    work: &'a Workload,
    mode: Mode,
    start: Instant,
    out: Out,
}

impl Bench<'_> {
    /// Topology search, engine construction and (unless set-up only) the
    /// step loop. `outer` is the stats of the outermost timing wrapper.
    fn drive<P: Policy>(
        &mut self,
        mut policy: P,
        outer: Option<&SharedStats>,
    ) -> Option<(RunReport, LoopTiming)> {
        let t = Instant::now();
        let topo = policy.topology(self.cluster, self.model, &self.work.cfg);
        self.out.num("policy.topology_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        let mut engine = Engine::new_with_churn(
            policy,
            self.cluster,
            self.model,
            self.work.cfg.clone(),
            topo,
            &self.work.trace,
            &self.work.churn,
        );
        self.out.num("engine.new_s", t.elapsed().as_secs_f64());
        self.out.num("setup_s", self.start.elapsed().as_secs_f64());
        if self.mode == Mode::Setup {
            return None;
        }
        let hook_ns = |s: Option<&SharedStats>| s.map_or(0, |s| s.borrow().step_hook_ns());
        let hooks_before = hook_ns(outer);
        let mut step_ns = Vec::new();
        let t = Instant::now();
        if self.mode == Mode::Traced {
            loop {
                let s = Instant::now();
                let more = engine.step();
                step_ns.push(s.elapsed().as_nanos() as u64);
                if !more {
                    break;
                }
            }
        } else {
            while engine.step() {}
        }
        let wall_s = t.elapsed().as_secs_f64();
        let hook_ns = hook_ns(outer) - hooks_before;
        let report = engine.into_report();
        Some((
            report,
            LoopTiming {
                wall_s,
                step_ns,
                hook_ns,
            },
        ))
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <static_stream|hetis_slo_mix|elastic_sessions> \
         --seed <n> --mode <setup|plain|traced>\n       perfbench --reference"
    );
    std::process::exit(2)
}

fn parse_args() -> (Kind, u64, Mode) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = None;
    let mut mode = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else { usage() };
        match flag.as_str() {
            "--workload" => kind = Kind::parse(value),
            "--seed" => seed = value.parse().ok(),
            "--mode" => {
                mode = match value.as_str() {
                    "setup" => Some(Mode::Setup),
                    "plain" => Some(Mode::Plain),
                    "traced" => Some(Mode::Traced),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (kind, seed, mode) {
        (Some(k), Some(s), Some(m)) => (k, s, m),
        _ => usage(),
    }
}

fn main() {
    let start = Instant::now();
    if std::env::args().skip(1).eq(["--reference"]) {
        println!("{{\"reference_s\": {}}}", reference::run());
        return;
    }
    let (kind, seed, mode) = parse_args();
    let cluster = paper_cluster();
    let model = llama_13b();

    let t = Instant::now();
    let work = workloads::build(kind, seed, &cluster);
    let gen_s = t.elapsed().as_secs_f64();

    let mut bench = Bench {
        cluster: &cluster,
        model: &model,
        work: &work,
        mode,
        start,
        out: Out::default(),
    };
    bench.out.text("workload", kind.name());
    bench.out.int("seed", seed);
    bench.out.num("workload.gen_s", gen_s);
    bench.out.int("workload.requests", work.trace.len() as u64);
    bench
        .out
        .int("workload.prompt_tokens", work.trace.total_input_tokens());

    let traced = mode == Mode::Traced;
    let outer: SharedStats = Default::default();
    let inner: SharedStats = Default::default();
    let hetis_cfg = HetisConfig::default();
    let profile = WorkloadProfile::for_cluster(DatasetKind::ShareGpt, &cluster, &model, 0.3);
    let hetis = || HetisPolicy::new(hetis_cfg.clone(), profile);
    let probe_solves = |p: &HetisPolicy, s: &mut HookStats| {
        s.solves = p.dispatcher().map(|d| d.solver_counts());
    };

    let ran = match (kind, traced) {
        (Kind::StaticStream, false) => bench.drive(
            StaticPolicy::new("dp2-a100", workloads::static_topology()),
            None,
        ),
        (Kind::StaticStream, true) => bench.drive(
            Timed::new(
                StaticPolicy::new("dp2-a100", workloads::static_topology()),
                outer.clone(),
            ),
            Some(&outer),
        ),
        (Kind::HetisSloMix, false) => bench.drive(hetis(), None),
        (Kind::HetisSloMix, true) => bench.drive(
            Timed::new(hetis(), outer.clone()).with_drop_probe(probe_solves),
            Some(&outer),
        ),
        (Kind::ElasticSessions, false) => bench.drive(
            ElasticPolicy::with_controller(
                hetis(),
                ElasticController::new(hetis_cfg.clone(), profile),
            ),
            None,
        ),
        (Kind::ElasticSessions, true) => bench.drive(
            Timed::new(
                ElasticPolicy::with_controller(
                    Timed::new(hetis(), inner.clone()).with_drop_probe(probe_solves),
                    ElasticController::new(hetis_cfg.clone(), profile),
                ),
                outer.clone(),
            ),
            Some(&outer),
        ),
    };
    let mut out = std::mem::take(&mut bench.out);
    if let Some((report, timing)) = ran {
        serving(&mut out, &work, &report, &timing);
        if traced {
            let elastic = kind == Kind::ElasticSessions;
            layers(
                &mut out,
                &report,
                &timing,
                &outer.borrow(),
                elastic.then(|| inner.borrow()).as_deref(),
            );
        }
    }
    println!("{}", out.render());
}

/// Peak resident set of this process, MB (VmHWM).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn pct(values: &[f64], p: f64) -> f64 {
    percentile(values, p).unwrap_or(f64::NAN)
}

/// Host speed, modelled serving metrics, correctness checks and the
/// behaviour fingerprint of one finished run.
fn serving(out: &mut Out, work: &Workload, report: &RunReport, timing: &LoopTiming) {
    let attempted = work.trace.len();
    out.num("loop_s", timing.wall_s);
    out.num("sim_s", report.duration);
    out.num("sim_s_per_wall_s", report.duration / timing.wall_s);
    out.num("peak_rss_mb", peak_rss_mb());
    out.int("attempted", attempted as u64);
    out.int("completed", report.completed.len() as u64);
    out.int("unfinished", report.unfinished as u64);

    let ttft: Vec<f64> = report.completed.iter().map(|c| c.ttft()).collect();
    let tpot: Vec<f64> = report
        .completed
        .iter()
        .filter(|c| c.output_len > 1)
        .map(|c| c.tpot())
        .collect();
    out.num("sim_ttft_p50_s", pct(&ttft, 50.0));
    out.num("sim_ttft_p99_s", pct(&ttft, 99.0));
    out.num("sim_tpot_p50_s", pct(&tpot, 50.0));
    out.num("sim_tpot_p99_s", pct(&tpot, 99.0));
    out.num("sim_goodput_tok_s", report.goodput());
    let met = report.completed.iter().filter(|c| c.slo_met()).count();
    out.num("sim_slo_attainment", met as f64 / attempted.max(1) as f64);

    let mut ids = HashSet::with_capacity(report.completed.len());
    let unique = report
        .completed
        .iter()
        .all(|c| (c.id.0 as usize) < attempted && ids.insert(c.id));
    let causal = report
        .completed
        .iter()
        .all(|c| c.arrival <= c.first_token && c.first_token <= c.completion);
    out.flag(
        "check.conservation",
        report.completed.len() + report.unfinished == attempted,
    );
    out.flag("check.unique_ids", unique);
    out.flag("check.causal_rows", causal);
    out.text("digest", &format!("{:016x}", report.digest()));
    out.text("counters", &counters(report));
}

/// Every non-wall `RunReport` counter, as one comparable string.
fn counters(r: &RunReport) -> String {
    let mut s = String::new();
    let fields: [(&str, u64); 23] = [
        ("completed", r.completed.len() as u64),
        ("unfinished", r.unfinished as u64),
        ("duration_bits", r.duration.to_bits()),
        ("preemptions", r.preemptions),
        ("migrations", r.migrations),
        ("migrated_bytes_bits", r.migrated_bytes.to_bits()),
        ("replans", r.replans.len() as u64),
        ("lost_tokens", r.lost_tokens),
        ("churn_evictions", r.churn_evictions),
        ("prefill_tokens", r.prefill_tokens),
        ("prefill_iterations", r.prefill_iterations),
        ("max_prefill_iter_tokens", r.max_prefill_iter_tokens),
        ("events_processed", r.events_processed),
        ("peak_kv_reserved_bytes", r.peak_kv_reserved_bytes),
        ("fused_iterations", r.fused_iterations),
        ("kv_growths", r.kv_growths),
        ("kv_grow_failures", r.kv_grow_failures),
        ("prefix_probes", r.prefix_probes),
        ("prefix_hits", r.prefix_hits),
        ("prefix_hit_tokens", r.prefix_hit_tokens),
        ("shared_kv_bytes", r.shared_kv_bytes),
        ("telemetry_dropped", r.telemetry_dropped),
        ("control_actions", r.control_log.len() as u64),
    ];
    for (k, v) in fields {
        let _ = write!(s, "{k}={v};");
    }
    s
}

/// The per-layer split of a traced run. `inner` is the wrapper around
/// the `HetisPolicy` inside `ElasticPolicy` (elastic workload only); the
/// policy layer is read from it when present, so the elastic layer is
/// the outer wrapper's time minus the inner one's.
fn layers(
    out: &mut Out,
    report: &RunReport,
    timing: &LoopTiming,
    outer: &HookStats,
    inner: Option<&HookStats>,
) {
    let secs = |ns: u64| ns as f64 * 1e-9;
    let mut steps: Vec<f64> = timing.step_ns.iter().map(|&n| n as f64 * 1e-3).collect();
    steps.sort_by(|a, b| a.partial_cmp(b).expect("finite step times"));
    let step_total: f64 = steps.iter().sum();
    let tail = steps.len().div_ceil(100);
    let tail_sum: f64 = steps[steps.len() - tail..].iter().sum();
    out.num("engine.step_us_p50", pct(&steps, 50.0));
    out.num("engine.step_us_p99", pct(&steps, 99.0));
    out.num("engine.step_us_p999", pct(&steps, 99.9));
    out.num("engine.step_tail_share", tail_sum / step_total);
    let engine_self = step_total * 1e-6 - secs(timing.hook_ns);
    out.num("engine.self_s", engine_self);
    out.num("engine.self_share", engine_self / timing.wall_s);
    out.int("engine.events", report.events_processed);

    let policy = inner.unwrap_or(outer);
    let policy_s = secs(policy.step_hook_ns());
    out.num("policy.self_s", policy_s);
    out.num("policy.self_share", policy_s / timing.wall_s);
    for hook in [
        Hook::Route,
        Hook::PlaceBatch,
        Hook::BeforeDecode,
        Hook::SelectVictim,
    ] {
        let st = policy.hook(hook);
        out.int(&format!("policy.{}.calls", hook.name()), st.calls);
        out.num(&format!("policy.{}.self_s", hook.name()), secs(st.ns));
    }
    out.num(
        "policy.place_batch.placed_ratio",
        if policy.place_offered == 0 {
            0.0
        } else {
            policy.place_returned as f64 / policy.place_offered as f64
        },
    );
    out.int("policy.before_decode.ops", policy.redispatch_ops);
    let (waterfill, simplex) = policy.solves.unwrap_or((0, 0));
    out.int("lp.waterfill_solves", waterfill);
    out.int("lp.simplex_solves", simplex);

    // Elastic layer: wrapper time minus the wrapped Hetis policy's.
    for hook in [Hook::OnClusterChange, Hook::OnTelemetryTick] {
        let (calls, s) = inner.map_or((0, 0.0), |i| {
            let total = outer.hook(hook);
            (total.calls, secs(total.ns.saturating_sub(i.hook(hook).ns)))
        });
        out.int(&format!("elastic.{}.calls", hook.name()), calls);
        out.num(&format!("elastic.{}.self_s", hook.name()), s);
    }
    let elastic_s = inner.map_or(0.0, |i| {
        secs(outer.step_hook_ns().saturating_sub(i.step_hook_ns()))
    });
    out.num("elastic.self_s", elastic_s);

    out.int("engine.kv_growths", report.kv_growths);
    out.int("engine.kv_grow_failures", report.kv_grow_failures);
    out.int("engine.preemptions", report.preemptions);
    out.num(
        "engine.peak_kv_reserved_gb",
        report.peak_kv_reserved_bytes as f64 / 1e9,
    );
    out.int("engine.prefill_iterations", report.prefill_iterations);
    out.int("engine.fused_iterations", report.fused_iterations);
    out.int("engine.prefill_tokens", report.prefill_tokens);
    out.int("engine.prefix_probes", report.prefix_probes);
    out.num("engine.prefix_hit_rate", report.prefix_hit_rate());
    out.int("engine.prefix_hit_tokens", report.prefix_hit_tokens);
    out.int("engine.replans", report.replans.len() as u64);
    out.int("engine.migrations", report.migrations);
    out.num("engine.migrated_gb", report.migrated_bytes / 1e9);
    out.int("engine.lost_tokens", report.lost_tokens);
    out.int("telemetry.dropped", report.telemetry_dropped);
    out.int("telemetry.control_actions", report.control_log.len() as u64);
}
