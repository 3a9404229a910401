//! Prefix/KV reuse scenario: multi-turn chat sessions where every
//! follow-up turn replays the previous turn's full context. Two systems
//! share the trace, the cluster, and the Hetis dispatch policy:
//!
//! * `reuse-off` — the baseline engine; every turn pays the full
//!   quadratic prefill over its replayed context.
//! * `reuse-on` — the engine's session-scoped prefix cache: a finished
//!   turn registers its KV footprint, the next turn of the same session
//!   adopts the warm block-aligned prefix and prefills only the cold
//!   remainder, pinned to the registering instance's head placement.
//!
//! Prints one TSV row per (system, class) plus reuse counters, memory
//! (peak-reserved-KV), sim-throughput, behavior-digest and determinism
//! rows. Exits non-zero unless reuse strictly improves interactive mean
//! AND p99 TTFT, strictly lowers peak reserved KV, loses no tokens, and
//! keeps goodput at least equal — with bit-identical digests across
//! same-seed reruns.

use hetis_bench::{bench_engine_config, bench_hetis_config, bench_profile_for, f, tsv_header};
use hetis_cluster::cluster::paper_cluster;
use hetis_core::HetisPolicy;
use hetis_engine::{run, AdmissionPolicy, RunReport};
use hetis_model::llama_13b;
use hetis_workload::{multi_turn_trace, DatasetKind, SessionWorkload, SloClass};

fn main() {
    let cluster = paper_cluster();
    let model = llama_13b();

    // Sixty 5-turn chat sessions: contexts accumulate to thousands of
    // tokens by the last turn, so ~everything past turn 0 is replayed
    // prefix. Think gaps average 35 s — ShareGPT completions decode for
    // tens of seconds, so this leaves most turns finished (KV registered
    // for reuse) when the follow-up arrives (~75% hit rate), while
    // session overlap keeps the cluster contended.
    let spec = SessionWorkload {
        sessions: 60,
        turns: 5,
        session_rate: 2.0,
        mean_think: 35.0,
        dataset: DatasetKind::ShareGpt,
        class: SloClass::Interactive,
    };
    let trace = multi_turn_trace(&spec, 4242);

    let profile = bench_profile_for(DatasetKind::ShareGpt, &cluster, &model);
    let run_named = |which: &str| -> RunReport {
        let mut cfg = bench_engine_config();
        cfg.prefill_chunk_tokens = Some(512);
        cfg.admission = AdmissionPolicy::SloSlack;
        match which {
            "reuse-off" => {}
            "reuse-on" => cfg.prefix_reuse = true,
            _ => unreachable!(),
        }
        run(
            HetisPolicy::new(bench_hetis_config(), profile),
            &cluster,
            &model,
            cfg,
            &trace,
        )
    };

    tsv_header(&[
        "scenario",
        "system",
        "class",
        "completed",
        "slo_met",
        "attainment",
        "p99_ttft_s",
        "p95_ttft_s",
        "p95_tpot_s",
        "goodput_tok_s",
    ]);

    let mut reports = std::collections::HashMap::new();
    for which in ["reuse-off", "reuse-on"] {
        let wall_start = std::time::Instant::now();
        let report = run_named(which);
        let wall = wall_start.elapsed().as_secs_f64();
        println!(
            "prefix_reuse\tsim-throughput\t{which}\tsim_s={}\twall_s={}\tsim_per_wall={}\tevents={}\tevents_per_s={}",
            f(report.duration),
            f(wall),
            f(report.duration / wall),
            report.events_processed,
            f(report.events_processed as f64 / wall),
        );
        // Reuse line: what the cache actually did.
        println!(
            "prefix_reuse\treuse\t{which}\tprobes={}\thits={}\thit_rate={}\thit_tokens={}\tshared_kv_bytes={}\tprefill_tokens={}\tpeak_kv_reserved={}",
            report.prefix_probes,
            report.prefix_hits,
            f(report.prefix_hit_rate()),
            report.prefix_hit_tokens,
            report.shared_kv_bytes,
            report.prefill_tokens,
            report.peak_kv_reserved_bytes,
        );
        println!(
            "prefix_reuse\tbehavior-digest\t{which}\t{:016x}",
            report.digest()
        );
        for s in report.class_stats() {
            println!(
                "prefix_reuse\t{which}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.class,
                s.completed,
                s.slo_met,
                f(s.attainment()),
                f(s.p99_ttft),
                f(s.p95_ttft),
                f(s.p95_tpot),
                f(s.goodput_tokens as f64 / report.duration),
            );
        }
        reports.insert(which, report);
    }
    let (off, on) = (&reports["reuse-off"], &reports["reuse-on"]);

    // Determinism: same seed, same digest — for both systems.
    for which in ["reuse-off", "reuse-on"] {
        let again = run_named(which);
        let same = reports[which].digest() == again.digest();
        println!(
            "prefix_reuse\tdeterminism\t{which}\tdigest_a={:016x}\tdigest_b={:016x}\t{}",
            reports[which].digest(),
            again.digest(),
            if same { "IDENTICAL" } else { "DIVERGED" }
        );
        assert!(same, "{which}: same seed must reproduce the digest");
    }

    // The cache must actually serve warm prefixes on this trace.
    assert!(
        on.prefix_hits > 0 && on.prefix_hit_tokens > 0,
        "session trace must produce prefix hits"
    );
    assert_eq!(
        (off.prefix_probes, off.prefix_hits),
        (0, 0),
        "reuse-off must never touch the cache"
    );

    // Reuse must pay on every axis the feature claims: strictly better
    // interactive mean and p99 TTFT, strictly less peak reserved KV, no
    // lost tokens, goodput no worse.
    let mean_ttft = |r: &RunReport| {
        let ttfts: Vec<f64> = r
            .completed
            .iter()
            .filter(|c| c.class == SloClass::Interactive)
            .map(|c| c.first_token - c.arrival)
            .collect();
        ttfts.iter().sum::<f64>() / ttfts.len().max(1) as f64
    };
    assert!(
        mean_ttft(on) < mean_ttft(off),
        "reuse must cut interactive mean TTFT: {} vs {}",
        mean_ttft(on),
        mean_ttft(off)
    );
    assert!(
        on.p99_ttft_of_class(SloClass::Interactive) < off.p99_ttft_of_class(SloClass::Interactive),
        "reuse must cut interactive p99 TTFT: {} vs {}",
        on.p99_ttft_of_class(SloClass::Interactive),
        off.p99_ttft_of_class(SloClass::Interactive)
    );
    assert!(
        on.peak_kv_reserved_bytes < off.peak_kv_reserved_bytes,
        "skipped chunk reservations must lower peak reserved KV: {} vs {}",
        on.peak_kv_reserved_bytes,
        off.peak_kv_reserved_bytes
    );
    assert_eq!(on.lost_tokens, 0, "reuse must not lose tokens");
    assert!(
        on.goodput() >= off.goodput(),
        "reuse must not cost goodput: {} vs {}",
        on.goodput(),
        off.goodput()
    );
    // Work conservation: the warm tokens are exactly the prefill work
    // the engine no longer performs.
    assert_eq!(
        on.prefill_tokens + on.prefix_hit_tokens,
        off.prefill_tokens,
        "warm + cold prefill tokens must telescope to the baseline total"
    );
}
