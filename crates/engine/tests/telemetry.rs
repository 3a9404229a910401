//! Telemetry bus integration gates (ISSUE 6).
//!
//! 1. **Digest neutrality** — enabling telemetry (any ring size, any
//!    window) must not perturb the simulation: behavior digests are
//!    bit-identical with the bus on and off, and so is every report
//!    field outside telemetry's own output. The scenario gate pins the
//!    digest across both `HETIS_DISPATCH_SOLVER` modes.
//! 2. **Flow-record completeness** — one JSONL flow record per completed
//!    request, every line valid JSON, snapshot completion counts equal to
//!    the report's.
//! 3. **Exact percentile convergence** — with `TelemetryConfig::full_run`
//!    the streaming per-class p99 TTFT equals the end-of-run report p99
//!    bit for bit (same samples, same `hetis_sim::percentile`).
//! 4. **Drop accounting** — a tiny ring wraps, `telemetry_dropped`
//!    surfaces the overwrites in the report, and the digest still
//!    matches the disabled run (drops are a bus-side artifact).

use hetis_cluster::cluster::paper_cluster;
use hetis_cluster::GpuType;
use hetis_engine::policy::StaticPolicy;
use hetis_engine::{
    run, AdmissionPolicy, EngineConfig, InstanceRole, InstanceTopo, RunReport, StageTopo, Topology,
};
use hetis_model::llama_13b;
use hetis_parallel::StageConfig;
use hetis_telemetry::{validate_json_line, TelemetryConfig};
use hetis_workload::{DatasetKind, Poisson, SloClass, TraceBuilder};

fn a100_topo() -> Topology {
    let c = paper_cluster();
    Topology {
        instances: vec![InstanceTopo {
            stages: vec![StageTopo::plain(StageConfig {
                devices: c.devices_of_type(GpuType::A100),
                layers: 40,
            })],
            role: InstanceRole::Both,
        }],
    }
}

/// Chunked + slack-ordered run over a mixed ShareGPT trace — the same
/// harness shape as the kv_growth suite, exercising every tap site
/// (arrival, admission, chunks, first token, decode, completion).
fn run_with(telemetry: Option<TelemetryConfig>, seed: u64, rate: f64) -> RunReport {
    let cluster = paper_cluster();
    let model = llama_13b();
    let trace = TraceBuilder::new(DatasetKind::ShareGpt, seed).build(&Poisson::new(rate), 20.0);
    let cfg = EngineConfig {
        prefill_chunk_tokens: Some(256),
        admission: AdmissionPolicy::SloSlack,
        telemetry,
        ..EngineConfig::default()
    };
    run(
        StaticPolicy::new("vllm", a100_topo()),
        &cluster,
        &model,
        cfg,
        &trace,
    )
}

/// Every `RunReport` field except the exempt ones below, one
/// `(name, rendering)` pair each. Top-level f64s render as their bit
/// pattern; nested rows render through `Debug`, whose f64 output is the
/// shortest string that round-trips, so two non-NaN floats render alike
/// only when their bits match. The destructuring names every field, so
/// a new report field fails to compile here until it is classified.
fn report_fields(r: &RunReport) -> Vec<(&'static str, String)> {
    let RunReport {
        policy,
        completed,
        unfinished,
        module_samples,
        trace,
        duration,
        total_kv_pool_bytes,
        usable_kv_bytes,
        preemptions,
        migrations,
        migrated_bytes,
        replans,
        lost_tokens,
        churn_evictions,
        prefill_tokens,
        prefill_iterations,
        max_prefill_iter_tokens,
        // Exempt: every `TelemetryTick` is an engine event.
        events_processed: _,
        peak_kv_reserved_bytes,
        fused_iterations,
        kv_growths,
        kv_grow_failures,
        prefix_probes,
        prefix_hits,
        prefix_hit_tokens,
        shared_kv_bytes,
        // Exempt: telemetry's own ring-wrap counter.
        telemetry_dropped: _,
        // Exempt: telemetry's own end-of-run snapshot.
        telemetry: _,
        control_log,
        cost,
    } = r;
    vec![
        ("policy", format!("{policy:?}")),
        ("completed", format!("{completed:?}")),
        ("unfinished", unfinished.to_string()),
        ("module_samples", format!("{module_samples:?}")),
        ("trace", format!("{trace:?}")),
        ("duration", format!("{:#x}", duration.to_bits())),
        ("total_kv_pool_bytes", total_kv_pool_bytes.to_string()),
        ("usable_kv_bytes", usable_kv_bytes.to_string()),
        ("preemptions", preemptions.to_string()),
        ("migrations", migrations.to_string()),
        ("migrated_bytes", format!("{:#x}", migrated_bytes.to_bits())),
        ("replans", format!("{replans:?}")),
        ("lost_tokens", lost_tokens.to_string()),
        ("churn_evictions", churn_evictions.to_string()),
        ("prefill_tokens", prefill_tokens.to_string()),
        ("prefill_iterations", prefill_iterations.to_string()),
        (
            "max_prefill_iter_tokens",
            max_prefill_iter_tokens.to_string(),
        ),
        ("peak_kv_reserved_bytes", peak_kv_reserved_bytes.to_string()),
        ("fused_iterations", fused_iterations.to_string()),
        ("kv_growths", kv_growths.to_string()),
        ("kv_grow_failures", kv_grow_failures.to_string()),
        ("prefix_probes", prefix_probes.to_string()),
        ("prefix_hits", prefix_hits.to_string()),
        ("prefix_hit_tokens", prefix_hit_tokens.to_string()),
        ("shared_kv_bytes", shared_kv_bytes.to_string()),
        ("control_log", format!("{control_log:?}")),
        ("cost", format!("{cost:?}")),
    ]
}

/// Asserts that `on` matches `off` in the digest and in every
/// non-exempt report field.
fn assert_same_run(off: &RunReport, on: &RunReport, label: &str) {
    assert_eq!(
        off.digest(),
        on.digest(),
        "{label}: telemetry perturbed the digest"
    );
    for ((name, a), (_, b)) in report_fields(off).into_iter().zip(report_fields(on)) {
        assert!(a == b, "{label}: telemetry changed report field `{name}`");
    }
}

/// The zero-cost gating contract, measured: default bus, full-run bus and
/// a deliberately wrapping 8-slot ring all reproduce the disabled run
/// exactly — the digest and every report field telemetry does not own.
#[test]
fn telemetry_is_digest_neutral() {
    let off = run_with(None, 42, 5.0);
    assert!(off.completed.len() > 10, "trace too light to mean anything");
    assert!(!off.module_samples.is_empty() && !off.trace.is_empty());
    assert_eq!(off.telemetry_dropped, 0);
    assert!(off.telemetry.is_none());

    let on = run_with(Some(TelemetryConfig::default()), 42, 5.0);
    assert_same_run(&off, &on, "default bus");

    let full = run_with(Some(TelemetryConfig::full_run()), 42, 5.0);
    assert_same_run(&off, &full, "full-run bus");

    let tiny = run_with(
        Some(TelemetryConfig {
            ring_capacity: 8,
            ..TelemetryConfig::default()
        }),
        42,
        5.0,
    );
    assert_same_run(&off, &tiny, "8-slot ring");
}

/// Satellite: ring-wrap drops surface in the report without touching the
/// digest (asserted above) — and a roomy ring drops nothing.
#[test]
fn dropped_counter_counts_ring_wrap() {
    let tiny = run_with(
        Some(TelemetryConfig {
            ring_capacity: 8,
            ..TelemetryConfig::default()
        }),
        42,
        5.0,
    );
    let snap = tiny.telemetry.as_ref().expect("bus was enabled");
    assert!(
        tiny.telemetry_dropped > 0,
        "an 8-slot ring must wrap on this trace"
    );
    assert_eq!(snap.dropped, tiny.telemetry_dropped);
    assert_eq!(snap.events_buffered, 8, "ring stays at capacity after wrap");

    let roomy = run_with(Some(TelemetryConfig::default()), 42, 5.0);
    assert_eq!(roomy.telemetry_dropped, 0);
    let snap = roomy.telemetry.as_ref().unwrap();
    assert_eq!(
        snap.events_published, snap.events_buffered as u64,
        "nothing dropped ⇒ everything still buffered"
    );
}

/// Every completion produces exactly one flow record; the JSONL sink
/// writes one parseable line per record; the snapshot agrees with the
/// report on counts and leaves no flow open after drain.
#[test]
fn flow_records_cover_every_completion() {
    let path = std::env::temp_dir().join("hetis_telemetry_test_flows.jsonl");
    let report = run_with(
        Some(TelemetryConfig {
            jsonl_path: Some(path.to_str().unwrap().to_string()),
            ..TelemetryConfig::full_run()
        }),
        7,
        4.0,
    );
    let snap = report.telemetry.as_ref().expect("bus was enabled");
    assert_eq!(snap.completions, report.completed.len() as u64);
    assert_eq!(report.unfinished, 0);
    assert_eq!(snap.open_flows, 0, "drained run must close every flow");

    let text = std::fs::read_to_string(&path).expect("jsonl sink wrote the flow log");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), report.completed.len());
    for line in &lines {
        validate_json_line(line).expect("flow record line must be valid JSON");
    }
    // Spot-check identity: every completed request id appears in the log.
    for c in &report.completed {
        let needle = format!("\"req_id\":{},", c.id.0);
        assert!(
            text.contains(&needle),
            "completion {} missing from flow log",
            c.id.0
        );
    }
    std::fs::remove_file(&path).ok();
}

/// The convergence gate: full-run windows feed the *same* latency samples
/// through the *same* percentile function as the report, so streaming
/// per-class percentiles equal report percentiles exactly — not within a
/// tolerance, `==`.
#[test]
fn full_run_streaming_p99_matches_report_exactly() {
    let report = run_with(Some(TelemetryConfig::full_run()), 1234, 6.0);
    let snap = report.telemetry.as_ref().expect("bus was enabled");
    let mut checked = 0;
    for s in report.class_stats() {
        if s.completed == 0 {
            continue;
        }
        let c = snap
            .class(s.class)
            .expect("class with completions has stats");
        assert_eq!(c.ttft.count, s.completed, "window holds every sample");
        assert_eq!(
            snap.p99_ttft(s.class),
            Some(s.p99_ttft),
            "streaming p99 TTFT diverged for {:?}",
            s.class
        );
        checked += 1;
    }
    assert!(checked > 0, "no class completed anything");
    // Cross-class totals line up too.
    let total: usize = snap.classes.iter().map(|c| c.ttft.count).sum();
    assert_eq!(total, report.completed.len());
    let _ = SloClass::ALL; // (imported for readers grepping class order)
}

/// The periodic tick populates the operational series: per-instance queue
/// depths and a cluster KV-occupancy sample, all timestamped within the
/// run; disabling the tick (`sample_period: 0.0`) leaves them empty while
/// lifecycle edges still flow.
#[test]
fn periodic_tick_samples_queues_and_kv() {
    let ticked = run_with(Some(TelemetryConfig::default()), 42, 5.0);
    let snap = ticked.telemetry.as_ref().unwrap();
    assert_eq!(snap.queue_depths.len(), 1, "one instance in the topo");
    let q = &snap.queue_depths[0];
    assert!(q.time > 0.0 && q.time <= snap.now);
    let kv = snap.kv.expect("tick samples KV occupancy");
    assert!(kv.pool_bytes > 0);
    assert!(kv.utilization() >= 0.0 && kv.utilization() <= 1.0);

    let untick = run_with(
        Some(TelemetryConfig {
            sample_period: 0.0,
            ..TelemetryConfig::default()
        }),
        42,
        5.0,
    );
    let snap = untick.telemetry.as_ref().unwrap();
    assert!(snap.queue_depths.is_empty());
    assert!(snap.kv.is_none());
    assert!(snap.completions > 0, "lifecycle edges still flow untick'd");
}
