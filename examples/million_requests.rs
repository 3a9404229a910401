//! Scale demo: one million requests through the simulation engine.
//!
//! Serves a synthetic million-request chat trace on a data-parallel
//! Llama-13B layout (two TP-2 A100 instances) and prints end-to-end
//! simulation throughput plus the behavior digest. Finished requests
//! leave the engine's live table at completion, so per-event work
//! stays proportional to the requests in flight, not to the trace.
//!
//! ```bash
//! cargo run --release --example million_requests
//! # smaller dry run
//! HETIS_N_REQUESTS=100000 cargo run --release --example million_requests
//! ```

use hetis::cluster::cluster::paper_cluster;
use hetis::cluster::DeviceId;
use hetis::engine::policy::StaticPolicy;
use hetis::engine::{run, EngineConfig, InstanceRole, InstanceTopo, StageTopo, Topology};
use hetis::model::llama_13b;
use hetis::parallel::StageConfig;
use hetis::workload::{DatasetKind, Request, RequestId, SloClass, TenantId, Trace};

fn main() {
    let n: u64 = std::env::var("HETIS_N_REQUESTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000);

    // Short chat turns, paced below what the two instances sustain
    // (~116 req/s measured for this mix), so queues stay shallow and the
    // event loop — not backlog bookkeeping — dominates. Deterministic
    // lengths, no RNG: the trace itself is part of the reproducible
    // digest.
    let rate_per_s = 100.0;
    let horizon = n as f64 / rate_per_s;
    let requests: Vec<Request> = (0..n)
        .map(|i| Request {
            id: RequestId(i),
            arrival: i as f64 / rate_per_s,
            input_len: 48 + (i % 13) as u32 * 8,
            output_len: 6 + (i % 7) as u32 * 2,
            class: SloClass::default(),
            tenant: TenantId(0),
            session: None,
        })
        .collect();
    let trace = Trace::from_requests(requests, DatasetKind::ShareGpt);

    // Two TP-2 instances over the four A100s.
    let stage = |a: u32, b: u32| {
        StageTopo::plain(StageConfig {
            devices: vec![DeviceId(a), DeviceId(b)],
            layers: 40,
        })
    };
    let topo = Topology {
        instances: vec![
            InstanceTopo {
                stages: vec![stage(0, 1)],
                role: InstanceRole::Both,
            },
            InstanceTopo {
                stages: vec![stage(2, 3)],
                role: InstanceRole::Both,
            },
        ],
    };

    let cluster = paper_cluster();
    let model = llama_13b();
    let cfg = EngineConfig {
        drain_timeout: 300.0,
        ..EngineConfig::default()
    };

    println!("serving {n} requests over {horizon:.0} simulated seconds...");
    let wall_start = std::time::Instant::now();
    let report = run(
        StaticPolicy::new("dp2-a100", topo),
        &cluster,
        &model,
        cfg,
        &trace,
    );
    let wall = wall_start.elapsed().as_secs_f64();

    println!("completed        {}/{n}", report.completed.len());
    println!("simulated        {:.0} s", report.duration);
    println!("wall clock       {wall:.1} s");
    println!(
        "events           {} ({:.0}/s wall)",
        report.events_processed,
        report.events_processed as f64 / wall
    );
    println!(
        "sim throughput   {:.0} simulated s / wall s",
        report.duration / wall
    );
    println!("behavior digest  {:016x}", report.digest());

    assert_eq!(
        report.completed.len() as u64,
        n,
        "all requests must complete within the drain window"
    );
}
