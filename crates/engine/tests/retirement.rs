//! Requests leave the engine's live table when they finish.
//!
//! The table indexes requests by id, so these tests use hand-built
//! traces with unsorted, non-contiguous ids. After a run every request
//! has a completion row, the table is empty, and no device still lists
//! a KV holder. In debug builds `Engine::finish` also asserts, per
//! retirement, that the id is on no cohort list and holds no KV.

use hetis_cluster::cluster::paper_cluster;
use hetis_cluster::DeviceId;
use hetis_engine::policy::StaticPolicy;
use hetis_engine::{Engine, EngineConfig, InstanceRole, InstanceTopo, StageTopo, Topology};
use hetis_model::llama_13b;
use hetis_parallel::StageConfig;
use hetis_workload::{DatasetKind, Request, RequestId, SloClass, TenantId, Trace};

fn two_instance_topo() -> Topology {
    let instance = |devices: [u32; 2]| InstanceTopo {
        stages: vec![StageTopo::plain(StageConfig {
            devices: devices.iter().map(|&d| DeviceId(d)).collect(),
            layers: 40,
        })],
        role: InstanceRole::Both,
    };
    Topology {
        instances: vec![instance([0, 1]), instance([2, 3])],
    }
}

/// One request per id, arriving in the order given.
fn trace_of(ids: &[u64]) -> Trace {
    let reqs = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| Request {
            id: RequestId(id),
            arrival: 0.02 * i as f64,
            input_len: 64 + (id % 5) as u32 * 40,
            output_len: 8 + (id % 3) as u32 * 7,
            class: SloClass::default(),
            tenant: TenantId(0),
            session: None,
        })
        .collect();
    Trace::from_requests(reqs, DatasetKind::ShareGpt)
}

/// Runs `ids` to completion and checks the retirement invariants;
/// returns the completed ids in completion order.
fn run_and_check(ids: &[u64]) -> Vec<u64> {
    let cluster = paper_cluster();
    let model = llama_13b();
    let topo = two_instance_topo();
    let trace = trace_of(ids);
    let mut engine = Engine::new(
        StaticPolicy::new("s", topo.clone()),
        &cluster,
        &model,
        EngineConfig::default(),
        topo,
        &trace,
    );
    engine.run_to_completion();
    assert!(
        engine.phase_summary().iter().all(|m| m.is_empty()),
        "live requests left after the run: {:?}",
        engine.phase_summary()
    );
    let kv = engine.kv_state();
    for d in 0..kv.len() {
        let holders: Vec<RequestId> = kv.device(DeviceId(d as u32)).holders().collect();
        assert!(holders.is_empty(), "device {d} still lists {holders:?}");
    }
    let report = engine.into_report();
    assert_eq!(report.unfinished, 0);
    let done: Vec<u64> = report.completed.iter().map(|c| c.id.0).collect();
    let mut sorted = done.clone();
    sorted.sort_unstable();
    let mut expected = ids.to_vec();
    expected.sort_unstable();
    assert_eq!(sorted, expected, "every request completes exactly once");
    done
}

#[test]
fn sparse_unsorted_ids_run_to_completion_and_retire() {
    run_and_check(&[7, 3, 40]);
}

#[test]
fn retirement_holds_under_load_across_reruns() {
    // Enough overlapping requests that retirements swap-remove from the
    // middle of the table while others still decode.
    let ids: Vec<u64> = (0..30).map(|i| (i * 37) % 101 + 2 * i).collect();
    let first = run_and_check(&ids);
    assert_eq!(run_and_check(&ids), first, "same completion order");
}

#[test]
#[should_panic(expected = "trace request ids must be unique")]
fn duplicate_ids_are_rejected_at_construction() {
    let cluster = paper_cluster();
    let model = llama_13b();
    let topo = two_instance_topo();
    let trace = trace_of(&[4, 9, 4]);
    let _ = Engine::new(
        StaticPolicy::new("s", topo.clone()),
        &cluster,
        &model,
        EngineConfig::default(),
        topo,
        &trace,
    );
}
