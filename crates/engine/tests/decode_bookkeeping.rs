//! Per-iteration decode bookkeeping under the conditions that force the
//! engine off its fast paths.
//!
//! A completed decode iteration normally bumps its cohort's load table
//! once (every registered member took part) and skips the per-request
//! churn check (nothing died). Each test here drives one reason to fall
//! back to, or to stay exact beside, the per-request path:
//!
//! - a fused iteration whose final prefill chunk registers a new decode
//!   member in the same cohort;
//! - a registered member that sits an iteration out because its block
//!   crossing found no memory and the policy stalled it;
//! - a device death while iterations are in flight.
//!
//! Debug builds check the incremental load table against a from-scratch
//! rebuild on every decode formation, and the ledger entries against each
//! request's token count at every block crossing, so these runs fail on
//! any drift. The assertions below pin that each situation really
//! happened and that the run still drains cleanly.

use std::cell::Cell;
use std::rc::Rc;

use hetis_cluster::cluster::paper_cluster;
use hetis_cluster::{Cluster, DeviceId, GpuType};
use hetis_engine::policy::StaticPolicy;
use hetis_engine::{
    ClusterEvent, ClusterEventKind, Engine, EngineConfig, Handoff, HeadPlacement, InstanceRole,
    InstanceTopo, Phase, Policy, PolicyCtx, StageTopo, Topology, VictimAction,
};
use hetis_model::{llama_13b, ModelSpec};
use hetis_parallel::StageConfig;
use hetis_workload::{
    DatasetKind, Poisson, Request, RequestId, SloClass, TenantId, Trace, TraceBuilder,
};

/// One single-stage instance per device group.
fn topo(groups: &[Vec<DeviceId>]) -> Topology {
    Topology {
        instances: groups
            .iter()
            .map(|devices| InstanceTopo {
                stages: vec![StageTopo::plain(StageConfig {
                    devices: devices.clone(),
                    layers: 40,
                })],
                role: InstanceRole::Both,
            })
            .collect(),
    }
}

/// What the probe policy saw.
#[derive(Default)]
struct Seen {
    /// Prefills that completed while a decode participant of the same
    /// cohort was still in the completing iteration (a fused iteration).
    fused_prefill_completions: Cell<u64>,
    /// Victim calls answered with [`VictimAction::Stall`].
    stalls: Cell<u64>,
}

/// `StaticPolicy` that records what it sees and stalls blocked requests
/// with an odd id instead of picking a victim when `stall_odd` is set.
struct Probe {
    inner: StaticPolicy,
    stall_odd: bool,
    seen: Rc<Seen>,
}

impl Policy for Probe {
    fn name(&self) -> String {
        "decode-bookkeeping-probe".into()
    }
    fn topology(&mut self, c: &Cluster, m: &ModelSpec, cfg: &EngineConfig) -> Topology {
        self.inner.topology(c, m, cfg)
    }
    fn route(&mut self, req: &Request, ctx: &PolicyCtx<'_>) -> usize {
        self.inner.route(req, ctx)
    }
    fn place_batch(
        &mut self,
        instance: usize,
        reqs: &[(RequestId, u32)],
        ctx: &PolicyCtx<'_>,
    ) -> Vec<Option<HeadPlacement>> {
        self.inner.place_batch(instance, reqs, ctx)
    }
    fn after_prefill(
        &mut self,
        instance: usize,
        req: RequestId,
        ctx: &PolicyCtx<'_>,
    ) -> Option<Handoff> {
        let cohort = ctx.requests[&req].cohort;
        if ctx.requests.values().any(|r| {
            r.instance == instance
                && r.cohort == cohort
                && r.phase == Phase::Decoding
                && r.in_flight
        }) {
            let n = &self.seen.fused_prefill_completions;
            n.set(n.get() + 1);
        }
        None
    }
    fn select_victim(
        &mut self,
        instance: usize,
        device: DeviceId,
        blocked: RequestId,
        ctx: &PolicyCtx<'_>,
    ) -> VictimAction {
        if self.stall_odd && blocked.0 % 2 == 1 {
            self.seen.stalls.set(self.seen.stalls.get() + 1);
            return VictimAction::Stall;
        }
        self.inner.select_victim(instance, device, blocked, ctx)
    }
}

/// Runs `trace` on `topo` under the probe, asserting that every pool is
/// back at zero once the run drains. Returns the probe's record and the
/// report.
fn run_probe(
    topo: Topology,
    cfg: EngineConfig,
    trace: &Trace,
    churn: &[ClusterEvent],
    stall_odd: bool,
) -> (Rc<Seen>, hetis_engine::RunReport) {
    let cluster = paper_cluster();
    let model = llama_13b();
    let seen = Rc::new(Seen::default());
    let policy = Probe {
        inner: StaticPolicy::new("probe", topo.clone()),
        stall_odd,
        seen: Rc::clone(&seen),
    };
    let mut engine = Engine::new_with_churn(policy, &cluster, &model, cfg, topo, trace, churn);
    engine.run_to_completion();
    let kv = engine.kv_state();
    for d in 0..kv.len() {
        assert_eq!(
            kv.device(DeviceId(d as u32)).used_bytes(),
            0,
            "device {d} still holds KV after the run"
        );
    }
    (seen, engine.into_report())
}

#[test]
fn fused_prefill_completion_joins_a_bumped_cohort() {
    let a100 = paper_cluster().devices_of_type(GpuType::A100);
    let trace = TraceBuilder::new(DatasetKind::ShareGpt, 21).build(&Poisson::new(6.0), 20.0);
    let cfg = EngineConfig {
        prefill_chunk_tokens: Some(128),
        fused_microbatches: true,
        ..EngineConfig::default()
    };
    let (seen, report) = run_probe(topo(&[a100[..2].to_vec()]), cfg, &trace, &[], false);
    assert!(report.fused_iterations > 0, "the run must fuse iterations");
    assert!(
        seen.fused_prefill_completions.get() > 0,
        "some prefill must complete inside a fused iteration of its own cohort"
    );
    assert_eq!(report.unfinished, 0);
    assert_eq!(report.completed.len(), trace.len());
}

#[test]
fn stalled_member_sits_an_iteration_out() {
    // One A100: a few long prompts fill its pool, so decode block
    // crossings run dry; odd ids stall instead of naming a victim.
    let requests: Vec<Request> = (0..40)
        .map(|i| Request {
            id: RequestId(i),
            arrival: 0.0,
            input_len: 4096,
            output_len: 200,
            class: SloClass::Batch,
            tenant: TenantId(0),
            session: None,
        })
        .collect();
    let trace = Trace::from_requests(requests, DatasetKind::LongBench);
    let cfg = EngineConfig {
        drain_timeout: 3000.0,
        ..EngineConfig::default()
    };
    let (seen, report) = run_probe(topo(&[vec![DeviceId(0)]]), cfg, &trace, &[], true);
    assert!(seen.stalls.get() > 0, "some decode append must stall");
    assert_eq!(report.unfinished, 0, "stalled members must resume");
    assert_eq!(report.completed.len(), 40);
    for c in &report.completed {
        assert_eq!(c.output_len, 200);
    }
}

#[test]
fn device_death_mid_iteration_evicts_and_keeps_the_table_exact() {
    let a100 = paper_cluster().devices_of_type(GpuType::A100);
    let trace = TraceBuilder::new(DatasetKind::ShareGpt, 23).build(&Poisson::new(6.0), 25.0);
    // Kill a primary of instance 0 while both instances decode; instance
    // 1 keeps completing iterations while a device is dead.
    let churn = [
        ClusterEvent {
            time: 8.0,
            device: a100[0],
            kind: ClusterEventKind::Fail,
        },
        ClusterEvent {
            time: 16.0,
            device: a100[0],
            kind: ClusterEventKind::Join,
        },
    ];
    let cfg = EngineConfig {
        prefill_chunk_tokens: Some(256),
        fused_microbatches: true,
        ..EngineConfig::default()
    };
    let (_, report) = run_probe(
        topo(&[a100[..2].to_vec(), a100[2..].to_vec()]),
        cfg,
        &trace,
        &churn,
        false,
    );
    assert!(report.churn_evictions > 0, "the failure must evict work");
    assert!(report.lost_tokens > 0);
    assert_eq!(report.completed.len() + report.unfinished, trace.len());
    assert!(report.completed.len() > trace.len() / 2);
}
