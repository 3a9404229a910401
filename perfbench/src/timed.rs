//! A forwarding [`Policy`] wrapper that times every hook from outside.
//!
//! The wrapper owns the wrapped policy and charges the wall time and call
//! count of each hook to a shared [`HookStats`] that outlives the engine
//! (the engine consumes its policy in `Engine::into_report`). It does not
//! override `Policy::fork`, so the engine would fall back to its exact
//! sequential path if it were ever asked to shard; the benchmark never
//! asks (it drives `Engine::step` itself and never sets `sim_shards`).

use hetis_cluster::{Cluster, DeviceId};
use hetis_engine::{
    ClosedLoopConfig, ClusterEvent, ControlResponse, EngineConfig, Handoff, HeadPlacement,
    HealthView, Policy, PolicyCtx, RedispatchOp, ReplanResponse, Topology, VictimAction,
};
use hetis_model::ModelSpec;
use hetis_telemetry::TelemetrySnapshot;
use hetis_workload::{Request, RequestId};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// The policy hooks the wrapper times, in report order.
#[derive(Debug, Clone, Copy)]
pub enum Hook {
    Topology,
    Route,
    PlaceBatch,
    AfterPrefill,
    BeforeDecode,
    SelectVictim,
    OnClusterChange,
    OnTelemetryTick,
}

impl Hook {
    /// Every hook, indexable by `hook as usize`.
    pub const ALL: [Hook; 8] = [
        Hook::Topology,
        Hook::Route,
        Hook::PlaceBatch,
        Hook::AfterPrefill,
        Hook::BeforeDecode,
        Hook::SelectVictim,
        Hook::OnClusterChange,
        Hook::OnTelemetryTick,
    ];

    /// The hook's `Policy` method name.
    pub fn name(self) -> &'static str {
        match self {
            Hook::Topology => "topology",
            Hook::Route => "route",
            Hook::PlaceBatch => "place_batch",
            Hook::AfterPrefill => "after_prefill",
            Hook::BeforeDecode => "before_decode",
            Hook::SelectVictim => "select_victim",
            Hook::OnClusterChange => "on_cluster_change",
            Hook::OnTelemetryTick => "on_telemetry_tick",
        }
    }
}

/// Calls and wall nanoseconds of one hook.
#[derive(Debug, Default, Clone, Copy)]
pub struct HookStat {
    pub calls: u64,
    pub ns: u64,
}

/// Everything one wrapper observed.
#[derive(Debug, Default)]
pub struct HookStats {
    pub hooks: [HookStat; Hook::ALL.len()],
    /// Candidates handed to `place_batch`.
    pub place_offered: u64,
    /// Placements `place_batch` returned (`Some`).
    pub place_returned: u64,
    /// Re-dispatch operations `before_decode` returned.
    pub redispatch_ops: u64,
    /// `(water-fill, simplex)` solve counts read from the wrapped policy
    /// when the wrapper is dropped (`None` for policies without an LP).
    pub solves: Option<(u64, u64)>,
}

impl HookStats {
    pub fn hook(&self, hook: Hook) -> HookStat {
        self.hooks[hook as usize]
    }

    /// Nanoseconds spent in every hook except `topology`, which runs
    /// during set-up rather than inside `Engine::step`.
    pub fn step_hook_ns(&self) -> u64 {
        Hook::ALL[1..].iter().map(|&h| self.hook(h).ns).sum()
    }
}

/// Stats shared between a wrapper and the benchmark.
pub type SharedStats = Rc<RefCell<HookStats>>;

/// Reads final solver counts off the wrapped policy at drop time.
type DropProbe<P> = Box<dyn FnOnce(&P, &mut HookStats)>;

/// The timing wrapper.
pub struct Timed<P: Policy> {
    inner: P,
    stats: SharedStats,
    on_drop: Option<DropProbe<P>>,
}

impl<P: Policy> Timed<P> {
    pub fn new(inner: P, stats: SharedStats) -> Self {
        Timed {
            inner,
            stats,
            on_drop: None,
        }
    }

    /// Runs `probe` on the wrapped policy when the wrapper is dropped,
    /// i.e. when the engine that owns it is consumed into its report.
    pub fn with_drop_probe(mut self, probe: impl FnOnce(&P, &mut HookStats) + 'static) -> Self {
        self.on_drop = Some(Box::new(probe));
        self
    }

    fn timed<R>(&mut self, hook: Hook, f: impl FnOnce(&mut P) -> R) -> R {
        let start = Instant::now();
        let out = f(&mut self.inner);
        let ns = start.elapsed().as_nanos() as u64;
        let mut s = self.stats.borrow_mut();
        let stat = &mut s.hooks[hook as usize];
        stat.calls += 1;
        stat.ns += ns;
        out
    }
}

impl<P: Policy> Drop for Timed<P> {
    fn drop(&mut self) {
        if let Some(probe) = self.on_drop.take() {
            probe(&self.inner, &mut self.stats.borrow_mut());
        }
    }
}

impl<P: Policy> Policy for Timed<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn topology(&mut self, cluster: &Cluster, model: &ModelSpec, cfg: &EngineConfig) -> Topology {
        self.timed(Hook::Topology, |p| p.topology(cluster, model, cfg))
    }

    fn route(&mut self, req: &Request, ctx: &PolicyCtx<'_>) -> usize {
        self.timed(Hook::Route, |p| p.route(req, ctx))
    }

    fn place_batch(
        &mut self,
        instance: usize,
        reqs: &[(RequestId, u32)],
        ctx: &PolicyCtx<'_>,
    ) -> Vec<Option<HeadPlacement>> {
        let out = self.timed(Hook::PlaceBatch, |p| p.place_batch(instance, reqs, ctx));
        let mut s = self.stats.borrow_mut();
        s.place_offered += reqs.len() as u64;
        s.place_returned += out.iter().filter(|p| p.is_some()).count() as u64;
        out
    }

    fn after_prefill(
        &mut self,
        instance: usize,
        req: RequestId,
        ctx: &PolicyCtx<'_>,
    ) -> Option<Handoff> {
        self.timed(Hook::AfterPrefill, |p| p.after_prefill(instance, req, ctx))
    }

    fn before_decode(&mut self, instance: usize, ctx: &PolicyCtx<'_>) -> Vec<RedispatchOp> {
        let out = self.timed(Hook::BeforeDecode, |p| p.before_decode(instance, ctx));
        self.stats.borrow_mut().redispatch_ops += out.len() as u64;
        out
    }

    fn select_victim(
        &mut self,
        instance: usize,
        device: DeviceId,
        blocked: RequestId,
        ctx: &PolicyCtx<'_>,
    ) -> VictimAction {
        self.timed(Hook::SelectVictim, |p| {
            p.select_victim(instance, device, blocked, ctx)
        })
    }

    fn on_cluster_change(
        &mut self,
        event: &ClusterEvent,
        health: &HealthView,
        ctx: &PolicyCtx<'_>,
    ) -> ReplanResponse {
        self.timed(Hook::OnClusterChange, |p| {
            p.on_cluster_change(event, health, ctx)
        })
    }

    fn on_telemetry_tick(
        &mut self,
        snapshot: &TelemetrySnapshot,
        closed_loop: &ClosedLoopConfig,
        health: &HealthView,
        ctx: &PolicyCtx<'_>,
    ) -> ControlResponse {
        self.timed(Hook::OnTelemetryTick, |p| {
            p.on_telemetry_tick(snapshot, closed_loop, health, ctx)
        })
    }
}
