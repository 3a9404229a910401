//! Sharded parallel simulation: conservative windows over per-instance
//! event queues, with a bit-identity contract against the sequential
//! engine (DESIGN.md §P).
//!
//! # Protocol
//!
//! The serving topology statically partitions work: an instance's events
//! (`UbatchDone`, `MigrationDone`) only read and write that instance's
//! queues, cohorts, requests and KV devices. Instances that share a
//! device are fused into one *component* (union-find); components are
//! round-robined onto `G = min(sim_shards, components)` **shard
//! groups**, each owning its instances' full state inside a husk
//! [`Engine`] that runs on its own OS thread.
//!
//! Every event left on the coordinator's queue is a **barrier**:
//!
//! * `Arrival` is a *thin* barrier — the coordinator routes it on the
//!   original policy over cross-shard [`KvView::Sharded`] /
//!   [`RequestsView::Sharded`] views and hands the admission to the
//!   owning group, without merging any state.
//! * `Sample`, `TelemetryTick`, `ClusterChange`, `DrainDeadline` and
//!   promoted dirty `UbatchDone`s (a churn-invalidated participant) are
//!   *merge* barriers: every group is absorbed back, the unmodified
//!   sequential handler runs, and the state is re-split.
//!
//! Between barriers each group advances independently through every
//! event whose `(time, seq)` key is strictly below the next barrier's
//! key — the conservative window. Order-sensitive side effects produced
//! inside windows (telemetry taps, completion records, `migrated_bytes`
//! f64 increments, module samples) are not applied on the group; they
//! are captured tagged with the generating event's key and replayed
//! globally key-sorted at the next merge, which reproduces the
//! sequential engine's accumulation order bit-for-bit.
//!
//! # Sequence numbering
//!
//! At each split, group `g`'s insertion counter is raised to
//! `base + (g+1) · 2³²` where `base` is the coordinator counter, so
//! window-scheduled events order *after* every pre-split event. At the
//! next merge, window-scheduled events (seq ≥ `base`) are renumbered —
//! in global `(time, seq)` order — onto the coordinator counter, so
//! they also order *before* anything the barrier handler schedules
//! afterwards, exactly as in the sequential engine where
//! chronologically-earlier scheduling always yields a smaller seq. The
//! one residual caveat: two *window*-scheduled events from different
//! groups at the exact same f64 instant tie-break by group rank instead
//! of the sequential interleaving. Every pinned scenario digests
//! identically, so no such tie occurs in practice; a scenario engineered
//! to hit one would still be a valid serving trajectory, just not the
//! sequential one.
//!
//! # Fallbacks (always exact)
//!
//! `sim_shards ≤ 1`, a policy whose [`Policy::fork`] returns `None`,
//! a topology with fewer than two device-disjoint components (including
//! every Splitwise-style prefill/decode split, whose hand-offs cross
//! instances), or any live request whose placement escapes its
//! instance's component — all fall back to the byte-identical
//! sequential path.

use super::*;
use hetis_sim::ScheduledEvent;

/// One order-sensitive side effect recorded inside a shard window.
#[derive(Debug, Clone)]
pub(super) enum Captured {
    /// A telemetry flow event ([`Engine::tap`]).
    Flow(FlowEvent),
    /// A telemetry completion record ([`Engine::finish`]).
    Completion(FlowCompletion),
    /// A completed-request row — the digest folds these in push order.
    Completed(CompletedRequest),
    /// A `migrated_bytes` increment — f64 addition is not associative,
    /// so the global sum must fold in sequential event order.
    Migrated(f64),
    /// A Fig. 13 module sample (chronological series).
    Module(ModuleSample),
}

/// Capture buffer installed on a shard-group engine for the duration of
/// its windows (see the [`Engine::capture`] field).
#[derive(Debug)]
pub(super) struct ShardCapture {
    /// `(time, seq)` key of the event currently dispatching.
    pub(super) key: (SimTime, u64),
    /// Whether the coordinator runs with telemetry enabled — gates
    /// flow/completion capture exactly like `telemetry.is_some()` gates
    /// publishing on the sequential path.
    pub(super) telemetry_on: bool,
    /// Captured side effects, keyed by generating event.
    pub(super) items: Vec<((SimTime, u64), Captured)>,
}

impl ShardCapture {
    /// Records one side effect under the current event key.
    pub(super) fn push(&mut self, item: Captured) {
        self.items.push((self.key, item));
    }
}

/// What one shard group owns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ShardClaim {
    /// Owned instance indices (sorted).
    instances: Vec<usize>,
    /// Owned device indices (sorted) — the union of the owned
    /// instances' stage devices and attention workers.
    devices: Vec<usize>,
}

/// The static ownership plan, recomputed after every merge barrier
/// (cluster churn and closed-loop replans can reshape worker pools).
#[derive(Debug, Clone, PartialEq, Eq)]
struct ShardPlan {
    /// Instance index → group rank.
    group_of_instance: Vec<usize>,
    /// Device index → owning part for the cross-shard views: 0 is the
    /// coordinator (devices no instance claims), `g + 1` is group `g`.
    part_of_device: Vec<u32>,
    /// Per-group claims, in rank order.
    claims: Vec<ShardClaim>,
}

/// A shard group: its claim plus the husk engine owning the claimed
/// state between barriers.
struct ShardGroup<'a> {
    claim: ShardClaim,
    engine: Engine<'a, Box<dyn Policy + Send>>,
    /// Migration-stream stats at the last split, so the merge can fold
    /// the window's delta (`MigrationStream::absorb_shard`).
    mig_base_count: u64,
    mig_base_bytes: f64,
}

impl<'a, P: Policy> Engine<'a, P> {
    /// Runs the simulation to completion on `shards` parallel shard
    /// groups, producing the exact state (and therefore
    /// [`RunReport::digest`]) of [`Engine::run_to_completion`]. Call on
    /// a freshly constructed engine. Any condition the protocol cannot
    /// express falls back to the sequential path — sharding is a pure
    /// execution strategy, never a behavior change.
    pub fn run_sharded(&mut self, shards: usize) {
        if shards <= 1 {
            return self.run_to_completion();
        }
        let Some(mut plan) = self.compute_shard_plan(shards) else {
            return self.run_to_completion();
        };
        if !self.shard_plan_holds(&plan) {
            return self.run_to_completion();
        }
        // Template for husk KV states: the pre-run pools (weights only).
        // Devices a group does not claim keep this pristine copy, which
        // is never meaningfully read (a request's KV lives only on its
        // instance's claimed devices).
        let pristine = self.kv.clone();
        let Some(mut groups) = self.make_shard_groups(&plan, &pristine) else {
            return self.run_to_completion();
        };
        let deadline = self.last_arrival + self.cfg.drain_timeout;
        // Arrivals are thin barriers that never leave the coordinator,
        // yet they dominate the pending queue (the whole trace is
        // scheduled up front). Pull them into a sorted side-channel
        // ONCE, so each re-split's `drain_sorted` touches only the
        // residual queue (samples, ticks, churn, pass-throughs) —
        // O(live events) per merge barrier instead of O(trace length),
        // which would make million-request runs quadratic in barriers.
        let mut arrivals: VecDeque<ScheduledEvent<Event>> = VecDeque::new();
        for se in self.events.drain_sorted() {
            if matches!(se.event, Event::Arrival(_)) {
                arrivals.push_back(se);
            } else {
                self.events.push_scheduled(se);
            }
        }
        self.shard_external_pending = arrivals.len();
        let mut split_base = match self.split_shards(&plan, &mut groups) {
            Some(base) => base,
            None => {
                self.reattach_pending(arrivals);
                return self.run_to_completion();
            }
        };
        loop {
            let qkey = self.events.peek_key();
            let akey = arrivals.front().map(|se| (se.at, se.seq));
            let barrier = match (qkey, akey) {
                (Some(q), Some(a)) => Some(q.min(a)),
                (q, a) => q.or(a),
            };
            run_windows(&mut groups, barrier, deadline);
            if barrier.is_none() {
                // Quiescence: groups drained to empty (or the deadline).
                self.absorb_shards(&mut groups, split_base);
                self.reattach_pending(arrivals);
                return;
            }
            // Pop the globally earliest barrier from whichever channel
            // holds it; keys are unique, so strict comparison suffices.
            let se = match (qkey, akey) {
                (Some(q), Some(a)) if a < q => arrivals.pop_front().expect("peeked"),
                (None, Some(_)) => arrivals.pop_front().expect("peeked"),
                _ => self.events.pop_scheduled().expect("peeked above"),
            };
            self.shard_external_pending = arrivals.len();
            if se.at.as_secs() > deadline {
                // The sequential loop stops at the first event beyond
                // the drain deadline without processing it; unprocessed
                // arrivals stay queued, exactly as sequentially.
                self.absorb_shards(&mut groups, split_base);
                self.reattach_pending(arrivals);
                return;
            }
            if let Event::Arrival(i) = se.event {
                self.clock.advance_to(se.at);
                self.thin_arrival(i, se.at, se.seq, &plan, &mut groups);
                continue;
            }
            // Merge barrier: absorb, run the sequential handler, re-split.
            self.absorb_shards(&mut groups, split_base);
            self.clock.advance_to(se.at);
            self.dispatch_event(se.event);
            match self.compute_shard_plan(shards) {
                Some(p) if self.shard_plan_holds(&p) => {
                    if p != plan {
                        // Ownership changed (replan reshaped worker
                        // pools): rebuild the husks around the new claims.
                        let Some(g) = self.make_shard_groups(&p, &pristine) else {
                            self.reattach_pending(arrivals);
                            return self.run_to_completion();
                        };
                        groups = g;
                        plan = p;
                    }
                    match self.split_shards(&plan, &mut groups) {
                        Some(base) => split_base = base,
                        None => {
                            self.reattach_pending(arrivals);
                            return self.run_to_completion();
                        }
                    }
                }
                // The topology no longer partitions (or a placement
                // escaped its component): finish sequentially. All
                // state is already on `self`, and the pending arrivals
                // return to the real queue.
                _ => {
                    self.reattach_pending(arrivals);
                    return self.run_to_completion();
                }
            }
        }
    }

    /// Returns the pending-arrival side channel the sharded coordinator
    /// held outside the engine, so the sequential path (fallback or
    /// post-run inspection) sees exactly the state a sequential run would
    /// have.
    fn reattach_pending(&mut self, arrivals: VecDeque<ScheduledEvent<Event>>) {
        for se in arrivals {
            self.events.push_scheduled(se);
        }
        self.shard_external_pending = 0;
    }

    /// Computes the static ownership plan, or `None` when the topology
    /// does not partition into ≥ 2 device-disjoint components.
    fn compute_shard_plan(&self, shards: usize) -> Option<ShardPlan> {
        let n = self.topo.instances.len();
        if n < 2 {
            return None;
        }
        // Phase-split roles hand requests across instances after
        // prefill, which a window cannot express.
        if self
            .topo
            .instances
            .iter()
            .any(|i| matches!(i.role, InstanceRole::PrefillOnly | InstanceRole::DecodeOnly))
        {
            return None;
        }
        let dcount = self.kv.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        // Union instances through shared devices.
        let mut dev_claimant: Vec<Option<usize>> = vec![None; dcount];
        for (i, it) in self.topo.instances.iter().enumerate() {
            for s in &it.stages {
                for d in s.attention_devices() {
                    match dev_claimant[d.index()] {
                        None => dev_claimant[d.index()] = Some(i),
                        Some(j) => {
                            let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                            if a != b {
                                parent[a.max(b)] = a.min(b);
                            }
                        }
                    }
                }
            }
        }
        // Components in order of smallest member instance.
        let mut comp_of_root: HashMap<usize, usize> = HashMap::new();
        let mut comps: Vec<Vec<usize>> = Vec::new();
        for i in 0..n {
            let r = find(&mut parent, i);
            let c = *comp_of_root.entry(r).or_insert_with(|| {
                comps.push(Vec::new());
                comps.len() - 1
            });
            comps[c].push(i);
        }
        if comps.len() < 2 {
            return None;
        }
        let g_count = shards.min(comps.len());
        let mut claims = vec![ShardClaim::default(); g_count];
        let mut group_of_instance = vec![0usize; n];
        for (ci, comp) in comps.iter().enumerate() {
            let gr = ci % g_count;
            for &i in comp {
                group_of_instance[i] = gr;
                claims[gr].instances.push(i);
            }
        }
        let mut part_of_device = vec![0u32; dcount];
        for (d, claimant) in dev_claimant.iter().enumerate() {
            if let Some(i) = claimant {
                let gr = group_of_instance[*i];
                part_of_device[d] = gr as u32 + 1;
                claims[gr].devices.push(d);
            }
        }
        for c in &mut claims {
            c.instances.sort_unstable();
            c.devices.sort_unstable();
        }
        Some(ShardPlan {
            group_of_instance,
            part_of_device,
            claims,
        })
    }

    /// True when every live request's placement (and in-flight migration
    /// sources) stay within its instance's component — the invariant
    /// that makes windows race-free. Placements are produced per
    /// instance from its stage devices and workers, so this holds by
    /// construction; the check is the safety valve for any policy that
    /// violates the contract.
    fn shard_plan_holds(&self, plan: &ShardPlan) -> bool {
        let requests_ok = self.requests.values().all(|r| {
            let part = plan.group_of_instance[r.instance] as u32 + 1;
            let placed_ok = r
                .placement
                .as_ref()
                .map(|p| {
                    p.devices()
                        .iter()
                        .all(|d| plan.part_of_device[d.index()] == part)
                })
                .unwrap_or(true);
            placed_ok
                && r.migration_sources
                    .iter()
                    .all(|d| plan.part_of_device[d.index()] == part)
        });
        // Cached prefixes carry the same invariant as live placements:
        // an entry's bytes must stay inside its instance's component so
        // the per-instance cache partition reproduces the sequential
        // per-device pressure sweeps. Entries always satisfy this by
        // construction (they are finished requests' placements, and
        // churn/replan barriers clear the cache), so like the request
        // check this is a safety valve, not a policy.
        requests_ok
            && self.prefix.iter().all(|(_, e)| {
                let part = plan.group_of_instance[e.instance] as u32 + 1;
                e.devices().all(|d| plan.part_of_device[d.index()] == part)
            })
    }

    /// Fresh per-instance state containers (the shapes
    /// [`Engine::new_with_churn`] builds), swapped against the real
    /// state at each split.
    fn husk_instances(&self) -> Vec<InstanceState> {
        self.topo
            .instances
            .iter()
            .map(|i| InstanceState {
                waiting: WaitQueue::new(self.cfg.admission),
                pending_handoff: FifoQueue::new(),
                cohorts: (0..i.depth())
                    .map(|_| Cohort {
                        load: vec![IdMap::default(); i.depth()],
                        ..Cohort::default()
                    })
                    .collect(),
                stage_free_at: vec![SimTime::ZERO; i.depth()],
                running: 0,
            })
            .collect()
    }

    /// Builds one husk engine per claim. `None` when the policy cannot
    /// fork.
    fn make_shard_groups(
        &mut self,
        plan: &ShardPlan,
        pristine: &KvState,
    ) -> Option<Vec<ShardGroup<'a>>> {
        let mut groups = Vec::with_capacity(plan.claims.len());
        for claim in &plan.claims {
            let policy = self.policy.fork()?;
            let engine = Engine {
                cluster: self.cluster,
                model: self.model,
                cfg: self.cfg.clone(),
                policy,
                topo: self.topo.clone(),
                kv: pristine.clone(),
                requests: RequestTable::with_id_capacity(self.requests.id_capacity()),
                instances: self.husk_instances(),
                events: EventQueue::new(),
                clock: self.clock.clone(),
                // Placeholder streams; the real per-instance streams are
                // swapped in with the owned instances at every split, so
                // a group draws exactly the sequential values.
                jitter: per_instance_jitter(self.cfg.seed, self.topo.instances.len()),
                migration: self.migration.clone(),
                trace_requests: Vec::new(),
                last_arrival: self.last_arrival,
                health: self.health.clone(),
                original_roles: self.original_roles.clone(),
                churn: Vec::new(),
                attributed_pending: Vec::new(),
                completed: Vec::new(),
                module_samples: Vec::new(),
                trace_samples: Vec::new(),
                preemptions: 0,
                migrations: 0,
                migrated_bytes: 0.0,
                replans: Vec::new(),
                lost_tokens: 0,
                churn_evictions: 0,
                prefill_tokens: 0,
                prefill_iterations: 0,
                max_prefill_iter_tokens: 0,
                events_processed: 0,
                peak_kv_reserved_bytes: 0,
                fused_iterations: 0,
                kv_growths: 0,
                kv_grow_failures: 0,
                prefix: crate::prefix::PrefixCache::new(self.kv.len()),
                prefix_probes: 0,
                prefix_hits: 0,
                prefix_hit_tokens: 0,
                shared_kv_bytes: 0,
                telemetry: None,
                sampling_pending: 0,
                shard_external_pending: 0,
                throttle_admission: self.throttle_admission,
                pace_chunk_tokens: self.pace_chunk_tokens,
                control_log: Vec::new(),
                capture: Some(ShardCapture {
                    key: (SimTime::ZERO, 0),
                    telemetry_on: self.telemetry.is_some(),
                    items: Vec::new(),
                }),
            };
            groups.push(ShardGroup {
                claim: claim.clone(),
                engine,
                mig_base_count: 0,
                mig_base_bytes: 0.0,
            });
        }
        Some(groups)
    }

    /// Moves owned events and state out to the groups. Returns the
    /// coordinator's sequence counter at the split (the renumbering
    /// watermark for the next merge), or `None` when a policy fork
    /// fails — in which case nothing has been moved.
    fn split_shards(&mut self, plan: &ShardPlan, groups: &mut [ShardGroup<'a>]) -> Option<u64> {
        // Fresh forks every split; window hooks must see the policy
        // state as of this barrier.
        for g in groups.iter_mut() {
            g.engine.policy = self.policy.fork()?;
        }
        // Route pending events: instance events to their owner, barriers
        // (and dirty microbatch completions) stay here.
        let pending = self.events.drain_sorted();
        for se in pending {
            let dest = match &se.event {
                Event::UbatchDone { inst, cohort } => {
                    let dirty = self.instances[*inst]
                        .cohorts
                        .get(*cohort)
                        .and_then(|c| c.in_flight.as_ref())
                        .map(|ub| {
                            ub.reqs
                                .iter()
                                .chain(ub.decode_reqs.iter())
                                .any(|&rid| self.churn_invalidated(rid))
                        })
                        .unwrap_or(false);
                    // A dirty completion churn-evicts and re-routes
                    // across instances — promote it to a merge barrier.
                    if dirty {
                        None
                    } else {
                        Some(plan.group_of_instance[*inst])
                    }
                }
                Event::MigrationDone { req, .. } => self
                    .requests
                    .get(req)
                    .map(|r| plan.group_of_instance[r.instance]),
                _ => None,
            };
            match dest {
                Some(gr) => groups[gr].engine.events.push_scheduled(se),
                None => self.events.push_scheduled(se),
            }
        }
        // Stride the group counters so window-scheduled events order
        // after everything already queued anywhere.
        let base = self.events.next_seq();
        for (gi, g) in groups.iter_mut().enumerate() {
            g.engine
                .events
                .raise_seq_floor(base + ((gi as u64 + 1) << 32));
        }
        // Hand the owned state over and refresh barrier-mutable context.
        for g in groups.iter_mut() {
            for &i in &g.claim.instances {
                std::mem::swap(&mut self.instances[i], &mut g.engine.instances[i]);
                std::mem::swap(&mut self.jitter[i], &mut g.engine.jitter[i]);
            }
            for &d in &g.claim.devices {
                let d = DeviceId(d as u32);
                std::mem::swap(self.kv.device_mut(d), g.engine.kv.device_mut(d));
            }
            g.engine.clock = self.clock.clone();
            g.engine.topo = self.topo.clone();
            g.engine.health.clone_from(&self.health);
            g.engine.original_roles.clone_from(&self.original_roles);
            g.engine.throttle_admission = self.throttle_admission;
            g.engine.pace_chunk_tokens = self.pace_chunk_tokens;
            g.engine.migration = self.migration.clone();
            g.mig_base_count = self.migration.count();
            g.mig_base_bytes = self.migration.total_bytes();
        }
        // Finished requests were retired at completion, so this moves
        // live requests only: O(live) per barrier.
        for r in self.requests.drain() {
            groups[plan.group_of_instance[r.instance]]
                .engine
                .requests
                .insert(r);
        }
        // Prefix-cache entries partition exactly like requests: by the
        // owning instance. `shard_plan_holds` already verified every
        // entry's devices stay inside that instance's component, so a
        // group's pressure sweeps see precisely the sequential
        // per-device state.
        for (key, e) in self.prefix.drain_entries() {
            groups[plan.group_of_instance[e.instance]]
                .engine
                .prefix
                .restore(key, e);
        }
        Some(base)
    }

    /// Folds every group back into the coordinator: events, state,
    /// counters, the migration streams, and the key-ordered replay of
    /// captured side effects. `split_base` is the sequence watermark
    /// returned by the matching [`Engine::split_shards`].
    fn absorb_shards(&mut self, groups: &mut [ShardGroup<'a>], split_base: u64) {
        let mut window_events: Vec<ScheduledEvent<Event>> = Vec::new();
        let mut items: Vec<((SimTime, u64), Captured)> = Vec::new();
        let mut max_clock = self.clock.now();
        for g in groups.iter_mut() {
            let e = &mut g.engine;
            for se in e.events.drain_sorted() {
                if se.seq >= split_base {
                    // Scheduled inside the window: renumber below so it
                    // orders before anything the barrier schedules next.
                    window_events.push(se);
                } else {
                    // Pre-split event passing through untouched: keep
                    // its original tie-breaking position.
                    self.events.push_scheduled(se);
                }
            }
            for &i in &g.claim.instances {
                std::mem::swap(&mut self.instances[i], &mut e.instances[i]);
                std::mem::swap(&mut self.jitter[i], &mut e.jitter[i]);
            }
            for &d in &g.claim.devices {
                let d = DeviceId(d as u32);
                std::mem::swap(self.kv.device_mut(d), e.kv.device_mut(d));
            }
            for r in e.requests.drain() {
                self.requests.insert(r);
            }
            self.events_processed += std::mem::take(&mut e.events_processed);
            self.preemptions += std::mem::take(&mut e.preemptions);
            self.migrations += std::mem::take(&mut e.migrations);
            self.lost_tokens += std::mem::take(&mut e.lost_tokens);
            self.churn_evictions += std::mem::take(&mut e.churn_evictions);
            self.prefill_tokens += std::mem::take(&mut e.prefill_tokens);
            self.prefill_iterations += std::mem::take(&mut e.prefill_iterations);
            self.fused_iterations += std::mem::take(&mut e.fused_iterations);
            self.kv_growths += std::mem::take(&mut e.kv_growths);
            self.kv_grow_failures += std::mem::take(&mut e.kv_grow_failures);
            self.prefix_probes += std::mem::take(&mut e.prefix_probes);
            self.prefix_hits += std::mem::take(&mut e.prefix_hits);
            self.prefix_hit_tokens += std::mem::take(&mut e.prefix_hit_tokens);
            self.shared_kv_bytes += std::mem::take(&mut e.shared_kv_bytes);
            for (key, entry) in e.prefix.drain_entries() {
                self.prefix.restore(key, entry);
            }
            self.max_prefill_iter_tokens = self
                .max_prefill_iter_tokens
                .max(std::mem::take(&mut e.max_prefill_iter_tokens));
            self.peak_kv_reserved_bytes = self
                .peak_kv_reserved_bytes
                .max(std::mem::take(&mut e.peak_kv_reserved_bytes));
            debug_assert_eq!(e.migrated_bytes, 0.0, "groups must capture, not sum");
            debug_assert!(e.completed.is_empty(), "groups must capture completions");
            debug_assert!(e.module_samples.is_empty(), "groups must capture samples");
            self.migration
                .absorb_shard(&e.migration, g.mig_base_count, g.mig_base_bytes);
            max_clock = max_clock.max(e.clock.now());
            items.append(&mut e.capture.as_mut().expect("shard engines capture").items);
        }
        if max_clock > self.clock.now() {
            self.clock.advance_to(max_clock);
        }
        // Renumber window-scheduled events in global key order onto the
        // coordinator counter (see module docs on sequence numbering).
        window_events.sort_unstable_by_key(|e| (e.at, e.seq));
        for se in window_events {
            self.events.schedule(se.at, se.event);
        }
        // Replay side effects in the order the sequential engine would
        // have produced them. `sort_by_key` is stable, so the several
        // effects of one event keep their generation order.
        items.sort_by_key(|&(key, _)| key);
        for (_, item) in items {
            match item {
                Captured::Flow(ev) => {
                    if let Some(bus) = self.telemetry.as_mut() {
                        bus.publish(ev);
                    }
                }
                Captured::Completion(fc) => {
                    if let Some(bus) = self.telemetry.as_mut() {
                        bus.complete(&fc);
                    }
                }
                Captured::Completed(rec) => self.completed.push(rec),
                Captured::Migrated(bytes) => self.migrated_bytes += bytes,
                Captured::Module(sample) => self.module_samples.push(sample),
            }
        }
    }

    /// Handles an `Arrival` barrier without merging: route on the
    /// original policy over cross-shard views, then admit on the owner
    /// group under the arrival's own event key.
    fn thin_arrival(
        &mut self,
        idx: usize,
        at: SimTime,
        seq: u64,
        plan: &ShardPlan,
        groups: &mut [ShardGroup<'a>],
    ) {
        let req = self.trace_requests[idx];
        let inst = {
            let kv_parts: Vec<&KvState> = std::iter::once(&self.kv)
                .chain(groups.iter().map(|g| &g.engine.kv))
                .collect();
            let req_parts: Vec<&RequestTable> = std::iter::once(&self.requests)
                .chain(groups.iter().map(|g| &g.engine.requests))
                .collect();
            let prefix_parts: Vec<&crate::prefix::PrefixCache> = std::iter::once(&self.prefix)
                .chain(groups.iter().map(|g| &g.engine.prefix))
                .collect();
            // Prefix affinity wins over the policy, exactly as in
            // `Engine::on_arrival` — the lookup spans every group's
            // cache (the coordinator's own is empty mid-window).
            let affinity =
                self.prefix_affinity(&req, |s, t| prefix_parts.iter().find_map(|c| c.get(s, t)));
            let ctx = PolicyCtx {
                cluster: self.cluster,
                model: self.model,
                now: self.clock.now().as_secs(),
                kv: crate::policy::KvView::Sharded {
                    parts: &kv_parts,
                    owner: &plan.part_of_device,
                },
                requests: crate::policy::RequestsView::Sharded(&req_parts),
                topology: &self.topo,
                prefill_chunk_tokens: self.cfg.prefill_chunk_tokens,
                prefix: if self.cfg.prefix_reuse {
                    crate::policy::PrefixView::Sharded(&prefix_parts)
                } else {
                    crate::policy::PrefixView::Empty
                },
            };
            // Mirror `route_surviving` with `park = 0`.
            let entries = self.topo.entry_instances();
            match (affinity, entries.first()) {
                (Some(inst), _) => inst,
                (None, None) => 0,
                (None, Some(&fallback)) => {
                    let inst = self.policy.route(&req, &ctx);
                    assert!(
                        inst < self.topo.instances.len(),
                        "routed to unknown instance"
                    );
                    if self.topo.instances[inst].role != InstanceRole::Down {
                        inst
                    } else {
                        fallback
                    }
                }
            }
        };
        let ge = &mut groups[plan.group_of_instance[inst]].engine;
        // The group finished its window strictly below this key, so its
        // clock is at most `at`.
        ge.clock.advance_to(at);
        ge.events_processed += 1;
        ge.capture.as_mut().expect("shard engines capture").key = (at, seq);
        ge.admit_routed(req, inst);
    }
}

/// Advances one group through its conservative window: every owned
/// event strictly below `barrier` (all of them when `barrier` is
/// `None`), stopping — like the sequential loop — at the first event
/// beyond the drain `deadline`, which is pushed back untouched.
fn run_window(
    engine: &mut Engine<'_, Box<dyn Policy + Send>>,
    barrier: Option<(SimTime, u64)>,
    deadline: f64,
) {
    loop {
        let se = match barrier {
            Some(key) => engine.events.pop_before(key),
            None => engine.events.pop_scheduled(),
        };
        let Some(se) = se else { return };
        if se.at.as_secs() > deadline {
            engine.events.push_scheduled(se);
            return;
        }
        engine.clock.advance_to(se.at);
        engine.capture.as_mut().expect("shard engines capture").key = (se.at, se.seq);
        // Only instance-local events ever reach a group queue
        // (`UbatchDone` / `MigrationDone`); anything else would panic
        // loudly inside the handler on the husk's empty trace/churn.
        engine.dispatch_event(se.event);
    }
}

/// Runs every group's window, on real threads when more than one group
/// has work before the barrier.
fn run_windows(groups: &mut [ShardGroup<'_>], barrier: Option<(SimTime, u64)>, deadline: f64) {
    let mut active: Vec<&mut ShardGroup<'_>> = groups
        .iter_mut()
        .filter(|g| match (g.engine.events.peek_key(), barrier) {
            (None, _) => false,
            (Some(k), Some(b)) => k < b,
            (Some(_), None) => true,
        })
        .collect();
    match active.len() {
        0 => {}
        1 => run_window(&mut active[0].engine, barrier, deadline),
        _ => rayon::scope(|s| {
            for g in active {
                s.spawn(move || run_window(&mut g.engine, barrier, deadline));
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StaticPolicy;
    use hetis_cluster::cluster::paper_cluster;
    use hetis_model::llama_13b;
    use hetis_parallel::StageConfig;
    use hetis_workload::{DatasetKind, Request, SloClass, TenantId, Trace};

    fn two_instance_topo() -> Topology {
        Topology {
            instances: vec![
                crate::topology::InstanceTopo {
                    stages: vec![crate::topology::StageTopo::plain(StageConfig {
                        devices: vec![DeviceId(0), DeviceId(1)],
                        layers: 40,
                    })],
                    role: InstanceRole::Both,
                },
                crate::topology::InstanceTopo {
                    stages: vec![crate::topology::StageTopo::plain(StageConfig {
                        devices: vec![DeviceId(2), DeviceId(3)],
                        layers: 40,
                    })],
                    role: InstanceRole::Both,
                },
            ],
        }
    }

    fn small_trace(n: u64) -> Trace {
        let reqs: Vec<Request> = (0..n)
            .map(|i| Request {
                id: hetis_workload::RequestId(i),
                arrival: 0.05 * i as f64,
                input_len: 64 + (i % 7) as u32 * 33,
                output_len: 24 + (i % 5) as u32 * 11,
                class: SloClass::default(),
                tenant: TenantId(0),
                session: None,
            })
            .collect();
        Trace::from_requests(reqs, DatasetKind::ShareGpt)
    }

    #[test]
    fn plan_partitions_disjoint_instances() {
        let cluster = paper_cluster();
        let model = llama_13b();
        let topo = two_instance_topo();
        let policy = StaticPolicy::new("s", topo.clone());
        let trace = small_trace(1);
        let engine = Engine::new(
            policy,
            &cluster,
            &model,
            EngineConfig::default(),
            topo,
            &trace,
        );
        let plan = engine.compute_shard_plan(2).expect("two components");
        assert_eq!(plan.claims.len(), 2);
        assert_eq!(plan.group_of_instance, vec![0, 1]);
        assert_eq!(plan.claims[0].instances, vec![0]);
        assert_eq!(plan.claims[1].instances, vec![1]);
        assert_eq!(plan.claims[0].devices, vec![0, 1]);
        assert_eq!(plan.claims[1].devices, vec![2, 3]);
        // Unclaimed devices belong to part 0; claimed to rank + 1.
        assert_eq!(plan.part_of_device[0], 1);
        assert_eq!(plan.part_of_device[3], 2);
        assert!(plan.part_of_device[4..].iter().all(|&p| p == 0));
    }

    #[test]
    fn shared_device_fuses_components() {
        let cluster = paper_cluster();
        let model = llama_13b();
        let mut topo = two_instance_topo();
        // Instance 1 pools a worker from instance 0's TP group.
        topo.instances[1].stages[0].attention_workers = vec![DeviceId(1)];
        let policy = StaticPolicy::new("s", topo.clone());
        let trace = small_trace(1);
        let engine = Engine::new(
            policy,
            &cluster,
            &model,
            EngineConfig::default(),
            topo,
            &trace,
        );
        assert!(engine.compute_shard_plan(2).is_none(), "single component");
    }

    #[test]
    fn sharded_matches_sequential_digest() {
        let cluster = paper_cluster();
        let model = llama_13b();
        let topo = two_instance_topo();
        let trace = small_trace(40);
        let seq = {
            let policy = StaticPolicy::new("s", topo.clone());
            let mut e = Engine::new(
                policy,
                &cluster,
                &model,
                EngineConfig::default(),
                topo.clone(),
                &trace,
            );
            e.run_to_completion();
            e.into_report()
        };
        for shards in [2usize, 4, 8] {
            let policy = StaticPolicy::new("s", topo.clone());
            let mut e = Engine::new(
                policy,
                &cluster,
                &model,
                EngineConfig::default(),
                topo.clone(),
                &trace,
            );
            e.run_sharded(shards);
            let rep = e.into_report();
            assert_eq!(
                rep.digest(),
                seq.digest(),
                "shards={shards} diverged from sequential"
            );
            assert_eq!(rep.completed.len(), seq.completed.len());
        }
    }

    #[test]
    fn unforkable_policy_falls_back() {
        // A policy with the default `fork` (None) must still complete
        // and match sequential exactly via the fallback path.
        struct NoFork(StaticPolicy);
        impl Policy for NoFork {
            fn name(&self) -> String {
                self.0.name()
            }
            fn topology(&mut self, c: &Cluster, m: &ModelSpec, cfg: &EngineConfig) -> Topology {
                self.0.topology(c, m, cfg)
            }
            fn route(&mut self, r: &hetis_workload::Request, ctx: &PolicyCtx<'_>) -> usize {
                self.0.route(r, ctx)
            }
            fn place_batch(
                &mut self,
                i: usize,
                reqs: &[(RequestId, u32)],
                ctx: &PolicyCtx<'_>,
            ) -> Vec<Option<HeadPlacement>> {
                self.0.place_batch(i, reqs, ctx)
            }
            fn select_victim(
                &mut self,
                i: usize,
                d: DeviceId,
                b: RequestId,
                ctx: &PolicyCtx<'_>,
            ) -> VictimAction {
                self.0.select_victim(i, d, b, ctx)
            }
        }
        let cluster = paper_cluster();
        let model = llama_13b();
        let topo = two_instance_topo();
        let trace = small_trace(12);
        let seq = {
            let mut e = Engine::new(
                StaticPolicy::new("s", topo.clone()),
                &cluster,
                &model,
                EngineConfig::default(),
                topo.clone(),
                &trace,
            );
            e.run_to_completion();
            e.into_report()
        };
        let mut e = Engine::new(
            NoFork(StaticPolicy::new("s", topo.clone())),
            &cluster,
            &model,
            EngineConfig::default(),
            topo.clone(),
            &trace,
        );
        e.run_sharded(4);
        assert_eq!(e.into_report().digest(), seq.digest());
    }
}
