//! Re-dispatching (§5.3): the Θ-gated computation balancer and the
//! memory-aware victim logic.
//!
//! Two triggers:
//!
//! * **Computation balance** (§5.3.1) — when the current max per-device
//!   attention time exceeds the relaxed ideal `f*` by more than Θ, the
//!   single request contributing most to the bottleneck device is
//!   re-dispatched via Eq. 7.
//! * **KV exhaustion** (§5.3.2) — when a device cannot host the next
//!   token, the victim search is *restricted to requests actually
//!   resident on that device* (the paper's fix to LIFO/LRU), and if the
//!   cluster still has aggregate free memory the victim is re-dispatched
//!   instead of evicted.
//!
//! The balance check runs before every decode formation, and almost
//! always finds nothing to do, so it first tries to certify the stage
//! balanced without an LP. The relaxed ideal is
//! `f* = min(LP, current)` with
//! `LP = min τ s.t. τ ≥ cᵢ + aᵢhᵢ + bᵢgᵢ, Σh = H, Σg = G, h, g ≥ 0`
//! (capacity rows only raise it). By weak duality every weight λ on the
//! simplex gives `LP ≥ Σλᵢcᵢ + H·min λᵢaᵢ + G·min λᵢbᵢ`; λᵢ ∝ 1/bᵢ
//! yields the closed form
//! `LB = max((Σcᵢ/bᵢ + H·min aᵢ/bᵢ + G) / Σ1/bᵢ, max cᵢ)`, computed in
//! the same pass as `current` ([`Dispatcher::balance_check`]). When
//! `current ≤ (1+Θ)·LB` the trigger `current > (1+Θ)·f*` cannot hold, and
//! the ideal solve, the victim scan and the re-plan are skipped. The
//! 1/b weight is often dual-optimal, so the bound can meet the solved
//! ideal to the last bit; a 1e-9 relative margin keeps solver rounding
//! from turning a skip into a different decision. Decisions are
//! unchanged; only the cost moves. On the perfbench `hetis_slo_mix` and
//! `elastic_sessions` workloads (sub-seed 64) the bound settles 165,796
//! of 165,829 and 342,511 of 342,872 stage checks, and every check it
//! leaves trips the Θ trigger.

use crate::dispatcher::Dispatcher;
use hetis_cluster::DeviceId;
use hetis_engine::{HeadPlacement, Phase, PolicyCtx, RedispatchOp, StageTopo, VictimAction};
use hetis_workload::RequestId;

/// Computes the victim's per-device (heads, per-layer bytes) footprint on
/// one stage, as removal adjustments for [`Dispatcher::dispatch_adjusted`].
fn victim_stage_loads(
    ctx: &PolicyCtx<'_>,
    rid: RequestId,
    stage_idx: u16,
) -> Vec<(DeviceId, f64, f64)> {
    let r = ctx.requests[&rid]
        .placement
        .as_ref()
        .expect("victim placed");
    r.per_stage[stage_idx as usize]
        .iter()
        .map(|&(dev, heads)| {
            let entry = ctx.kv.device(dev).entry(rid, stage_idx);
            let g = entry
                .map(|e| {
                    ctx.kv
                        .device(dev)
                        .bytes_needed(e.groups, e.tokens, e.layers) as f64
                        / e.layers as f64
                })
                .unwrap_or(0.0);
            (dev, heads as f64, g)
        })
        .collect()
}

/// Builds a full new [`HeadPlacement`] for `rid` by re-running Eq. 7 per
/// stage with the victim's own footprint removed. `banned` excludes one
/// device entirely (the memory-exhaustion path). `None` when any stage is
/// infeasible.
pub fn replan_request(
    dispatcher: &Dispatcher,
    ctx: &PolicyCtx<'_>,
    instance: usize,
    rid: RequestId,
    banned: Option<DeviceId>,
) -> Option<HeadPlacement> {
    let req = &ctx.requests[&rid];
    let stages: &[StageTopo] = &ctx.topology.instances[instance].stages;
    let l = req.context_len();
    let mut per_stage = Vec::with_capacity(stages.len());
    for (s, stage) in stages.iter().enumerate() {
        let removed = victim_stage_loads(ctx, rid, s as u16);
        // A decoding victim's *full* context hits attention every
        // iteration, so no chunk cap applies here.
        let out = dispatcher.dispatch_adjusted(
            ctx.cluster,
            ctx.model,
            ctx.kv,
            stage,
            s as u16,
            &[l],
            &removed,
            banned,
            None,
        )?;
        let devices = stage.attention_devices();
        let entry: Vec<(DeviceId, u32)> = devices
            .iter()
            .zip(&out.heads[0])
            .filter(|&(_, &h)| h > 0)
            .map(|(&d, &h)| (d, h))
            .collect();
        per_stage.push(entry);
    }
    Some(HeadPlacement { per_stage })
}

/// §5.3.1: checks every stage of `instance`; returns at most one
/// re-dispatch op (the paper re-dispatches one request at a time, the one
/// with the greatest reduction potential).
pub fn balance_computation(
    dispatcher: &Dispatcher,
    ctx: &PolicyCtx<'_>,
    instance: usize,
    theta: f64,
) -> Option<RedispatchOp> {
    let stages = &ctx.topology.instances[instance].stages;
    for (s, stage) in stages.iter().enumerate() {
        let check = dispatcher.balance_check(ctx.cluster, ctx.model, ctx.kv, stage, s as u16);
        let Some(bottleneck) = check.bottleneck else {
            continue;
        };
        // The closed-form bound settles almost every check without an LP.
        if check.certifies_balanced(theta) {
            continue;
        }
        let Some(ideal) =
            dispatcher.ideal_attention_time(ctx.cluster, ctx.model, ctx.kv, stage, s as u16)
        else {
            continue;
        };
        if ideal <= 0.0 || check.current <= (1.0 + theta) * ideal {
            continue;
        }
        // The request contributing most to the bottleneck device.
        let victim = ctx
            .requests
            .values()
            .filter(|r| {
                r.instance == instance
                    && r.phase == Phase::Decoding
                    && !r.in_flight
                    && r.placement
                        .as_ref()
                        .map(|p| p.heads_on(s, bottleneck) > 0)
                        .unwrap_or(false)
            })
            .max_by(|a, b| {
                let key = |r: &&hetis_engine::RunningRequest| {
                    let heads = r.placement.as_ref().unwrap().heads_on(s, bottleneck) as f64;
                    heads * r.context_len() as f64
                };
                key(a)
                    .partial_cmp(&key(b))
                    .unwrap()
                    .then(a.req.id.cmp(&b.req.id))
            })
            .map(|r| r.req.id)?;
        let new_placement = replan_request(dispatcher, ctx, instance, victim, None)?;
        let old = ctx.requests[&victim].placement.as_ref().unwrap();
        if &new_placement == old {
            continue; // nothing better found
        }
        return Some(RedispatchOp {
            req: victim,
            new_placement,
        });
    }
    None
}

/// Victim policies compared in Fig. 15a and ablation A4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimMode {
    /// Hetis: memory-aware LIFO on the exhausted device, re-dispatch
    /// before evicting (§5.3.2).
    Hetis,
    /// Plain LIFO over the instance, regardless of device residency —
    /// vLLM's behavior, the Fig. 15a comparator.
    PlainLifo,
    /// LRU restricted to the device (ablation A4).
    LruOnDevice,
}

/// §5.3.2: victim selection on KV exhaustion of `device`.
pub fn select_victim(
    dispatcher: &Dispatcher,
    ctx: &PolicyCtx<'_>,
    instance: usize,
    device: DeviceId,
    mode: VictimMode,
) -> VictimAction {
    let eligible = |r: &&hetis_engine::RunningRequest| {
        r.instance == instance && r.phase == Phase::Decoding && !r.in_flight
    };
    // Eligible requests holding KV on `device`, read from its request
    // index. Comparators order by (admitted_at, id), a total order, so the
    // index's iteration order cannot change the pick.
    let resident_eligible = || {
        ctx.kv
            .device(device)
            .holders()
            .filter_map(|id| ctx.requests.get(&id))
            .filter(eligible)
    };
    match mode {
        VictimMode::PlainLifo => {
            // Newest admission anywhere on the instance — may not even
            // touch the exhausted device (the paper's criticism).
            let v = ctx.requests.values().filter(eligible).max_by(cmp_admitted);
            match v {
                Some(r) => VictimAction::Evict(r.req.id),
                None => VictimAction::Stall,
            }
        }
        VictimMode::LruOnDevice => {
            let v = resident_eligible().min_by(cmp_admitted);
            match v {
                Some(r) => VictimAction::Evict(r.req.id),
                None => VictimAction::Stall,
            }
        }
        VictimMode::Hetis => {
            // Modified LIFO: newest admission *resident on the device*.
            let v = resident_eligible().max_by(cmp_admitted);
            let Some(victim) = v.map(|r| r.req.id) else {
                return VictimAction::Stall;
            };
            // Aggregate free memory check: Σ gᵢ < Σ capᵢ over the
            // instance's attention devices (minus the exhausted one,
            // which by definition has nothing to give).
            let devices: Vec<DeviceId> = ctx.topology.instances[instance]
                .stages
                .iter()
                .flat_map(|s| s.attention_devices())
                .collect();
            let free_elsewhere: u64 = devices
                .iter()
                .filter(|&&d| d != device)
                .map(|&d| ctx.kv.device(d).free_bytes())
                .sum();
            let victim_bytes_on_dev = ctx.kv.device(device).request_bytes(victim);
            if free_elsewhere > victim_bytes_on_dev {
                // Exhausted devices are banned from re-receiving the
                // heads their own pressure releases.
                if let Some(p) = replan_request(dispatcher, ctx, instance, victim, Some(device)) {
                    let old = ctx.requests[&victim].placement.as_ref().unwrap();
                    if &p != old
                        && p.heads_on_device_total(device) < old.heads_on_device_total(device)
                    {
                        return VictimAction::Redispatch(victim, p);
                    }
                }
            }
            VictimAction::Evict(victim)
        }
    }
}

fn cmp_admitted(
    a: &&hetis_engine::RunningRequest,
    b: &&hetis_engine::RunningRequest,
) -> std::cmp::Ordering {
    a.admitted_at
        .unwrap_or(0.0)
        .partial_cmp(&b.admitted_at.unwrap_or(0.0))
        .unwrap()
        .then(a.req.id.cmp(&b.req.id))
}

/// Extension helpers for placements used by the victim logic.
trait PlacementExt {
    fn heads_on_device_total(&self, device: DeviceId) -> u32;
}

impl PlacementExt for HeadPlacement {
    fn heads_on_device_total(&self, device: DeviceId) -> u32 {
        self.per_stage
            .iter()
            .flat_map(|s| s.iter())
            .filter(|&&(d, _)| d == device)
            .map(|&(_, h)| h)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HetisConfig, Profiler};
    use hetis_cluster::cluster::paper_cluster;
    use hetis_cluster::GpuType;
    use hetis_engine::{
        InstanceRole, InstanceTopo, KvState, RequestTable, RunningRequest, Topology,
    };
    use hetis_model::llama_70b;
    use hetis_parallel::StageConfig;
    use hetis_workload::Request;
    use std::collections::HashMap;

    #[test]
    fn infeasible_ideal_skips_only_its_stage() {
        let cluster = paper_cluster();
        let model = llama_70b();
        let a100 = cluster.devices_of_type(GpuType::A100);
        let stage = |devices: &[DeviceId]| {
            StageTopo::plain(StageConfig {
                devices: devices.to_vec(),
                layers: 40,
            })
        };
        let topology = Topology {
            instances: vec![InstanceTopo {
                stages: vec![stage(&a100[..2]), stage(&a100[2..])],
                role: InstanceRole::Both,
            }],
        };
        let mut kv = KvState::new(&cluster, &model, 16, &HashMap::new()).unwrap();
        // Stage 0: a one-layer-deep resident holding an eighth of the
        // pool, so the stage's per-layer KV exceeds its pooled per-layer
        // capacity and the ideal relaxation is infeasible.
        let dev = kv.device(a100[0]);
        let tokens = (dev.pool_bytes() / 8 / dev.bytes_needed(8, 16, 1) * 16) as u32;
        kv.device_mut(a100[0])
            .allocate(RequestId(999), 0, 8, tokens, 1)
            .unwrap();
        // Stage 1: every decoding request on a100[2], a100[3] idle.
        let mut requests = RequestTable::default();
        for id in 0..8u64 {
            let mut r = RunningRequest::new(
                Request {
                    id: RequestId(id),
                    arrival: 0.0,
                    input_len: 4000,
                    output_len: 100,
                    class: Default::default(),
                    tenant: Default::default(),
                    session: None,
                },
                0,
            );
            r.phase = Phase::Decoding;
            r.placement = Some(HeadPlacement {
                per_stage: vec![vec![(a100[1], 64)], vec![(a100[2], 64)]],
            });
            for (s, dev) in [(0, a100[1]), (1, a100[2])] {
                kv.device_mut(dev)
                    .allocate(RequestId(id), s, 8, 4000, 40)
                    .unwrap();
            }
            requests.insert(r);
        }
        let dispatcher = Dispatcher::new(
            Profiler::profile(&cluster, 8, 0.0, 1),
            HetisConfig::default(),
        );
        let theta = 0.5;
        let s0 = &topology.instances[0].stages[0];
        assert!(!dispatcher
            .balance_check(&cluster, &model, &kv, s0, 0)
            .certifies_balanced(theta));
        assert_eq!(
            dispatcher.ideal_attention_time(&cluster, &model, &kv, s0, 0),
            None
        );
        let ctx = PolicyCtx {
            cluster: &cluster,
            model: &model,
            now: 0.0,
            kv: &kv,
            requests: &requests,
            topology: &topology,
            prefill_chunk_tokens: None,
            prefix: None,
        };
        let op = balance_computation(&dispatcher, &ctx, 0, theta)
            .expect("the imbalanced later stage still re-dispatches");
        assert_eq!(op.req, RequestId(7));
        assert!(op.new_placement.per_stage[1]
            .iter()
            .any(|&(d, _)| d == a100[3]));
    }
}
