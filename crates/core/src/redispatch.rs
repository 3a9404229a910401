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
        let (current, Some(bottleneck)) =
            dispatcher.current_attention_time(ctx.cluster, ctx.model, ctx.kv, stage, s as u16)
        else {
            continue;
        };
        let ideal =
            dispatcher.ideal_attention_time(ctx.cluster, ctx.model, ctx.kv, stage, s as u16)?;
        if ideal <= 0.0 || current <= (1.0 + theta) * ideal {
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
