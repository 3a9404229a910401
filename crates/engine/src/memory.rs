//! Byte-accurate per-device KV accounting with block-granularity rounding.
//!
//! The engine tracks, for every device, which *(request, stage)* pairs hold
//! KV there, with how many head groups and tokens. Bytes are rounded up to
//! whole blocks (`block_size` tokens × one head group × one layer is the
//! unit), so capacity behaves exactly like the block allocators in
//! `hetis-kvcache`; the engine keeps the byte ledger and defers the
//! block-table mechanics to that crate's benches/tests.
//!
//! # Request index and running totals
//!
//! Each [`DeviceKv`] indexes its KV by request: a resident request maps to
//! its `(stage, KvEntry)` slots on that device — one slot per stage it holds
//! there (several only on attention workers shared by stages), never a slot
//! with zero groups, never an empty slot list. Beside the index, every
//! mutator keeps running totals up to date:
//!
//! - per stage, the resident head groups and the block-rounded bytes one
//!   layer holds (`blocks × groups × block_unit`, summed over the stage's
//!   slots) — the Dispatcher's `h_i(t)` and `g_i(t)`;
//! - over all stages, the resident head groups.
//!
//! The totals are integer sums of integer terms, so they equal a rescan of
//! the index exactly (debug builds check this at every engine KV peak
//! sample), and the `f64` the dispatcher reads is bit-identical to the sum
//! a scan would produce.
//!
//! Costs: the per-stage and per-device aggregates (`stage_query_heads`,
//! `stage_kv_bytes_per_layer`, `resident_query_heads`) and the pool reads
//! are O(1). Per-request operations (`allocate`, `append_*`, `grow_*`,
//! `shrink_groups`, `grow_groups`, `free_request`, `entry`,
//! `request_bytes`) are one hash lookup plus O(slots of that request); the
//! index hashes with the engine's integer hasher (`idhash`), not SipHash.
//! Only the listings (`resident_requests`, `stage_residents`, `holders`)
//! walk every resident request of the device.

use crate::idhash::IdMap;
use hetis_cluster::{Cluster, DeviceId, MemoryLedger};
use hetis_model::ModelSpec;
use hetis_workload::RequestId;
use std::collections::HashMap;

/// KV allocation failure on one device: the byte pool cannot hold the
/// operation. Carries requested vs. available bytes so admission and
/// growth failure logs are actionable (the block allocators'
/// `hetis_kvcache::AllocError` carries the block-count analogue; the
/// engine is deliberately independent of the block-cache crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvAllocError {
    /// Bytes the failing operation needed.
    pub requested: u64,
    /// Bytes that were free.
    pub available: u64,
}

impl std::fmt::Display for KvAllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "KV pool exhausted: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for KvAllocError {}

/// KV held by one (request, stage) on one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvEntry {
    /// KV head groups resident.
    pub groups: u32,
    /// Tokens the entry was last sized for. The engine retokens entries
    /// only when a decode append crosses a block boundary, so this may
    /// trail the request's true token count (`RunningRequest::kv_tokens`)
    /// inside the same block: the block count, and with it every byte
    /// figure, is exact. Compare it only through block-rounded bytes or
    /// against other entries of the same request.
    pub tokens: u32,
    /// Layers of the owning stage.
    pub layers: u32,
}

/// Running totals of one pipeline stage on one device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct StageTotals {
    /// Σ `groups` over the stage's slots.
    groups: u64,
    /// Σ `blocks × groups × block_unit` over the stage's slots: the
    /// block-rounded KV bytes one layer of the stage holds.
    bytes_per_layer: u64,
}

/// Whole blocks covering `tokens`.
fn blocks(tokens: u32, block_size: u32) -> u64 {
    tokens.div_ceil(block_size) as u64
}

/// KV accounting for one device.
#[derive(Debug, Clone)]
pub struct DeviceKv {
    ledger: MemoryLedger,
    /// Request index: each resident request → its `(stage, entry)` slots
    /// here. At most one slot per stage, no zero-group slot, no empty list.
    entries: IdMap<RequestId, Vec<(u16, KvEntry)>>,
    /// Running totals indexed by stage (grown on first use). Every mutator
    /// updates them, so they always equal a rescan of `entries`.
    stages: Vec<StageTotals>,
    /// Σ `groups` over every slot of every stage.
    groups: u64,
    /// Bytes of one block unit: block_size tokens × one group × one layer.
    block_unit: u64,
    block_size: u32,
}

impl DeviceKv {
    fn new(ledger: MemoryLedger, block_unit: u64, block_size: u32) -> DeviceKv {
        DeviceKv {
            ledger,
            entries: IdMap::default(),
            stages: Vec::new(),
            groups: 0,
            block_unit,
            block_size,
        }
    }

    fn entry_bytes(&self, e: &KvEntry) -> u64 {
        self.bytes_needed(e.groups, e.tokens, e.layers)
    }

    /// Block-rounded bytes one layer of `groups` groups × `tokens` holds.
    fn layer_bytes(&self, groups: u32, tokens: u32) -> u64 {
        blocks(tokens, self.block_size) * groups as u64 * self.block_unit
    }

    /// Adds a slot's (or a slot delta's) share to the running totals.
    fn credit(&mut self, stage: u16, groups: u32, bytes_per_layer: u64) {
        let s = stage as usize;
        if s >= self.stages.len() {
            self.stages.resize(s + 1, StageTotals::default());
        }
        self.stages[s].groups += groups as u64;
        self.stages[s].bytes_per_layer += bytes_per_layer;
        self.groups += groups as u64;
    }

    /// Removes a slot's (or a slot delta's) share from the running totals.
    fn debit(&mut self, stage: u16, groups: u32, bytes_per_layer: u64) {
        let t = &mut self.stages[stage as usize];
        t.groups -= groups as u64;
        t.bytes_per_layer -= bytes_per_layer;
        self.groups -= groups as u64;
    }

    /// Bytes needed to hold `groups` groups × `tokens` tokens × `layers`.
    pub fn bytes_needed(&self, groups: u32, tokens: u32, layers: u32) -> u64 {
        blocks(tokens, self.block_size) * groups as u64 * layers as u64 * self.block_unit
    }

    /// KV bytes free.
    pub fn free_bytes(&self) -> u64 {
        self.ledger.kv_free()
    }

    /// KV bytes in use.
    pub fn used_bytes(&self) -> u64 {
        self.ledger.kv_used()
    }

    /// Total KV pool bytes.
    pub fn pool_bytes(&self) -> u64 {
        self.ledger.kv_pool()
    }

    /// Pool utilization in [0, 1].
    pub fn utilization(&self) -> f64 {
        self.ledger.kv_utilization()
    }

    /// The resident entry for (request, stage).
    pub fn entry(&self, req: RequestId, stage: u16) -> Option<KvEntry> {
        self.entries
            .get(&req)?
            .iter()
            .find(|&&(s, _)| s == stage)
            .map(|&(_, e)| e)
    }

    /// Requests with any residency here, sorted.
    pub fn resident_requests(&self) -> Vec<RequestId> {
        let mut v: Vec<RequestId> = self.entries.keys().copied().collect();
        v.sort();
        v
    }

    /// Requests holding a nonzero number of KV bytes here (exactly those
    /// with `request_bytes(r) > 0`), in no particular order — the
    /// candidate set of the victim scans.
    pub fn holders(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.entries
            .iter()
            .filter(|(_, slots)| slots.iter().any(|(_, e)| self.entry_bytes(e) > 0))
            .map(|(&r, _)| r)
    }

    /// Registers an entry, allocating its bytes. Fails without side
    /// effects when the pool is short.
    pub fn allocate(
        &mut self,
        req: RequestId,
        stage: u16,
        groups: u32,
        tokens: u32,
        layers: u32,
    ) -> Result<(), KvAllocError> {
        assert!(groups > 0 && layers > 0);
        assert!(
            self.entry(req, stage).is_none(),
            "{req} stage {stage} already resident"
        );
        let e = KvEntry {
            groups,
            tokens,
            layers,
        };
        let bytes = self.entry_bytes(&e);
        self.ledger.alloc_kv(bytes).map_err(|err| KvAllocError {
            requested: bytes,
            available: err.available,
        })?;
        self.credit(stage, groups, self.layer_bytes(groups, tokens));
        self.entries.entry(req).or_default().push((stage, e));
        Ok(())
    }

    /// Bytes that moving every entry of `req` from `t` to `next(t)` tokens
    /// would newly consume.
    fn retoken_cost(&self, req: RequestId, next: impl Fn(u32) -> u32) -> u64 {
        let Some(slots) = self.entries.get(&req) else {
            return 0;
        };
        slots
            .iter()
            .map(|(_, e)| {
                let before = blocks(e.tokens, self.block_size);
                let after = blocks(next(e.tokens), self.block_size);
                (after - before) * e.groups as u64 * e.layers as u64 * self.block_unit
            })
            .sum()
    }

    /// Moves every entry of `req` from `t` to `next(t)` tokens, charging
    /// `cost` — its [`DeviceKv::retoken_cost`] — to the pool. Fails
    /// without side effects when the pool is short.
    fn retoken(
        &mut self,
        req: RequestId,
        cost: u64,
        next: impl Fn(u32) -> u32,
    ) -> Result<(), KvAllocError> {
        if cost > 0 {
            self.ledger.alloc_kv(cost).map_err(|e| KvAllocError {
                requested: cost,
                available: e.available,
            })?;
        }
        let Some(slots) = self.entries.get_mut(&req) else {
            return Ok(());
        };
        for (stage, e) in slots.iter_mut() {
            let tokens = next(e.tokens);
            let new_blocks = blocks(tokens, self.block_size) - blocks(e.tokens, self.block_size);
            e.tokens = tokens;
            let grown = new_blocks * e.groups as u64 * self.block_unit;
            self.stages[*stage as usize].bytes_per_layer += grown;
        }
        Ok(())
    }

    /// Bytes that appending one token to every entry of `req` would newly
    /// consume (0 when no block boundary is crossed).
    pub fn append_cost(&self, req: RequestId) -> u64 {
        self.retoken_cost(req, |t| t + 1)
    }

    /// Appends one token to every entry of `req`. Fails without side
    /// effects when the pool is short.
    pub fn append_token(&mut self, req: RequestId) -> Result<(), KvAllocError> {
        self.retoken(req, self.append_cost(req), |t| t + 1)
    }

    /// Bytes that growing every entry of `req` to `new_tokens` tokens
    /// would newly consume (0 when no entry gains a block).
    pub fn grow_cost(&self, req: RequestId, new_tokens: u32) -> u64 {
        self.retoken_cost(req, |t| t.max(new_tokens))
    }

    /// Grows every entry of `req` on this device to `new_tokens` tokens —
    /// the chunked-prefill reservation path: admission reserves the first
    /// chunk, each completed chunk grows to cover the next. Entries
    /// already at or past `new_tokens` are left alone. Fails without side
    /// effects when the pool is short.
    pub fn grow_tokens(&mut self, req: RequestId, new_tokens: u32) -> Result<(), KvAllocError> {
        self.retoken(req, self.grow_cost(req, new_tokens), |t| t.max(new_tokens))
    }

    /// Frees every entry of `req`; returns bytes released.
    pub fn free_request(&mut self, req: RequestId) -> u64 {
        let Some(slots) = self.entries.remove(&req) else {
            return 0;
        };
        let mut released = 0;
        for (stage, e) in slots {
            released += self.entry_bytes(&e);
            self.debit(stage, e.groups, self.layer_bytes(e.groups, e.tokens));
        }
        self.ledger.free_kv(released);
        released
    }

    /// Frees `groups` groups from (req, stage) — partial migration away.
    /// Returns bytes released. Panics if more groups than resident.
    pub fn shrink_groups(&mut self, req: RequestId, stage: u16, groups: u32) -> u64 {
        let slots = self.entries.get_mut(&req).expect("entry must exist");
        let i = slots
            .iter()
            .position(|&(s, _)| s == stage)
            .expect("entry must exist");
        let e = slots[i].1;
        assert!(groups <= e.groups, "shrinking {groups} of {}", e.groups);
        if e.groups == groups {
            slots.swap_remove(i);
            if slots.is_empty() {
                self.entries.remove(&req);
            }
        } else {
            slots[i].1.groups -= groups;
        }
        let released = self.bytes_needed(groups, e.tokens, e.layers);
        self.debit(stage, groups, self.layer_bytes(groups, e.tokens));
        self.ledger.free_kv(released);
        released
    }

    /// Adds `groups` groups to (req, stage), creating the entry if absent
    /// (migration in). Fails without side effects when short.
    pub fn grow_groups(
        &mut self,
        req: RequestId,
        stage: u16,
        groups: u32,
        tokens: u32,
        layers: u32,
    ) -> Result<(), KvAllocError> {
        let Some(e) = self.entry(req, stage) else {
            return self.allocate(req, stage, groups, tokens, layers);
        };
        assert_eq!(e.tokens, tokens, "token mismatch on grow");
        let bytes = self.bytes_needed(groups, tokens, layers);
        self.ledger.alloc_kv(bytes).map_err(|err| KvAllocError {
            requested: bytes,
            available: err.available,
        })?;
        let slots = self.entries.get_mut(&req).expect("present");
        let slot = slots
            .iter_mut()
            .find(|(s, _)| *s == stage)
            .expect("present");
        slot.1.groups += groups;
        self.credit(stage, groups, self.layer_bytes(groups, tokens));
        Ok(())
    }

    /// Total KV bytes attributable to `req` on this device.
    pub fn request_bytes(&self, req: RequestId) -> u64 {
        self.entries.get(&req).map_or(0, |slots| {
            slots.iter().map(|(_, e)| self.entry_bytes(e)).sum()
        })
    }

    /// Sum over entries of `groups × r` — the device's resident query-head
    /// count `h_i` (per layer), given the model's group ratio.
    pub fn resident_query_heads(&self, r: u32) -> u64 {
        self.groups * r as u64
    }

    /// Resident query heads for one pipeline stage only — the Dispatcher's
    /// `h_i(t)` (the LP of Eq. 7 runs per stage).
    pub fn stage_query_heads(&self, stage: u16, r: u32) -> u64 {
        self.stages
            .get(stage as usize)
            .map_or(0, |t| t.groups * r as u64)
    }

    /// Per-layer KV bytes resident for one stage — the Dispatcher's
    /// `g_i(t)` (what one attention kernel invocation reads).
    pub fn stage_kv_bytes_per_layer(&self, stage: u16) -> f64 {
        match self.stages.get(stage as usize) {
            // Every slot has groups > 0, so this is "the stage has slots".
            Some(t) if t.groups > 0 => t.bytes_per_layer as f64,
            // No slot: the empty f64 sum (-0.0), the value a per-slot
            // scan returns, kept so dispatch arithmetic stays bit-identical.
            _ => std::iter::empty::<f64>().sum(),
        }
    }

    /// The most recently useful victim query: requests resident on this
    /// device for a given stage, with their entry token counts.
    pub fn stage_residents(&self, stage: u16) -> Vec<(RequestId, KvEntry)> {
        let mut v: Vec<(RequestId, KvEntry)> = self
            .entries
            .iter()
            .flat_map(|(&r, slots)| {
                slots
                    .iter()
                    .filter(move |&&(s, _)| s == stage)
                    .map(move |&(_, e)| (r, e))
            })
            .collect();
        v.sort_by_key(|&(r, _)| r);
        v
    }

    /// Debug cross-check: the running totals equal a rescan of the index.
    #[cfg(debug_assertions)]
    fn assert_totals(&self) {
        let mut stages = vec![StageTotals::default(); self.stages.len()];
        let mut groups = 0;
        for slots in self.entries.values() {
            assert!(!slots.is_empty(), "empty slot list in the index");
            for &(s, e) in slots {
                assert!(e.groups > 0, "zero-group slot in the index");
                stages[s as usize].groups += e.groups as u64;
                stages[s as usize].bytes_per_layer += self.layer_bytes(e.groups, e.tokens);
                groups += e.groups as u64;
            }
        }
        assert_eq!(self.stages, stages, "per-stage KV totals drifted");
        assert_eq!(self.groups, groups, "resident group total drifted");
    }
}

/// Cluster-wide KV state: one [`DeviceKv`] per device.
#[derive(Debug, Clone)]
pub struct KvState {
    devices: Vec<DeviceKv>,
    /// Scratch for the all-or-nothing multi-device ops: (device, cost).
    costs: Vec<(DeviceId, u64)>,
}

impl KvState {
    /// Builds the state: reserves `weights[d]` on each device and sizes
    /// the pools. Devices without weights get their full pool.
    pub fn new(
        cluster: &Cluster,
        model: &ModelSpec,
        block_size: u32,
        weights: &HashMap<DeviceId, u64>,
    ) -> Result<KvState, String> {
        let block_unit = block_size as u64 * 2 * model.head_dim * model.dtype.bytes();
        let mut devices = Vec::with_capacity(cluster.len());
        for d in cluster.devices() {
            let mut ledger = MemoryLedger::new(d.spec.mem_bytes);
            if let Some(&w) = weights.get(&d.id) {
                ledger
                    .reserve_weights(w)
                    .map_err(|e| format!("{}: {e}", d.id))?;
            }
            devices.push(DeviceKv::new(ledger, block_unit, block_size));
        }
        Ok(KvState {
            devices,
            costs: Vec::new(),
        })
    }

    /// Accessor for one device.
    pub fn device(&self, d: DeviceId) -> &DeviceKv {
        &self.devices[d.index()]
    }

    /// Mutable accessor for one device.
    pub fn device_mut(&mut self, d: DeviceId) -> &mut DeviceKv {
        &mut self.devices[d.index()]
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when no devices exist.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Total KV pool across a device subset.
    pub fn total_pool(&self, subset: &[DeviceId]) -> u64 {
        subset.iter().map(|&d| self.device(d).pool_bytes()).sum()
    }

    /// Total used KV across a device subset.
    pub fn total_used(&self, subset: &[DeviceId]) -> u64 {
        subset.iter().map(|&d| self.device(d).used_bytes()).sum()
    }

    /// [`DeviceKv::grow_tokens`] on every device of `devices` (repeats
    /// allowed), all or nothing. Each device's cost is computed once and
    /// reused for the commit. When some device is short, nothing changes
    /// and the lowest-id short device is returned. The engine's decode
    /// appends call it with `tokens + 1` at each block crossing.
    pub fn grow_tokens_on(
        &mut self,
        req: RequestId,
        devices: impl IntoIterator<Item = DeviceId>,
        new_tokens: u32,
    ) -> Result<(), DeviceId> {
        let next = |t: u32| t.max(new_tokens);
        self.costs.clear();
        for d in devices {
            if !self.costs.iter().any(|&(c, _)| c == d) {
                let cost = self.devices[d.index()].retoken_cost(req, next);
                self.costs.push((d, cost));
            }
        }
        let short = self
            .costs
            .iter()
            .filter(|&&(d, cost)| cost > self.devices[d.index()].free_bytes())
            .map(|&(d, _)| d)
            .min();
        if let Some(d) = short {
            return Err(d);
        }
        for &(d, cost) in &self.costs {
            self.devices[d.index()]
                .retoken(req, cost, next)
                .expect("checked headroom");
        }
        Ok(())
    }

    /// Debug cross-check of every device's running totals against a
    /// rescan. O(resident slots), so the engine calls it only at its KV
    /// peak samples, never per append.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_totals(&self) {
        for d in &self.devices {
            d.assert_totals();
        }
    }
}

/// *Usable* KV capacity of a topology, in bytes of whole-model cache —
/// the Fig. 11 metric.
///
/// A request's KV splits across pipeline stages in proportion to their
/// layer counts. For stage-local systems each stage's share can only live
/// on that stage's primary devices, so capacity is set by the bottleneck
/// stage — exactly the "unused cache space due to computation–memory
/// imbalance" of Fig. 1b. Hetis's shared attention-worker pool absorbs
/// any stage's overflow, so its capacity is the largest `T` (tokens) with
/// `Σ_s max(0, T·c_s − P_s) ≤ W`, where `c_s` is stage `s`'s per-token
/// bytes, `P_s` its primary pool and `W` the shared worker pool.
/// Prefill-only instances contribute nothing (their pools never hold
/// decode working set) — Fig. 1a's replicated-parameter cost.
pub fn usable_kv_bytes(model: &ModelSpec, topo: &crate::topology::Topology, kv: &KvState) -> u64 {
    use crate::topology::InstanceRole;
    let per_layer = hetis_model::KvFootprint::new(model).bytes_per_token_per_layer();
    let mut usable = 0u64;
    for inst in &topo.instances {
        if inst.role == InstanceRole::PrefillOnly || inst.role == InstanceRole::Down {
            continue;
        }
        let primary_pools: Vec<u64> = inst
            .stages
            .iter()
            .map(|s| {
                s.primary
                    .devices
                    .iter()
                    .map(|&d| kv.device(d).pool_bytes())
                    .sum()
            })
            .collect();
        let per_token: Vec<u64> = inst
            .stages
            .iter()
            .map(|s| per_layer * s.primary.layers as u64)
            .collect();
        // Shared worker pool: union of the instance's attention workers.
        let mut workers: Vec<_> = inst
            .stages
            .iter()
            .flat_map(|s| s.attention_workers.iter().copied())
            .collect();
        workers.sort();
        workers.dedup();
        let shared: u64 = workers.iter().map(|&d| kv.device(d).pool_bytes()).sum();
        let tokens = max_tokens_with_overflow_pool(&primary_pools, &per_token, shared);
        usable += tokens.saturating_mul(per_layer * model.num_layers as u64);
    }
    usable
}

/// Largest `T` with `Σ_s max(0, T·cost_s − pool_s) ≤ shared` (binary
/// search over a monotone predicate).
pub fn max_tokens_with_overflow_pool(pools: &[u64], costs: &[u64], shared: u64) -> u64 {
    let fits = |t: u64| -> bool {
        let mut overflow: u128 = 0;
        for (&p, &c) in pools.iter().zip(costs) {
            let need = t as u128 * c as u128;
            overflow += need.saturating_sub(p as u128);
        }
        overflow <= shared as u128
    };
    let mut lo = 0u64;
    // Upper bound: all memory in one pot.
    let total: u128 = pools.iter().map(|&p| p as u128).sum::<u128>() + shared as u128;
    let per_token: u128 = costs.iter().map(|&c| c as u128).sum::<u128>().max(1);
    let mut hi = (total / per_token + 1) as u64;
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetis_cluster::cluster::paper_cluster;
    use hetis_model::llama_70b;
    use proptest::prelude::*;

    fn state() -> KvState {
        let c = paper_cluster();
        let m = llama_70b();
        KvState::new(&c, &m, 16, &HashMap::new()).unwrap()
    }

    #[test]
    fn allocate_append_free_roundtrip() {
        let mut s = state();
        let d = DeviceId(0);
        let r = RequestId(1);
        s.device_mut(d).allocate(r, 0, 8, 100, 80).unwrap();
        let used = s.device(d).used_bytes();
        // 7 blocks × 8 groups × 80 layers × block_unit(16×2×128×2)
        assert_eq!(used, 7 * 8 * 80 * (16 * 2 * 128 * 2));
        // Appending inside the 7th block costs nothing (100 → 101 < 112).
        assert_eq!(s.device(d).append_cost(r), 0);
        s.device_mut(d).append_token(r).unwrap();
        assert_eq!(s.device(d).used_bytes(), used);
        // Push to the boundary: 112 tokens → next append opens block 8.
        for _ in 0..11 {
            s.device_mut(d).append_token(r).unwrap();
        }
        assert!(s.device(d).append_cost(r) > 0);
        s.device_mut(d).append_token(r).unwrap();
        assert!(s.device(d).used_bytes() > used);
        let released = s.device_mut(d).free_request(r);
        assert_eq!(s.device(d).used_bytes(), 0);
        assert!(released > used);
    }

    #[test]
    fn grow_tokens_matches_atomic_reservation() {
        let mut grown = state();
        let mut atomic = state();
        let d = DeviceId(1);
        let r = RequestId(3);
        // Chunk schedule 300 + 300 + 177 vs one 777-token allocation.
        grown.device_mut(d).allocate(r, 0, 8, 300, 40).unwrap();
        grown.device_mut(d).allocate(r, 1, 4, 300, 40).unwrap();
        for target in [600, 777] {
            assert!(
                grown.device_mut(d).grow_cost(r, target) > 0,
                "each chunk adds blocks"
            );
            grown.device_mut(d).grow_tokens(r, target).unwrap();
        }
        atomic.device_mut(d).allocate(r, 0, 8, 777, 40).unwrap();
        atomic.device_mut(d).allocate(r, 1, 4, 777, 40).unwrap();
        assert_eq!(grown.device(d).used_bytes(), atomic.device(d).used_bytes());
        assert_eq!(grown.device(d).entry(r, 0).unwrap().tokens, 777);
        assert_eq!(grown.device(d).entry(r, 1).unwrap().tokens, 777);
        // Shrinking targets are no-ops.
        assert_eq!(grown.device(d).grow_cost(r, 100), 0);
        grown.device_mut(d).grow_tokens(r, 100).unwrap();
        assert_eq!(grown.device(d).used_bytes(), atomic.device(d).used_bytes());
    }

    #[test]
    fn grow_tokens_exhaustion_has_no_side_effects() {
        let c = paper_cluster();
        let m = llama_70b();
        let mut weights = HashMap::new();
        let p100 = c.devices_of_type(hetis_cluster::GpuType::P100)[0];
        weights.insert(p100, 10_000_000_000);
        let mut s = KvState::new(&c, &m, 16, &weights).unwrap();
        s.device_mut(p100)
            .allocate(RequestId(1), 0, 8, 64, 80)
            .unwrap();
        let used = s.device(p100).used_bytes();
        let res = s.device_mut(p100).grow_tokens(RequestId(1), 1_000_000);
        assert!(res.is_err());
        assert_eq!(s.device(p100).used_bytes(), used);
        assert_eq!(s.device(p100).entry(RequestId(1), 0).unwrap().tokens, 64);
        // Terminal zero: freeing the request balances the ledger exactly.
        let released = s.device_mut(p100).free_request(RequestId(1));
        assert_eq!(released, used);
        assert_eq!(s.device(p100).used_bytes(), 0);
    }

    #[test]
    fn shrink_and_grow_groups() {
        let mut s = state();
        let d = DeviceId(2);
        let r = RequestId(7);
        s.device_mut(d).allocate(r, 1, 8, 64, 40).unwrap();
        let full = s.device(d).used_bytes();
        let released = s.device_mut(d).shrink_groups(r, 1, 3);
        assert_eq!(released, full * 3 / 8);
        assert_eq!(s.device(d).entry(r, 1).unwrap().groups, 5);
        s.device_mut(d).grow_groups(r, 1, 3, 64, 40).unwrap();
        assert_eq!(s.device(d).used_bytes(), full);
        // Shrinking to zero removes the entry.
        s.device_mut(d).shrink_groups(r, 1, 8);
        assert!(s.device(d).entry(r, 1).is_none());
        assert_eq!(s.device(d).used_bytes(), 0);
    }

    #[test]
    fn exhaustion_has_no_side_effects() {
        let c = paper_cluster();
        let m = llama_70b();
        let mut weights = HashMap::new();
        // Nearly fill a P100 (12 GB) with weights.
        let p100 = c.devices_of_type(hetis_cluster::GpuType::P100)[0];
        weights.insert(p100, 10_000_000_000);
        let mut s = KvState::new(&c, &m, 16, &weights).unwrap();
        let free = s.device(p100).free_bytes();
        // An allocation bigger than the pool fails cleanly.
        let need_groups = (free / (16 * 2 * 128 * 2) / 80 + 2) as u32;
        let res = s
            .device_mut(p100)
            .allocate(RequestId(1), 0, need_groups, 16, 80);
        assert!(res.is_err());
        assert_eq!(s.device(p100).used_bytes(), 0);
        assert_eq!(s.device(p100).free_bytes(), free);
    }

    #[test]
    fn alloc_error_carries_requested_and_available() {
        let c = paper_cluster();
        let m = llama_70b();
        let mut weights = HashMap::new();
        let p100 = c.devices_of_type(hetis_cluster::GpuType::P100)[0];
        weights.insert(p100, 10_000_000_000);
        let mut s = KvState::new(&c, &m, 16, &weights).unwrap();
        let available = s.device(p100).free_bytes();
        let requested = s.device(p100).bytes_needed(8, 1_000_000, 80);
        assert!(requested > available, "setup must exhaust the pool");
        let err = s
            .device_mut(p100)
            .allocate(RequestId(1), 0, 8, 1_000_000, 80)
            .unwrap_err();
        assert_eq!(
            err,
            KvAllocError {
                requested,
                available
            }
        );
        assert!(err.to_string().contains(&format!("{requested} bytes")));
        // Growth failures report the *delta* they asked for.
        s.device_mut(p100)
            .allocate(RequestId(1), 0, 8, 64, 80)
            .unwrap();
        let delta = s.device(p100).grow_cost(RequestId(1), 1_000_000);
        let err = s
            .device_mut(p100)
            .grow_tokens(RequestId(1), 1_000_000)
            .unwrap_err();
        assert_eq!(err.requested, delta);
        assert_eq!(err.available, s.device(p100).free_bytes());
    }

    #[test]
    fn resident_bookkeeping() {
        let mut s = state();
        let d = DeviceId(4);
        s.device_mut(d)
            .allocate(RequestId(1), 0, 2, 50, 40)
            .unwrap();
        s.device_mut(d)
            .allocate(RequestId(2), 0, 4, 30, 40)
            .unwrap();
        s.device_mut(d)
            .allocate(RequestId(1), 1, 1, 50, 40)
            .unwrap();
        assert_eq!(
            s.device(d).resident_requests(),
            vec![RequestId(1), RequestId(2)]
        );
        assert_eq!(s.device(d).resident_query_heads(8), (2 + 4 + 1) * 8);
        assert!(s.device(d).request_bytes(RequestId(1)) > 0);
        let _ = s.device_mut(d).free_request(RequestId(1));
        assert_eq!(s.device(d).resident_requests(), vec![RequestId(2)]);
    }

    /// The flat `(request, stage) → entry` ledger with scan-based queries
    /// that the request index and its running totals replaced, kept as
    /// the oracle they are checked against. It mirrors only successful
    /// operations; the device under test decides success.
    #[derive(Debug, Clone)]
    struct ScanKv {
        entries: HashMap<(RequestId, u16), KvEntry>,
        block_unit: u64,
        block_size: u32,
    }

    impl ScanKv {
        fn new(d: &DeviceKv) -> ScanKv {
            ScanKv {
                entries: HashMap::new(),
                block_unit: d.block_unit,
                block_size: d.block_size,
            }
        }

        fn blocks_for(&self, tokens: u32) -> u64 {
            tokens.div_ceil(self.block_size) as u64
        }

        fn entry_bytes(&self, e: &KvEntry) -> u64 {
            self.blocks_for(e.tokens) * e.groups as u64 * e.layers as u64 * self.block_unit
        }

        fn used(&self) -> u64 {
            self.entries.values().map(|e| self.entry_bytes(e)).sum()
        }

        fn append_cost(&self, req: RequestId) -> u64 {
            self.entries
                .iter()
                .filter(|&(&(r, _), _)| r == req)
                .map(|(_, e)| {
                    let before = self.blocks_for(e.tokens);
                    let after = self.blocks_for(e.tokens + 1);
                    (after - before) * e.groups as u64 * e.layers as u64 * self.block_unit
                })
                .sum()
        }

        fn grow_cost(&self, req: RequestId, new_tokens: u32) -> u64 {
            self.entries
                .iter()
                .filter(|&(&(r, _), _)| r == req)
                .map(|(_, e)| {
                    let before = self.blocks_for(e.tokens);
                    let after = self.blocks_for(e.tokens.max(new_tokens));
                    (after - before) * e.groups as u64 * e.layers as u64 * self.block_unit
                })
                .sum()
        }

        fn retoken(&mut self, req: RequestId, next: impl Fn(u32) -> u32) {
            for (_, e) in self.entries.iter_mut().filter(|&(&(r, _), _)| r == req) {
                e.tokens = next(e.tokens);
            }
        }

        fn shrink_groups(&mut self, req: RequestId, stage: u16, groups: u32) {
            let e = self
                .entries
                .get_mut(&(req, stage))
                .expect("entry must exist");
            e.groups -= groups;
            if e.groups == 0 {
                self.entries.remove(&(req, stage));
            }
        }

        fn grow_groups(
            &mut self,
            req: RequestId,
            stage: u16,
            groups: u32,
            tokens: u32,
            layers: u32,
        ) {
            self.entries
                .entry((req, stage))
                .and_modify(|e| e.groups += groups)
                .or_insert(KvEntry {
                    groups,
                    tokens,
                    layers,
                });
        }

        fn free_request(&mut self, req: RequestId) {
            self.entries.retain(|&(r, _), _| r != req);
        }

        fn request_bytes(&self, req: RequestId) -> u64 {
            self.entries
                .iter()
                .filter(|&(&(r, _), _)| r == req)
                .map(|(_, e)| self.entry_bytes(e))
                .sum()
        }

        fn resident_requests(&self) -> Vec<RequestId> {
            let mut v: Vec<RequestId> = self.entries.keys().map(|&(r, _)| r).collect();
            v.sort();
            v.dedup();
            v
        }

        fn resident_query_heads(&self, r: u32) -> u64 {
            self.entries
                .values()
                .map(|e| e.groups as u64 * r as u64)
                .sum()
        }

        fn stage_query_heads(&self, stage: u16, r: u32) -> u64 {
            self.entries
                .iter()
                .filter(|&(&(_, s), _)| s == stage)
                .map(|(_, e)| e.groups as u64 * r as u64)
                .sum()
        }

        fn stage_kv_bytes_per_layer(&self, stage: u16) -> f64 {
            self.entries
                .iter()
                .filter(|&(&(_, s), _)| s == stage)
                .map(|(_, e)| (self.entry_bytes(e) / e.layers as u64) as f64)
                .sum()
        }

        fn stage_residents(&self, stage: u16) -> Vec<(RequestId, KvEntry)> {
            let mut v: Vec<(RequestId, KvEntry)> = self
                .entries
                .iter()
                .filter(|&(&(_, s), _)| s == stage)
                .map(|(&(r, _), &e)| (r, e))
                .collect();
            v.sort_by_key(|&(r, _)| r);
            v
        }
    }

    const REQS: u64 = 6;
    const STAGES: u16 = 3;

    /// Layers of a stage in the oracle runs (distinct per stage).
    fn stage_layers(stage: u16) -> u32 {
        10 + 7 * stage as u32
    }

    /// Every query of `d` equals the oracle's scan.
    fn check(d: &DeviceKv, o: &ScanKv) -> Result<(), TestCaseError> {
        prop_assert_eq!(d.used_bytes(), o.used());
        prop_assert_eq!(d.resident_requests(), o.resident_requests());
        let mut holders: Vec<RequestId> = d.holders().collect();
        holders.sort();
        let expected: Vec<RequestId> = o
            .resident_requests()
            .into_iter()
            .filter(|&r| o.request_bytes(r) > 0)
            .collect();
        prop_assert_eq!(holders, expected);
        prop_assert_eq!(d.resident_query_heads(8), o.resident_query_heads(8));
        for r in 0..REQS {
            let r = RequestId(r);
            prop_assert_eq!(d.request_bytes(r), o.request_bytes(r));
            prop_assert_eq!(d.append_cost(r), o.append_cost(r));
            for s in 0..STAGES {
                prop_assert_eq!(d.entry(r, s), o.entries.get(&(r, s)).copied());
            }
        }
        // One stage past any slot: the empty aggregates.
        for s in 0..=STAGES {
            prop_assert_eq!(d.stage_residents(s), o.stage_residents(s));
            prop_assert_eq!(d.stage_query_heads(s, 8), o.stage_query_heads(s, 8));
            prop_assert_eq!(
                d.stage_kv_bytes_per_layer(s).to_bits(),
                o.stage_kv_bytes_per_layer(s).to_bits(),
                "g_i of stage {}",
                s
            );
        }
        #[cfg(debug_assertions)]
        d.assert_totals();
        Ok(())
    }

    /// A state whose first `n` devices' pools hold only ~`pool` bytes
    /// each, so random operations regularly run them dry.
    fn tight_state(pool: u64, n: u32) -> KvState {
        let c = paper_cluster();
        let m = llama_70b();
        let full = KvState::new(&c, &m, 16, &HashMap::new()).unwrap();
        let weights = (0..n)
            .map(|i| (DeviceId(i), full.device(DeviceId(i)).pool_bytes() - pool))
            .collect();
        KvState::new(&c, &m, 16, &weights).unwrap()
    }

    /// Applies one random operation to `kv` and mirrors it in `oracle`
    /// when it succeeds.
    fn apply(
        kv: &mut KvState,
        oracle: &mut [ScanKv],
        (kind, req, stage, dev, groups, tokens): (u8, u64, u16, u32, u32, u32),
    ) -> Result<(), TestCaseError> {
        let req = RequestId(req);
        let d = DeviceId(dev);
        let o = &mut oracle[dev as usize];
        let layers = stage_layers(stage);
        match kind {
            0 => {
                if o.entries.contains_key(&(req, stage)) {
                    return Ok(());
                }
                let g = groups.max(1);
                if kv
                    .device_mut(d)
                    .allocate(req, stage, g, tokens, layers)
                    .is_ok()
                {
                    o.grow_groups(req, stage, g, tokens, layers);
                }
            }
            1 => {
                let fits = o.append_cost(req) <= kv.device(d).free_bytes();
                prop_assert_eq!(kv.device_mut(d).append_token(req).is_ok(), fits);
                if fits {
                    o.retoken(req, |t| t + 1);
                }
            }
            2 => {
                let fits = o.grow_cost(req, tokens) <= kv.device(d).free_bytes();
                prop_assert_eq!(kv.device_mut(d).grow_tokens(req, tokens).is_ok(), fits);
                if fits {
                    o.retoken(req, |t| t.max(tokens));
                }
            }
            3 => {
                // Shrinks anywhere in 0..=groups, down to zero included.
                let Some(e) = o.entries.get(&(req, stage)).copied() else {
                    return Ok(());
                };
                let g = groups % (e.groups + 1);
                let released = kv.device_mut(d).shrink_groups(req, stage, g);
                prop_assert_eq!(released, kv.device(d).bytes_needed(g, e.tokens, layers));
                o.shrink_groups(req, stage, g);
            }
            4 => {
                // Creates the slot when absent (migration in).
                let t = o.entries.get(&(req, stage)).map_or(tokens, |e| e.tokens);
                let g = groups.max(1);
                if kv
                    .device_mut(d)
                    .grow_groups(req, stage, g, t, layers)
                    .is_ok()
                {
                    o.grow_groups(req, stage, g, t, layers);
                }
            }
            5 => {
                // Freeing an absent request is a no-op.
                let before = o.request_bytes(req);
                prop_assert_eq!(kv.device_mut(d).free_request(req), before);
                o.free_request(req);
            }
            _ => {
                // The all-or-nothing multi-device growth, device 0 listed
                // twice. Kind 6 is the engine's block-crossing decode
                // append: one past the request's largest entry.
                let tokens = if kind == 6 {
                    oracle
                        .iter()
                        .flat_map(|o| o.entries.iter())
                        .filter(|&(&(r, _), _)| r == req)
                        .map(|(_, e)| e.tokens)
                        .max()
                        .unwrap_or(0)
                        + 1
                } else {
                    tokens
                };
                let devices = [DeviceId(0), DeviceId(1), DeviceId(0)];
                let short = (0..2).map(DeviceId).find(|&x| {
                    oracle[x.index()].grow_cost(req, tokens) > kv.device(x).free_bytes()
                });
                let res = kv.grow_tokens_on(req, devices, tokens);
                match short {
                    Some(x) => prop_assert_eq!(res, Err(x)),
                    None => {
                        prop_assert_eq!(res, Ok(()));
                        for o in oracle.iter_mut() {
                            o.retoken(req, |t| t.max(tokens));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random allocate / append / grow / shrink / grow-groups / free
        /// sequences on tight pools: after every operation each device's
        /// queries equal the scan oracle's. At `fork` the state is cloned,
        /// and from then on the original and the clone take alternate
        /// operations — each must keep matching its own oracle.
        #[test]
        fn request_index_matches_scan_oracle(
            ops in collection::vec((0u8..8, 0u64..REQS, 0u16..STAGES, 0u32..2, 0u32..9, 0u32..200), 1..160),
            fork in 0usize..160,
        ) {
            let mut kv = tight_state(60_000_000, 2);
            let mut oracle = vec![ScanKv::new(kv.device(DeviceId(0))); 2];
            let mut forked: Option<(KvState, Vec<ScanKv>)> = None;
            for (i, &op) in ops.iter().enumerate() {
                if i == fork {
                    forked = Some((kv.clone(), oracle.clone()));
                }
                match forked.as_mut() {
                    Some((kv2, oracle2)) if i % 2 == 1 => apply(kv2, oracle2, op)?,
                    _ => apply(&mut kv, &mut oracle, op)?,
                }
                for (dev, o) in oracle.iter().enumerate() {
                    check(kv.device(DeviceId(dev as u32)), o)?;
                }
                if let Some((kv2, oracle2)) = &forked {
                    for (dev, o) in oracle2.iter().enumerate() {
                        check(kv2.device(DeviceId(dev as u32)), o)?;
                    }
                }
            }
        }
    }

    /// One request's residency as the engine sees it: its exact token
    /// count and the `(device, stage)` slots it holds.
    #[derive(Debug)]
    struct Placed {
        kv_tokens: u32,
        slots: Vec<(DeviceId, u16)>,
    }

    impl Placed {
        /// The distinct devices of the slots, sorted.
        fn devices(&self) -> Vec<DeviceId> {
            let mut v: Vec<DeviceId> = self.slots.iter().map(|&(d, _)| d).collect();
            v.sort();
            v.dedup();
            v
        }
    }

    /// The per-token decode append over `devices` (distinct), all or
    /// nothing: the lowest-id short device, else one
    /// [`DeviceKv::append_token`] on each.
    fn append_each(kv: &mut KvState, req: RequestId, devices: &[DeviceId]) -> Result<(), DeviceId> {
        let short = devices
            .iter()
            .copied()
            .filter(|&d| kv.device(d).append_cost(req) > kv.device(d).free_bytes())
            .min();
        if let Some(d) = short {
            return Err(d);
        }
        for &d in devices {
            kv.device_mut(d)
                .append_token(req)
                .expect("checked headroom");
        }
        Ok(())
    }

    /// The engine's decode append: inside a block only the count moves;
    /// at a crossing every entry grows to `kv_tokens + 1`.
    fn append_at_crossings(
        kv: &mut KvState,
        req: RequestId,
        p: &Placed,
        block_size: u32,
    ) -> Result<(), DeviceId> {
        if !p.kv_tokens.is_multiple_of(block_size) {
            return Ok(());
        }
        kv.grow_tokens_on(req, p.devices(), p.kv_tokens + 1)
    }

    /// Allocates `tokens` on every slot, undoing everything on failure.
    fn allocate_all(
        kv: &mut KvState,
        req: RequestId,
        slots: &[(DeviceId, u16)],
        groups: u32,
        tokens: u32,
    ) -> bool {
        for &(d, s) in slots {
            if kv
                .device_mut(d)
                .allocate(req, s, groups, tokens, stage_layers(s))
                .is_err()
            {
                for &(d, _) in slots {
                    kv.device_mut(d).free_request(req);
                }
                return false;
            }
        }
        true
    }

    /// Tokens of `req`'s first slot in `kv` (entries of one request are
    /// uniform in both runs).
    fn slot_tokens(kv: &KvState, req: RequestId, p: &Placed) -> u32 {
        let (d, s) = p.slots[0];
        kv.device(d).entry(req, s).expect("slot resident").tokens
    }

    /// Every query the dispatcher and the victim scans read agrees between
    /// the per-token run and the crossings-only run; entries of the former
    /// hold `kv_tokens` exactly, those of the latter its block count.
    fn check_runs(
        exact: &KvState,
        crossing: &KvState,
        model: &HashMap<RequestId, Placed>,
        n: u32,
    ) -> Result<(), TestCaseError> {
        for d in (0..n).map(DeviceId) {
            let (a, b) = (exact.device(d), crossing.device(d));
            prop_assert_eq!(a.used_bytes(), b.used_bytes());
            prop_assert_eq!(a.free_bytes(), b.free_bytes());
            for s in 0..=STAGES {
                prop_assert_eq!(a.stage_query_heads(s, 8), b.stage_query_heads(s, 8));
                prop_assert_eq!(
                    a.stage_kv_bytes_per_layer(s).to_bits(),
                    b.stage_kv_bytes_per_layer(s).to_bits()
                );
            }
            for r in (0..REQS).map(RequestId) {
                prop_assert_eq!(a.request_bytes(r), b.request_bytes(r));
            }
            let mut ha: Vec<RequestId> = a.holders().collect();
            let mut hb: Vec<RequestId> = b.holders().collect();
            ha.sort();
            hb.sort();
            prop_assert_eq!(ha, hb);
        }
        for (&r, p) in model {
            for &(d, s) in &p.slots {
                let a = exact.device(d).entry(r, s).expect("slot resident");
                let b = crossing.device(d).entry(r, s).expect("slot resident");
                prop_assert_eq!(a.tokens, p.kv_tokens);
                prop_assert_eq!(b.tokens.div_ceil(16), p.kv_tokens.div_ceil(16));
                prop_assert!(b.tokens <= p.kv_tokens);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random allocate / decode-append / grow / shrink-groups /
        /// grow-groups / free sequences on 2–4 tight devices, run twice:
        /// once appending every decode token to the ledger, once touching
        /// it only at block crossings. After every operation both runs
        /// agree on every byte figure, every aggregate, the holders and
        /// the short device an append or growth reports.
        #[test]
        fn crossing_appends_match_per_token_appends(
            n in 2u32..5,
            ops in collection::vec(
                (0u8..12, 0u64..REQS, 0u32..4, 0u16..STAGES, 0u32..9, 0u32..200),
                1..160,
            ),
        ) {
            let mut exact = tight_state(60_000_000, n);
            let mut crossing = exact.clone();
            let mut model: HashMap<RequestId, Placed> = HashMap::new();
            for &(kind, req, dev, stage, groups, tokens) in &ops {
                let req = RequestId(req);
                let d = DeviceId(dev % n);
                match kind {
                    0 => {
                        if model.contains_key(&req) {
                            continue;
                        }
                        // One slot on each device picked by the mask.
                        let mask = (dev % ((1 << n) - 1)) + 1;
                        let slots: Vec<(DeviceId, u16)> = (0..n)
                            .filter(|i| mask & (1 << i) != 0)
                            .map(|i| (DeviceId(i), stage))
                            .collect();
                        let g = groups.max(1);
                        let ok = allocate_all(&mut exact, req, &slots, g, tokens);
                        prop_assert_eq!(allocate_all(&mut crossing, req, &slots, g, tokens), ok);
                        if ok {
                            model.insert(req, Placed { kv_tokens: tokens, slots });
                        }
                    }
                    1 => {
                        let Some(p) = model.get_mut(&req) else { continue };
                        let devices = p.devices();
                        let res = exact.grow_tokens_on(req, devices.iter().copied(), tokens);
                        prop_assert_eq!(
                            crossing.grow_tokens_on(req, devices.iter().copied(), tokens),
                            res
                        );
                        if res.is_ok() {
                            p.kv_tokens = p.kv_tokens.max(tokens);
                        }
                    }
                    2 => {
                        let Some(p) = model.get_mut(&req) else { continue };
                        let (sd, ss) = p.slots[dev as usize % p.slots.len()];
                        let e = exact.device(sd).entry(req, ss).expect("slot resident");
                        let g = groups % (e.groups + 1);
                        let released = exact.device_mut(sd).shrink_groups(req, ss, g);
                        prop_assert_eq!(crossing.device_mut(sd).shrink_groups(req, ss, g), released);
                        if g == e.groups {
                            p.slots.retain(|&slot| slot != (sd, ss));
                            if p.slots.is_empty() {
                                model.remove(&req);
                            }
                        }
                    }
                    3 => {
                        // Migration in, at the tokens each run's entries hold.
                        let Some(p) = model.get_mut(&req) else { continue };
                        let g = groups.max(1);
                        let layers = stage_layers(stage);
                        let ta = slot_tokens(&exact, req, p);
                        let tb = slot_tokens(&crossing, req, p);
                        let ok = exact.device_mut(d).grow_groups(req, stage, g, ta, layers).is_ok();
                        prop_assert_eq!(
                            crossing.device_mut(d).grow_groups(req, stage, g, tb, layers).is_ok(),
                            ok
                        );
                        if ok && !p.slots.contains(&(d, stage)) {
                            p.slots.push((d, stage));
                        }
                    }
                    4 => {
                        let released: Vec<u64> =
                            (0..n).map(|i| exact.device_mut(DeviceId(i)).free_request(req)).collect();
                        let again: Vec<u64> =
                            (0..n).map(|i| crossing.device_mut(DeviceId(i)).free_request(req)).collect();
                        prop_assert_eq!(released, again);
                        model.remove(&req);
                    }
                    _ => {
                        // A burst of decode appends, checked after each.
                        if !model.contains_key(&req) {
                            continue;
                        }
                        for _ in 0..=groups * 3 {
                            let p = &model[&req];
                            let res = append_each(&mut exact, req, &p.devices());
                            prop_assert_eq!(append_at_crossings(&mut crossing, req, p, 16), res);
                            if res.is_err() {
                                break;
                            }
                            model.get_mut(&req).expect("placed").kv_tokens += 1;
                            check_runs(&exact, &crossing, &model, n)?;
                        }
                    }
                }
                check_runs(&exact, &crossing, &model, n)?;
                #[cfg(debug_assertions)]
                {
                    exact.assert_totals();
                    crossing.assert_totals();
                }
            }
        }
    }

    #[test]
    fn overflow_pool_token_math() {
        // Two stages, per-token costs 2 and 1, pools 10 and 50, shared 6:
        // T=20 → needs (40,20): overflow (30,0)=30 > 6. T=12 → (24,12):
        // overflow (14,0)=14 > 6. T=8 → (16,8): overflow 6 ≤ 6 ✓.
        assert_eq!(max_tokens_with_overflow_pool(&[10, 50], &[2, 1], 6), 8);
        // No shared pool: pure bottleneck min(10/2, 50/1) = 5.
        assert_eq!(max_tokens_with_overflow_pool(&[10, 50], &[2, 1], 0), 5);
        // Everything in the shared pool.
        assert_eq!(max_tokens_with_overflow_pool(&[0, 0], &[2, 1], 30), 10);
        // Degenerate: zero memory.
        assert_eq!(max_tokens_with_overflow_pool(&[0], &[1], 0), 0);
    }

    #[test]
    fn usable_cache_counts_shared_workers_and_skips_prefill_only() {
        use crate::topology::{InstanceRole, InstanceTopo, StageTopo, Topology};
        use hetis_parallel::StageConfig;
        let c = paper_cluster();
        let m = llama_70b();
        let s = KvState::new(&c, &m, 16, &HashMap::new()).unwrap();
        let mk = |devs: &[u32], layers: u32, workers: &[u32]| {
            let mut st = StageTopo::plain(StageConfig {
                devices: devs.iter().map(|&i| DeviceId(i)).collect(),
                layers,
            });
            st.attention_workers = workers.iter().map(|&i| DeviceId(i)).collect();
            st
        };
        // One normal instance without workers vs the same with P100
        // workers: workers must strictly increase usable capacity.
        let plain = Topology {
            instances: vec![InstanceTopo {
                stages: vec![mk(&[0, 1], 40, &[]), mk(&[4, 5], 40, &[])],
                role: InstanceRole::Both,
            }],
        };
        let with_workers = Topology {
            instances: vec![InstanceTopo {
                stages: vec![mk(&[0, 1], 40, &[8, 9]), mk(&[4, 5], 40, &[8, 9])],
                role: InstanceRole::Both,
            }],
        };
        let u_plain = usable_kv_bytes(&m, &plain, &s);
        let u_workers = usable_kv_bytes(&m, &with_workers, &s);
        assert!(u_workers > u_plain, "{u_workers} vs {u_plain}");
        // A prefill-only instance contributes nothing.
        let prefill_only = Topology {
            instances: vec![InstanceTopo {
                stages: vec![mk(&[0, 1, 2, 3], 80, &[])],
                role: InstanceRole::PrefillOnly,
            }],
        };
        assert_eq!(usable_kv_bytes(&m, &prefill_only, &s), 0);
    }

    #[test]
    fn total_pool_accounting() {
        let s = state();
        let c = paper_cluster();
        let all: Vec<DeviceId> = c.devices().iter().map(|d| d.id).collect();
        // No weights: pools = memory minus activation reserve.
        let total = s.total_pool(&all);
        assert!(total > 400_000_000_000);
        assert_eq!(s.total_used(&all), 0);
    }
}
