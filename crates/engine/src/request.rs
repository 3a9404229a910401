//! Runtime request state inside the engine.

use crate::topology::HeadPlacement;
use hetis_cluster::DeviceId;
use hetis_workload::{Request, RequestId};

/// Lifecycle phase of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// In an instance's waiting queue (not yet prefilled, or preempted).
    Waiting,
    /// In a prefill microbatch in flight.
    Prefilling,
    /// Decoding: has KV resident, produces one token per iteration.
    Decoding,
    /// Temporarily blocked on a KV migration (post-prefill scatter,
    /// Splitwise handoff, or a re-dispatch move).
    Migrating,
    /// Finished. The engine retires a request from its [`RequestTable`]
    /// as it finishes, so no live request is ever in this phase.
    Done,
}

/// A request being served.
#[derive(Debug, Clone)]
pub struct RunningRequest {
    /// The immutable workload request.
    pub req: Request,
    /// Current phase.
    pub phase: Phase,
    /// Instance currently responsible.
    pub instance: usize,
    /// Cohort (virtual engine) within the instance, assigned at admission.
    pub cohort: usize,
    /// Tokens generated so far (the prefill iteration produces the first).
    pub generated: u32,
    /// Prompt tokens *for the current prefill* — grows on recompute
    /// preemption (prompt + already-generated are re-prefilled together).
    pub effective_input: u32,
    /// Prompt tokens already processed by completed prefill chunks of the
    /// current prefill (0 unless mid-chunked-prefill; always 0 when
    /// chunking is off, where a prefill completes atomically). Reset on
    /// recompute preemption — the whole context re-prefills.
    pub prefilled: u32,
    /// KV tokens currently reserved per resident entry (uniform across
    /// the request's devices). Atomic admission reserves the whole
    /// effective prompt; incremental growth (chunked prefill) reserves
    /// the first chunk plus decode headroom and grows per completed
    /// chunk. 0 while unplaced.
    pub kv_reserved: u32,
    /// Tokens each resident KV entry of the request would hold if every
    /// decode append were written to the ledger: the allocation size,
    /// raised by growth and by one per decode append past the prepaid
    /// reservation. The engine retokens the ledger only when an append
    /// crosses a block boundary, so entries may trail this count inside
    /// the current block (same block count, same bytes). 0 while
    /// unplaced. Kept apart from `kv_reserved`, which decides what is
    /// prepaid.
    pub kv_tokens: u32,
    /// True while this request's decode attention load is registered in
    /// its cohort's incremental per-device load table (engine-internal;
    /// see the engine's `load_table_add`).
    pub in_load_table: bool,
    /// Time the first token was produced (None before it).
    pub first_token_at: Option<f64>,
    /// Time the latest token was produced (None before the first).
    pub last_token_at: Option<f64>,
    /// Time the request was admitted to a prefill batch (for queueing
    /// analysis).
    pub admitted_at: Option<f64>,
    /// Per-stage head placement (None until placed).
    pub placement: Option<HeadPlacement>,
    /// True while the request sits inside an in-flight microbatch.
    pub in_flight: bool,
    /// Warm prompt tokens adopted from the prefix cache at admission
    /// (0 for a cold admission; informational — kept across a later
    /// preemption, whose recompute re-prefills the warm span too).
    pub prefix_hit_tokens: u32,
    /// KV bytes the admission adopted warm (reserved without a prefill
    /// writing them); the flow record carries both at completion.
    pub prefix_shared_bytes: u64,
    /// Number of preemptions suffered (stats).
    pub preemptions: u32,
    /// Number of re-dispatches applied (stats).
    pub redispatches: u32,
    /// Incremented whenever a KV transfer is scheduled for this request;
    /// completion events carry the epoch they belong to, so transfers
    /// aborted by churn cannot resume the request early.
    pub migration_epoch: u32,
    /// Devices the in-flight KV transfer reads from (empty when no
    /// transfer is running); a death of any of them aborts the transfer.
    pub migration_sources: Vec<DeviceId>,
}

impl RunningRequest {
    /// Wraps an arriving request.
    pub fn new(req: Request, instance: usize) -> Self {
        RunningRequest {
            effective_input: req.input_len,
            prefilled: 0,
            kv_reserved: 0,
            kv_tokens: 0,
            in_load_table: false,
            req,
            phase: Phase::Waiting,
            instance,
            cohort: 0,
            generated: 0,
            first_token_at: None,
            last_token_at: None,
            admitted_at: None,
            placement: None,
            in_flight: false,
            prefix_hit_tokens: 0,
            prefix_shared_bytes: 0,
            preemptions: 0,
            redispatches: 0,
            migration_epoch: 0,
            migration_sources: Vec::new(),
        }
    }

    /// Current context length (prompt + generated tokens).
    #[inline]
    pub fn context_len(&self) -> u32 {
        self.req.input_len + self.generated
    }

    /// Tokens still to generate.
    #[inline]
    pub fn remaining(&self) -> u32 {
        self.req.output_len - self.generated
    }

    /// Prompt tokens of the current prefill not yet chunk-processed.
    #[inline]
    pub fn remaining_prefill(&self) -> u32 {
        self.effective_input.saturating_sub(self.prefilled)
    }

    /// True once all output tokens exist.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.generated >= self.req.output_len
    }

    /// Records a produced token at `now`.
    pub fn push_token(&mut self, now: f64) {
        self.generated += 1;
        self.first_token_at.get_or_insert(now);
        self.last_token_at = Some(now);
    }

    /// Applies recompute preemption: KV dropped, generated tokens become
    /// part of the next prefill.
    pub fn preempt_recompute(&mut self) {
        self.effective_input = self.req.input_len + self.generated;
        self.prefilled = 0;
        self.kv_reserved = 0;
        self.kv_tokens = 0;
        self.phase = Phase::Waiting;
        self.placement = None;
        self.in_flight = false;
        self.preemptions += 1;
        self.migration_sources.clear();
    }
}

/// Index value of an id with no live request.
const VACANT: u32 = u32::MAX;

/// The engine's live requests: a dense `Vec` of [`RunningRequest`]s plus
/// a position index keyed by `RequestId.0`.
///
/// Lookups are two array reads, with no hashing. Removal is a
/// `swap_remove` that re-points the moved request's index entry, so the
/// slots stay dense and [`RequestTable::values`] walks live requests
/// only. The engine removes a request the moment it finishes, so every
/// scan is O(live), never O(ever admitted). Iteration order is slot
/// order, which insertions and removals permute; callers must not depend
/// on it.
///
/// Ids index a `Vec`, so they should be dense: every trace generator
/// numbers requests `0..n`. The index grows on demand to the largest id
/// inserted.
#[derive(Debug, Clone, Default)]
pub struct RequestTable {
    slots: Vec<RunningRequest>,
    /// `RequestId.0` → position in `slots`, or [`VACANT`].
    index: Vec<u32>,
}

impl RequestTable {
    /// An empty table whose index already covers ids `0..ids`.
    pub fn with_id_capacity(ids: usize) -> Self {
        RequestTable {
            slots: Vec::new(),
            index: vec![VACANT; ids],
        }
    }

    #[inline]
    fn position(&self, id: &RequestId) -> Option<usize> {
        let pos = *self.index.get(usize::try_from(id.0).ok()?)?;
        (pos != VACANT).then_some(pos as usize)
    }

    /// The live request `id`, if any.
    #[inline]
    pub fn get(&self, id: &RequestId) -> Option<&RunningRequest> {
        self.position(id).map(|p| &self.slots[p])
    }

    /// The live request `id`, mutably, if any.
    #[inline]
    pub fn get_mut(&mut self, id: &RequestId) -> Option<&mut RunningRequest> {
        self.position(id).map(|p| &mut self.slots[p])
    }

    /// Inserts `r` under its own id, returning the request it replaced.
    pub fn insert(&mut self, r: RunningRequest) -> Option<RunningRequest> {
        let key = usize::try_from(r.req.id.0).expect("request id fits usize");
        if let Some(p) = self.position(&r.req.id) {
            return Some(std::mem::replace(&mut self.slots[p], r));
        }
        if key >= self.index.len() {
            self.index.resize(key + 1, VACANT);
        }
        self.index[key] = u32::try_from(self.slots.len()).expect("fewer than 2^32 live requests");
        self.slots.push(r);
        None
    }

    /// Removes and returns the live request `id`.
    pub fn remove(&mut self, id: &RequestId) -> Option<RunningRequest> {
        let p = self.position(id)?;
        self.index[id.0 as usize] = VACANT;
        let r = self.slots.swap_remove(p);
        if let Some(moved) = self.slots.get(p) {
            self.index[moved.req.id.0 as usize] = p as u32;
        }
        Some(r)
    }

    /// Live requests, in slot order.
    #[inline]
    pub fn values(&self) -> std::slice::Iter<'_, RunningRequest> {
        self.slots.iter()
    }

    /// `(id, request)` pairs, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&RequestId, &RunningRequest)> {
        self.slots.iter().map(|r| (&r.req.id, r))
    }

    /// Number of live requests.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no request is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

impl std::ops::Index<&RequestId> for RequestTable {
    type Output = RunningRequest;
    #[inline]
    fn index(&self, id: &RequestId) -> &RunningRequest {
        self.get(id).expect("no live request with this id")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> Request {
        Request {
            id: RequestId(1),
            arrival: 0.0,
            input_len: 100,
            output_len: 10,
            class: Default::default(),
            tenant: Default::default(),
            session: None,
        }
    }

    #[test]
    fn lifecycle_arithmetic() {
        let mut r = RunningRequest::new(req(), 0);
        assert_eq!(r.context_len(), 100);
        assert_eq!(r.remaining(), 10);
        r.push_token(1.0);
        r.push_token(1.5);
        assert_eq!(r.generated, 2);
        assert_eq!(r.context_len(), 102);
        assert!(!r.is_complete());
        for i in 0..8 {
            r.push_token(2.0 + i as f64);
        }
        assert!(r.is_complete());
        assert_eq!(r.generated, 10);
        assert_eq!((r.first_token_at, r.last_token_at), (Some(1.0), Some(9.0)));
    }

    #[test]
    fn recompute_preemption_folds_generated_into_prompt() {
        let mut r = RunningRequest::new(req(), 0);
        r.phase = Phase::Decoding;
        r.push_token(1.0);
        r.push_token(2.0);
        r.preempt_recompute();
        assert_eq!(r.phase, Phase::Waiting);
        assert_eq!(r.effective_input, 102);
        assert_eq!(r.generated, 2); // emitted tokens stay emitted
        assert_eq!(r.preemptions, 1);
        assert!(r.placement.is_none());
    }

    /// A request with id `id`, tagged through `generated` so a test can
    /// tell which insertion a slot holds.
    fn tagged(id: u64, tag: u32) -> RunningRequest {
        let mut r = RunningRequest::new(
            Request {
                id: RequestId(id),
                ..req()
            },
            0,
        );
        r.generated = tag;
        r
    }

    #[test]
    fn table_swap_remove_fixes_the_moved_index() {
        let mut t = RequestTable::with_id_capacity(4);
        // Out of order and sparse: ids beyond the initial capacity grow
        // the index.
        for (id, tag) in [(7, 70), (3, 30), (40, 400), (0, 0)] {
            assert!(t.insert(tagged(id, tag)).is_none());
        }
        assert_eq!(t.len(), 4);
        // Middle slot: the last request (id 0) moves into slot 1.
        assert_eq!(t.remove(&RequestId(3)).map(|r| r.generated), Some(30));
        assert_eq!(t[&RequestId(0)].generated, 0);
        assert_eq!(t[&RequestId(40)].generated, 400);
        // Last slot: nothing moves.
        assert_eq!(t.remove(&RequestId(40)).map(|r| r.generated), Some(400));
        // Absent ids, in and out of the index's range.
        assert!(t.remove(&RequestId(3)).is_none());
        assert!(t.remove(&RequestId(1_000)).is_none());
        assert!(t.get(&RequestId(u64::MAX)).is_none());
        // Re-inserting a live id replaces it in place.
        assert_eq!(t.insert(tagged(7, 71)).map(|r| r.generated), Some(70));
        let mut live: Vec<(u64, u32)> = t.values().map(|r| (r.req.id.0, r.generated)).collect();
        live.sort();
        assert_eq!(live, vec![(0, 0), (7, 71)]);
        assert!(t.remove(&RequestId(0)).is_some() && t.remove(&RequestId(7)).is_some());
        assert!(t.is_empty() && t.get(&RequestId(7)).is_none());
    }

    mod table_oracle {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        /// Sparse, unsorted ids; some beyond any initial index capacity.
        const IDS: [u64; 10] = [5, 0, 13, 2, 97, 1, 40, 8, 250, 3];

        fn check(t: &RequestTable, oracle: &HashMap<u64, u32>) -> Result<(), TestCaseError> {
            prop_assert_eq!(t.len(), oracle.len());
            prop_assert_eq!(t.is_empty(), oracle.is_empty());
            for id in IDS.iter().copied().chain([4, 1_000]) {
                let got = t.get(&RequestId(id)).map(|r| (r.req.id.0, r.generated));
                prop_assert_eq!(got, oracle.get(&id).map(|&tag| (id, tag)));
            }
            let mut values: Vec<(u64, u32)> =
                t.values().map(|r| (r.req.id.0, r.generated)).collect();
            values.sort();
            let mut expected: Vec<(u64, u32)> = oracle.iter().map(|(&i, &g)| (i, g)).collect();
            expected.sort();
            prop_assert_eq!(values, expected);
            prop_assert!(t.iter().all(|(id, r)| *id == r.req.id));
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Random insert / get_mut / remove sequences over a
            /// sparse id pool: after every operation the table agrees
            /// with a `HashMap` oracle on `get`, `len` and the multiset
            /// of `values`.
            #[test]
            fn table_matches_hashmap_oracle(
                ops in collection::vec((0u8..6, 0usize..IDS.len(), 0u32..1_000), 1..200),
                capacity in 0usize..16,
            ) {
                let mut t = RequestTable::with_id_capacity(capacity);
                let mut oracle: HashMap<u64, u32> = HashMap::new();
                for &(kind, k, tag) in &ops {
                    let id = IDS[k];
                    match kind {
                        0..=2 => {
                            let prev = t.insert(tagged(id, tag)).map(|r| r.generated);
                            prop_assert_eq!(prev, oracle.insert(id, tag));
                        }
                        3 => {
                            let hit = t.get_mut(&RequestId(id)).map(|r| r.generated = tag);
                            let expected = oracle.get_mut(&id).map(|g| *g = tag);
                            prop_assert_eq!(hit, expected);
                        }
                        _ => {
                            let gone = t.remove(&RequestId(id)).map(|r| (r.req.id.0, r.generated));
                            prop_assert_eq!(gone, oracle.remove(&id).map(|g| (id, g)));
                        }
                    }
                    check(&t, &oracle)?;
                }
            }
        }
    }
}
