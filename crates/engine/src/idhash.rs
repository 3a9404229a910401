//! A deterministic multiply-rotate hasher for the engine's small-integer
//! keys (`RequestId`, `DeviceId`).
//!
//! The std `RandomState` runs SipHash-1-3, which costs more than the rest
//! of a per-token map probe. These keys are dense simulator-assigned
//! integers, not attacker-controlled input, so a one-multiply Fx-style
//! mix is enough: the odd multiplier permutes the low bits the table
//! indexes by and spreads entropy into the top bits its probe tags use.
//! Maps keyed this way are only ever read order-insensitively (sorted,
//! or folded through a total-order comparator), so the hash function
//! cannot change a decision.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The 64-bit Fx multiplier (odd, high-entropy).
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Multiply-rotate hasher over machine words.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `HashMap` keyed by an engine id under [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
