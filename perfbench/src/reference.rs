//! A fixed host-speed yardstick that shares no code with the simulator.
//!
//! Hash-map inserts and lookups, binary-heap pushes and pops and a sort:
//! the same kinds of work as the engine's bookkeeping. Its wall time,
//! measured in the same window as the simulation runs, tells how fast the
//! host is running at that moment, so host timings can be scaled to a
//! fixed host speed. It must never change: a new yardstick is a new scale.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Runs the yardstick once; returns its wall seconds.
pub fn run() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for _ in 0..6 {
        let mut map: HashMap<u64, u64> = HashMap::new();
        let mut heap = BinaryHeap::new();
        for i in 0..150_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            map.insert(x % 200_000, i);
            heap.push(x % 1_000_003);
            if i % 3 == 0 {
                acc = acc.wrapping_add(heap.pop().unwrap_or(0));
            }
            acc = acc.wrapping_add(map.get(&(i % 200_000)).copied().unwrap_or(0));
        }
        let mut values: Vec<u64> = map.into_values().collect();
        values.sort_unstable();
        acc = acc.wrapping_add(values[values.len() / 2]);
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}
