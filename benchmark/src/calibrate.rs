//! The host-speed probe: a fixed reference kernel, timed.
//!
//! The benchmark's host is a share of a machine whose speed wanders by a
//! fifth or more over tens of seconds: other tenants load the same cores,
//! caches and memory, and process CPU time slows with wall time. The
//! machine exposes no hardware counters, so there is no instruction count
//! to fall back on. `run.py` therefore times this kernel before the first
//! repetition and after each one, and scales every time metric by how fast
//! the kernel ran around it.
//!
//! The kernel uses std only and none of the simulator's code, so no change
//! to the simulator moves it. It does the kinds of work the workloads do:
//! hash-map churn (pending ops, block caches), an ordered map of 100-byte
//! values (memtables), a sort (compaction merges), allocation, and
//! dependent reads over a table larger than the last-level cache (cold
//! block reads).

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Fewest kernel runs in one probe.
pub const MIN_RUNS: u32 = 3;

const HASHED: u64 = 200_000;
const ORDERED: u64 = 60_000;
const SORTED: usize = 400_000;
const TABLE: usize = 4 << 20; // u64 slots: 32 MiB
const CHASED: usize = 400_000;

fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// One run of the kernel; returns a checksum that depends on all its work.
pub fn kernel() -> u64 {
    let mut sum = 0u64;

    let mut hashed = HashMap::new();
    for i in 0..HASHED {
        hashed.insert(mix(i), i);
    }
    for i in 0..2 * HASHED {
        if let Some(v) = hashed.get(&mix(i)) {
            sum = sum.wrapping_add(*v);
        }
    }
    drop(black_box(hashed));

    let mut ordered = BTreeMap::new();
    for i in 0..ORDERED {
        ordered.insert(mix(i ^ 0x5bd1), vec![i as u8; 100]);
    }
    for i in 0..ORDERED {
        if let Some(v) = ordered.get(&mix(i ^ 0x5bd1)) {
            sum = sum.wrapping_add(v.len() as u64);
        }
    }
    drop(black_box(ordered));

    let mut sorted: Vec<u64> = (0..SORTED as u64).map(mix).collect();
    sorted.sort_unstable();
    sum = sum.wrapping_add(sorted[SORTED / 2]);
    drop(black_box(sorted));

    let table: Vec<u64> = (0..TABLE as u64).map(mix).collect();
    let mut at = 0usize;
    for _ in 0..CHASED {
        at = (table[at] as usize ^ at) % TABLE;
        sum = sum.wrapping_add(at as u64);
    }
    drop(black_box(table));

    sum
}

/// Run the kernel until `seconds` have passed, at least [`MIN_RUNS`]
/// times, and return the mean seconds per run: like a repetition's time, it
/// averages the host's speed over the whole probe.
pub fn probe(seconds: f64) -> f64 {
    let t = Instant::now();
    let mut runs = 0;
    while runs < MIN_RUNS || t.elapsed().as_secs_f64() < seconds {
        black_box(kernel());
        runs += 1;
    }
    t.elapsed().as_secs_f64() / f64::from(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }
}
