//! The host yardstick: a fixed job, owned by the benchmark, whose host
//! time says how fast the machine ran at the moment it was sampled.
//!
//! On a shared host the simulator slows by up to 2× for seconds to
//! minutes at a time while other tenants of the machine compete for its
//! core and caches. Every rep is preceded by one yardstick sample, and
//! the end-to-end host times are scaled by [`REFERENCE_NS`] over the
//! run's fast-decile sample. The yardstick's code never changes, so a
//! change to the simulator moves only the scaled time, not the scale.
//!
//! The job is the simulator's own kind of work, done with the standard
//! library: an ordered index, a hashed index, a sort and an LRU list.
//! Those slow down with the simulator under load; pointer chases through
//! memory, tried first, did not.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

use crate::timed::elapsed_ns;

/// A sample's fast decile on the reference host (a 2-vCPU Intel Xeon VM)
/// when lightly loaded, in host ns. Scaled times read as time on that
/// host; any fixed value would compare commits the same way.
pub const REFERENCE_NS: f64 = 9.3e6;

/// SplitMix64's output function.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Inserts `keys` pseudo-random keys, then removes as many others.
fn ordered_index(keys: u64) -> usize {
    let mut map = BTreeMap::new();
    for k in 0..keys {
        map.insert(mix(k) % (keys * 4), k);
    }
    for k in 0..keys {
        map.remove(&(mix(k * 3) % (keys * 4)));
    }
    map.len()
}

/// The same churn through a hash map with a fixed hasher, so every
/// sample does the same work.
fn hashed_index(keys: u64) -> usize {
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for k in 0..keys {
        map.insert(mix(k) % (keys * 4), k);
    }
    for k in 0..keys {
        map.remove(&(mix(k * 3) % (keys * 4)));
    }
    map.len()
}

fn sort(len: u64) -> u64 {
    let mut values: Vec<u64> = (0..len).map(mix).collect();
    values.sort_unstable();
    values[values.len() / 2]
}

/// Moves `touches` pseudo-random entries of a `len`-entry list to its
/// back.
fn lru(len: u32, touches: u32) -> usize {
    let mut list: VecDeque<u32> = (0..len).collect();
    let mut state = 9u64;
    for _ in 0..touches {
        state = mix(state);
        let at = usize::try_from(state % u64::from(len)).expect("index < len fits in usize");
        if let Some(entry) = list.remove(at) {
            list.push_back(entry);
        }
    }
    list.len()
}

/// Host ns of one sample.
pub fn sample_ns() -> u64 {
    let start = Instant::now();
    black_box(ordered_index(20_000));
    black_box(hashed_index(40_000));
    black_box(sort(100_000));
    black_box(lru(4096, 20_000));
    elapsed_ns(start)
}
