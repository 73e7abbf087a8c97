//! Hardware-managed DRAM cache (Optane "Memory Mode").
//!
//! In Intel Optane DC Memory Mode, each socket's DRAM acts as a
//! direct-mapped, hardware-managed L4 cache in front of persistent memory;
//! software sees only the PMEM capacity (paper §6.2). The [`L4Cache`]
//! models this as a fully-associative LRU cache of 4 KB frames: hits are
//! served at DRAM cost, misses at PMEM cost (plus fill). The paper reports
//! the DRAM cache achieving 3-4x faster latency than persistent memory.

use std::collections::{BTreeMap, HashMap};

use crate::clock::Nanos;
use crate::frame::{FrameId, PAGE_SIZE};
use crate::tier::TierSpec;

/// One socket's hardware-managed DRAM cache over PMEM.
#[derive(Debug, Clone)]
pub struct L4Cache {
    dram: TierSpec,
    pmem: TierSpec,
    capacity_frames: u64,
    /// LRU order: stamp -> frame.
    order: BTreeMap<u64, FrameId>,
    /// Frame -> current stamp.
    stamps: HashMap<FrameId, u64>,
    next_stamp: u64,
    hits: u64,
    misses: u64,
}

impl L4Cache {
    /// Creates a cache of `capacity_bytes` DRAM (spec `dram`) caching the
    /// `pmem` tier. A capacity smaller than one page (a cache that could
    /// hold nothing) is clamped to the documented minimum of one frame.
    pub fn new(capacity_bytes: u64, dram: TierSpec, pmem: TierSpec) -> Self {
        let capacity_frames = (capacity_bytes / PAGE_SIZE).max(1);
        L4Cache {
            dram,
            pmem,
            capacity_frames,
            order: BTreeMap::new(),
            stamps: HashMap::new(),
            next_stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of frames the cache can hold.
    pub fn capacity_frames(&self) -> u64 {
        self.capacity_frames
    }

    /// Current number of cached frames.
    pub fn len(&self) -> u64 {
        self.stamps.len() as u64
    }

    /// Whether the cache holds no frames.
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    /// Cache hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit ratio over all accesses (0 when no accesses yet).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Charges one access of `bytes` to the cached frame and returns its
    /// cost: DRAM cost on hit, PMEM cost plus a page fill on miss.
    pub fn access(&mut self, frame: FrameId, bytes: u64, write: bool) -> Nanos {
        let hit = self.touch(frame);
        let (fast, slow) = (&self.dram, &self.pmem);
        if hit {
            self.hits += 1;
            if write {
                fast.write_cost(bytes)
            } else {
                fast.read_cost(bytes)
            }
        } else {
            self.misses += 1;
            // Miss: access goes to PMEM, and the line is filled into DRAM.
            let access = if write {
                slow.write_cost(bytes)
            } else {
                slow.read_cost(bytes)
            };
            access + fast.write_cost(PAGE_SIZE.min(bytes.max(PAGE_SIZE)))
        }
    }

    /// Drops a frame from the cache (e.g. when it is freed or migrated to
    /// another socket). Returns whether the frame was cached.
    pub fn invalidate(&mut self, frame: FrameId) -> bool {
        if let Some(stamp) = self.stamps.remove(&frame) {
            self.order.remove(&stamp);
            true
        } else {
            false
        }
    }

    /// Moves `frame` to MRU position; returns whether it was present.
    fn touch(&mut self, frame: FrameId) -> bool {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if let Some(old) = self.stamps.insert(frame, stamp) {
            self.order.remove(&old);
            self.order.insert(stamp, frame);
            true
        } else {
            self.order.insert(stamp, frame);
            if self.stamps.len() as u64 > self.capacity_frames {
                // Evict LRU (smallest stamp).
                if let Some((&victim_stamp, &victim)) = self.order.iter().next() {
                    self.order.remove(&victim_stamp);
                    self.stamps.remove(&victim);
                }
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(frames: u64) -> L4Cache {
        L4Cache::new(
            frames * PAGE_SIZE,
            TierSpec::fast_dram(u64::MAX),
            TierSpec::pmem(u64::MAX),
        )
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = cache(4);
        let miss = c.access(FrameId(1), 64, false);
        let hit = c.access(FrameId(1), 64, false);
        assert!(miss > hit, "miss should cost more than hit");
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction() {
        let mut c = cache(2);
        c.access(FrameId(1), 64, false);
        c.access(FrameId(2), 64, false);
        c.access(FrameId(1), 64, false); // 1 is now MRU
        c.access(FrameId(3), 64, false); // evicts 2
        assert_eq!(c.len(), 2);
        c.access(FrameId(2), 64, false);
        assert_eq!(c.misses(), 4, "frame 2 must have been evicted");
    }

    #[test]
    fn invalidate_removes_frame() {
        let mut c = cache(4);
        c.access(FrameId(7), 64, true);
        assert!(c.invalidate(FrameId(7)));
        assert!(!c.invalidate(FrameId(7)));
        c.access(FrameId(7), 64, false);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn hit_is_dram_speed_miss_is_pmem_speed() {
        let mut c = cache(4);
        let dram = TierSpec::fast_dram(u64::MAX);
        let pmem = TierSpec::pmem(u64::MAX);
        let miss = c.access(FrameId(1), 64, false);
        assert!(miss >= pmem.read_cost(64));
        let hit = c.access(FrameId(1), 64, false);
        assert_eq!(hit, dram.read_cost(64));
        // The paper reports 3-4x faster DRAM-cache latency than PMEM.
        assert!(pmem.read_cost(64).as_nanos() >= 3 * dram.read_cost(64).as_nanos());
    }

    #[test]
    fn zero_capacity_clamped_to_one_frame() {
        let mut c = cache(0);
        c.access(FrameId(1), 64, false);
        let hit = c.access(FrameId(1), 64, false);
        assert_eq!(c.hits(), 1, "one frame still caches");
        assert_eq!(hit, TierSpec::fast_dram(u64::MAX).read_cost(64));
        c.access(FrameId(2), 64, false); // evicts 1
        c.access(FrameId(1), 64, false);
        assert_eq!(c.misses(), 3, "a one-frame cache holds exactly one frame");
    }
}
