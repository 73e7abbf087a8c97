//! Experiment scale.
//!
//! The paper runs 10 GB ("Small") and 40 GB ("Large") inputs against an
//! 8 GB fast tier. Running gigabytes through a discrete-event simulator
//! is pointless — every capacity in the model scales linearly — so the
//! default scales divide everything by ~1024: Large = 40 MB of data over
//! an 8 MB fast tier, preserving the data:fast-memory ratio (5:1) that
//! drives all the contention effects.

/// Sizing knobs shared by all workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scale {
    /// Display label ("Small", "Large", ...).
    pub label: String,
    /// Total dataset bytes a workload manages.
    pub data_bytes: u64,
    /// Operations to execute in the measured phase.
    pub ops: u64,
    /// Simulated client/worker threads (paper: 16 everywhere).
    pub threads: u16,
    /// Fast-tier capacity in bytes that pairs with this scale
    /// (the paper's 8 GB, scaled).
    pub fast_bytes: u64,
    /// Page-cache budget in frames for the kernel at this scale.
    pub page_cache_frames: u64,
    /// RNG seed (determinism).
    pub seed: u64,
}

impl Scale {
    /// The paper's "Large" inputs (40 GB), scaled 1024x down.
    pub fn large() -> Self {
        Scale {
            label: "Large".to_owned(),
            data_bytes: 40 << 20,
            ops: 30_000,
            threads: 16,
            fast_bytes: 8 << 20,
            page_cache_frames: 16384, // page cache holds the dataset (80 GB RAM in the paper)
            seed: 0x51_0C5,
        }
    }

    /// A 4x-Large scale (the paper's 160 GB extrapolation): the same
    /// 1024x spatial shrink, four times the dataset, fast tier, cache
    /// budget, and ops of [`Scale::large`] — preserving the 5:1
    /// data:fast-memory ratio while pushing the simulator's own data
    /// structures (frame table, page LRU, radix nodes) well past the
    /// Large footprint.
    pub fn huge() -> Self {
        Scale {
            label: "Huge".to_owned(),
            data_bytes: 160 << 20,
            ops: 120_000,
            threads: 16,
            fast_bytes: 32 << 20,
            page_cache_frames: 65536,
            seed: 0x51_0C5,
        }
    }

    /// The paper's "Small" inputs (10 GB), scaled 1024x down.
    pub fn small() -> Self {
        Scale {
            label: "Small".to_owned(),
            data_bytes: 10 << 20,
            ops: 12_000,
            threads: 16,
            fast_bytes: 8 << 20,
            page_cache_frames: 6144,
            seed: 0x51_0C5,
        }
    }

    /// Minimal scale for unit/integration tests (fast).
    pub fn tiny() -> Self {
        Scale {
            label: "Tiny".to_owned(),
            data_bytes: 2 << 20,
            ops: 1_500,
            threads: 4,
            fast_bytes: 1 << 20,
            page_cache_frames: 1024,
            seed: 0x51_0C5,
        }
    }

    /// Returns a copy with a different fast-tier size (Fig. 6 capacity
    /// sweep).
    pub fn with_fast_bytes(mut self, fast_bytes: u64) -> Self {
        self.fast_bytes = fast_bytes;
        self
    }

    /// Returns a copy with a different op count.
    pub fn with_ops(mut self, ops: u64) -> Self {
        self.ops = ops;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Dataset size in 4 KB pages.
    pub fn data_pages(&self) -> u64 {
        self.data_bytes / kloc_mem::PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_preserves_paper_ratio() {
        let s = Scale::large();
        // 40 GB : 8 GB in the paper = 5 : 1.
        assert_eq!(s.data_bytes / s.fast_bytes, 5);
        assert_eq!(s.threads, 16);
    }

    #[test]
    fn builders_override() {
        let s = Scale::tiny()
            .with_fast_bytes(1 << 20)
            .with_ops(10)
            .with_seed(7);
        assert_eq!(s.fast_bytes, 1 << 20);
        assert_eq!(s.ops, 10);
        assert_eq!(s.seed, 7);
    }

    #[test]
    fn data_pages_math() {
        assert_eq!(Scale::large().data_pages(), (40 << 20) / 4096);
    }

    #[test]
    fn huge_is_4x_large_same_ratio() {
        let (h, l) = (Scale::huge(), Scale::large());
        assert_eq!(h.data_bytes, 4 * l.data_bytes);
        assert_eq!(h.fast_bytes, 4 * l.fast_bytes);
        assert_eq!(h.page_cache_frames, 4 * l.page_cache_frames);
        assert_eq!(h.ops, 4 * l.ops);
        assert_eq!(h.data_bytes / h.fast_bytes, l.data_bytes / l.fast_bytes);
    }
}
