//! Block layer (bio + blk-mq).
//!
//! The block layer converts writeback batches into `bio` structures and
//! blk-mq requests — both slab objects in the paper's Table 1 ("block -
//! Block I/O structure", "blk_mq - Block layer multi-queue structure").
//! This module holds the sizing math and dispatch statistics; the kernel
//! facade allocates the objects and talks to the [`crate::disk::Disk`].

/// Dispatch statistics of the block layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Bios constructed.
    pub bios: u64,
    /// blk-mq requests dispatched.
    pub requests: u64,
    /// Pages submitted through the layer.
    pub pages: u64,
}

/// The block layer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockLayer {
    stats: BlockStats,
}

impl BlockLayer {
    /// Creates an idle block layer.
    pub fn new() -> Self {
        BlockLayer::default()
    }

    /// Dispatch statistics.
    pub fn stats(&self) -> &BlockStats {
        &self.stats
    }

    /// Number of bios needed to submit `pages` pages with at most
    /// `pages_per_bio` pages each. Each bio gets one blk-mq request.
    pub fn bios_for(pages: usize, pages_per_bio: usize) -> usize {
        if pages == 0 {
            0
        } else {
            pages.div_ceil(pages_per_bio.max(1))
        }
    }

    /// Records a dispatch of `pages` pages split into `bios` bios.
    pub fn record_dispatch(&mut self, pages: usize, bios: usize) {
        self.stats.bios += bios as u64;
        self.stats.requests += bios as u64;
        self.stats.pages += pages as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bio_count_rounds_up() {
        assert_eq!(BlockLayer::bios_for(0, 16), 0);
        assert_eq!(BlockLayer::bios_for(1, 16), 1);
        assert_eq!(BlockLayer::bios_for(16, 16), 1);
        assert_eq!(BlockLayer::bios_for(17, 16), 2);
        assert_eq!(BlockLayer::bios_for(5, 0), 5, "degenerate bio size");
    }

    #[test]
    fn dispatch_stats() {
        let mut b = BlockLayer::new();
        b.record_dispatch(33, BlockLayer::bios_for(33, 16));
        assert_eq!(b.stats().bios, 3);
        assert_eq!(b.stats().requests, 3);
        assert_eq!(b.stats().pages, 33);
    }
}
