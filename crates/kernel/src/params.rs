//! Calibration constants for the simulated kernel.
//!
//! Everything the cost model charges that is not a memory access lives
//! here, so experiments can state exactly what was assumed. Defaults are
//! calibrated so the motivation numbers of the paper come out at the
//! right magnitude (kernel-time fractions of Fig. 2c, object lifetimes of
//! Fig. 2d, LRU scan throughput of §3.3).

use kloc_mem::Nanos;

/// Tunable cost and sizing parameters of the kernel model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelParams {
    /// Fixed syscall entry/exit CPU cost.
    pub syscall_base: Nanos,
    /// CPU cost of a slab allocation (fast path; paper §3.3 notes slab
    /// allocation speed is why knodes use it).
    pub slab_alloc_cpu: Nanos,
    /// CPU cost of an allocation through the relocatable KLOC interface
    /// (slightly slower than slab: VMA bookkeeping, §4.4).
    pub kvma_alloc_cpu: Nanos,
    /// CPU cost of a page allocation from the page allocator.
    pub page_alloc_cpu: Nanos,
    /// CPU cost to free any allocation.
    pub free_cpu: Nanos,
    /// Per-page LRU scan cost: the paper measures 2 s per million pages
    /// on their Xeon (§3.3) = 2 µs/page.
    pub lru_scan_per_page: Nanos,
    /// Journal: maximum journaled buffers per transaction before a
    /// commit is forced.
    pub journal_txn_max: usize,
    /// Number of dirty page-cache pages that triggers background
    /// writeback.
    pub writeback_threshold: usize,
    /// Pages per writeback bio (per-bio object allocation granularity).
    pub pages_per_bio: usize,
    /// Page-cache capacity budget in frames; beyond it, clean pages are
    /// reclaimed LRU-first (mimics kswapd keeping the cache bounded).
    pub page_cache_budget: u64,
    /// File-offset span covered by one extent object (bytes).
    pub extent_span: u64,
    /// File-offset span covered by one radix-tree node (pages).
    pub radix_fanout: u64,
    /// Network: CPU cost in the NIC driver per packet.
    pub net_driver_cpu: Nanos,
    /// Network: CPU cost in the IP layer per packet.
    pub net_ip_cpu: Nanos,
    /// Network: CPU cost in the TCP layer per packet, including socket
    /// demux when early demux is off.
    pub net_tcp_cpu: Nanos,
    /// Network: TCP-layer CPU saved per packet when the driver already
    /// demuxed the socket (paper §4.2.3).
    pub net_early_demux_saving: Nanos,
    /// Payload bytes per packet (MTU-ish).
    pub packet_bytes: u64,
    /// Readahead: maximum prefetch window in pages.
    pub readahead_max: u64,
    /// blk-mq: maximum retries of a failed disk operation before the
    /// error surfaces as [`crate::KernelError::Io`].
    pub io_max_retries: u32,
    /// blk-mq: backoff before the first retry; doubles per attempt.
    pub io_retry_base: Nanos,
    /// blk-mq: ceiling on the per-attempt retry backoff.
    pub io_retry_cap: Nanos,
    /// Back application memory with transparent huge pages (paper §5:
    /// "KLOCs should provide higher performance gains with THP, although
    /// this hypothesis needs to be tested in future studies" — the THP
    /// ablation tests it).
    pub thp_app: bool,
    /// Inert compatibility field: nothing reads it. The page-cache LRU,
    /// cache reverse map and frame free list were once split into this
    /// many shards; each is now a single structure. The field stays only
    /// so the `klocbench` replay, which passes it to
    /// [`kloc_mem::MemorySystem::set_shards`], keeps compiling.
    pub shards: u32,
    /// Tier drain: maximum frames live-migrated off an offlining tier
    /// per engine tick (DESIGN.md §13). Clamped to at least 1 at the
    /// drain site — a zero budget would stall the drain forever.
    pub drain_budget_frames: u64,
    /// Tier drain: backoff before the first retry of a faulted drain
    /// migration; doubles per attempt. Clamped to at least 1 ns.
    pub drain_retry_base: Nanos,
    /// Tier drain: ceiling on the per-attempt drain retry backoff.
    /// Clamped to at least the base.
    pub drain_retry_cap: Nanos,
    /// Budget resize: maximum pages self-evicted immediately when a
    /// `sys_kloc_memsize`-style shrink lands; the remainder is enforced
    /// gradually at insert time rather than stalling the run. Clamped
    /// to at least 1.
    pub resize_evict_step: u64,
    /// Always use QoS-ordered reclaim and divert-to-slow (BestEffort
    /// preempted first, Guaranteed last), not just while a tier fault
    /// window is open. Off by default: single-tenant runs and the §12
    /// isolation experiment rely on plain self-then-LRU reclaim.
    pub qos_reclaim: bool,
}

impl Default for KernelParams {
    fn default() -> Self {
        KernelParams {
            syscall_base: Nanos::new(250),
            slab_alloc_cpu: Nanos::new(90),
            kvma_alloc_cpu: Nanos::new(140),
            page_alloc_cpu: Nanos::new(180),
            free_cpu: Nanos::new(60),
            lru_scan_per_page: Nanos::from_micros(2),
            journal_txn_max: 64,
            writeback_threshold: 256,
            pages_per_bio: 16,
            page_cache_budget: 4096,
            extent_span: 1 << 20,
            radix_fanout: 64,
            net_driver_cpu: Nanos::new(150),
            net_ip_cpu: Nanos::new(120),
            net_tcp_cpu: Nanos::new(350),
            net_early_demux_saving: Nanos::new(250),
            packet_bytes: 1448,
            readahead_max: 32,
            io_max_retries: 5,
            io_retry_base: Nanos::from_micros(50),
            io_retry_cap: Nanos::from_micros(400),
            thp_app: false,
            shards: 4,
            drain_budget_frames: 128,
            drain_retry_base: Nanos::from_micros(20),
            drain_retry_cap: Nanos::from_micros(160),
            resize_evict_step: 64,
            qos_reclaim: false,
        }
    }
}

impl KernelParams {
    /// Scales the capacity-like parameters (page-cache budget, writeback
    /// threshold) by `factor`, for larger experiment scales.
    pub fn scaled(mut self, factor: u64) -> Self {
        self.page_cache_budget *= factor;
        self.writeback_threshold = (self.writeback_threshold as u64 * factor) as usize;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_scan_cost() {
        let p = KernelParams::default();
        // 2 s per million pages => 2 us per page.
        assert_eq!(p.lru_scan_per_page * 1_000_000, Nanos::from_secs(2));
    }

    #[test]
    fn kvma_is_slower_than_slab_but_same_magnitude() {
        let p = KernelParams::default();
        assert!(p.kvma_alloc_cpu > p.slab_alloc_cpu);
        assert!(p.kvma_alloc_cpu.as_nanos() < 3 * p.slab_alloc_cpu.as_nanos());
    }

    #[test]
    fn retry_backoff_stays_bounded() {
        let p = KernelParams::default();
        // Even the last retry's doubled backoff respects the cap.
        let worst = p.io_retry_base * (1 << (p.io_max_retries - 1));
        assert!(p.io_retry_cap < worst, "cap actually binds");
        assert!(p.io_retry_cap >= p.io_retry_base);
    }

    #[test]
    fn scaled_multiplies_budgets() {
        let p = KernelParams::default().scaled(4);
        assert_eq!(p.page_cache_budget, 4 * 4096);
        assert_eq!(p.writeback_threshold, 4 * 256);
    }

    #[test]
    fn drain_backoff_defaults_stay_bounded() {
        let p = KernelParams::default();
        // Same shape as the blk-mq retry knobs: the cap binds before
        // the doubled backoff runs away.
        let worst = p.drain_retry_base * (1 << 4);
        assert!(p.drain_retry_cap < worst, "cap actually binds");
        assert!(p.drain_retry_cap >= p.drain_retry_base);
        assert!(p.drain_budget_frames >= 1);
        assert!(p.resize_evict_step >= 1);
        assert!(!p.qos_reclaim, "QoS reclaim is fault-gated by default");
    }
}
