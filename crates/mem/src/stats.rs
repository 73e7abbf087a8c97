//! Counters collected by the memory substrate.
//!
//! These counters back the paper's motivation study (Fig. 2: footprint
//! breakdown, reference breakdown, lifetimes) and evaluation plots
//! (Fig. 5b: slow-tier allocations per class).

use crate::clock::Nanos;
use crate::dense::DenseMap;
use crate::frame::PageKind;
use crate::tier::TierId;

/// Counters for one tier.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Cumulative frames ever allocated on this tier.
    pub frames_allocated: u64,
    /// Cumulative frames freed from this tier.
    pub frames_freed: u64,
    /// Frames currently resident.
    pub frames_resident: u64,
    /// Cumulative allocations per page kind.
    pub allocated_by_kind: DenseMap<PageKind, u64>,
    /// Currently resident frames per page kind.
    pub resident_by_kind: DenseMap<PageKind, u64>,
    /// Read accesses charged to this tier.
    pub reads: u64,
    /// Write accesses charged to this tier.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Allocation attempts rejected because the tier was full.
    pub alloc_failures: u64,
}

impl TierStats {
    pub(crate) fn on_alloc(&mut self, kind: PageKind) {
        self.frames_allocated += 1;
        self.frames_resident += 1;
        *self.allocated_by_kind.get_or_default(kind) += 1;
        *self.resident_by_kind.get_or_default(kind) += 1;
    }

    pub(crate) fn on_free(&mut self, kind: PageKind) {
        self.frames_freed += 1;
        self.frames_resident -= 1;
        let r = self.resident_by_kind.get_or_default(kind);
        debug_assert!(*r > 0, "resident_by_kind underflow for {kind}");
        *r -= 1;
    }

    pub(crate) fn on_arrive(&mut self, kind: PageKind) {
        self.frames_resident += 1;
        *self.resident_by_kind.get_or_default(kind) += 1;
    }

    pub(crate) fn on_depart(&mut self, kind: PageKind) {
        self.frames_resident -= 1;
        let r = self.resident_by_kind.get_or_default(kind);
        debug_assert!(*r > 0, "resident_by_kind underflow for {kind}");
        *r -= 1;
    }
}

/// Per-kind lifetime accumulators (paper Fig. 2d).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LifetimeStats {
    /// Sum of observed lifetimes (allocation to free).
    pub total: Nanos,
    /// Number of frees observed.
    pub count: u64,
}

impl LifetimeStats {
    /// Mean lifetime, or zero when nothing was freed yet.
    pub fn mean(&self) -> Nanos {
        if self.count == 0 {
            Nanos::ZERO
        } else {
            self.total / self.count
        }
    }

    pub(crate) fn record(&mut self, lifetime: Nanos) {
        self.total += lifetime;
        self.count += 1;
    }
}

/// All substrate-level counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Per-tier counters, indexed by tier id.
    pub tiers: Vec<TierStats>,
    /// Total access operations (reads + writes) across tiers.
    pub total_accesses: u64,
    /// Accesses that touched kernel pages (any kind but `AppData`).
    pub kernel_accesses: u64,
    /// Lifetime accumulators per page kind.
    pub lifetimes: DenseMap<PageKind, LifetimeStats>,
}

impl MemStats {
    pub(crate) fn new(tier_count: usize) -> Self {
        MemStats {
            tiers: vec![TierStats::default(); tier_count],
            ..MemStats::default()
        }
    }

    /// Counters for one tier.
    ///
    /// # Panics
    /// Panics if `tier` is not part of the topology.
    pub fn tier(&self, tier: TierId) -> &TierStats {
        &self.tiers[tier.index()]
    }

    /// Cumulative allocations of `kind` across all tiers.
    pub fn allocated(&self, kind: PageKind) -> u64 {
        self.tiers
            .iter()
            .map(|t| t.allocated_by_kind.get(&kind).copied().unwrap_or(0))
            .sum()
    }

    /// Cumulative allocations of kernel page kinds across all tiers.
    pub fn kernel_allocated(&self) -> u64 {
        PageKind::ALL
            .iter()
            .filter(|k| k.is_kernel())
            .map(|k| self.allocated(*k))
            .sum()
    }

    /// Cumulative allocations across all kinds and tiers.
    pub fn total_allocated(&self) -> u64 {
        self.tiers.iter().map(|t| t.frames_allocated).sum()
    }

    /// Fraction of accesses that hit kernel pages (paper Fig. 2c).
    pub fn kernel_access_fraction(&self) -> f64 {
        if self.total_accesses == 0 {
            0.0
        } else {
            self.kernel_accesses as f64 / self.total_accesses as f64
        }
    }

    /// Mean observed lifetime for a page kind (paper Fig. 2d).
    pub fn mean_lifetime(&self, kind: PageKind) -> Nanos {
        self.lifetimes.get(&kind).map_or(Nanos::ZERO, |l| l.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_balance() {
        let mut s = TierStats::default();
        s.on_alloc(PageKind::Slab);
        s.on_alloc(PageKind::Slab);
        s.on_free(PageKind::Slab);
        assert_eq!(s.frames_allocated, 2);
        assert_eq!(s.frames_resident, 1);
        assert_eq!(s.resident_by_kind[&PageKind::Slab], 1);
        assert_eq!(s.allocated_by_kind[&PageKind::Slab], 2);
    }

    #[test]
    fn migration_moves_residency_not_allocation() {
        let mut a = TierStats::default();
        let mut b = TierStats::default();
        a.on_alloc(PageKind::PageCache);
        a.on_depart(PageKind::PageCache);
        b.on_arrive(PageKind::PageCache);
        assert_eq!(a.frames_resident, 0);
        assert_eq!(b.frames_resident, 1);
        assert_eq!(b.frames_allocated, 0, "arrival is not an allocation");
    }

    #[test]
    fn lifetime_mean() {
        let mut l = LifetimeStats::default();
        assert_eq!(l.mean(), Nanos::ZERO);
        l.record(Nanos::from_millis(30));
        l.record(Nanos::from_millis(42));
        assert_eq!(l.mean(), Nanos::from_millis(36));
    }

    #[test]
    fn kernel_access_fraction() {
        let mut m = MemStats::new(2);
        m.total_accesses = 10;
        m.kernel_accesses = 4;
        assert!((m.kernel_access_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn aggregate_allocated_counts() {
        let mut m = MemStats::new(2);
        m.tiers[0].on_alloc(PageKind::AppData);
        m.tiers[0].on_alloc(PageKind::Slab);
        m.tiers[1].on_alloc(PageKind::Slab);
        assert_eq!(m.allocated(PageKind::Slab), 2);
        assert_eq!(m.kernel_allocated(), 2);
        assert_eq!(m.total_allocated(), 3);
    }
}
