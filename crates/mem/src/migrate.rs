//! Migration cost model and statistics.
//!
//! Moving a page between tiers costs a read from the source, a write to
//! the destination, and a fixed remap overhead (page-table manipulation +
//! TLB shootdown). Nimble (ASPLOS '19) parallelizes the copy across
//! threads; the [`MigrationCost::parallelism`] knob models that speedup
//! and is used by the Nimble/Nimble++/KLOC policies (the paper's KLOC
//! prototype reuses Nimble's parallel page copy, §6.2 Table 5).

use crate::clock::Nanos;
use crate::frame::{PageKind, PAGE_SIZE};
use crate::tier::{TierId, TierSpec};

/// Cost model for page migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationCost {
    /// Fixed per-page remap cost (unmap + TLB shootdown + remap).
    pub remap: Nanos,
    /// Number of parallel copy threads (Nimble-style). `1` = sequential.
    pub parallelism: u64,
    /// Percent of the migration cost charged to the foreground clock.
    /// Migration on dedicated kernel threads (paper §5: "migrations are
    /// asynchronous, and we use dedicated kernel threads") only steals a
    /// fraction of the application's time; synchronous migration (NUMA
    /// hint faults) charges 100.
    pub charge_pct: u64,
}

impl MigrationCost {
    /// Sequential migration, 1.5 us remap (calibrated to Linux
    /// `move_pages` costs reported by Nimble).
    pub fn sequential() -> Self {
        MigrationCost {
            remap: Nanos::new(1_500),
            parallelism: 1,
            charge_pct: 100,
        }
    }

    /// Nimble-style parallel copy with four background threads: cheaper
    /// per page and mostly off the critical path.
    pub fn parallel() -> Self {
        MigrationCost {
            remap: Nanos::new(1_500),
            parallelism: 4,
            charge_pct: 30,
        }
    }

    /// Time to move one 4 KB page from `src` to `dst`.
    ///
    /// The copy (read + write) is divided by the parallelism factor; the
    /// remap cost is not parallelizable.
    pub fn page_cost(&self, src: &TierSpec, dst: &TierSpec) -> Nanos {
        let copy = src.read_cost(PAGE_SIZE) + dst.write_cost(PAGE_SIZE);
        copy / self.parallelism.max(1) + self.remap
    }

    /// The memory-bus portion of one page move (read + write over the
    /// shared bus, divided across the copy threads).
    pub fn copy_cost(&self, src: &TierSpec, dst: &TierSpec) -> Nanos {
        (src.read_cost(PAGE_SIZE) + dst.write_cost(PAGE_SIZE)) / self.parallelism.max(1)
    }

    /// The portion of [`MigrationCost::page_cost`] charged to the
    /// foreground clock: the bus share of the copy (scaled by
    /// `charge_pct`) plus the remap CPU work divided across
    /// `cpu_parallelism` overlapping threads.
    pub fn foreground_cost(&self, src: &TierSpec, dst: &TierSpec, cpu_parallelism: u64) -> Nanos {
        let copy = self.copy_cost(src, dst);
        Nanos::new(copy.as_nanos() * self.charge_pct.min(100) / 100)
            + self.remap / cpu_parallelism.max(1)
    }
}

impl Default for MigrationCost {
    fn default() -> Self {
        MigrationCost::sequential()
    }
}

/// Counters for migration activity (paper Fig. 5b plots these).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Pages moved from a faster tier to a slower tier (demotions).
    pub demotions: u64,
    /// Pages moved from a slower tier to a faster tier (promotions).
    pub promotions: u64,
    /// Demotions broken down by page kind.
    pub demotions_by_kind: std::collections::BTreeMap<PageKind, u64>,
    /// Promotions broken down by page kind.
    pub promotions_by_kind: std::collections::BTreeMap<PageKind, u64>,
    /// Total virtual time spent migrating.
    pub time_spent: Nanos,
    /// Migrations that failed mid-copy (kfault injection); zero unless
    /// faults were scheduled.
    pub failed: u64,
}

impl MigrationStats {
    /// Total migrations in both directions.
    pub fn total(&self) -> u64 {
        self.demotions + self.promotions
    }

    pub(crate) fn record(&mut self, kind: PageKind, from: TierId, to: TierId, cost: Nanos) {
        // Lower tier id = faster tier by topology convention.
        if to.index() > from.index() {
            self.demotions += 1;
            *self.demotions_by_kind.entry(kind).or_default() += 1;
        } else {
            self.promotions += 1;
            *self.promotions_by_kind.entry(kind).or_default() += 1;
        }
        self.time_spent += cost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_copy_is_cheaper() {
        let fast = TierSpec::fast_dram(1 << 30);
        let slow = fast.slow_variant(8);
        let seq = MigrationCost::sequential().page_cost(&fast, &slow);
        let par = MigrationCost::parallel().page_cost(&fast, &slow);
        assert!(par < seq);
        // Remap portion is not parallelized.
        assert!(par > MigrationCost::parallel().remap);
    }

    #[test]
    fn page_cost_reflects_slow_tier_write() {
        let fast = TierSpec::fast_dram(1 << 30);
        let slow = fast.slow_variant(8);
        let demote = MigrationCost::sequential().page_cost(&fast, &slow);
        let promote = MigrationCost::sequential().page_cost(&slow, &fast);
        // Writing to the slow tier is the dominant term; both directions
        // cost the same here because read/write specs are symmetric.
        assert_eq!(demote, promote);
    }

    #[test]
    fn stats_classify_directions() {
        let mut s = MigrationStats::default();
        s.record(
            PageKind::PageCache,
            TierId::FAST,
            TierId::SLOW,
            Nanos::new(10),
        );
        s.record(
            PageKind::AppData,
            TierId::SLOW,
            TierId::FAST,
            Nanos::new(10),
        );
        assert_eq!(s.demotions, 1);
        assert_eq!(s.promotions, 1);
        assert_eq!(s.total(), 2);
        assert_eq!(s.demotions_by_kind[&PageKind::PageCache], 1);
        assert_eq!(s.time_spent, Nanos::new(20));
    }

    #[test]
    fn zero_parallelism_treated_as_sequential() {
        let fast = TierSpec::fast_dram(1 << 30);
        let cost = MigrationCost {
            remap: Nanos::ZERO,
            parallelism: 0,
            charge_pct: 100,
        };
        assert_eq!(
            cost.page_cost(&fast, &fast),
            fast.read_cost(PAGE_SIZE) + fast.write_cost(PAGE_SIZE)
        );
    }
}
