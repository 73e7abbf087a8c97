//! The [`Policy`] trait and policy factory.

use kloc_core::{KlocRegistry, KlocStats};
use kloc_kernel::hooks::KernelHooks;
use kloc_kernel::Kernel;
use kloc_mem::{MemorySystem, MigrationCost, Nanos};

/// A tiering policy: kernel hooks plus periodic maintenance.
///
/// The simulation engine calls [`Policy::tick`] every
/// [`Policy::tick_interval`] of virtual time — this is where scan-based
/// policies pay their detection latency and where migrations are issued.
pub trait Policy: KernelHooks {
    /// Short name for reports ("kloc", "nimble", …).
    fn name(&self) -> &'static str;

    /// Periodic maintenance: scans, demotions, promotions.
    fn tick(&mut self, kernel: &Kernel, mem: &mut MemorySystem);

    /// Desired virtual-time interval between ticks.
    fn tick_interval(&self) -> Nanos {
        Nanos::from_millis(50)
    }

    /// Migration cost model this policy uses (Nimble-style parallel copy
    /// vs sequential).
    fn migration_cost(&self) -> MigrationCost {
        MigrationCost::sequential()
    }

    /// The KLOC registry, for policies that have one (overhead and
    /// ablation reporting).
    fn registry(&self) -> Option<&KlocRegistry> {
        None
    }

    /// KLOC activity counters, when applicable.
    fn kloc_stats(&self) -> Option<KlocStats> {
        self.registry().map(|r| *r.stats())
    }

    /// Largest en-masse migration staged so far (pages) — sizes the
    /// migrate-tracking list in the Table 6 overhead accounting.
    fn peak_migration_batch(&self) -> u64 {
        0
    }

    /// Kernel allocations placement diverted to slow memory so far (the
    /// trace's `slow_diverts` counter).
    fn slow_diverts(&self) -> u64 {
        0
    }

    /// Updates the task's home socket (NUMA policies; no-op otherwise).
    fn set_task_socket(&mut self, _socket: u8) {}

    /// Installs the run's tenant specs (multi-tenant runs only).
    /// Budget-aware policies pick up each tenant's
    /// [`kloc_kernel::TenantSpec::fast_budget_frames`] for per-tenant
    /// placement decisions; the default ignores tenancy.
    fn configure_tenants(&mut self, _specs: &[kloc_kernel::TenantSpec]) {}
}

/// Identifiers for every evaluated strategy (paper Table 5), with a
/// factory for boxed policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PolicyKind {
    /// Everything in fast memory (upper bound).
    AllFast,
    /// Everything in slow memory (baseline for Fig. 4 speedups).
    AllSlow,
    /// Greedy FCFS without migration.
    Naive,
    /// Prior-art app-page tiering.
    Nimble,
    /// Nimble extended to kernel objects without KLOCs.
    NimblePlusPlus,
    /// KLOC direct allocation, no kernel-object migration.
    KlocNoMigration,
    /// Full KLOCs.
    Kloc,
    /// Socket-affinity migration of app pages only.
    AutoNuma,
    /// AutoNUMA + KLOC kernel-object migration.
    AutoNumaKloc,
}

impl PolicyKind {
    /// All two-tier-platform strategies in Fig. 4's bar order.
    pub const TWO_TIER: [PolicyKind; 6] = [
        PolicyKind::Naive,
        PolicyKind::Nimble,
        PolicyKind::NimblePlusPlus,
        PolicyKind::KlocNoMigration,
        PolicyKind::Kloc,
        PolicyKind::AllFast,
    ];

    /// Builds the policy.
    pub fn build(self) -> Box<dyn Policy> {
        match self {
            PolicyKind::AllFast => Box::new(crate::simple::AllFast::new()),
            PolicyKind::AllSlow => Box::new(crate::simple::AllSlow::new()),
            PolicyKind::Naive => Box::new(crate::simple::Naive::new()),
            PolicyKind::Nimble => Box::new(crate::nimble::Nimble::new()),
            PolicyKind::NimblePlusPlus => Box::new(crate::nimble::NimblePlusPlus::new()),
            PolicyKind::KlocNoMigration => Box::new(crate::kloc::KlocPolicy::without_migration()),
            PolicyKind::Kloc => Box::new(crate::kloc::KlocPolicy::new()),
            PolicyKind::AutoNuma => Box::new(crate::autonuma::AutoNuma::new()),
            PolicyKind::AutoNumaKloc => Box::new(crate::autonuma::AutoNumaKloc::new()),
        }
    }

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::AllFast => "All Fast Mem",
            PolicyKind::AllSlow => "All Slow Mem",
            PolicyKind::Naive => "Naive",
            PolicyKind::Nimble => "Nimble",
            PolicyKind::NimblePlusPlus => "Nimble++",
            PolicyKind::KlocNoMigration => "KLOCs-nomigration",
            PolicyKind::Kloc => "KLOCs",
            PolicyKind::AutoNuma => "AutoNUMA",
            PolicyKind::AutoNumaKloc => "KLOCs (AutoNUMA)",
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_kind() {
        let kinds = [
            PolicyKind::AllFast,
            PolicyKind::AllSlow,
            PolicyKind::Naive,
            PolicyKind::Nimble,
            PolicyKind::NimblePlusPlus,
            PolicyKind::KlocNoMigration,
            PolicyKind::Kloc,
            PolicyKind::AutoNuma,
            PolicyKind::AutoNumaKloc,
        ];
        let mut names = std::collections::BTreeSet::new();
        for k in kinds {
            let p = k.build();
            assert!(!p.name().is_empty());
            names.insert(p.name());
        }
        assert!(names.len() >= 8, "policies must have distinct names");
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(PolicyKind::NimblePlusPlus.label(), "Nimble++");
        assert_eq!(PolicyKind::Kloc.to_string(), "KLOCs");
    }

    #[test]
    fn kloc_policies_expose_registry() {
        assert!(PolicyKind::Kloc.build().registry().is_some());
        assert!(PolicyKind::KlocNoMigration.build().registry().is_some());
        assert!(PolicyKind::AutoNumaKloc.build().registry().is_some());
        assert!(PolicyKind::Nimble.build().registry().is_none());
    }
}
