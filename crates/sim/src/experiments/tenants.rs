//! Tenant isolation — the consolidated-server experiment (DESIGN.md §12).
//!
//! Runs the [`MultiTenant`](kloc_workloads::MultiTenant) workload twice
//! under the KLOC policy — once with per-tenant budgets off, once with
//! them on — and renders a Fig. 4-style per-tenant breakdown. The claim
//! under test is the paper's consolidation motivation (§5): without
//! budgets, the best-effort churn tenant's kernel-object allocations
//! evict the guaranteed tenant's hot page-cache pages through the global
//! shrinker; with per-tenant budgets (the `sys_kloc_memsize` analog)
//! each tenant reclaims from itself and cross-tenant evictions drop to
//! zero.

use kloc_kernel::KernelError;
use kloc_policy::PolicyKind;
use kloc_workloads::{Scale, WorkloadKind};

use crate::engine::{Platform, RunConfig, RunReport};
use crate::report::Table;
use crate::runner::Runner;

/// The budgets-off / budgets-on pair of runs.
#[derive(Debug, Clone)]
pub struct TenantIsolation {
    /// Budgets off: tenants share the kernel unprotected.
    pub off: RunReport,
    /// Budgets on: per-tenant page-cache and fast-tier caps.
    pub on: RunReport,
}

impl TenantIsolation {
    /// Total cross-tenant evictions suffered across all tenants of a
    /// report.
    fn cross_suffered(report: &RunReport) -> u64 {
        report
            .tenants
            .iter()
            .map(|t| t.stats.cross_evictions_suffered)
            .sum()
    }

    /// Whether budgets demonstrably isolate the tenants: the
    /// unprotected run shows cross-tenant evictions and the budgeted
    /// run shows none.
    pub fn isolated(&self) -> bool {
        Self::cross_suffered(&self.off) > 0 && Self::cross_suffered(&self.on) == 0
    }

    /// One-line verdict for CLI output.
    pub fn verdict(&self) -> String {
        format!(
            "cross-tenant evictions: {} without budgets -> {} with budgets ({})",
            Self::cross_suffered(&self.off),
            Self::cross_suffered(&self.on),
            if self.isolated() {
                "isolated"
            } else {
                "NOT isolated"
            }
        )
    }
}

/// Runs the budgets-off/budgets-on pair under the KLOC policy.
///
/// # Errors
/// Propagates kernel errors.
pub fn run(
    runner: &Runner,
    scale: &Scale,
    platform: Platform,
) -> Result<TenantIsolation, KernelError> {
    let cfg = |budgeted| RunConfig {
        workload: WorkloadKind::Tenants { budgeted },
        policy: PolicyKind::Kloc,
        scale: scale.clone(),
        platform,
        kernel_params: None,
        faults: None,
        budgets: Vec::new(),
    };
    let mut reports = runner.run_all(vec![cfg(false), cfg(true)])?;
    let on = reports.pop().expect("two configs in, two reports out");
    let off = reports.pop().expect("two configs in, two reports out");
    Ok(TenantIsolation { off, on })
}

/// Renders the per-tenant breakdown: one row per (mode, tenant).
pub fn table(iso: &TenantIsolation) -> Table {
    let mut t = Table::new(
        "Tenant isolation: per-tenant breakdown (KLOC policy)",
        &[
            "mode",
            "tenant",
            "qos",
            "pc cap",
            "inserted",
            "resident",
            "self-evict",
            "x-caused",
            "x-suffered",
            "tx B",
            "rx B",
            "shared",
        ],
    );
    for (mode, report) in [("no budgets", &iso.off), ("budgeted", &iso.on)] {
        for tr in &report.tenants {
            t.row(vec![
                mode.to_owned(),
                tr.name.clone(),
                tr.qos.clone(),
                tr.pc_budget
                    .map_or_else(|| "-".to_owned(), |b| b.to_string()),
                tr.stats.pc_inserted.to_string(),
                tr.stats.pc_resident.to_string(),
                tr.stats.pc_self_evicted.to_string(),
                tr.stats.cross_evictions_caused.to_string(),
                tr.stats.cross_evictions_suffered.to_string(),
                tr.stats.tx_bytes.to_string(),
                tr.stats.rx_bytes.to_string(),
                tr.shared_accesses
                    .map_or_else(|| "-".to_owned(), |s| s.to_string()),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_flip_cross_evictions_to_zero() {
        let platform = Platform::TwoTier {
            fast_bytes: 512 << 10,
            bw_ratio: 8,
        };
        let iso = run(&Runner::auto(), &Scale::tiny(), platform).unwrap();
        assert!(
            TenantIsolation::cross_suffered(&iso.off) > 0,
            "unprotected churn must cause cross-tenant evictions"
        );
        assert_eq!(
            TenantIsolation::cross_suffered(&iso.on),
            0,
            "budgets must eliminate cross-tenant evictions"
        );
        assert!(iso.isolated());
        // Shared-object attribution: analytics reads frontend-owned
        // objects in both modes.
        for report in [&iso.off, &iso.on] {
            let analytics = report
                .tenants
                .iter()
                .find(|t| t.name == "analytics")
                .expect("analytics tenant reported");
            assert!(analytics.shared_accesses.unwrap_or(0) > 0);
            assert!(analytics.stats.rx_bytes > 0);
        }
        // 2 modes x 3 tenants.
        assert_eq!(table(&iso).len(), 6);
    }
}
