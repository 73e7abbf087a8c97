//! Fig. 4 — two-tier platform speedups.
//!
//! For each workload, every strategy's throughput normalized to
//! *All Slow Mem*. The paper's headline shape: `Naive < Nimble <
//! Nimble++ <= KLOCs-nomigration < KLOCs <= All Fast Mem`, with KLOCs up
//! to 2.7x over Nimble (Redis) and Cassandra nearly insensitive.

use kloc_kernel::KernelError;
use kloc_policy::PolicyKind;
use kloc_workloads::{Scale, WorkloadKind};

use crate::engine::{Platform, RunConfig, RunReport};
use crate::report::{f2, Table};
use crate::runner::Runner;

/// Speedups for one workload.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Workload label.
    pub workload: String,
    /// `(policy label, speedup vs All-Slow)` in Fig. 4 bar order.
    pub speedups: Vec<(String, f64)>,
    /// The All-Slow baseline run.
    pub baseline: RunReport,
    /// The per-policy runs (same order as `speedups`).
    pub runs: Vec<RunReport>,
}

impl Fig4Row {
    /// Speedup of a given policy, if present.
    pub fn speedup(&self, policy: PolicyKind) -> Option<f64> {
        self.speedups
            .iter()
            .find(|(l, _)| l == policy.label())
            .map(|(_, s)| *s)
    }
}

/// Runs Fig. 4 for the given workloads on a two-tier platform.
///
/// All `(workload, policy)` runs — the All-Slow baselines included — are
/// independent, so the whole figure is dispatched as one batch through
/// `runner`.
///
/// # Errors
/// Propagates kernel errors.
pub fn run(
    runner: &Runner,
    scale: &Scale,
    platform: Platform,
    workloads: &[WorkloadKind],
) -> Result<Vec<Fig4Row>, KernelError> {
    // Per workload: one All-Slow baseline followed by every policy bar.
    let chunk = 1 + PolicyKind::TWO_TIER.len();
    let mut configs = Vec::with_capacity(workloads.len() * chunk);
    for &w in workloads {
        for policy in std::iter::once(PolicyKind::AllSlow).chain(PolicyKind::TWO_TIER) {
            configs.push(RunConfig {
                workload: w,
                policy,
                scale: scale.clone(),
                platform,
                kernel_params: None,
                faults: None,
                budgets: Vec::new(),
            });
        }
    }
    let reports = runner.run_all(configs)?;

    let mut rows = Vec::new();
    for (i, &w) in workloads.iter().enumerate() {
        let group = &reports[i * chunk..(i + 1) * chunk];
        let baseline = group[0].clone();
        let runs: Vec<RunReport> = group[1..].to_vec();
        let speedups = PolicyKind::TWO_TIER
            .iter()
            .zip(&runs)
            .map(|(p, r)| (p.label().to_owned(), r.speedup_over(&baseline)))
            .collect();
        rows.push(Fig4Row {
            workload: w.label().to_owned(),
            speedups,
            baseline,
            runs,
        });
    }
    Ok(rows)
}

/// Renders the figure as a table (rows = workloads, columns = policies).
pub fn table(rows: &[Fig4Row]) -> Table {
    let mut header = vec!["workload"];
    let labels: Vec<&str> = PolicyKind::TWO_TIER.iter().map(|p| p.label()).collect();
    header.extend(labels.iter());
    let mut t = Table::new("Fig 4: two-tier speedup vs All Slow Mem", &header);
    for r in rows {
        let mut cells = vec![r.workload.clone()];
        cells.extend(r.speedups.iter().map(|(_, s)| f2(*s)));
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_paper_shape() {
        let platform = Platform::TwoTier {
            fast_bytes: 512 << 10,
            bw_ratio: 8,
        };
        let rows = run(
            &Runner::auto(),
            &Scale::tiny(),
            platform,
            &[WorkloadKind::RocksDb, WorkloadKind::Redis],
        )
        .unwrap();
        for r in &rows {
            let get = |p| r.speedup(p).unwrap();
            let kloc = get(PolicyKind::Kloc);
            let nimble = get(PolicyKind::Nimble);
            let nimblepp = get(PolicyKind::NimblePlusPlus);
            let allfast = get(PolicyKind::AllFast);
            assert!(
                nimblepp > nimble,
                "{}: Nimble++ ({nimblepp:.2}) must beat Nimble ({nimble:.2})",
                r.workload
            );
            assert!(
                kloc > nimble,
                "{}: KLOCs ({kloc:.2}) must beat Nimble ({nimble:.2})",
                r.workload
            );
            assert!(
                kloc > 1.0,
                "{}: KLOCs must beat All-Slow, got {kloc:.2}",
                r.workload
            );
            assert!(
                allfast >= kloc * 0.9,
                "{}: All-Fast ({allfast:.2}) should be near-best vs KLOCs ({kloc:.2})",
                r.workload
            );
        }
        let t = table(&rows);
        assert_eq!(t.len(), rows.len());
    }

    /// The RocksDB cell of `repro fig4 --scale large`: KLOCs must beat
    /// Nimble++ by at least 5 %, which takes every cold knode being
    /// demoted once it turns cold.
    #[test]
    fn kloc_beats_nimblepp_on_rocksdb_at_large_scale() {
        let scale = Scale::large();
        let cell = |policy| RunConfig {
            workload: WorkloadKind::RocksDb,
            policy,
            scale: scale.clone(),
            platform: Platform::TwoTier {
                fast_bytes: scale.fast_bytes,
                bw_ratio: 8,
            },
            kernel_params: None,
            faults: None,
            budgets: Vec::new(),
        };
        let reports = Runner::new(2)
            .run_all(vec![
                cell(PolicyKind::Kloc),
                cell(PolicyKind::NimblePlusPlus),
            ])
            .unwrap();
        let (kloc, nimblepp) = (reports[0].throughput(), reports[1].throughput());
        assert!(
            kloc >= 1.05 * nimblepp,
            "RocksDB at Large: KLOCs {kloc:.0} ops/s must beat Nimble++ {nimblepp:.0} by 5 %"
        );
    }
}
