//! Determinism contract of the parallel sweep runner: for any batch,
//! parallel execution yields exactly the reports serial execution does,
//! in the same order.

use kloc_policy::PolicyKind;
use kloc_sim::engine::{Platform, RunConfig};
use kloc_sim::Runner;
use kloc_workloads::{Scale, WorkloadKind};

/// A mixed fig4-style matrix: several workloads x several policies, with
/// two platform variants thrown in so run costs differ widely.
fn matrix() -> Vec<RunConfig> {
    let mut configs = Vec::new();
    for platform in [
        Platform::TwoTier {
            fast_bytes: 512 << 10,
            bw_ratio: 8,
        },
        Platform::TwoTier {
            fast_bytes: 256 << 10,
            bw_ratio: 2,
        },
    ] {
        for w in [
            WorkloadKind::RocksDb,
            WorkloadKind::Redis,
            WorkloadKind::Filebench,
        ] {
            for p in [
                PolicyKind::AllSlow,
                PolicyKind::Naive,
                PolicyKind::Nimble,
                PolicyKind::NimblePlusPlus,
                PolicyKind::Kloc,
            ] {
                configs.push(RunConfig {
                    workload: w,
                    policy: p,
                    scale: Scale::tiny(),
                    platform,
                    kernel_params: None,
                    faults: None,
                    budgets: Vec::new(),
                });
            }
        }
    }
    configs
}

#[test]
fn runner_matches_serial() {
    let configs = matrix();
    let serial = Runner::serial().run_all(configs.clone()).expect("serial");

    for jobs in [2, 4, 8] {
        let parallel = Runner::new(jobs)
            .run_all(configs.clone())
            .expect("parallel");
        assert_eq!(serial.len(), parallel.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            // Spot-check the load-bearing fields with readable messages
            // before the full structural comparison.
            assert_eq!(s.workload, p.workload, "run {i}: workload");
            assert_eq!(s.policy, p.policy, "run {i}: policy");
            assert_eq!(s.elapsed, p.elapsed, "run {i}: virtual elapsed time");
            assert_eq!(s.ops, p.ops, "run {i}: ops completed");
            assert_eq!(s.migrations, p.migrations, "run {i}: migration counters");
            assert_eq!(s, p, "run {i}: full report ({jobs} jobs)");
        }
    }
}

/// The Huge-scale hot path: the two most knode-heavy workloads against
/// the policies whose per-tick bookkeeping differs (scan-based Nimble
/// vs event-driven KLOCs). Filebench opens a file per operation, so it
/// exercises knode creation, aging and cold-set selection hardest.
#[test]
#[ignore = "Huge scale is slow in a debug build: run with --release -- --ignored"]
fn huge_matrix_reports_are_repeatable() {
    let scale = Scale::huge();
    let mut configs = Vec::new();
    for w in [WorkloadKind::Filebench, WorkloadKind::RocksDb] {
        for p in [
            PolicyKind::Nimble,
            PolicyKind::NimblePlusPlus,
            PolicyKind::KlocNoMigration,
            PolicyKind::Kloc,
        ] {
            configs.push(RunConfig {
                workload: w,
                policy: p,
                scale: scale.clone(),
                platform: Platform::TwoTier {
                    fast_bytes: scale.fast_bytes,
                    bw_ratio: 8,
                },
                kernel_params: None,
                faults: None,
                budgets: Vec::new(),
            });
        }
    }
    let serial = Runner::serial().run_all(configs.clone()).expect("serial");
    let parallel = Runner::new(2).run_all(configs).expect("parallel");
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s, p, "cell {i}: full report");
    }
}
