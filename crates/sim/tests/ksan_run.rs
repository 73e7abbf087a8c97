//! End-to-end sanitizer runs: execute tiny workloads with the KSAN
//! cross-structure audits and in-walk oracles armed and assert they
//! complete cleanly, and that audited runs stay deterministic.
//!
//! A debug build (every `cargo test`) always arms KSAN; a release test
//! build audits only with `KLOC_KSAN_INTERVAL` set.

use kloc_policy::PolicyKind;
use kloc_sim::engine::{run, Platform, RunConfig};
use kloc_workloads::{Scale, WorkloadKind};

fn cfg(workload: WorkloadKind, policy: PolicyKind) -> RunConfig {
    RunConfig {
        workload,
        policy,
        scale: Scale::tiny(),
        platform: Platform::TwoTier {
            fast_bytes: 512 << 10,
            bw_ratio: 8,
        },
        kernel_params: None,
        faults: None,
        budgets: Vec::new(),
    }
}

#[test]
fn tiny_runs_pass_audits_for_every_policy() {
    for policy in [
        PolicyKind::Naive,
        PolicyKind::AllFast,
        PolicyKind::AllSlow,
        PolicyKind::Kloc,
    ] {
        let r = run(&cfg(WorkloadKind::RocksDb, policy)).unwrap();
        assert_eq!(r.ops, Scale::tiny().ops, "{policy:?}");
    }
}

#[test]
fn tiny_runs_pass_audits_for_every_workload() {
    for workload in [
        WorkloadKind::RocksDb,
        WorkloadKind::Redis,
        WorkloadKind::Filebench,
        WorkloadKind::Cassandra,
        WorkloadKind::Spark,
    ] {
        let r = run(&cfg(workload, PolicyKind::Kloc)).unwrap();
        assert!(r.elapsed > kloc_mem::Nanos::ZERO, "{workload:?}");
    }
}

#[test]
fn audited_run_report_matches_unaudited_semantics() {
    // Audits are observation-only: an audited run must produce the
    // same virtual-time trajectory run-to-run (the audited/unaudited
    // byte-identity is checked by diffing release `repro` output with
    // and without `KLOC_KSAN_INTERVAL`; here we pin determinism under
    // audit).
    let a = run(&cfg(WorkloadKind::RocksDb, PolicyKind::Kloc)).unwrap();
    let b = run(&cfg(WorkloadKind::RocksDb, PolicyKind::Kloc)).unwrap();
    assert_eq!(a, b);
}

#[test]
fn fast_offline_window_passes_audits_and_memo_oracles() {
    // A FAST `Offline` window makes the engine drain fast frames to
    // slow behind the registry's walks, so the walk-memo oracles see
    // migrations they did not make.
    use kloc_mem::{FaultPlan, Nanos, TierFaultKind, TierId};
    for workload in [WorkloadKind::RocksDb, WorkloadKind::Redis] {
        let plain = run(&cfg(workload, PolicyKind::Kloc)).unwrap();
        let horizon = (plain.setup_time + plain.elapsed).as_nanos();
        let at = |eighths: u64| Nanos::new(horizon * eighths / 8);
        let plan = FaultPlan::new().with_tier_fault(
            TierId::FAST,
            TierFaultKind::Offline,
            at(3),
            Some(at(5)),
        );
        let r = run(&RunConfig {
            faults: Some(plan),
            ..cfg(workload, PolicyKind::Kloc)
        })
        .unwrap();
        assert_eq!(r.ops, Scale::tiny().ops, "{workload:?}");
        assert_ne!(r.migrations, plain.migrations, "{workload:?}: no drain");
    }
}

#[test]
fn small_run_parks_members_under_the_park_oracle() {
    // Parking needs members that stay cold on the slow tier across
    // ticks, which tiny runs are too short to produce; every member
    // walk of this run re-checks the park invariant.
    use kloc_sim::engine::run_borrowing;
    let config = RunConfig {
        scale: Scale::small(),
        ..cfg(WorkloadKind::RocksDb, PolicyKind::Kloc)
    };
    let mut policy = PolicyKind::Kloc.build();
    let r = run_borrowing(&config, policy.as_mut()).unwrap();
    assert_eq!(r.ops, Scale::small().ops);
    let parks = policy.registry().map_or(0, |reg| reg.parks());
    assert!(parks > 0, "no member parked");
}
