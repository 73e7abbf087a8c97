//! kfault integration: the crash-recovery sweep is clean end-to-end,
//! faultless runs are unaffected by the fault machinery, and seeded
//! fault plans are deterministic and visible in the report.

use kloc_mem::{FaultPlan, Nanos};
use kloc_policy::PolicyKind;
use kloc_sim::crashsweep;
use kloc_sim::engine::{self, RunConfig};
use kloc_workloads::{Scale, WorkloadKind};

fn cfg(faults: Option<FaultPlan>) -> RunConfig {
    RunConfig {
        faults,
        ..RunConfig::two_tier(WorkloadKind::RocksDb, PolicyKind::Kloc, Scale::tiny())
    }
}

#[test]
fn crashsweep_on_tiny_is_violation_free() {
    let summary = crashsweep::sweep(WorkloadKind::RocksDb, PolicyKind::Kloc, &Scale::tiny(), 2)
        .expect("sweep completes");
    assert!(summary.commits > 0);
    assert_eq!(summary.violations(), 0, "{}", summary.render());
    // The sweep must exercise both torn records (boundary and
    // mid-commit crashes leave an incomplete record behind) and clean
    // crashes right after a full commit (nothing torn, commit replays).
    assert!(summary.outcomes.iter().any(|o| o.torn > 0));
    assert!(summary
        .outcomes
        .iter()
        .any(|o| o.torn == 0 && o.replayed > 0));
}

#[test]
fn faultless_runs_ignore_the_compiled_in_machinery() {
    let plain = engine::run(&cfg(None)).expect("plain run");
    let empty_plan = engine::run(&cfg(Some(FaultPlan::new()))).expect("empty-plan run");
    assert_eq!(plain, empty_plan, "an empty plan must not perturb the run");
    assert_eq!(plain.io_errors, 0);
    assert_eq!(plain.io_retries, 0);
}

#[test]
fn seeded_fault_runs_are_deterministic_and_report_their_faults() {
    let baseline = engine::run(&cfg(None)).expect("baseline");
    let horizon = baseline.setup_time + baseline.elapsed;
    let plan = FaultPlan::seeded(7, horizon);
    assert!(!plan.is_empty());
    let a = engine::run(&cfg(Some(plan.clone()))).expect("seeded run");
    let b = engine::run(&cfg(Some(plan))).expect("seeded run repeat");
    assert_eq!(a, b, "same plan, same run");
    assert!(
        a.io_errors > 0 && a.io_retries > 0,
        "seeded plan must inject disk faults the kernel retries \
         (io_errors={}, io_retries={})",
        a.io_errors,
        a.io_retries
    );
    // Retries stall the virtual clock, so the faulted run is slower.
    assert!(a.elapsed + a.setup_time > Nanos::ZERO);
    assert_ne!(a.elapsed, baseline.elapsed);
}

#[test]
fn transient_disk_faults_do_not_change_the_outcome() {
    // A burst shorter than the retry budget is fully absorbed: same op
    // count, same final kernel state, only timing and I/O stats differ.
    let plan = FaultPlan::new().with_disk_fault(Nanos::ZERO, kloc_mem::DiskOp::Write, 2);
    let faulted = engine::run(&cfg(Some(plan))).expect("faulted run");
    let plain = engine::run(&cfg(None)).expect("plain run");
    assert_eq!(faulted.ops, plain.ops);
    assert_eq!(faulted.kernel.cache_hits, plain.kernel.cache_hits);
    assert_eq!(faulted.io_errors, 2);
    assert_eq!(faulted.io_retries, 2);
}
