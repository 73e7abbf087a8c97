//! Determinism contract of the multi-tenant runs: the per-tenant
//! breakdown (and the whole report it rides in) is byte-identical at any
//! runner worker count and any value of the inert `KernelParams::shards`
//! compatibility field, with budgets on or off. The tenant bookkeeping
//! (owner stamping, self-eviction FIFOs, cross-eviction attribution)
//! must not observe scheduling or that field.
//!
//! The trace-bytes half of this contract lives in `trace_run.rs`, which
//! owns the process-global trace session mutex.

use kloc_kernel::KernelParams;
use kloc_policy::PolicyKind;
use kloc_sim::engine::{Platform, RunConfig, RunReport};
use kloc_sim::Runner;
use kloc_workloads::{Scale, WorkloadKind};

/// Both tenant modes under the two policies the experiment exercises.
fn matrix(scale: &Scale, shards: Option<u32>) -> Vec<RunConfig> {
    let mut configs = Vec::new();
    for budgeted in [false, true] {
        for policy in [PolicyKind::Kloc, PolicyKind::Naive] {
            configs.push(RunConfig {
                workload: WorkloadKind::Tenants { budgeted },
                policy,
                scale: scale.clone(),
                platform: Platform::TwoTier {
                    fast_bytes: scale.fast_bytes,
                    bw_ratio: 8,
                },
                kernel_params: shards.map(|shards| KernelParams {
                    page_cache_budget: scale.page_cache_frames,
                    shards,
                    ..KernelParams::default()
                }),
                faults: None,
                budgets: Vec::new(),
            });
        }
    }
    configs
}

fn assert_same_reports(baseline: &[RunReport], got: &[RunReport], what: &str) {
    assert_eq!(baseline.len(), got.len(), "{what}: report count");
    for (i, (b, g)) in baseline.iter().zip(got).enumerate() {
        assert_eq!(b.tenants, g.tenants, "run {i}: tenant breakdown ({what})");
        assert_eq!(b, g, "run {i}: full report ({what})");
    }
}

#[test]
fn tenant_reports_independent_of_worker_count() {
    let scale = Scale::tiny();
    let baseline = Runner::new(1)
        .run_all(matrix(&scale, None))
        .expect("tenant matrix");
    assert!(
        baseline.iter().all(|r| r.tenants.len() == 3),
        "every run reports all three tenants"
    );
    for jobs in [2usize, 8] {
        let got = Runner::new(jobs)
            .run_all(matrix(&scale, None))
            .expect("tenant matrix");
        assert_same_reports(&baseline, &got, &format!("--jobs {jobs}"));
    }
}

#[test]
fn tenant_reports_independent_of_shard_count() {
    let scale = Scale::tiny();
    let baseline = Runner::serial()
        .run_all(matrix(&scale, Some(1)))
        .expect("tenant matrix");
    for shards in [2u32, 4, 8] {
        let got = Runner::serial()
            .run_all(matrix(&scale, Some(shards)))
            .expect("tenant matrix");
        assert_same_reports(&baseline, &got, &format!("--shards {shards}"));
    }
}

#[test]
fn single_tenant_runs_report_no_tenants() {
    let scale = Scale::tiny();
    let r = Runner::serial()
        .run_all(vec![RunConfig::two_tier(
            WorkloadKind::RocksDb,
            PolicyKind::Kloc,
            scale,
        )])
        .expect("run");
    assert!(r[0].tenants.is_empty());
}
