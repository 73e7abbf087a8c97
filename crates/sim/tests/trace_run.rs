//! End-to-end tests for the `kloc-trace` collection path (behind
//! `required-features = ["trace"]`).
//!
//! Covers the two trace determinism oracles the ISSUE pins:
//!
//! 1. a committed golden trace byte-compares against a fresh run of the
//!    Fig. 4 RocksDB/KLOCs tiny cell, and
//! 2. session bytes are identical at 1/2/8 runner workers.
//!
//! The trace session is process-global, so every test takes `SESSION`
//! before touching it — Rust runs tests in one process.

use std::sync::Mutex;

use kloc_policy::PolicyKind;
use kloc_sim::engine::{Platform, RunConfig};
use kloc_sim::Runner;
use kloc_workloads::{Scale, WorkloadKind};

/// Serializes tests that use the process-global trace session.
static SESSION: Mutex<()> = Mutex::new(());

fn cell(workload: WorkloadKind, policy: PolicyKind) -> RunConfig {
    let scale = Scale::tiny();
    RunConfig {
        workload,
        policy,
        platform: Platform::TwoTier {
            fast_bytes: scale.fast_bytes,
            bw_ratio: 8,
        },
        scale,
        kernel_params: None,
        faults: None,
        budgets: Vec::new(),
    }
}

/// Runs `configs` under a fresh trace session and returns its bytes.
fn collect(runner: &Runner, configs: Vec<RunConfig>) -> String {
    kloc_trace::session_begin();
    runner.run_all(configs).expect("runs succeed");
    kloc_trace::session_take()
}

/// Panics with the first differing line instead of dumping two
/// multi-thousand-line documents.
fn assert_same_trace(got: &str, want: &str, what: &str) {
    if got == want {
        return;
    }
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{what}: first difference at line {}", i + 1);
    }
    panic!(
        "{what}: line counts differ ({} vs {})",
        got.lines().count(),
        want.lines().count()
    );
}

#[test]
fn golden_trace_matches() {
    let _session = SESSION.lock().unwrap();
    let got = collect(
        &Runner::serial(),
        vec![cell(WorkloadKind::RocksDb, PolicyKind::Kloc)],
    );
    let want = include_str!("fixtures/golden_trace.jsonl");
    // Regenerate after an intentional model change with a trace build:
    // repro run --workload rocksdb --policy kloc --scale tiny \
    //   --trace crates/sim/tests/fixtures/golden_trace.jsonl
    assert_same_trace(&got, want, "golden trace");
}

#[test]
fn golden_trace_is_well_formed() {
    let events = kloc_trace::Event::parse_all(include_str!("fixtures/golden_trace.jsonl"))
        .expect("golden trace parses");
    assert!(matches!(
        events.first(),
        Some(kloc_trace::Event::RunBegin { .. })
    ));
    assert!(matches!(
        events.last(),
        Some(kloc_trace::Event::RunEnd { .. })
    ));
    // Virtual timestamps never go backwards within a run.
    let mut last = 0;
    for ev in &events {
        assert!(ev.t() >= last, "clock went backwards at {}", ev.to_jsonl());
        last = ev.t();
    }
    // Re-serializing reproduces the file exactly (codec is bijective on
    // writer output).
    let round: String = events.iter().map(|e| e.to_jsonl()).collect();
    assert_same_trace(
        &round,
        include_str!("fixtures/golden_trace.jsonl"),
        "reserialized golden",
    );
}

#[test]
fn trace_bytes_independent_of_worker_count() {
    let _session = SESSION.lock().unwrap();
    let configs = vec![
        cell(WorkloadKind::RocksDb, PolicyKind::Kloc),
        cell(WorkloadKind::Redis, PolicyKind::Naive),
        cell(WorkloadKind::Filebench, PolicyKind::Nimble),
        cell(WorkloadKind::Cassandra, PolicyKind::Kloc),
        cell(WorkloadKind::Spark, PolicyKind::AllSlow),
        cell(WorkloadKind::Redis, PolicyKind::Kloc),
    ];
    let serial = collect(&Runner::new(1), configs.clone());
    assert!(!serial.is_empty());
    for jobs in [2, 8] {
        let parallel = collect(&Runner::new(jobs), configs.clone());
        assert_same_trace(&parallel, &serial, &format!("--jobs {jobs}"));
    }
}

#[test]
fn tenant_trace_bytes_independent_of_workers() {
    let _session = SESSION.lock().unwrap();
    let matrix = || {
        vec![
            cell(WorkloadKind::Tenants { budgeted: false }, PolicyKind::Kloc),
            cell(WorkloadKind::Tenants { budgeted: true }, PolicyKind::Kloc),
        ]
    };
    let baseline = collect(&Runner::new(1), matrix());
    assert!(!baseline.is_empty());
    // Budgets-off runs cross tenant boundaries, so the stream must carry
    // tenant_evict events; budgets-on runs must carry none (budgeted
    // tenants only ever self-evict).
    let events = kloc_trace::Event::parse_all(&baseline).expect("tenant trace parses");
    let mut evictions_per_run = vec![0u64];
    for ev in &events {
        if matches!(ev, kloc_trace::Event::RunEnd { .. }) {
            evictions_per_run.push(0);
        }
        if matches!(ev, kloc_trace::Event::TenantEvict { .. }) {
            if let Some(last) = evictions_per_run.last_mut() {
                *last += 1;
            }
        }
    }
    assert!(
        evictions_per_run[0] > 0,
        "budgets-off run must emit tenant_evict events"
    );
    assert_eq!(
        evictions_per_run[1], 0,
        "budgets-on run must emit no tenant_evict events"
    );
    for jobs in [2usize, 8] {
        let got = collect(&Runner::new(jobs), matrix());
        assert_same_trace(&got, &baseline, &format!("tenants --jobs {jobs}"));
    }
}

#[test]
fn no_session_produces_no_trace() {
    let _session = SESSION.lock().unwrap();
    assert!(!kloc_trace::session_active());
    Runner::serial()
        .run_all(vec![cell(WorkloadKind::Redis, PolicyKind::Naive)])
        .expect("run succeeds");
    assert_eq!(kloc_trace::session_take(), "");
}
