//! Crash-model byte-identity against fixed references: `repro
//! crashsweep --scale tiny` and `repro chaos --scale tiny` must print
//! exactly their committed goldens, and every crash point of the tiny
//! sweep must recover the same ledger (replayed and torn records, and
//! the number of durable pages `recover` returns). The reports alone
//! would not notice a crash model that kept a different set of pages,
//! so the ledger pins `recovered.pages.len()` per crash point.

use std::fmt::Write as _;
use std::process::Command;

use kloc_policy::PolicyKind;
use kloc_sim::crashsweep;
use kloc_workloads::{Scale, WorkloadKind};

/// Panics at the first line where `got` and `golden` differ.
fn assert_same_lines(what: &str, got: &str, golden: &str) {
    if let Some((i, (g, w))) = got
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
    {
        panic!("{what} line {}: got {g:?}, golden {w:?}", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        golden.lines().count(),
        "{what} length differs from the golden:\n{got}"
    );
}

fn repro_stdout(experiment: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([experiment, "--scale", "tiny"])
        .output()
        .expect("repro binary runs");
    assert!(
        out.status.success(),
        "repro {experiment} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("report is UTF-8")
}

#[test]
fn crashsweep_tiny_matches_golden() {
    assert_same_lines(
        "crashsweep",
        &repro_stdout("crashsweep"),
        include_str!("fixtures/repro_crashsweep_tiny.txt"),
    );
}

#[test]
fn chaos_tiny_matches_golden() {
    assert_same_lines(
        "chaos",
        &repro_stdout("chaos"),
        include_str!("fixtures/repro_chaos_tiny.txt"),
    );
}

#[test]
fn crashsweep_tiny_recovers_the_golden_ledger() {
    let mut got = String::new();
    for w in [WorkloadKind::Filebench, WorkloadKind::RocksDb] {
        let summary =
            crashsweep::sweep(w, PolicyKind::Kloc, &Scale::tiny(), 2).expect("sweep completes");
        writeln!(got, "# {} / {}", summary.workload, summary.policy).unwrap();
        for o in &summary.outcomes {
            writeln!(
                got,
                "commit {} after {} at {}: replayed {} torn {} pages {} violations {}",
                o.commit,
                o.after_blocks,
                o.at.as_nanos(),
                o.replayed,
                o.torn,
                o.pages,
                o.violations.len(),
            )
            .unwrap();
        }
    }
    assert_same_lines(
        "ledger",
        &got,
        include_str!("fixtures/crashsweep_ledger_tiny.txt"),
    );
}
