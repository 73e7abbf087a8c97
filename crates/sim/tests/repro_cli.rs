//! The `repro` CLI on the default build: faults are selected at run
//! time, so `--fault-seed` and `chaos` work without any cargo feature,
//! and a misspelled flag or KSAN interval is an error instead of a
//! silently clean run.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    repro_with_ksan(args, None)
}

/// Runs `repro`, with `KLOC_KSAN_INTERVAL` set to `interval` or unset.
fn repro_with_ksan(args: &[&str], interval: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args).env_remove("KLOC_KSAN_INTERVAL");
    if let Some(interval) = interval {
        cmd.env("KLOC_KSAN_INTERVAL", interval);
    }
    cmd.output().expect("repro binary runs")
}

const TINY_RUN: [&str; 7] = [
    "run",
    "--workload",
    "rocksdb",
    "--policy",
    "kloc",
    "--scale",
    "tiny",
];

#[test]
fn fault_seed_injects_faults_on_the_default_build() {
    let out = repro(&[
        "run",
        "--workload",
        "rocksdb",
        "--policy",
        "kloc",
        "--scale",
        "tiny",
        "--fault-seed",
        "7",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "repro failed: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("report is UTF-8");
    assert!(
        stdout.contains("  faults: 6 disk I/O errors, 6 blk-mq retries"),
        "{stdout}"
    );
}

#[test]
fn chaos_runs_on_the_default_build() {
    let out = repro(&["chaos", "--scale", "tiny"]);
    assert!(
        out.status.success(),
        "repro chaos failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn misspelled_flags_are_rejected_with_usage() {
    for args in [
        &[
            "run",
            "--workload",
            "rocksdb",
            "--policy",
            "kloc",
            "--scale",
            "tiny",
            "--fault-sed",
            "7",
        ][..],
        &["fig4", "--scale", "tiny", "--jobz", "3"][..],
        // `--crash-points` belongs to `crashsweep` only.
        &["chaos", "--scale", "tiny", "--crash-points", "1"][..],
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must not run");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    }
}

#[test]
fn repeated_flags_are_rejected_with_usage() {
    for args in [
        &[
            "run",
            "--workload",
            "rocksdb",
            "--policy",
            "kloc",
            "--scale",
            "tiny",
            "--scale",
            "huge",
        ][..],
        &["fig4", "--scale", "tiny", "--jobs", "1", "--jobs", "2"][..],
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        assert!(out.stdout.is_empty(), "{args:?} must not run");
        assert!(stderr.contains("more than once"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    }
}

/// A KSAN interval that is not a positive integer is an error naming the
/// variable, not a silent fall back to the default (which in a release
/// build would mean no audit at all).
#[test]
fn invalid_ksan_interval_is_an_error_naming_the_variable() {
    for bad in ["abc", "0", "-3", ""] {
        let out = repro_with_ksan(&TINY_RUN, Some(bad));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bad:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bad:?} must not run");
        assert!(
            stderr.contains("KLOC_KSAN_INTERVAL must be a positive integer"),
            "{bad:?}: {stderr}"
        );
    }
}

/// Audits observe and never mutate: a run audited every 16 operations
/// prints the report of one audited at the default interval.
#[test]
fn tight_ksan_interval_leaves_the_report_unchanged() {
    let plain = repro_with_ksan(&TINY_RUN, None);
    let tight = repro_with_ksan(&TINY_RUN, Some("16"));
    assert!(
        tight.status.success(),
        "{}",
        String::from_utf8_lossy(&tight.stderr)
    );
    assert!(!plain.stdout.is_empty());
    assert_eq!(plain.stdout, tight.stdout);
}
