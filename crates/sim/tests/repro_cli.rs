//! The `repro` CLI on the default build: faults are selected at run
//! time, so `--fault-seed` and `chaos` work without any cargo feature,
//! and a misspelled flag is an error instead of a silently clean run.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

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
