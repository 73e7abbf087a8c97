//! The `ktrace` CLI rejects unknown, extra and misplaced arguments with
//! its usage text instead of printing a normal analysis.

use std::process::{Command, Output};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_trace.jsonl"
);

fn ktrace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ktrace"))
        .args(args)
        .output()
        .expect("ktrace binary runs")
}

#[test]
fn stray_arguments_are_rejected_with_usage() {
    for args in [
        &["summary", GOLDEN, "--inode", "3"][..],
        &["rollup", GOLDEN, "extra"][..],
        // `--ino` belongs to `timeline` only.
        &["summary", GOLDEN, "--ino", "0"][..],
        &["schema", "--bogus"][..],
    ] {
        let out = ktrace(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must not run");
        assert!(stderr.contains("usage: ktrace"), "{args:?}: {stderr}");
    }
}

#[test]
fn timeline_accepts_ino() {
    let out = ktrace(&["timeline", GOLDEN, "--ino", "0"]);
    assert!(
        out.status.success(),
        "ktrace timeline --ino failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty());
}
