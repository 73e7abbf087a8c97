//! Report byte-identity against a fixed reference: `repro all --scale
//! tiny` must print exactly the committed golden. Hot-path refactors
//! must not move a single report byte; a change that moves a figure on
//! purpose re-records `fixtures/repro_all_tiny.txt` in the same commit
//! and says why.

use std::process::Command;

#[test]
fn repro_all_tiny_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--scale", "tiny", "--jobs", "2"])
        .output()
        .expect("repro binary runs");
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("report is UTF-8");
    let golden = include_str!("fixtures/repro_all_tiny.txt");
    if let Some((i, (g, w))) = got
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w)
    {
        panic!("line {}: got {g:?}, golden {w:?}", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        golden.lines().count(),
        "report length differs from the golden"
    );
}
