//! Runs `cargo clippy` on a crate and reads back its findings: the
//! oracle for the model-crate rules that moved from kloc-lint to the
//! toolchain (KL002, KL003 and KL005 to `crates/clippy.toml`, KL007's
//! undeclared-feature check to rustc's `unexpected_cfgs`). The unit
//! tests include this file by path, the integration tests as a module.

// Each test binary that includes this file uses a different part of it.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// One compiler finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// File, relative to the checked crate.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Lint name, e.g. `clippy::unwrap_used` or `unexpected_cfgs`.
    pub lint: String,
    /// `error` or `warning`.
    pub level: String,
    /// The `help:` messages attached to the finding.
    pub help: Vec<String>,
}

/// The directory of `lint`'s manifest, `crates/lint`.
fn lint_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Scratch space under the build's target directory: cargo's
/// `CARGO_TARGET_TMPDIR` for integration tests, and the same directory
/// found from the test binary (`<target>/<profile>/deps/..`) for unit
/// tests, which cargo gives no such variable.
pub fn target_tmpdir() -> PathBuf {
    match option_env!("CARGO_TARGET_TMPDIR") {
        Some(dir) => PathBuf::from(dir),
        None => std::env::current_exe()
            .expect("test binary path")
            .ancestors()
            .nth(3)
            .expect("target directory")
            .join("tmp"),
    }
}

/// Runs `cargo clippy` on every target of the crate at `manifest`,
/// reading the committed `crates/clippy.toml`, and returns its findings
/// sorted and deduplicated (the lib and lib-test builds repeat each
/// library finding). `target_dir` is its own, so the run never waits on
/// the lock of the build that runs the test.
pub fn clippy(manifest: &Path, target_dir: &Path) -> Vec<Finding> {
    let out = Command::new(env!("CARGO"))
        .args([
            "clippy",
            "--offline",
            "--quiet",
            "--keep-going",
            "--all-targets",
            "--message-format=json-diagnostic-short",
            "--manifest-path",
        ])
        .arg(manifest)
        // The committed configuration, not a copy of it.
        .env("CLIPPY_CONF_DIR", lint_dir().join(".."))
        .env("CARGO_TARGET_DIR", target_dir)
        .output()
        .expect("cargo clippy runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut findings: Vec<Finding> = stdout.lines().filter_map(parse_finding).collect();
    findings.sort();
    findings.dedup();
    assert!(
        !findings.is_empty(),
        "cargo clippy reported nothing (is clippy installed?): {}",
        String::from_utf8_lossy(&out.stderr)
    );
    findings
}

/// Reads one `--message-format=json-diagnostic-short` line. Its short
/// rendering is `file:line:col: level: message`; the lint name is the
/// one string-valued `"code"` (child notes carry `"code":null`), and
/// each help child reads `"level":"help","message":"…"`.
fn parse_finding(json: &str) -> Option<Finding> {
    if !json.contains(r#""reason":"compiler-message""#) {
        return None;
    }
    let code = &json[json.find(r#""code":""#)? + r#""code":""#.len()..];
    let lint = &code[..code.find('"')?];
    let rendered = &json[json.find(r#""rendered":""#)? + r#""rendered":""#.len()..];
    let mut parts = rendered.splitn(5, ':');
    let file = parts.next()?.to_owned();
    let line = parts.next()?.parse().ok()?;
    let _col = parts.next()?;
    let level = parts.next()?.trim().to_owned();
    const HELP: &str = r#""level":"help","message":""#;
    let help = json
        .match_indices(HELP)
        .filter_map(|(at, _)| {
            let msg = &json[at + HELP.len()..];
            Some(msg[..msg.find('"')?].to_owned())
        })
        .collect();
    Some(Finding {
        file,
        line,
        lint: lint.to_owned(),
        level,
        help,
    })
}

/// The fixture crate `tests/fixtures/clippy`: one compilable instance of
/// each violation the moved rules catch, next to sites they must leave
/// alone.
pub fn fixture_manifest() -> PathBuf {
    lint_dir().join("tests/fixtures/clippy/Cargo.toml")
}

/// The fixture crate's findings, computed once per test binary.
pub fn fixture_findings() -> &'static [Finding] {
    static FINDINGS: OnceLock<Vec<Finding>> = OnceLock::new();
    FINDINGS.get_or_init(|| clippy(&fixture_manifest(), &target_tmpdir().join("clippy_fixture")))
}

/// The fixture findings in one file, as `(line, lint)`.
pub fn fixture_findings_in(file: &str) -> Vec<(usize, &'static str)> {
    fixture_findings()
        .iter()
        .filter(|f| f.file == file)
        .map(|f| (f.line, f.lint.as_str()))
        .collect()
}

/// 1-based line of the first line of fixture `file` (relative to the
/// fixture crate) that contains `needle`.
pub fn fixture_line(file: &str, needle: &str) -> usize {
    let path = lint_dir().join("tests/fixtures/clippy").join(file);
    let source = std::fs::read_to_string(&path).expect("fixture readable");
    source
        .lines()
        .position(|l| l.contains(needle))
        .unwrap_or_else(|| panic!("{needle:?} not in {file}"))
        + 1
}
