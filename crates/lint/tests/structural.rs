//! Regression suite for the structural rules (KL008, KL009): fixture
//! files pinned down to exact (file, line, rule) triples, the workspace's
//! undeclared-feature build error, a clean-workspace check, and the
//! CLI's explicit-path mode.

use std::path::{Path, PathBuf};
use std::process::Command;

use kloc_lint::{lint_source, Diagnostic};

#[path = "support/clippy.rs"]
mod toolchain;

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    let source = std::fs::read_to_string(fixture_path(name)).expect("fixture readable");
    lint_source(name, &source)
}

fn triples(diags: &[Diagnostic]) -> Vec<(String, usize, &'static str)> {
    diags
        .iter()
        .map(|d| (d.file.clone(), d.line, d.rule))
        .collect()
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kloc-lint-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn kl008_fixture_pins_report_field_and_sort_key() {
    let diags = lint_fixture("kl008_tainted_report.rs");
    assert_eq!(
        triples(&diags),
        vec![
            ("kl008_tainted_report.rs".to_owned(), 11, "KL008"),
            ("kl008_tainted_report.rs".to_owned(), 18, "KL008"),
        ],
        "{diags:#?}"
    );
    // Provenance: the report-field diagnostic names its taint source.
    assert!(
        diags[0]
            .notes
            .iter()
            .any(|n| n.contains("kl008_tainted_report.rs:10")),
        "{:?}",
        diags[0].notes
    );
}

#[test]
fn kl009_fixture_pins_touch_advance_and_diskop() {
    let diags = lint_fixture("kl009_uncharged.rs");
    assert_eq!(
        triples(&diags),
        vec![
            ("kl009_uncharged.rs".to_owned(), 7, "KL009"),
            ("kl009_uncharged.rs".to_owned(), 8, "KL009"),
            ("kl009_uncharged.rs".to_owned(), 12, "KL009"),
        ],
        "{diags:#?}"
    );
}

/// KL007's undeclared-feature check is rustc's `unexpected_cfgs` under
/// the workspace's `[workspace.lints.rust]` table. A scratch crate that
/// inherits a copy of that table, declares `audit` and gates an item on
/// `tracing` fails to build at that line, and rustc's help offers the
/// `Cargo.toml` insertion KL007's `--fix` used to make.
#[test]
fn kl007_flags_undeclared_feature_with_insertion_fix() {
    let root = std::fs::read_to_string(workspace_root().join("Cargo.toml"))
        .expect("root manifest readable");
    let header = "[workspace.lints.rust]";
    let table: String = root
        .lines()
        .skip_while(|l| l.trim() != header)
        .enumerate()
        .take_while(|(i, l)| *i == 0 || !l.starts_with('['))
        .map(|(_, l)| format!("{l}\n"))
        .collect();
    assert!(table.starts_with(header), "root manifest lacks {header}");

    let dir = scratch_dir("kl007");
    let manifest = format!(
        "[package]\nname = \"scratch\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\n\
         [workspace]\n\n{table}\n[lints]\nworkspace = true\n\n[features]\naudit = []\n"
    );
    std::fs::write(dir.join("Cargo.toml"), manifest).unwrap();
    std::fs::create_dir_all(dir.join("src")).unwrap();
    let src = "#[cfg(feature = \"tracing\")]\npub fn emit() {}\n";
    std::fs::write(dir.join("src/lib.rs"), src).unwrap();

    let target = toolchain::target_tmpdir().join("clippy_scratch");
    let found = toolchain::clippy(&dir.join("Cargo.toml"), &target);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(found.len(), 1, "{found:#?}");
    assert_eq!(
        (
            found[0].file.as_str(),
            found[0].line,
            found[0].lint.as_str()
        ),
        ("src/lib.rs", 1, "unexpected_cfgs")
    );
    assert_eq!(found[0].level, "error", "{found:#?}");
    let fix = "consider adding `tracing` as a feature in `Cargo.toml`";
    assert!(found[0].help.iter().any(|h| h == fix), "{found:#?}");
}

#[test]
fn real_workspace_lints_clean() {
    let diags = kloc_lint::lint_workspace(&workspace_root()).expect("workspace readable");
    assert!(diags.is_empty(), "{diags:#?}");
}

/// The CLI names each explicit path relative to the workspace root
/// before deciding which crate-scoped rules apply, so a KL009 file gives
/// the same diagnostics whether it is named relatively, with a leading
/// `./`, or absolutely.
#[test]
fn explicit_paths_arm_crate_rules_however_spelled() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("explicit_paths");
    let rel = "crates/kernel/src/probe/p.rs";
    std::fs::create_dir_all(root.join("crates/kernel/src/probe")).unwrap();
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
    std::fs::write(
        root.join(rel),
        "pub fn f(clock: &mut Clock) {\n    clock.advance(3);\n}\n",
    )
    .unwrap();

    let run = |arg: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_kloc-lint"))
            .arg(arg)
            .current_dir(&root)
            .output()
            .expect("kloc-lint runs");
        (
            out.status.code(),
            String::from_utf8(out.stdout).expect("utf-8"),
        )
    };
    let plain = run(rel);
    assert_eq!(plain.0, Some(1), "{plain:?}");
    assert!(
        plain.1.starts_with(&format!("{rel}:2: KL009 ")),
        "{plain:?}"
    );
    assert_eq!(run(&format!("./{rel}")), plain);
    assert_eq!(run(&root.join(rel).display().to_string()), plain);
}
