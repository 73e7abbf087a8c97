//! Regression suite for the structural rules (KL006–KL009): fixture
//! files pinned down to exact (file, line, rule) triples, scratch-copy
//! drift tests against the real workspace sources and manifests, `--fix`
//! application/idempotence checks, and the CLI's explicit-path mode.

use std::path::{Path, PathBuf};
use std::process::Command;

use kloc_lint::{apply_fixes, lint_crate, lint_manifests, lint_source, Diagnostic};

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

/// 1-based line of the first occurrence of `needle` in `text`.
fn line_at(text: &str, needle: &str) -> usize {
    let at = text.find(needle).expect("needle present");
    text[..at].matches('\n').count() + 1
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
fn kl006_fixture_pins_drift_and_missing_counterpart() {
    let diags = lint_fixture("kl006_shim_drift.rs");
    assert_eq!(
        triples(&diags),
        vec![
            ("kl006_shim_drift.rs".to_owned(), 13, "KL006"),
            ("kl006_shim_drift.rs".to_owned(), 16, "KL006"),
        ],
        "{diags:#?}"
    );
    // The drift diagnostic points back at the real half (both spans).
    assert!(diags[0].message.contains("drifted"), "{}", diags[0].message);
    assert!(
        diags[0]
            .notes
            .iter()
            .any(|n| n.contains("kl006_shim_drift.rs:8")),
        "{:?}",
        diags[0].notes
    );
    let fix = diags[0]
        .suggestion
        .as_ref()
        .expect("machine-applicable fix");
    assert_eq!(
        fix.replacement,
        "fn set_fault_plan(_plan: FaultPlan, _seed: u64)"
    );
    // The missing-counterpart diagnostic names both polarities.
    assert!(
        diags[1].message.contains("no counterpart"),
        "{}",
        diags[1].message
    );
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
/// inherits a copy of that table, declares `ksan` and gates an item on
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
         [workspace]\n\n{table}\n[lints]\nworkspace = true\n\n[features]\nksan = []\n"
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

/// Deleting a parameter from a real noop shim in a scratch copy of
/// `crates/trace/src/lib.rs` must trip KL006 with spans at both halves
/// (the noop line, and the real line in `recorder.rs` in the note).
#[test]
fn scratch_copy_shim_param_deletion_trips_kl006() {
    let root = workspace_root();
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).expect("trace source readable");
    let lib = read("crates/trace/src/lib.rs");
    let recorder = read("crates/trace/src/recorder.rs");
    let noop = "pub fn charge(_ns: u64) {}";
    assert!(
        lib.contains(noop),
        "expected real noop shim in trace lib.rs"
    );
    let mutated = lib.replace(noop, "pub fn charge() {}");
    let lint_trace = |lib: &str| {
        lint_crate(&[
            ("crates/trace/src/lib.rs", lib),
            ("crates/trace/src/recorder.rs", &recorder),
        ])
    };

    let diags = lint_trace(&mutated);
    let kl006: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "KL006").collect();
    assert_eq!(kl006.len(), 1, "{diags:#?}");
    assert_eq!(kl006[0].file, "crates/trace/src/lib.rs");
    assert_eq!(kl006[0].line, line_at(&mutated, "pub fn charge() {}"));
    let real_line = line_at(&recorder, "pub fn charge(ns: u64)");
    assert!(
        kl006[0]
            .notes
            .iter()
            .any(|n| n.contains(&format!("crates/trace/src/recorder.rs:{real_line}"))),
        "{:?}",
        kl006[0].notes
    );
    // And the untouched original lints clean.
    let clean = lint_trace(&lib);
    assert!(clean.is_empty(), "{clean:#?}");
}

/// Renaming the forwarded feature in a scratch copy of a real manifest
/// (`"kloc-trace/trace"` -> `"kloc-trace/tracee"`) must trip KL007 on
/// the feature's line, naming the dependency it no longer reaches.
#[test]
fn scratch_copy_feature_rename_trips_kl007() {
    let root = workspace_root();
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).expect("manifest readable");
    let trace = read("crates/trace/Cargo.toml");
    let mem = read("crates/mem/Cargo.toml");
    let forward = "trace = [\"kloc-trace/trace\"]";
    assert!(mem.contains(forward), "expected mem to forward trace");
    let mutated = mem.replace(forward, "trace = [\"kloc-trace/tracee\"]");

    let lint_mem = |mem: &str| {
        lint_manifests(&[
            ("crates/mem/Cargo.toml", mem),
            ("crates/trace/Cargo.toml", &trace),
        ])
    };
    let diags = lint_mem(&mutated);
    assert_eq!(
        triples(&diags),
        vec![(
            "crates/mem/Cargo.toml".to_owned(),
            line_at(&mutated, "trace = ["),
            "KL007"
        )],
        "{diags:#?}"
    );
    assert!(diags[0].message.contains("kloc-trace/trace"));
    assert!(diags[0]
        .notes
        .iter()
        .any(|n| n.contains("crates/trace/Cargo.toml")));
    // And the untouched original lints clean.
    let clean = lint_mem(&mem);
    assert!(clean.is_empty(), "{clean:#?}");
}

#[test]
fn fix_rewrites_drifted_noop_shim_signature() {
    let dir = scratch_dir("kl006fix");
    let rel = "kl006_shim_drift.rs";
    let source = std::fs::read_to_string(fixture_path(rel)).unwrap();
    std::fs::write(dir.join(rel), &source).unwrap();

    let before = lint_source(rel, &source);
    assert!(before.iter().any(|d| d.suggestion.is_some()), "{before:#?}");
    let changed = apply_fixes(&dir, &before).expect("fixes apply");
    assert_eq!(changed, vec![rel.to_owned()]);

    let fixed = std::fs::read_to_string(dir.join(rel)).unwrap();
    assert!(
        fixed.contains("fn set_fault_plan(_plan: FaultPlan, _seed: u64)"),
        "{fixed}"
    );
    let after = lint_source(rel, &fixed);
    // The drift is gone; only the (fixless) missing-counterpart remains.
    assert!(
        after.iter().all(|d| !d.message.contains("drifted")),
        "{after:#?}"
    );
    assert!(after.iter().all(|d| d.suggestion.is_none()), "{after:#?}");
    let changed_again = apply_fixes(&dir, &after).expect("noop fixes");
    assert!(changed_again.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn real_workspace_has_no_pending_fixes() {
    // CI enforces `--fix` idempotence on the working tree; this is the
    // in-process equivalent: a clean workspace offers no suggestions.
    let diags = kloc_lint::lint_workspace(&workspace_root()).expect("workspace readable");
    assert!(diags.is_empty(), "{diags:#?}");
    let changed = apply_fixes(&workspace_root(), &diags).expect("noop");
    assert!(changed.is_empty());
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
