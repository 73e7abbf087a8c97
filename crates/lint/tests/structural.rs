//! Regression suite for the structural rules (KL006–KL009): fixture
//! files pinned down to exact (file, line, rule) triples, scratch-copy
//! drift tests against the real workspace sources, and `--fix`
//! application/idempotence checks.

use std::path::{Path, PathBuf};

use kloc_lint::{apply_fixes, lint_crate, lint_source, Diagnostic};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    let source = std::fs::read_to_string(fixture_path(name)).expect("fixture readable");
    lint_source(name, &source, false)
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

#[test]
fn kl007_flags_undeclared_feature_with_insertion_fix() {
    let manifest = "[package]\nname = \"scratch\"\n\n[features]\nksan = []\n";
    let src = "#[cfg(feature = \"tracing\")]\npub fn emit() {}\n";
    let diags = lint_crate(
        "Cargo.toml",
        manifest,
        &[("crates/scratch/src/lib.rs", src)],
    );
    let kl007: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "KL007").collect();
    assert_eq!(kl007.len(), 1, "{diags:#?}");
    assert_eq!(kl007[0].line, 1);
    assert!(kl007[0].message.contains("tracing"));
    let fix = kl007[0].suggestion.as_ref().expect("fix");
    assert_eq!(fix.file, "Cargo.toml");
    assert_eq!(fix.replacement, "tracing = []\n");
}

/// Deleting a parameter from a real noop shim in a scratch copy of
/// `crates/trace/src/lib.rs` must trip KL006 with spans at both halves
/// (the noop line, and the real line in `recorder.rs` in the note).
#[test]
fn scratch_copy_shim_param_deletion_trips_kl006() {
    let root = workspace_root();
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).expect("trace source readable");
    let manifest = read("crates/trace/Cargo.toml");
    let lib = read("crates/trace/src/lib.rs");
    let recorder = read("crates/trace/src/recorder.rs");
    let noop = "pub fn charge(_ns: u64) {}";
    assert!(
        lib.contains(noop),
        "expected real noop shim in trace lib.rs"
    );
    let mutated = lib.replace(noop, "pub fn charge() {}");
    let lint_trace = |lib: &str| {
        lint_crate(
            "crates/trace/Cargo.toml",
            &manifest,
            &[
                ("crates/trace/src/lib.rs", lib),
                ("crates/trace/src/recorder.rs", &recorder),
            ],
        )
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

/// Renaming a cfg feature in a scratch copy of a real trace source must
/// trip KL007 with spans at both halves (the cfg line, and the
/// manifest named in the message).
#[test]
fn scratch_copy_feature_rename_trips_kl007() {
    let root = workspace_root();
    let manifest = std::fs::read_to_string(root.join("crates/trace/Cargo.toml")).expect("manifest");
    let source = std::fs::read_to_string(root.join("crates/trace/src/lib.rs")).expect("lib.rs");
    assert!(source.contains("feature = \"trace\""));
    let mutated = source.replace("feature = \"trace\"", "feature = \"tracee\"");

    let diags = lint_crate(
        "crates/trace/Cargo.toml",
        &manifest,
        &[("crates/trace/src/lib.rs", &mutated)],
    );
    let kl007: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == "KL007").collect();
    assert!(!kl007.is_empty(), "{diags:#?}");
    assert_eq!(kl007[0].line, line_at(&mutated, "feature = \"tracee\""));
    assert!(kl007[0].message.contains("crates/trace/Cargo.toml"));
    assert!(kl007[0].suggestion.is_some());
}

#[test]
fn fix_applies_kl007_insertion_and_is_idempotent() {
    let dir = scratch_dir("kl007fix");
    let manifest = "[package]\nname = \"scratch\"\n\n[features]\nksan = []\n";
    let src = "#[cfg(feature = \"tracing\")]\npub fn emit() {}\n";
    std::fs::create_dir_all(dir.join("src")).unwrap();
    std::fs::write(dir.join("Cargo.toml"), manifest).unwrap();
    std::fs::write(dir.join("src/lib.rs"), src).unwrap();

    let lint_here = |root: &Path| {
        let m = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
        let s = std::fs::read_to_string(root.join("src/lib.rs")).unwrap();
        lint_crate("Cargo.toml", &m, &[("src/lib.rs", &s)])
    };

    let before = lint_here(&dir);
    assert!(before.iter().any(|d| d.rule == "KL007"), "{before:#?}");
    let changed = apply_fixes(&dir, &before).expect("fixes apply");
    assert_eq!(changed, vec!["Cargo.toml".to_owned()]);
    let fixed = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
    assert!(fixed.contains("tracing = []"), "{fixed}");

    let after = lint_here(&dir);
    assert!(after.iter().all(|d| d.rule != "KL007"), "{after:#?}");
    // Idempotence: a second --fix pass changes nothing.
    let changed_again = apply_fixes(&dir, &after).expect("noop fixes");
    assert!(changed_again.is_empty());
    assert_eq!(
        std::fs::read_to_string(dir.join("Cargo.toml")).unwrap(),
        fixed
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fix_rewrites_drifted_noop_shim_signature() {
    let dir = scratch_dir("kl006fix");
    let rel = "kl006_shim_drift.rs";
    let source = std::fs::read_to_string(fixture_path(rel)).unwrap();
    std::fs::write(dir.join(rel), &source).unwrap();

    let before = lint_source(rel, &source, false);
    assert!(before.iter().any(|d| d.suggestion.is_some()), "{before:#?}");
    let changed = apply_fixes(&dir, &before).expect("fixes apply");
    assert_eq!(changed, vec![rel.to_owned()]);

    let fixed = std::fs::read_to_string(dir.join(rel)).unwrap();
    assert!(
        fixed.contains("fn set_fault_plan(_plan: FaultPlan, _seed: u64)"),
        "{fixed}"
    );
    let after = lint_source(rel, &fixed, false);
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
