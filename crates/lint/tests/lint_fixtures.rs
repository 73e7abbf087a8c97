//! The lint's own regression suite: fixture files with known violations,
//! asserted down to the exact (file, line, rule id) triples. The rules
//! that moved to the toolchain (KL002, KL003, KL005 and KL007's
//! undeclared-feature check) are pinned the same way, as the exact
//! `(file, line, lint)` findings of `cargo clippy` on the fixture crate
//! `tests/fixtures/clippy`, read against the committed
//! `crates/clippy.toml`.

use std::path::Path;

use kloc_lint::{lint_source, Diagnostic};

#[path = "support/clippy.rs"]
mod toolchain;

use toolchain::{fixture_findings, fixture_findings_in, Finding};

fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let source = std::fs::read_to_string(&path).expect("fixture readable");
    lint_source(name, &source)
}

fn triples(diags: &[Diagnostic]) -> Vec<(String, usize, &'static str)> {
    diags
        .iter()
        .map(|d| (d.file.clone(), d.line, d.rule))
        .collect()
}

#[test]
fn unordered_iteration_fixture() {
    let diags = lint_fixture("unordered_iter.rs");
    assert_eq!(
        triples(&diags),
        vec![
            ("unordered_iter.rs".to_owned(), 13, "KL001"),
            ("unordered_iter.rs".to_owned(), 17, "KL001"),
            ("unordered_iter.rs".to_owned(), 22, "KL001"),
        ],
        "{diags:#?}"
    );
    assert!(diags[0].message.contains("by_inode"));
    assert!(diags[2].message.contains("drain"));
}

#[test]
fn truncating_cast_fixture() {
    let diags = lint_fixture("truncating_cast.rs");
    assert_eq!(
        triples(&diags),
        vec![
            ("truncating_cast.rs".to_owned(), 6, "KL004"),
            ("truncating_cast.rs".to_owned(), 11, "KL004"),
            ("truncating_cast.rs".to_owned(), 16, "KL004"),
            ("truncating_cast.rs".to_owned(), 31, "KL004"),
            ("truncating_cast.rs".to_owned(), 35, "KL004"),
        ],
        "{diags:#?}"
    );
}

#[test]
fn clean_fixture_is_clean() {
    let diags = lint_fixture("clean.rs");
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn diagnostics_render_as_file_line_rule() {
    let diags = lint_fixture("truncating_cast.rs");
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("truncating_cast.rs:6: KL004 "),
        "{rendered}"
    );
}

#[test]
fn workspace_is_clean() {
    // The acceptance bar: the lint exits 0 on the workspace itself.
    // CARGO_MANIFEST_DIR = crates/lint, two levels below the root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let diags = kloc_lint::lint_workspace(&root).expect("workspace readable");
    assert!(diags.is_empty(), "workspace must lint clean: {diags:#?}");
}

/// Wall clock, `SystemTime`, `RandomState`, each `std::env` read and
/// each thread spawn (formerly KL002/KL003), including the renamed
/// `Instant as Clock` import and the `env::var_os` module path that the
/// token matcher missed. The `#[expect]`-justified `std::env::args`
/// read in `sanctioned` and the local `sim_clock::Instant` stay silent.
#[test]
fn nondet_api_fixture() {
    const TYPES: &str = "clippy::disallowed_types";
    const METHODS: &str = "clippy::disallowed_methods";
    assert_eq!(
        fixture_findings_in("src/nondet_api.rs"),
        vec![
            (4, TYPES),
            (6, TYPES),
            (9, TYPES),
            (10, TYPES),
            (11, TYPES),
            (16, TYPES),
            (22, METHODS),
            (27, METHODS),
            (32, TYPES),
            (33, TYPES),
            (38, METHODS),
            (39, METHODS),
            (40, METHODS),
        ],
        "{:#?}",
        fixture_findings()
    );
}

/// Library unwrap/expect, including a call split across lines (formerly
/// KL005). The `#[expect]`-justified site, the `unwrap_or` fallback, the
/// `BTreeMap` read and the unwrap in `#[cfg(test)]` stay silent.
#[test]
fn unwrap_result_fixture() {
    assert_eq!(
        fixture_findings_in("src/unwrap_result.rs"),
        vec![
            (8, "clippy::unwrap_used"),
            (13, "clippy::expect_used"),
            (18, "clippy::expect_used"),
        ],
        "{:#?}",
        fixture_findings()
    );
}

/// `cfg`, `cfg_attr`, `cfg!` and a nested `all(.., not(..))` naming an
/// undeclared feature (formerly KL007's first check). Declared features
/// of either polarity stay silent.
#[test]
fn undeclared_feature_fixture() {
    assert_eq!(
        fixture_findings_in("src/undeclared_feature.rs"),
        vec![
            (5, "unexpected_cfgs"),
            (9, "unexpected_cfgs"),
            (14, "unexpected_cfgs"),
            (18, "unexpected_cfgs"),
            (32, "unexpected_cfgs"),
        ],
        "{:#?}",
        fixture_findings()
    );
}

/// Every finding is one of those pinned above.
#[test]
fn clippy_fixture_has_no_other_findings() {
    let pinned = [
        "src/nondet_api.rs",
        "src/unwrap_result.rs",
        "src/undeclared_feature.rs",
    ];
    let stray: Vec<&Finding> = fixture_findings()
        .iter()
        .filter(|f| !pinned.contains(&f.file.as_str()))
        .collect();
    assert!(stray.is_empty(), "{stray:#?}");
}
