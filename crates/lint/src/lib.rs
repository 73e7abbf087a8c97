//! Structural determinism lint for the KLOCs workspace.
//!
//! Both seed bugs this repository has shipped were silent nondeterminism
//! from iterating an unordered collection (`kernel.rs` `by_inode`, the
//! AutoNUMA `app_pages` set). The simulation's contract is stronger than
//! "mostly deterministic": identical configs must produce byte-identical
//! reports, which forbids hash-order iteration, wall-clock time,
//! randomness, and ambient environment reads anywhere inside the model
//! crates, and requires every frame touch and disk submission to run
//! through the exactly-charged clock APIs.
//!
//! The checks that name resolution does better live in the toolchain:
//! `crates/clippy.toml` bans wall-clock, entropy, `std::env` and thread
//! APIs in the model crates (`trace`, `mem`, `kernel`, `core`, `policy`,
//! `workloads`), each model crate's `lib.rs` denies
//! `clippy::unwrap_used`/`clippy::expect_used`, and the workspace denies
//! rustc's `unexpected_cfgs`, which rejects a `cfg` naming an undeclared
//! feature. This crate keeps the four rules clippy cannot express: a
//! lossless lexer ([`lex`]) and an item-level parser ([`items`])
//! recovering `fn` signatures, bodies and `#[cfg(test)]` scopes, and on
//! top of them per-file token rules (KL001, KL004, KL009) and an
//! intra-procedural taint pass (KL008).
//!
//! # Rules
//!
//! | id    | rule |
//! |-------|------|
//! | KL001 | no iteration over `HashMap`/`HashSet` (hash order is unstable) |
//! | KL004 | no truncating `as` casts on id/epoch-like values (use `From`/`try_from`) |
//! | KL008 | no dataflow from nondeterministic sources (hash iteration, pointer identity) into report-visible sinks (report fields, trace emits, sort keys) |
//! | KL009 | in `crates/kernel`/`crates/mem`, frame touches and `DiskOp` submissions must flow through a charged API (`access`, `access_batch`, `disk_retry`) |
//!
//! KL002, KL003 and KL005 moved to clippy; KL006 (feature-shim
//! conformance) and KL007 (feature forwarding) went with the cargo
//! features they guarded, as the workspace has none left; their ids are
//! not reused. KL009 applies only to `crates/kernel` and `crates/mem`
//! non-test code.
//!
//! # Justification comments
//!
//! A violation that is provably harmless is silenced with a
//! justification comment on the same line or the line directly above:
//!
//! * `// lint: ordered-ok` — iteration order does not affect any report
//!   (KL001);
//! * `// lint: truncation-ok` — the truncation is the documented
//!   semantics (KL004);
//! * `// lint: taint-ok` — the flow is order-insensitive, e.g. a
//!   commutative reduction (KL008);
//! * `// lint: charge-ok` — the site charges the clock through its own
//!   sanctioned path (KL009, e.g. the migration cost path).
//!
//! Appending `(file)` (e.g. `// lint: ordered-ok(file)`) silences the
//! rule for the whole file. `// lint: treat-as-charged-crate` opts a
//! file into KL009 (used by test fixtures).
//!
//! # Explanations
//!
//! `kloc-lint --explain KL001` prints a rule's rationale, its
//! justification pragma, and a minimal violating example sourced from
//! the fixture suite.

#![warn(missing_docs)]

pub mod explain;
pub mod items;
pub mod lex;

mod rules;
mod taint;

/// The `cargo clippy` oracle for the rules that moved to the toolchain.
#[cfg(test)]
#[path = "../tests/support/clippy.rs"]
mod toolchain;

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

use items::ParsedFile;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// File the finding is in, workspace-relative when linted from disk.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (one of [`explain::RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// Secondary spans and context, rendered as `note:` lines (e.g.
    /// a taint source).
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A diagnostic with no notes.
    pub fn new(file: &str, line: usize, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic {
            file: file.to_owned(),
            line,
            rule,
            message,
            notes: Vec::new(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.file, self.line, self.rule, self.message
        )?;
        for note in &self.notes {
            write!(f, "\n  note: {note}")?;
        }
        Ok(())
    }
}

/// Rule id: iteration over an unordered collection.
pub const RULE_UNORDERED_ITER: &str = "KL001";
/// Rule id: truncating cast on an id/epoch-like value.
pub const RULE_TRUNCATING_CAST: &str = "KL004";
/// Rule id: determinism taint reaching a report-visible sink.
pub const RULE_DETERMINISM_TAINT: &str = "KL008";
/// Rule id: uncharged frame touch / disk submission.
pub const RULE_CLOCK_CHARGE: &str = "KL009";

/// Per-file allow state parsed from justification comments.
pub(crate) struct Allows {
    file_wide: [bool; 4],
    lines: [BTreeSet<usize>; 4],
    treat_as_charged: bool,
}

const ALLOW_TOKENS: [&str; 4] = ["ordered-ok", "truncation-ok", "taint-ok", "charge-ok"];

fn allow_slot(rule: &str) -> usize {
    match rule {
        RULE_UNORDERED_ITER => 0,
        RULE_TRUNCATING_CAST => 1,
        RULE_DETERMINISM_TAINT => 2,
        RULE_CLOCK_CHARGE => 3,
        _ => unreachable!("rule has no source pragma"),
    }
}

pub(crate) fn parse_allows(source: &str) -> Allows {
    let mut allows = Allows {
        file_wide: [false; 4],
        lines: Default::default(),
        treat_as_charged: false,
    };
    for (idx, line) in source.lines().enumerate() {
        let lineno = idx + 1;
        let Some(pos) = line.find("lint:") else {
            continue;
        };
        let directive = line[pos + "lint:".len()..].trim();
        if directive.starts_with("treat-as-charged-crate") {
            allows.treat_as_charged = true;
            continue;
        }
        for (slot, token) in ALLOW_TOKENS.iter().enumerate() {
            if let Some(rest) = directive.strip_prefix(token) {
                if rest.trim_start().starts_with("(file)") {
                    allows.file_wide[slot] = true;
                } else {
                    // The justification covers its own line and the next.
                    allows.lines[slot].insert(lineno);
                    allows.lines[slot].insert(lineno + 1);
                }
            }
        }
    }
    allows
}

impl Allows {
    pub(crate) fn allowed(&self, rule: &str, line: usize) -> bool {
        let slot = allow_slot(rule);
        self.file_wide[slot] || self.lines[slot].contains(&line)
    }
}

/// A parsed source file with its justification comments.
struct SourceFile {
    rel: String,
    parsed: ParsedFile,
    allows: Allows,
}

impl SourceFile {
    fn new(rel: &str, source: &str) -> SourceFile {
        SourceFile {
            rel: rel.to_owned(),
            parsed: ParsedFile::parse(source),
            allows: parse_allows(source),
        }
    }

    /// The per-file rules: token rules and taint. KL009 arms for
    /// non-test files under `crates/kernel`/`crates/mem` (or the
    /// `treat-as-charged-crate` pragma).
    fn check(&self) -> Vec<Diagnostic> {
        let rel = Path::new(&self.rel);
        let charged =
            (is_charged_crate_path(rel) && !is_test_path(rel)) || self.allows.treat_as_charged;
        let mut out = rules::check_file(&self.rel, &self.parsed, charged, &self.allows);
        out.extend(taint::check_file(&self.rel, &self.parsed, &self.allows));
        out
    }
}

/// Lints one file's source text. `file` is workspace-relative: it
/// decides whether KL009 applies.
pub fn lint_source(file: &str, source: &str) -> Vec<Diagnostic> {
    let mut out = SourceFile::new(file, source).check();
    out.sort();
    out.dedup();
    out
}

/// Whether a workspace-relative path is test-only code (an integration
/// `tests/` tree or a `benches/` tree): exempt from KL009, which
/// targets code that runs inside simulations.
pub fn is_test_path(rel: &Path) -> bool {
    rel.components()
        .any(|c| matches!(c.as_os_str().to_str(), Some("tests" | "benches")))
}

/// Whether a workspace-relative path belongs to a crate under the
/// KL009 clock-charge discipline (`crates/kernel`, `crates/mem`).
pub fn is_charged_crate_path(rel: &Path) -> bool {
    crate_component(rel).is_some_and(|c| c == "kernel" || c == "mem")
}

fn crate_component(rel: &Path) -> Option<String> {
    let mut comps = rel.components().map(|c| c.as_os_str().to_string_lossy());
    if comps.next().as_deref() != Some("crates") {
        return None;
    }
    comps.next().map(|c| c.into_owned())
}

/// Collects the workspace `.rs` files to lint under `root`, skipping
/// build output and the lint's own violation fixtures.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if path.is_dir() {
                if name == "target" || name == "fixtures" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints every workspace source file under `root`. Paths in diagnostics
/// are workspace-relative.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut out = Vec::new();
    for path in workspace_files(root)? {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let source = std::fs::read_to_string(&path)?;
        out.extend(SourceFile::new(&rel.display().to_string(), &source).check());
    }
    out.sort();
    out.dedup();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifetimes_are_not_char_literals() {
        let s = "fn f<'a>(x: &'a str) -> &'a str { x }\nlet m: HashMap<u8, u8> = HashMap::new();\nm.keys();";
        let d = lint_source("t.rs", s);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE_UNORDERED_ITER);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn flags_iteration_over_hash_fields() {
        let s = "struct S { frame_key: HashMap<u32, u32> }\nimpl S { fn f(&self) { for k in self.frame_key.keys() {} } }";
        let d = lint_source("t.rs", s);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
        assert_eq!(d[0].rule, RULE_UNORDERED_ITER);
    }

    #[test]
    fn ordered_ok_silences_same_and_next_line() {
        let s = "fn f() {\nlet m: HashSet<u8> = HashSet::new();\n// lint: ordered-ok — counts only\nfor x in &m {}\nm.iter(); // lint: ordered-ok\n}";
        assert!(lint_source("t.rs", s).is_empty());
    }

    #[test]
    fn file_wide_allow() {
        let s = "// lint: ordered-ok(file)\nlet m: HashMap<u8,u8> = HashMap::new();\nm.keys();\nm.values();";
        assert!(lint_source("t.rs", s).is_empty());
    }

    #[test]
    fn lookups_are_not_flagged() {
        let s = "let m: HashMap<u8,u8> = HashMap::new();\nm.get(&1); m.insert(1,2); m.remove(&1); m.contains_key(&1); m.len();";
        assert!(lint_source("t.rs", s).is_empty());
    }

    #[test]
    fn truncating_casts_on_ids() {
        let s = "let a = inode.0 as u32;\nlet b = epoch as u16;\nlet c = len as u32;\nlet d = frame_id as u8;";
        let d = lint_source("t.rs", s);
        let lines: Vec<usize> = d.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![1, 2, 4], "{d:?}");
        assert!(d.iter().all(|d| d.rule == RULE_TRUNCATING_CAST));
    }

    #[test]
    fn widening_casts_are_fine() {
        let s = "let a = inode.0 as u64;\nlet b = id as usize;\nlet c = x as u32;";
        assert!(lint_source("t.rs", s).is_empty());
    }

    #[test]
    fn patterns_inside_strings_do_not_fire() {
        let s = "fn f() { let msg = \"m.keys() on a HashMap, inode as u32, clock.advance(3)\"; let _ = msg; }";
        assert!(lint_source("crates/mem/src/t.rs", s).is_empty());
    }

    /// The crates under `crates/`, and those among them whose nearest
    /// `clippy.toml` is the model-crate one: clippy reads the first
    /// `clippy.toml` found walking up from a crate's manifest, so a crate
    /// carrying its own is out of the model-crate bans.
    fn crates_and_model_crates() -> (Vec<String>, Vec<String>) {
        let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut all: Vec<String> = std::fs::read_dir(&crates)
            .expect("crates dir")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.join("Cargo.toml").is_file())
            .map(|p| p.file_name().expect("name").to_string_lossy().into_owned())
            .collect();
        all.sort();
        let model = all
            .iter()
            .filter(|c| !crates.join(c).join("clippy.toml").exists())
            .cloned()
            .collect();
        (all, model)
    }

    fn read_crates_file(rel: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(rel);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    const MODEL_CRATES: [&str; 6] = ["core", "kernel", "mem", "policy", "trace", "workloads"];

    /// KL002/KL003 are `disallowed-types`/`disallowed-methods` in
    /// `crates/clippy.toml`: they reach exactly the model crates, stop at
    /// the `kloc-sim` and `kloc-lint` overrides, and clippy flags a wall
    /// clock and a thread spawn under them.
    #[test]
    fn nondet_rules_only_in_sim_crates() {
        let (all, model) = crates_and_model_crates();
        assert_eq!(model, MODEL_CRATES, "crates under crates/clippy.toml");
        let bans = read_crates_file("clippy.toml");
        for path in [
            "std::time::Instant",
            "std::hash::RandomState",
            "std::env::var",
        ] {
            assert!(bans.contains(&format!("\"{path}\"")), "{path} not banned");
        }
        assert!(bans.contains("\"std::thread::spawn\""));
        for harness in all.iter().filter(|c| !model.contains(c)) {
            let conf = read_crates_file(&format!("{harness}/clippy.toml"));
            assert!(!conf.contains("disallowed"), "{harness} must not ban");
        }
        let found = toolchain::fixture_findings_in("src/nondet_api.rs");
        let line = |needle| toolchain::fixture_line("src/nondet_api.rs", needle);
        assert!(found.contains(&(
            line("std::time::Instant::now()"),
            "clippy::disallowed_types"
        )));
        assert!(found.contains(&(line("std::thread::spawn("), "clippy::disallowed_methods")));
    }

    /// KL005 is `clippy::unwrap_used`/`clippy::expect_used`, denied by
    /// each model crate's `lib.rs` and by no other crate's, and allowed
    /// in `#[cfg(test)]` code by `crates/clippy.toml`.
    #[test]
    fn unwrap_flagged_only_in_sim_crates_outside_tests() {
        const HEADER: &str = "#![deny(clippy::unwrap_used, clippy::expect_used)]";
        let (all, model) = crates_and_model_crates();
        for krate in &all {
            let lib = read_crates_file(&format!("{krate}/src/lib.rs"));
            let denies = lib.lines().any(|l| l == HEADER);
            assert_eq!(denies, model.contains(krate), "{krate}/src/lib.rs");
        }
        let conf = read_crates_file("clippy.toml");
        assert!(conf.contains("allow-unwrap-in-tests = true"));
        assert!(conf.contains("allow-expect-in-tests = true"));
        let found = toolchain::fixture_findings_in("src/unwrap_result.rs");
        let lib_unwrap = toolchain::fixture_line("src/unwrap_result.rs", "map.get(&1).unwrap()");
        let test_unwrap = toolchain::fixture_line("src/unwrap_result.rs", "\"3\".parse().unwrap()");
        assert!(
            found.contains(&(lib_unwrap, "clippy::unwrap_used")),
            "{found:?}"
        );
        assert!(found.iter().all(|&(l, _)| l != test_unwrap), "{found:?}");
    }

    /// An `.expect(` split across lines is one call, reported once, at
    /// the line its receiver chain starts.
    #[test]
    fn multiline_expect_is_caught() {
        let file = "src/unwrap_result.rs";
        let found = toolchain::fixture_findings_in(file);
        let chain = toolchain::fixture_line(file, "    *frames");
        let expect = toolchain::fixture_line(file, "        .expect(");
        let in_chain: Vec<_> = found
            .iter()
            .filter(|&&(l, _)| (chain..=expect).contains(&l))
            .collect();
        assert_eq!(in_chain, [&(chain, "clippy::expect_used")], "{found:?}");
    }

    /// The `// lint: unwrap-ok` pragma became `#[expect(.., reason)]`:
    /// the justified unwrap is silent, and the expectation is fulfilled
    /// (a stale one would be an `unfulfilled_lint_expectations` finding).
    #[test]
    fn unwrap_ok_justification_silences() {
        let file = "src/unwrap_result.rs";
        let attr = toolchain::fixture_line(file, "#[expect(clippy::unwrap_used");
        let found = toolchain::fixture_findings_in(file);
        // `guarded`'s unwrap sits two lines below its attribute.
        assert!(
            found.iter().all(|&(l, _)| !(attr..=attr + 2).contains(&l)),
            "{found:?}"
        );
        assert!(
            toolchain::fixture_findings()
                .iter()
                .all(|f| f.lint != "unfulfilled_lint_expectations"),
            "{:#?}",
            toolchain::fixture_findings()
        );
    }

    #[test]
    fn charged_crate_paths() {
        assert!(is_charged_crate_path(Path::new("crates/mem/src/system.rs")));
        assert!(is_charged_crate_path(Path::new(
            "crates/kernel/src/kernel.rs"
        )));
        assert!(!is_charged_crate_path(Path::new(
            "crates/core/src/knode.rs"
        )));
        assert!(!is_charged_crate_path(Path::new(
            "crates/sim/src/engine.rs"
        )));
    }
}
