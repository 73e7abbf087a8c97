//! Structural determinism lint for the KLOCs workspace.
//!
//! Both seed bugs this repository has shipped were silent nondeterminism
//! from iterating an unordered collection (`kernel.rs` `by_inode`, the
//! AutoNUMA `app_pages` set). The simulation's contract is stronger than
//! "mostly deterministic": identical configs must produce byte-identical
//! reports, which forbids hash-order iteration, wall-clock time,
//! randomness, and ambient environment reads anywhere inside the
//! simulation crates — and, since PR 7, requires every frame touch and
//! disk submission to run through the exactly-charged clock APIs.
//!
//! v2 replaces the original token/line scanner with a structural
//! analyzer: a lossless lexer ([`lex`]), an item-level parser
//! ([`items`]) recovering `fn` signatures, bodies, and `#[cfg]` atoms,
//! and on top of them per-file token rules, an intra-procedural taint
//! pass, and two workspace-level rules that read every file of a crate
//! (and its `Cargo.toml`) at once.
//!
//! # Rules
//!
//! | id    | rule |
//! |-------|------|
//! | KL001 | no iteration over `HashMap`/`HashSet` (hash order is unstable) |
//! | KL002 | no wall clock / randomness / `std::env` in simulation crates |
//! | KL003 | no thread spawning in simulation crates (`kloc-sim` is the only sanctioned concurrency site) |
//! | KL004 | no truncating `as` casts on id/epoch-like values (use `From`/`try_from`) |
//! | KL005 | no `.unwrap()`/`.expect(..)` in simulation-crate non-test code (propagate the error) |
//! | KL006 | `#[cfg(feature = "X")]` / `#[cfg(not(feature = "X"))]` item pairs must expose identical signatures (feature-shim conformance) |
//! | KL007 | every feature referenced in `cfg`/`cfg_attr` must be declared in the crate's `Cargo.toml` and forwarded to declaring dependencies |
//! | KL008 | no dataflow from nondeterministic sources (hash iteration, pointer identity) into report-visible sinks (report fields, trace emits, sort keys) |
//! | KL009 | in `crates/kernel`/`crates/mem`, frame touches and `DiskOp` submissions must flow through a charged API (`access`, `access_batch`, `disk_retry`) |
//!
//! KL002/KL003/KL005 apply only to the simulation crates (`trace`,
//! `mem`, `kernel`, `core`, `policy`, `workloads`); the `kloc-sim`
//! harness legitimately reads CLI args and wall-clock time and spawns
//! its sweep threads. KL005 exempts everything from the first
//! `#[cfg(test)]` on (this workspace keeps unit tests in a trailing
//! `mod tests`). KL009 applies only to `crates/kernel` and
//! `crates/mem` non-test code.
//!
//! The workspace has two cargo features, `trace` and `ksan` (faults are
//! selected at run time by installing a plan). KL006 keeps the `trace`
//! recorder and its noop shims in sync; KL007 keeps both features
//! declared and forwarded through every manifest, and flags any `cfg`
//! left naming a feature that no longer exists.
//!
//! # Justification comments
//!
//! A violation that is provably harmless is silenced with a
//! justification comment on the same line or the line directly above:
//!
//! * `// lint: ordered-ok` — iteration order does not affect any report
//!   (KL001);
//! * `// lint: nondet-ok` — sanctioned ambient authority (KL002/KL003);
//! * `// lint: truncation-ok` — the truncation is the documented
//!   semantics (KL004);
//! * `// lint: unwrap-ok` — the value is provably present (KL005);
//! * `// lint: shim-ok` — an intentional real/noop signature divergence
//!   (KL006);
//! * `// lint: feature-ok` — a deliberately undeclared/unforwarded
//!   feature reference (KL007);
//! * `// lint: taint-ok` — the flow is order-insensitive, e.g. a
//!   commutative reduction (KL008);
//! * `// lint: charge-ok` — the site charges the clock through its own
//!   sanctioned path (KL009, e.g. the migration cost path).
//!
//! Appending `(file)` (e.g. `// lint: ordered-ok(file)`) silences the
//! rule for the whole file. `// lint: treat-as-sim-crate` opts a file
//! into the sim-crate rules and `// lint: treat-as-charged-crate` into
//! KL009 (both used by test fixtures).
//!
//! # Fixes and explanations
//!
//! Some diagnostics carry a machine-applicable [`Suggestion`]
//! (KL006 noop-shim signature drift, KL007 undeclared features);
//! `kloc-lint --fix` applies them. `kloc-lint --explain KL006` prints a
//! rule's rationale, its justification pragma, and a minimal violating
//! example sourced from the fixture suite.

#![warn(missing_docs)]

pub mod explain;
pub mod items;
pub mod lex;

mod conformance;
mod hygiene;
mod rules;
mod taint;

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

use items::ParsedFile;

/// A machine-applicable replacement attached to a [`Diagnostic`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Suggestion {
    /// File the replacement applies to (may differ from the diagnostic
    /// file, e.g. a `Cargo.toml` fix for a source-level finding).
    pub file: String,
    /// Byte offset where the replaced range starts.
    pub start: usize,
    /// Byte offset one past the replaced range (`start == end` inserts).
    pub end: usize,
    /// Replacement text.
    pub replacement: String,
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// File the finding is in (as passed to the linter).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (`KL001`..`KL009`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// Secondary spans and context, rendered as `note:` lines (e.g.
    /// the other half of a shim pair, a taint source).
    pub notes: Vec<String>,
    /// Machine-applicable fix, when one exists.
    pub suggestion: Option<Suggestion>,
}

impl Diagnostic {
    /// A diagnostic with no notes and no suggestion.
    pub fn new(file: &str, line: usize, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic {
            file: file.to_owned(),
            line,
            rule,
            message,
            notes: Vec::new(),
            suggestion: None,
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
        if self.suggestion.is_some() {
            write!(f, "\n  fix: available (run `kloc-lint --fix`)")?;
        }
        Ok(())
    }
}

/// Rule id: iteration over an unordered collection.
pub const RULE_UNORDERED_ITER: &str = "KL001";
/// Rule id: nondeterministic API (time, randomness, env) in a sim crate.
pub const RULE_NONDET_API: &str = "KL002";
/// Rule id: thread spawning in a sim crate.
pub const RULE_THREAD_SPAWN: &str = "KL003";
/// Rule id: truncating cast on an id/epoch-like value.
pub const RULE_TRUNCATING_CAST: &str = "KL004";
/// Rule id: `.unwrap()`/`.expect(..)` in sim-crate non-test code.
pub const RULE_UNWRAP: &str = "KL005";
/// Rule id: feature-shim signature drift between `cfg` polarities.
pub const RULE_SHIM_CONFORMANCE: &str = "KL006";
/// Rule id: cfg feature hygiene (undeclared or unforwarded features).
pub const RULE_CFG_HYGIENE: &str = "KL007";
/// Rule id: determinism taint reaching a report-visible sink.
pub const RULE_DETERMINISM_TAINT: &str = "KL008";
/// Rule id: uncharged frame touch / disk submission.
pub const RULE_CLOCK_CHARGE: &str = "KL009";

/// Per-file allow state parsed from justification comments.
pub(crate) struct Allows {
    file_wide: [bool; 8],
    lines: [BTreeSet<usize>; 8],
    treat_as_sim: bool,
    treat_as_charged: bool,
}

const ALLOW_TOKENS: [&str; 8] = [
    "ordered-ok",
    "nondet-ok",
    "truncation-ok",
    "unwrap-ok",
    "shim-ok",
    "feature-ok",
    "taint-ok",
    "charge-ok",
];

fn allow_slot(rule: &str) -> usize {
    match rule {
        RULE_UNORDERED_ITER => 0,
        RULE_NONDET_API | RULE_THREAD_SPAWN => 1,
        RULE_TRUNCATING_CAST => 2,
        RULE_UNWRAP => 3,
        RULE_SHIM_CONFORMANCE => 4,
        RULE_CFG_HYGIENE => 5,
        RULE_DETERMINISM_TAINT => 6,
        RULE_CLOCK_CHARGE => 7,
        _ => unreachable!("unknown rule"),
    }
}

pub(crate) fn parse_allows(source: &str) -> Allows {
    let mut allows = Allows {
        file_wide: [false; 8],
        lines: Default::default(),
        treat_as_sim: false,
        treat_as_charged: false,
    };
    for (idx, line) in source.lines().enumerate() {
        let lineno = idx + 1;
        let Some(pos) = line.find("lint:") else {
            continue;
        };
        let directive = line[pos + "lint:".len()..].trim();
        if directive.starts_with("treat-as-sim-crate") {
            allows.treat_as_sim = true;
            continue;
        }
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

/// Replaces comments and string/char literal contents with spaces,
/// preserving line structure. Retained from the v1 scanner as a public
/// utility (external callers greped through it); the rules themselves
/// now work on the token stream.
pub fn strip_comments_and_strings(source: &str) -> String {
    let tokens = lex::lex(source);
    let mut out = String::with_capacity(source.len());
    for tok in &tokens {
        let text = tok.text(source);
        match tok.kind {
            lex::TokenKind::LineComment | lex::TokenKind::BlockComment => {
                for c in text.chars() {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                }
            }
            lex::TokenKind::Str | lex::TokenKind::Char => {
                // Keep the delimiting quotes of plain literals so the
                // output still reads as code; blank the contents.
                let chars: Vec<char> = text.chars().collect();
                for (i, c) in chars.iter().enumerate() {
                    let keep = *c == '"' && (i == 0 || i == chars.len() - 1);
                    out.push(if keep {
                        '"'
                    } else if *c == '\n' {
                        '\n'
                    } else {
                        ' '
                    });
                }
            }
            _ => out.push_str(text),
        }
    }
    out
}

/// Lints one file's source text. `sim_crate` enables the
/// KL002/KL003/KL005 rules (files inside
/// `crates/{trace,mem,kernel,core,policy,workloads}`). KL009 arms for
/// files under `crates/kernel`/`crates/mem` (or the
/// `treat-as-charged-crate` pragma). KL006 pairs within the single
/// file; cross-file pairs need [`lint_workspace`].
pub fn lint_source(file: &str, source: &str, sim_crate: bool) -> Vec<Diagnostic> {
    let allows = parse_allows(source);
    let sim_crate = sim_crate || allows.treat_as_sim;
    let charged_crate = is_charged_crate_path(Path::new(file)) || allows.treat_as_charged;
    let parsed = ParsedFile::parse(source);

    let mut out = rules::check_file(file, &parsed, sim_crate, charged_crate, &allows);
    out.extend(taint::check_file(file, &parsed, &allows));
    out.extend(conformance::check_crate(
        &[(file.to_owned(), &parsed)],
        &|f, line| {
            debug_assert_eq!(f, file);
            allows.allowed(RULE_SHIM_CONFORMANCE, line)
        },
    ));
    out.sort();
    out.dedup();
    out
}

/// Lints a set of in-memory files as one crate against an in-memory
/// `Cargo.toml`: per-file rules plus crate-level KL006 pairing and
/// KL007 hygiene. Entry point for fixtures, `--explain` self-tests,
/// and external tooling that wants crate-level checks without a
/// workspace on disk.
pub fn lint_crate(
    manifest_rel: &str,
    manifest_text: &str,
    files: &[(&str, &str)],
) -> Vec<Diagnostic> {
    let parsed: Vec<(String, ParsedFile, Allows)> = files
        .iter()
        .map(|(name, source)| {
            (
                (*name).to_owned(),
                ParsedFile::parse(source),
                parse_allows(source),
            )
        })
        .collect();
    let mut out = Vec::new();
    for (name, pf, allows) in &parsed {
        let rel = Path::new(name);
        let test_path = is_test_path(rel);
        let sim = is_sim_crate_path(rel) || allows.treat_as_sim;
        let charged = (is_charged_crate_path(rel) && !test_path) || allows.treat_as_charged;
        let mut diags = rules::check_file(name, pf, sim, charged, allows);
        diags.extend(taint::check_file(name, pf, allows));
        out.extend(
            diags
                .into_iter()
                .filter(|d| !(test_path && d.rule == RULE_UNWRAP)),
        );
    }
    let refs: Vec<(String, &ParsedFile)> =
        parsed.iter().map(|(n, pf, _)| (n.clone(), pf)).collect();
    let allowed_for = |rule: &'static str, file: &str, line: usize| {
        parsed
            .iter()
            .find(|(n, _, _)| n == file)
            .is_some_and(|(_, _, a)| a.allowed(rule, line))
    };
    out.extend(conformance::check_crate(&refs, &|file, line| {
        allowed_for(RULE_SHIM_CONFORMANCE, file, line)
    }));
    let manifest = hygiene::Manifest::parse(manifest_rel, manifest_text);
    let mut all = std::collections::BTreeMap::new();
    if !manifest.package_name.is_empty() {
        all.insert(
            manifest.package_name.clone(),
            hygiene::Manifest::parse(manifest_rel, manifest_text),
        );
    }
    out.extend(hygiene::check_crate(
        &manifest,
        &refs,
        &all,
        &|file, line| allowed_for(RULE_CFG_HYGIENE, file, line),
    ));
    out.sort();
    out.dedup();
    out
}

/// Whether a workspace-relative path is test-only code (an integration
/// `tests/` tree or a `benches/` tree): exempt from KL005/KL009, which
/// target code that runs inside simulations.
pub fn is_test_path(rel: &Path) -> bool {
    rel.components()
        .any(|c| matches!(c.as_os_str().to_str(), Some("tests" | "benches")))
}

/// Whether a workspace-relative path belongs to a simulation crate
/// (where the KL002/KL003/KL005 rules apply).
pub fn is_sim_crate_path(rel: &Path) -> bool {
    const SIM_CRATES: &[&str] = &["trace", "mem", "kernel", "core", "policy", "workloads"];
    crate_component(rel).is_some_and(|c| SIM_CRATES.contains(&c.as_str()))
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

/// Lints every workspace source file under `root`, then runs the
/// crate-level rules (KL006 across each crate's files, KL007 against
/// each crate's `Cargo.toml`). Paths in diagnostics are
/// workspace-relative.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut out = Vec::new();
    // Crate name -> [(rel path, source, parsed, allows)].
    let mut by_crate: std::collections::BTreeMap<String, Vec<(String, ParsedFile, Allows)>> =
        std::collections::BTreeMap::new();
    for path in workspace_files(root)? {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        let rel_str = rel.display().to_string();
        let source = std::fs::read_to_string(&path)?;
        let allows = parse_allows(&source);
        let parsed = ParsedFile::parse(&source);
        let test_path = is_test_path(&rel);
        let sim = is_sim_crate_path(&rel) || allows.treat_as_sim;
        let charged = (is_charged_crate_path(&rel) && !test_path) || allows.treat_as_charged;

        let mut diags = rules::check_file(&rel_str, &parsed, sim, charged, &allows);
        diags.extend(taint::check_file(&rel_str, &parsed, &allows));
        out.extend(
            diags
                .into_iter()
                .filter(|d| !(test_path && d.rule == RULE_UNWRAP)),
        );

        let crate_name = crate_component(&rel).unwrap_or_else(|| "klocs".to_owned());
        by_crate
            .entry(crate_name)
            .or_default()
            .push((rel_str, parsed, allows));
    }
    for (crate_name, files) in &by_crate {
        let refs: Vec<(String, &ParsedFile)> =
            files.iter().map(|(p, f, _)| (p.clone(), f)).collect();
        let allowed = |file: &str, line: usize| {
            files
                .iter()
                .find(|(p, _, _)| p == file)
                .is_some_and(|(_, _, a)| a.allowed(RULE_SHIM_CONFORMANCE, line))
        };
        out.extend(conformance::check_crate(&refs, &allowed));

        let manifest_rel = if crate_name == "klocs" {
            "Cargo.toml".to_owned()
        } else {
            format!("crates/{crate_name}/Cargo.toml")
        };
        let manifest_path = root.join(&manifest_rel);
        if let Ok(text) = std::fs::read_to_string(&manifest_path) {
            let manifest = hygiene::Manifest::parse(&manifest_rel, &text);
            let all = workspace_manifests(root)?;
            let hygiene_allowed = |file: &str, line: usize| {
                files
                    .iter()
                    .find(|(p, _, _)| p == file)
                    .is_some_and(|(_, _, a)| a.allowed(RULE_CFG_HYGIENE, line))
            };
            out.extend(hygiene::check_crate(
                &manifest,
                &refs,
                &all,
                &hygiene_allowed,
            ));
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

/// Parses every crate manifest in the workspace (the root `Cargo.toml`
/// plus `crates/*/Cargo.toml`), keyed by package name.
pub(crate) fn workspace_manifests(
    root: &Path,
) -> std::io::Result<std::collections::BTreeMap<String, hygiene::Manifest>> {
    let mut out = std::collections::BTreeMap::new();
    let mut paths = vec![("Cargo.toml".to_owned(), root.join("Cargo.toml"))];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for dir in entries {
            let manifest = dir.join("Cargo.toml");
            if manifest.is_file() {
                let rel = manifest
                    .strip_prefix(root)
                    .unwrap_or(&manifest)
                    .display()
                    .to_string();
                paths.push((rel, manifest));
            }
        }
    }
    for (rel, path) in paths {
        if let Ok(text) = std::fs::read_to_string(&path) {
            let m = hygiene::Manifest::parse(&rel, &text);
            if !m.package_name.is_empty() {
                out.insert(m.package_name.clone(), m);
            }
        }
    }
    Ok(out)
}

/// Applies every machine-applicable suggestion in `diags` to the files
/// under `root`. Returns the list of files changed. Overlapping
/// suggestions are applied first-wins (later overlapping ones are
/// skipped); running the lint again converges because applied fixes
/// remove their diagnostics.
pub fn apply_fixes(root: &Path, diags: &[Diagnostic]) -> std::io::Result<Vec<String>> {
    let mut by_file: std::collections::BTreeMap<String, Vec<&Suggestion>> =
        std::collections::BTreeMap::new();
    for d in diags {
        if let Some(s) = &d.suggestion {
            by_file.entry(s.file.clone()).or_default().push(s);
        }
    }
    let mut changed = Vec::new();
    for (file, mut suggestions) in by_file {
        let path = root.join(&file);
        let mut text = std::fs::read_to_string(&path)?;
        suggestions.sort_by_key(|s| (s.start, s.end));
        // Apply back-to-front so earlier offsets stay valid; skip
        // overlaps (first in offset order wins).
        let mut kept: Vec<&Suggestion> = Vec::new();
        let mut last_end = 0usize;
        for s in &suggestions {
            if s.start >= last_end && s.end <= text.len() {
                kept.push(s);
                last_end = s.end.max(s.start + 1);
            }
        }
        for s in kept.iter().rev() {
            text.replace_range(s.start..s.end, &s.replacement);
        }
        std::fs::write(&path, &text)?;
        changed.push(file);
    }
    Ok(changed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let s = "let a = 1; // HashMap iter\n/* Instant::now */ let b = 2;";
        let c = strip_comments_and_strings(s);
        assert!(!c.contains("HashMap"));
        assert!(!c.contains("Instant"));
        assert!(c.contains("let a = 1;"));
        assert!(c.contains("let b = 2;"));
    }

    #[test]
    fn strips_strings_and_raw_strings() {
        let s = r####"let a = "std::env"; let b = r#"thread_rng"#; let c = 'x';"####;
        let c = strip_comments_and_strings(s);
        assert!(!c.contains("std::env"));
        assert!(!c.contains("thread_rng"));
        assert!(c.contains("let a ="));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let s = "fn f<'a>(x: &'a str) -> &'a str { x }\nlet m: HashMap<u8, u8> = HashMap::new();\nm.keys();";
        let d = lint_source("t.rs", s, false);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE_UNORDERED_ITER);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn flags_iteration_over_hash_fields() {
        let s = "struct S { frame_key: HashMap<u32, u32> }\nimpl S { fn f(&self) { for k in self.frame_key.keys() {} } }";
        let d = lint_source("t.rs", s, false);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
        assert_eq!(d[0].rule, RULE_UNORDERED_ITER);
    }

    #[test]
    fn ordered_ok_silences_same_and_next_line() {
        let s = "fn f() {\nlet m: HashSet<u8> = HashSet::new();\n// lint: ordered-ok — counts only\nfor x in &m {}\nm.iter(); // lint: ordered-ok\n}";
        assert!(lint_source("t.rs", s, false).is_empty());
    }

    #[test]
    fn file_wide_allow() {
        let s = "// lint: ordered-ok(file)\nlet m: HashMap<u8,u8> = HashMap::new();\nm.keys();\nm.values();";
        assert!(lint_source("t.rs", s, false).is_empty());
    }

    #[test]
    fn lookups_are_not_flagged() {
        let s = "let m: HashMap<u8,u8> = HashMap::new();\nm.get(&1); m.insert(1,2); m.remove(&1); m.contains_key(&1); m.len();";
        assert!(lint_source("t.rs", s, false).is_empty());
    }

    #[test]
    fn nondet_rules_only_in_sim_crates() {
        let s = "fn f() {\nlet t = Instant::now();\nstd::thread::spawn(|| {});\n}";
        assert!(lint_source("t.rs", s, false).is_empty());
        let d = lint_source("t.rs", s, true);
        let rules: Vec<&str> = d.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&RULE_NONDET_API), "{d:?}");
        assert!(rules.contains(&RULE_THREAD_SPAWN), "{d:?}");
    }

    #[test]
    fn truncating_casts_on_ids() {
        let s = "let a = inode.0 as u32;\nlet b = epoch as u16;\nlet c = len as u32;\nlet d = frame_id as u8;";
        let d = lint_source("t.rs", s, false);
        let lines: Vec<usize> = d.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![1, 2, 4], "{d:?}");
        assert!(d.iter().all(|d| d.rule == RULE_TRUNCATING_CAST));
    }

    #[test]
    fn widening_casts_are_fine() {
        let s = "let a = inode.0 as u64;\nlet b = id as usize;\nlet c = x as u32;";
        assert!(lint_source("t.rs", s, false).is_empty());
    }

    #[test]
    fn unwrap_flagged_only_in_sim_crates_outside_tests() {
        let s = "fn f() { x.unwrap(); y.expect(\"msg\"); z.unwrap_or(3); }\n#[cfg(test)]\nmod tests { fn g() { a.unwrap(); } }";
        assert!(lint_source("t.rs", s, false).is_empty());
        let d = lint_source("t.rs", s, true);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|d| d.rule == RULE_UNWRAP && d.line == 1));
    }

    #[test]
    fn multiline_expect_is_caught() {
        // The v1 line scanner missed `.expect(` split across lines.
        let s = "fn f() {\n    y\n        .expect(\n            \"msg\",\n        );\n}";
        let d = lint_source("t.rs", s, true);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE_UNWRAP);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn patterns_inside_strings_do_not_fire() {
        let s =
            "fn f() { let msg = \"call Instant::now or x.unwrap() on a HashMap\"; let _ = msg; }";
        assert!(lint_source("t.rs", s, true).is_empty());
    }

    #[test]
    fn unwrap_ok_justification_silences() {
        let s = "fn f() {\n// lint: unwrap-ok — inserted two lines up\nx.unwrap();\ny.expect(\"present\"); // lint: unwrap-ok\n}";
        assert!(lint_source("t.rs", s, true).is_empty());
    }

    #[test]
    fn sim_crate_paths() {
        assert!(is_sim_crate_path(Path::new("crates/mem/src/system.rs")));
        assert!(is_sim_crate_path(Path::new("crates/policy/src/kloc.rs")));
        assert!(is_sim_crate_path(Path::new("crates/trace/src/recorder.rs")));
        assert!(!is_sim_crate_path(Path::new("crates/sim/src/engine.rs")));
        assert!(!is_sim_crate_path(Path::new("crates/lint/src/lib.rs")));
        assert!(!is_sim_crate_path(Path::new("src/lib.rs")));
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
