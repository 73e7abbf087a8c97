//! `kloc-lint --explain KLNNN` — per-rule rationale, justification
//! pragma, and a minimal violating example.
//!
//! The examples are `include_str!`'d from
//! `tests/fixtures/examples/klNNN.rs` and each is pinned by a
//! self-test asserting it actually triggers its rule, so the
//! documentation cannot drift from the analyzer.

/// Everything `--explain` prints for one rule.
pub struct RuleInfo {
    /// Rule id (`KL001`…).
    pub id: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// Why the rule exists in this workspace.
    pub rationale: &'static str,
    /// The justification pragma that silences it.
    pub pragma: &'static str,
    /// Minimal violating example (from the fixture suite).
    pub example: &'static str,
}

/// The rule table, in id order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "KL001",
        title: "no iteration over HashMap/HashSet",
        rationale: "Hash iteration order is randomized per process. Both seed bugs this \
                    repository shipped (`by_inode`, the AutoNUMA `app_pages` set) were hash-order \
                    iteration reaching a report. Use BTreeMap/BTreeSet, or collect and sort by a \
                    deterministic key.",
        pragma: "// lint: ordered-ok — <why order cannot reach a report>",
        example: include_str!("../tests/fixtures/examples/kl001.rs"),
    },
    RuleInfo {
        id: "KL002",
        title: "no wall clock / randomness / env in simulation crates",
        rationale: "All simulation time comes from the virtual clock; all randomness from seeded \
                    SplitMix64 streams. `Instant::now`, `SystemTime`, `thread_rng`, `std::env` \
                    make reports differ between hosts and runs.",
        pragma: "// lint: nondet-ok — <why this ambient authority is sanctioned>",
        example: include_str!("../tests/fixtures/examples/kl002.rs"),
    },
    RuleInfo {
        id: "KL003",
        title: "no thread spawning in simulation crates",
        rationale: "kloc-sim owns all concurrency: shard workers join deterministically and \
                    merge in shard order. A stray thread inside a simulation crate reintroduces \
                    scheduling nondeterminism the sharded runner was built to exclude.",
        pragma: "// lint: nondet-ok — <why this thread is sanctioned>",
        example: include_str!("../tests/fixtures/examples/kl003.rs"),
    },
    RuleInfo {
        id: "KL004",
        title: "no truncating casts on id-like values",
        rationale: "Inode numbers, epochs, and object ids are 64-bit; `as u32` silently wraps \
                    and aliases two objects into one KLOC. Use `From`/`try_from` so overflow is \
                    a visible error.",
        pragma: "// lint: truncation-ok — <why the truncation is the semantics>",
        example: include_str!("../tests/fixtures/examples/kl004.rs"),
    },
    RuleInfo {
        id: "KL005",
        title: "no unwrap/expect in simulation-crate non-test code",
        rationale: "A panic inside a simulation aborts the whole sweep and loses every completed \
                    run. Propagate errors to the harness, which records the failure and keeps \
                    the other configurations running.",
        pragma: "// lint: unwrap-ok — <why the value is provably present>",
        example: include_str!("../tests/fixtures/examples/kl005.rs"),
    },
    RuleInfo {
        id: "KL006",
        title: "feature-shim conformance",
        rationale: "The `trace` noop shims must expose exactly the API of their real recorder \
                    halves, or the build with the other polarity stops compiling — and nobody \
                    builds both locally. The analyzer pairs every public fn under \
                    cfg(feature = \"X\") with its cfg(not(feature = \"X\")) counterpart (including \
                    across files, via the cfg on the `mod` declaration) and compares signatures. \
                    `--fix` rewrites a drifted noop signature from the real half.",
        pragma: "// lint: shim-ok — <why the halves intentionally diverge>",
        example: include_str!("../tests/fixtures/examples/kl006.rs"),
    },
    RuleInfo {
        id: "KL007",
        title: "cfg feature hygiene",
        rationale: "A feature name referenced in cfg but not declared in Cargo.toml can never be \
                    enabled — the gated code silently vanishes from every build. And a feature \
                    declared here but not forwarded to a dependency that declares the same \
                    feature splits the workspace: half the shims stay disabled. `--fix` inserts \
                    the missing declaration.",
        pragma: "// lint: feature-ok — <why the reference/forwarding is intentional>",
        example: include_str!("../tests/fixtures/examples/kl007.rs"),
    },
    RuleInfo {
        id: "KL008",
        title: "determinism taint into report-visible sinks",
        rationale: "KL001/KL002 flag sources; KL008 follows the dataflow. A value produced by \
                    hash-order iteration or pointer identity (`as *const`, `.as_ptr()`, \
                    `addr_of!`) is tracked through let bindings, for patterns, and assignments; \
                    the diagnostic fires only when it reaches a report field, a kloc-trace emit, \
                    or a sort key — with the source→sink path in the message.",
        pragma: "// lint: taint-ok — <why the flow is order-insensitive>",
        example: include_str!("../tests/fixtures/examples/kl008.rs"),
    },
    RuleInfo {
        id: "KL009",
        title: "clock-charge discipline",
        rationale: "Every frame touch and DiskOp submission in crates/kernel and crates/mem must \
                    flow through a charged API (`access`, `access_batch`, `charge`, \
                    `disk_retry`) so the virtual clock sees exactly one cost per operation — \
                    the PR 7 batching contract. Raw `frames.touch`/`clock.advance` calls and \
                    DiskOps constructed outside the retry path bypass the accounting.",
        pragma: "// lint: charge-ok — <which sanctioned path charges this cost>",
        example: include_str!("../tests/fixtures/examples/kl009.rs"),
    },
];

/// Looks up a rule by id (case-insensitive).
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    let id = id.to_ascii_uppercase();
    RULES.iter().find(|r| r.id == id)
}

/// Renders the full `--explain` text for a rule id.
pub fn explain(id: &str) -> Option<String> {
    let r = rule_info(id)?;
    let mut out = String::new();
    out.push_str(&format!("{}: {}\n\n", r.id, r.title));
    out.push_str(r.rationale);
    out.push_str("\n\njustification pragma:\n    ");
    out.push_str(r.pragma);
    out.push_str("\n\nexample (from tests/fixtures/examples/):\n");
    for line in r.example.lines() {
        out.push_str("    ");
        out.push_str(line);
        out.push('\n');
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_crate, lint_source};

    #[test]
    fn every_rule_has_an_entry_and_renders() {
        let ids = [
            "KL001", "KL002", "KL003", "KL004", "KL005", "KL006", "KL007", "KL008", "KL009",
        ];
        for id in ids {
            let text = explain(id).expect(id);
            assert!(text.starts_with(id), "{text}");
            assert!(text.contains("pragma"), "{text}");
        }
        assert_eq!(RULES.len(), ids.len());
        assert!(explain("KL999").is_none());
        assert!(explain("kl001").is_some(), "lookup is case-insensitive");
    }

    #[test]
    fn examples_trigger_their_rules() {
        for rule in RULES {
            let diags = if rule.id == "KL007" {
                // Hygiene needs the manifest the example's cfg is
                // missing from.
                lint_crate(
                    "Cargo.toml",
                    "[package]\nname = \"example\"\n",
                    &[("example.rs", rule.example)],
                )
            } else {
                lint_source("example.rs", rule.example, false)
            };
            assert!(
                diags.iter().any(|d| d.rule == rule.id),
                "example for {} does not trigger it: {diags:?}",
                rule.id
            );
        }
    }
}
