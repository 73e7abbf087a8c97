//! `kloc-lint --explain KLNNN` — per-rule rationale, justification
//! pragma, and a minimal violating example.
//!
//! The examples are `include_str!`'d from `tests/fixtures/examples/`
//! (`klNNN.rs`) and each is
//! pinned by a self-test asserting it actually triggers its rule, so the
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
        id: "KL004",
        title: "no truncating casts on id-like values",
        rationale: "Inode numbers, epochs, and object ids are 64-bit; `as u32` silently wraps \
                    and aliases two objects into one KLOC. Use `From`/`try_from` so overflow is \
                    a visible error.",
        pragma: "// lint: truncation-ok — <why the truncation is the semantics>",
        example: include_str!("../tests/fixtures/examples/kl004.rs"),
    },
    RuleInfo {
        id: "KL008",
        title: "determinism taint into report-visible sinks",
        rationale: "KL001 flags sources; KL008 follows the dataflow. A value produced by \
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
    use crate::lint_source;

    #[test]
    fn every_rule_has_an_entry_and_renders() {
        let ids = ["KL001", "KL004", "KL008", "KL009"];
        for id in ids {
            let text = explain(id).expect(id);
            assert!(text.starts_with(id), "{text}");
            assert!(text.contains("pragma"), "{text}");
        }
        assert_eq!(RULES.len(), ids.len());
        assert!(explain("KL999").is_none());
        for gone in ["KL002", "KL003", "KL005", "KL006", "KL007"] {
            assert!(
                explain(gone).is_none(),
                "{gone} moved to clippy or was deleted"
            );
        }
        assert!(explain("kl001").is_some(), "lookup is case-insensitive");
    }

    #[test]
    fn examples_trigger_their_rules() {
        for rule in RULES {
            let diags = lint_source("example.rs", rule.example);
            assert!(
                diags.iter().any(|d| d.rule == rule.id),
                "example for {} does not trigger it: {diags:?}",
                rule.id
            );
        }
    }
}
