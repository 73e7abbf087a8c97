//! KL008 — intra-procedural determinism taint.
//!
//! For each function body, values produced by nondeterministic sources
//! are tracked through `let` bindings, `for` patterns, and simple
//! assignments (to a fixpoint, three passes — enough for the
//! straight-line dataflow this workspace writes). A diagnostic fires
//! when a tainted value, or a source expression directly, reaches a
//! report-visible sink. The diagnostic carries the provenance chain so
//! the reader sees the actual source→sink path, not a per-line guess.
//!
//! Sources:
//! * iteration over a `HashMap`/`HashSet` (hash order);
//! * pointer identity: `as *const` / `as *mut` casts, `.as_ptr()`,
//!   `addr_of!` — machine addresses vary run to run.
//!
//! Sinks:
//! * fields of a `…Report` struct literal;
//! * assignments whose left-hand side mentions a `report` segment;
//! * `kloc_trace::emit` / `kloc_trace::charge` / `kloc_trace::flush`
//!   arguments;
//! * sort keys (`sort_by_key`, `sort_unstable_by_key`, `sort_by`,
//!   `sort_unstable_by` closures).

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use crate::items::{Item, ItemKind, ParsedFile};
use crate::lex::TokenKind;
use crate::rules::{hash_collection_names, ITER_METHODS};
use crate::{Allows, Diagnostic, RULE_DETERMINISM_TAINT};

/// How a variable became tainted.
#[derive(Debug, Clone)]
struct Origin {
    desc: String,
    line: usize,
}

const SORT_SINKS: &[&str] = &[
    "sort_by_key",
    "sort_unstable_by_key",
    "sort_by",
    "sort_unstable_by",
];
const TRACE_SINKS: &[&str] = &["emit", "charge", "flush"];

pub(crate) fn check_file(file: &str, pf: &ParsedFile, allows: &Allows) -> Vec<Diagnostic> {
    let hash_names = hash_collection_names(pf);
    let mut out = Vec::new();
    for item in &pf.items {
        check_items(file, pf, item, &hash_names, allows, &mut out);
    }
    out
}

fn check_items(
    file: &str,
    pf: &ParsedFile,
    item: &Item,
    hash_names: &std::collections::BTreeSet<String>,
    allows: &Allows,
    out: &mut Vec<Diagnostic>,
) {
    if item.cfg_test {
        return;
    }
    if let ItemKind::Fn(sig) = &item.kind {
        if let Some((lo, hi)) = sig.body {
            check_body(file, pf, lo, hi, hash_names, allows, out);
        }
    }
    for child in &item.children {
        check_items(file, pf, child, hash_names, allows, out);
    }
}

/// Whether the token range `[lo, hi)` contains a nondeterministic
/// source expression; returns its description and line.
fn range_source(
    pf: &ParsedFile,
    lo: usize,
    hi: usize,
    hash_names: &std::collections::BTreeSet<String>,
) -> Option<Origin> {
    let hi = hi.min(pf.len());
    let mut i = lo;
    while i < hi {
        let t = pf.text(i);
        // `name.iter()` / `name.keys()` … on a hash collection.
        if pf.tok(i).kind == TokenKind::Ident
            && hash_names.contains(t)
            && i + 3 < hi
            && pf.text(i + 1) == "."
            && ITER_METHODS.contains(&pf.text(i + 2))
            && pf.text(i + 3) == "("
        {
            return Some(Origin {
                desc: format!("hash-order iteration `{t}.{}()`", pf.text(i + 2)),
                line: pf.tok(i).line,
            });
        }
        // Pointer identity: `as *const T` / `as *mut T`.
        if t == "as"
            && i + 2 < hi
            && pf.text(i + 1) == "*"
            && matches!(pf.text(i + 2), "const" | "mut")
        {
            return Some(Origin {
                desc: format!("pointer-identity cast `as *{} _`", pf.text(i + 2)),
                line: pf.tok(i).line,
            });
        }
        // `.as_ptr()` / `.as_mut_ptr()`.
        if t == "."
            && i + 2 < hi
            && matches!(pf.text(i + 1), "as_ptr" | "as_mut_ptr")
            && pf.text(i + 2) == "("
        {
            return Some(Origin {
                desc: format!("pointer identity `.{}()`", pf.text(i + 1)),
                line: pf.tok(i + 1).line,
            });
        }
        // `addr_of!` / `addr_of_mut!`.
        if matches!(t, "addr_of" | "addr_of_mut") && i + 1 < hi && pf.text(i + 1) == "!" {
            return Some(Origin {
                desc: format!("address capture `{t}!`"),
                line: pf.tok(i).line,
            });
        }
        i += 1;
    }
    None
}

/// Whether the range mentions a tainted variable; returns its origin
/// with the variable name prepended to the provenance.
fn range_tainted(
    pf: &ParsedFile,
    lo: usize,
    hi: usize,
    taint: &BTreeMap<String, Origin>,
) -> Option<(String, Origin)> {
    let hi = hi.min(pf.len());
    for i in lo..hi {
        if pf.tok(i).kind == TokenKind::Ident {
            // A field access `x.name` is not the variable `name`.
            let is_field = i > 0 && pf.text(i - 1) == ".";
            if !is_field {
                if let Some(origin) = taint.get(pf.text(i)) {
                    return Some((pf.text(i).to_owned(), origin.clone()));
                }
            }
        }
    }
    None
}

/// Collects the binding identifiers of a pattern range (idents that are
/// not path segments or keywords).
fn pattern_idents(pf: &ParsedFile, lo: usize, hi: usize) -> Vec<String> {
    let mut out = Vec::new();
    let hi = hi.min(pf.len());
    for i in lo..hi {
        if pf.tok(i).kind != TokenKind::Ident {
            continue;
        }
        let t = pf.text(i);
        if matches!(t, "mut" | "ref" | "_") {
            continue;
        }
        // Skip path segments (`Some`, `DiskOp::Read`).
        let part_of_path = (i + 1 < hi && pf.adjacent_pair(i, "::"))
            || (i >= 2 && pf.adjacent_pair(i - 2, "::"))
            || (i + 1 < pf.len() && pf.text(i + 1) == "(")
            || (i + 1 < pf.len() && pf.text(i + 1) == "{");
        if !part_of_path {
            out.push(t.to_owned());
        }
    }
    out
}

/// Index of the next occurrence of `what` at bracket depth 0 within
/// `[lo, hi)`.
fn find_at_depth0(pf: &ParsedFile, lo: usize, hi: usize, what: &str) -> Option<usize> {
    let hi = hi.min(pf.len());
    let mut depth = 0i64;
    for i in lo..hi {
        let t = pf.text(i);
        if t == what && depth == 0 {
            return Some(i);
        }
        match t {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            _ => {}
        }
    }
    None
}

/// End (exclusive) of the statement starting at `lo`: the index of the
/// `;` at depth 0, or `hi`.
fn statement_end(pf: &ParsedFile, lo: usize, hi: usize) -> usize {
    find_at_depth0(pf, lo, hi, ";").unwrap_or(hi)
}

fn check_body(
    file: &str,
    pf: &ParsedFile,
    lo: usize,
    hi: usize,
    hash_names: &std::collections::BTreeSet<String>,
    allows: &Allows,
    out: &mut Vec<Diagnostic>,
) {
    // Pass 1..3: build the taint map to a fixpoint.
    let mut taint: BTreeMap<String, Origin> = BTreeMap::new();
    for _ in 0..3 {
        let mut changed = false;
        let mut i = lo;
        while i < hi.min(pf.len()) {
            let t = pf.text(i);
            if t == "for" {
                // `for PAT in EXPR {`.
                if let Some(in_idx) = find_at_depth0(pf, i + 1, hi, "in") {
                    if let Some(body_open) = find_at_depth0(pf, in_idx + 1, hi, "{") {
                        let expr_src = range_source(pf, in_idx + 1, body_open, hash_names)
                            .or_else(|| {
                                // `for x in &m` where m is a hash collection.
                                (in_idx + 1..body_open)
                                    .find(|&k| {
                                        pf.tok(k).kind == TokenKind::Ident
                                            && hash_names.contains(pf.text(k))
                                    })
                                    .map(|k| Origin {
                                        desc: format!("hash-order iteration over `{}`", pf.text(k)),
                                        line: pf.tok(k).line,
                                    })
                            })
                            .or_else(|| {
                                range_tainted(pf, in_idx + 1, body_open, &taint).map(
                                    |(var, origin)| Origin {
                                        desc: format!("`{var}` ({})", origin.desc),
                                        line: origin.line,
                                    },
                                )
                            });
                        if let Some(origin) = expr_src {
                            for name in pattern_idents(pf, i + 1, in_idx) {
                                if let Entry::Vacant(e) = taint.entry(name) {
                                    e.insert(origin.clone());
                                    changed = true;
                                }
                            }
                        }
                        i = body_open + 1;
                        continue;
                    }
                }
            } else if t == "let" {
                let end = statement_end(pf, i + 1, hi);
                if let Some(eq) = find_at_depth0(pf, i + 1, end, "=") {
                    let rhs_origin = range_source(pf, eq + 1, end, hash_names).or_else(|| {
                        range_tainted(pf, eq + 1, end, &taint).map(|(var, origin)| Origin {
                            desc: format!("`{var}` ({})", origin.desc),
                            line: origin.line,
                        })
                    });
                    // Pattern stops at the type annotation if present.
                    let pat_end = find_at_depth0(pf, i + 1, eq, ":").unwrap_or(eq);
                    if let Some(origin) = rhs_origin {
                        for name in pattern_idents(pf, i + 1, pat_end) {
                            if let Entry::Vacant(e) = taint.entry(name) {
                                e.insert(origin.clone());
                                changed = true;
                            }
                        }
                    }
                }
                i = end + 1;
                continue;
            } else if pf.tok(i).kind == TokenKind::Ident
                && i + 1 < pf.len()
                && pf.text(i + 1) == "="
                && !pf.adjacent_pair(i + 1, "==")
                && !(i >= 1 && matches!(pf.text(i - 1), "=" | "!" | "<" | ">" | "." | ":"))
            {
                // Simple reassignment `x = EXPR;`.
                let end = statement_end(pf, i + 2, hi);
                let rhs_origin = range_source(pf, i + 2, end, hash_names).or_else(|| {
                    range_tainted(pf, i + 2, end, &taint).map(|(var, origin)| Origin {
                        desc: format!("`{var}` ({})", origin.desc),
                        line: origin.line,
                    })
                });
                if let Some(origin) = rhs_origin {
                    if let Entry::Vacant(e) = taint.entry(pf.text(i).to_owned()) {
                        e.insert(origin);
                        changed = true;
                    }
                }
                i = end + 1;
                continue;
            }
            i += 1;
        }
        if !changed {
            break;
        }
    }

    // Sink scan.
    let mut push = |line: usize, msg: String, origin: &Origin| {
        if !allows.allowed(RULE_DETERMINISM_TAINT, line) {
            let mut d = Diagnostic::new(file, line, RULE_DETERMINISM_TAINT, msg);
            d.notes.push(format!(
                "source: {} at {}:{}",
                origin.desc, file, origin.line
            ));
            out.push(d);
        }
    };

    let hi = hi.min(pf.len());
    let mut i = lo;
    while i < hi {
        let t = pf.text(i);
        // Sink 1: `…Report { field: expr, .. }` struct literal.
        if pf.tok(i).kind == TokenKind::Ident
            && t.ends_with("Report")
            && i + 1 < hi
            && pf.text(i + 1) == "{"
        {
            let close = pf.closes[i + 1].min(hi);
            let mut f = i + 2;
            while f < close {
                // Field at depth 1: `name: expr` up to the next
                // depth-1 comma, or shorthand `name,`.
                if pf.tok(f).kind == TokenKind::Ident {
                    let field = pf.text(f);
                    let vend = find_at_depth0(pf, f + 1, close, ",").unwrap_or(close);
                    let hit = if f + 1 < close && pf.text(f + 1) == ":" {
                        range_source(pf, f + 2, vend, hash_names).or_else(|| {
                            range_tainted(pf, f + 2, vend, &taint).map(|(var, o)| Origin {
                                desc: format!("`{var}` ({})", o.desc),
                                line: o.line,
                            })
                        })
                    } else {
                        taint.get(field).map(|o| Origin {
                            desc: format!("`{field}` ({})", o.desc),
                            line: o.line,
                        })
                    };
                    if let Some(origin) = hit {
                        push(
                            pf.tok(f).line,
                            format!(
                                "nondeterministic value flows into report field `{field}` of `{t}`"
                            ),
                            &origin,
                        );
                    }
                    f = vend + 1;
                    continue;
                }
                f += 1;
            }
            i = close + 1;
            continue;
        }
        // Sink 2: assignment whose LHS mentions `report`.
        if pf.tok(i).kind == TokenKind::Ident
            && pf.text(i).to_ascii_lowercase().contains("report")
            && i + 1 < hi
        {
            // Walk the LHS chain (`report.kloc.order`), then expect `=`.
            let mut k = i + 1;
            while k + 1 < hi && pf.text(k) == "." && pf.tok(k + 1).kind == TokenKind::Ident {
                k += 2;
            }
            if k < hi && pf.text(k) == "=" && !pf.adjacent_pair(k, "==") {
                let end = statement_end(pf, k + 1, hi);
                let hit = range_source(pf, k + 1, end, hash_names).or_else(|| {
                    range_tainted(pf, k + 1, end, &taint).map(|(var, o)| Origin {
                        desc: format!("`{var}` ({})", o.desc),
                        line: o.line,
                    })
                });
                if let Some(origin) = hit {
                    let lhs: Vec<&str> = (i..k).map(|x| pf.text(x)).collect();
                    push(
                        pf.tok(i).line,
                        format!(
                            "nondeterministic value assigned to report-visible `{}`",
                            lhs.join("")
                        ),
                        &origin,
                    );
                }
                i = end + 1;
                continue;
            }
        }
        // Sink 3: kloc_trace::emit / charge / flush arguments.
        if t == "kloc_trace"
            && i + 4 < hi
            && pf.adjacent_pair(i + 1, "::")
            && TRACE_SINKS.contains(&pf.text(i + 3))
            && pf.text(i + 4) == "("
        {
            let close = pf.closes[i + 4].min(hi);
            let hit = range_source(pf, i + 5, close, hash_names).or_else(|| {
                range_tainted(pf, i + 5, close, &taint).map(|(var, o)| Origin {
                    desc: format!("`{var}` ({})", o.desc),
                    line: o.line,
                })
            });
            if let Some(origin) = hit {
                push(
                    pf.tok(i + 3).line,
                    format!(
                        "nondeterministic value flows into `kloc_trace::{}` (trace-visible)",
                        pf.text(i + 3)
                    ),
                    &origin,
                );
            }
            i = close + 1;
            continue;
        }
        // Sink 4: sort keys.
        if t == "." && i + 2 < hi && SORT_SINKS.contains(&pf.text(i + 1)) && pf.text(i + 2) == "(" {
            let close = pf.closes[i + 2].min(hi);
            let hit = range_source(pf, i + 3, close, hash_names).or_else(|| {
                range_tainted(pf, i + 3, close, &taint).map(|(var, o)| Origin {
                    desc: format!("`{var}` ({})", o.desc),
                    line: o.line,
                })
            });
            if let Some(origin) = hit {
                push(
                    pf.tok(i + 1).line,
                    format!(
                        "nondeterministic sort key in `.{}(…)` — ordering becomes run-dependent",
                        pf.text(i + 1)
                    ),
                    &origin,
                );
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use crate::{lint_source, RULE_DETERMINISM_TAINT};

    fn kl008(src: &str) -> Vec<(usize, String)> {
        lint_source("t.rs", src)
            .into_iter()
            .filter(|d| d.rule == RULE_DETERMINISM_TAINT)
            .map(|d| (d.line, d.notes.join(" | ")))
            .collect()
    }

    #[test]
    fn ptr_identity_into_report_field() {
        let src = r#"
fn f(obj: &Obj) -> RunReport {
    let key = obj as *const Obj as usize;
    RunReport { order: key }
}
"#;
        let d = kl008(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].0, 4);
        assert!(d[0].1.contains("pointer-identity"), "{}", d[0].1);
        assert!(d[0].1.contains("t.rs:3"), "{}", d[0].1);
    }

    #[test]
    fn hash_iteration_through_binding_into_report_assignment() {
        let src = r#"
// lint: ordered-ok(file)
fn f(report: &mut Report) {
    let m: HashMap<u64, u64> = HashMap::new();
    let order: Vec<u64> = m.keys().copied().collect();
    report.order = order;
}
"#;
        let d = kl008(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].0, 6);
        assert!(d[0].1.contains("hash-order"), "{}", d[0].1);
    }

    #[test]
    fn for_loop_binding_is_tainted() {
        let src = r#"
// lint: ordered-ok(file)
fn f(m: HashMap<u64, u64>, v: &mut Vec<u64>) {
    for k in m.keys() {
        v.sort_by_key(|x| x ^ k);
    }
}
"#;
        let d = kl008(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].0, 5);
    }

    #[test]
    fn taint_ok_pragma_silences() {
        let src = r#"
fn f(obj: &Obj) -> RunReport {
    let key = obj as *const Obj as usize;
    // lint: taint-ok — folded through a commutative xor reduction
    RunReport { order: key }
}
"#;
        assert!(kl008(src).is_empty());
    }

    #[test]
    fn untainted_flows_are_silent() {
        let src = r#"
fn f(n: u64) -> RunReport {
    let total = n * 2;
    RunReport { ops: total, elapsed: n }
}
"#;
        assert!(kl008(src).is_empty());
    }
}
