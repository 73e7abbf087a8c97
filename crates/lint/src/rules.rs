//! Token-stream rules: KL001 unordered iteration, KL004 truncating
//! casts and KL009 clock-charge discipline.

use std::collections::BTreeSet;

use crate::items::{Item, ItemKind, ParsedFile};
use crate::lex::TokenKind;
use crate::{Allows, Diagnostic, RULE_CLOCK_CHARGE, RULE_TRUNCATING_CAST, RULE_UNORDERED_ITER};

/// Iterator-like methods whose order reflects hash order.
pub(crate) const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Snake-case segments marking a value as id/epoch-like for KL004.
const ID_SEGMENTS: &[&str] = &["epoch", "inode", "ino", "id", "fd", "obj", "shard"];

/// Functions whose bodies ARE the charged implementation: everything
/// inside them is exempt from KL009.
const CHARGED_FNS: &[&str] = &[
    "access",
    "access_batch",
    "charge",
    "disk_retry",
    "fault_take_disk",
];

/// Callees a `DiskOp::…` value may be constructed inside (the charged
/// submission paths).
const CHARGED_CALLEES: &[&str] = &["disk_retry", "fault_take_disk"];

/// Names declared in this file with a `HashMap`/`HashSet` type or
/// constructor: `let m: HashMap<…>`, `frames: HashSet<…>` (fields,
/// params), `let m = HashMap::new()`.
pub(crate) fn hash_collection_names(pf: &ParsedFile) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..pf.len() {
        if !matches!(pf.text(i), "HashMap" | "HashSet") {
            continue;
        }
        // Walk back over the path prefix (`std :: collections ::`).
        let mut k = i;
        while k >= 2
            && pf.text(k - 1) == ":"
            && pf.text(k - 2) == ":"
            && pf.adjacent_pair(k - 2, "::")
        {
            if k >= 3 && pf.tok(k - 3).kind == TokenKind::Ident {
                k -= 3;
            } else {
                break;
            }
        }
        // Skip reference/mutability tokens (`m: &mut HashMap<…>`).
        while k >= 1 && matches!(pf.text(k - 1), "&" | "mut") {
            k -= 1;
        }
        if k == 0 {
            continue;
        }
        // Now expect the declaration separator: a single `:` (type
        // position) or `=` (constructor), with the bound name before it.
        let sep = k - 1;
        let sep_text = pf.text(sep);
        let single_colon = sep_text == ":"
            && !(sep >= 1 && pf.adjacent_pair(sep - 1, "::"))
            && !pf.adjacent_pair(sep, "::");
        if (single_colon || sep_text == "=") && sep >= 1 && pf.tok(sep - 1).kind == TokenKind::Ident
        {
            names.insert(pf.text(sep - 1).to_owned());
        }
    }
    names
}

/// Byte offset of the first `#[cfg(test)]` item; everything at or past
/// it is test-only (this workspace keeps unit tests in a trailing
/// `mod tests`).
fn cfg_test_cutoff(items: &[Item]) -> usize {
    let mut cutoff = usize::MAX;
    for item in items {
        item.walk(&mut |i| {
            if i.cfg_test {
                cutoff = cutoff.min(i.start);
            }
        });
    }
    cutoff
}

/// Significant-index ranges of bodies of [`CHARGED_FNS`].
fn charged_fn_bodies(items: &[Item]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for item in items {
        item.walk(&mut |i| {
            if let ItemKind::Fn(sig) = &i.kind {
                if CHARGED_FNS.contains(&i.name.as_str()) {
                    if let Some(body) = sig.body {
                        out.push(body);
                    }
                }
            }
        });
    }
    out
}

/// For each significant index, the significant index of the innermost
/// enclosing open bracket (or `usize::MAX` at top level).
fn enclosing_openers(pf: &ParsedFile) -> Vec<usize> {
    let mut encl = vec![usize::MAX; pf.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, slot) in encl.iter_mut().enumerate() {
        *slot = stack.last().copied().unwrap_or(usize::MAX);
        match pf.text(i) {
            "(" | "[" | "{" => stack.push(i),
            ")" | "]" | "}" => {
                stack.pop();
            }
            _ => {}
        }
    }
    encl
}

/// Runs the per-file token rules.
pub(crate) fn check_file(
    file: &str,
    pf: &ParsedFile,
    charged_crate: bool,
    allows: &Allows,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // KL001/KL009 can match one site several ways (an array of DiskOps
    // hits per element): those dedup per line. KL004 reports each
    // occurrence.
    let mut seen: BTreeSet<(&'static str, usize)> = BTreeSet::new();
    let mut push = |out: &mut Vec<Diagnostic>, rule: &'static str, line: usize, msg: String| {
        let dedup = matches!(rule, RULE_UNORDERED_ITER | RULE_CLOCK_CHARGE);
        if allows.allowed(rule, line) {
            return;
        }
        if dedup && !seen.insert((rule, line)) {
            return;
        }
        out.push(Diagnostic::new(file, line, rule, msg));
    };

    let hash_names = hash_collection_names(pf);

    // KL001 — iteration over an unordered collection.
    for i in 0..pf.len() {
        if pf.tok(i).kind != TokenKind::Ident || !hash_names.contains(pf.text(i)) {
            continue;
        }
        let name = pf.text(i);
        // `name.iter_method(`.
        if i + 3 < pf.len()
            && pf.text(i + 1) == "."
            && ITER_METHODS.contains(&pf.text(i + 2))
            && pf.text(i + 3) == "("
        {
            push(
                &mut out,
                RULE_UNORDERED_ITER,
                pf.tok(i + 2).line,
                format!(
                    "iteration over unordered collection `{name}.{}()`; use BTreeMap/BTreeSet or collect-and-sort (// lint: ordered-ok if order provably cannot reach a report)",
                    pf.text(i + 2)
                ),
            );
            continue;
        }
        // `for x in [&][mut] [recv.]name {`.
        if i + 1 < pf.len() && pf.text(i + 1) == "{" {
            let mut k = i;
            let mut found_in = false;
            while k > 0 && i - k <= 8 {
                k -= 1;
                let t = pf.text(k);
                if t == "in" {
                    found_in = true;
                    break;
                }
                let chainy =
                    t == "." || t == "&" || t == "mut" || pf.tok(k).kind == TokenKind::Ident;
                if !chainy {
                    break;
                }
            }
            if found_in {
                push(
                    &mut out,
                    RULE_UNORDERED_ITER,
                    pf.tok(i).line,
                    format!(
                        "iteration over unordered collection `{name}`; use BTreeMap/BTreeSet or collect-and-sort (// lint: ordered-ok if order provably cannot reach a report)"
                    ),
                );
            }
        }
    }

    // KL004 — truncating casts on id-like values.
    for i in 0..pf.len() {
        if pf.text(i) != "as" || i + 1 >= pf.len() {
            continue;
        }
        let target = pf.text(i + 1);
        if !matches!(target, "u8" | "u16" | "u32") {
            continue;
        }
        if i == 0 {
            continue;
        }
        // Walk back over a `.0` projection to the value name.
        let mut k = i - 1;
        if pf.tok(k).kind == TokenKind::Int && k >= 1 && pf.text(k - 1) == "." && k >= 2 {
            k -= 2;
        }
        if pf.tok(k).kind != TokenKind::Ident {
            continue;
        }
        let name = pf.text(k);
        let id_like = name
            .split('_')
            .any(|seg| ID_SEGMENTS.contains(&seg.to_ascii_lowercase().as_str()));
        if id_like {
            push(
                &mut out,
                RULE_TRUNCATING_CAST,
                pf.tok(i).line,
                format!(
                    "truncating cast `{name} as {target}` on an id-like value; use From/try_from (// lint: truncation-ok if the truncation is the semantics)"
                ),
            );
        }
    }

    // KL009 — clock-charge discipline in crates/kernel and crates/mem.
    if charged_crate {
        let test_cutoff = cfg_test_cutoff(&pf.items);
        let exempt = charged_fn_bodies(&pf.items);
        let in_exempt = |i: usize| exempt.iter().any(|&(lo, hi)| i >= lo && i < hi);
        let encl = enclosing_openers(pf);

        for i in 0..pf.len() {
            if pf.tok(i).start >= test_cutoff || in_exempt(i) {
                continue;
            }
            // `frames.touch(` / `clock.advance(` outside the charged APIs.
            if pf.text(i) == "."
                && i >= 1
                && i + 2 < pf.len()
                && matches!(pf.text(i - 1), "frames" | "clock")
                && matches!(pf.text(i + 1), "touch" | "advance")
                && pf.text(i + 2) == "("
            {
                let call = format!("{}.{}", pf.text(i - 1), pf.text(i + 1));
                push(
                    &mut out,
                    RULE_CLOCK_CHARGE,
                    pf.tok(i + 1).line,
                    format!(
                        "`{call}(…)` outside a charged API; route through access/access_batch/charge or annotate `// lint: charge-ok`"
                    ),
                );
                continue;
            }
            // `DiskOp::Variant` constructed outside a charged submission.
            if pf.text(i) == "DiskOp"
                && i + 3 < pf.len()
                && pf.adjacent_pair(i + 1, "::")
                && pf.tok(i + 3).kind == TokenKind::Ident
            {
                let variant = i + 3;
                // Pattern position (`DiskOp::Read => …`, `DiskOp::Read | …`)
                // is a match arm, not a submission.
                let after = variant + 1;
                let is_pattern = after < pf.len()
                    && (pf.text(after) == "|"
                        || (pf.text(after) == "=" && pf.adjacent_pair(after, "=>")));
                if is_pattern {
                    continue;
                }
                // Walk up enclosing brackets to the innermost call.
                let mut o = encl[i];
                let mut charged = false;
                let mut boundary = false;
                while o != usize::MAX && !boundary {
                    match pf.text(o) {
                        "(" if o >= 1 && pf.tok(o - 1).kind == TokenKind::Ident => {
                            charged = CHARGED_CALLEES.contains(&pf.text(o - 1));
                            boundary = true;
                        }
                        "{" | "[" => boundary = true,
                        _ => o = encl[o],
                    }
                }
                if !charged {
                    push(
                        &mut out,
                        RULE_CLOCK_CHARGE,
                        pf.tok(i).line,
                        format!(
                            "`DiskOp::{}` constructed outside a charged submission path (disk_retry/fault_take_disk); or annotate `// lint: charge-ok`",
                            pf.text(variant)
                        ),
                    );
                }
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_hash_collection_names() {
        let pf = ParsedFile::parse(
            "let a: HashMap<u8,u8> = HashMap::new();\nstruct S { frames: HashSet<u32> }\nlet b = std::collections::HashMap::new();",
        );
        let names = hash_collection_names(&pf);
        assert!(names.contains("a"));
        assert!(names.contains("frames"));
        assert!(names.contains("b"));
    }

    /// KL002/KL003 matched banned paths as token chains against needles
    /// like `Instant::now`; clippy now resolves them by name. Every
    /// spelling of a banned path in the fixture crate is caught, and a
    /// local type that merely shares a banned name is not.
    #[test]
    fn path_chains_and_needles() {
        const FILE: &str = "src/nondet_api.rs";
        const TYPES: &str = "clippy::disallowed_types";
        const METHODS: &str = "clippy::disallowed_methods";
        let found = crate::toolchain::fixture_findings_in(FILE);
        let line = |needle| crate::toolchain::fixture_line(FILE, needle);
        for (needle, lint) in [
            ("let t = std::time::Instant::now()", TYPES),
            ("use std::time::Instant as Clock", TYPES),
            ("Clock::now()", TYPES),
            ("std::env::var(", METHODS),
            ("env::var_os(", METHODS),
            ("std::thread::Builder::new().spawn(", METHODS),
        ] {
            assert!(found.contains(&(line(needle), lint)), "{needle}: {found:?}");
        }
        let local = line("sim_clock::Instant::now()");
        assert!(found.iter().all(|&(l, _)| l != local), "{found:?}");
    }

    #[test]
    fn charged_rule_flags_raw_touch_and_diskop() {
        let src = r#"
// lint: treat-as-charged-crate
impl M {
    fn access(&mut self, f: u64) { self.frames.touch(f); self.clock.advance(1); }
    fn migrate(&mut self) {
        self.frames.touch(3);
        self.clock.advance(2);
    }
    fn submit(&mut self) {
        self.disk_retry(ctx, DiskOp::Write)?;
        let staged = [DiskOp::Read, DiskOp::Fsync];
    }
    fn dispatch(&self, op: DiskOp) -> u64 {
        match op { DiskOp::Read => 1, DiskOp::Write | DiskOp::Fsync => 2 }
    }
}
"#;
        let d = crate::lint_source("t.rs", src);
        let triples: Vec<(usize, &str)> = d.iter().map(|d| (d.line, d.rule)).collect();
        assert_eq!(
            triples,
            vec![
                (6, RULE_CLOCK_CHARGE),
                (7, RULE_CLOCK_CHARGE),
                (11, RULE_CLOCK_CHARGE),
            ],
            "{d:?}"
        );
    }

    #[test]
    fn charge_ok_pragma_silences() {
        let src = "// lint: treat-as-charged-crate\nfn migrate(clock: &mut C) {\n// lint: charge-ok — cost charged via migration ledger\nclock.advance(2);\n}";
        assert!(crate::lint_source("t.rs", src).is_empty());
    }
}
