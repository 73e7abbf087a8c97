//! KL006 — feature-shim conformance.
//!
//! The `trace` noop shims promise the exact API of their real recorder
//! halves so both polarities of the feature never have to be built to
//! catch drift. This pass collects every public `fn` that lives under a
//! `feature = "X"` cfg (directly, via an enclosing `mod`/`impl`, or via
//! an out-of-line `#[cfg(feature = "X")] mod name;` declaration that
//! confers the cfg on `name.rs`), pairs positive and negative
//! polarities by `(feature, qualified fn name)`, and reports:
//!
//! * signature drift between the halves (with a machine-applicable
//!   suggestion that rewrites the noop half's signature from the real
//!   one, parameter names underscore-prefixed);
//! * a fn present under one polarity with no counterpart under the
//!   other (only when the crate has both polarities of that feature at
//!   all — a crate that only gates extra functionality positively is
//!   not a shim).
//!
//! Private fns are exempt: the real half may use any number of internal
//! helpers the shim has no reason to mirror.

use std::collections::BTreeMap;

use crate::items::{CfgAtom, FnSig, Item, ItemKind, ParsedFile};
use crate::{Diagnostic, Suggestion, RULE_SHIM_CONFORMANCE};

/// One public fn found under a feature cfg.
#[derive(Clone)]
struct FnRecord {
    file: String,
    line: usize,
    /// Line of the item's first attribute — where a `// lint: shim-ok`
    /// above the `#[cfg]` lands.
    start_line: usize,
    qualified: String,
    is_pub: bool,
    generics: String,
    /// Receiver params by rendered name, value params by rendered type.
    param_keys: Vec<String>,
    params: Vec<(String, String)>,
    ret: String,
    sig_span: (usize, usize),
}

impl FnRecord {
    fn sig_text(&self) -> String {
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(name, ty)| {
                if ty.is_empty() {
                    name.clone()
                } else {
                    format!("{name}: {ty}")
                }
            })
            .collect();
        let generics = if self.generics.is_empty() {
            String::new()
        } else {
            format!("<{}>", self.generics)
        };
        let ret = if self.ret.is_empty() {
            String::new()
        } else {
            format!(" -> {}", self.ret)
        };
        let vis = if self.is_pub { "pub " } else { "" };
        let name = self
            .qualified
            .rsplit("::")
            .next()
            .unwrap_or(&self.qualified);
        format!("{vis}fn {name}{generics}({}){ret}", params.join(", "))
    }
}

/// Builds the map from out-of-line module name to the cfg atoms its
/// declaration carries (`#[cfg(feature = "trace")] mod recorder;`).
fn module_cfg_map(files: &[(String, &ParsedFile)]) -> BTreeMap<String, Vec<CfgAtom>> {
    let mut map = BTreeMap::new();
    for (_, pf) in files {
        for item in &pf.items {
            item.walk(&mut |i| {
                if let ItemKind::Mod { inline: false } = i.kind {
                    if !i.cfg.is_empty() {
                        map.insert(i.name.clone(), i.cfg.clone());
                    }
                }
            });
        }
    }
    map
}

/// The module name a file path corresponds to (`src/recorder.rs` →
/// `recorder`, `src/ksan/mod.rs` → `ksan`).
fn file_module_name(path: &str) -> Option<String> {
    let path = path.replace('\\', "/");
    let stem = path.strip_suffix(".rs")?;
    let leaf = stem.rsplit('/').next()?;
    if leaf == "mod" {
        let parent = stem.rsplit('/').nth(1)?;
        Some(parent.to_owned())
    } else if matches!(leaf, "lib" | "main") {
        None
    } else {
        Some(leaf.to_owned())
    }
}

fn collect_fns(
    file: &str,
    items: &[Item],
    base_cfg: &[CfgAtom],
    prefix: &str,
    out: &mut Vec<(FnRecord, Vec<CfgAtom>)>,
) {
    for item in items {
        if item.cfg_test {
            continue;
        }
        let mut cfg: Vec<CfgAtom> = base_cfg.to_vec();
        cfg.extend(item.cfg.iter().cloned());
        match &item.kind {
            ItemKind::Fn(sig) => {
                if item.is_pub && !cfg.is_empty() {
                    out.push((make_record(file, item, sig, prefix), cfg));
                }
            }
            ItemKind::Mod { .. } => {
                // Inline mods are a cfg scope but not a pairing
                // namespace: `mod noop` mirrors the crate root.
                collect_fns(file, &item.children, &cfg, prefix, out);
            }
            ItemKind::Impl => {
                let inner = format!("{}{}::", prefix, strip_generics(&item.name));
                collect_fns(file, &item.children, &cfg, &inner, out);
            }
            ItemKind::Other => {}
        }
    }
}

/// `Scope` from `Scope<T> for X` / `Tier for MemSystem` — the pairing
/// key uses the self type, last path segment, generics stripped.
fn strip_generics(impl_name: &str) -> String {
    let name = impl_name.split(" for ").last().unwrap_or(impl_name);
    let name = name.split('<').next().unwrap_or(name).trim();
    name.rsplit("::").next().unwrap_or(name).to_owned()
}

fn make_record(file: &str, item: &Item, sig: &FnSig, prefix: &str) -> FnRecord {
    FnRecord {
        file: file.to_owned(),
        line: item.line,
        start_line: item.start_line,
        qualified: format!("{prefix}{}", item.name),
        is_pub: item.is_pub,
        generics: sig.generics.clone(),
        param_keys: sig
            .params
            .iter()
            .map(|p| {
                if p.ty.is_empty() {
                    p.name.clone()
                } else {
                    p.ty.clone()
                }
            })
            .collect(),
        params: sig
            .params
            .iter()
            .map(|p| (p.name.clone(), p.ty.clone()))
            .collect(),
        ret: sig.ret.clone(),
        sig_span: sig.sig_span,
    }
}

/// Checks every feature-cfg'd public fn pair across one crate's files.
/// `allowed(file, line)` reports whether a `// lint: shim-ok`
/// justification covers a given site.
pub(crate) fn check_crate(
    files: &[(String, &ParsedFile)],
    allowed: &dyn Fn(&str, usize) -> bool,
) -> Vec<Diagnostic> {
    let mod_cfgs = module_cfg_map(files);
    // (feature, qualified name) -> (positive half, negative half).
    let mut pairs: BTreeMap<(String, String), (Vec<FnRecord>, Vec<FnRecord>)> = BTreeMap::new();
    // Features that have fns under both polarities somewhere.
    let mut polarity_seen: BTreeMap<String, (bool, bool)> = BTreeMap::new();

    for (path, pf) in files {
        let base: Vec<CfgAtom> = file_module_name(path)
            .and_then(|m| mod_cfgs.get(&m).cloned())
            .unwrap_or_default();
        let mut records = Vec::new();
        collect_fns(path, &pf.items, &base, "", &mut records);
        for (record, mut atoms) in records {
            atoms.sort();
            atoms.dedup();
            for atom in atoms {
                let seen = polarity_seen.entry(atom.feature.clone()).or_default();
                if atom.negated {
                    seen.1 = true;
                } else {
                    seen.0 = true;
                }
                let key = (atom.feature.clone(), record.qualified.clone());
                let entry = pairs.entry(key).or_default();
                if atom.negated {
                    entry.1.push(record.clone());
                } else {
                    entry.0.push(record.clone());
                }
            }
        }
    }

    let mut out = Vec::new();
    for ((feature, qualified), (pos, neg)) in &pairs {
        let both_polarities = polarity_seen.get(feature).is_some_and(|&(p, n)| p && n);
        match (pos.first(), neg.first()) {
            (Some(real), Some(noop)) => {
                let same = real.param_keys == noop.param_keys
                    && real.ret == noop.ret
                    && real.generics == noop.generics
                    && real.is_pub == noop.is_pub;
                if same || allowed(&noop.file, noop.line) || allowed(&noop.file, noop.start_line) {
                    continue;
                }
                let mut d = Diagnostic::new(
                    &noop.file,
                    noop.line,
                    RULE_SHIM_CONFORMANCE,
                    format!(
                        "noop shim `{qualified}` under cfg(not(feature = \"{feature}\")) drifted from its real half: `{}` vs `{}`",
                        noop.sig_text(),
                        real.sig_text()
                    ),
                );
                d.notes.push(format!(
                    "real half at {}:{}: `{}`",
                    real.file,
                    real.line,
                    real.sig_text()
                ));
                // Only the signature proper is inside sig_span, so a
                // pure visibility drift has no in-span fix.
                if real.is_pub == noop.is_pub {
                    d.suggestion = Some(Suggestion {
                        start: noop.sig_span.0,
                        end: noop.sig_span.1,
                        replacement: noop_signature(real),
                    });
                }
                out.push(d);
            }
            (Some(only), None) | (None, Some(only)) if both_polarities => {
                if allowed(&only.file, only.line) || allowed(&only.file, only.start_line) {
                    continue;
                }
                let (have, miss) = if neg.is_empty() {
                    (
                        format!("feature = \"{feature}\""),
                        format!("not(feature = \"{feature}\")"),
                    )
                } else {
                    (
                        format!("not(feature = \"{feature}\")"),
                        format!("feature = \"{feature}\""),
                    )
                };
                let mut d = Diagnostic::new(
                    &only.file,
                    only.line,
                    RULE_SHIM_CONFORMANCE,
                    format!(
                        "`{qualified}` exists under cfg({have}) but has no counterpart under cfg({miss})"
                    ),
                );
                d.notes.push(format!(
                    "declared at {}:{}: `{}`",
                    only.file,
                    only.line,
                    only.sig_text()
                ));
                out.push(d);
            }
            _ => {}
        }
    }
    out
}

/// Renders the corrected noop signature from the real half: same
/// generics, parameter types, and return type; value parameter names
/// underscore-prefixed since a noop ignores them.
fn noop_signature(real: &FnRecord) -> String {
    let name = real
        .qualified
        .rsplit("::")
        .next()
        .unwrap_or(&real.qualified);
    let params: Vec<String> = real
        .params
        .iter()
        .map(|(pname, ty)| {
            if ty.is_empty() {
                pname.clone() // receiver
            } else {
                let base = pname.trim_start_matches('_');
                format!("_{base}: {ty}")
            }
        })
        .collect();
    let generics = if real.generics.is_empty() {
        String::new()
    } else {
        format!("<{}>", real.generics)
    };
    let ret = if real.ret.is_empty() {
        String::new()
    } else {
        format!(" -> {}", real.ret)
    };
    format!("fn {name}{generics}({}){ret}", params.join(", "))
}

#[cfg(test)]
mod tests {
    use crate::{lint_source, RULE_SHIM_CONFORMANCE};

    fn kl006(src: &str) -> Vec<crate::Diagnostic> {
        lint_source("t.rs", src)
            .into_iter()
            .filter(|d| d.rule == RULE_SHIM_CONFORMANCE)
            .collect()
    }

    #[test]
    fn matching_shim_pair_is_clean() {
        let src = r#"
#[cfg(feature = "trace")]
pub fn charge(ns: u64) { CHARGED.with(|c| c.set(c.get() + ns)); }
#[cfg(not(feature = "trace"))]
pub fn charge(_ns: u64) {}
"#;
        assert!(kl006(src).is_empty());
    }

    #[test]
    fn drifted_param_type_is_flagged_with_fix() {
        let src = r#"
#[cfg(feature = "kfault")]
pub fn set_plan(plan: FaultPlan, seed: u64) {}
#[cfg(not(feature = "kfault"))]
pub fn set_plan(_plan: FaultPlan) {}
"#;
        let d = kl006(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 5);
        assert!(d[0].notes[0].contains("t.rs:3"), "{:?}", d[0].notes);
        let fix = d[0].suggestion.as_ref().expect("fix");
        assert_eq!(fix.replacement, "fn set_plan(_plan: FaultPlan, _seed: u64)");
    }

    #[test]
    fn missing_counterpart_is_flagged_when_shimmed() {
        let src = r#"
#[cfg(feature = "trace")]
pub fn emit(e: Event) {}
#[cfg(not(feature = "trace"))]
pub fn emit(_e: Event) {}
#[cfg(feature = "trace")]
pub fn flush(t: u64) {}
"#;
        let d = kl006(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 7);
        assert!(d[0].message.contains("no counterpart"), "{}", d[0].message);
    }

    #[test]
    fn positive_only_gating_is_not_a_shim() {
        let src = r#"
#[cfg(feature = "serde")]
pub fn to_json(&self) -> String { String::new() }
"#;
        assert!(kl006(src).is_empty());
    }

    #[test]
    fn shim_ok_pragma_silences() {
        let src = r#"
#[cfg(feature = "trace")]
pub fn flush(t: u64, force: bool) {}
// lint: shim-ok — noop flush needs no force flag
#[cfg(not(feature = "trace"))]
pub fn flush(_t: u64) {}
"#;
        assert!(kl006(src).is_empty());
    }

    #[test]
    fn inline_mod_confers_cfg() {
        let src = r#"
#[cfg(feature = "trace")]
pub fn scope(name: &'static str) -> Scope { Scope::new(name) }
#[cfg(not(feature = "trace"))]
mod noop {
    pub fn scope(_name: &'static str) -> Scope { Scope }
}
"#;
        assert!(kl006(src).is_empty());
    }
}
