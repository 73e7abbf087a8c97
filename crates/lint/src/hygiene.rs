//! KL007 — feature forwarding.
//!
//! If crate C declares feature X and its path dependency D also declares
//! X, C's X list must contain `"D/X"`; otherwise `cargo build -p C
//! --features X` leaves D's half of the feature compiled out and the two crates
//! disagree about the feature (this is how the workspace keeps
//! `--features ksan` at the root meaning "audit everywhere"). A `cfg`
//! naming an undeclared feature is rustc's `unexpected_cfgs`, denied
//! workspace-wide, so this check reads manifests only.
//!
//! `Cargo.toml` is parsed by a purpose-built mini reader (sections,
//! `key = [ … ]` arrays possibly spanning lines, inline-table and
//! `.workspace = true` dependency forms) — the lint stays
//! dependency-free. A `# lint: feature-ok` comment on the feature's
//! line (or the line above) waives the check.

use std::collections::{BTreeMap, BTreeSet};

use crate::{Diagnostic, RULE_CFG_HYGIENE};

/// A parsed `Cargo.toml`, reduced to what KL007 needs.
pub(crate) struct Manifest {
    /// Workspace-relative path of the manifest.
    pub rel_path: String,
    /// `[package] name`, or "" for a virtual manifest.
    pub package_name: String,
    /// Feature name -> (1-based line of the declaration, entries).
    pub features: BTreeMap<String, (usize, Vec<String>)>,
    /// Dependency keys from `[dependencies]`/`[dev-dependencies]`/
    /// `[build-dependencies]`.
    pub deps: BTreeSet<String>,
    /// Lines (1-based) covered by a `lint: feature-ok` waiver.
    pub feature_ok_lines: BTreeSet<usize>,
}

impl Manifest {
    pub(crate) fn parse(rel_path: &str, text: &str) -> Manifest {
        let mut m = Manifest {
            rel_path: rel_path.to_owned(),
            package_name: String::new(),
            features: BTreeMap::new(),
            deps: BTreeSet::new(),
            feature_ok_lines: BTreeSet::new(),
        };
        let mut section = String::new();
        let mut pending: Option<(String, usize, String)> = None; // multi-line array
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if let Some(pos) = raw.find("lint:") {
                if raw[pos + 5..].trim().starts_with("feature-ok") {
                    m.feature_ok_lines.insert(lineno);
                    m.feature_ok_lines.insert(lineno + 1);
                }
            }
            if let Some((name, decl_line, mut acc)) = pending.take() {
                acc.push_str(line);
                if line.contains(']') {
                    m.features
                        .insert(name, (decl_line, parse_string_array(&acc)));
                } else {
                    pending = Some((name, decl_line, acc));
                }
                continue;
            }
            if line.starts_with('[') {
                section = line
                    .trim_start_matches('[')
                    .trim_end_matches(']')
                    .to_owned();
                continue;
            }
            if let Some((key, value)) = split_kv(line) {
                match section.as_str() {
                    "package" if key == "name" => {
                        m.package_name = value.trim_matches('"').to_owned();
                    }
                    "features" => {
                        if value.contains('[') && !value.contains(']') {
                            pending = Some((key.to_owned(), lineno, value.to_owned()));
                        } else {
                            m.features
                                .insert(key.to_owned(), (lineno, parse_string_array(value)));
                        }
                    }
                    "dependencies" | "dev-dependencies" | "build-dependencies" => {
                        // `kloc-mem = { path = … }`, `serde.workspace = true`.
                        let dep = key.split('.').next().unwrap_or(key);
                        m.deps.insert(dep.to_owned());
                    }
                    _ => {
                        // `[dependencies.kloc-mem]`-style sections.
                        if let Some(dep) = section
                            .strip_prefix("dependencies.")
                            .or_else(|| section.strip_prefix("dev-dependencies."))
                        {
                            m.deps.insert(dep.to_owned());
                        }
                    }
                }
            }
        }
        m
    }
}

fn split_kv(line: &str) -> Option<(&str, &str)> {
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let eq = line.find('=')?;
    let key = line[..eq].trim();
    let value = line[eq + 1..].trim();
    if key.is_empty() || key.contains(' ') {
        return None;
    }
    Some((key, value))
}

fn parse_string_array(value: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = value;
    while let Some(open) = rest.find('"') {
        let tail = &rest[open + 1..];
        let Some(close) = tail.find('"') else { break };
        out.push(tail[..close].to_owned());
        rest = &tail[close + 1..];
    }
    out
}

/// Checks that every feature of `manifest` reaches the path
/// dependencies that declare it. `all` maps package name to manifest for
/// the whole workspace.
pub(crate) fn check_manifest(
    manifest: &Manifest,
    all: &BTreeMap<String, Manifest>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // `default` is exempt: cargo enables a dependency's default features
    // implicitly, so there is nothing to forward.
    for (feature, (line, entries)) in &manifest.features {
        if feature == "default" || manifest.feature_ok_lines.contains(line) {
            continue;
        }
        for dep in &manifest.deps {
            let Some(dep_manifest) = all.get(dep) else {
                continue;
            };
            if !dep_manifest.features.contains_key(feature) {
                continue;
            }
            let forward = format!("{dep}/{feature}");
            let forward_weak = format!("{dep}?/{feature}");
            if entries.iter().any(|e| e == &forward || e == &forward_weak) {
                continue;
            }
            let mut d = Diagnostic::new(
                &manifest.rel_path,
                *line,
                RULE_CFG_HYGIENE,
                format!(
                    "feature `{feature}` is not forwarded to dependency `{dep}` (add \"{forward}\")"
                ),
            );
            d.notes.push(format!(
                "`{dep}` declares `{feature}` in {}; without forwarding, enabling `{feature}` here leaves `{dep}`'s half disabled",
                dep_manifest.rel_path
            ));
            out.push(d);
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = r#"
[package]
name = "kloc-mem"

[features]
ksan = []
kfault = ["kloc-core/kfault"]

[dependencies]
kloc-core = { path = "../core" }
"#;

    /// A `cfg` naming an undeclared feature is rustc's `unexpected_cfgs`,
    /// an error under the workspace's `deny`. Where KL007 offered a
    /// `name = []` insertion, rustc's finding carries the equivalent help.
    #[test]
    fn undeclared_feature_is_flagged_with_insertion_fix() {
        let file = "src/undeclared_feature.rs";
        let line = crate::toolchain::fixture_line(file, "feature = \"trcae\"");
        let found: Vec<&crate::toolchain::Finding> = crate::toolchain::fixture_findings()
            .iter()
            .filter(|f| f.file == file && f.line == line)
            .collect();
        assert_eq!(found.len(), 1, "{found:#?}");
        assert_eq!(found[0].lint, "unexpected_cfgs");
        assert_eq!(found[0].level, "error");
        let fix = "consider adding `trcae` as a feature in `Cargo.toml`";
        assert!(found[0].help.iter().any(|h| h == fix), "{found:#?}");
    }

    #[test]
    fn parses_manifest() {
        let m = Manifest::parse("crates/mem/Cargo.toml", MANIFEST);
        assert_eq!(m.package_name, "kloc-mem");
        assert!(m.features.contains_key("ksan"));
        assert_eq!(m.features["kfault"].1, vec!["kloc-core/kfault".to_owned()]);
        assert!(m.deps.contains("kloc-core"));
    }

    #[test]
    fn parses_multiline_feature_array() {
        let text = "[features]\nksan = [\n  \"kloc-core/ksan\",\n  \"kloc-mem/ksan\",\n]\n";
        let m = Manifest::parse("Cargo.toml", text);
        assert_eq!(m.features["ksan"].1.len(), 2);
        assert_eq!(m.features["ksan"].0, 2);
    }

    #[test]
    fn unforwarded_feature_is_flagged() {
        let dep = Manifest::parse(
            "crates/core/Cargo.toml",
            "[package]\nname = \"kloc-core\"\n[features]\nksan = []\n",
        );
        let m = Manifest::parse("crates/mem/Cargo.toml", MANIFEST);
        let mut all = BTreeMap::new();
        all.insert("kloc-core".to_owned(), dep);
        let d = check_manifest(&m, &all);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("not forwarded"), "{}", d[0].message);
        assert!(d[0].message.contains("kloc-core/ksan"));
        assert_eq!(d[0].file, "crates/mem/Cargo.toml");
        assert_eq!(d[0].line, 6); // `ksan = []` line in MANIFEST
    }

    #[test]
    fn forwarded_feature_is_clean() {
        let dep = Manifest::parse(
            "crates/core/Cargo.toml",
            "[package]\nname = \"kloc-core\"\n[features]\nkfault = []\n",
        );
        let m = Manifest::parse("crates/mem/Cargo.toml", MANIFEST);
        let mut all = BTreeMap::new();
        all.insert("kloc-core".to_owned(), dep);
        let d = check_manifest(&m, &all);
        // kfault forwards; ksan is not declared by the dep in this test.
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn declared_features_are_clean() {
        // Neither `default` (cargo forwards it implicitly) nor a feature
        // the dependency does not declare needs a forwarding entry.
        let dep = Manifest::parse(
            "crates/core/Cargo.toml",
            "[package]\nname = \"kloc-core\"\n[features]\ndefault = []\n",
        );
        let m = Manifest::parse(
            "crates/mem/Cargo.toml",
            &MANIFEST.replace("[features]", "[features]\ndefault = []"),
        );
        let mut all = BTreeMap::new();
        all.insert("kloc-core".to_owned(), dep);
        let d = check_manifest(&m, &all);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn feature_ok_waives_forwarding() {
        let dep = Manifest::parse(
            "crates/core/Cargo.toml",
            "[package]\nname = \"kloc-core\"\n[features]\nksan = []\n",
        );
        let text = MANIFEST.replace(
            "ksan = []",
            "# lint: feature-ok — ksan is mem-local\nksan = []",
        );
        let m = Manifest::parse("crates/mem/Cargo.toml", &text);
        let mut all = BTreeMap::new();
        all.insert("kloc-core".to_owned(), dep);
        let d = check_manifest(&m, &all);
        assert!(d.is_empty(), "{d:?}");
    }
}
