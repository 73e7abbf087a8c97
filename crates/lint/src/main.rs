//! CLI for the structural determinism lint: `cargo run -p kloc-lint`.
//!
//! With no arguments, lints every `.rs` file in the workspace (found by
//! walking up from the current directory to the `[workspace]` manifest).
//! With path arguments, lints exactly
//! those files/directories, each named by its workspace-relative path —
//! used by CI helpers and to demonstrate the fixture diagnostics:
//!
//! ```text
//! cargo run -p kloc-lint -- crates/lint/tests/fixtures
//! cargo run -p kloc-lint -- --explain KL001
//! ```
//!
//! Exit status: 0 when clean, 1 when any diagnostic fired, 2 on I/O or
//! usage errors.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use kloc_lint::{explain, lint_source, lint_workspace, workspace_files, Diagnostic};

fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// `file` relative to the workspace `root`, so that `crates/mem/x.rs`,
/// `./crates/mem/x.rs` and an absolute path all arm the same crate-scoped
/// rules and print the same diagnostics. Paths outside the workspace are
/// kept as given.
fn workspace_relative(root: Option<&Path>, file: &Path) -> String {
    root.and_then(|root| {
        let file = file.canonicalize().ok()?;
        Some(file.strip_prefix(root).ok()?.display().to_string())
    })
    .unwrap_or_else(|| file.display().to_string())
}

fn lint_explicit(paths: &[String]) -> std::io::Result<Vec<Diagnostic>> {
    let root = find_workspace_root().and_then(|r| r.canonicalize().ok());
    let mut out = Vec::new();
    for arg in paths {
        let path = Path::new(arg);
        let files = if path.is_dir() {
            // Explicit paths lint everything below them, fixtures included.
            let mut v = Vec::new();
            let mut stack = vec![path.to_path_buf()];
            while let Some(dir) = stack.pop() {
                let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
                    .filter_map(|e| e.ok().map(|e| e.path()))
                    .collect();
                entries.sort();
                for p in entries {
                    if p.is_dir() {
                        stack.push(p);
                    } else if p.extension().is_some_and(|e| e == "rs") {
                        v.push(p);
                    }
                }
            }
            v.sort();
            v
        } else {
            vec![path.to_path_buf()]
        };
        for file in files {
            let source = std::fs::read_to_string(&file)?;
            out.extend(lint_source(
                &workspace_relative(root.as_deref(), &file),
                &source,
            ));
        }
    }
    out.sort();
    Ok(out)
}

/// The live rule ids, comma-separated.
fn known_rules() -> String {
    let ids: Vec<&str> = explain::RULES.iter().map(|r| r.id).collect();
    ids.join(", ")
}

fn run() -> Result<ExitCode, std::io::Error> {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if let Some(pos) = args.iter().position(|a| a == "--explain") {
        let Some(id) = args.get(pos + 1) else {
            eprintln!("kloc-lint: --explain needs a rule id ({})", known_rules());
            return Ok(ExitCode::from(2));
        };
        return Ok(match explain::explain(id) {
            Some(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("kloc-lint: unknown rule `{id}` (known: {})", known_rules());
                ExitCode::from(2)
            }
        });
    }

    if !args.is_empty() {
        let diags = lint_explicit(&args)?;
        return Ok(report(&diags, 0));
    }

    let Some(root) = find_workspace_root() else {
        eprintln!("kloc-lint: no [workspace] Cargo.toml found above the current directory");
        return Ok(ExitCode::from(2));
    };
    let diags = lint_workspace(&root)?;
    let scanned = workspace_files(&root).map(|f| f.len()).unwrap_or(0);
    Ok(report(&diags, scanned))
}

fn report(diags: &[Diagnostic], scanned: usize) -> ExitCode {
    for d in diags {
        println!("{d}");
    }
    if diags.is_empty() {
        if scanned > 0 {
            eprintln!("kloc-lint: {scanned} files clean");
        }
        ExitCode::SUCCESS
    } else {
        eprintln!("kloc-lint: {} violation(s)", diags.len());
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("kloc-lint: {e}");
            ExitCode::from(2)
        }
    }
}
