//! `ktrace` — analyze `kloc-trace` JSONL files.
//!
//! ```text
//! ktrace summary  TRACE            # per-run overview + event counts
//! ktrace timeline TRACE [--ino N]  # per-KLOC tier-residency timelines
//! ktrace attrib   TRACE            # virtual-time flamegraph fold
//! ktrace rollup   TRACE            # counter totals + log2 histograms
//! ktrace schema                    # the event schema reference
//! ```
//!
//! Collect a trace with any build of `repro`:
//! `cargo run --release --bin repro -- all --scale tiny --trace out.jsonl`.

use std::process::ExitCode;

use kloc_sim::ktrace;
use kloc_trace::Event;

fn usage() -> ExitCode {
    eprintln!("usage: ktrace <summary|timeline|attrib|rollup> TRACE [--ino N] | ktrace schema");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let cmd = cmd.as_str();
    if !["summary", "timeline", "attrib", "rollup", "schema"].contains(&cmd) {
        eprintln!("error: unknown command: {cmd}");
        return usage();
    }
    if cmd == "schema" {
        if !rest.is_empty() {
            eprintln!("error: `ktrace schema` takes no arguments");
            return usage();
        }
        print!("{}", ktrace::render_schema());
        return ExitCode::SUCCESS;
    }
    let Some((path, flags)) = rest.split_first() else {
        return usage();
    };
    // Only `timeline` takes a flag, and only after TRACE.
    let ino = match flags {
        [] => None,
        [flag, n] if cmd == "timeline" && flag == "--ino" => match n.parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => {
                eprintln!("error: --ino needs an inode number, got `{n}`");
                return usage();
            }
        },
        _ => {
            eprintln!(
                "error: `ktrace {cmd}` does not accept `{}`",
                flags.join(" ")
            );
            return usage();
        }
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let events = match Event::parse_all(&text) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = match cmd {
        "summary" => ktrace::render_summary(&events),
        "timeline" => ktrace::render_timeline(&events, ino),
        "attrib" => ktrace::render_attrib(&events),
        _ => ktrace::render_rollup(&events),
    };
    print!("{out}");
    ExitCode::SUCCESS
}
