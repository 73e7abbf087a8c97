//! `klocbench` command line.
//!
//! ```text
//! klocbench [--workload NAME] [--seed N] [--seconds S] [--reps N]
//!           [--trace 0|1] [--out FILE]
//! ```
//!
//! With `--workload`, measures that workload and prints its metrics,
//! one per line with its unit, then one JSON object as the last line of
//! standard output. Without it, re-executes itself once per workload (so
//! `peak_rss_mb` is per workload), prints every workload's lines, and
//! optionally saves them with host metadata to `--out` (only valid
//! without `--workload`). Exits non-zero
//! if any timed run failed or disagreed with its reference.

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use klocbench::bench::{self, Options, Stop, Workload};

/// Seed of every `Scale` constructor.
const DEFAULT_SEED: u64 = 0x51_0C5;
const DEFAULT_SECONDS: f64 = 30.0;

fn usage() -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: klocbench [--workload {}] [--seed N] [--seconds S] [--reps N] \
         [--trace 0|1] [--out FILE]",
        names.join("|")
    );
    ExitCode::from(2)
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    reps: Option<usize>,
    trace: bool,
    out: Option<String>,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Option<Args> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        reps: None,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => parsed.workload = Some(Workload::from_name(value)?),
            "--seed" => parsed.seed = parse_seed(value)?,
            "--seconds" => {
                parsed.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?;
            }
            "--reps" => parsed.reps = Some(value.parse().ok().filter(|&n| n >= 1)?),
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--out" => parsed.out = Some(value.clone()),
            _ => return None,
        }
    }
    Some(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = parse_args(&argv).filter(|a| a.workload.is_none() || a.out.is_none()) else {
        return usage();
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

/// A finite JSON number with every digit Rust prints.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let opts = Options {
        scale: workload.scale().with_seed(args.seed),
        stop: args.reps.map_or(Stop::Seconds(args.seconds), Stop::Reps),
        trace: args.trace,
    };
    let outcome = match bench::measure(workload, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "klocbench: reference run of {} failed: {e}",
                workload.name()
            );
            return ExitCode::FAILURE;
        }
    };
    println!(
        "klocbench workload={} seed={:#x} scale={} trace={} reps={} runs={} failed={}",
        workload.name(),
        args.seed,
        opts.scale.label,
        u8::from(args.trace),
        outcome.reps,
        outcome.attempted,
        outcome.failed
    );
    let mut json = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    if !outcome.spans.is_empty() {
        eprint!(
            "klocbench: spans of {} (folded stacks, median traced rep, timer-corrected ns)\n{}",
            workload.name(),
            outcome.spans
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own.
fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("klocbench: cannot locate the running executable");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    let mut results = Vec::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(reps) = args.reps {
            cmd.args(["--reps", &reps.to_string()]);
        }
        let output = match cmd.stderr(Stdio::inherit()).output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("klocbench: cannot run {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        print!("{stdout}");
        ok &= output.status.success();
        let reps = stdout
            .split_whitespace()
            .find_map(|f| f.strip_prefix("reps="))
            .unwrap_or("0")
            .to_owned();
        let last = stdout.lines().last().unwrap_or("null").to_owned();
        results.push((w.name(), reps, last));
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, results_json(args, &results)) {
            eprintln!("klocbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("klocbench: wrote {path}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `--out` file: every workload's result line plus the host, seed,
/// run length and commit it was measured on.
fn results_json(args: &Args, results: &[(&str, String, String)]) -> String {
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_owned(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_owned()
        });
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_default()
        .replace(['"', '\\'], "");
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"commit\": \"{commit}\",");
    let _ = writeln!(
        out,
        "  \"host\": {{\"nproc\": {}, \"cpu\": \"{cpu}\"}},",
        bench::nproc()
    );
    let _ = writeln!(out, "  \"seed\": {},", args.seed);
    match args.reps {
        Some(r) => {
            let _ = writeln!(out, "  \"stop\": {{\"reps\": {r}}},");
        }
        None => {
            let _ = writeln!(out, "  \"stop\": {{\"seconds\": {}}},", args.seconds);
        }
    }
    let _ = writeln!(out, "  \"trace\": {},", args.trace);
    let _ = writeln!(out, "  \"workloads\": {{");
    for (i, (name, reps, result)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    \"{name}\": {{\"reps\": {reps}, \"result\": {result}}}{comma}"
        );
    }
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}
