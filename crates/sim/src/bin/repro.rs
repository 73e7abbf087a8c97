//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--scale tiny|small|large|huge] [--seed N] [--jobs N] [--trace FILE]
//!
//! experiments:
//!   fig2a fig2b fig2c fig2d   motivation study
//!   fig4                      two-tier speedups
//!   fig5a fig5b fig5c         Optane / sources / sensitivity
//!   fig6                      capacity x bandwidth sweep
//!   table6                    KLOC metadata overhead
//!   percpu prefetch           ablations (4.3, 7.3)
//!   thp granularity           future-work extensions (5, 4.4)
//!   tenants                   tenant isolation (budgets off vs on)
//!   run --workload W --policy P   one run (trace-friendly)
//!   crashsweep                journal crash-recovery sweep
//!   chaos                     QoS graceful-degradation soak
//!   all                       everything above (except `run`/`crashsweep`/`chaos`/`tenants`)
//! ```
//!
//! `--jobs N` sets the sweep-runner thread count (default: one per
//! hardware thread; `--jobs 1` forces serial execution). Results are
//! identical at any job count — runs are independent and deterministic.
//!
//! `--trace FILE` collects a `kloc-trace` JSONL document covering every
//! run the invocation executes (for `crashsweep` and `chaos`, every
//! drive of the workload, each its own run slice) and writes it to
//! FILE; analyze it with the `ktrace` binary. Every build can trace:
//! without the flag the recorder stays off and reports are unchanged.
//! Trace bytes are byte-identical at any `--jobs` count.
//!
//! Faults are selected at run time, in every build: `repro crashsweep
//! [--crash-points N]` runs the journal crash-recovery sweep (fails if
//! the consistency checker finds any violation), `repro chaos` runs the
//! QoS graceful-degradation soak (fails on any SLO breach; its report
//! is byte-identical at any `--jobs` setting), and `repro run
//! --fault-seed N` injects a seeded disk/tier/migration fault plan into
//! the single run.
//!
//! Every experiment rejects a flag it does not accept (usage, exit 1),
//! so a misspelled `--fault-seed` cannot quietly yield a fault-free run.
//!
//! `KLOC_KSAN_INTERVAL=N` arms the KSAN invariant sanitizer in a release
//! build, auditing every N measured operations (a debug build always
//! audits, every 256). Reports are unchanged; a value that is not a
//! positive integer is an error (exit 1).

use std::process::ExitCode;

use kloc_mem::{FaultPlan, Nanos};
use kloc_policy::PolicyKind;
use kloc_sim::engine::{Platform, RunConfig};
use kloc_sim::experiments::{ablations, fig2, fig4, fig5, fig6, table6, tenants};
use kloc_sim::Runner;
use kloc_workloads::{Scale, WorkloadKind};

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro <fig2a|fig2b|fig2c|fig2d|fig4|fig5a|fig5b|fig5c|fig6|table6|percpu|prefetch|thp|granularity|tenants|all> [--scale tiny|small|large|huge] [--seed N] [--jobs N] [--trace FILE]\n       repro run --workload <rocksdb|redis|filebench|cassandra|spark|tenants|tenants-nobudget> --policy <naive|nimble|nimble++|kloc-nomigration|kloc|all-fast|all-slow|autonuma|autonuma-kloc> [--fault-seed N] [options]\n       repro crashsweep [--crash-points N] [options]\n       repro chaos [options]"
    );
    ExitCode::FAILURE
}

/// Every experiment name `repro` accepts as its first argument.
const EXPERIMENTS: &[&str] = &[
    "fig2a",
    "fig2b",
    "fig2c",
    "fig2d",
    "fig4",
    "fig5a",
    "fig5b",
    "fig5c",
    "fig6",
    "table6",
    "percpu",
    "prefetch",
    "thp",
    "granularity",
    "tenants",
    "run",
    "crashsweep",
    "chaos",
    "all",
];

/// Flags every experiment accepts; each takes one value.
const COMMON_FLAGS: &[&str] = &["--scale", "--seed", "--jobs", "--trace"];

/// Rejects anything after the experiment name that is not a `--flag
/// value` pair `which` accepts, and any flag given twice (each flag is
/// read once, so a repeat would be silently ignored). Values are
/// checked by each flag's own parser.
fn check_flags(which: &str, rest: &[String]) -> Result<(), String> {
    let own: &[&str] = match which {
        "run" => &["--workload", "--policy", "--fault-seed"],
        "crashsweep" => &["--crash-points"],
        _ => &[],
    };
    let mut seen: Vec<&str> = Vec::new();
    let mut args = rest.iter();
    while let Some(flag) = args.next() {
        if !COMMON_FLAGS.contains(&flag.as_str()) && !own.contains(&flag.as_str()) {
            return Err(format!("`repro {which}` does not accept `{flag}`"));
        }
        if seen.contains(&flag.as_str()) {
            return Err(format!("`{flag}` given more than once"));
        }
        seen.push(flag);
        args.next();
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(which) = args.first().cloned() else {
        return usage();
    };
    if !EXPERIMENTS.contains(&which.as_str()) {
        eprintln!("error: unknown experiment: {which}");
        return usage();
    }
    if let Err(e) = check_flags(&which, &args[1..]) {
        eprintln!("error: {e}");
        return usage();
    }
    if let Err(e) = kloc_sim::engine::ksan_from_env() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let mut scale = Scale::large();
    if let Some(pos) = args.iter().position(|a| a == "--scale") {
        match args.get(pos + 1).map(String::as_str) {
            Some("tiny") => scale = Scale::tiny(),
            Some("small") => scale = Scale::small(),
            Some("large") => scale = Scale::large(),
            Some("huge") => scale = Scale::huge(),
            _ => return usage(),
        }
    }
    if let Some(pos) = args.iter().position(|a| a == "--seed") {
        match args.get(pos + 1).and_then(|s| s.parse::<u64>().ok()) {
            Some(seed) => scale = scale.with_seed(seed),
            None => return usage(),
        }
    }
    let mut runner = Runner::auto();
    if let Some(pos) = args.iter().position(|a| a == "--jobs") {
        match args.get(pos + 1).and_then(|s| s.parse::<usize>().ok()) {
            Some(jobs) if jobs >= 1 => runner = Runner::new(jobs),
            _ => return usage(),
        }
    }
    let mut trace_path = None;
    if let Some(pos) = args.iter().position(|a| a == "--trace") {
        match args.get(pos + 1) {
            Some(path) => trace_path = Some(path.clone()),
            None => return usage(),
        }
    }
    if trace_path.is_some() {
        kloc_trace::session_begin();
    }
    match run(&which, &runner, &scale, &args) {
        Ok(()) => {
            if let Some(path) = trace_path {
                let jsonl = kloc_trace::session_take();
                if let Err(e) = std::fs::write(&path, jsonl) {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("[trace written to {path}]");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `--workload` / `--policy` for the single-run experiment.
fn single_run_config(args: &[String], scale: &Scale) -> Result<RunConfig, String> {
    let value_of = |flag: &str| -> Result<String, String> {
        let pos = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("`repro run` needs {flag}"))?;
        args.get(pos + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = match value_of("--workload")?.to_lowercase().as_str() {
        "rocksdb" => WorkloadKind::RocksDb,
        "redis" => WorkloadKind::Redis,
        "filebench" => WorkloadKind::Filebench,
        "cassandra" => WorkloadKind::Cassandra,
        "spark" => WorkloadKind::Spark,
        "tenants" => WorkloadKind::Tenants { budgeted: true },
        "tenants-nobudget" => WorkloadKind::Tenants { budgeted: false },
        other => return Err(format!("unknown workload: {other}")),
    };
    let policy = match value_of("--policy")?.to_lowercase().as_str() {
        "all-fast" => PolicyKind::AllFast,
        "all-slow" => PolicyKind::AllSlow,
        "naive" => PolicyKind::Naive,
        "nimble" => PolicyKind::Nimble,
        "nimble++" => PolicyKind::NimblePlusPlus,
        "kloc-nomigration" => PolicyKind::KlocNoMigration,
        "kloc" => PolicyKind::Kloc,
        "autonuma" => PolicyKind::AutoNuma,
        "autonuma-kloc" => PolicyKind::AutoNumaKloc,
        other => return Err(format!("unknown policy: {other}")),
    };
    let mut faults = None;
    if let Some(pos) = args.iter().position(|a| a == "--fault-seed") {
        let seed = args
            .get(pos + 1)
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or("--fault-seed needs a number")?;
        // The horizon only has to land the plan's faults inside the run;
        // tiny/small/large runs all exceed one virtual microsecond per op.
        faults = Some(FaultPlan::seeded(seed, Nanos::from_micros(scale.ops)));
    }
    Ok(RunConfig {
        workload,
        policy,
        scale: scale.clone(),
        platform: platform_for(scale),
        kernel_params: None,
        faults,
        budgets: Vec::new(),
    })
}

fn platform_for(scale: &Scale) -> Platform {
    Platform::TwoTier {
        fast_bytes: scale.fast_bytes,
        bw_ratio: 8,
    }
}

fn run(
    which: &str,
    runner: &Runner,
    scale: &Scale,
    args: &[String],
) -> Result<(), Box<dyn std::error::Error>> {
    if which == "run" {
        let config = single_run_config(args, scale)?;
        eprintln!(
            "[single run: {} / {} at scale {}...]",
            config.workload.label(),
            config.policy.label(),
            scale.label
        );
        let report = &runner.run_all(vec![config])?[0];
        println!(
            "{} / {}: {} ops in {} ns virtual ({:.0} ops/s, {:.1}% fast-tier accesses)",
            report.workload,
            report.policy,
            report.ops,
            report.elapsed.as_nanos(),
            report.throughput(),
            100.0 * report.fast_access_fraction(),
        );
        if report.io_errors > 0 || report.io_retries > 0 {
            println!(
                "  faults: {} disk I/O errors, {} blk-mq retries",
                report.io_errors, report.io_retries
            );
        }
        return Ok(());
    }
    if which == "tenants" {
        eprintln!(
            "[tenant isolation at scale {} (budgets off vs on)...]",
            scale.label
        );
        let iso = tenants::run(runner, scale, platform_for(scale))?;
        println!("{}", tenants::table(&iso));
        println!("{}", iso.verdict());
        if !iso.isolated() {
            return Err("per-tenant budgets failed to isolate the tenants".into());
        }
        return Ok(());
    }
    if which == "chaos" {
        eprintln!(
            "[chaos soak at scale {} (drain + faults + resize)...]",
            scale.label
        );
        let report = kloc_sim::chaos::run(scale)?;
        print!("{}", report.render());
        if report.breaches() > 0 {
            return Err(format!("chaos soak found {} SLO breach(es)", report.breaches()).into());
        }
        return Ok(());
    }
    if which == "crashsweep" {
        let mid_points = match args.iter().position(|a| a == "--crash-points") {
            Some(pos) => args
                .get(pos + 1)
                .and_then(|s| s.parse::<u32>().ok())
                .ok_or("--crash-points needs a number")?,
            None => 2,
        };
        eprintln!(
            "[crashsweep at scale {} ({mid_points} mid-commit points per commit)...]",
            scale.label
        );
        let mut violations = 0;
        for w in [WorkloadKind::Filebench, WorkloadKind::RocksDb] {
            let summary = kloc_sim::crashsweep::sweep(w, PolicyKind::Kloc, scale, mid_points)?;
            print!("{}", summary.render());
            violations += summary.violations();
            // Crashes planted inside an active tier-drain window:
            // the drain is journal-free, so recovery must stay clean.
            let drains = kloc_sim::crashsweep::sweep_drain_window(
                w,
                PolicyKind::Kloc,
                scale,
                mid_points.max(1),
            )?;
            print!("{}", drains.render());
            violations += drains.violations();
        }
        if violations > 0 {
            return Err(format!("crash-recovery checker found {violations} violations").into());
        }
        return Ok(());
    }
    let all = which == "all";
    let small_pair = |s: &Scale| {
        // Fig 2b needs both scales, resized to keep runtime similar.
        let mut small = Scale::small();
        small.ops = s.ops / 2;
        small
    };

    if all || which.starts_with("fig2") {
        eprintln!(
            "[motivation runs at scale {} ({} jobs)...]",
            scale.label,
            runner.jobs()
        );
        let reports = fig2::run_all(runner, scale)?;
        if all || which == "fig2a" {
            println!("{}", fig2::fig2a_table(&fig2::fig2a(&reports)));
            println!("{}", fig2::fig2a_detailed_table(&reports));
        }
        if all || which == "fig2b" {
            let small = fig2::run_all(runner, &small_pair(scale))?;
            println!("{}", fig2::fig2b_table(&fig2::fig2b(&small, &reports)));
        }
        if all || which == "fig2c" {
            println!("{}", fig2::fig2c_table(&fig2::fig2c(&reports)));
        }
        if all || which == "fig2d" {
            println!("{}", fig2::fig2d_table(&fig2::fig2d(&reports)));
        }
        if !all {
            return Ok(());
        }
    }

    if all || which == "fig4" {
        eprintln!("[fig4: two-tier speedups...]");
        let rows = fig4::run(runner, scale, platform_for(scale), &WorkloadKind::ALL)?;
        println!("{}", fig4::table(&rows));
        if !all {
            return Ok(());
        }
    }

    if all || which == "fig5a" {
        eprintln!("[fig5a: Optane Memory Mode...]");
        let rows = fig5::fig5a(runner, scale, &WorkloadKind::EVALUATED)?;
        println!("{}", fig5::fig5a_table(&rows));
        if !all {
            return Ok(());
        }
    }

    if all || which == "fig5b" {
        eprintln!("[fig5b: sources of improvement (RocksDB)...]");
        let rows = fig5::fig5b(runner, scale, platform_for(scale))?;
        println!("{}", fig5::fig5b_table(&rows));
        if !all {
            return Ok(());
        }
    }

    if all || which == "fig5c" {
        eprintln!("[fig5c: per-object-class sensitivity...]");
        let rows = fig5::fig5c(runner, scale, platform_for(scale), &WorkloadKind::EVALUATED)?;
        println!("{}", fig5::fig5c_table(&rows));
        if !all {
            return Ok(());
        }
    }

    if all || which == "fig6" {
        eprintln!("[fig6: capacity x bandwidth sweep...]");
        let cells = fig6::run(
            runner,
            scale,
            &WorkloadKind::EVALUATED,
            &fig6::CAPACITIES,
            &fig6::RATIOS,
        )?;
        println!("{}", fig6::table(&cells));
        if !all {
            return Ok(());
        }
    }

    if all || which == "table6" {
        eprintln!("[table6: KLOC metadata overhead...]");
        let rows = table6::run(runner, scale, &WorkloadKind::ALL)?;
        println!("{}", table6::table(&rows));
        if !all {
            return Ok(());
        }
    }

    if all || which == "percpu" {
        eprintln!("[ablation: per-CPU knode lists...]");
        let a = ablations::percpu(runner, scale)?;
        println!("{}", ablations::percpu_table(&a));
        if !all {
            return Ok(());
        }
    }

    if all || which == "prefetch" {
        eprintln!("[ablation: KLOC-aware prefetch...]");
        let a = ablations::prefetch(runner, scale, WorkloadKind::Spark)?;
        println!("{}", ablations::prefetch_table(&a));
        if !all {
            return Ok(());
        }
    }

    if all || which == "thp" {
        eprintln!("[ablation: transparent huge pages (paper 5 hypothesis)...]");
        let a = ablations::thp(runner, scale, &[WorkloadKind::RocksDb, WorkloadKind::Redis])?;
        println!("{}", ablations::thp_table(&a));
        if !all {
            return Ok(());
        }
    }

    if all || which == "granularity" {
        eprintln!("[ablation: tracking granularity (paper 4.4 future work)...]");
        let a = ablations::granularity(runner, scale, &WorkloadKind::EVALUATED)?;
        println!("{}", ablations::granularity_table(&a));
        if !all {
            return Ok(());
        }
    }

    Ok(())
}
