//! `perfbench` — wall-clock benchmarks of the simulator itself.
//!
//! Two modes, selected with `--mode` (default `sweep`):
//!
//! * `sweep` — times one fixed fig6-style sweep (capacity x ratio x
//!   policy x workload) executed serially and then with the parallel
//!   runner, checks the reports are identical, and writes
//!   `BENCH_sweep.json`. This measures *cross-run* scaling (PR 1).
//! * `run` — times individual `engine::run` executions per
//!   (policy, workload, scale) and writes `BENCH_run.json`. This
//!   measures the *per-run* hot path — policy bookkeeping, knode
//!   aging, cold-set selection — and is the committed perf trajectory
//!   for single-run optimizations.
//!
//! ```text
//! perfbench [--mode sweep|run] [--scale tiny|small|large|huge] [--jobs N]
//!           [--reps N] [--out PATH] [--check]
//! ```
//!
//! Defaults: `--mode sweep`, `--scale small` (sweep) or the
//! small+large+huge matrix (run), `--jobs` = hardware threads, `--reps
//! 3`, `--out BENCH_sweep.json` / `BENCH_run.json` per mode. Exits
//! non-zero if repeated runs are not byte-identical. Dependency-free:
//! timing via `std::time::Instant`, JSON emitted and parsed by hand.
//!
//! `--check` compares the fresh measurement against the committed
//! baseline at the `--out` path instead of overwriting it, and fails if
//! throughput regressed more than 20% (per matrix cell in `run` mode,
//! on parallel runs/s in `sweep` mode). CI runs this to catch perf
//! regressions the way the test suite catches behavioral ones. Cells
//! more than 20% *above* baseline also fail, with a distinct
//! "re-record baselines" notice: a perf PR must commit fresh BENCH_*
//! files, or the regression floor silently goes stale.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use kloc_policy::PolicyKind;
use kloc_sim::engine::{self, Platform, RunConfig};
use kloc_sim::report::{f2, Table};
use kloc_sim::Runner;
use kloc_workloads::{Scale, WorkloadKind};

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench [--mode sweep|run] [--scale tiny|small|large|huge] \
         [--jobs N] [--reps N] [--out PATH] [--check]"
    );
    ExitCode::FAILURE
}

/// Throughput loss beyond which `--check` fails the run.
const CHECK_TOLERANCE: f64 = 0.20;

/// Throughput *gain* beyond which `--check` flags the committed
/// baseline as stale (same notice either way: re-record BENCH_*.json).
const STALE_TOLERANCE: f64 = 0.20;

/// Outcome of one `--check` cell comparison.
#[derive(PartialEq, Clone, Copy)]
enum CellCheck {
    Ok,
    Regressed,
    /// Faster than the committed number by more than [`STALE_TOLERANCE`]
    /// — the baseline no longer reflects the code and must be
    /// re-recorded.
    Stale,
}

/// The sweep-mode matrix: a small fig6-style cross product whose runs
/// vary widely in cost — exactly the imbalance work stealing absorbs.
fn sweep(scale: &Scale) -> Vec<RunConfig> {
    let policies = [
        PolicyKind::AllSlow,
        PolicyKind::Naive,
        PolicyKind::Nimble,
        PolicyKind::NimblePlusPlus,
        PolicyKind::Kloc,
    ];
    let workloads = [WorkloadKind::RocksDb, WorkloadKind::Redis];
    let mut configs = Vec::new();
    for cap_shift in [0u64, 1] {
        for ratio in [8u64, 2] {
            for policy in policies {
                for w in workloads {
                    configs.push(RunConfig {
                        workload: w,
                        policy,
                        scale: scale.clone(),
                        platform: Platform::TwoTier {
                            fast_bytes: scale.fast_bytes >> cap_shift,
                            bw_ratio: ratio,
                        },
                        kernel_params: None,
                        faults: None,
                        budgets: Vec::new(),
                    });
                }
            }
        }
    }
    configs
}

/// The run-mode matrix: policies whose per-tick bookkeeping differs
/// (scan-based Nimble vs event-driven KLOCs) against the two most
/// knode-heavy workloads. Filebench opens a file per operation, so it
/// exercises knode creation, aging, and cold-set selection hardest.
fn run_matrix(scales: &[Scale]) -> Vec<RunConfig> {
    let policies = [
        PolicyKind::Nimble,
        PolicyKind::NimblePlusPlus,
        PolicyKind::KlocNoMigration,
        PolicyKind::Kloc,
    ];
    let workloads = [WorkloadKind::Filebench, WorkloadKind::RocksDb];
    let mut configs = Vec::new();
    for scale in scales {
        for w in workloads {
            for policy in policies {
                configs.push(RunConfig {
                    workload: w,
                    policy,
                    scale: scale.clone(),
                    platform: Platform::TwoTier {
                        fast_bytes: scale.fast_bytes,
                        bw_ratio: 8,
                    },
                    kernel_params: None,
                    faults: None,
                    budgets: Vec::new(),
                });
            }
        }
    }
    configs
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Extracts `"key": "value"` from one line of our own JSON output.
/// (The benchmark files are emitted by this binary, so the line-oriented
/// shape is stable; no general JSON parser needed.)
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

/// Extracts `"key": <number>` from one line of our own JSON output.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Per-cell throughput baselines from a committed `BENCH_run.json`:
/// (policy, workload, scale) -> ops_per_sec.
fn run_baseline(json: &str) -> Vec<((String, String, String), f64)> {
    json.lines()
        .filter_map(|line| {
            let policy = field_str(line, "policy")?;
            let workload = field_str(line, "workload")?;
            let scale = field_str(line, "scale")?;
            let ops_per_sec = field_num(line, "ops_per_sec")?;
            Some((
                (policy.to_owned(), workload.to_owned(), scale.to_owned()),
                ops_per_sec,
            ))
        })
        .collect()
}

/// Compares one cell: regression beyond [`CHECK_TOLERANCE`] below the
/// committed number fails; improvement beyond [`STALE_TOLERANCE`] above
/// it flags a stale baseline.
fn check_cell(label: &str, committed: f64, fresh: f64) -> CellCheck {
    let floor = committed * (1.0 - CHECK_TOLERANCE);
    let ceiling = committed * (1.0 + STALE_TOLERANCE);
    if fresh < floor {
        eprintln!(
            "[perfbench] CHECK FAIL {label}: {fresh:.0} vs committed {committed:.0} \
             (floor {floor:.0}, -{:.1}%)",
            100.0 * (1.0 - fresh / committed)
        );
        CellCheck::Regressed
    } else if fresh > ceiling {
        eprintln!(
            "[perfbench] CHECK STALE {label}: {fresh:.0} vs committed {committed:.0} \
             (ceiling {ceiling:.0}, +{:.1}%)",
            100.0 * (fresh / committed - 1.0)
        );
        CellCheck::Stale
    } else {
        eprintln!(
            "[perfbench] check ok {label}: {fresh:.0} vs committed {committed:.0} \
             ({:+.1}%)",
            100.0 * (fresh / committed - 1.0)
        );
        CellCheck::Ok
    }
}

/// Folds cell outcomes into the process exit code, emitting the
/// distinct stale-baseline notice when improvements (and no
/// regressions) tripped the check.
fn check_verdict(outcomes: &[CellCheck]) -> ExitCode {
    if outcomes.contains(&CellCheck::Regressed) {
        return ExitCode::FAILURE;
    }
    let stale = outcomes.iter().filter(|&&c| c == CellCheck::Stale).count();
    if stale > 0 {
        eprintln!(
            "[perfbench] NOTICE: {stale} cell(s) ran >{:.0}% above the committed \
             baseline — re-record baselines (run perfbench without --check and \
             commit the refreshed BENCH_*.json)",
            100.0 * STALE_TOLERANCE
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

struct Args {
    mode: Mode,
    scale: Option<Scale>,
    jobs: usize,
    reps: usize,
    out: Option<String>,
    check: bool,
}

#[derive(PartialEq, Clone, Copy)]
enum Mode {
    Sweep,
    Run,
}

fn parse_args() -> Result<Args, ()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut parsed = Args {
        mode: Mode::Sweep,
        scale: None,
        jobs: Runner::auto().jobs(),
        reps: 3,
        out: None,
        check: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--mode" => match args.get(i + 1).map(String::as_str) {
                Some("sweep") => parsed.mode = Mode::Sweep,
                Some("run") => parsed.mode = Mode::Run,
                _ => return Err(()),
            },
            "--scale" => match args.get(i + 1).map(String::as_str) {
                Some("tiny") => parsed.scale = Some(Scale::tiny()),
                Some("small") => parsed.scale = Some(Scale::small()),
                Some("large") => parsed.scale = Some(Scale::large()),
                Some("huge") => parsed.scale = Some(Scale::huge()),
                _ => return Err(()),
            },
            "--jobs" => match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => parsed.jobs = n,
                _ => return Err(()),
            },
            "--reps" => match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => parsed.reps = n,
                _ => return Err(()),
            },
            "--out" => match args.get(i + 1) {
                Some(path) => parsed.out = Some(path.clone()),
                None => return Err(()),
            },
            "--check" => {
                parsed.check = true;
                i += 1;
                continue;
            }
            _ => return Err(()),
        }
        i += 2;
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let Ok(args) = parse_args() else {
        return usage();
    };
    match args.mode {
        Mode::Sweep => bench_sweep(&args),
        Mode::Run => bench_run(&args),
    }
}

fn bench_sweep(args: &Args) -> ExitCode {
    let scale = args.scale.clone().unwrap_or_else(Scale::small);
    let jobs = args.jobs;
    let out = args.out.clone().unwrap_or("BENCH_sweep.json".to_owned());

    let configs = sweep(&scale);
    let n = configs.len();
    eprintln!(
        "[perfbench] sweep: {} runs at scale {}, {} worker(s)",
        n, scale.label, jobs
    );

    // Warm-up: touch every code path once so first-run effects (lazy
    // page faults, allocator growth) don't bias the serial leg.
    let warm = Runner::serial()
        .run_all(configs.clone())
        .expect("warm-up sweep");

    let t0 = Instant::now();
    let serial = Runner::serial()
        .run_all(configs.clone())
        .expect("serial sweep");
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let parallel = Runner::new(jobs).run_all(configs).expect("parallel sweep");
    let parallel_ms = t1.elapsed().as_secs_f64() * 1e3;

    if parallel != serial || warm != serial {
        eprintln!("[perfbench] FAIL: parallel reports differ from serial");
        return ExitCode::FAILURE;
    }

    let speedup = serial_ms / parallel_ms.max(1e-9);
    let serial_rps = n as f64 / (serial_ms / 1e3).max(1e-9);
    let parallel_rps = n as f64 / (parallel_ms / 1e3).max(1e-9);
    eprintln!(
        "[perfbench] serial {serial_ms:.1} ms ({serial_rps:.2} runs/s), \
         parallel {parallel_ms:.1} ms ({parallel_rps:.2} runs/s), \
         speedup {speedup:.2}x"
    );

    if args.check {
        let Ok(baseline) = std::fs::read_to_string(&out) else {
            eprintln!("[perfbench] CHECK FAIL: no committed baseline at {out}");
            return ExitCode::FAILURE;
        };
        let Some(committed) = baseline
            .lines()
            .find_map(|l| field_num(l, "parallel_runs_per_sec"))
        else {
            eprintln!("[perfbench] CHECK FAIL: {out} has no parallel_runs_per_sec");
            return ExitCode::FAILURE;
        };
        let outcome = check_cell("sweep parallel runs/s", committed, parallel_rps);
        return check_verdict(&[outcome]);
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"sweep\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", json_escape(&scale.label));
    let _ = writeln!(json, "  \"runs\": {n},");
    let _ = writeln!(json, "  \"jobs\": {jobs},");
    let _ = writeln!(json, "  \"serial_ms\": {serial_ms:.3},");
    let _ = writeln!(json, "  \"parallel_ms\": {parallel_ms:.3},");
    let _ = writeln!(json, "  \"serial_runs_per_sec\": {serial_rps:.3},");
    let _ = writeln!(json, "  \"parallel_runs_per_sec\": {parallel_rps:.3},");
    let _ = writeln!(json, "  \"speedup_vs_serial\": {speedup:.3},");
    let _ = writeln!(json, "  \"reports_identical\": true");
    let _ = writeln!(json, "}}");
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("[perfbench] cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("[perfbench] wrote {out}");
    ExitCode::SUCCESS
}

/// One single-run measurement: best and mean wall time over `reps`
/// repetitions of a deterministic run.
struct RunSample {
    policy: String,
    workload: String,
    scale: String,
    ops: u64,
    virt_elapsed_ns: u64,
    best_ms: f64,
    mean_ms: f64,
}

fn bench_run(args: &Args) -> ExitCode {
    let scales: Vec<Scale> = match &args.scale {
        Some(s) => vec![s.clone()],
        None => vec![Scale::small(), Scale::large(), Scale::huge()],
    };
    let out = args.out.clone().unwrap_or("BENCH_run.json".to_owned());
    let configs = run_matrix(&scales);
    eprintln!(
        "[perfbench] run: {} configs x {} reps (scales: {})",
        configs.len(),
        args.reps,
        scales
            .iter()
            .map(|s| s.label.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );

    // Warm-up pass: first-touch effects stay out of the measurement,
    // and each report doubles as the determinism reference its timed
    // reps must reproduce.
    let references: Vec<_> = configs
        .iter()
        .map(|config| engine::run(config).expect("bench run"))
        .collect();
    // Rep-major timing: every rep sweeps the whole matrix once, so a
    // transient burst of machine noise lands on at most one rep of each
    // cell instead of on every rep of whichever cell it overlapped.
    // `best_ms` (the min) is unchanged semantically but far harder for
    // a noisy co-tenant to poison.
    let mut best_ms = vec![f64::INFINITY; configs.len()];
    let mut total_ms = vec![0.0; configs.len()];
    for _ in 0..args.reps {
        for (i, config) in configs.iter().enumerate() {
            let t = Instant::now();
            let report = engine::run(config).expect("bench run");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if report != references[i] {
                eprintln!(
                    "[perfbench] FAIL: nondeterministic report for {}/{}/{}",
                    config.policy.label(),
                    config.workload.label(),
                    config.scale.label
                );
                return ExitCode::FAILURE;
            }
            best_ms[i] = best_ms[i].min(ms);
            total_ms[i] += ms;
        }
    }
    let mut samples = Vec::new();
    for (i, config) in configs.iter().enumerate() {
        let sample = RunSample {
            policy: config.policy.label().to_owned(),
            workload: config.workload.label().to_owned(),
            scale: config.scale.label.clone(),
            ops: references[i].ops,
            virt_elapsed_ns: references[i].elapsed.as_nanos(),
            best_ms: best_ms[i],
            mean_ms: total_ms[i] / args.reps as f64,
        };
        eprintln!(
            "[perfbench]   {:>16} {:>9} {:>5}: best {:8.1} ms ({:>9.0} ops/s)",
            sample.policy,
            sample.workload,
            sample.scale,
            sample.best_ms,
            sample.ops_per_sec()
        );
        samples.push(sample);
    }

    if args.check {
        let Ok(baseline) = std::fs::read_to_string(&out) else {
            eprintln!("[perfbench] CHECK FAIL: no committed baseline at {out}");
            return ExitCode::FAILURE;
        };
        let committed = run_baseline(&baseline);
        if committed.is_empty() {
            eprintln!("[perfbench] CHECK FAIL: {out} has no run cells");
            return ExitCode::FAILURE;
        }
        let mut outcomes = Vec::new();
        for s in &samples {
            let key = (s.policy.clone(), s.workload.clone(), s.scale.clone());
            let Some((_, base)) = committed.iter().find(|(k, _)| *k == key) else {
                // New matrix cells (e.g. a fresh scale) have no baseline
                // yet; they start being enforced once recorded.
                continue;
            };
            let label = format!("{}/{}/{}", s.policy, s.workload, s.scale);
            outcomes.push(check_cell(&label, *base, s.ops_per_sec()));
        }
        eprintln!(
            "[perfbench] check compared {}/{} cells against {out}",
            outcomes.len(),
            samples.len()
        );
        if outcomes.is_empty() {
            return ExitCode::FAILURE;
        }
        return check_verdict(&outcomes);
    }

    let mut table = Table::new(
        "perfbench --mode run (wall-clock per single run)",
        &["policy", "workload", "scale", "best ms", "kops/s"],
    );
    for s in &samples {
        table.row(vec![
            s.policy.clone(),
            s.workload.clone(),
            s.scale.clone(),
            f2(s.best_ms),
            f2(s.ops_per_sec() / 1e3),
        ]);
    }
    println!("{table}");

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"run\",");
    let _ = writeln!(json, "  \"reps\": {},", args.reps);
    let _ = writeln!(json, "  \"reports_identical\": true,");
    let _ = writeln!(json, "  \"runs\": [");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 < samples.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"policy\": \"{}\", \"workload\": \"{}\", \"scale\": \"{}\", \
             \"ops\": {}, \"virt_elapsed_ns\": {}, \"best_ms\": {:.3}, \
             \"mean_ms\": {:.3}, \"ops_per_sec\": {:.1}}}{}",
            json_escape(&s.policy),
            json_escape(&s.workload),
            json_escape(&s.scale),
            s.ops,
            s.virt_elapsed_ns,
            s.best_ms,
            s.mean_ms,
            s.ops_per_sec(),
            comma
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("[perfbench] cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("[perfbench] wrote {out}");
    ExitCode::SUCCESS
}

impl RunSample {
    /// Simulated operations executed per wall-clock second (best rep).
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / (self.best_ms / 1e3).max(1e-9)
    }
}
