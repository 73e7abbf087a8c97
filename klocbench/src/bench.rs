//! The four workloads, their measurement loops, and the metrics they
//! report.
//!
//! Load model: a closed loop. The simulator starts the next operation
//! only after the previous one completes, so there is no arrival rate.
//! Each cell runs on one thread; `sweep`'s parallel leg uses
//! `min(2, nproc)` worker threads.

use std::collections::BTreeMap;
use std::time::Instant;

use kloc_kernel::KernelError;
use kloc_policy::PolicyKind;
use kloc_sim::engine::{self, Platform, RunConfig, RunReport};
use kloc_sim::Runner;
use kloc_workloads::{Scale, WorkloadKind};

use crate::replay::{self, Timing};
use crate::stats::{geomean, median, quantile};
use crate::timed::{calibrate, Calibration, Timed, HOOKS};
use crate::yardstick::{self, REFERENCE_NS};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// RocksDB × KLOCs × Huge: registry-heavy.
    RocksdbKloc,
    /// RocksDB × Nimble × Huge: the same kernel traffic, registry bypassed.
    RocksdbNimble,
    /// Budgeted multi-tenant × KLOCs × Large: page-cache churn and caps.
    TenantsKloc,
    /// The 40-run fig6-style sweep at Small, serial and through `Runner`.
    Sweep,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::RocksdbKloc,
        Workload::RocksdbNimble,
        Workload::TenantsKloc,
        Workload::Sweep,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RocksdbKloc => "rocksdb-kloc",
            Workload::RocksdbNimble => "rocksdb-nimble",
            Workload::TenantsKloc => "tenants-kloc",
            Workload::Sweep => "sweep",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scale the benchmark runs the workload at.
    pub fn scale(self) -> Scale {
        match self {
            Workload::RocksdbKloc | Workload::RocksdbNimble => Scale::huge(),
            Workload::TenantsKloc => Scale::large(),
            Workload::Sweep => Scale::small(),
        }
    }

    /// The run configs one repetition executes, at `scale`.
    pub fn configs(self, scale: &Scale) -> Vec<RunConfig> {
        match self {
            Workload::RocksdbKloc => vec![cell(WorkloadKind::RocksDb, PolicyKind::Kloc, scale)],
            Workload::RocksdbNimble => {
                vec![cell(WorkloadKind::RocksDb, PolicyKind::Nimble, scale)]
            }
            Workload::TenantsKloc => vec![cell(
                WorkloadKind::Tenants { budgeted: true },
                PolicyKind::Kloc,
                scale,
            )],
            Workload::Sweep => sweep(scale),
        }
    }
}

/// One perfbench-style cell: the scale's own fast tier at a 1:8
/// bandwidth differential.
fn cell(workload: WorkloadKind, policy: PolicyKind, scale: &Scale) -> RunConfig {
    RunConfig {
        platform: Platform::TwoTier {
            fast_bytes: scale.fast_bytes,
            bw_ratio: 8,
        },
        ..RunConfig::two_tier(workload, policy, scale.clone())
    }
}

/// perfbench's sweep matrix: fast tier {1, ½} × bandwidth {8, 2} ×
/// five policies × {RocksDB, Redis}.
fn sweep(scale: &Scale) -> Vec<RunConfig> {
    let policies = [
        PolicyKind::AllSlow,
        PolicyKind::Naive,
        PolicyKind::Nimble,
        PolicyKind::NimblePlusPlus,
        PolicyKind::Kloc,
    ];
    let mut configs = Vec::new();
    for cap_shift in [0u64, 1] {
        for bw_ratio in [8u64, 2] {
            for policy in policies {
                for w in [WorkloadKind::RocksDb, WorkloadKind::Redis] {
                    configs.push(RunConfig {
                        platform: Platform::TwoTier {
                            fast_bytes: scale.fast_bytes >> cap_shift,
                            bw_ratio,
                        },
                        ..RunConfig::two_tier(w, policy, scale.clone())
                    });
                }
            }
        }
    }
    configs
}

/// When a measurement stops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stop {
    /// Start repetitions until this many host seconds have passed.
    Seconds(f64),
    /// Exactly this many repetitions.
    Reps(usize),
}

/// How to measure one workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Scale, seed applied.
    pub scale: Scale,
    /// Run length.
    pub stop: Stop,
    /// Traced pass (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The result of measuring one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Timed repetitions (traced mode: untraced/traced pairs).
    pub reps: usize,
    /// Timed simulator runs.
    pub attempted: u64,
    /// Timed runs that failed or disagreed with their reference.
    pub failed: u64,
    /// Every end-to-end metric (untraced) or every per-layer metric
    /// (traced), in table order.
    pub metrics: Vec<Metric>,
    /// Folded-stack spans of the median traced repetition (traced only).
    pub spans: String,
}

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sim_kops_per_s", "kops/s"),
    ("run_ms_floor", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("virt_kops_per_s", "kops/s"),
    ("virt_kloc_speedup", "ratio"),
];

/// Per-layer metrics: name and unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("workloads.step_ns_p50".into(), "ns"),
        ("workloads.step_ns_p99".into(), "ns"),
        ("kernel.self_ms".into(), "ms"),
    ];
    for hook in HOOKS {
        out.push((format!("policy.{hook}.calls"), "count"));
        out.push((format!("policy.{hook}.ms"), "ms"));
    }
    let rest: [(&str, &'static str); 30] = [
        ("policy.hooks_ms", "ms"),
        ("policy.tick.calls", "count"),
        ("policy.tick.ms", "ms"),
        ("sim.teardown_ms", "ms"),
        ("core.knodes_created", "count"),
        ("core.knode_demotions", "count"),
        ("core.pages_demoted", "count"),
        ("core.knode_promotions", "count"),
        ("core.pages_promoted", "count"),
        ("core.percpu_hit_ratio", "ratio"),
        ("core.kmap_tree_accesses", "count"),
        ("kernel.syscalls", "count"),
        ("kernel.cache_hit_ratio", "ratio"),
        ("kernel.writeback_pages", "count"),
        ("kernel.reclaimed_pages", "count"),
        ("kernel.readahead_useful_ratio", "ratio"),
        ("mem.accesses", "count"),
        ("mem.fast_access_frac", "ratio"),
        ("mem.migrations", "count"),
        ("mem.host_ns_per_access", "ns"),
        ("tenants.cross_evictions", "count"),
        ("tenants.preempted", "count"),
        ("runner.serial_s", "s"),
        ("runner.speedup", "ratio"),
        ("runner.efficiency", "ratio"),
        ("runner.jobs", "count"),
        ("host.nproc", "count"),
        ("host.yardstick_ms", "ms"),
        ("bench.timer_ns", "ns"),
        ("bench.trace_overhead_pct", "%"),
    ];
    out.extend(rest.into_iter().map(|(n, u)| (n.to_owned(), u)));
    out
}

/// Host hardware threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Worker threads of `sweep`'s parallel leg.
fn sweep_jobs() -> usize {
    nproc().min(2)
}

/// Host time of one pass over a workload's configs through the replay.
#[derive(Debug, Clone, Default)]
struct Leg {
    wall_ns: u64,
    setup_ns: u64,
    measured_ns: u64,
    teardown_ns: u64,
    /// Every config's measured-phase segments, in config order. Each rep
    /// cuts the same deterministic work at the same places.
    measured_segments: Vec<u64>,
    /// Per config: setup, teardown, and the rest of the call (building
    /// the policy, dropping the simulated system).
    other_segments: Vec<u64>,
    /// Traced legs: timer-corrected step ns, pooled over the configs.
    steps: Vec<f64>,
    hook_calls: [u64; 12],
    hook_ns: [f64; 12],
    ticks: u64,
    tick_ns: f64,
    /// Inner spans (steps, hooks, ticks) whose timing cost the measured
    /// phase carries.
    spans: u64,
    /// Timer cost measured just before a traced leg, so the correction
    /// follows the host's speed.
    cal: Option<Calibration>,
}

/// Shared state of one measurement.
struct Run<'a> {
    configs: &'a [RunConfig],
    refs: &'a [RunReport],
    attempted: u64,
    failed: u64,
}

impl Run<'_> {
    fn check(&mut self, i: usize, got: Result<RunReport, KernelError>, how: &str) {
        self.attempted += 1;
        let c = &self.configs[i];
        match got {
            Ok(report) if report == self.refs[i] => {}
            Ok(_) => {
                self.failed += 1;
                eprintln!(
                    "klocbench: MISMATCH ({how}) {} × {} at {} seed {:#x} {:?}: report differs from engine::run",
                    c.workload, c.policy, c.scale.label, c.scale.seed, c.platform
                );
            }
            Err(e) => {
                self.failed += 1;
                eprintln!(
                    "klocbench: FAILED ({how}) {} × {} at {} seed {:#x} {:?}: {e}",
                    c.workload, c.policy, c.scale.label, c.scale.seed, c.platform
                );
            }
        }
    }

    /// Drives every config once, untraced or traced.
    fn leg(&mut self, traced: bool) -> Leg {
        let mut leg = Leg {
            cal: traced.then(calibrate),
            ..Leg::default()
        };
        let start = Instant::now();
        for i in 0..self.configs.len() {
            let config = &self.configs[i];
            let call = Instant::now();
            let result = if traced {
                let mut policy = Timed::new(config.policy.build());
                let times = policy.times();
                replay::run(config, &mut policy, Some(&times))
            } else {
                replay::run(config, config.policy.build().as_mut(), None)
            };
            let call_ns = crate::timed::elapsed_ns(call);
            let (report, timing) = match result {
                Ok((report, timing)) => (Ok(report), timing),
                Err(e) => (Err(e), Timing::default()),
            };
            self.check(i, report, if traced { "traced" } else { "replay" });
            leg.setup_ns += timing.setup_ns;
            leg.measured_ns += timing.measured_ns;
            leg.teardown_ns += timing.teardown_ns;
            leg.measured_segments.extend(&timing.segments);
            let phases = timing.setup_ns + timing.measured_ns + timing.teardown_ns;
            leg.other_segments.extend([
                timing.setup_ns,
                timing.teardown_ns,
                call_ns.saturating_sub(phases),
            ]);
            if let (Some(tr), Some(cal)) = (timing.trace, leg.cal) {
                let (span, cost) = (cal.span_ns, cal.cost_ns);
                leg.steps.extend(
                    tr.steps
                        .iter()
                        .map(|&(ns, calls)| (ns as f64 - span - calls as f64 * cost).max(0.0)),
                );
                for h in 0..HOOKS.len() {
                    let (calls, ns) = (tr.hooks.calls[h] as f64, tr.hooks.ns[h] as f64);
                    leg.hook_calls[h] += tr.hooks.calls[h];
                    leg.hook_ns[h] += (ns - calls * span).max(0.0);
                }
                leg.ticks += tr.ticks;
                leg.tick_ns += tr.tick_ns as f64 - tr.ticks as f64 * span;
                leg.spans += tr.steps.len() as u64 + tr.hooks.total_calls() + tr.ticks;
            }
        }
        leg.wall_ns = crate::timed::elapsed_ns(start);
        leg
    }

    /// Runs every config through a [`sweep_jobs`]-worker `Runner`;
    /// returns its wall ns.
    fn parallel(&mut self) -> u64 {
        let start = Instant::now();
        let result = Runner::new(sweep_jobs()).run_all(self.configs.to_vec());
        let wall = crate::timed::elapsed_ns(start);
        match result {
            Ok(reports) => {
                for (i, r) in reports.into_iter().enumerate() {
                    self.check(i, Ok(r), "parallel");
                }
            }
            Err(e) => {
                for i in 0..self.configs.len() {
                    self.check(i, Err(e.clone()), "parallel");
                }
            }
        }
        wall
    }
}

/// Measures `workload` as `opts` says.
///
/// # Errors
/// A reference `engine::run` failed; timed runs that fail are counted
/// in [`Outcome::failed`] instead.
pub fn measure(workload: Workload, opts: &Options) -> Result<Outcome, KernelError> {
    let configs = workload.configs(&opts.scale);
    // The untimed warm-up pass, which is also every config's reference.
    let refs = configs
        .iter()
        .map(engine::run)
        .collect::<Result<Vec<_>, _>>()?;
    // Read now, after one run per config: later reps only add allocator
    // fragmentation, which grows with the rep count.
    let rss_mb = peak_rss_mb();
    let sweep = workload == Workload::Sweep;
    let mut run = Run {
        configs: &configs,
        refs: &refs,
        attempted: 0,
        failed: 0,
    };

    let start = Instant::now();
    let mut untraced: Vec<Leg> = Vec::new();
    let mut traced: Vec<Leg> = Vec::new();
    // Traced sweep only: (serial leg, parallel leg) wall ns per rep.
    let mut runner: Vec<(f64, f64)> = Vec::new();
    // One yardstick sample in host ns before each rep.
    let mut host: Vec<f64> = Vec::new();
    let mut rep = 0;
    loop {
        let more = match opts.stop {
            Stop::Reps(n) => rep < n.max(1),
            Stop::Seconds(s) => rep == 0 || start.elapsed().as_secs_f64() < s,
        };
        if !more {
            break;
        }
        host.push(yardstick::sample_ns() as f64);
        if opts.trace && sweep {
            // The 2-worker leg swings too much on a shared host to gate
            // end to end; it runs here for `runner.*`, alternating which
            // leg goes first.
            let (leg, par) = if rep % 2 == 0 {
                let leg = run.leg(false);
                (leg, run.parallel())
            } else {
                let par = run.parallel();
                (run.leg(false), par)
            };
            runner.push((leg.wall_ns as f64, par as f64));
            untraced.push(leg);
        } else {
            untraced.push(run.leg(false));
        }
        if opts.trace {
            traced.push(run.leg(true));
        }
        rep += 1;
    }

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let spans = if opts.trace {
        per_layer_values(
            &mut values,
            &configs,
            &refs,
            &untraced,
            &traced,
            &runner,
            &host,
        )
    } else {
        end_to_end_values(&mut values, &configs, &refs, &untraced, &host, rss_mb)?;
        String::new()
    };
    let table: Vec<(String, &'static str)> = if opts.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    let metrics = table
        .into_iter()
        .map(|(name, unit)| {
            let value = values
                .remove(&name)
                .unwrap_or_else(|| panic!("metric {name} was not computed"));
            Metric { name, unit, value }
        })
        .collect();
    assert!(values.is_empty(), "uncatalogued metrics: {values:?}");
    Ok(Outcome {
        reps: rep,
        attempted: run.attempted,
        failed: run.failed,
        metrics,
        spans,
    })
}

/// The quantile over reps taken of each segment's host time and of the
/// yardstick's.
const FAST_DECILE: f64 = 0.1;

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Medians of `f` over `items`.
fn med<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// The sum over segment positions of that segment's fast decile across
/// `reps`.
///
/// Every rep is the same deterministic job, so a segment that ran slower
/// in one rep than in another measured the host: other tenants of the
/// machine compete for its core and caches in bursts that last seconds. Taking each
/// short segment's fast decile keeps the program's own cost and leaves
/// most of those bursts out, where the median of whole reps follows them.
fn floor_ns(reps: &[Leg], segments: fn(&Leg) -> &[u64]) -> f64 {
    let positions = reps.iter().map(|l| segments(l).len()).max().unwrap_or(0);
    (0..positions)
        .map(|j| {
            let at: Vec<f64> = reps
                .iter()
                .filter_map(|l| segments(l).get(j))
                .map(|&ns| ns as f64)
                .collect();
            quantile(&at, FAST_DECILE)
        })
        .sum()
}

fn end_to_end_values(
    values: &mut BTreeMap<String, f64>,
    configs: &[RunConfig],
    refs: &[RunReport],
    reps: &[Leg],
    host: &[f64],
    rss_mb: f64,
) -> Result<(), KernelError> {
    let ops: u64 = refs.iter().map(|r| r.ops).sum();
    // Host times at the reference host's speed; see `yardstick`.
    let yardstick_ns = quantile(host, FAST_DECILE);
    let scale = REFERENCE_NS / yardstick_ns;
    let measured = floor_ns(reps, |l| &l.measured_segments);
    let run = measured + floor_ns(reps, |l| &l.other_segments);
    let wall: Vec<f64> = reps.iter().map(|l| ms(l.wall_ns as f64)).collect();
    eprintln!(
        "klocbench: run ms over {} reps: floor {:.1}; whole reps p10 {:.1}, median {:.1}, p90 {:.1}; \
         yardstick {:.2} ms, scale {:.3}",
        wall.len(),
        ms(run),
        quantile(&wall, 0.1),
        median(&wall),
        quantile(&wall, 0.9),
        ms(yardstick_ns),
        scale
    );
    let mut put = |k: &str, v: f64| values.insert(k.to_owned(), v);
    put(
        "sim_kops_per_s",
        ops as f64 / (measured * scale / 1e9) / 1e3,
    );
    // One user-visible invocation: a cell's run, or the whole sweep.
    put("run_ms_floor", ms(run * scale));
    // Each rep's setup, scaled by the yardstick sample taken just before
    // it, so the median rides out episodes that cover most reps.
    let setups: Vec<f64> = reps
        .iter()
        .zip(host)
        .map(|(l, &y)| l.setup_ns as f64 * REFERENCE_NS / y / 1e9)
        .collect();
    put("setup_s", median(&setups));
    put("peak_rss_mb", rss_mb);
    put(
        "virt_kops_per_s",
        geomean(
            &refs
                .iter()
                .map(|r| r.throughput() / 1e3)
                .collect::<Vec<_>>(),
        ),
    );

    // KLOCs over Nimble in virtual time, per (workload, platform) group.
    // A cell brings its counterpart policy in as an extra untimed run.
    let mut pairs: Vec<(RunConfig, RunReport)> =
        configs.iter().cloned().zip(refs.iter().cloned()).collect();
    if let [(only, _)] = pairs.as_slice() {
        let other = match only.policy {
            PolicyKind::Kloc => PolicyKind::Nimble,
            _ => PolicyKind::Kloc,
        };
        let counterpart = RunConfig {
            policy: other,
            ..only.clone()
        };
        let report = engine::run(&counterpart)?;
        pairs.push((counterpart, report));
    }
    let speedups: Vec<f64> = pairs
        .iter()
        .filter(|(c, _)| c.policy == PolicyKind::Kloc)
        .filter_map(|(c, kloc)| {
            pairs
                .iter()
                .find(|(n, _)| {
                    n.policy == PolicyKind::Nimble
                        && n.workload == c.workload
                        && n.platform == c.platform
                })
                .map(|(_, nimble)| kloc.speedup_over(nimble))
        })
        .collect();
    put("virt_kloc_speedup", geomean(&speedups));
    Ok(())
}

/// Fills the per-layer values; returns the folded spans.
fn per_layer_values(
    values: &mut BTreeMap<String, f64>,
    configs: &[RunConfig],
    refs: &[RunReport],
    untraced: &[Leg],
    traced: &[Leg],
    runner: &[(f64, f64)],
    host: &[f64],
) -> String {
    let mut put = |k: &str, v: f64| values.insert(k.to_owned(), v);

    // Host time: traced legs, timer-corrected.
    let step_q = |q: f64| med(traced, |l| quantile(&l.steps, q));
    put("workloads.step_ns_p50", step_q(0.5));
    put("workloads.step_ns_p99", step_q(0.99));
    let hooks_ns = |l: &Leg| l.hook_ns.iter().sum::<f64>();
    // The rest of the untraced measured phase: what traced steps add
    // beyond their hooks includes the wrapper's own forwarding cost,
    // which no empty-span calibration sees.
    let untraced_measured = med(untraced, |l| l.measured_ns as f64);
    let tick_ms = ms(med(traced, |l| l.tick_ns));
    let kernel_ms = ms(untraced_measured - med(traced, hooks_ns)) - tick_ms;
    put("kernel.self_ms", kernel_ms);
    let mut folded = Vec::new();
    for (h, hook) in HOOKS.iter().enumerate() {
        let hook_ms = ms(med(traced, |l| l.hook_ns[h]));
        put(
            &format!("policy.{hook}.calls"),
            med(traced, |l| l.hook_calls[h] as f64),
        );
        put(&format!("policy.{hook}.ms"), hook_ms);
        if hook_ms > 0.0 {
            folded.push((format!("measured;workloads.step;policy.{hook}"), hook_ms));
        }
    }
    put("policy.hooks_ms", ms(med(traced, hooks_ns)));
    put("policy.tick.calls", med(traced, |l| l.ticks as f64));
    put("policy.tick.ms", tick_ms);
    put(
        "sim.teardown_ms",
        ms(med(untraced, |l| l.teardown_ns as f64)),
    );

    // Counts: the reference reports (identical traced or not).
    let sum = |f: &dyn Fn(&RunReport) -> u64| refs.iter().map(f).sum::<u64>() as f64;
    let kloc = |f: fn(&kloc_core::KlocStats) -> u64| sum(&|r| r.kloc.as_ref().map_or(0, f));
    put("core.knodes_created", kloc(|k| k.knodes_created));
    put("core.knode_demotions", kloc(|k| k.knode_demotions));
    put("core.pages_demoted", kloc(|k| k.pages_demoted));
    put("core.knode_promotions", kloc(|k| k.knode_promotions));
    put("core.pages_promoted", kloc(|k| k.pages_promoted));
    let percpu: Vec<f64> = refs.iter().filter_map(|r| r.percpu_hit_ratio).collect();
    put(
        "core.percpu_hit_ratio",
        ratio(percpu.iter().sum(), percpu.len() as f64),
    );
    put(
        "core.kmap_tree_accesses",
        sum(&|r| r.kmap_tree_accesses.unwrap_or(0)),
    );
    put(
        "kernel.syscalls",
        sum(&|r| r.kernel.syscalls.values().sum()),
    );
    let hits = sum(&|r| r.kernel.cache_hits);
    put(
        "kernel.cache_hit_ratio",
        ratio(hits, hits + sum(&|r| r.kernel.cache_misses)),
    );
    put("kernel.writeback_pages", sum(&|r| r.kernel.writeback_pages));
    put("kernel.reclaimed_pages", sum(&|r| r.kernel.reclaimed_pages));
    put(
        "kernel.readahead_useful_ratio",
        ratio(sum(&|r| r.readahead_useful), sum(&|r| r.readahead_issued)),
    );
    let accesses = sum(&|r| r.measured_tier_accesses.iter().sum());
    put("mem.accesses", accesses);
    put(
        "mem.fast_access_frac",
        ratio(sum(&|r| r.measured_tier_accesses[0]), accesses),
    );
    put("mem.migrations", sum(&|r| r.migrations.total()));
    put("mem.host_ns_per_access", ratio(untraced_measured, accesses));
    let tenants = |f: fn(&kloc_kernel::TenantStats) -> u64| {
        sum(&|r| r.tenants.iter().map(|t| f(&t.stats)).sum())
    };
    put(
        "tenants.cross_evictions",
        tenants(|s| s.cross_evictions_caused),
    );
    put("tenants.preempted", tenants(|s| s.preempted));

    // Runner: the sweep's serial driven leg against its parallel leg.
    let jobs = if runner.is_empty() { 0 } else { sweep_jobs() };
    let speedups: Vec<f64> = runner.iter().map(|&(s, p)| s / p).collect();
    let speedup = median(&speedups);
    if !runner.is_empty() {
        eprintln!(
            "klocbench: runner speedup over {} reps: min {:.3}, quartiles {:.3} / {:.3} / {:.3}, max {:.3}",
            speedups.len(),
            quantile(&speedups, 0.0),
            quantile(&speedups, 0.25),
            speedup,
            quantile(&speedups, 0.75),
            quantile(&speedups, 1.0)
        );
    }
    put("runner.serial_s", med(runner, |&(s, _)| s / 1e9));
    put("runner.speedup", speedup);
    put("runner.efficiency", ratio(speedup, jobs as f64));
    put("runner.jobs", jobs as f64);
    put("host.nproc", nproc() as f64);
    put("host.yardstick_ms", ms(quantile(host, FAST_DECILE)));

    // Measurement validity.
    let cost_ns = |l: &Leg| l.cal.map_or(0.0, |c| c.cost_ns);
    put("bench.timer_ns", med(traced, cost_ns));
    let traced_measured = med(traced, |l| l.measured_ns as f64);
    put(
        "bench.trace_overhead_pct",
        (traced_measured / untraced_measured - 1.0) * 100.0,
    );
    let corrected = med(traced, |l| {
        l.measured_ns as f64 - l.spans as f64 * cost_ns(l)
    });
    eprintln!(
        "klocbench: traced measured phase {:.1} ms raw, {:.1} ms timer-corrected, untraced {:.1} ms \
         (uncorrected tracing cost {:+.1} %), {} configs",
        ms(traced_measured),
        ms(corrected),
        ms(untraced_measured),
        (corrected / untraced_measured - 1.0) * 100.0,
        configs.len()
    );

    folded.push(("measured;workloads.step;kernel".into(), kernel_ms));
    folded.push(("measured;policy.tick".into(), tick_ms));
    folded.push(("setup".into(), ms(med(untraced, |l| l.setup_ns as f64))));
    folded.push((
        "teardown".into(),
        ms(med(untraced, |l| l.teardown_ns as f64)),
    ));
    folded.sort_by(|a, b| a.0.cmp(&b.0));
    folded
        .iter()
        .map(|(stack, v)| format!("{stack} {:.0}\n", v * 1e6))
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
