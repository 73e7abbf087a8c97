//! Journal crash-recovery sweep (`repro crashsweep`).
//!
//! Replays one workload many times, crashing deterministically at every
//! journal commit the fault-free run performs — at the commit boundary
//! (no journal block durable), after each of a few mid-commit block
//! counts (a torn record), and after the full record (commit durable,
//! crash immediately after). Each crash discards all volatile state,
//! runs [`kloc_kernel::recovery::recover`] over what reached the disk,
//! and audits the result with [`kloc_kernel::recovery::check`]: no
//! fsync'd page or committed metadata may be lost, and nothing torn may
//! survive replay.
//!
//! The sweep is exhaustive by construction: pass 1 runs fault-free to
//! learn the commit schedule (how many commits, how many journal blocks
//! each writes), then every crash point is a fresh deterministic run
//! with a [`CrashPoint::Commit`] fault plan, so the prefix up to the
//! crash is byte-for-byte the schedule pass 1 observed.

use kloc_kernel::hooks::Ctx;
use kloc_kernel::recovery::{check, recover, CrashViolation};
use kloc_kernel::{Kernel, KernelError, KernelParams};
use kloc_mem::{CrashPoint, DrainStats, FaultPlan, MemorySystem, Nanos, TierFaultKind, TierId};
use kloc_policy::PolicyKind;
use kloc_workloads::{Scale, WorkloadKind};

/// Result of recovering from one injected crash.
#[derive(Debug, Clone)]
pub struct CrashOutcome {
    /// Commit index the crash targeted (0-based).
    pub commit: u64,
    /// Journal blocks that reached the disk before the crash.
    pub after_blocks: u32,
    /// Virtual time of the crash.
    pub at: Nanos,
    /// Committed records replay applied.
    pub replayed: usize,
    /// Torn/uncommitted records replay discarded.
    pub torn: usize,
    /// Durable pages visible after recovery.
    pub pages: usize,
    /// Consistency violations the checker found (must be empty).
    pub violations: Vec<CrashViolation>,
}

/// Aggregate result of a sweep over one (workload, policy, scale).
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Workload label.
    pub workload: String,
    /// Policy label.
    pub policy: String,
    /// Commits the fault-free run performed.
    pub commits: usize,
    /// Commits actually swept (capped at [`MAX_COMMITS`]).
    pub commits_tested: usize,
    /// One entry per injected crash.
    pub outcomes: Vec<CrashOutcome>,
}

impl SweepSummary {
    /// Total consistency violations across every crash point.
    pub fn violations(&self) -> usize {
        self.outcomes.iter().map(|o| o.violations.len()).sum()
    }

    /// Paper-style one-paragraph rendering plus per-violation detail.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} / {}: {} commits ({} swept), {} crash points, {} violations\n",
            self.workload,
            self.policy,
            self.commits,
            self.commits_tested,
            self.outcomes.len(),
            self.violations(),
        );
        for o in &self.outcomes {
            if o.violations.is_empty() {
                continue;
            }
            for v in &o.violations {
                out.push_str(&format!(
                    "  VIOLATION at commit {} after {} blocks (t={}): {v}\n",
                    o.commit,
                    o.after_blocks,
                    o.at.as_nanos(),
                ));
            }
        }
        out
    }
}

/// Commit-schedule cap: at larger scales a run can commit thousands of
/// times and the sweep re-runs the workload per crash point, so sweep
/// at most this many commits, evenly sampled (the summary reports both
/// totals so the cap is never silent).
pub const MAX_COMMITS: usize = 32;

/// Runs the workload once, returning the kernel (for its durable-state
/// and promise ledgers), whether an injected crash ended the run, the
/// virtual time the run stopped, and the tier-drain counters (nonzero
/// only when the plan opened an `Offline` window over resident frames).
fn drive(
    workload: WorkloadKind,
    policy_kind: PolicyKind,
    scale: &Scale,
    plan: Option<FaultPlan>,
) -> Result<(Kernel, bool, Nanos, DrainStats), KernelError> {
    let mut mem = MemorySystem::two_tier(scale.fast_bytes, 8);
    let mut policy = policy_kind.build();
    mem.set_migration_cost(policy.migration_cost());
    mem.set_cpu_parallelism(scale.threads.max(1) as u64);
    if let Some(plan) = plan {
        mem.set_fault_plan(plan);
    }
    let mut kernel = Kernel::new(KernelParams {
        page_cache_budget: scale.page_cache_frames,
        ..KernelParams::default()
    });
    let mut workload = workload.build(scale);
    let tick_interval = policy.tick_interval();
    let mut next_tick = mem.now() + tick_interval;
    let crashed = 'run: {
        {
            let mut ctx = Ctx::new(&mut mem, policy.as_mut());
            match workload.setup(&mut kernel, &mut ctx) {
                Ok(()) => {}
                Err(KernelError::Crashed) => break 'run true,
                Err(e) => return Err(e),
            }
        }
        while !workload.is_done() {
            {
                let mut ctx = Ctx::new(&mut mem, policy.as_mut());
                match workload.step(&mut kernel, &mut ctx) {
                    Ok(()) => {}
                    Err(KernelError::Crashed) => break 'run true,
                    Err(e) => return Err(e),
                }
            }
            if mem.now() >= next_tick {
                // Tier drain rides the tick cadence, exactly as in the
                // engine's measured loop, so mid-drain crash points see
                // the same interleaving a real run would.
                let (db, rb, rc) = {
                    let p = kernel.params();
                    (p.drain_budget_frames, p.drain_retry_base, p.drain_retry_cap)
                };
                mem.drain_offline(db, rb, rc);
                policy.tick(&kernel, &mut mem);
                next_tick = mem.now() + tick_interval;
            }
        }
        false
    };
    let now = mem.now();
    let drain = *mem.drain_stats();
    Ok((kernel, crashed, now, drain))
}

/// Crash points for one commit that wrote `blocks` journal blocks: the
/// boundary (0 blocks durable), up to `mid_points` evenly spaced torn
/// prefixes, and the full record (commit durable, crash right after).
fn crash_points(blocks: u32, mid_points: u32) -> Vec<u32> {
    let mut points = vec![0];
    if blocks > 1 {
        let n = mid_points.min(blocks - 1);
        for k in 1..=n {
            points.push((u64::from(k) * u64::from(blocks) / u64::from(n + 1)).max(1) as u32);
        }
    }
    points.push(blocks);
    points.dedup();
    points
}

/// Sweeps every (sampled) commit of the workload with `mid_points`
/// mid-commit crashes per commit, checking each recovery.
///
/// # Errors
/// Propagates kernel errors other than the injected [`KernelError::Crashed`]
/// (any other error indicates a harness bug).
pub fn sweep(
    workload: WorkloadKind,
    policy: PolicyKind,
    scale: &Scale,
    mid_points: u32,
) -> Result<SweepSummary, KernelError> {
    // Pass 1: fault-free, to learn the commit schedule.
    let (kernel, crashed, _, _) = drive(workload, policy, scale, None)?;
    debug_assert!(!crashed, "fault-free pass cannot crash");
    let schedule: Vec<u32> = kernel
        .durable()
        .journal
        .iter()
        .map(|r| r.blocks_total)
        .collect();

    let commits = schedule.len();
    let step = commits.div_ceil(MAX_COMMITS).max(1);
    let mut outcomes = Vec::new();
    let mut commits_tested = 0usize;
    for (i, &blocks) in schedule.iter().enumerate().step_by(step) {
        commits_tested += 1;
        for j in crash_points(blocks, mid_points) {
            let plan = FaultPlan::new().with_crash(CrashPoint::Commit {
                index: i as u64,
                after_blocks: j,
            });
            let (kernel, crashed, at, _) = drive(workload, policy, scale, Some(plan))?;
            debug_assert!(crashed, "commit {i} crash point {j} did not fire");
            let recovered = recover(kernel.durable());
            let violations = check(kernel.durable(), kernel.promise(), &recovered);
            kloc_trace::emit(|| kloc_trace::Event::Recovery {
                t: at.as_nanos(),
                replayed: recovered.replayed as u64,
                torn: recovered.torn as u64,
                pages: recovered.pages.len() as u64,
            });
            outcomes.push(CrashOutcome {
                commit: i as u64,
                after_blocks: j,
                at,
                replayed: recovered.replayed,
                torn: recovered.torn,
                pages: recovered.pages.len(),
                violations,
            });
        }
    }
    Ok(SweepSummary {
        workload: workload.label().to_owned(),
        policy: policy.label().to_owned(),
        commits,
        commits_tested,
        outcomes,
    })
}

/// Outcome of one crash injected *inside an active drain window*: a
/// [`CrashPoint::At`] that fires while an `Offline` fault window covers
/// the fast tier and the tick-cadence drain is migrating frames off it.
#[derive(Debug, Clone)]
pub struct DrainCrashOutcome {
    /// Scheduled crash instant (inside the window).
    pub at: Nanos,
    /// Virtual time the crash actually fired.
    pub fired: Nanos,
    /// Frames the drain had migrated off the offline tier pre-crash.
    pub drained: u64,
    /// Committed records replay applied.
    pub replayed: usize,
    /// Torn/uncommitted records replay discarded.
    pub torn: usize,
    /// Consistency violations the checker found (must be empty).
    pub violations: Vec<CrashViolation>,
}

/// Aggregate result of [`sweep_drain_window`].
#[derive(Debug, Clone)]
pub struct DrainSweepSummary {
    /// Workload label.
    pub workload: String,
    /// Policy label.
    pub policy: String,
    /// The injected `Offline` window `[start, end)`.
    pub window: (Nanos, Nanos),
    /// One entry per injected mid-drain crash.
    pub outcomes: Vec<DrainCrashOutcome>,
}

impl DrainSweepSummary {
    /// Total consistency violations across every crash point.
    pub fn violations(&self) -> usize {
        self.outcomes.iter().map(|o| o.violations.len()).sum()
    }

    /// Paper-style one-paragraph rendering plus per-violation detail.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} / {}: {} mid-drain crashes in window [{}, {}), {} violations\n",
            self.workload,
            self.policy,
            self.outcomes.len(),
            self.window.0.as_nanos(),
            self.window.1.as_nanos(),
            self.violations(),
        );
        for o in &self.outcomes {
            if o.violations.is_empty() {
                continue;
            }
            for v in &o.violations {
                out.push_str(&format!(
                    "  VIOLATION at t={} ({} frames drained): {v}\n",
                    o.fired.as_nanos(),
                    o.drained,
                ));
            }
        }
        out
    }
}

/// Crashes the run at `points` evenly spaced instants inside an
/// `Offline` window covering the fast tier for the middle half of the
/// run, then checks each recovery. The drain is pure tier migration —
/// it never touches the journal — so a crash landing mid-drain must
/// recover exactly as cleanly as any other: fsync'd pages and committed
/// metadata survive, torn records are discarded.
///
/// # Errors
/// Propagates kernel errors other than the injected [`KernelError::Crashed`]
/// (any other error indicates a harness bug).
pub fn sweep_drain_window(
    workload: WorkloadKind,
    policy: PolicyKind,
    scale: &Scale,
    points: u32,
) -> Result<DrainSweepSummary, KernelError> {
    // Pass 1: fault-free, to learn the horizon the window is cut from.
    let (_, crashed, horizon, _) = drive(workload, policy, scale, None)?;
    debug_assert!(!crashed, "fault-free pass cannot crash");
    let t = horizon.as_nanos().max(99);
    let start = Nanos::new(t / 4);
    let end = Nanos::new(3 * t / 4);
    let span = end.as_nanos() - start.as_nanos();

    let points = points.max(1);
    let mut outcomes = Vec::new();
    for k in 0..points {
        // Strictly inside the window, evenly spaced.
        let at = Nanos::new(start.as_nanos() + (u64::from(k) + 1) * span / (u64::from(points) + 1));
        let plan = FaultPlan::new()
            .with_tier_fault(TierId::FAST, TierFaultKind::Offline, start, Some(end))
            .with_crash(CrashPoint::At(at));
        let (kernel, crashed, fired, drain) = drive(workload, policy, scale, Some(plan))?;
        debug_assert!(crashed, "mid-drain crash point {k} did not fire");
        let recovered = recover(kernel.durable());
        let violations = check(kernel.durable(), kernel.promise(), &recovered);
        kloc_trace::emit(|| kloc_trace::Event::Recovery {
            t: fired.as_nanos(),
            replayed: recovered.replayed as u64,
            torn: recovered.torn as u64,
            pages: recovered.pages.len() as u64,
        });
        outcomes.push(DrainCrashOutcome {
            at,
            fired,
            drained: drain.drained,
            replayed: recovered.replayed,
            torn: recovered.torn,
            violations,
        });
    }
    Ok(DrainSweepSummary {
        workload: workload.label().to_owned(),
        policy: policy.label().to_owned(),
        window: (start, end),
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_points_cover_boundary_torn_and_complete() {
        assert_eq!(crash_points(1, 2), vec![0, 1]);
        assert_eq!(crash_points(4, 2), vec![0, 1, 2, 4]);
        assert_eq!(crash_points(9, 3), vec![0, 2, 4, 6, 9]);
    }

    #[test]
    fn sweep_of_a_tiny_run_finds_no_violations() {
        let summary = sweep(WorkloadKind::Filebench, PolicyKind::Kloc, &Scale::tiny(), 1)
            .expect("sweep completes");
        assert!(summary.commits > 0, "workload must commit at least once");
        assert!(!summary.outcomes.is_empty());
        assert_eq!(summary.violations(), 0, "{}", summary.render());
        // Every crash produced a recovery; torn counts only appear for
        // mid-commit points.
        assert!(summary
            .outcomes
            .iter()
            .any(|o| o.torn > 0 || o.after_blocks == 0));
    }

    #[test]
    fn mid_drain_crashes_recover_cleanly() {
        let summary =
            sweep_drain_window(WorkloadKind::Filebench, PolicyKind::Kloc, &Scale::tiny(), 3)
                .expect("drain-window sweep completes");
        assert_eq!(summary.outcomes.len(), 3);
        assert_eq!(summary.violations(), 0, "{}", summary.render());
        // The window must actually exercise the drain: at least one
        // crash lands after frames moved off the offline tier.
        assert!(
            summary.outcomes.iter().any(|o| o.drained > 0),
            "no crash point observed an active drain: {}",
            summary.render()
        );
        // Every crash fired at or after its scheduled instant.
        for o in &summary.outcomes {
            assert!(o.fired >= o.at);
        }
    }
}
