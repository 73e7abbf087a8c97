//! Parallel sweep runner.
//!
//! Every experiment in the paper is a sweep of *independent,
//! deterministic* [`engine::run`] calls — dozens of (workload, policy,
//! platform) combinations whose results are only aggregated at the end.
//! The seed executed them strictly serially; this module fans a batch
//! across OS threads with a work-stealing scheduler built entirely on
//! `std` (`thread::scope` + atomics — offline builds carry no external
//! crates).
//!
//! Guarantees:
//!
//! * **Input order is preserved** — `run_all(configs)[i]` corresponds to
//!   `configs[i]`, regardless of which worker executed it.
//! * **Byte-identical to serial** — each run owns its whole simulated
//!   world (memory system, kernel, policy, workload), so parallel
//!   execution cannot perturb virtual time. `Runner::serial()` and a
//!   parallel runner produce equal [`RunReport`]s
//!   (`runner_matches_serial` in `tests/runner.rs` enforces this).
//! * **A panicking run panics the batch** — as it would serially: the
//!   worker catches it, the batch finishes, and the first panic by
//!   input order is resumed on the calling thread (a KSAN violation
//!   fails its sweep instead of leaving the other workers waiting).
//!
//! Scheduling: the batch index space is split evenly into per-worker
//! intervals. A worker pops from the *front* of its own interval; when
//! it runs dry it steals the *back half* of the largest remaining
//! interval. Both ends mutate one packed `AtomicU64` per interval via
//! compare-exchange, so no locks are held while claiming work. Single
//! runs vary from micro- to multi-second depending on scale and policy,
//! which is exactly the imbalance work stealing absorbs.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use kloc_kernel::KernelError;
use kloc_policy::Policy;

use crate::engine::{self, RunConfig, RunReport};

/// Builds the policy for a [`Job`] that needs more than
/// [`RunConfig::policy`]`.build()` (custom [`kloc_core::KlocConfig`]s,
/// the Fig. 5 strategy stacks, ablation variants). Called on the worker
/// thread that executes the job.
pub type PolicyFactory = Box<dyn Fn() -> Box<dyn Policy> + Send + Sync>;

/// One schedulable run: a config plus an optional custom policy.
pub struct Job {
    config: RunConfig,
    policy: Option<PolicyFactory>,
}

impl Job {
    /// A job executed as [`engine::run`] (policy built from the config).
    pub fn new(config: RunConfig) -> Self {
        Job {
            config,
            policy: None,
        }
    }

    /// A job executed as [`engine::run_with`] using a custom policy.
    pub fn with_policy(config: RunConfig, policy: PolicyFactory) -> Self {
        Job {
            config,
            policy: Some(policy),
        }
    }

    /// The job's configuration.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Runs the job and collects the worker thread's trace buffer (empty
    /// unless a trace session is active). Taking the buffer here also
    /// clears any recorder a failed run left installed, so a worker
    /// thread never leaks trace state into its next job.
    fn execute(&self) -> (Result<RunReport, KernelError>, String) {
        let result = match &self.policy {
            Some(factory) => engine::run_with(&self.config, factory()),
            None => engine::run(&self.config),
        };
        (result, kloc_trace::run_take())
    }
}

impl From<RunConfig> for Job {
    fn from(config: RunConfig) -> Self {
        Job::new(config)
    }
}

/// A fixed-width thread pool for experiment sweeps.
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    jobs: usize,
}

impl Default for Runner {
    fn default() -> Self {
        Runner::auto()
    }
}

impl Runner {
    /// A runner with exactly `jobs` worker threads (clamped to >= 1).
    pub fn new(jobs: usize) -> Self {
        Runner { jobs: jobs.max(1) }
    }

    /// Strictly serial execution on the calling thread.
    pub fn serial() -> Self {
        Runner::new(1)
    }

    /// One worker per available hardware thread.
    pub fn auto() -> Self {
        let n = thread::available_parallelism().map_or(1, usize::from);
        Runner::new(n)
    }

    /// Worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs a batch of plain configs; results are in input order.
    ///
    /// # Errors
    /// Returns the first (by input order) kernel error, if any run fails.
    pub fn run_all(&self, configs: Vec<RunConfig>) -> Result<Vec<RunReport>, KernelError> {
        self.run_jobs(configs.into_iter().map(Job::new).collect())
    }

    /// Runs a batch of jobs; results are in input order.
    ///
    /// # Errors
    /// Returns the first (by input order) kernel error, if any run fails.
    pub fn run_jobs(&self, jobs: Vec<Job>) -> Result<Vec<RunReport>, KernelError> {
        let n = jobs.len();
        let workers = self.jobs.min(n.max(1));
        if workers <= 1 {
            let mut reports = Vec::with_capacity(n);
            for job in &jobs {
                let (result, trace) = job.execute();
                kloc_trace::session_append(&trace);
                reports.push(result?);
            }
            return Ok(reports);
        }

        type Slot = Mutex<Option<thread::Result<(Result<RunReport, KernelError>, String)>>>;
        let mut results: Vec<Slot> = (0..n).map(|_| Mutex::new(None)).collect();
        let completed = AtomicUsize::new(0);

        // Even initial split of [0, n) across workers.
        let intervals: Vec<Interval> = (0..workers)
            .map(|w| {
                let lo = n * w / workers;
                let hi = n * (w + 1) / workers;
                Interval::new(lo as u32, hi as u32)
            })
            .collect();

        thread::scope(|s| {
            for me in 0..workers {
                let jobs = &jobs;
                let results = &results;
                let completed = &completed;
                let intervals = &intervals;
                s.spawn(move || {
                    loop {
                        // Drain our own interval from the front.
                        while let Some(i) = intervals[me].pop_front() {
                            let job = &jobs[i as usize];
                            let r = panic::catch_unwind(AssertUnwindSafe(|| job.execute()));
                            *results[i as usize].lock().expect("result lock") = Some(r);
                            completed.fetch_add(1, Ordering::Release);
                        }
                        if completed.load(Ordering::Acquire) >= n {
                            break;
                        }
                        // Steal the back half of the fullest other queue.
                        let victim = (0..workers)
                            .filter(|&w| w != me)
                            .max_by_key(|&w| intervals[w].len());
                        let stolen = victim.and_then(|w| intervals[w].steal_back_half());
                        match stolen {
                            Some((lo, hi)) => intervals[me].replenish(lo, hi),
                            // Everything is claimed but stragglers are
                            // still running; wait for them to finish (they
                            // may yet fail, so we cannot return early).
                            None => thread::yield_now(),
                        }
                    }
                });
            }
        });

        debug_assert!(results.iter().all(|m| m.lock().unwrap().is_some()));
        // Append per-run trace buffers in input order — regardless of
        // which worker ran which job — then surface the first (by input
        // order) error or panic, matching serial semantics.
        let mut reports = Vec::with_capacity(n);
        for m in &mut results {
            let (result, trace) = m
                .get_mut()
                .expect("result lock")
                .take()
                .expect("all jobs completed")
                .unwrap_or_else(|payload| panic::resume_unwind(payload));
            kloc_trace::session_append(&trace);
            reports.push(result);
        }
        reports.into_iter().collect()
    }
}

/// A half-open index interval `[lo, hi)` packed into one `AtomicU64`
/// (`lo` in the high 32 bits). The owning worker pops `lo`; thieves
/// shrink `hi`. All transitions go through compare-exchange on the same
/// word, so the two ends cannot race past each other.
struct Interval(AtomicU64);

fn pack(lo: u32, hi: u32) -> u64 {
    (u64::from(lo) << 32) | u64::from(hi)
}

fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

impl Interval {
    fn new(lo: u32, hi: u32) -> Self {
        Interval(AtomicU64::new(pack(lo, hi)))
    }

    /// Remaining jobs in the interval.
    fn len(&self) -> u32 {
        let (lo, hi) = unpack(self.0.load(Ordering::Relaxed));
        hi.saturating_sub(lo)
    }

    /// Claims the front index, if any.
    fn pop_front(&self) -> Option<u32> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                pack(lo + 1, hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(lo),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Steals the back half (at least one job) of the interval.
    fn steal_back_half(&self) -> Option<(u32, u32)> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            let keep = (hi - lo) / 2; // victim keeps the front half
            let mid = lo + keep;
            match self.0.compare_exchange_weak(
                cur,
                pack(lo, mid),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((mid, hi)),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Installs a stolen range; only the owner calls this, and only when
    /// its interval is empty (thieves bounce off empty intervals, so the
    /// store cannot clobber a concurrent steal).
    fn replenish(&self, lo: u32, hi: u32) {
        debug_assert_eq!(self.len(), 0);
        self.0.store(pack(lo, hi), Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kloc_policy::PolicyKind;
    use kloc_workloads::{Scale, WorkloadKind};

    use crate::engine::Platform;

    fn cfg(policy: PolicyKind, w: WorkloadKind) -> RunConfig {
        RunConfig {
            workload: w,
            policy,
            scale: Scale::tiny(),
            platform: Platform::TwoTier {
                fast_bytes: 512 << 10,
                bw_ratio: 8,
            },
            kernel_params: None,
            faults: None,
            budgets: Vec::new(),
        }
    }

    #[test]
    fn preserves_input_order() {
        let configs = vec![
            cfg(PolicyKind::Naive, WorkloadKind::RocksDb),
            cfg(PolicyKind::Kloc, WorkloadKind::Redis),
            cfg(PolicyKind::AllSlow, WorkloadKind::RocksDb),
        ];
        let reports = Runner::new(3).run_all(configs).unwrap();
        assert_eq!(reports[0].policy, PolicyKind::Naive.label());
        assert_eq!(reports[0].workload, WorkloadKind::RocksDb.label());
        assert_eq!(reports[1].policy, PolicyKind::Kloc.label());
        assert_eq!(reports[1].workload, WorkloadKind::Redis.label());
        assert_eq!(reports[2].policy, PolicyKind::AllSlow.label());
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let reports = Runner::new(64)
            .run_all(vec![cfg(PolicyKind::Naive, WorkloadKind::RocksDb)])
            .unwrap();
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(Runner::auto().run_all(Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn custom_policy_jobs_run() {
        let job = Job::with_policy(
            cfg(PolicyKind::Kloc, WorkloadKind::RocksDb),
            Box::new(|| Box::new(kloc_policy::KlocPolicy::new())),
        );
        let reports = Runner::new(2).run_jobs(vec![job]).unwrap();
        assert!(reports[0].kloc.is_some());
    }

    /// A panicking job (here its policy factory; in practice a KSAN
    /// violation) panics the whole batch with its own message, where
    /// the other workers once spun forever waiting for its result.
    #[test]
    #[should_panic(expected = "factory gave up")]
    fn a_panicking_job_panics_the_batch() {
        let jobs = (0..3)
            .map(|i| {
                let config = cfg(PolicyKind::Naive, WorkloadKind::RocksDb);
                if i == 1 {
                    Job::with_policy(config, Box::new(|| panic!("factory gave up")))
                } else {
                    Job::new(config)
                }
            })
            .collect();
        let _ = Runner::new(2).run_jobs(jobs);
    }

    #[test]
    fn interval_pop_and_steal_partition_the_range() {
        let iv = Interval::new(0, 10);
        assert_eq!(iv.pop_front(), Some(0));
        let (lo, hi) = iv.steal_back_half().unwrap();
        // Victim kept [1, 5), thief got [5, 10).
        assert_eq!((lo, hi), (5, 10));
        assert_eq!(iv.len(), 4);
        let mut rest = Vec::new();
        while let Some(i) = iv.pop_front() {
            rest.push(i);
        }
        assert_eq!(rest, vec![1, 2, 3, 4]);
        assert_eq!(iv.steal_back_half(), None);
    }

    #[test]
    fn steal_takes_singleton() {
        let iv = Interval::new(3, 4);
        assert_eq!(iv.steal_back_half(), Some((3, 4)));
        assert_eq!(iv.pop_front(), None);
    }
}
