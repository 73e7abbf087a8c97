//! The run engine: one (platform, policy, workload, scale) execution.

use kloc_core::overhead::{self, OverheadReport};
use kloc_core::KlocStats;
use kloc_kernel::hooks::Ctx;
use kloc_kernel::{Kernel, KernelError, KernelParams, KernelStats};
use kloc_mem::{FaultPlan, MemStats, MemorySystem, MigrationStats, Nanos, TenantId, TierId};
use kloc_policy::{Policy, PolicyKind};
use kloc_workloads::{Scale, WorkloadKind};

/// Hardware platform of a run (paper Table 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Platform {
    /// Software-managed two-tier memory: `fast_bytes` of fast DRAM over
    /// an unbounded slow tier with a `bw_ratio` bandwidth differential.
    TwoTier {
        /// Fast-tier capacity in bytes.
        fast_bytes: u64,
        /// Fast:slow bandwidth ratio (8 = the paper's default "1:8").
        bw_ratio: u64,
    },
    /// Optane Memory Mode: two sockets of PMEM fronted by DRAM L4
    /// caches; see [`OptaneScenario`].
    Optane {
        /// Per-socket L4 DRAM cache bytes.
        l4_bytes: u64,
        /// Scenario staging.
        scenario: OptaneScenario,
    },
}

/// How the Optane/AutoNUMA experiment is staged (paper §6.2: the
/// workload shares a socket with a streaming co-runner; when interference
/// begins to hurt, the scheduler moves it to the other socket).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptaneScenario {
    /// Everything stays local, no interference (the "all local" ideal).
    AllLocal,
    /// Data on socket 0 (shared with the interfering streamer), task
    /// runs on socket 1, nothing migrates — the "all remote" worst case
    /// used as the Fig. 5a baseline.
    AllRemote,
    /// Interference starts mid-run on socket 0; the scheduler moves the
    /// task to socket 1 and the policy may (or may not) migrate data.
    Interfered {
        /// Contention multiplier applied to socket 0's tier.
        contention: f64,
    },
}

impl Platform {
    /// The paper's default two-tier configuration: 8 GB fast at a 1:8
    /// bandwidth differential — scaled 1024x like [`Scale::large`].
    pub fn default_two_tier() -> Self {
        Platform::TwoTier {
            fast_bytes: 8 << 20,
            bw_ratio: 8,
        }
    }

    /// Default Optane Memory Mode with the interference scenario.
    pub fn default_optane() -> Self {
        Platform::Optane {
            l4_bytes: 4 << 20,
            scenario: OptaneScenario::Interfered { contention: 1.8 },
        }
    }
}

/// One scheduled mid-run budget reconfiguration — the engine-level
/// `sys_kloc_memsize` schedule (DESIGN.md §13). Applied during the
/// measured phase at the first op boundary where the virtual clock has
/// reached [`BudgetEvent::at`]; a shrink is enforced by gradual
/// self-eviction, never a stall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetEvent {
    /// Virtual time at (or after) which the resize applies.
    pub at: Nanos,
    /// Tenant being resized (must be registered by the workload).
    pub tenant: TenantId,
    /// New page-cache cap (`None` = uncapped).
    pub pc_budget: Option<u64>,
    /// New fast-tier cap for kernel pages (`None` = uncapped).
    pub fast_budget_frames: Option<u64>,
}

/// One run's configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload to run.
    pub workload: WorkloadKind,
    /// Policy under test.
    pub policy: PolicyKind,
    /// Scale.
    pub scale: Scale,
    /// Platform.
    pub platform: Platform,
    /// Kernel parameter override (None = derived from the scale).
    pub kernel_params: Option<KernelParams>,
    /// Fault plan injected into the run (kfault). `None` (or an empty
    /// plan) leaves the run fault-free.
    pub faults: Option<FaultPlan>,
    /// Mid-run budget resizes, applied in (time, tenant) order during
    /// the measured phase. Empty for steady-state runs.
    pub budgets: Vec<BudgetEvent>,
}

impl RunConfig {
    /// Config on the default two-tier platform.
    pub fn two_tier(workload: WorkloadKind, policy: PolicyKind, scale: Scale) -> Self {
        RunConfig {
            workload,
            policy,
            scale,
            platform: Platform::default_two_tier(),
            kernel_params: None,
            faults: None,
            budgets: Vec::new(),
        }
    }
}

/// Per-tenant breakdown of one multi-tenant run (empty for
/// single-tenant runs). Counters are snapshotted with the rest of the
/// report, before teardown.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant id (`TenantId.0`).
    pub id: u16,
    /// Tenant name from its spec.
    pub name: String,
    /// QoS class label ("guaranteed", "burstable", "best-effort").
    pub qos: String,
    /// The tenant's page-cache cap, if budgeted.
    pub pc_budget: Option<u64>,
    /// The tenant's fast-tier cap for kernel pages, if budgeted.
    pub fast_budget_frames: Option<u64>,
    /// Kernel-side per-tenant counters.
    pub stats: kloc_kernel::TenantStats,
    /// Accesses this tenant made to knodes owned by *other* tenants
    /// (shared-inode/shared-socket attribution; `None` when the policy
    /// has no KLOC registry).
    pub shared_accesses: Option<u64>,
}

/// Everything measured in one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Workload label.
    pub workload: String,
    /// Policy label.
    pub policy: String,
    /// Operations completed in the measured phase.
    pub ops: u64,
    /// Virtual time of the measured phase.
    pub elapsed: Nanos,
    /// Virtual time of the setup (load) phase.
    pub setup_time: Nanos,
    /// Substrate counters at the end of the run.
    pub mem: MemStats,
    /// Kernel counters.
    pub kernel: KernelStats,
    /// Migration counters.
    pub migrations: MigrationStats,
    /// KLOC counters, when the policy has a registry.
    pub kloc: Option<KlocStats>,
    /// KLOC metadata overhead, when applicable.
    pub overhead: Option<OverheadReport>,
    /// Per-CPU fast-path hit ratio, when applicable (§4.3 ablation).
    pub percpu_hit_ratio: Option<f64>,
    /// Kmap tree traversals, when applicable.
    pub kmap_tree_accesses: Option<u64>,
    /// Readahead pages issued / useful.
    pub readahead_issued: u64,
    /// Readahead pages that were subsequently used.
    pub readahead_useful: u64,
    /// Disk I/O operations that failed (kfault injection; zero on
    /// faultless runs).
    pub io_errors: u64,
    /// blk-mq retries issued after failed disk operations.
    pub io_retries: u64,
    /// Accesses to each tier during the measured phase only.
    pub measured_tier_accesses: Vec<u64>,
    /// Fast-tier frames resident at the end of the measured phase.
    pub fast_resident: u64,
    /// Mean age of live application pages at the end of the measured
    /// phase (app pages outlive the run; Fig. 2d needs their lifetime).
    pub app_page_age: Nanos,
    /// Per-tenant breakdown, in tenant-id order (empty unless the
    /// workload declared tenants).
    pub tenants: Vec<TenantReport>,
}

impl RunReport {
    /// Fraction of measured-phase accesses served by tier 0 (fast/local).
    pub fn fast_access_fraction(&self) -> f64 {
        let total: u64 = self.measured_tier_accesses.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.measured_tier_accesses[0] as f64 / total as f64
        }
    }

    /// Measured throughput in operations per virtual second.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.ops as f64 / secs
        }
    }

    /// Speedup of this run over a baseline run of the same workload.
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        let b = baseline.throughput();
        if b <= 0.0 {
            0.0
        } else {
            self.throughput() / b
        }
    }
}

/// KSAN driver state: schedules cross-structure audits at a fixed op
/// interval during the measured phase and tracks virtual-clock
/// monotonicity across the whole run. Compiled in only with the `ksan`
/// feature; audits are observation-only, so run reports are
/// byte-identical with the feature on or off.
#[cfg(feature = "ksan")]
struct KsanState {
    interval: u64,
    ops_since_audit: u64,
    clock: kloc_mem::ksan::ClockMonitor,
}

#[cfg(feature = "ksan")]
impl KsanState {
    /// Default audit interval in measured-phase operations; override
    /// with `KLOC_KSAN_INTERVAL` (the sim crate is the deterministic
    /// harness boundary, so an env read is allowed here).
    const DEFAULT_INTERVAL: u64 = 256;

    fn new() -> Self {
        let interval = std::env::var("KLOC_KSAN_INTERVAL")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(Self::DEFAULT_INTERVAL);
        KsanState {
            interval,
            ops_since_audit: 0,
            clock: kloc_mem::ksan::ClockMonitor::new(),
        }
    }

    /// Runs every audit the simulation exposes and panics with the
    /// collected report if any structure pair disagrees.
    fn audit(&mut self, context: &str, mem: &MemorySystem, kernel: &Kernel, policy: &dyn Policy) {
        let mut out = Vec::new();
        mem.ksan_audit(&mut out);
        kernel.ksan_audit(mem, &mut out);
        if let Some(reg) = policy.registry() {
            reg.ksan_audit(&mut out);
        }
        self.clock.observe(mem.now(), &mut out);
        kloc_mem::ksan::enforce(context, &out);
    }

    /// Called once per measured-phase op; audits every `interval` ops.
    fn step(&mut self, mem: &MemorySystem, kernel: &Kernel, policy: &dyn Policy) {
        self.ops_since_audit += 1;
        if self.ops_since_audit >= self.interval {
            self.ops_since_audit = 0;
            self.audit("measured phase", mem, kernel, policy);
        }
    }
}

/// Compact platform descriptor for the `run_begin` trace event.
fn platform_label(platform: &Platform) -> String {
    match *platform {
        Platform::TwoTier {
            fast_bytes,
            bw_ratio,
        } => format!("two_tier:fast={fast_bytes}:bw={bw_ratio}"),
        Platform::Optane { l4_bytes, scenario } => {
            let sc = match scenario {
                OptaneScenario::AllLocal => "all_local".to_owned(),
                OptaneScenario::AllRemote => "all_remote".to_owned(),
                OptaneScenario::Interfered { contention } => {
                    format!("interfered={}", to_milli(contention))
                }
            };
            format!("optane:l4={l4_bytes}:{sc}")
        }
    }
}

/// Converts a contention multiplier to integer thousandths for tracing.
fn to_milli(x: f64) -> u64 {
    (x * 1000.0).round() as u64
}

/// Builds the memory system for a config, giving the bound policies
/// (All-Fast) an unbounded fast tier as the paper's ideal case does.
fn build_mem(config: &RunConfig) -> MemorySystem {
    match config.platform {
        Platform::TwoTier {
            fast_bytes,
            bw_ratio,
        } => {
            let fast = if config.policy == PolicyKind::AllFast {
                u64::MAX
            } else {
                fast_bytes
            };
            MemorySystem::two_tier(fast, bw_ratio)
        }
        Platform::Optane { l4_bytes, .. } => MemorySystem::optane_memory_mode(l4_bytes),
    }
}

/// Executes one run.
///
/// # Errors
/// Propagates kernel errors (indicating a harness bug; workloads only
/// issue valid operations).
pub fn run(config: &RunConfig) -> Result<RunReport, KernelError> {
    run_with(config, config.policy.build())
}

/// Executes one run with an explicitly constructed policy (used by the
/// Fig. 5c inclusion sweep and the ablations, which need custom policy
/// configurations).
///
/// # Errors
/// Propagates kernel errors.
pub fn run_with(config: &RunConfig, mut policy: Box<dyn Policy>) -> Result<RunReport, KernelError> {
    run_borrowing(config, policy.as_mut())
}

/// [`run_with`] on a borrowed policy, which the caller can inspect after
/// the run (diagnostic counters that no report carries).
///
/// # Errors
/// Propagates kernel errors.
pub fn run_borrowing(
    config: &RunConfig,
    policy: &mut dyn Policy,
) -> Result<RunReport, KernelError> {
    if kloc_trace::session_active() {
        // Install a per-run recorder on this worker thread. The runner
        // collects it with `kloc_trace::run_take()` after the run and
        // appends buffers to the session in input order, which is what
        // keeps session bytes independent of the worker count.
        kloc_trace::run_begin();
    }
    kloc_trace::emit(|| kloc_trace::Event::RunBegin {
        t: 0,
        workload: config.workload.label().to_owned(),
        policy: config.policy.label().to_owned(),
        platform: platform_label(&config.platform),
        seed: config.scale.seed,
        ops: config.scale.ops,
    });
    let mut mem = build_mem(config);
    mem.set_migration_cost(policy.migration_cost());
    mem.set_cpu_parallelism(config.scale.threads.max(1) as u64);
    if let Some(plan) = &config.faults {
        mem.set_fault_plan(plan.clone());
    }

    let params = config
        .kernel_params
        .clone()
        .unwrap_or_else(|| KernelParams {
            page_cache_budget: config.scale.page_cache_frames,
            ..KernelParams::default()
        });
    let mut kernel = Kernel::new(params);
    let mut workload = config.workload.build(&config.scale);

    // Multi-tenant runs: install the workload's tenant specs in the
    // kernel (budget enforcement, stat attribution) and the policy
    // (per-tenant placement budgets) before any allocation happens.
    let tenant_specs = workload.tenant_specs();
    for spec in &tenant_specs {
        kernel.register_tenant(spec.clone());
    }
    if !tenant_specs.is_empty() {
        policy.configure_tenants(&tenant_specs);
    }

    // Optane staging.
    let (mut task_socket, switch_at_op, scenario) = match config.platform {
        Platform::Optane { scenario, .. } => match scenario {
            OptaneScenario::AllLocal => (0u8, u64::MAX, Some(scenario)),
            OptaneScenario::AllRemote => (0u8, 0, Some(scenario)),
            OptaneScenario::Interfered { .. } => (0u8, config.scale.ops / 3, Some(scenario)),
        },
        Platform::TwoTier { .. } => (0u8, u64::MAX, None),
    };
    policy.set_task_socket(task_socket);
    if let Some(OptaneScenario::AllRemote) = scenario {
        // Worst case: the streamer contends on the data's socket for the
        // whole run, and the task computes from the other socket.
        mem.set_contention(TierId(0), 1.8);
        kloc_trace::emit(|| kloc_trace::Event::Contention {
            t: mem.now().as_nanos(),
            tier: 0,
            milli: to_milli(1.8),
        });
    }

    // Setup (load) phase — policies tick during it too.
    let tick_interval = policy.tick_interval();
    let mut next_tick = mem.now() + tick_interval;
    kloc_trace::emit(|| kloc_trace::Event::PhaseBegin {
        t: mem.now().as_nanos(),
        phase: "setup".to_owned(),
    });
    {
        let _phase = kloc_trace::scope("setup");
        let mut ctx = Ctx::new(&mut mem, &mut *policy);
        ctx.socket = task_socket;
        workload.setup(&mut kernel, &mut ctx)?;
    }
    let setup_time = mem.now();
    kloc_trace::flush(setup_time.as_nanos());
    #[cfg(feature = "ksan")]
    let mut ksan = KsanState::new();
    #[cfg(feature = "ksan")]
    ksan.audit("after setup", &mem, &kernel, &*policy);
    let access_baseline: Vec<u64> = (0..mem.tier_count())
        .map(|i| {
            let t = mem.stats().tier(kloc_mem::TierId(i as u8));
            t.reads + t.writes
        })
        .collect();

    // Measured phase.
    let t0 = mem.now();
    kloc_trace::emit(|| kloc_trace::Event::PhaseBegin {
        t: t0.as_nanos(),
        phase: "measured".to_owned(),
    });
    let measured_scope = kloc_trace::scope("measured");
    // Budget-resize schedule, in (time, tenant) order regardless of how
    // the config listed it — the application order is part of the
    // deterministic contract.
    let mut budgets = config.budgets.clone();
    budgets.sort_by_key(|b| (b.at, b.tenant.0));
    let mut next_budget = 0usize;
    let mut switched = switch_at_op == 0;
    if switched {
        // AllRemote: the task computes on the other socket from the start.
        task_socket = 1;
        // Note: the policy is *not* told (nothing migrates).
    }
    while !workload.is_done() {
        if !switched && workload.ops_done() >= switch_at_op {
            switched = true;
            if let Some(OptaneScenario::Interfered { contention }) = scenario {
                // Interference begins on socket 0; scheduler moves the
                // task to socket 1.
                mem.set_contention(TierId(0), contention);
                kloc_trace::emit(|| kloc_trace::Event::Contention {
                    t: mem.now().as_nanos(),
                    tier: 0,
                    milli: to_milli(contention),
                });
                task_socket = 1;
                policy.set_task_socket(1);
            }
        }
        {
            let mut ctx = Ctx::new(&mut mem, &mut *policy);
            ctx.socket = task_socket;
            workload.step(&mut kernel, &mut ctx)?;
        }
        // Apply every budget resize the virtual clock has reached. The
        // kernel shrinks gradually; the policy sees the new fast caps
        // on its next placement decision.
        while next_budget < budgets.len() && mem.now() >= budgets[next_budget].at {
            let ev = budgets[next_budget].clone();
            next_budget += 1;
            let before = kernel
                .tenants()
                .spec(ev.tenant)
                .map(|s| (s.pc_budget, s.fast_budget_frames));
            let applied = {
                let mut ctx = Ctx::new(&mut mem, &mut *policy);
                ctx.socket = task_socket;
                kernel.resize_tenant_budget(
                    &mut ctx,
                    ev.tenant,
                    ev.pc_budget,
                    ev.fast_budget_frames,
                )?
            };
            if applied {
                let (old_pc, old_fast) = before.unwrap_or((None, None));
                let t = mem.now().as_nanos();
                if old_pc != ev.pc_budget {
                    kloc_trace::emit(|| kloc_trace::Event::BudgetResize {
                        t,
                        tenant: u64::from(ev.tenant.0),
                        kind: "pc".to_owned(),
                        from: old_pc.unwrap_or(0),
                        to: ev.pc_budget.unwrap_or(0),
                    });
                }
                if old_fast != ev.fast_budget_frames {
                    kloc_trace::emit(|| kloc_trace::Event::BudgetResize {
                        t,
                        tenant: u64::from(ev.tenant.0),
                        kind: "fast".to_owned(),
                        from: old_fast.unwrap_or(0),
                        to: ev.fast_budget_frames.unwrap_or(0),
                    });
                }
                if let Some(spec) = kernel.tenants().spec(ev.tenant) {
                    policy.configure_tenants(std::slice::from_ref(&spec.clone()));
                }
            }
        }
        if mem.now() >= next_tick {
            let _tick = kloc_trace::scope("policy_tick");
            // Tier drain rides the tick cadence: while an offlining
            // window is open, migrate resident frames off the tier
            // within the per-tick budget (returns at once without a
            // fault plan).
            let (db, rb, rc) = {
                let p = kernel.params();
                (p.drain_budget_frames, p.drain_retry_base, p.drain_retry_cap)
            };
            mem.drain_offline(db, rb, rc);
            policy.tick(&kernel, &mut mem);
            next_tick = mem.now() + tick_interval;
        }
        #[cfg(feature = "ksan")]
        ksan.step(&mem, &kernel, &*policy);
    }
    #[cfg(feature = "ksan")]
    ksan.audit("end of measured phase", &mem, &kernel, &*policy);
    drop(measured_scope);
    let elapsed = mem.now() - t0;
    kloc_trace::flush(mem.now().as_nanos());
    let measured_tier_accesses: Vec<u64> = (0..mem.tier_count())
        .map(|i| {
            let t = mem.stats().tier(kloc_mem::TierId(i as u8));
            t.reads + t.writes - access_baseline[i]
        })
        .collect();
    let fast_resident = mem.stats().tier(TierId(0)).frames_resident;
    let app_page_age = mem.mean_live_age(kloc_mem::PageKind::AppData);
    // Snapshot counters before teardown (closing handles and freeing app
    // memory would otherwise pollute the measurement).
    let mem_stats = mem.stats().clone();
    let kernel_stats = kernel.stats().clone();
    let migrations = mem.migration_stats().clone();

    // Per-tenant breakdown, snapshotted with the other counters (the
    // teardown below drops cached pages and would zero pc_resident).
    let tenants: Vec<TenantReport> = tenant_specs
        .iter()
        .map(|spec| TenantReport {
            id: spec.id.0,
            name: spec.name.clone(),
            qos: spec.qos.to_string(),
            pc_budget: spec.pc_budget,
            fast_budget_frames: spec.fast_budget_frames,
            stats: kernel.tenant_stats(spec.id),
            shared_accesses: policy.registry().map(|r| r.shared_accesses_of(spec.id)),
        })
        .collect();

    // Capture KLOC state before teardown destroys knodes.
    let kloc = policy.kloc_stats();
    let peak_batch = policy.peak_migration_batch();
    let (overhead, percpu_hit_ratio, kmap_tree_accesses) = match policy.registry() {
        Some(r) => (
            Some(overhead::measure(r, peak_batch)),
            Some(r.percpu().hit_ratio()),
            Some(r.kmap().tree_accesses()),
        ),
        None => (None, None, None),
    };

    kloc_trace::emit(|| kloc_trace::Event::PhaseBegin {
        t: mem.now().as_nanos(),
        phase: "teardown".to_owned(),
    });
    {
        let _phase = kloc_trace::scope("teardown");
        let mut ctx = Ctx::new(&mut mem, &mut *policy);
        ctx.socket = task_socket;
        workload.teardown(&mut kernel, &mut ctx)?;
    }
    let end_t = mem.now().as_nanos();
    kloc_trace::flush(end_t);
    kloc_trace::emit(|| kloc_trace::Event::RunEnd {
        t: end_t,
        ops: workload.ops_done(),
    });

    Ok(RunReport {
        workload: config.workload.label().to_owned(),
        policy: config.policy.label().to_owned(),
        ops: workload.ops_done(),
        elapsed,
        setup_time,
        mem: mem_stats,
        kernel: kernel_stats,
        migrations,
        kloc,
        overhead,
        percpu_hit_ratio,
        kmap_tree_accesses,
        readahead_issued: kernel.readahead().stats().issued,
        readahead_useful: kernel.readahead().stats().useful,
        io_errors: kernel.disk().stats().io_errors,
        io_retries: kernel.disk().stats().retries,
        measured_tier_accesses,
        fast_resident,
        app_page_age,
        tenants,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(policy: PolicyKind) -> RunConfig {
        RunConfig {
            workload: WorkloadKind::RocksDb,
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
    fn runs_complete_and_count_ops() {
        let r = run(&cfg(PolicyKind::Naive)).unwrap();
        assert_eq!(r.ops, Scale::tiny().ops);
        assert!(r.elapsed > Nanos::ZERO);
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn deterministic_for_same_config() {
        let a = run(&cfg(PolicyKind::Kloc)).unwrap();
        let b = run(&cfg(PolicyKind::Kloc)).unwrap();
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.migrations, b.migrations);
    }

    #[test]
    fn all_fast_beats_all_slow() {
        let fast = run(&cfg(PolicyKind::AllFast)).unwrap();
        let slow = run(&cfg(PolicyKind::AllSlow)).unwrap();
        let speedup = fast.speedup_over(&slow);
        assert!(
            speedup > 1.2,
            "All-Fast must clearly beat All-Slow, got {speedup:.2}x"
        );
    }

    #[test]
    fn kloc_reports_registry_state() {
        let r = run(&cfg(PolicyKind::Kloc)).unwrap();
        assert!(r.kloc.is_some());
        assert!(r.overhead.is_some());
        assert!(r.kloc.unwrap().knodes_created > 0);
        let naive = run(&cfg(PolicyKind::Naive)).unwrap();
        assert!(naive.kloc.is_none());
    }

    #[test]
    fn optane_scenarios_order_correctly() {
        let mk = |scenario| RunConfig {
            workload: WorkloadKind::Redis,
            policy: PolicyKind::AutoNumaKloc,
            scale: Scale::tiny(),
            platform: Platform::Optane {
                l4_bytes: 1 << 20,
                scenario,
            },
            kernel_params: None,
            faults: None,
            budgets: Vec::new(),
        };
        let local = run(&mk(OptaneScenario::AllLocal)).unwrap();
        let remote = run(&mk(OptaneScenario::AllRemote)).unwrap();
        assert!(
            local.throughput() > remote.throughput(),
            "all-local must beat all-remote"
        );
    }
}
