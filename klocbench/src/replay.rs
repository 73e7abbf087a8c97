//! The outside-in replay of the engine: one simulator run, phase by phase, through the
//! layers' public functions only, timing each phase on the host clock.
//!
//! It reproduces `kloc_sim::engine::run_with` for the two-tier,
//! fault-free, budget-free configurations the benchmark uses, and
//! snapshots the same [`RunReport`] before teardown, so every timed run
//! is checked against the engine's reference report for its config.

use std::time::Instant;

use kloc_core::overhead;
use kloc_kernel::hooks::Ctx;
use kloc_kernel::{Kernel, KernelError, KernelParams};
use kloc_mem::{MemorySystem, PageKind, ShardConfig, TierId};
use kloc_policy::{Policy, PolicyKind};
use kloc_sim::engine::{Platform, RunConfig, RunReport, TenantReport};

use crate::timed::{elapsed_ns, HookTimes, HookTotals};

/// Steps per segment of [`Timing::segments`].
pub const SEGMENT_STEPS: u64 = 1000;

/// Host time of one driven run.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    /// Construction of the memory system, kernel and workload, plus
    /// `Workload::setup` (the load phase).
    pub setup_ns: u64,
    /// The measured phase: steps, tier drains and policy ticks.
    pub measured_ns: u64,
    /// The measured phase cut into consecutive [`SEGMENT_STEPS`]-step
    /// segments (the last may be shorter); they sum to `measured_ns`.
    pub segments: Vec<u64>,
    /// `Workload::teardown`.
    pub teardown_ns: u64,
    /// Span data of a traced run (`None` untraced).
    pub trace: Option<Trace>,
}

/// Spans recorded by a traced run, measured phase only.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Raw host ns of each `Workload::step`, with the hook calls it made.
    pub steps: Vec<(u64, u64)>,
    /// `Policy::tick` calls.
    pub ticks: u64,
    /// Raw host ns in `Policy::tick`.
    pub tick_ns: u64,
    /// Hook calls and raw ns.
    pub hooks: HookTotals,
}

/// Runs `config` with `policy`. With `hooks` (the counters of a
/// [`crate::timed::Timed`] wrapping `policy`) every step and tick is
/// also timed.
///
/// # Panics
/// If `config` is not a fault-free, budget-free two-tier run with
/// default kernel parameters — the only shape the benchmark drives.
///
/// # Errors
/// Propagates kernel errors.
pub fn run(
    config: &RunConfig,
    policy: &mut dyn Policy,
    hooks: Option<&HookTimes>,
) -> Result<(RunReport, Timing), KernelError> {
    let Platform::TwoTier {
        fast_bytes,
        bw_ratio,
    } = config.platform
    else {
        panic!("the replay runs two-tier platforms only");
    };
    assert!(
        config.kernel_params.is_none() && config.faults.is_none() && config.budgets.is_empty(),
        "the replay runs default-parameter, fault-free, budget-free configs only"
    );
    let start = Instant::now();
    let mut timing = Timing::default();

    // Setup: the same construction order as the engine.
    let fast = if config.policy == PolicyKind::AllFast {
        u64::MAX
    } else {
        fast_bytes
    };
    let mut mem = MemorySystem::two_tier(fast, bw_ratio);
    mem.set_migration_cost(policy.migration_cost());
    mem.set_cpu_parallelism(u64::from(config.scale.threads.max(1)));
    let params = KernelParams {
        page_cache_budget: config.scale.page_cache_frames,
        ..KernelParams::default()
    };
    mem.set_shards(ShardConfig::with_shards(params.shards));
    let mut kernel = Kernel::new(params);
    let mut workload = config.workload.build(&config.scale);
    let tenant_specs = workload.tenant_specs();
    for spec in &tenant_specs {
        kernel.register_tenant(spec.clone());
    }
    if !tenant_specs.is_empty() {
        policy.configure_tenants(&tenant_specs);
    }
    policy.set_task_socket(0);
    let tick_interval = policy.tick_interval();
    let mut next_tick = mem.now() + tick_interval;
    workload.setup(&mut kernel, &mut Ctx::new(&mut mem, &mut *policy))?;
    let setup_time = mem.now();
    let access_baseline: Vec<u64> = (0..mem.tier_count())
        .map(|i| tier_accesses(&mem, i))
        .collect();
    timing.setup_ns = elapsed_ns(start);

    // Measured phase.
    let measured = Instant::now();
    let mut trace = hooks.map(|h| Trace {
        steps: Vec::with_capacity(usize::try_from(workload.target_ops()).unwrap_or(0)),
        hooks: h.snapshot(),
        ..Trace::default()
    });
    let t0 = mem.now();
    let (mut steps, mut segment_start) = (0u64, 0u64);
    while !workload.is_done() {
        match (&mut trace, hooks) {
            (Some(tr), Some(h)) => {
                let calls = h.total_calls();
                let t = Instant::now();
                workload.step(&mut kernel, &mut Ctx::new(&mut mem, &mut *policy))?;
                let ns = elapsed_ns(t);
                tr.steps.push((ns, h.total_calls() - calls));
            }
            _ => workload.step(&mut kernel, &mut Ctx::new(&mut mem, &mut *policy))?,
        }
        if mem.now() >= next_tick {
            let p = kernel.params();
            let (budget, base, cap) =
                (p.drain_budget_frames, p.drain_retry_base, p.drain_retry_cap);
            mem.drain_offline(budget, base, cap);
            match &mut trace {
                Some(tr) => {
                    let t = Instant::now();
                    policy.tick(&kernel, &mut mem);
                    tr.tick_ns += elapsed_ns(t);
                    tr.ticks += 1;
                }
                None => policy.tick(&kernel, &mut mem),
            }
            next_tick = mem.now() + tick_interval;
        }
        steps += 1;
        if steps % SEGMENT_STEPS == 0 {
            let now = elapsed_ns(measured);
            timing.segments.push(now - segment_start);
            segment_start = now;
        }
    }
    let elapsed = mem.now() - t0;
    timing.measured_ns = elapsed_ns(measured);
    timing.segments.push(timing.measured_ns - segment_start);
    if let (Some(tr), Some(h)) = (&mut trace, hooks) {
        tr.hooks = h.snapshot().since(&tr.hooks);
    }
    timing.trace = trace;

    // Snapshot before teardown, field for field as the engine does.
    let measured_tier_accesses: Vec<u64> = (0..mem.tier_count())
        .map(|i| tier_accesses(&mem, i) - access_baseline[i])
        .collect();
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
    let peak_batch = policy.peak_migration_batch();
    let (overhead, percpu_hit_ratio, kmap_tree_accesses) = match policy.registry() {
        Some(r) => (
            Some(overhead::measure(r, peak_batch)),
            Some(r.percpu().hit_ratio()),
            Some(r.kmap().tree_accesses()),
        ),
        None => (None, None, None),
    };
    let mut report = RunReport {
        workload: config.workload.label().to_owned(),
        policy: config.policy.label().to_owned(),
        ops: workload.ops_done(),
        elapsed,
        setup_time,
        mem: mem.stats().clone(),
        kernel: kernel.stats().clone(),
        migrations: mem.migration_stats().clone(),
        kloc: policy.kloc_stats(),
        overhead,
        percpu_hit_ratio,
        kmap_tree_accesses,
        readahead_issued: 0,
        readahead_useful: 0,
        io_errors: 0,
        io_retries: 0,
        measured_tier_accesses,
        fast_resident: mem.stats().tier(TierId(0)).frames_resident,
        app_page_age: mem.mean_live_age(PageKind::AppData),
        tenants,
    };

    let teardown = Instant::now();
    workload.teardown(&mut kernel, &mut Ctx::new(&mut mem, &mut *policy))?;
    timing.teardown_ns = elapsed_ns(teardown);
    // The engine reads these four after teardown.
    report.ops = workload.ops_done();
    report.readahead_issued = kernel.readahead().stats().issued;
    report.readahead_useful = kernel.readahead().stats().useful;
    report.io_errors = kernel.disk().stats().io_errors;
    report.io_retries = kernel.disk().stats().retries;
    Ok((report, timing))
}

fn tier_accesses(mem: &MemorySystem, tier: usize) -> u64 {
    let t = &mem.stats().tiers[tier];
    t.reads + t.writes
}
