//! QoS-aware graceful-degradation soak (`repro chaos`).
//!
//! Composes every degradation mechanism this codebase models into one
//! deterministic scenario and checks the QoS contract held end to end
//! (DESIGN.md §13). The soak drives the budgeted multi-tenant workload
//! under the KLOC policy twice:
//!
//! 1. **Fault-free pass** — learns the virtual horizon `T` of the run.
//! 2. **Chaos pass** — replays the same run with an `Offline` fault
//!    window covering the fast tier for the middle third `[T/3, 2T/3)`,
//!    injected disk-I/O and migration faults inside the window, and a
//!    budget-resize schedule that halves the best-effort tenant's caps
//!    at `T/3` and restores them at `2T/3`.
//!
//! The chaos pass samples per-tenant kernel counters at the two phase
//! boundaries, splitting the run into *baseline*, *degraded*, and
//! *recovered* phases, then audits the per-phase deltas against the
//! QoS SLOs: the guaranteed tenant must finish unharmed (no cross
//! evictions suffered, never preempted), the best-effort tenant must
//! absorb the pressure (measurably preempted), the burstable tenant's
//! degradation must stay bounded by the best-effort tenant's, the tier
//! drain must have made progress without abandoning frames, and the
//! journal must still satisfy the crash-recovery checker.
//!
//! Everything runs on the virtual clock in one thread, so the rendered
//! report is byte-identical at any `--jobs` setting — CI diffs it
//! across job counts.

use kloc_kernel::hooks::Ctx;
use kloc_kernel::recovery::{check, recover};
use kloc_kernel::{Kernel, KernelError, KernelParams, QosClass, TenantStats};
use kloc_mem::{DiskOp, DrainStats, FaultPlan, MemorySystem, Nanos, TierFaultKind, TierId};
use kloc_policy::PolicyKind;
use kloc_workloads::{MultiTenant, Scale, WorkloadKind};

use crate::engine::{self, BudgetEvent, Platform};
use crate::report::Table;

/// Phase labels, in virtual-time order.
pub const PHASES: [&str; 3] = ["baseline", "degraded", "recovered"];

/// Per-tenant counter deltas over one phase of the chaos pass.
#[derive(Debug, Clone)]
pub struct PhaseRow {
    /// Phase label (one of [`PHASES`]).
    pub phase: &'static str,
    /// Tenant name from its [`kloc_kernel::TenantSpec`].
    pub tenant: String,
    /// QoS class label.
    pub qos: String,
    /// Page-cache insertions during the phase.
    pub inserted: u64,
    /// Budget self-evictions during the phase.
    pub self_evicted: u64,
    /// Cross-tenant evictions suffered during the phase.
    pub cross_suffered: u64,
    /// QoS preemptions (reclaim or resize) during the phase.
    pub preempted: u64,
    /// Resident page-cache pages at the end of the phase.
    pub resident_end: u64,
}

/// One SLO audit, with a human-readable detail line.
#[derive(Debug, Clone)]
pub struct SloCheck {
    /// Short invariant name.
    pub name: &'static str,
    /// Whether the invariant held.
    pub ok: bool,
    /// What was measured.
    pub detail: String,
}

/// Everything the chaos soak observed, renderable as a deterministic
/// plain-text report.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Scale label the soak ran at.
    pub scale: String,
    /// Fault-free horizon the window was derived from.
    pub horizon: Nanos,
    /// Offline-window start (also the budget-shrink instant).
    pub window_start: Nanos,
    /// Offline-window end (also the budget-restore instant).
    pub window_end: Nanos,
    /// Virtual time the chaos pass finished.
    pub end: Nanos,
    /// Tenant x phase counter deltas, in spec-then-phase order.
    pub rows: Vec<PhaseRow>,
    /// Tier-drain counters accumulated over the chaos pass.
    pub drain: DrainStats,
    /// Journal records replay applied after the run.
    pub replayed: usize,
    /// Torn records replay discarded.
    pub torn: usize,
    /// Crash-recovery checker violations (must be 0).
    pub violations: usize,
    /// The SLO audits.
    pub checks: Vec<SloCheck>,
}

impl ChaosReport {
    /// Number of SLO checks that failed.
    pub fn breaches(&self) -> usize {
        self.checks.iter().filter(|c| !c.ok).count()
    }

    /// The per-tenant, per-phase degradation table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!("chaos soak at scale {} (degradation by phase)", self.scale),
            &[
                "tenant",
                "qos",
                "phase",
                "inserted",
                "self-evict",
                "x-suffered",
                "preempted",
                "resident",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.tenant.clone(),
                r.qos.clone(),
                r.phase.to_owned(),
                r.inserted.to_string(),
                r.self_evicted.to_string(),
                r.cross_suffered.to_string(),
                r.preempted.to_string(),
                r.resident_end.to_string(),
            ]);
        }
        t
    }

    /// Full report: table, drain/recovery summary, SLO verdicts.
    pub fn render(&self) -> String {
        let mut out = self.table().to_string();
        out.push_str(&format!(
            "offline window [{}, {}) of horizon {} ns; run ended at {} ns\n",
            self.window_start.as_nanos(),
            self.window_end.as_nanos(),
            self.horizon.as_nanos(),
            self.end.as_nanos(),
        ));
        out.push_str(&format!(
            "drain: {} frames moved, {} retries, {} abandoned, {} passes\n",
            self.drain.drained, self.drain.retries, self.drain.failed, self.drain.passes,
        ));
        out.push_str(&format!(
            "recovery: {} replayed, {} torn, {} violations\n",
            self.replayed, self.torn, self.violations,
        ));
        for c in &self.checks {
            out.push_str(&format!(
                "  [{}] {}: {}\n",
                if c.ok { "ok" } else { "FAIL" },
                c.name,
                c.detail,
            ));
        }
        out.push_str(&if self.breaches() == 0 {
            "CHAOS OK: QoS contract held through drain, faults, and resize\n".to_owned()
        } else {
            format!("CHAOS FAILED: {} SLO breach(es)\n", self.breaches())
        });
        out
    }
}

/// What one drive of the workload produced.
struct Drive {
    kernel: Kernel,
    end: Nanos,
    /// One per entry in `bounds`, plus a final end-of-run snapshot;
    /// each is the tenants' stats in spec order.
    samples: Vec<Vec<TenantStats>>,
    drain: DrainStats,
}

/// Runs the budgeted multi-tenant workload under the KLOC policy,
/// applying `budgets` at their scheduled instants and snapshotting
/// per-tenant stats whenever the clock crosses an entry of `bounds`
/// (sorted ascending). Mirrors the engine's measured loop — tenant
/// registration, budget-resize application, and tier drain at the tick
/// cadence — without its report plumbing, so phases can be sampled
/// mid-run. Under a trace session the drive records one run slice.
fn drive(
    scale: &Scale,
    plan: Option<FaultPlan>,
    budgets: &[BudgetEvent],
    bounds: &[Nanos],
) -> Result<Drive, KernelError> {
    const BW_RATIO: u64 = 8;
    let workload_kind = WorkloadKind::Tenants { budgeted: true };
    let platform = Platform::TwoTier {
        fast_bytes: scale.fast_bytes,
        bw_ratio: BW_RATIO,
    };
    engine::trace_run_begin(workload_kind, PolicyKind::Kloc, &platform, scale);
    let mut mem = MemorySystem::two_tier(scale.fast_bytes, BW_RATIO);
    let mut policy = PolicyKind::Kloc.build();
    mem.set_migration_cost(policy.migration_cost());
    mem.set_cpu_parallelism(scale.threads.max(1) as u64);
    if let Some(plan) = plan {
        mem.set_fault_plan(plan);
    }
    let params = KernelParams {
        page_cache_budget: scale.page_cache_frames,
        ..KernelParams::default()
    };
    let mut kernel = Kernel::new(params);
    let mut workload = workload_kind.build(scale);
    let specs = workload.tenant_specs();
    for spec in &specs {
        kernel.register_tenant(spec.clone());
    }
    policy.configure_tenants(&specs);

    let snapshot = |kernel: &Kernel| -> Vec<TenantStats> {
        specs.iter().map(|s| kernel.tenant_stats(s.id)).collect()
    };

    let mut budgets: Vec<BudgetEvent> = budgets.to_vec();
    budgets.sort_by_key(|b| (b.at, b.tenant.0));
    let mut next_budget = 0usize;
    let mut next_bound = 0usize;
    let mut samples: Vec<Vec<TenantStats>> = Vec::new();
    let tick_interval = policy.tick_interval();
    let mut next_tick = mem.now() + tick_interval;

    {
        let mut ctx = Ctx::new(&mut mem, policy.as_mut());
        workload.setup(&mut kernel, &mut ctx)?;
    }
    while !workload.is_done() {
        {
            let mut ctx = Ctx::new(&mut mem, policy.as_mut());
            workload.step(&mut kernel, &mut ctx)?;
        }
        // Phase boundaries sample *before* same-instant budget events,
        // so resize evictions land in the phase the resize opens.
        while next_bound < bounds.len() && mem.now() >= bounds[next_bound] {
            samples.push(snapshot(&kernel));
            next_bound += 1;
        }
        while next_budget < budgets.len() && mem.now() >= budgets[next_budget].at {
            let ev = budgets[next_budget].clone();
            next_budget += 1;
            let before = kernel
                .tenants()
                .spec(ev.tenant)
                .map(|s| (s.pc_budget, s.fast_budget_frames));
            let applied = {
                let mut ctx = Ctx::new(&mut mem, policy.as_mut());
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
            let (db, rb, rc) = {
                let p = kernel.params();
                (p.drain_budget_frames, p.drain_retry_base, p.drain_retry_cap)
            };
            mem.drain_offline(db, rb, rc);
            policy.tick(&kernel, &mut mem);
            next_tick = mem.now() + tick_interval;
        }
    }
    // A pass that ends before a boundary (can only happen if faults
    // shortened the run, which they never do) still yields one sample
    // per boundary so phase indexing stays total.
    while next_bound < bounds.len() {
        samples.push(snapshot(&kernel));
        next_bound += 1;
    }
    samples.push(snapshot(&kernel));
    let end = mem.now();
    engine::trace_flush(&mem, &kernel, &*policy);
    kloc_trace::emit(|| kloc_trace::Event::RunEnd {
        t: end.as_nanos(),
        ops: workload.ops_done(),
    });
    let drain = *mem.drain_stats();
    Ok(Drive {
        kernel,
        end,
        samples,
        drain,
    })
}

/// Halves a cap (a shrunk cap never reaches zero: panic→clamp style).
fn halve(cap: Option<u64>) -> Option<u64> {
    cap.map(|c| (c / 2).max(1))
}

/// Runs the full chaos soak at `scale` and audits the SLOs.
///
/// # Errors
/// Propagates kernel errors — the scenario injects no crash, so any
/// error is a harness bug, not an expected outcome.
pub fn run(scale: &Scale) -> Result<ChaosReport, KernelError> {
    // Pass 1: fault-free, to learn the horizon. Each pass is its own
    // run slice of a trace session.
    let free = engine::traced(|| drive(scale, None, &[], &[]))?;
    let t = free.end.as_nanos().max(99);
    let window_start = Nanos::new(t / 3);
    let window_end = Nanos::new(2 * t / 3);

    // The chaos plan: fast tier offline for the middle third, plus
    // disk-I/O and migration faults landing inside the window.
    let plan = FaultPlan::new()
        .with_tier_fault(
            TierId::FAST,
            TierFaultKind::Offline,
            window_start,
            Some(window_end),
        )
        .with_disk_fault(Nanos::new(t / 2), DiskOp::Write, 2)
        .with_disk_fault(Nanos::new(t / 2), DiskOp::Read, 2)
        .with_migration_fault(window_start, 2);

    // Budget-resize schedule: halve the best-effort tenant's caps for
    // the duration of the window, then restore them.
    let specs = MultiTenant::specs(scale, true);
    let shrunk = specs
        .iter()
        .find(|s| s.qos == QosClass::BestEffort)
        .cloned()
        .expect("multi-tenant workload has a best-effort tenant");
    let budgets = vec![
        BudgetEvent {
            at: window_start,
            tenant: shrunk.id,
            pc_budget: halve(shrunk.pc_budget),
            fast_budget_frames: halve(shrunk.fast_budget_frames),
        },
        BudgetEvent {
            at: window_end,
            tenant: shrunk.id,
            pc_budget: shrunk.pc_budget,
            fast_budget_frames: shrunk.fast_budget_frames,
        },
    ];

    // Pass 2: the chaos pass, sampled at the phase boundaries.
    let chaos = engine::traced(|| drive(scale, Some(plan), &budgets, &[window_start, window_end]))?;
    let recovered = recover(chaos.kernel.durable());
    let violations = check(chaos.kernel.durable(), chaos.kernel.promise(), &recovered);

    let zero = vec![TenantStats::default(); specs.len()];
    let mut rows = Vec::new();
    for (ti, spec) in specs.iter().enumerate() {
        for (pi, phase) in PHASES.iter().enumerate() {
            let prev = if pi == 0 {
                &zero
            } else {
                &chaos.samples[pi - 1]
            };
            let cur = &chaos.samples[pi];
            rows.push(PhaseRow {
                phase,
                tenant: spec.name.clone(),
                qos: spec.qos.to_string(),
                inserted: cur[ti].pc_inserted - prev[ti].pc_inserted,
                self_evicted: cur[ti].pc_self_evicted - prev[ti].pc_self_evicted,
                cross_suffered: cur[ti].cross_evictions_suffered
                    - prev[ti].cross_evictions_suffered,
                preempted: cur[ti].preempted - prev[ti].preempted,
                resident_end: cur[ti].pc_resident,
            });
        }
    }

    let by_qos = |q: QosClass| -> &TenantStats {
        let i = specs
            .iter()
            .position(|s| s.qos == q)
            .expect("every QoS class is represented");
        &chaos.samples[PHASES.len() - 1][i]
    };
    let g = by_qos(QosClass::Guaranteed);
    let b = by_qos(QosClass::Burstable);
    let e = by_qos(QosClass::BestEffort);
    let checks = vec![
        SloCheck {
            name: "guaranteed-unharmed",
            ok: g.cross_evictions_suffered == 0 && g.preempted == 0,
            detail: format!(
                "guaranteed tenant suffered {} cross evictions, {} preemptions (want 0/0)",
                g.cross_evictions_suffered, g.preempted,
            ),
        },
        SloCheck {
            name: "best-effort-degrades",
            ok: e.preempted > 0,
            detail: format!(
                "best-effort tenant preempted {} times (want > 0: it absorbs the pressure)",
                e.preempted,
            ),
        },
        SloCheck {
            name: "burstable-bounded",
            ok: b.cross_evictions_suffered == 0 && b.preempted <= e.preempted,
            detail: format!(
                "burstable tenant: {} cross suffered (want 0), {} preemptions (want <= {})",
                b.cross_evictions_suffered, b.preempted, e.preempted,
            ),
        },
        SloCheck {
            name: "drain-progress",
            ok: chaos.drain.drained > 0 && chaos.drain.failed == 0,
            detail: format!(
                "{} frames drained off the offline tier, {} abandoned (want > 0 / 0)",
                chaos.drain.drained, chaos.drain.failed,
            ),
        },
        SloCheck {
            name: "recovery-clean",
            ok: violations.is_empty(),
            detail: format!(
                "{} journal records replayed, {} torn, {} checker violations (want 0)",
                recovered.replayed,
                recovered.torn,
                violations.len(),
            ),
        },
    ];

    Ok(ChaosReport {
        scale: scale.label.to_owned(),
        horizon: free.end,
        window_start,
        window_end,
        end: chaos.end,
        rows,
        drain: chaos.drain,
        replayed: recovered.replayed,
        torn: recovered.torn,
        violations: violations.len(),
        checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_soak_holds_the_qos_contract_at_tiny_scale() {
        let report = run(&Scale::tiny()).expect("chaos soak completes");
        assert_eq!(report.breaches(), 0, "{}", report.render());
        assert_eq!(report.violations, 0);
        assert!(report.drain.drained > 0, "{}", report.render());
        // Three tenants x three phases.
        assert_eq!(report.rows.len(), 9);
    }

    #[test]
    fn chaos_report_renders_every_phase_and_verdict() {
        let report = run(&Scale::tiny()).expect("chaos soak completes");
        let text = report.render();
        for phase in PHASES {
            assert!(text.contains(phase), "missing phase {phase}: {text}");
        }
        assert!(text.contains("CHAOS OK"), "{text}");
        assert!(text.contains("drain:"), "{text}");
        assert!(text.contains("recovery:"), "{text}");
    }

    #[test]
    fn chaos_soak_is_deterministic() {
        let a = run(&Scale::tiny()).expect("first soak");
        let b = run(&Scale::tiny()).expect("second soak");
        assert_eq!(a.render(), b.render());
        assert_eq!(a.end, b.end);
        assert_eq!(a.drain, b.drain);
    }
}
