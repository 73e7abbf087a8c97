//! Deterministic virtual-time fault injection (the `kfault` subsystem).
//!
//! A [`FaultPlan`] schedules failures against the simulated hardware —
//! NVMe read/write/fsync errors, tier-capacity exhaustion, whole-tier
//! offlining, migration failures, and a crash point — all keyed to the
//! *virtual* clock (or, for crashes, to journal commit ordinals), so a
//! plan plus a seed reproduces the exact same failure history on every
//! run. Plans are either built explicitly (the crash sweep does this) or
//! generated from a seed via the in-tree [`SplitMix64`], the same RNG
//! the workloads use.
//!
//! Faults are selected at run time: a run is faulty exactly when a
//! non-empty plan is installed with [`crate::MemorySystem::set_fault_plan`].
//! Without one, each injection hook inside [`crate::MemorySystem`] is a
//! single inline `None` test in front of a `#[cold]` body: no hook ever
//! fires, no RNG is drawn, and no virtual time is charged — faultless
//! runs stay byte-identical to the committed goldens.

use crate::clock::Nanos;
use crate::rng::SplitMix64;
use crate::tier::TierId;

/// Disk operation classes a fault can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskOp {
    /// A synchronous or readahead disk read.
    Read,
    /// An asynchronous (writeback/journal) disk write submission.
    Write,
    /// An fsync barrier (drain of in-flight writes).
    Fsync,
}

impl DiskOp {
    /// Stable label used in trace events and error messages.
    pub fn label(self) -> &'static str {
        match self {
            DiskOp::Read => "read",
            DiskOp::Write => "write",
            DiskOp::Fsync => "fsync",
        }
    }
}

impl std::fmt::Display for DiskOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What happens to a tier inside a fault window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierFaultKind {
    /// The tier behaves as if at capacity: new allocations fail with
    /// [`crate::MemError::TierFull`] (and spill down the preference
    /// list), but resident frames stay accessible and migratable.
    Exhaust,
    /// The whole tier is offline for placement: allocations *and*
    /// inbound migrations fail with [`crate::MemError::TierOffline`].
    /// Resident frames remain readable (a degraded device, not a dead
    /// one) and may be migrated away.
    Offline,
}

impl TierFaultKind {
    /// Stable label used in trace events.
    pub fn label(self) -> &'static str {
        match self {
            TierFaultKind::Exhaust => "exhaust",
            TierFaultKind::Offline => "offline",
        }
    }
}

/// One scheduled disk fault: starting at virtual time `at`, the next
/// `count` operations of class `op` fail (and are then retried by the
/// kernel's blk-mq layer with exponential backoff).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskFault {
    /// Virtual time at/after which the fault arms.
    pub at: Nanos,
    /// Operation class that fails.
    pub op: DiskOp,
    /// Consecutive failures injected before the device recovers.
    pub count: u32,
}

/// One tier fault window `[at, until)`; `until = None` means the rest
/// of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierFault {
    /// Affected tier.
    pub tier: TierId,
    /// Exhaustion or offlining.
    pub kind: TierFaultKind,
    /// Window start (virtual time).
    pub at: Nanos,
    /// Window end, exclusive (`None` = never recovers).
    pub until: Option<Nanos>,
}

/// One scheduled migration fault: starting at `at`, the next `count`
/// migrations fail with [`crate::MemError::MigrationFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationFault {
    /// Virtual time at/after which the fault arms.
    pub at: Nanos,
    /// Consecutive migration failures injected.
    pub count: u32,
}

/// Where the simulated machine crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Crash at the first syscall entered at/after this virtual time.
    At(Nanos),
    /// Crash at the `index`-th journal commit (0-based, counting every
    /// commit the run performs): `after_blocks = 0` crashes at the
    /// commit boundary before any journal block reaches the disk;
    /// `after_blocks = j > 0` crashes mid-commit after `j` of the
    /// commit's blocks were written, leaving a torn record.
    Commit {
        /// Commit ordinal (0-based).
        index: u64,
        /// Journal blocks durably written before the crash.
        after_blocks: u32,
    },
}

/// A complete deterministic fault schedule. Built empty, explicitly, or
/// from a seed; consumed by [`FaultState`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Scheduled disk faults.
    pub disk: Vec<DiskFault>,
    /// Scheduled tier fault windows.
    pub tiers: Vec<TierFault>,
    /// Scheduled migration faults.
    pub migrations: Vec<MigrationFault>,
    /// At most one crash per run.
    pub crash: Option<CrashPoint>,
}

impl FaultPlan {
    /// An empty plan (no faults; runs stay byte-identical to goldens).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.disk.is_empty()
            && self.tiers.is_empty()
            && self.migrations.is_empty()
            && self.crash.is_none()
    }

    /// Adds a disk fault (builder style).
    #[must_use]
    pub fn with_disk_fault(mut self, at: Nanos, op: DiskOp, count: u32) -> Self {
        self.disk.push(DiskFault { at, op, count });
        self
    }

    /// Adds a tier fault window (builder style).
    #[must_use]
    pub fn with_tier_fault(
        mut self,
        tier: TierId,
        kind: TierFaultKind,
        at: Nanos,
        until: Option<Nanos>,
    ) -> Self {
        self.tiers.push(TierFault {
            tier,
            kind,
            at,
            until,
        });
        self
    }

    /// Adds a migration fault (builder style).
    #[must_use]
    pub fn with_migration_fault(mut self, at: Nanos, count: u32) -> Self {
        self.migrations.push(MigrationFault { at, count });
        self
    }

    /// Sets the crash point (builder style; at most one crash per run).
    #[must_use]
    pub fn with_crash(mut self, crash: CrashPoint) -> Self {
        self.crash = Some(crash);
        self
    }

    /// Generates a representative seeded plan over a virtual-time
    /// `horizon`: two faults per disk-op class (1-2 consecutive errors
    /// each, always recoverable within the kernel's default retry
    /// budget), two migration faults, one fast-tier exhaustion window
    /// in the middle third of the horizon, and one fast-tier offlining
    /// window in the last third (exercising the drain path). Identical
    /// `(seed, horizon)` pairs yield identical plans.
    pub fn seeded(seed: u64, horizon: Nanos) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0xFA_017);
        let h = horizon.as_nanos().max(1);
        fn at(rng: &mut SplitMix64, h: u64, lo_frac: u64, hi_frac: u64) -> Nanos {
            let lo = h * lo_frac / 8;
            let hi = (h * hi_frac / 8).max(lo + 1);
            Nanos::new(rng.gen_range(lo..hi))
        }
        let mut plan = FaultPlan::new();
        // These DiskOps parameterize a fault plan; they are never
        // submitted to the device model from here.
        // lint: charge-ok
        for op in [DiskOp::Read, DiskOp::Write, DiskOp::Fsync] {
            for window in [(0, 4), (4, 8)] {
                let t = at(&mut rng, h, window.0, window.1);
                let count = 1 + (rng.next_u64() % 2) as u32;
                plan = plan.with_disk_fault(t, op, count);
            }
        }
        for window in [(1, 4), (5, 8)] {
            let t = at(&mut rng, h, window.0, window.1);
            plan = plan.with_migration_fault(t, 1 + (rng.next_u64() % 2) as u32);
        }
        let start = at(&mut rng, h, 2, 4);
        let end = start + Nanos::new(h / 6);
        plan = plan.with_tier_fault(TierId::FAST, TierFaultKind::Exhaust, start, Some(end));
        let off = at(&mut rng, h, 5, 6);
        let off_end = off + Nanos::new(h / 8);
        plan.with_tier_fault(TierId::FAST, TierFaultKind::Offline, off, Some(off_end))
    }
}

/// Runtime consumption state over a [`FaultPlan`]. Owned by the
/// [`crate::MemorySystem`] (next to the clock) while a plan is
/// installed; every query is answered from the plan plus the current
/// virtual time, so fault firing order is deterministic.
#[derive(Debug, Clone)]
pub struct FaultState {
    disk: Vec<DiskFault>,
    tiers: Vec<TierFault>,
    /// Whether each tier window already announced itself (one `fault`
    /// trace event per window, not one per rejected allocation).
    tier_announced: Vec<bool>,
    migrations: Vec<MigrationFault>,
    crash: Option<CrashPoint>,
}

impl FaultState {
    /// Builds consumption state; entries are sorted by arm time so
    /// faults fire in schedule order regardless of plan construction
    /// order.
    pub fn new(plan: FaultPlan) -> Self {
        let FaultPlan {
            mut disk,
            tiers,
            mut migrations,
            crash,
        } = plan;
        disk.sort_by_key(|f| f.at);
        migrations.sort_by_key(|f| f.at);
        let tier_announced = vec![false; tiers.len()];
        FaultState {
            disk,
            tiers,
            tier_announced,
            migrations,
            crash,
        }
    }

    /// Consumes one pending disk fault of class `op` armed at/before
    /// `now`. Returns whether the operation fails.
    pub fn take_disk(&mut self, op: DiskOp, now: Nanos) -> bool {
        for f in &mut self.disk {
            if f.at <= now && f.op == op && f.count > 0 {
                f.count -= 1;
                return true;
            }
        }
        false
    }

    /// The fault affecting `tier` at `now`, if any, plus whether this is
    /// the window's first application (for one-shot trace emission).
    pub fn tier_fault(&mut self, tier: TierId, now: Nanos) -> Option<(TierFaultKind, bool)> {
        for (i, w) in self.tiers.iter().enumerate() {
            let active = w.tier == tier && w.at <= now && w.until.is_none_or(|u| now < u);
            if active {
                let first = !self.tier_announced[i];
                self.tier_announced[i] = true;
                return Some((w.kind, first));
            }
        }
        None
    }

    /// Tiers with an active [`TierFaultKind::Offline`] window at `now`,
    /// in schedule order with duplicates removed. Read-only (does not
    /// mark windows announced); the drain path polls this each tick to
    /// discover tiers that need their resident frames migrated away.
    pub fn offline_tiers(&self, now: Nanos) -> Vec<TierId> {
        let mut out: Vec<TierId> = Vec::new();
        for w in &self.tiers {
            let active =
                w.kind == TierFaultKind::Offline && w.at <= now && w.until.is_none_or(|u| now < u);
            if active && !out.contains(&w.tier) {
                out.push(w.tier);
            }
        }
        out
    }

    /// Whether any tier fault window (exhaustion or offlining) is
    /// active at `now`. Read-only; QoS-aware reclaim and placement use
    /// this to decide when degradation ordering applies.
    pub fn tier_fault_active(&self, now: Nanos) -> bool {
        self.tiers
            .iter()
            .any(|w| w.at <= now && w.until.is_none_or(|u| now < u))
    }

    /// Consumes one pending migration fault armed at/before `now`.
    pub fn take_migration(&mut self, now: Nanos) -> bool {
        for f in &mut self.migrations {
            if f.at <= now && f.count > 0 {
                f.count -= 1;
                return true;
            }
        }
        false
    }

    /// Consumes a time-scheduled crash due at/before `now`.
    pub fn take_crash_at(&mut self, now: Nanos) -> bool {
        if let Some(CrashPoint::At(t)) = self.crash {
            if t <= now {
                self.crash = None;
                return true;
            }
        }
        false
    }

    /// Consumes a commit-scheduled crash targeting commit ordinal
    /// `index`, returning how many journal blocks survive (`0` =
    /// boundary crash, nothing of this commit is durable).
    pub fn take_crash_commit(&mut self, index: u64) -> Option<u32> {
        if let Some(CrashPoint::Commit {
            index: want,
            after_blocks,
        }) = self.crash
        {
            if want == index {
                self.crash = None;
                return Some(after_blocks);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let mut s = FaultState::new(FaultPlan::new());
        let t = Nanos::from_secs(1);
        assert!(!s.take_disk(DiskOp::Read, t));
        assert!(s.tier_fault(TierId::FAST, t).is_none());
        assert!(!s.take_migration(t));
        assert!(!s.take_crash_at(t));
        assert_eq!(s.take_crash_commit(0), None);
    }

    #[test]
    fn disk_faults_arm_at_time_and_drain_counts() {
        let plan = FaultPlan::new().with_disk_fault(Nanos::new(100), DiskOp::Write, 2);
        let mut s = FaultState::new(plan);
        assert!(!s.take_disk(DiskOp::Write, Nanos::new(99)), "not armed yet");
        assert!(!s.take_disk(DiskOp::Read, Nanos::new(200)), "wrong op");
        assert!(s.take_disk(DiskOp::Write, Nanos::new(100)));
        assert!(s.take_disk(DiskOp::Write, Nanos::new(101)));
        assert!(!s.take_disk(DiskOp::Write, Nanos::new(102)), "drained");
    }

    #[test]
    fn tier_windows_open_and_close() {
        let plan = FaultPlan::new().with_tier_fault(
            TierId::FAST,
            TierFaultKind::Exhaust,
            Nanos::new(10),
            Some(Nanos::new(20)),
        );
        let mut s = FaultState::new(plan);
        assert!(s.tier_fault(TierId::FAST, Nanos::new(9)).is_none());
        assert_eq!(
            s.tier_fault(TierId::FAST, Nanos::new(10)),
            Some((TierFaultKind::Exhaust, true)),
            "first application announces"
        );
        assert_eq!(
            s.tier_fault(TierId::FAST, Nanos::new(15)),
            Some((TierFaultKind::Exhaust, false))
        );
        assert!(s.tier_fault(TierId::SLOW, Nanos::new(15)).is_none());
        assert!(
            s.tier_fault(TierId::FAST, Nanos::new(20)).is_none(),
            "closed"
        );
    }

    #[test]
    fn offline_window_without_end_persists() {
        let plan = FaultPlan::new().with_tier_fault(
            TierId::SLOW,
            TierFaultKind::Offline,
            Nanos::ZERO,
            None,
        );
        let mut s = FaultState::new(plan);
        assert_eq!(
            s.tier_fault(TierId::SLOW, Nanos::from_secs(1000)),
            Some((TierFaultKind::Offline, true))
        );
    }

    #[test]
    fn offline_tiers_is_read_only_and_windowed() {
        let plan = FaultPlan::new()
            .with_tier_fault(
                TierId::FAST,
                TierFaultKind::Offline,
                Nanos::new(10),
                Some(Nanos::new(20)),
            )
            .with_tier_fault(TierId::SLOW, TierFaultKind::Exhaust, Nanos::ZERO, None);
        let mut s = FaultState::new(plan);
        assert!(s.offline_tiers(Nanos::new(5)).is_empty(), "not open yet");
        assert_eq!(s.offline_tiers(Nanos::new(10)), vec![TierId::FAST]);
        assert!(
            s.offline_tiers(Nanos::new(20)).is_empty(),
            "window closed (exhaust windows never drain)"
        );
        assert!(s.tier_fault_active(Nanos::new(5)), "exhaust window counts");
        // Read-only: polling must not consume the one-shot announce.
        assert_eq!(
            s.tier_fault(TierId::FAST, Nanos::new(12)),
            Some((TierFaultKind::Offline, true))
        );
    }

    #[test]
    fn crash_points_are_one_shot() {
        let mut s = FaultState::new(FaultPlan::new().with_crash(CrashPoint::At(Nanos::new(50))));
        assert!(!s.take_crash_at(Nanos::new(49)));
        assert!(s.take_crash_at(Nanos::new(50)));
        assert!(!s.take_crash_at(Nanos::new(51)), "consumed");

        let mut s = FaultState::new(FaultPlan::new().with_crash(CrashPoint::Commit {
            index: 3,
            after_blocks: 1,
        }));
        assert_eq!(s.take_crash_commit(2), None);
        assert_eq!(s.take_crash_commit(3), Some(1));
        assert_eq!(s.take_crash_commit(3), None, "consumed");
    }

    #[test]
    fn seeded_plans_are_deterministic_and_bounded() {
        let h = Nanos::from_millis(10);
        let a = FaultPlan::seeded(42, h);
        let b = FaultPlan::seeded(42, h);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::seeded(43, h));
        assert_eq!(a.disk.len(), 6, "two faults per disk-op class");
        assert_eq!(a.migrations.len(), 2);
        assert_eq!(a.tiers.len(), 2, "one exhaust + one offline window");
        assert_eq!(a.tiers[0].kind, TierFaultKind::Exhaust);
        assert_eq!(a.tiers[1].kind, TierFaultKind::Offline);
        assert!(a.crash.is_none(), "seeded plans never crash");
        for f in &a.disk {
            assert!(f.count >= 1 && f.count <= 2, "recoverable within retries");
            assert!(f.at < h);
        }
    }
}
