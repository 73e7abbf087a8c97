//! The tiered memory system.
//!
//! [`MemorySystem`] owns the tiers, the frame table, the virtual clock,
//! and the migration engine. Every allocation, access, and migration in
//! the simulation is charged here, which makes the reported virtual run
//! time of a workload a function of *where its pages live* — exactly the
//! quantity the paper's tiering policies compete on.

use crate::allocator::TierAllocator;
use crate::clock::{Clock, Nanos};
use crate::error::MemError;
use crate::fault::{DiskOp, FaultPlan, FaultState, TierFaultKind};
use crate::frame::{Frame, FrameId, PageKind};
use crate::frametable::FrameTable;
use crate::l4cache::L4Cache;
use crate::migrate::{MigrationCost, MigrationStats};
use crate::stats::MemStats;
use crate::tenant::TenantId;
use crate::tier::{TierId, TierSpec};

/// Interconnect latency added to cross-socket accesses in NUMA
/// topologies (QPI/UPI hop).
pub const REMOTE_ACCESS_PENALTY: Nanos = Nanos::new(60);

/// Retry budget per frame inside one drain pass; mirrors the blk-mq
/// layer's default `io_max_retries`.
const DRAIN_MAX_RETRIES: u32 = 5;

/// Counters for the tier-drain path: when a kfault `Offline` window
/// opens, [`MemorySystem::drain_offline`] live-migrates resident
/// relocatable frames off the tier instead of leaving them stranded on
/// a degraded device. All zeros unless a fault plan is installed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Frames successfully migrated off offlining tiers.
    pub drained: u64,
    /// Migration-fault retries absorbed (each charged a backoff).
    pub retries: u64,
    /// Frames abandoned after the per-frame retry budget ran out.
    pub failed: u64,
    /// Drain passes that did any work (moved a frame or retried).
    pub passes: u64,
}

/// One access in a batched run; see [`MemorySystem::access_batch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOp {
    /// Frame touched.
    pub frame: FrameId,
    /// Bytes moved.
    pub bytes: u64,
    /// Write (`true`) or read (`false`).
    pub write: bool,
}

impl AccessOp {
    /// A read of `bytes` from `frame`.
    pub fn read(frame: FrameId, bytes: u64) -> Self {
        AccessOp {
            frame,
            bytes,
            write: false,
        }
    }

    /// A write of `bytes` to `frame`.
    pub fn write(frame: FrameId, bytes: u64) -> Self {
        AccessOp {
            frame,
            bytes,
            write: true,
        }
    }
}

/// Direct-mapped memo of `TierSpec::{read,write}_cost`, keyed by the
/// full `(tier, write, bytes)`: both are pure functions of that key and
/// a tier's spec never changes after construction, so a hit returns the
/// exact cost without the bandwidth term's division. Each `(tier,
/// write)` pair owns [`SPEC_COST_SLOTS`] slots, so only byte counts
/// compete for a slot and a hit is a compare of `bytes`. Every slot
/// always holds a true `(bytes, cost)` pair: it starts at zero bytes.
#[derive(Debug)]
struct SpecCostMemo {
    slots: Vec<SpecCost>,
}

/// Slots per `(tier, write)` pair. The object and page sizes the
/// workloads access (40 B to 4 KiB, 18 distinct) each get their own.
const SPEC_COST_SLOTS: usize = 1 << SPEC_COST_BITS;
const SPEC_COST_BITS: u32 = 5;

#[derive(Debug, Clone, Copy)]
struct SpecCost {
    bytes: u64,
    cost: Nanos,
}

impl SpecCostMemo {
    fn new(tiers: &[TierAllocator]) -> Self {
        let mut slots = Vec::with_capacity(tiers.len() * 2 * SPEC_COST_SLOTS);
        for t in tiers {
            for cost in [t.spec().read_cost(0), t.spec().write_cost(0)] {
                slots.extend([SpecCost { bytes: 0, cost }; SPEC_COST_SLOTS]);
            }
        }
        SpecCostMemo { slots }
    }

    #[inline]
    fn cost(&mut self, spec: &TierSpec, tier_idx: usize, write: bool, bytes: u64) -> Nanos {
        // Fibonacci hashing: the product's top bits pick the slot,
        // spreading sizes that share their low bits.
        let h = (bytes.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SPEC_COST_BITS)) as usize;
        let slot = &mut self.slots[(tier_idx * 2 + usize::from(write)) * SPEC_COST_SLOTS + h];
        if slot.bytes != bytes {
            let cost = if write {
                spec.write_cost(bytes)
            } else {
                spec.read_cost(bytes)
            };
            *slot = SpecCost { bytes, cost };
        }
        slot.cost
    }
}

/// Inert compatibility item. The frame table once split its free list
/// into shards sized by this config; it now keeps one LIFO stack, so the
/// config carries nothing. It stays only so the `klocbench` replay, which
/// mirrors the engine's old setup call
/// `mem.set_shards(ShardConfig::with_shards(n))`, keeps compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig;

impl ShardConfig {
    /// Inert: ignores `shards` (see [`ShardConfig`]).
    pub fn with_shards(_shards: u32) -> Self {
        ShardConfig
    }
}

/// A complete tiered memory system: tiers + frames + clock + migration.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug)]
pub struct MemorySystem {
    tiers: Vec<TierAllocator>,
    /// NUMA socket each tier belongs to (0 for non-NUMA topologies).
    tier_socket: Vec<u8>,
    /// Optional hardware-managed DRAM cache in front of a tier
    /// (Optane Memory Mode).
    l4: Vec<Option<L4Cache>>,
    /// Per-tier contention multiplier (x1000; 1000 = no contention).
    contention_milli: Vec<u64>,
    /// Memo of the tier-spec term of [`MemorySystem::access_cost`] on
    /// tiers without an L4 cache.
    spec_costs: SpecCostMemo,
    frames: FrameTable,
    clock: Clock,
    stats: MemStats,
    migration_cost: MigrationCost,
    migration_stats: MigrationStats,
    drain_stats: DrainStats,
    /// Per-tenant count of kernel-kind frames resident on the fast tier
    /// (tier 0), dense by [`TenantId::index`] and grown on demand.
    /// Maintained incrementally at allocate/free/migrate/restamp so
    /// per-tenant budget checks are O(1) reads, exactly like the global
    /// `fast_budget_frames` check over [`MemStats`].
    tenant_fast_kernel: Vec<u64>,
    /// Number of workload threads whose CPU time overlaps. The virtual
    /// clock models the bottleneck-resource timeline: memory-bus time is
    /// shared (charged fully), while per-thread CPU work and I/O stalls
    /// overlap across threads (charged divided by this factor).
    cpu_parallelism: u64,
    /// Scheduled fault injection (kfault). `None` when no plan is
    /// installed: every hook tests this first, inline, and only a
    /// faulty run reaches the cold bodies. Boxed so a faultless system
    /// carries one pointer, not the plan's vectors.
    fault: Option<Box<FaultState>>,
}

impl MemorySystem {
    /// Builds a system from explicit tier specs. Tier ids are assigned in
    /// order; by convention faster tiers come first.
    ///
    /// # Panics
    /// Panics if `specs` is empty or has more than 255 entries.
    pub fn with_tiers(specs: Vec<TierSpec>) -> Self {
        assert!(!specs.is_empty(), "at least one tier is required");
        assert!(specs.len() <= 255, "at most 255 tiers supported");
        let tiers: Vec<TierAllocator> = specs
            .into_iter()
            .enumerate()
            .map(|(i, s)| TierAllocator::new(TierId(i as u8), s))
            .collect();
        let n = tiers.len();
        MemorySystem {
            tier_socket: vec![0; n],
            l4: (0..n).map(|_| None).collect(),
            contention_milli: vec![1000; n],
            spec_costs: SpecCostMemo::new(&tiers),
            stats: MemStats::new(n),
            tiers,
            frames: FrameTable::new(),
            clock: Clock::new(),
            migration_cost: MigrationCost::default(),
            migration_stats: MigrationStats::default(),
            drain_stats: DrainStats::default(),
            tenant_fast_kernel: Vec::new(),
            cpu_parallelism: 1,
            fault: None,
        }
    }

    /// The paper's two-tier platform: a fast DRAM tier of
    /// `fast_capacity` bytes over an unbounded slow tier whose bandwidth
    /// is `bw_ratio`x lower (§6.2, Table 4; Fig. 6 sweeps `bw_ratio`
    /// over {8, 4, 2}).
    pub fn two_tier(fast_capacity: u64, bw_ratio: u64) -> Self {
        let fast = TierSpec::fast_dram(fast_capacity);
        let slow = fast.slow_variant(bw_ratio);
        MemorySystem::with_tiers(vec![fast, slow])
    }

    /// Optane Memory Mode: two sockets, each an (effectively unbounded)
    /// PMEM tier fronted by an `l4_capacity`-byte hardware-managed DRAM
    /// cache. Tier 0 is socket 0, tier 1 is socket 1.
    pub fn optane_memory_mode(l4_capacity: u64) -> Self {
        let pmem = TierSpec::pmem(u64::MAX);
        let mut sys = MemorySystem::with_tiers(vec![pmem, pmem]);
        sys.tier_socket = vec![0, 1];
        let dram = TierSpec::fast_dram(u64::MAX);
        sys.l4[0] = Some(L4Cache::new(l4_capacity, dram, pmem));
        sys.l4[1] = Some(L4Cache::new(l4_capacity, dram, pmem));
        sys
    }

    /// A three-tier system: a small high-bandwidth tier (die-stacked /
    /// HBM-class, paper §2) over `dram_capacity` of conventional DRAM
    /// over an unbounded slow tier at a `bw_ratio` differential to DRAM.
    pub fn three_tier(hbm_capacity: u64, dram_capacity: u64, bw_ratio: u64) -> Self {
        let hbm = TierSpec::hbm(hbm_capacity);
        let dram = TierSpec::fast_dram(dram_capacity);
        let slow = dram.slow_variant(bw_ratio);
        MemorySystem::with_tiers(vec![hbm, dram, slow])
    }

    /// Conventional two-socket NUMA: two equal DRAM tiers on sockets 0/1.
    pub fn numa_two_socket(capacity_per_socket: u64) -> Self {
        let local = TierSpec::fast_dram(capacity_per_socket);
        let mut sys = MemorySystem::with_tiers(vec![local, local]);
        sys.tier_socket = vec![0, 1];
        sys
    }

    /// Number of tiers.
    pub fn tier_count(&self) -> usize {
        self.tiers.len()
    }

    /// Allocator (capacity view) of a tier.
    ///
    /// # Errors
    /// Returns [`MemError::BadTier`] for unknown tiers.
    pub fn tier_alloc(&self, tier: TierId) -> Result<&TierAllocator, MemError> {
        self.tiers.get(tier.index()).ok_or(MemError::BadTier(tier))
    }

    /// Hardware spec of a tier.
    ///
    /// # Panics
    /// Panics for unknown tiers.
    pub fn tier_spec(&self, tier: TierId) -> &TierSpec {
        self.tiers[tier.index()].spec()
    }

    /// NUMA socket of a tier.
    pub fn socket_of(&self, tier: TierId) -> u8 {
        self.tier_socket[tier.index()]
    }

    /// Sets a contention multiplier on a tier's access costs (1.0 = no
    /// contention). Used to model the streaming antagonist in the
    /// AutoNUMA experiment (§6.2). Factors below 1.0 (contention can
    /// only slow accesses down) are clamped to 1.0.
    pub fn set_contention(&mut self, tier: TierId, factor: f64) {
        self.contention_milli[tier.index()] = (factor.max(1.0) * 1000.0) as u64;
    }

    /// Sets the migration cost model (sequential vs Nimble-parallel).
    pub fn set_migration_cost(&mut self, cost: MigrationCost) {
        self.migration_cost = cost;
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.clock.now()
    }

    /// Sets how many workload threads overlap CPU work (see the field
    /// docs; 1 = fully serialized). Zero (meaningless: some thread is
    /// always running) is clamped to 1.
    pub fn set_cpu_parallelism(&mut self, threads: u64) {
        self.cpu_parallelism = threads.max(1);
    }

    /// Inert: the frame table keeps one free list, so there is nothing
    /// to shard. Kept so callers written against the sharded free lists
    /// (the `klocbench` replay) still compile; see [`ShardConfig`].
    pub fn set_shards(&mut self, _cfg: ShardConfig) {}

    /// Charges per-thread CPU or I/O-stall time (computation that touches
    /// no simulated memory: think time, syscall entry, disk waits). With
    /// `cpu_parallelism` threads this overlaps, so the shared clock
    /// advances by `dt / parallelism`.
    pub fn charge(&mut self, dt: Nanos) {
        let dt = dt / self.cpu_parallelism;
        self.clock.advance(dt);
        kloc_trace::charge(dt.as_nanos());
    }

    /// Substrate counters.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Migration counters.
    pub fn migration_stats(&self) -> &MigrationStats {
        &self.migration_stats
    }

    /// Tier-drain counters (all zeros unless a fault plan is installed).
    pub fn drain_stats(&self) -> &DrainStats {
        &self.drain_stats
    }

    /// L4 cache attached to `tier`, if any.
    pub fn l4_cache(&self, tier: TierId) -> Option<&L4Cache> {
        self.l4.get(tier.index()).and_then(|c| c.as_ref())
    }

    /// Installs a [`FaultPlan`] (kfault): subsequent allocations,
    /// migrations, disk I/O, and journal commits consult the plan
    /// against the virtual clock. An empty plan installs nothing, so the
    /// run stays on the fault-free path.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = (!plan.is_empty()).then(|| Box::new(FaultState::new(plan)));
    }

    /// Consumes one scheduled disk fault of class `op` due at the
    /// current virtual time, emitting a `fault` trace event. The
    /// kernel's blk-mq layer calls this per I/O submission and retries
    /// with backoff when it returns `true`.
    #[inline]
    pub fn fault_take_disk(&mut self, op: DiskOp) -> bool {
        self.fault.is_some() && self.take_disk_fault(op)
    }

    #[cold]
    #[inline(never)]
    fn take_disk_fault(&mut self, op: DiskOp) -> bool {
        let now = self.clock.now();
        let fired = self.fault.as_mut().is_some_and(|s| s.take_disk(op, now));
        if fired {
            kloc_trace::emit(|| kloc_trace::Event::Fault {
                t: now.as_nanos(),
                kind: "disk".to_string(),
                info: op.label().to_string(),
            });
        }
        fired
    }

    /// Consumes a time-scheduled crash due at the current virtual time.
    /// The kernel checks this at syscall entry and aborts the run with
    /// `KernelError::Crashed` when it fires.
    #[inline]
    pub fn fault_crash_due(&mut self) -> bool {
        self.fault.is_some() && self.take_crash_due()
    }

    #[cold]
    #[inline(never)]
    fn take_crash_due(&mut self) -> bool {
        let now = self.clock.now();
        let fired = self.fault.as_mut().is_some_and(|s| s.take_crash_at(now));
        if fired {
            kloc_trace::emit(|| kloc_trace::Event::Fault {
                t: now.as_nanos(),
                kind: "crash".to_string(),
                info: "time".to_string(),
            });
        }
        fired
    }

    /// Consumes a crash scheduled at journal commit ordinal `index`,
    /// returning how many of the commit's journal blocks become durable
    /// before the machine dies (`0` = crash at the commit boundary).
    pub fn fault_crash_at_commit(&mut self, index: u64) -> Option<u32> {
        let now = self.clock.now();
        let blocks = self.fault.as_mut()?.take_crash_commit(index)?;
        kloc_trace::emit(|| kloc_trace::Event::Fault {
            t: now.as_nanos(),
            kind: "crash".to_string(),
            info: format!("commit {index} after {blocks} blocks"),
        });
        Some(blocks)
    }

    /// Rejects placement on `tier` while a fault window covers it:
    /// `Exhaust` behaves as capacity pressure ([`MemError::TierFull`]),
    /// `Offline` as a lost device ([`MemError::TierOffline`]). Emits one
    /// `fault` trace event per window, on its first application.
    #[inline]
    fn fault_check_tier(&mut self, tier: TierId) -> Result<(), MemError> {
        if self.fault.is_none() {
            return Ok(());
        }
        self.tier_fault(tier)
    }

    #[cold]
    #[inline(never)]
    fn tier_fault(&mut self, tier: TierId) -> Result<(), MemError> {
        let now = self.clock.now();
        let Some(s) = self.fault.as_mut() else {
            return Ok(());
        };
        match s.tier_fault(tier, now) {
            None => Ok(()),
            Some((kind, first)) => {
                if first {
                    kloc_trace::emit(|| kloc_trace::Event::Fault {
                        t: now.as_nanos(),
                        kind: "tier".to_string(),
                        info: format!("{} {tier}", kind.label()),
                    });
                }
                Err(match kind {
                    TierFaultKind::Exhaust => MemError::TierFull(tier),
                    TierFaultKind::Offline => MemError::TierOffline(tier),
                })
            }
        }
    }

    /// Consumes one scheduled migration fault due at the current
    /// virtual time, counting it in [`MigrationStats::failed`].
    #[inline]
    fn fault_check_migrate(&mut self, frame: FrameId) -> Result<(), MemError> {
        if self.fault.is_none() {
            return Ok(());
        }
        self.migration_fault(frame)
    }

    #[cold]
    #[inline(never)]
    fn migration_fault(&mut self, frame: FrameId) -> Result<(), MemError> {
        let now = self.clock.now();
        if self.fault.as_mut().is_some_and(|s| s.take_migration(now)) {
            self.migration_stats.failed += 1;
            kloc_trace::emit(|| kloc_trace::Event::Fault {
                t: now.as_nanos(),
                kind: "migrate".to_string(),
                info: frame.to_string(),
            });
            return Err(MemError::MigrationFault(frame));
        }
        Ok(())
    }

    /// Allocates one frame of `kind` on `tier`.
    ///
    /// # Errors
    /// [`MemError::TierFull`] if the tier is at capacity (or under an
    /// injected exhaustion fault), [`MemError::TierOffline`] while an
    /// offlining fault covers the tier, [`MemError::BadTier`] for
    /// unknown tiers.
    pub fn allocate(&mut self, tier: TierId, kind: PageKind) -> Result<FrameId, MemError> {
        if tier.index() >= self.tiers.len() {
            return Err(MemError::BadTier(tier));
        }
        if let Err(e) = self.fault_check_tier(tier) {
            self.stats.tiers[tier.index()].alloc_failures += 1;
            return Err(e);
        }
        let alloc = &mut self.tiers[tier.index()];
        match alloc.reserve() {
            Ok(()) => {}
            Err(e) => {
                self.stats.tiers[tier.index()].alloc_failures += 1;
                return Err(e);
            }
        }
        let id = self.frames.next_id();
        let frame = Frame::new(id, tier, kind, self.clock.now());
        self.frames.insert(frame);
        self.stats.tiers[tier.index()].on_alloc(kind);
        if kind.is_kernel() && tier.index() == 0 {
            // Born owned by the default tenant; restamped via
            // `set_frame_tenant` when the kernel attributes it.
            self.fast_kernel_inc(TenantId::DEFAULT);
        }
        Ok(id)
    }

    /// Allocates on the first tier in `preference` with room.
    ///
    /// # Errors
    /// [`MemError::TierOffline`] if every listed tier failed and at
    /// least one was offlined by a fault window (the degradation cause
    /// outranks plain capacity pressure for diagnostics), otherwise
    /// [`MemError::OutOfMemory`].
    pub fn allocate_preferring(
        &mut self,
        preference: &[TierId],
        kind: PageKind,
    ) -> Result<FrameId, MemError> {
        let mut offline: Option<MemError> = None;
        for &tier in preference {
            match self.allocate(tier, kind) {
                Ok(id) => return Ok(id),
                // Divert to the next preference both on capacity pressure
                // and when a fault window has the tier offline.
                Err(MemError::TierFull(_)) => continue,
                Err(e @ MemError::TierOffline(_)) => {
                    offline.get_or_insert(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(offline.unwrap_or(MemError::OutOfMemory))
    }

    /// Frees a frame, recording its lifetime (paper Fig. 2d).
    ///
    /// # Errors
    /// [`MemError::BadFrame`] if the frame is not allocated.
    pub fn free(&mut self, frame: FrameId) -> Result<(), MemError> {
        let tenant = self.frames.tenant_of_live(frame);
        let f = self.frames.remove(frame).ok_or(MemError::BadFrame(frame))?;
        if f.kind.is_kernel() && f.tier.index() == 0 {
            self.fast_kernel_dec(tenant.unwrap_or_default());
        }
        self.tiers[f.tier.index()].release();
        self.stats.tiers[f.tier.index()].on_free(f.kind);
        let lifetime = self.clock.now().saturating_sub(f.allocated_at);
        self.stats.lifetimes.get_or_default(f.kind).record(lifetime);
        if let Some(l4) = self.l4[f.tier.index()].as_mut() {
            l4.invalidate(frame);
        }
        Ok(())
    }

    /// Looks up a frame record.
    ///
    /// # Errors
    /// [`MemError::BadFrame`] if the frame is not allocated.
    pub fn frame(&self, frame: FrameId) -> Result<Frame, MemError> {
        self.frames.get(frame).ok_or(MemError::BadFrame(frame))
    }

    /// Tier a frame currently resides on.
    ///
    /// # Panics
    /// Panics if the frame is not allocated.
    pub fn tier_of(&self, frame: FrameId) -> TierId {
        self.frames
            .get(frame)
            .unwrap_or_else(|| panic!("{frame} is not allocated"))
            .tier
    }

    /// Looks up the policy-relevant subset of a frame record without
    /// materializing a full [`Frame`]; `None` for freed frames. One
    /// probe replaces the `is_live` + `tier_of`/`frame` double lookup
    /// on policy candidate walks.
    #[inline]
    pub fn frame_meta(&self, frame: FrameId) -> Option<crate::frametable::FrameMeta> {
        self.frames.meta(frame)
    }

    /// Tier a frame resides on, or `None` if it has been freed — the
    /// single-probe form of `is_live` + `tier_of`.
    #[inline]
    pub fn tier_if_live(&self, frame: FrameId) -> Option<TierId> {
        self.frames.tier_of_live(frame)
    }

    /// Watches a live frame under `tag`: its next access or migration
    /// appends `(frame, tag)` to the wake log ([`MemorySystem::drain_wakes`])
    /// and clears the watch. A watch of either kind replaces the other.
    /// Returns `false` for stale ids.
    pub fn watch(&mut self, frame: FrameId, tag: u32) -> bool {
        self.frames.watch(frame, tag)
    }

    /// Watches a live frame under `tag` for its next migration only:
    /// accesses do not wake it. A watch of either kind replaces the
    /// other. Returns `false` for stale ids.
    pub fn watch_migrations(&mut self, frame: FrameId, tag: u32) -> bool {
        self.frames.watch_migrations(frame, tag)
    }

    /// The tag a live frame is watched under by
    /// [`MemorySystem::watch`]; `None` for stale frames and frames not so
    /// watched.
    pub fn watch_tag(&self, frame: FrameId) -> Option<u32> {
        self.frames.watch_tag(frame)
    }

    /// The tag a live frame is watched under by
    /// [`MemorySystem::watch_migrations`]; `None` for stale frames and
    /// frames not so watched.
    pub fn migration_watch_tag(&self, frame: FrameId) -> Option<u32> {
        self.frames.migration_watch_tag(frame)
    }

    /// Empties the wake log, yielding `(frame, tag)` in wake order.
    pub fn drain_wakes(&mut self) -> std::vec::Drain<'_, (FrameId, u32)> {
        self.frames.drain_wakes()
    }

    /// Tenant a frame is attributed to, or `None` if it has been freed.
    #[inline]
    pub fn frame_tenant(&self, frame: FrameId) -> Option<TenantId> {
        self.frames.tenant_of_live(frame)
    }

    /// Restamps a frame's owning tenant, keeping the per-tenant
    /// fast-kernel residency counters square. The kernel calls this
    /// right after allocating a frame on behalf of a specific tenant
    /// (frames are born owned by [`TenantId::DEFAULT`]).
    ///
    /// # Errors
    /// [`MemError::BadFrame`] if the frame is not allocated.
    pub fn set_frame_tenant(&mut self, frame: FrameId, tenant: TenantId) -> Result<(), MemError> {
        let meta = self.frames.meta(frame).ok_or(MemError::BadFrame(frame))?;
        let old = self
            .frames
            .set_tenant(frame, tenant)
            .ok_or(MemError::BadFrame(frame))?;
        if old != tenant && meta.kind.is_kernel() && meta.tier.index() == 0 {
            self.fast_kernel_dec(old);
            self.fast_kernel_inc(tenant);
        }
        Ok(())
    }

    /// Number of kernel-kind frames `tenant` currently holds on the
    /// fast tier — the quantity per-tenant budget checks compare
    /// against a tenant's `fast_budget_frames`. O(1).
    pub fn tenant_fast_kernel(&self, tenant: TenantId) -> u64 {
        self.tenant_fast_kernel
            .get(tenant.index())
            .copied()
            .unwrap_or(0)
    }

    #[inline]
    fn fast_kernel_inc(&mut self, tenant: TenantId) {
        let i = tenant.index();
        if self.tenant_fast_kernel.len() <= i {
            self.tenant_fast_kernel.resize(i + 1, 0);
        }
        self.tenant_fast_kernel[i] += 1;
    }

    #[inline]
    fn fast_kernel_dec(&mut self, tenant: TenantId) {
        let i = tenant.index();
        debug_assert!(
            self.tenant_fast_kernel.get(i).is_some_and(|n| *n > 0),
            "fast-kernel counter underflow for {tenant}"
        );
        if let Some(n) = self.tenant_fast_kernel.get_mut(i) {
            *n = n.saturating_sub(1);
        }
    }

    /// Whether the frame is still allocated.
    pub fn is_live(&self, frame: FrameId) -> bool {
        self.frames.contains(frame)
    }

    /// Number of live frames.
    pub fn live_frames(&self) -> usize {
        self.frames.len()
    }

    /// Mean age (now - allocation time) of live frames of `kind`.
    /// Complements the freed-frame lifetime statistics for long-lived
    /// allocations (application pages) that outlive the measurement.
    pub fn mean_live_age(&self, kind: PageKind) -> Nanos {
        let now = self.clock.now();
        let (mut total, mut n) = (Nanos::ZERO, 0u64);
        for f in self.frames.iter() {
            if f.kind == kind {
                total += now.saturating_sub(f.allocated_at);
                n += 1;
            }
        }
        if n == 0 {
            Nanos::ZERO
        } else {
            total / n
        }
    }

    /// Reads `bytes` from a frame; advances the clock and returns the cost.
    pub fn read(&mut self, frame: FrameId, bytes: u64) -> Nanos {
        self.access(frame, bytes, false, None)
    }

    /// Writes `bytes` to a frame; advances the clock and returns the cost.
    pub fn write(&mut self, frame: FrameId, bytes: u64) -> Nanos {
        self.access(frame, bytes, true, None)
    }

    /// Like [`MemorySystem::read`] but performed by a CPU on `socket`,
    /// charging the interconnect penalty when the frame is remote.
    pub fn read_from(&mut self, socket: u8, frame: FrameId, bytes: u64) -> Nanos {
        self.access(frame, bytes, false, Some(socket))
    }

    /// Like [`MemorySystem::write`] but performed by a CPU on `socket`.
    pub fn write_from(&mut self, socket: u8, frame: FrameId, bytes: u64) -> Nanos {
        self.access(frame, bytes, true, Some(socket))
    }

    fn access(
        &mut self,
        frame: FrameId,
        bytes: u64,
        write: bool,
        from_socket: Option<u8>,
    ) -> Nanos {
        let now = self.clock.now();
        let Some((tier, kind)) = self.frames.touch(frame, now) else {
            // Accessing a freed frame is a simulation bug; make it loud in
            // debug builds but charge nothing in release.
            debug_assert!(false, "access to freed {frame}");
            return Nanos::ZERO;
        };
        let tier_idx = tier.index();
        let cost = self.access_cost(frame, bytes, write, from_socket, tier_idx, kind);
        self.record_access(tier_idx, kind, bytes, write);
        self.clock.advance(cost);
        kloc_trace::charge(cost.as_nanos());
        cost
    }

    /// Charges a run of accesses with one clock advance and one trace
    /// charge at the end, instead of one of each per page. Each op's
    /// `last_access` stamp is taken at *batch start + cost of the
    /// preceding ops* — the instant the op would start if issued one at
    /// a time — and its cost runs through the same pipeline as
    /// [`MemorySystem::read`]/[`MemorySystem::write`], so the clock,
    /// every statistic, every frame column, and the trace-attributed
    /// nanoseconds land identical to the unbatched sequence (the clock
    /// advance and the trace charge are both additive).
    ///
    /// On tiers without an L4 cache the per-op cost is a pure function
    /// of (tier, kind, bytes, write), so a run with a common profile
    /// pays one cost computation for the whole group. With an L4 the
    /// cache is stateful per frame and every op is priced individually.
    pub fn access_batch(&mut self, from_socket: Option<u8>, ops: &[AccessOp]) -> Nanos {
        let base = self.clock.now();
        let mut total = Nanos::ZERO;
        // Memoized cost of the current (tier, kind, bytes, write) group.
        let mut group: Option<(usize, PageKind, u64, bool, Nanos)> = None;
        for op in ops {
            let Some((tier, kind)) = self.frames.touch(op.frame, base + total) else {
                debug_assert!(false, "access to freed {}", op.frame);
                continue;
            };
            let tier_idx = tier.index();
            let cost = match group {
                Some((t, k, b, w, c))
                    if t == tier_idx && k == kind && b == op.bytes && w == op.write =>
                {
                    c
                }
                _ => {
                    let c =
                        self.access_cost(op.frame, op.bytes, op.write, from_socket, tier_idx, kind);
                    group = if self.l4[tier_idx].is_some() {
                        // The L4 is stateful per frame: never reuse.
                        None
                    } else {
                        Some((tier_idx, kind, op.bytes, op.write, c))
                    };
                    c
                }
            };
            self.record_access(tier_idx, kind, op.bytes, op.write);
            total += cost;
        }
        self.clock.advance(total);
        kloc_trace::charge(total.as_nanos());
        total
    }

    /// Virtual cost of one access with the frame already resolved to
    /// (`tier_idx`, `kind`): L4 or tier spec, THP discount, cross-socket
    /// penalty, contention multiplier, in that order.
    fn access_cost(
        &mut self,
        frame: FrameId,
        bytes: u64,
        write: bool,
        from_socket: Option<u8>,
        tier_idx: usize,
        kind: PageKind,
    ) -> Nanos {
        let mut cost = if let Some(l4) = self.l4[tier_idx].as_mut() {
            l4.access(frame, bytes, write)
        } else {
            let spec = self.tiers[tier_idx].spec();
            self.spec_costs.cost(spec, tier_idx, write, bytes)
        };

        // Transparent huge pages: larger TLB reach shaves part of the
        // per-access latency (paper §5's multi-page-size support).
        if kind == PageKind::AppHuge {
            let spec = self.tiers[tier_idx].spec();
            let discount = if write {
                spec.write_latency / 4
            } else {
                spec.read_latency / 4
            };
            cost = cost.saturating_sub(discount);
        }

        // Cross-socket penalty.
        if let Some(socket) = from_socket {
            if socket != self.tier_socket[tier_idx] {
                cost += REMOTE_ACCESS_PENALTY;
            }
        }

        // Contention multiplier.
        let milli = self.contention_milli[tier_idx];
        if milli != 1000 {
            cost = Nanos::new(cost.as_nanos() * milli / 1000);
        }
        cost
    }

    #[inline]
    fn record_access(&mut self, tier_idx: usize, kind: PageKind, bytes: u64, write: bool) {
        let ts = &mut self.stats.tiers[tier_idx];
        if write {
            ts.writes += 1;
            ts.bytes_written += bytes;
        } else {
            ts.reads += 1;
            ts.bytes_read += bytes;
        }
        self.stats.total_accesses += 1;
        if kind.is_kernel() {
            self.stats.kernel_accesses += 1;
        }
    }

    /// Migrates a frame to `to`, charging the migration cost model.
    ///
    /// # Errors
    /// * [`MemError::BadFrame`] — frame not allocated.
    /// * [`MemError::BadTier`] — unknown destination.
    /// * [`MemError::Pinned`] — the frame is not relocatable (slab page).
    /// * [`MemError::AlreadyResident`] — already on `to`.
    /// * [`MemError::TierFull`] — no room on `to` (including injected
    ///   exhaustion faults).
    /// * [`MemError::TierOffline`] — a fault window has `to` offline.
    /// * [`MemError::MigrationFault`] — an injected mid-copy failure;
    ///   the frame stays on its source tier.
    pub fn migrate(&mut self, frame: FrameId, to: TierId) -> Result<Nanos, MemError> {
        if to.index() >= self.tiers.len() {
            return Err(MemError::BadTier(to));
        }
        let (from, kind, pinned) = {
            let f = self.frames.get(frame).ok_or(MemError::BadFrame(frame))?;
            (f.tier, f.kind, f.pinned)
        };
        if pinned {
            return Err(MemError::Pinned(frame));
        }
        if from == to {
            return Err(MemError::AlreadyResident(frame, to));
        }
        self.fault_check_tier(to)?;
        self.fault_check_migrate(frame)?;
        self.tiers[to.index()].reserve()?;
        self.tiers[from.index()].release();

        let (mut cost, mut foreground) = {
            let src = self.tiers[from.index()].spec();
            let dst = self.tiers[to.index()].spec();
            (
                self.migration_cost.page_cost(src, dst),
                self.migration_cost
                    .foreground_cost(src, dst, self.cpu_parallelism),
            )
        };
        // A huge page moves more data per migration decision (scaled 4x
        // here; 512x in real 2 MB pages before scale compression).
        if kind == PageKind::AppHuge {
            cost = cost * 4;
            foreground = foreground * 4;
        }
        self.stats.tiers[from.index()].on_depart(kind);
        self.stats.tiers[to.index()].on_arrive(kind);
        if let Some(l4) = self.l4[from.index()].as_mut() {
            l4.invalidate(frame);
        }
        let moved = self.frames.record_migration(frame, to);
        debug_assert!(moved, "caller checked the frame exists");
        if kind.is_kernel() {
            // `from != to` was rejected above, so at most one arm fires.
            let tenant = self.frames.tenant_of_live(frame).unwrap_or_default();
            if from.index() == 0 {
                self.fast_kernel_dec(tenant);
            }
            if to.index() == 0 {
                self.fast_kernel_inc(tenant);
            }
        }
        self.migration_stats.record(kind, from, to, cost);
        // Migration's foreground stall is itself the charge; the
        // kloc_trace::charge below keeps the audit ledger square.
        // lint: charge-ok
        self.clock.advance(foreground);
        kloc_trace::charge(foreground.as_nanos());
        kloc_trace::emit(|| kloc_trace::Event::Migrate {
            t: self.clock.now().as_nanos(),
            frame: frame.0,
            from: u64::from(from.0),
            to: u64::from(to.0),
            kind: kind.to_string(),
            cost: cost.as_nanos(),
        });
        Ok(cost)
    }

    /// Whether any tier fault window (`Exhaust` or `Offline`) is open
    /// at the current virtual time. The kernel and policy consult this
    /// to switch reclaim and placement into QoS-ordered degraded mode
    /// (DESIGN.md §13); read-only, never consumes fault state.
    pub fn tier_fault_active(&self) -> bool {
        self.fault
            .as_ref()
            .is_some_and(|s| s.tier_fault_active(self.clock.now()))
    }

    /// Live-migrates resident frames off tiers covered by an active
    /// `Offline` fault window — the graceful-degradation path that
    /// turns a lost device into bounded migration traffic instead of
    /// stranding its frames behind [`MemError::TierOffline`] for the
    /// rest of the window (DESIGN.md §13).
    ///
    /// At most `budget_frames` frames move per call (clamped to at
    /// least 1, the usual panic→clamp convention); victims are taken
    /// in frame-table slot order so the pass is deterministic.
    /// Injected migration faults are retried with exponential backoff
    /// starting at `backoff_base` (clamped to at least 1 ns) and
    /// capped at `backoff_cap` (clamped to at least the base), each
    /// wait charged through [`MemorySystem::charge`], for up to
    /// `DRAIN_MAX_RETRIES` attempts per frame. The destination is the
    /// highest-index tier not itself offline; capacity pressure there
    /// ends the tier's pass early. Pinned frames (slab pages) are not
    /// relocatable and are skipped — resident accesses never consult
    /// the fault plan, so they stay readable in place.
    ///
    /// Returns the number of frames moved and emits one `drain` trace
    /// event per tier that did any work (moved a frame or absorbed a
    /// retry), so a faultless run's trace stays byte-identical.
    #[inline]
    pub fn drain_offline(
        &mut self,
        budget_frames: u64,
        backoff_base: Nanos,
        backoff_cap: Nanos,
    ) -> u64 {
        if self.fault.is_none() {
            return 0;
        }
        self.drain_offline_tiers(budget_frames, backoff_base, backoff_cap)
    }

    #[cold]
    #[inline(never)]
    fn drain_offline_tiers(
        &mut self,
        budget_frames: u64,
        backoff_base: Nanos,
        backoff_cap: Nanos,
    ) -> u64 {
        let mut budget = budget_frames.max(1);
        let base = Nanos::new(backoff_base.as_nanos().max(1));
        let cap = Nanos::new(backoff_cap.as_nanos().max(base.as_nanos()));
        let offline = match &self.fault {
            Some(s) => s.offline_tiers(self.clock.now()),
            None => return 0,
        };
        if offline.is_empty() {
            return 0;
        }
        let mut total_moved = 0u64;
        let mut total_retries = 0u64;
        for &tier in &offline {
            if budget == 0 {
                break;
            }
            // Highest-index healthy tier hosts the refugees (the slow
            // tier in the standard topology).
            let Some(dest) = (0..self.tiers.len())
                .rev()
                .map(|i| TierId(i as u8))
                .find(|t| !offline.contains(t))
            else {
                // Every tier is offline: nowhere to drain to.
                continue;
            };
            let started = self.clock.now();
            let victims: Vec<FrameId> = self
                .frames
                .iter()
                .filter(|f| f.tier == tier && !f.pinned)
                .map(|f| f.id())
                .take(usize::try_from(budget).unwrap_or(usize::MAX))
                .collect();
            let mut moved = 0u64;
            let mut retries = 0u64;
            'frames: for frame in victims {
                let mut attempt: u32 = 0;
                loop {
                    match self.migrate(frame, dest) {
                        Ok(_) => {
                            moved += 1;
                            budget -= 1;
                            break;
                        }
                        Err(MemError::MigrationFault(_)) if attempt + 1 < DRAIN_MAX_RETRIES => {
                            attempt += 1;
                            retries += 1;
                            let backoff = Nanos::new(
                                base.as_nanos()
                                    .saturating_mul(1 << (attempt - 1).min(32))
                                    .min(cap.as_nanos()),
                            );
                            self.charge(backoff);
                        }
                        Err(MemError::MigrationFault(_)) => {
                            self.drain_stats.failed += 1;
                            break;
                        }
                        // Destination full or itself faulted: this
                        // tier's pass cannot make progress.
                        Err(MemError::TierFull(_) | MemError::TierOffline(_)) => break 'frames,
                        // Pinned/freed races cannot occur within one
                        // pass; skip rather than wedge the drain.
                        Err(_) => break,
                    }
                }
            }
            if moved + retries > 0 {
                let left = self
                    .frames
                    .iter()
                    .filter(|f| f.tier == tier && !f.pinned)
                    .count() as u64;
                let cost = self.clock.now().saturating_sub(started);
                kloc_trace::emit(|| kloc_trace::Event::Drain {
                    t: self.clock.now().as_nanos(),
                    tier: u64::from(tier.0),
                    moved,
                    left,
                    retries,
                    cost: cost.as_nanos(),
                });
            }
            total_moved += moved;
            total_retries += retries;
        }
        self.drain_stats.drained += total_moved;
        self.drain_stats.retries += total_retries;
        if total_moved + total_retries > 0 {
            self.drain_stats.passes += 1;
        }
        total_moved
    }
}

impl MemorySystem {
    /// Audits the whole memory substrate: the frame table's internal
    /// invariants, and per-tier agreement between the capacity
    /// accounting and the frames actually resident on each tier (the
    /// structured form of the `release without reserve` debug assertion
    /// and the freed-frame access check). Observation only.
    pub fn ksan_audit(&self, out: &mut Vec<crate::ksan::Violation>) {
        use crate::ksan::Violation;
        self.frames.ksan_audit(out);
        let mut resident = vec![0u64; self.tiers.len()];
        for f in self.frames.iter() {
            match resident.get_mut(f.tier.index()) {
                Some(n) => *n += 1,
                None => out.push(Violation::new(
                    "FrameTable <-> MemorySystem.tiers",
                    format!("frame {}", f.id()),
                    "every live frame resides on a known tier",
                    format!("tier < {}", self.tiers.len()),
                    format!("{}", f.tier),
                )),
            }
        }
        for (i, alloc) in self.tiers.iter().enumerate() {
            if alloc.used_frames() != resident[i] {
                out.push(Violation::new(
                    "TierAllocator.used_frames <-> FrameTable",
                    format!("{}", alloc.id()),
                    "tier accounting equals the frames resident on the tier",
                    format!("{} resident frames", resident[i]),
                    format!("used_frames = {}", alloc.used_frames()),
                ));
            }
            if alloc.used_frames() > alloc.frame_capacity() {
                out.push(Violation::new(
                    "TierAllocator.used_frames <-> TierSpec.capacity",
                    format!("{}", alloc.id()),
                    "a tier never exceeds its capacity",
                    format!("<= {} frames", alloc.frame_capacity()),
                    format!("used_frames = {}", alloc.used_frames()),
                ));
            }
        }
        // Per-tenant fast-kernel residency: the incremental counters
        // must agree with a recount over the live frames.
        let mut by_tenant = vec![0u64; self.tenant_fast_kernel.len()];
        for f in self.frames.iter() {
            if !f.kind.is_kernel() || f.tier.index() != 0 {
                continue;
            }
            let t = self.frames.tenant_of_live(f.id()).unwrap_or_default();
            if by_tenant.len() <= t.index() {
                by_tenant.resize(t.index() + 1, 0);
            }
            by_tenant[t.index()] += 1;
        }
        for (i, &counted) in by_tenant.iter().enumerate() {
            let stored = self.tenant_fast_kernel.get(i).copied().unwrap_or(0);
            if stored != counted {
                out.push(Violation::new(
                    "MemorySystem.tenant_fast_kernel <-> FrameTable",
                    format!("tenant{i}"),
                    "per-tenant fast-kernel counter equals the resident recount",
                    format!("{counted} resident kernel frames on tier 0"),
                    format!("counter = {stored}"),
                ));
            }
        }
    }

    /// Corruption hook for sanitizer self-tests: desyncs tier 0's
    /// capacity accounting from the frame table.
    #[doc(hidden)]
    pub fn ksan_break_tier_accounting(&mut self) {
        self.tiers[0].ksan_break_accounting();
    }

    /// Corruption hook for sanitizer self-tests: skews the frame table's
    /// live counter.
    #[doc(hidden)]
    pub fn ksan_break_frame_live_count(&mut self) {
        self.frames.ksan_break_live_count();
    }

    /// Corruption hook for sanitizer self-tests: duplicates the frame
    /// table's top free-list entry.
    #[doc(hidden)]
    pub fn ksan_break_free_duplicate(&mut self) {
        self.frames.ksan_break_free_duplicate();
    }

    /// Corruption hook for sanitizer self-tests: drops the frame table's
    /// top free-list entry without fixing the accounting.
    #[doc(hidden)]
    pub fn ksan_break_free_accounting(&mut self) {
        self.frames.ksan_break_free_accounting();
    }

    /// Corruption hook for sanitizer self-tests: grows one frame-table
    /// SoA column out of step with the others.
    #[doc(hidden)]
    pub fn ksan_break_soa_column(&mut self) {
        self.frames.ksan_break_soa_column();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MemorySystem {
        // 4 frames of fast memory over unbounded slow memory, 1:8.
        MemorySystem::two_tier(4 * crate::frame::PAGE_SIZE, 8)
    }

    #[test]
    fn allocate_spills_nothing_by_itself() {
        let mut m = small();
        for _ in 0..4 {
            m.allocate(TierId::FAST, PageKind::AppData).unwrap();
        }
        assert_eq!(
            m.allocate(TierId::FAST, PageKind::AppData),
            Err(MemError::TierFull(TierId::FAST))
        );
        assert_eq!(m.stats().tier(TierId::FAST).alloc_failures, 1);
    }

    #[test]
    fn allocate_preferring_falls_through() {
        let mut m = small();
        for _ in 0..4 {
            m.allocate(TierId::FAST, PageKind::AppData).unwrap();
        }
        let id = m
            .allocate_preferring(&[TierId::FAST, TierId::SLOW], PageKind::AppData)
            .unwrap();
        assert_eq!(m.tier_of(id), TierId::SLOW);
    }

    #[test]
    fn read_costs_more_on_slow_tier() {
        let mut m = small();
        let fast = m.allocate(TierId::FAST, PageKind::AppData).unwrap();
        let slow = m.allocate(TierId::SLOW, PageKind::AppData).unwrap();
        let cf = m.read(fast, 4096);
        let cs = m.read(slow, 4096);
        assert!(cs > cf * 4, "slow tier at 1:8 should be much slower");
    }

    #[test]
    fn clock_advances_on_access() {
        let mut m = small();
        let f = m.allocate(TierId::FAST, PageKind::AppData).unwrap();
        let before = m.now();
        let cost = m.read(f, 64);
        assert_eq!(m.now(), before + cost);
    }

    #[test]
    fn migrate_moves_frame_and_counts() {
        let mut m = small();
        let f = m.allocate(TierId::FAST, PageKind::PageCache).unwrap();
        let cost = m.migrate(f, TierId::SLOW).unwrap();
        assert!(cost > Nanos::ZERO);
        assert_eq!(m.tier_of(f), TierId::SLOW);
        assert_eq!(m.migration_stats().demotions, 1);
        assert_eq!(m.frame(f).unwrap().migrations(), 1);
        // Round trip promotes.
        m.migrate(f, TierId::FAST).unwrap();
        assert_eq!(m.migration_stats().promotions, 1);
    }

    #[test]
    fn slab_pages_cannot_migrate() {
        let mut m = small();
        let f = m.allocate(TierId::FAST, PageKind::Slab).unwrap();
        assert_eq!(m.migrate(f, TierId::SLOW), Err(MemError::Pinned(f)));
    }

    #[test]
    fn migrate_to_same_tier_rejected() {
        let mut m = small();
        let f = m.allocate(TierId::FAST, PageKind::AppData).unwrap();
        assert_eq!(
            m.migrate(f, TierId::FAST),
            Err(MemError::AlreadyResident(f, TierId::FAST))
        );
    }

    #[test]
    fn free_records_lifetime() {
        let mut m = small();
        let f = m.allocate(TierId::FAST, PageKind::Slab).unwrap();
        m.charge(Nanos::from_millis(36));
        m.free(f).unwrap();
        assert_eq!(
            m.stats().mean_lifetime(PageKind::Slab),
            Nanos::from_millis(36)
        );
        assert!(!m.is_live(f));
        assert_eq!(m.free(f), Err(MemError::BadFrame(f)));
    }

    #[test]
    fn free_releases_capacity() {
        let mut m = small();
        let ids: Vec<_> = (0..4)
            .map(|_| m.allocate(TierId::FAST, PageKind::AppData).unwrap())
            .collect();
        m.free(ids[0]).unwrap();
        assert!(m.allocate(TierId::FAST, PageKind::AppData).is_ok());
    }

    #[test]
    fn kernel_access_fraction_counts_kinds() {
        let mut m = small();
        let app = m.allocate(TierId::FAST, PageKind::AppData).unwrap();
        let pc = m.allocate(TierId::FAST, PageKind::PageCache).unwrap();
        m.read(app, 64);
        m.read(pc, 64);
        m.write(pc, 64);
        assert!((m.stats().kernel_access_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn remote_access_pays_penalty() {
        let mut m = MemorySystem::numa_two_socket(1 << 20);
        let f = m.allocate(TierId(0), PageKind::AppData).unwrap();
        let local = m.read_from(0, f, 64);
        let remote = m.read_from(1, f, 64);
        assert_eq!(remote, local + REMOTE_ACCESS_PENALTY);
    }

    #[test]
    fn contention_inflates_cost() {
        let mut m = small();
        let f = m.allocate(TierId::FAST, PageKind::AppData).unwrap();
        let base = m.read(f, 4096);
        m.set_contention(TierId::FAST, 2.0);
        let contended = m.read(f, 4096);
        assert_eq!(contended.as_nanos(), base.as_nanos() * 2);
    }

    #[test]
    fn three_tier_orders_by_speed() {
        let mut m = MemorySystem::three_tier(4 * crate::frame::PAGE_SIZE, 1 << 20, 8);
        assert_eq!(m.tier_count(), 3);
        let f0 = m.allocate(TierId(0), PageKind::AppData).unwrap();
        let f1 = m.allocate(TierId(1), PageKind::AppData).unwrap();
        let f2 = m.allocate(TierId(2), PageKind::AppData).unwrap();
        let c0 = m.read(f0, 4096);
        let c1 = m.read(f1, 4096);
        let c2 = m.read(f2, 4096);
        assert!(c0 < c1 && c1 < c2, "hbm < dram < slow: {c0} {c1} {c2}");
        // Waterfall demotion across all three tiers.
        m.migrate(f0, TierId(1)).unwrap();
        m.migrate(f0, TierId(2)).unwrap();
        assert_eq!(m.migration_stats().demotions, 2);
    }

    #[test]
    fn optane_mode_has_l4_caches() {
        let mut m = MemorySystem::optane_memory_mode(16 * crate::frame::PAGE_SIZE);
        let f = m.allocate(TierId(0), PageKind::AppData).unwrap();
        let miss = m.read(f, 64);
        let hit = m.read(f, 64);
        assert!(miss > hit);
        assert_eq!(m.l4_cache(TierId(0)).unwrap().hits(), 1);
        assert_eq!(m.socket_of(TierId(1)), 1);
    }

    #[test]
    fn tier_exhaust_fault_diverts_to_slow() {
        use crate::fault::TierFaultKind;
        let mut m = small();
        m.set_fault_plan(FaultPlan::new().with_tier_fault(
            TierId::FAST,
            TierFaultKind::Exhaust,
            Nanos::ZERO,
            None,
        ));
        assert_eq!(
            m.allocate(TierId::FAST, PageKind::AppData),
            Err(MemError::TierFull(TierId::FAST))
        );
        assert_eq!(m.stats().tier(TierId::FAST).alloc_failures, 1);
        let id = m
            .allocate_preferring(&[TierId::FAST, TierId::SLOW], PageKind::AppData)
            .unwrap();
        assert_eq!(m.tier_of(id), TierId::SLOW);
    }

    #[test]
    fn offline_tier_rejects_allocation_and_inbound_migration() {
        use crate::fault::TierFaultKind;
        let mut m = small();
        let f = m.allocate(TierId::FAST, PageKind::PageCache).unwrap();
        // Fast tier goes offline for a window; resident frames can still
        // leave, but nothing can be placed on it.
        m.set_fault_plan(FaultPlan::new().with_tier_fault(
            TierId::FAST,
            TierFaultKind::Offline,
            Nanos::ZERO,
            Some(Nanos::from_secs(1)),
        ));
        assert_eq!(
            m.allocate(TierId::FAST, PageKind::AppData),
            Err(MemError::TierOffline(TierId::FAST))
        );
        m.migrate(f, TierId::SLOW).unwrap();
        assert_eq!(
            m.migrate(f, TierId::FAST),
            Err(MemError::TierOffline(TierId::FAST))
        );
        // Window closes with the virtual clock; the tier recovers.
        m.charge(Nanos::from_secs(2));
        assert!(m.migrate(f, TierId::FAST).is_ok());
    }

    #[test]
    fn migration_fault_counts_and_leaves_frame_in_place() {
        let mut m = small();
        let f = m.allocate(TierId::FAST, PageKind::AppData).unwrap();
        m.set_fault_plan(FaultPlan::new().with_migration_fault(Nanos::ZERO, 1));
        assert_eq!(m.migrate(f, TierId::SLOW), Err(MemError::MigrationFault(f)));
        assert_eq!(m.tier_of(f), TierId::FAST, "failed migration is a no-op");
        assert_eq!(m.migration_stats().failed, 1);
        assert_eq!(m.migration_stats().total(), 0);
        // The fault is consumed; the retry succeeds.
        assert!(m.migrate(f, TierId::SLOW).is_ok());
    }

    #[test]
    fn drain_offline_moves_relocatable_frames_and_skips_pinned() {
        use crate::fault::TierFaultKind;
        let mut m = small();
        let a = m.allocate(TierId::FAST, PageKind::AppData).unwrap();
        let b = m.allocate(TierId::FAST, PageKind::PageCache).unwrap();
        let s = m.allocate(TierId::FAST, PageKind::Slab).unwrap();
        m.set_fault_plan(FaultPlan::new().with_tier_fault(
            TierId::FAST,
            TierFaultKind::Offline,
            Nanos::ZERO,
            Some(Nanos::from_secs(1)),
        ));
        let moved = m.drain_offline(128, Nanos::new(1_000), Nanos::new(8_000));
        assert_eq!(moved, 2, "both relocatable frames leave the tier");
        assert_eq!(m.tier_of(a), TierId::SLOW);
        assert_eq!(m.tier_of(b), TierId::SLOW);
        assert_eq!(m.tier_of(s), TierId::FAST, "pinned slab page stays");
        assert_eq!(m.drain_stats().drained, 2);
        assert_eq!(m.drain_stats().passes, 1);
        // The drained frames stay readable from their new home.
        assert!(m.read(a, 64) > Nanos::ZERO);
        // Nothing left to drain: further passes are no-ops.
        assert_eq!(
            m.drain_offline(128, Nanos::new(1_000), Nanos::new(8_000)),
            0
        );
        assert_eq!(m.drain_stats().passes, 1);
    }

    #[test]
    fn drain_retries_migration_faults_with_charged_backoff() {
        use crate::fault::TierFaultKind;
        let mut m = small();
        let f = m.allocate(TierId::FAST, PageKind::AppData).unwrap();
        m.set_fault_plan(
            FaultPlan::new()
                .with_tier_fault(
                    TierId::FAST,
                    TierFaultKind::Offline,
                    Nanos::ZERO,
                    Some(Nanos::from_secs(1)),
                )
                .with_migration_fault(Nanos::ZERO, 2),
        );
        let before = m.now();
        let moved = m.drain_offline(128, Nanos::new(1_000), Nanos::new(8_000));
        assert_eq!(moved, 1, "frame lands on slow after two retries");
        assert_eq!(m.tier_of(f), TierId::SLOW);
        assert_eq!(m.drain_stats().retries, 2);
        assert_eq!(m.drain_stats().failed, 0);
        // Backoffs (1µs then 2µs) were charged to the virtual clock.
        assert!(
            m.now().saturating_sub(before) >= Nanos::new(3_000),
            "backoff waits must advance virtual time"
        );
    }

    #[test]
    fn drain_budget_clamps_to_one_and_bounds_a_pass() {
        use crate::fault::TierFaultKind;
        let mut m = small();
        let a = m.allocate(TierId::FAST, PageKind::AppData).unwrap();
        let b = m.allocate(TierId::FAST, PageKind::AppData).unwrap();
        m.set_fault_plan(FaultPlan::new().with_tier_fault(
            TierId::FAST,
            TierFaultKind::Offline,
            Nanos::ZERO,
            Some(Nanos::from_secs(1)),
        ));
        // Zero budget clamps to 1 (panic→clamp convention): exactly one
        // frame moves per pass, in frame-table order.
        assert_eq!(m.drain_offline(0, Nanos::ZERO, Nanos::ZERO), 1);
        assert_eq!(m.tier_of(a), TierId::SLOW);
        assert_eq!(m.tier_of(b), TierId::FAST);
        assert_eq!(m.drain_offline(1, Nanos::ZERO, Nanos::ZERO), 1);
        assert_eq!(m.tier_of(b), TierId::SLOW);
    }

    #[test]
    fn drain_without_offline_window_is_inert() {
        use crate::fault::TierFaultKind;
        let mut m = small();
        let f = m.allocate(TierId::FAST, PageKind::AppData).unwrap();
        // No plan at all.
        assert_eq!(m.drain_offline(128, Nanos::ZERO, Nanos::ZERO), 0);
        // Exhaust windows do not drain — the tier still holds its data.
        m.set_fault_plan(FaultPlan::new().with_tier_fault(
            TierId::FAST,
            TierFaultKind::Exhaust,
            Nanos::ZERO,
            None,
        ));
        assert_eq!(m.drain_offline(128, Nanos::ZERO, Nanos::ZERO), 0);
        assert_eq!(m.tier_of(f), TierId::FAST);
        assert_eq!(*m.drain_stats(), DrainStats::default());
        assert!(m.tier_fault_active(), "exhaust still reads as a fault");
    }

    #[test]
    fn all_tiers_offline_surfaces_tier_offline_not_oom() {
        use crate::fault::TierFaultKind;
        let mut m = small();
        m.set_fault_plan(
            FaultPlan::new()
                .with_tier_fault(TierId::FAST, TierFaultKind::Offline, Nanos::ZERO, None)
                .with_tier_fault(TierId::SLOW, TierFaultKind::Offline, Nanos::ZERO, None),
        );
        // The degradation cause outranks plain capacity pressure.
        assert_eq!(
            m.allocate_preferring(&[TierId::FAST, TierId::SLOW], PageKind::AppData),
            Err(MemError::TierOffline(TierId::FAST))
        );
        // Nowhere to drain to either: the pass is a no-op.
        assert_eq!(m.drain_offline(128, Nanos::ZERO, Nanos::ZERO), 0);
    }

    #[test]
    fn disk_and_crash_hooks_consume_plan() {
        use crate::fault::CrashPoint;
        let mut m = small();
        m.set_fault_plan(
            FaultPlan::new()
                .with_disk_fault(Nanos::ZERO, DiskOp::Write, 1)
                .with_crash(CrashPoint::Commit {
                    index: 2,
                    after_blocks: 1,
                }),
        );
        assert!(!m.fault_take_disk(DiskOp::Read));
        assert!(m.fault_take_disk(DiskOp::Write));
        assert!(!m.fault_take_disk(DiskOp::Write), "count drained");
        assert_eq!(m.fault_crash_at_commit(1), None);
        assert_eq!(m.fault_crash_at_commit(2), Some(1));
        assert!(!m.fault_crash_due(), "no time crash scheduled");
    }

    #[test]
    fn empty_fault_plan_is_inert() {
        // An empty plan installs nothing and must never perturb behavior.
        let mut m = small();
        m.set_fault_plan(FaultPlan::new());
        assert!(!m.fault_take_disk(DiskOp::Fsync));
        assert!(!m.fault_crash_due());
        assert_eq!(m.fault_crash_at_commit(0), None);
        assert!(m.allocate(TierId::FAST, PageKind::AppData).is_ok());
    }

    #[test]
    fn tenant_counters_track_alloc_restamp_migrate_free() {
        let mut m = small();
        let t1 = TenantId(1);
        // Kernel page on fast: born attributed to the default tenant.
        let f = m.allocate(TierId::FAST, PageKind::PageCache).unwrap();
        assert_eq!(m.tenant_fast_kernel(TenantId::DEFAULT), 1);
        assert_eq!(m.frame_tenant(f), Some(TenantId::DEFAULT));
        // Restamp moves the residency between counters.
        m.set_frame_tenant(f, t1).unwrap();
        assert_eq!(m.frame_tenant(f), Some(t1));
        assert_eq!(m.tenant_fast_kernel(TenantId::DEFAULT), 0);
        assert_eq!(m.tenant_fast_kernel(t1), 1);
        // Demotion leaves the fast tier; promotion returns.
        m.migrate(f, TierId::SLOW).unwrap();
        assert_eq!(m.tenant_fast_kernel(t1), 0);
        m.migrate(f, TierId::FAST).unwrap();
        assert_eq!(m.tenant_fast_kernel(t1), 1);
        // Free releases the residency.
        m.free(f).unwrap();
        assert_eq!(m.tenant_fast_kernel(t1), 0);
        // App pages never count toward the kernel-object budget.
        let app = m.allocate(TierId::FAST, PageKind::AppData).unwrap();
        m.set_frame_tenant(app, t1).unwrap();
        assert_eq!(m.tenant_fast_kernel(t1), 0);
        // Unknown tenants read as zero; stale frames are rejected.
        assert_eq!(m.tenant_fast_kernel(TenantId(99)), 0);
        assert_eq!(m.set_frame_tenant(f, t1), Err(MemError::BadFrame(f)));
        assert_eq!(m.frame_tenant(f), None);
    }

    #[test]
    fn migration_cost_model_is_configurable() {
        let mut m = small();
        m.set_migration_cost(MigrationCost::parallel());
        let f = m.allocate(TierId::FAST, PageKind::PageCache).unwrap();
        let par = m.migrate(f, TierId::SLOW).unwrap();
        let mut m2 = small();
        let f2 = m2.allocate(TierId::FAST, PageKind::PageCache).unwrap();
        let seq = m2.migrate(f2, TierId::SLOW).unwrap();
        assert!(par < seq);
    }

    /// Runs `ops` through one system a call at a time and through a
    /// twin in one `access_batch`, then asserts total cost, clock,
    /// stats, and every frame's `last_access` stamp agree exactly.
    fn assert_batch_identical(mut a: MemorySystem, mut b: MemorySystem, ops: &[AccessOp]) {
        let mut serial = Nanos::ZERO;
        for op in ops {
            serial += if op.write {
                a.write_from(0, op.frame, op.bytes)
            } else {
                a.read_from(0, op.frame, op.bytes)
            };
        }
        let batched = b.access_batch(Some(0), ops);
        assert_eq!(serial, batched, "total cost");
        assert_eq!(a.now(), b.now(), "clock");
        assert_eq!(a.stats(), b.stats(), "stats");
        for op in ops {
            assert_eq!(
                a.frame_meta(op.frame).map(|f| f.last_access),
                b.frame_meta(op.frame).map(|f| f.last_access),
                "{} last_access",
                op.frame
            );
        }
    }

    #[test]
    fn spec_cost_memo_matches_the_spec() {
        let sys = MemorySystem::two_tier(1 << 30, 8);
        let mut memo = SpecCostMemo::new(&sys.tiers);
        // Every byte count up to 5000 in steps of 7 fills each slot
        // many times over; the second pass runs on the warmed memo.
        for _ in 0..2 {
            for bytes in (0..5000).step_by(7).chain([1 << 20, 1 << 40, u64::MAX]) {
                for (t, tier) in sys.tiers.iter().enumerate() {
                    let spec = tier.spec();
                    assert_eq!(memo.cost(spec, t, false, bytes), spec.read_cost(bytes));
                    assert_eq!(memo.cost(spec, t, true, bytes), spec.write_cost(bytes));
                }
            }
        }
    }

    #[test]
    fn access_batch_matches_serial_accesses() {
        let setup = || {
            let mut m = small();
            let f0 = m.allocate(TierId::FAST, PageKind::PageCache).unwrap();
            let f1 = m.allocate(TierId::SLOW, PageKind::PageCache).unwrap();
            let f2 = m.allocate(TierId::SLOW, PageKind::Slab).unwrap();
            m.set_contention(TierId::SLOW, 1.5);
            (m, [f0, f1, f2])
        };
        let (a, [f0, f1, f2]) = setup();
        let (b, _) = setup();
        let ops = [
            AccessOp::read(f1, 4096),
            AccessOp::read(f1, 4096), // same profile: memoized group
            AccessOp::write(f0, 4096),
            AccessOp::read(f2, 64),
            AccessOp::read(f1, 4096), // profile changed back: re-priced
        ];
        assert_batch_identical(a, b, &ops);
    }

    #[test]
    fn access_batch_matches_serial_with_l4() {
        // The Optane L4 is stateful per frame, so the batch must price
        // every op individually — including repeated same-frame hits.
        let setup = || {
            let mut m = MemorySystem::optane_memory_mode(2 * crate::frame::PAGE_SIZE);
            let f0 = m.allocate(TierId(0), PageKind::PageCache).unwrap();
            let f1 = m.allocate(TierId(0), PageKind::PageCache).unwrap();
            (m, [f0, f1])
        };
        let (a, [f0, f1]) = setup();
        let (b, _) = setup();
        let ops = [
            AccessOp::read(f0, 4096),
            AccessOp::read(f0, 4096),
            AccessOp::write(f1, 4096),
            AccessOp::read(f0, 4096),
        ];
        assert_batch_identical(a, b, &ops);
    }
}
