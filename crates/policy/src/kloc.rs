//! The KLOC tiering policy (paper Table 5, "KLOCs" and
//! "KLOCs-nomigration").
//!
//! Composition, exactly as the paper describes: *original Nimble
//! policies* (scan-based hotness + parallel migration) for application
//! pages, plus the KLOC abstraction for kernel objects:
//!
//! * kernel objects of **active** knodes are allocated directly into
//!   fast memory (§3.2, first implication — prior work sent them to slow
//!   memory); inactive knodes' allocations divert to slow memory under
//!   fast-tier pressure;
//! * on the last close of a file/socket, the knode is marked inactive
//!   immediately and its members are demoted **en masse** within a few
//!   sub-millisecond ticks, once its age confirms coldness — no LRU
//!   scans involved (§4.5: "we immediately mark and migrate ... without
//!   waiting for scans of active/inactive lists");
//! * on re-open of a recently-used knode, hot members are pulled back
//!   into fast memory; members of open knodes demote/promote
//!   individually by per-frame recency (the fine-grained extension of
//!   §4.4, toggleable via [`KlocPolicy::coarse`]);
//! * the relocatable allocation interface (§4.4) is enabled so slab-class
//!   objects can move, and early socket demux (§4.2.3) associates ingress
//!   buffers in the driver.
//!
//! `KLOCs-nomigration` keeps the placement rules but never migrates
//! kernel objects — the Fig. 4 ablation showing why migration matters.

use kloc_core::{KlocConfig, KlocRegistry};
use kloc_kernel::hooks::{CpuId, KernelHooks, PageRequest, Placement};
use kloc_kernel::{Kernel, ObjectId, ObjectInfo};
use kloc_mem::{FrameId, MemorySystem, MigrationCost, Nanos, PageKind, TenantId, TierId};

use crate::apptier::AppTier;
use crate::traits::Policy;

/// The KLOC policy.
#[derive(Debug)]
pub struct KlocPolicy {
    registry: KlocRegistry,
    app: AppTier,
    /// Whether kernel-object migration is enabled (false =
    /// KLOCs-nomigration).
    migrate: bool,
    /// Demote an inactive knode once its age (LRU-scan epochs without a
    /// touch, §4.3) reaches this. Burstily reused files — open, I/O,
    /// close, reopen microseconds later — keep their age at zero and are
    /// never ping-ponged; truly cold knodes age up and demote within a
    /// few ticks, still far faster than page-table scans.
    cold_age: u32,
    /// Promote a reopened knode's members only when its age is below
    /// this (it was in use within the last few scan epochs). One-shot
    /// reopens of long-cold files — compaction inputs, backup scans —
    /// are served from slow memory instead of churning fast memory;
    /// this keeps promotions the small fraction of migrations the paper
    /// reports (4-12%, §4.4).
    promote_max_age: u32,
    /// Demote knodes idle longer than this even while open.
    idle_demote: Nanos,
    /// Whether member-granular tracking is enabled: individual member
    /// pages demote when cold and promote when hot, on top of the
    /// whole-knode en-masse operations. This is the fine-grained
    /// tracking the paper defers to future work (§4.4: "our future work
    /// will explore the benefits of employing a fine-grained kernel
    /// object tracking approach"); disable for the paper's baseline
    /// inode-granularity design.
    member_granular: bool,
    /// Demote individual member pages untouched for this long. Cold
    /// slow-tier members seen by this walk are parked, so it must stay
    /// longer than `member_hot` (the registry asserts this).
    member_idle: Nanos,
    /// Promote individual slow member pages touched within this window.
    member_hot: Nanos,
    /// Maximum knodes demoted per tick.
    demote_batch: usize,
    /// Run the page-granular scan mechanism every N knode ticks (scans
    /// are Nimble-cadence work; knode reactions are cheap and frequent).
    app_tick_divider: u32,
    ticks: u32,
    /// Round-robin cursor over active knodes for cold-member demotion.
    active_cursor: usize,
    /// Largest en-masse migration staged (Table 6 overhead accounting).
    peak_migration_batch: u64,
    /// Reusable candidate buffer for the tick reclaim passes, held on
    /// the policy so the per-tick paths allocate nothing.
    scratch: Vec<kloc_kernel::InodeId>,
    /// Per-tenant fast-memory caps for kernel pages, dense by
    /// [`TenantId::index`] (`None` = uncapped). Installed by
    /// [`Policy::configure_tenants`]; empty in single-tenant runs.
    tenant_budgets: Vec<Option<u64>>,
    /// Per-tenant QoS classes, dense by [`TenantId::index`] (`None` =
    /// unregistered). Installed by [`Policy::configure_tenants`];
    /// drives the QoS-ordered divert under pressure or an active tier
    /// fault (DESIGN.md §13).
    tenant_qos: Vec<Option<kloc_kernel::QosClass>>,
}

impl Default for KlocPolicy {
    fn default() -> Self {
        KlocPolicy::new()
    }
}

impl KlocPolicy {
    /// Full KLOCs with default configuration.
    pub fn new() -> Self {
        KlocPolicy::with_config(KlocConfig::default(), true)
    }

    /// The KLOCs-nomigration variant of Fig. 4.
    pub fn without_migration() -> Self {
        KlocPolicy::with_config(KlocConfig::default(), false)
    }

    /// The paper's baseline inode-granularity design: knodes migrate
    /// only as a whole (no per-member demotion/promotion). Used by the
    /// granularity ablation.
    pub fn coarse() -> Self {
        let mut p = KlocPolicy::new();
        p.member_granular = false;
        p
    }

    /// Custom registry configuration (per-type inclusion for Fig. 5c,
    /// per-CPU ablation for §4.3) and migration switch.
    pub fn with_config(config: KlocConfig, migrate: bool) -> Self {
        KlocPolicy {
            registry: KlocRegistry::new(config),
            app: AppTier::new(),
            migrate,
            cold_age: 12,
            promote_max_age: 4,
            member_granular: true,
            member_idle: Nanos::from_millis(15),
            member_hot: Nanos::from_millis(2),
            idle_demote: Nanos::from_millis(5),
            demote_batch: 64,
            app_tick_divider: 8,
            ticks: 0,
            active_cursor: 0,
            peak_migration_batch: 0,
            scratch: Vec::new(),
            tenant_budgets: Vec::new(),
            tenant_qos: Vec::new(),
        }
    }

    /// The most-scavenger QoS class currently holding fast-tier kernel
    /// pages, or `None` unless at least two distinct classes hold some
    /// — with a single class there is nobody to protect, so plain
    /// placement applies. Only registered tenants participate; the
    /// shared default tenant's infrastructure pages are not a class.
    fn qos_divert_floor(&self, mem: &MemorySystem) -> Option<kloc_kernel::QosClass> {
        use kloc_kernel::QosClass;
        let mut seen = [false; 3];
        for (i, q) in self.tenant_qos.iter().enumerate() {
            let Some(q) = q else { continue };
            if mem.tenant_fast_kernel(TenantId(i as u16)) > 0 {
                seen[*q as usize] = true;
            }
        }
        if seen.iter().filter(|s| **s).count() < 2 {
            return None;
        }
        [
            QosClass::BestEffort,
            QosClass::Burstable,
            QosClass::Guaranteed,
        ]
        .into_iter()
        .find(|q| seen[*q as usize])
    }

    /// The KLOC registry.
    pub fn kloc_registry(&self) -> &KlocRegistry {
        &self.registry
    }

    /// Largest en-masse migration batch seen (pages).
    pub fn peak_migration_batch(&self) -> u64 {
        self.peak_migration_batch
    }

    /// The app-page mechanism.
    pub fn app_tier(&self) -> &AppTier {
        &self.app
    }

    fn demote_knode(&mut self, inode: kloc_kernel::InodeId, mem: &mut MemorySystem) {
        // Fused call: one knode lookup yields both the staging size
        // (tracked for peak_migration_batch) and the demotion walk.
        let (staged, _moved) = self.registry.demote_knode_staged(inode, mem);
        self.peak_migration_batch = self.peak_migration_batch.max(staged);
    }

    /// One pressure-driven reclaim pass (the body of [`Policy::tick`]
    /// once pressure is confirmed). `scratch` is the policy's reusable
    /// candidate buffer, passed in detached so the demote calls can
    /// borrow `self` mutably.
    fn reclaim(&mut self, scratch: &mut Vec<kloc_kernel::InodeId>, mem: &mut MemorySystem) {
        let now = mem.now();

        // Demote inactive knodes whose age confirms coldness. The
        // inactive index hands back exactly the cold candidates — no
        // page-table scans and no walk over the warm population (§4.4).
        scratch.clear();
        // The cold index yields candidates in inode order — the batch
        // has always been the first `demote_batch` candidates in inode
        // order, previously produced by sorting the full range.
        self.registry
            .cold_member_candidates(self.cold_age, self.demote_batch, scratch);
        for &ino in scratch.iter() {
            self.demote_knode(ino, mem);
        }

        // Also demote open-but-idle knodes
        // ("periods of activity interspersed with inactivity", §4.4) and
        // *cold members* of active knodes — old pages of an append-only
        // log, say. The knode names the frames directly, so inferring
        // their relative age is a pointer walk, not a page-table scan.
        scratch.clear();
        for k in self.registry.kmap().active_knodes() {
            if scratch.len() == self.demote_batch {
                break;
            }
            if now.saturating_sub(k.last_active()) >= self.idle_demote {
                scratch.push(k.inode());
            }
        }
        for &ino in scratch.iter() {
            self.demote_knode(ino, mem);
        }
        if !self.member_granular {
            return;
        }
        // Rotate over active knodes, demoting members untouched for a
        // while (old pages of an append-only log) and promoting hot
        // members stranded in slow memory. Demotion makes the room
        // promotion fills: an LRU exchange driven entirely by knode
        // pointer walks.
        scratch.clear();
        scratch.extend(self.registry.kmap().active_knodes().map(|k| k.inode()));
        if !scratch.is_empty() {
            let mut demote_budget = 128u64;
            for i in 0..scratch.len().min(16) {
                let idx = (self.active_cursor + i) % scratch.len();
                let moved = self.registry.demote_cold_members(
                    scratch[idx],
                    mem,
                    self.member_idle,
                    demote_budget,
                );
                demote_budget = demote_budget.saturating_sub(moved);
                let room = mem
                    .tier_alloc(TierId::FAST)
                    .map(|a| a.free_frames())
                    .unwrap_or(0);
                if room > 0 {
                    self.registry
                        .promote_hot_members(scratch[idx], mem, self.member_hot, room);
                }
                if demote_budget == 0 {
                    break;
                }
            }
            self.active_cursor = (self.active_cursor + 16) % scratch.len().max(1);
        }
    }
}

impl KernelHooks for KlocPolicy {
    fn place_page(&mut self, req: &PageRequest, mem: &MemorySystem) -> Placement {
        if req.kind == PageKind::AppData {
            // "KLOCs prioritize application pages" (§4.2.2).
            return Placement::fast_then_slow();
        }
        let Some(ty) = req.ty else {
            return Placement::fast_then_slow();
        };
        if !self.registry.includes(ty) {
            // Fig. 5c methodology: object classes excluded from the
            // KLOC abstraction are always kept in fast memory.
            return Placement::fast_then_slow();
        }
        // Per-tenant sys_kloc_memsize: a tenant at its fast-memory cap
        // has its kernel pages diverted to slow memory, regardless of
        // global headroom — the budget that keeps one tenant's churn out
        // of its neighbours' fast tier. O(1): the memory system keeps
        // per-tenant fast-resident kernel-page counters.
        if let Some(&Some(budget)) = self.tenant_budgets.get(req.tenant.index()) {
            if mem.tenant_fast_kernel(req.tenant) >= budget {
                kloc_trace::with_counters(|c| c.slow_diverts += 1);
                return Placement::slow_only();
            }
        }
        let pressure = mem
            .tier_alloc(TierId::FAST)
            .map(|a| a.utilization() >= 0.85)
            .unwrap_or(false);
        // QoS-ordered divert (DESIGN.md §13): while fast memory is
        // under pressure or a tier fault window is open, kernel
        // allocations from the most-scavenger class holding fast pages
        // go to slow memory, preserving stricter classes' headroom. A
        // Guaranteed tenant is never diverted here while a lower class
        // holds fast kernel pages.
        if pressure || mem.tier_fault_active() {
            if let Some(floor) = self.qos_divert_floor(mem) {
                if self.tenant_qos.get(req.tenant.index()).copied().flatten() == Some(floor) {
                    kloc_trace::with_counters(|c| c.slow_diverts += 1);
                    return Placement::slow_only();
                }
            }
        }
        // sys_kloc_memsize (Table 2): an administrator cap on the fast
        // memory KLOC-managed kernel objects may occupy.
        if let Some(budget) = self.registry.config().fast_budget_frames {
            let kernel_fast: u64 = mem
                .stats()
                .tier(TierId::FAST)
                .resident_by_kind
                .iter()
                .filter(|(k, _)| k.is_kernel())
                .map(|(_, v)| *v)
                .sum();
            if kernel_fast >= budget {
                kloc_trace::with_counters(|c| c.slow_diverts += 1);
                return Placement::slow_only();
            }
        }
        if req.readahead && pressure {
            // Speculative readahead must not pollute scarce fast memory
            // (§7.3); pages that turn out hot are retrieved by the
            // member-granular promotion path.
            kloc_trace::with_counters(|c| c.slow_diverts += 1);
            return Placement::slow_only();
        }
        match req.inode.and_then(|i| self.registry.is_active(i)) {
            // Active knode: allocate directly into fast memory.
            Some(true) => Placement::fast_then_slow(),
            // Inactive knode: divert to slow memory when fast memory is
            // scarce — including prefetched pages for cold files, which
            // is how KLOCs keep readahead from polluting fast memory
            // (§7.3). With no pressure, spare fast capacity is used (it
            // can always be reclaimed en masse later).
            Some(false) => {
                if pressure {
                    kloc_trace::with_counters(|c| c.slow_diverts += 1);
                    Placement::slow_only()
                } else {
                    Placement::fast_then_slow()
                }
            }
            // Unknown owner (global journal blocks, pre-demux buffers):
            // these serve in-flight I/O; keep them fast.
            None => Placement::fast_then_slow(),
        }
    }

    fn relocatable_kernel_alloc(&self) -> bool {
        // The §4.4 allocation interface: slab-class objects become
        // relocatable (and per-inode co-located).
        true
    }

    fn early_socket_demux(&self) -> bool {
        // The 8-byte skbuff socket field (§4.2.3).
        true
    }

    fn on_inode_create(
        &mut self,
        inode: kloc_kernel::InodeId,
        cpu: CpuId,
        tenant: TenantId,
        mem: &mut MemorySystem,
    ) {
        self.registry
            .inode_created_by(inode, cpu, tenant, mem.now());
    }

    fn on_inode_open(&mut self, inode: kloc_kernel::InodeId, cpu: CpuId, mem: &mut MemorySystem) {
        let hot = self
            .registry
            .kmap()
            .age_of(inode)
            .map(|age| age < self.promote_max_age)
            .unwrap_or(false);
        self.registry.inode_opened(inode, cpu, mem.now());
        if self.migrate && hot {
            let room = mem
                .tier_alloc(TierId::FAST)
                .map(|a| a.free_frames())
                .unwrap_or(0);
            if room > 0 {
                if self.member_granular {
                    // Retrieve the recently-used members of this KLOC
                    // back into fast memory, up to the available room.
                    // Cold members (e.g. pages demoted for inactivity)
                    // stay put — promotion and demotion windows are
                    // disjoint, so pages never ping-pong.
                    self.registry
                        .promote_hot_members(inode, mem, self.member_hot, room);
                } else {
                    // Inode granularity: all members share one hotness
                    // (paper §3.2, third implication).
                    self.registry
                        .migrate_knode_limited(inode, mem, TierId::FAST, room);
                }
            }
        }
    }

    fn on_inode_close(&mut self, inode: kloc_kernel::InodeId, mem: &mut MemorySystem) {
        // Mark inactive immediately; en-masse migration happens within a
        // few ticks, once the knode's age confirms it is cold (files that
        // bounce between open and closed keep age zero and never churn).
        self.registry.inode_closed(inode, mem.now());
    }

    fn on_inode_destroy(&mut self, inode: kloc_kernel::InodeId, mem: &mut MemorySystem) {
        // Deleted: objects are freed by the kernel, never migrated (§3.2).
        self.registry.inode_destroyed(inode, mem.now());
    }

    fn on_object_alloc(
        &mut self,
        obj: ObjectId,
        info: &ObjectInfo,
        frame: FrameId,
        cpu: CpuId,
        mem: &mut MemorySystem,
    ) {
        self.registry
            .object_allocated(obj, info, frame, cpu, mem.now());
        // Page-backed kernel objects (cache pages, data buffers) also
        // join the Nimble scan machinery (Table 5: "original Nimble
        // policies ... and parallel kernel page migration"), giving
        // page-granular hotness on top of the knode shortcut. Kvma
        // arenas stay knode-managed: their mixed contents would defeat
        // binary page hotness.
        if self.migrate {
            if let Some(f) = mem.frame_meta(frame) {
                if f.kind.relocatable() && f.kind != PageKind::KernelVma {
                    self.app.on_alloc(frame);
                }
            }
        }
    }

    fn on_object_associate(
        &mut self,
        obj: ObjectId,
        info: &ObjectInfo,
        frame: FrameId,
        cpu: CpuId,
        mem: &mut MemorySystem,
    ) {
        self.registry
            .object_associated(obj, info, frame, cpu, mem.now());
    }

    fn on_object_free(
        &mut self,
        obj: ObjectId,
        info: &ObjectInfo,
        _frame: FrameId,
        _mem: &mut MemorySystem,
    ) {
        self.registry.object_freed(obj, info);
    }

    fn on_object_access(
        &mut self,
        _obj: ObjectId,
        info: &ObjectInfo,
        frame: FrameId,
        cpu: CpuId,
        tenant: TenantId,
        mem: &mut MemorySystem,
    ) {
        self.registry
            .object_accessed_by(info, cpu, tenant, mem.now());
        self.app.on_access(frame);
    }

    fn on_app_page_alloc(&mut self, frame: FrameId, _cpu: CpuId, _mem: &mut MemorySystem) {
        self.app.on_alloc(frame);
    }

    fn on_app_page_access(&mut self, frame: FrameId, _cpu: CpuId, _mem: &mut MemorySystem) {
        self.app.on_access(frame);
    }

    fn on_page_free(&mut self, frame: FrameId, _mem: &mut MemorySystem) {
        self.app.on_free(frame);
    }
}

impl Policy for KlocPolicy {
    fn name(&self) -> &'static str {
        if self.migrate {
            "kloc"
        } else {
            "kloc-nomigration"
        }
    }

    fn tick(&mut self, _kernel: &Kernel, mem: &mut MemorySystem) {
        // Nimble mechanisms for application (and tracked kernel) pages,
        // at Nimble's scan cadence.
        self.ticks = self.ticks.wrapping_add(1);
        if self.ticks.is_multiple_of(self.app_tick_divider) {
            let before_promoted = self.app.stats().promoted;
            let before_demoted = self.app.stats().demoted;
            self.app.tick(mem);
            // Page-backed kernel objects share the Nimble scan
            // machinery, so its migrations move member frames behind
            // the registry's back — tell it, so the knode demotion
            // memoizations are re-derived.
            if self.app.stats().promoted != before_promoted {
                self.registry.note_external_promotions();
            }
            if self.app.stats().demoted != before_demoted {
                self.registry.note_external_demotions();
            }
        }
        // Knode aging (scans that skip a knode bump its age, §4.3):
        // O(1) counter bumps, no walk of the knode population.
        self.registry.age_epoch();
        if !self.migrate {
            return;
        }

        // All migration activity is pressure-driven: with spare fast
        // capacity there is nothing to reclaim (the paper leaves the
        // aggressiveness to memory pressure and LRU policy, §4.1).
        let pressure = mem
            .tier_alloc(TierId::FAST)
            .map(|a| a.utilization() >= 0.90)
            .unwrap_or(false);
        if !pressure {
            return;
        }
        // Detach the scratch buffer so reclaim can borrow self mutably.
        let mut scratch = std::mem::take(&mut self.scratch);
        self.reclaim(&mut scratch, mem);
        self.scratch = scratch;
    }

    fn tick_interval(&self) -> Nanos {
        // Event-driven: KLOCs react within a quarter millisecond —
        // far inside kernel object lifetimes, unlike scan-based policies.
        Nanos::from_micros(250)
    }

    fn migration_cost(&self) -> MigrationCost {
        // KLOCs reuse Nimble's parallel page copy (§6.2).
        MigrationCost::parallel()
    }

    fn registry(&self) -> Option<&KlocRegistry> {
        Some(&self.registry)
    }

    fn peak_migration_batch(&self) -> u64 {
        self.peak_migration_batch
    }

    fn configure_tenants(&mut self, specs: &[kloc_kernel::TenantSpec]) {
        for spec in specs {
            let i = spec.id.index();
            if i >= self.tenant_budgets.len() {
                self.tenant_budgets.resize(i + 1, None);
                self.tenant_qos.resize(i + 1, None);
            }
            self.tenant_budgets[i] = spec.fast_budget_frames;
            self.tenant_qos[i] = Some(spec.qos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kloc_kernel::hooks::Ctx;
    use kloc_kernel::{InodeId, Kernel, KernelObjectType};
    use kloc_mem::PAGE_SIZE;

    fn req(ty: KernelObjectType, inode: Option<InodeId>) -> PageRequest {
        PageRequest {
            kind: match ty.backing() {
                kloc_kernel::Backing::Page(k) => k,
                kloc_kernel::Backing::Slab => PageKind::KernelVma,
            },
            ty: Some(ty),
            inode,
            readahead: false,
            cpu: CpuId(0),
            tenant: TenantId::DEFAULT,
        }
    }

    #[test]
    fn active_knodes_place_fast_inactive_slow_under_pressure() {
        // Fill the fast tier so the policy is under pressure.
        let mut mem = MemorySystem::two_tier(4 * PAGE_SIZE, 8);
        for _ in 0..4 {
            mem.allocate(TierId::FAST, PageKind::AppData).unwrap();
        }
        let mut p = KlocPolicy::new();
        p.on_inode_create(InodeId(1), CpuId(0), TenantId::DEFAULT, &mut mem);
        let pl = p.place_page(&req(KernelObjectType::PageCache, Some(InodeId(1))), &mem);
        assert_eq!(pl[0], TierId::FAST, "active knode: fast first");
        p.on_inode_close(InodeId(1), &mut mem);
        let pl = p.place_page(&req(KernelObjectType::PageCache, Some(InodeId(1))), &mem);
        assert_eq!(
            pl[..],
            [TierId::SLOW],
            "inactive knode under pressure: straight to slow"
        );
    }

    #[test]
    fn inactive_placement_uses_spare_fast_capacity() {
        // With a near-empty fast tier there is no reason to divert.
        let mut mem = MemorySystem::two_tier(64 * PAGE_SIZE, 8);
        let mut p = KlocPolicy::new();
        p.on_inode_create(InodeId(1), CpuId(0), TenantId::DEFAULT, &mut mem);
        p.on_inode_close(InodeId(1), &mut mem);
        let pl = p.place_page(&req(KernelObjectType::PageCache, Some(InodeId(1))), &mem);
        assert_eq!(pl[0], TierId::FAST);
    }

    #[test]
    fn cold_knodes_demote_en_masse_and_hot_members_promote() {
        // Demotion is pressure-driven: fill the fast tier completely.
        let mut mem = MemorySystem::two_tier(8 * PAGE_SIZE, 8);
        let kernel = Kernel::new(Default::default());
        let mut p = KlocPolicy::new();
        for _ in 0..4 {
            mem.allocate(TierId::FAST, PageKind::AppData).unwrap();
        }
        p.on_inode_create(InodeId(1), CpuId(0), TenantId::DEFAULT, &mut mem);
        let mut frames = Vec::new();
        let info = ObjectInfo {
            ty: KernelObjectType::PageCache,
            size: 4096,
            inode: Some(InodeId(1)),
        };
        for i in 0..4u64 {
            let f = mem.allocate(TierId::FAST, PageKind::PageCache).unwrap();
            p.on_object_alloc(ObjectId(i), &info, f, CpuId(0), &mut mem);
            // Two touches: the pages are hot in the page-granular LRU, so
            // only the knode path can demote them.
            p.on_object_access(ObjectId(i), &info, f, CpuId(0), TenantId::DEFAULT, &mut mem);
            p.on_object_access(ObjectId(i), &info, f, CpuId(0), TenantId::DEFAULT, &mut mem);
            frames.push(f);
        }
        p.on_inode_close(InodeId(1), &mut mem);
        // Let the members go cold in virtual time, then age the knode
        // past the cold threshold: the en-masse demotion fires on a tick
        // (no instant ping-pong on close/reopen cycles).
        mem.charge(Nanos::from_millis(10));
        for _ in 0..16 {
            p.tick(&kernel, &mut mem);
        }
        for f in &frames {
            assert_eq!(mem.tier_of(*f), TierId::SLOW, "demoted once cold");
        }
        assert_eq!(p.peak_migration_batch(), 4);
        // Access one member (marks it hot) and reopen: the hot member is
        // retrieved into fast memory.
        mem.read(frames[0], 4096);
        p.on_object_access(
            ObjectId(0),
            &info,
            frames[0],
            CpuId(0),
            TenantId::DEFAULT,
            &mut mem,
        );
        p.on_inode_open(InodeId(1), CpuId(0), &mut mem);
        assert_eq!(mem.tier_of(frames[0]), TierId::FAST, "hot member promoted");
        assert_eq!(
            mem.tier_of(frames[3]),
            TierId::SLOW,
            "cold members stay in slow memory"
        );
    }

    #[test]
    fn nomigration_variant_places_but_never_moves() {
        let mut mem = MemorySystem::two_tier(64 * PAGE_SIZE, 8);
        let mut p = KlocPolicy::without_migration();
        p.on_inode_create(InodeId(1), CpuId(0), TenantId::DEFAULT, &mut mem);
        let f = mem.allocate(TierId::FAST, PageKind::PageCache).unwrap();
        let info = ObjectInfo {
            ty: KernelObjectType::PageCache,
            size: 4096,
            inode: Some(InodeId(1)),
        };
        p.on_object_alloc(ObjectId(1), &info, f, CpuId(0), &mut mem);
        p.on_inode_close(InodeId(1), &mut mem);
        assert_eq!(mem.tier_of(f), TierId::FAST, "no migration variant");
        assert_eq!(mem.migration_stats().total(), 0);
        assert_eq!(p.name(), "kloc-nomigration");
    }

    #[test]
    fn excluded_types_always_fast() {
        let mut cfg = KlocConfig::default();
        cfg.included.remove(&KernelObjectType::SkBuff);
        let mut mem = MemorySystem::two_tier(1 << 20, 8);
        let mut p = KlocPolicy::with_config(cfg, true);
        p.on_inode_create(InodeId(1), CpuId(0), TenantId::DEFAULT, &mut mem);
        p.on_inode_close(InodeId(1), &mut mem);
        // Inactive inode, but SkBuff is excluded -> fast placement.
        let pl = p.place_page(&req(KernelObjectType::SkBuff, Some(InodeId(1))), &mem);
        assert_eq!(pl[0], TierId::FAST);
    }

    #[test]
    fn fast_budget_caps_kernel_placement() {
        // sys_kloc_memsize: with a 2-frame budget, the third kernel page
        // is diverted to slow memory even though fast has room.
        let cfg = KlocConfig {
            fast_budget_frames: Some(2),
            ..KlocConfig::default()
        };
        let mut mem = MemorySystem::two_tier(64 * PAGE_SIZE, 8);
        let mut p = KlocPolicy::with_config(cfg, true);
        p.on_inode_create(InodeId(1), CpuId(0), TenantId::DEFAULT, &mut mem);
        for _ in 0..2 {
            let pl = p.place_page(&req(KernelObjectType::PageCache, Some(InodeId(1))), &mem);
            assert_eq!(pl[0], TierId::FAST);
            mem.allocate(TierId::FAST, PageKind::PageCache).unwrap();
        }
        let pl = p.place_page(&req(KernelObjectType::PageCache, Some(InodeId(1))), &mem);
        assert_eq!(pl[..], [TierId::SLOW], "budget reached");
        // App pages are not subject to the kernel-object budget.
        let app = PageRequest {
            kind: PageKind::AppData,
            ty: None,
            inode: None,
            readahead: false,
            cpu: CpuId(0),
            tenant: TenantId::DEFAULT,
        };
        assert_eq!(p.place_page(&app, &mem)[0], TierId::FAST);
    }

    #[test]
    fn tenant_budget_diverts_only_the_capped_tenant() {
        // Per-tenant sys_kloc_memsize: tenant 1 has a 2-frame fast cap,
        // tenant 2 is uncapped. Once tenant 1's kernel pages fill its
        // budget, *its* next page diverts to slow while tenant 2 (and
        // the shared kernel) still place fast.
        let mut mem = MemorySystem::two_tier(64 * PAGE_SIZE, 8);
        let mut p = KlocPolicy::new();
        p.configure_tenants(&[
            kloc_kernel::TenantSpec {
                id: TenantId(1),
                name: "capped".into(),
                qos: kloc_kernel::QosClass::Burstable,
                fast_budget_frames: Some(2),
                pc_budget: None,
            },
            kloc_kernel::TenantSpec {
                id: TenantId(2),
                name: "free".into(),
                qos: kloc_kernel::QosClass::Guaranteed,
                fast_budget_frames: None,
                pc_budget: None,
            },
        ]);
        p.on_inode_create(InodeId(1), CpuId(0), TenantId(1), &mut mem);
        let by = |t: u16| PageRequest {
            tenant: TenantId(t),
            ..req(KernelObjectType::PageCache, Some(InodeId(1)))
        };
        for _ in 0..2 {
            let pl = p.place_page(&by(1), &mem);
            assert_eq!(pl[0], TierId::FAST, "under budget");
            let f = mem.allocate(TierId::FAST, PageKind::PageCache).unwrap();
            mem.set_frame_tenant(f, TenantId(1)).unwrap();
        }
        assert_eq!(mem.tenant_fast_kernel(TenantId(1)), 2);
        let pl = p.place_page(&by(1), &mem);
        assert_eq!(pl[..], [TierId::SLOW], "tenant 1 at its cap");
        // Neighbours are unaffected by tenant 1's cap.
        assert_eq!(p.place_page(&by(2), &mem)[0], TierId::FAST);
        assert_eq!(
            p.place_page(&req(KernelObjectType::PageCache, Some(InodeId(1))), &mem)[0],
            TierId::FAST,
            "the shared kernel (tenant 0) is never capped"
        );
    }

    #[test]
    fn kloc_interfaces_enabled() {
        let p = KlocPolicy::new();
        assert!(p.relocatable_kernel_alloc());
        assert!(p.early_socket_demux());
        assert_eq!(p.migration_cost(), MigrationCost::parallel());
        assert!(p.registry().is_some());
    }

    #[test]
    fn tick_demotes_idle_knodes_under_pressure() {
        let mut mem = MemorySystem::two_tier(8 * PAGE_SIZE, 8);
        let kernel = Kernel::new(Default::default());
        let mut p = KlocPolicy::new();
        p.on_inode_create(InodeId(1), CpuId(0), TenantId::DEFAULT, &mut mem);
        // Fill fast memory with this knode's pages (stays open = active).
        let mut frames = Vec::new();
        for i in 0..8u64 {
            let f = mem.allocate(TierId::FAST, PageKind::PageCache).unwrap();
            let info = ObjectInfo {
                ty: KernelObjectType::PageCache,
                size: 4096,
                inode: Some(InodeId(1)),
            };
            p.on_object_alloc(ObjectId(i), &info, f, CpuId(0), &mut mem);
            frames.push(f);
        }
        // Let the knode go idle past the threshold.
        mem.charge(Nanos::from_millis(300));
        p.tick(&kernel, &mut mem);
        assert!(
            frames.iter().any(|f| mem.tier_of(*f) == TierId::SLOW),
            "idle open knode demoted under pressure"
        );
    }

    #[test]
    fn tick_cold_selection_is_scan_free() {
        // A large warm-inactive population must not be examined by the
        // pressure tick: cold selection is an index range scan bounded
        // by the candidate count, and the idle/member passes walk the
        // active index only.
        let mut mem = MemorySystem::two_tier(64 * PAGE_SIZE, 8);
        let kernel = Kernel::new(Default::default());
        let mut p = KlocPolicy::new();
        // 40 knodes with one fast member frame each, closed immediately:
        // these become the cold candidates.
        for ino in 1..=40u64 {
            p.on_inode_create(InodeId(ino), CpuId(0), TenantId::DEFAULT, &mut mem);
            let f = mem.allocate(TierId::FAST, PageKind::PageCache).unwrap();
            let info = ObjectInfo {
                ty: KernelObjectType::PageCache,
                size: 4096,
                inode: Some(InodeId(ino)),
            };
            p.on_object_alloc(ObjectId(ino), &info, f, CpuId(0), &mut mem);
            p.on_inode_close(InodeId(ino), &mut mem);
        }
        // Age them past cold_age (12). Fast memory is only ~60% full, so
        // these ticks stop at the pressure gate.
        for _ in 0..16 {
            p.tick(&kernel, &mut mem);
        }
        // 500 recently-closed knodes: inactive but far too young to be
        // cold. An eager filter scan would walk all of them every tick.
        for ino in 1000..1500u64 {
            p.on_inode_create(InodeId(ino), CpuId(0), TenantId::DEFAULT, &mut mem);
            p.on_inode_close(InodeId(ino), &mut mem);
        }
        // A couple of active knodes for the idle/member-granular passes.
        p.on_inode_create(InodeId(2000), CpuId(0), TenantId::DEFAULT, &mut mem);
        p.on_inode_create(InodeId(2001), CpuId(0), TenantId::DEFAULT, &mut mem);
        // Fill the remaining fast frames so the tick sees pressure.
        while mem.allocate(TierId::FAST, PageKind::AppData).is_ok() {}

        let before = p.kloc_registry().kmap().knodes_examined();
        p.tick(&kernel, &mut mem);
        let examined = p.kloc_registry().kmap().knodes_examined() - before;
        assert!(
            p.kloc_registry().stats().knode_demotions >= 40,
            "cold candidates were demoted"
        );
        // demote_batch (64) cold-range entries plus two bounded passes
        // over the (two) active knodes — far below the 542 knodes an
        // eager scan would have examined, repeatedly.
        assert!(
            examined <= 64 + 8,
            "tick examined {examined} knodes; cold selection must be scan-free"
        );
    }

    #[test]
    fn end_to_end_with_kernel_uses_kvma() {
        // Through the real kernel, slab-class objects land on relocatable
        // kvma frames under the KLOC policy.
        let mut mem = MemorySystem::two_tier(1024 * PAGE_SIZE, 8);
        let mut p = KlocPolicy::new();
        let mut k = Kernel::new(Default::default());
        let mut ctx = Ctx::new(&mut mem, &mut p);
        let fd = k.create(&mut ctx, "/f").unwrap();
        k.write(&mut ctx, fd, 0, 8192).unwrap();
        // The dentry lives on a KernelVma (relocatable) frame.
        let dentry = k
            .objects()
            .iter()
            .find(|o| o.info.ty == KernelObjectType::Dentry)
            .expect("dentry exists");
        assert_eq!(
            ctx.mem.frame(dentry.frame).unwrap().kind(),
            PageKind::KernelVma
        );
        assert!(!ctx.mem.frame(dentry.frame).unwrap().pinned());
        k.close(&mut ctx, fd).unwrap();
    }
}
