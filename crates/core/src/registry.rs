//! The KLOC registry: event engine + en-masse migration mechanism.
//!
//! [`KlocRegistry`] is the machinery the paper adds to the kernel: it
//! reacts to inode/object lifecycle events (forwarded by a policy that
//! implements `kloc_kernel::hooks::KernelHooks`), maintains the kmap,
//! knodes, and per-CPU fast paths, and offers the headline mechanism —
//! migrate *all* kernel objects of a cold knode in one shot, rather than
//! discovering them via LRU scans slower than the objects' lifetimes
//! (§3.3, §4.4).
//!
//! Bookkeeping is event-driven, as the paper claims for the real
//! implementation (§4.3): [`KlocRegistry::age_epoch`] advances two
//! counters instead of walking every knode. The migration paths walk
//! each knode's incrementally refcounted member-frame set in place, in
//! ascending full `FrameId` order (the en-masse migration order is
//! report-visible), and copy nothing.
//!
//! The member-granular walks also skip *parked* members: cold
//! slow-tier frames that no member walk can move (see the park
//! invariant at [`crate::members::FrameRefs`]). The demotion walk parks
//! them and asks the memory system to watch them; each walk first
//! drains the memory system's wake log and unparks every woken frame.
//! A walk thus costs O(unparked members) plus the wakes since the last
//! walk, instead of O(all members) — the wake signal comes from the
//! memory system, so DMA stamps and foreign migrations wake members
//! that no registry hook ever sees.

use std::collections::BTreeSet;

use kloc_mem::{FrameId, MemorySystem, Nanos, PageKind, TenantId, TierId};

use kloc_kernel::hooks::CpuId;
use kloc_kernel::vfs::InodeId;
use kloc_kernel::{KernelObjectType, ObjectId, ObjectInfo};

use crate::kmap::Kmap;
use crate::knode::Knode;
use crate::percpu::PerCpuKnodeLists;

/// Configuration of the KLOC subsystem (the `sys_enable_kloc` /
/// `sys_kloc_memsize` administrative surface of paper Table 2).
#[derive(Debug, Clone)]
pub struct KlocConfig {
    /// Master switch (`sys_enable_kloc`).
    pub enabled: bool,
    /// Number of per-CPU fast-path lists.
    pub cpus: usize,
    /// Capacity of each per-CPU list.
    pub percpu_capacity: usize,
    /// Object types included in KLOC management (paper Fig. 5c ablates
    /// this set). Excluded types are not tracked in knodes.
    pub included: BTreeSet<KernelObjectType>,
    /// Optional cap on fast-memory frames KLOC-managed objects may use
    /// (`sys_kloc_memsize`).
    pub fast_budget_frames: Option<u64>,
    /// Whether the per-CPU fast path is used (ablation of §4.3).
    pub use_percpu: bool,
    /// Skip demoting frames that already migrated at least this many
    /// times (the paper's 8-bit anti-ping-pong counter, §4.5).
    pub max_migrations: u8,
}

impl Default for KlocConfig {
    fn default() -> Self {
        KlocConfig {
            enabled: true,
            cpus: 4,
            percpu_capacity: 8,
            included: KernelObjectType::ALL.into_iter().collect(),
            fast_budget_frames: None,
            use_percpu: true,
            max_migrations: 4,
        }
    }
}

/// Counters describing KLOC activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KlocStats {
    /// Knodes created.
    pub knodes_created: u64,
    /// Knodes destroyed.
    pub knodes_destroyed: u64,
    /// Objects added to knodes.
    pub objects_tracked: u64,
    /// Objects removed from knodes.
    pub objects_untracked: u64,
    /// En-masse demotions performed (knodes).
    pub knode_demotions: u64,
    /// Pages moved to slow memory by demotions.
    pub pages_demoted: u64,
    /// En-masse promotions performed (knodes).
    pub knode_promotions: u64,
    /// Pages moved to fast memory by promotions.
    pub pages_promoted: u64,
    /// Demotions skipped by the anti-ping-pong counter.
    pub pingpong_skips: u64,
}

/// The KLOC engine.
#[derive(Debug)]
pub struct KlocRegistry {
    config: KlocConfig,
    /// `config.included` as a bitmask over `KernelObjectType`
    /// discriminants, so the per-hook inclusion test is one AND.
    included: u32,
    kmap: Kmap,
    percpu: PerCpuKnodeLists,
    stats: KlocStats,
    /// Bumped on every promotion event — by the registry's own walks
    /// and by [`KlocRegistry::note_external_promotions`]. Keys the knode
    /// demotion memoizations: any promotion can hand fast-tier
    /// residency to a frame shared with *other* knodes (slab pages), so
    /// a per-knode invalidation would be unsound.
    promotion_epoch: u64,
    /// Count of foreign demotions; with `promotion_epoch` it keys the
    /// en-masse settled cache, whose ping-pong charge a foreign tier
    /// change can alter. (The registry's own demotions never touch
    /// frames a settled walk could still move, so they don't key it.)
    extern_demotions: u64,
    /// Per-tenant count of knode accesses that crossed a tenant
    /// boundary (accessor != knode owner), dense by the *accessor's*
    /// [`TenantId::index`] — the shared-inode / shared-socket
    /// attribution signal of the multi-tenant model.
    shared_accesses: Vec<u64>,
    /// The shortest demotion window that has parked a member. Every
    /// parked frame was idle at least this long when parked, so a
    /// promotion window below it can never want a parked frame.
    park_window: Nanos,
    /// Diagnostic probe: members parked so far. Not part of any report
    /// (like [`Kmap::knodes_examined`]); tests use it to prove parking
    /// fires.
    parks: u64,
}

impl KlocRegistry {
    /// Creates a registry with the given configuration.
    pub fn new(config: KlocConfig) -> Self {
        let percpu = PerCpuKnodeLists::new(config.cpus.max(1), config.percpu_capacity.max(1));
        let included = config
            .included
            .iter()
            .fold(0u32, |mask, &ty| mask | type_bit(ty));
        KlocRegistry {
            included,
            percpu,
            kmap: Kmap::new(),
            stats: KlocStats::default(),
            promotion_epoch: 0,
            extern_demotions: 0,
            shared_accesses: Vec::new(),
            park_window: Nanos::new(u64::MAX),
            parks: 0,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &KlocConfig {
        &self.config
    }

    /// Activity counters.
    pub fn stats(&self) -> &KlocStats {
        &self.stats
    }

    /// The global kmap.
    pub fn kmap(&self) -> &Kmap {
        &self.kmap
    }

    /// The per-CPU fast-path lists.
    pub fn percpu(&self) -> &PerCpuKnodeLists {
        &self.percpu
    }

    /// Whether `ty` participates in KLOC management.
    #[inline]
    pub fn includes(&self, ty: KernelObjectType) -> bool {
        self.included & type_bit(ty) != 0
    }

    /// Members parked by the demotion walks so far (diagnostic; see the
    /// field doc).
    pub fn parks(&self) -> u64 {
        self.parks
    }

    // ------------------------------------------------------------------
    // Event reactions (forwarded from KernelHooks by the policy)
    // ------------------------------------------------------------------

    /// Inode created: allocate its knode (the paper binds knode lifetime
    /// to inode lifetime, §4.2.2).
    pub fn inode_created(&mut self, inode: InodeId, cpu: CpuId, now: Nanos) {
        self.inode_created_by(inode, cpu, TenantId::DEFAULT, now);
    }

    /// [`KlocRegistry::inode_created`] with an explicit owner tenant:
    /// the creating tenant becomes the knode's owner for shared-access
    /// attribution. The tenant-less variant owns to
    /// [`TenantId::DEFAULT`].
    pub fn inode_created_by(&mut self, inode: InodeId, cpu: CpuId, tenant: TenantId, now: Nanos) {
        if !self.config.enabled {
            return;
        }
        let mut k = Knode::new(inode, now);
        k.set_owner(tenant);
        k.touch_at(cpu, now, self.kmap.epoch());
        let slot = self.kmap.map_knode(k);
        if self.config.use_percpu {
            self.percpu.touch(cpu, inode, slot);
        }
        self.stats.knodes_created += 1;
        emit_knode_state(inode, now, "created");
    }

    /// The owner tenant of `inode`'s knode ([`TenantId::DEFAULT`] when
    /// it was created without one or no longer exists).
    pub fn knode_owner(&self, inode: InodeId) -> TenantId {
        self.kmap.get(inode).map_or(TenantId::DEFAULT, Knode::owner)
    }

    /// Knode accesses by `tenant` that touched another tenant's knode
    /// (shared files and shared sockets).
    pub fn shared_accesses_of(&self, tenant: TenantId) -> u64 {
        self.shared_accesses
            .get(tenant.index())
            .copied()
            .unwrap_or(0)
    }

    /// Inode (re)opened: mark the knode active.
    pub fn inode_opened(&mut self, inode: InodeId, cpu: CpuId, now: Nanos) {
        let Some(slot) = self.kmap.slot_of(inode) else {
            return;
        };
        let was_inuse = self.kmap.with_knode_mut_at(slot, |k, epoch| {
            let was = k.inuse();
            k.set_inuse_at(true, epoch);
            k.touch_at(cpu, now, epoch);
            was
        });
        if was_inuse == Some(false) {
            emit_knode_state(inode, now, "active");
        }
        if self.config.enabled && self.config.use_percpu {
            self.percpu.touch(cpu, inode, slot);
        }
    }

    /// Last handle closed: the knode is now inactive — the "definitely
    /// cold" signal (§3.2). It starts aging from this epoch.
    pub fn inode_closed(&mut self, inode: InodeId, now: Nanos) {
        let was_inuse = self.kmap.with_knode_mut(inode, |k, epoch| {
            let was = k.inuse();
            k.set_inuse_at(false, epoch);
            was
        });
        if was_inuse == Some(true) {
            emit_knode_state(inode, now, "inactive");
        }
    }

    /// Inode destroyed: tear the knode down (objects are *freed*, not
    /// migrated, §3.2).
    pub fn inode_destroyed(&mut self, inode: InodeId, now: Nanos) {
        if self.kmap.unmap(inode).is_some() {
            self.stats.knodes_destroyed += 1;
            emit_knode_state(inode, now, "destroyed");
        }
        self.percpu.purge(inode);
    }

    /// Object allocated: add it to its inode's knode (when the type is
    /// included), going through the per-CPU fast path.
    pub fn object_allocated(
        &mut self,
        obj: ObjectId,
        info: &ObjectInfo,
        frame: FrameId,
        cpu: CpuId,
        now: Nanos,
    ) {
        if !self.config.enabled || !self.includes(info.ty) {
            return;
        }
        let Some(inode) = info.inode else { return };
        if self.knode_event(cpu, inode, |k, epoch| {
            k.add_obj(obj, info.ty, frame);
            k.touch_at(cpu, now, epoch);
        }) {
            self.stats.objects_tracked += 1;
            kloc_trace::with_counters(|c| c.member_adds += 1);
        }
    }

    /// Late socket association (ingress without early demux): identical
    /// to allocation tracking but arriving from the TCP layer.
    pub fn object_associated(
        &mut self,
        obj: ObjectId,
        info: &ObjectInfo,
        frame: FrameId,
        cpu: CpuId,
        now: Nanos,
    ) {
        self.object_allocated(obj, info, frame, cpu, now);
    }

    /// Object freed: drop it from its knode.
    pub fn object_freed(&mut self, obj: ObjectId, info: &ObjectInfo) {
        let Some(inode) = info.inode else { return };
        if self
            .kmap
            .with_knode_mut(inode, |k, _| k.remove_obj(obj, info.ty))
            .unwrap_or(false)
        {
            self.stats.objects_untracked += 1;
            kloc_trace::with_counters(|c| c.member_dels += 1);
        }
    }

    /// Object accessed: refresh its knode's recency via the fast path.
    pub fn object_accessed(&mut self, info: &ObjectInfo, cpu: CpuId, now: Nanos) {
        if !self.config.enabled || !self.includes(info.ty) {
            return;
        }
        let Some(inode) = info.inode else { return };
        self.knode_event(cpu, inode, |k, epoch| k.touch_at(cpu, now, epoch));
    }

    /// [`KlocRegistry::object_accessed`] with the accessing tenant: when
    /// the knode exists and the accessor differs from its owner, the
    /// access is counted as shared (cross-tenant) against the accessor.
    /// The owner is read inside the same knode lookup as the touch.
    pub fn object_accessed_by(
        &mut self,
        info: &ObjectInfo,
        cpu: CpuId,
        tenant: TenantId,
        now: Nanos,
    ) {
        if !self.config.enabled || !self.includes(info.ty) {
            return;
        }
        let Some(inode) = info.inode else { return };
        let mut owner = tenant;
        self.knode_event(cpu, inode, |k, epoch| {
            owner = k.owner();
            k.touch_at(cpu, now, epoch);
        });
        if owner != tenant {
            let i = tenant.index();
            if i >= self.shared_accesses.len() {
                self.shared_accesses.resize(i + 1, 0);
            }
            self.shared_accesses[i] += 1;
        }
    }

    /// Hot-path knode mutation: per-CPU list first, then a counted kmap
    /// traversal on miss (this split is what the §4.3 ablation measures).
    /// A hit carries the knode's storage slot, so the mutation is one
    /// array access — the kmap tree is never walked. Returns whether the
    /// knode exists.
    fn knode_event(&mut self, cpu: CpuId, inode: InodeId, f: impl FnOnce(&mut Knode, u64)) -> bool {
        if self.config.use_percpu {
            if let Some(slot) = self.percpu.lookup(cpu, inode) {
                return self.kmap.with_knode_mut_at(slot, f).is_some();
            }
            let found = self.kmap.with_knode_mut_counted(inode, f).is_some();
            if found {
                let slot = self.kmap.slot_of(inode).expect("knode just mutated"); // lint: unwrap-ok — with_knode_mut_counted found the knode
                self.percpu.touch(cpu, inode, slot);
            }
            found
        } else {
            self.kmap.with_knode_mut_counted(inode, f).is_some()
        }
    }

    // ------------------------------------------------------------------
    // Policy queries + migration mechanism
    // ------------------------------------------------------------------

    /// Whether the inode's knode is currently in use. `None` when no
    /// knode exists.
    pub fn is_active(&self, inode: InodeId) -> Option<bool> {
        self.kmap.get(inode).map(Knode::inuse)
    }

    /// Inactive knodes whose last activity is older than `min_idle`
    /// before `now`, oldest first.
    pub fn cold_knodes(&self, now: Nanos, min_idle: Nanos) -> Vec<InodeId> {
        self.kmap
            .inactive_knodes()
            .into_iter()
            .filter(|i| {
                self.kmap
                    .get(*i)
                    .map(|k| now.saturating_sub(k.last_active()) >= min_idle)
                    .unwrap_or(false)
            })
            .collect()
    }

    /// Appends to `out` the first `max` inodes, in inode order, of
    /// inactive knodes aged at least `min_age` that still track members
    /// — the per-tick demotion batch, read off the kmap's incrementally
    /// maintained cold index in O(batch).
    pub fn cold_member_candidates(&mut self, min_age: u32, max: usize, out: &mut Vec<InodeId>) {
        self.kmap.cold_inodes_with_members(min_age, max, out);
    }

    /// Ages all knodes and per-CPU entries by one scan epoch (§4.3: age
    /// increments when the LRU policy scans without evicting). O(1) —
    /// both structures age lazily off a shared counter; nothing is
    /// walked.
    pub fn age_epoch(&mut self) {
        self.kmap.advance_epoch();
        self.percpu.age_all();
    }

    /// Records that frames were promoted to fast memory by something
    /// other than this registry's migration walks (a page-granular scan
    /// policy, a test driving the memory system directly). Required for
    /// correctness whenever member frames can change tier outside
    /// [`KlocRegistry::migrate_knode`] /
    /// [`KlocRegistry::promote_hot_members`] — it invalidates the
    /// demotion-walk memoizations, which otherwise assume they see
    /// every route into fast memory.
    pub fn note_external_promotions(&mut self) {
        self.promotion_epoch += 1;
    }

    /// Records foreign demotions (see
    /// [`KlocRegistry::note_external_promotions`]); these can change the
    /// ping-pong charge a settled en-masse walk memoized.
    pub fn note_external_demotions(&mut self) {
        self.extern_demotions += 1;
    }

    /// Migrates every member frame of `inode`'s knode to `to` — the
    /// en-masse mechanism (paper §4.4). Pinned frames and frames that
    /// exceeded the anti-ping-pong counter are skipped. Returns pages
    /// moved.
    pub fn migrate_knode(&mut self, inode: InodeId, mem: &mut MemorySystem, to: TierId) -> u64 {
        self.migrate_knode_inner(inode, mem, to, u64::MAX).1
    }

    /// Like [`KlocRegistry::migrate_knode`] but moves at most
    /// `max_pages` (partial promotion into limited fast-memory room).
    pub fn migrate_knode_limited(
        &mut self,
        inode: InodeId,
        mem: &mut MemorySystem,
        to: TierId,
        max_pages: u64,
    ) -> u64 {
        self.migrate_knode_inner(inode, mem, to, max_pages).1
    }

    /// En-masse demotion fused with staging accounting: returns
    /// `(member frames staged, pages moved)` off a single knode lookup,
    /// so the per-tick demote loop doesn't pay two index searches per
    /// candidate (staging size, then the walk).
    pub fn demote_knode_staged(&mut self, inode: InodeId, mem: &mut MemorySystem) -> (u64, u64) {
        self.migrate_knode_inner(inode, mem, TierId::SLOW, u64::MAX)
    }

    fn migrate_knode_inner(
        &mut self,
        inode: InodeId,
        mem: &mut MemorySystem,
        to: TierId,
        max_pages: u64,
    ) -> (u64, u64) {
        let Some(k) = self.kmap.get(inode) else {
            return (0, 0);
        };
        let staged = k.member_frame_count() as u64;
        let demoting = to != TierId::FAST;
        let epoch = self.promotion_epoch + self.extern_demotions;
        let max_migrations = self.config.max_migrations;
        if demoting {
            // A settled walk left nothing movable toward `to`; a repeat
            // walk charges exactly the memoized ping-pong skips and
            // moves nothing, so answer it without re-probing frames.
            if let Some((cached_to, skips, cached_epoch)) = k.enmasse_cache() {
                if cached_to == to && cached_epoch == epoch {
                    #[cfg(feature = "ksan")]
                    ksan_check_memo(k, mem, "enmasse_cache", max_pages, skips, |f| {
                        (f.tier != to && !f.pinned).then_some(f.migrations < max_migrations)
                    });
                    self.stats.pingpong_skips += skips;
                    return (staged, 0);
                }
            }
        }
        let mut pingpong_skips = 0;
        let mut moved = 0;
        let mut settled = true;
        let mut promoted_shared = false;
        for frame in k.member_frames() {
            if moved >= max_pages {
                // Budget break: movable frames may remain.
                settled = false;
                break;
            }
            // Tier-only probe first: frames already on the target
            // tier (the bulk of a re-walked knode) cost one column
            // read, not the full meta materialization.
            match mem.tier_if_live(frame) {
                Some(t) if t != to => {}
                _ => continue,
            }
            let Some(f) = mem.frame_meta(frame) else {
                continue;
            };
            if f.pinned {
                continue;
            }
            if demoting && f.migrations >= max_migrations {
                pingpong_skips += 1;
                continue;
            }
            if mem.migrate(frame, to).is_ok() {
                moved += 1;
                promoted_shared |= !demoting && frame_is_shared(f.kind);
            } else {
                // The frame stays movable; the walk is not settled.
                settled = false;
            }
        }
        if demoting && settled {
            k.set_enmasse_cache(to, pingpong_skips, epoch);
        } else if !demoting && moved > 0 {
            if promoted_shared {
                // Packed frames are shared with other knodes, so every
                // knode's demotion memoizations are stale.
                self.promotion_epoch += 1;
            } else {
                // Single-owner frames gained fast residency: only this
                // knode's memoizations are stale.
                k.clear_walk_caches();
            }
        }
        self.stats.pingpong_skips += pingpong_skips;
        if moved > 0 {
            if demoting {
                self.stats.knode_demotions += 1;
                self.stats.pages_demoted += moved;
            } else {
                self.stats.knode_promotions += 1;
                self.stats.pages_promoted += moved;
            }
            let dir = if demoting { "demote" } else { "promote" };
            self.emit_kloc_migrate(inode, mem, dir, "enmasse", moved);
        }
        (staged, moved)
    }

    /// Demotes member frames of `inode` that have not been accessed for
    /// `older_than` — the knode's "table of contents" makes this a direct
    /// walk over exactly the relevant frames, no page-table scan (§4.1).
    /// Used for partially-cold active knodes (an append-only log's old
    /// pages). Returns pages moved.
    pub fn demote_cold_members(
        &mut self,
        inode: InodeId,
        mem: &mut MemorySystem,
        older_than: Nanos,
        max_pages: u64,
    ) -> u64 {
        self.unpark_woken(mem);
        let Some(slot) = self.kmap.slot_of(inode) else {
            return 0;
        };
        let Some(k) = self.kmap.knode_at_mut(slot) else {
            return 0;
        };
        #[cfg(feature = "ksan")]
        ksan_check_parked(k, slot, mem, self.park_window);
        let now = mem.now();
        let epoch = self.promotion_epoch;
        let max_migrations = self.config.max_migrations;
        // Candidacy only arises by time passing (touches push it later,
        // demotions remove candidates), so a completed walk's bound on
        // the next movable instant short-circuits the common re-walk of
        // an all-hot knode.
        if let Some((key, bound, cached_epoch)) = k.demote_bound() {
            if key == older_than && cached_epoch == epoch && now < bound {
                #[cfg(feature = "ksan")]
                ksan_check_memo(k, mem, "demote_bound", max_pages, 0, |f| {
                    let cold = now.saturating_sub(f.last_access) >= older_than;
                    (cold && f.tier == TierId::FAST && !f.pinned && f.migrations < max_migrations)
                        .then_some(true)
                });
                return 0;
            }
        }
        let mut moved = 0;
        let mut settled = true;
        let mut next_candidacy = u64::MAX;
        let mut parked = 0;
        for (frame, word) in k.frame_refs_mut().entries_mut() {
            if moved >= max_pages {
                settled = false;
                break;
            }
            // Parked members are slow-resident, so never candidates;
            // leaving them out of the bound keeps it a lower bound,
            // since only a promotion can make them candidates again
            // and every promotion route invalidates the bound.
            if word.parked() {
                continue;
            }
            // Recency first: most members of an active knode were
            // touched within `older_than`, so the common reject
            // path reads one column. Folding too-recent frames into
            // the bound regardless of tier keeps it a (conservative)
            // lower bound on the next movable instant.
            let Some(last) = mem.last_access_if_live(frame) else {
                continue;
            };
            if now.saturating_sub(last) < older_than {
                next_candidacy =
                    next_candidacy.min(last.as_nanos().saturating_add(older_than.as_nanos()));
                continue;
            }
            // Only fast-tier frames are demotion candidates. A cold
            // single-owner frame elsewhere is parked until the memory
            // system reports its next touch or migration.
            if mem.tier_if_live(frame) != Some(TierId::FAST) {
                if mem
                    .frame_meta(frame)
                    .is_some_and(|f| !frame_is_shared(f.kind))
                    && mem.watch(frame, slot)
                {
                    word.park();
                    parked += 1;
                }
                continue;
            }
            let Some(f) = mem.frame_meta(frame) else {
                continue;
            };
            if f.pinned || f.migrations >= max_migrations {
                continue;
            }
            if mem.migrate(frame, TierId::SLOW).is_ok() {
                moved += 1;
            } else {
                settled = false;
            }
        }
        if settled {
            k.set_demote_bound(older_than, Nanos::new(next_candidacy), epoch);
        }
        if parked > 0 {
            self.parks += parked;
            self.park_window = self.park_window.min(older_than);
        }
        if moved > 0 {
            self.stats.pages_demoted += moved;
            self.emit_kloc_migrate(inode, mem, "demote", "members", moved);
        }
        moved
    }

    /// Promotes member frames of `inode` that were accessed within
    /// `newer_than` but reside in slow memory — per-page hotness through
    /// the knode shortcut (the paper's slow-to-fast "retrieval" path,
    /// 4-12 % of migrations, §4.4). Returns pages moved.
    ///
    /// # Panics
    /// Panics if `newer_than` is not shorter than every demotion window
    /// that parked a member: a parked member must never be hot.
    pub fn promote_hot_members(
        &mut self,
        inode: InodeId,
        mem: &mut MemorySystem,
        newer_than: Nanos,
        max_pages: u64,
    ) -> u64 {
        assert!(
            newer_than < self.park_window,
            "promotion window {newer_than} must be shorter than the demotion window {} \
             that parked members",
            self.park_window
        );
        self.unpark_woken(mem);
        let Some(slot) = self.kmap.slot_of(inode) else {
            return 0;
        };
        let Some(k) = self.kmap.knode_at_mut(slot) else {
            return 0;
        };
        #[cfg(feature = "ksan")]
        ksan_check_parked(k, slot, mem, self.park_window);
        let now = mem.now();
        let mut moved = 0;
        let mut promoted_shared = false;
        for (frame, word) in k.frame_refs_mut().entries_mut() {
            if moved >= max_pages {
                break;
            }
            // Parked members are slow-resident but idle beyond this
            // window, so never promoted.
            if word.parked() {
                continue;
            }
            // Frames already fast (the bulk of a hot knode) are
            // rejected on the tier-only probe.
            match mem.tier_if_live(frame) {
                Some(t) if t != TierId::FAST => {}
                _ => continue,
            }
            let Some(f) = mem.frame_meta(frame) else {
                continue;
            };
            if !f.pinned
                && now.saturating_sub(f.last_access) <= newer_than
                && mem.migrate(frame, TierId::FAST).is_ok()
            {
                moved += 1;
                promoted_shared |= frame_is_shared(f.kind);
            }
        }
        if moved > 0 {
            if promoted_shared {
                // Packed frames are shared with other knodes: every
                // knode's demotion memoizations are stale.
                self.promotion_epoch += 1;
            } else {
                k.clear_walk_caches();
            }
            self.stats.pages_promoted += moved;
            self.emit_kloc_migrate(inode, mem, "promote", "members", moved);
        }
        moved
    }

    /// Drains the memory system's wake log, unparking every woken
    /// member: each entry names a watched frame that was touched or
    /// migrated, tagged with the kmap slot of the knode that parked it.
    /// A slot recycled since is harmless — its knode either does not
    /// hold the frame or parked it under the same tag.
    fn unpark_woken(&mut self, mem: &mut MemorySystem) {
        for (frame, slot) in mem.drain_wakes() {
            if let Some(k) = self.kmap.knode_at_mut(slot) {
                k.frame_refs_mut().unpark(frame);
            }
        }
    }

    /// Emits a `kloc_migrate` decision event carrying the epoch evidence
    /// and the knode's post-move tier residency. The residency walk only
    /// happens inside the closure, i.e. when a trace recorder is active.
    fn emit_kloc_migrate(
        &self,
        inode: InodeId,
        mem: &MemorySystem,
        dir: &'static str,
        how: &'static str,
        moved: u64,
    ) {
        kloc_trace::emit(|| {
            let (mut fast, mut slow) = (0u64, 0u64);
            if let Some(k) = self.kmap.get(inode) {
                for f in k.member_frames().filter_map(|f| mem.frame_meta(f)) {
                    if f.tier == TierId::FAST {
                        fast += 1;
                    } else {
                        slow += 1;
                    }
                }
            }
            kloc_trace::Event::KlocMigrate {
                t: mem.now().as_nanos(),
                ino: inode.0,
                dir: dir.to_owned(),
                how: how.to_owned(),
                epoch: self.kmap.epoch(),
                age: u64::from(self.kmap.age_of(inode).unwrap_or(0)),
                moved,
                fast,
                slow,
            }
        });
    }

    /// Frames backing all members of `inode`'s knode (deduplicated).
    pub fn member_frames(&self, inode: InodeId) -> Vec<FrameId> {
        self.kmap
            .get(inode)
            .map(|k| k.member_frames().collect())
            .unwrap_or_default()
    }

    /// Number of distinct frames backing members of `inode`'s knode —
    /// O(1), no collection.
    pub fn member_frame_count(&self, inode: InodeId) -> usize {
        self.kmap.get(inode).map_or(0, Knode::member_frame_count)
    }
}

/// `ty`'s bit in [`KlocRegistry::included`].
fn type_bit(ty: KernelObjectType) -> u32 {
    1 << ty as u32
}

/// Whether frames of this kind pack objects of several inodes (slab
/// caches pack by type, kvma arenas by inode shard), meaning a tier
/// change seen through one knode can affect another knode's members.
/// Page-backed kinds hold exactly one object, owned by one knode.
fn frame_is_shared(kind: PageKind) -> bool {
    matches!(kind, PageKind::Slab | PageKind::KernelVma)
}

/// Emits a `knode` lifecycle event (created/active/inactive/destroyed).
fn emit_knode_state(inode: InodeId, now: Nanos, state: &'static str) {
    kloc_trace::emit(|| kloc_trace::Event::Knode {
        t: now.as_nanos(),
        ino: inode.0,
        state: state.to_owned(),
    });
}

/// KSAN oracle for the migration-walk memos: on a memo hit, re-probes
/// `k`'s member frames read-only and panics with a violation report
/// unless the uncached walk would move nothing and charge exactly the
/// memoized `skips` ping-pong skips. `classify` mirrors the walk's
/// per-frame decision: `Some(true)` = it would migrate the frame,
/// `Some(false)` = it would charge a skip, `None` = it passes over it.
/// Observation only: the memo's answer is still the one returned.
#[cfg(feature = "ksan")]
fn ksan_check_memo(
    k: &Knode,
    mem: &MemorySystem,
    memo: &str,
    max_pages: u64,
    skips: u64,
    classify: impl Fn(&kloc_mem::FrameMeta) -> Option<bool>,
) {
    let (mut movable, mut walk_skips) = (Vec::new(), 0u64);
    // With nothing movable, the walk's budget break can only fire before
    // the first frame.
    if max_pages > 0 {
        for frame in k.member_frames() {
            match mem.frame_meta(frame).and_then(|f| classify(&f)) {
                Some(true) => movable.push(frame),
                Some(false) => walk_skips += 1,
                None => {}
            }
        }
    }
    if !movable.is_empty() || walk_skips != skips {
        let v = kloc_mem::ksan::Violation::new(
            format!("Knode.{memo} <-> member frames"),
            format!("{}", k.inode()),
            "a memo hit answers what the uncached walk would: no move, same ping-pong skips",
            format!("movable [], skips {skips}"),
            format!("movable {movable:?}, skips {walk_skips}"),
        );
        kloc_mem::ksan::enforce("walk memo oracle", &[v]);
    }
}

/// KSAN oracle for parked members, run by each member walk right after
/// it drains the wake log: re-probes `k`'s parked entries read-only and
/// panics with a violation report unless every live one is
/// slow-resident, idle at least `park_window`, and watched under the
/// knode's kmap `slot` — the park invariant that makes skipping it a
/// no-op.
#[cfg(feature = "ksan")]
fn ksan_check_parked(k: &Knode, slot: u32, mem: &MemorySystem, park_window: Nanos) {
    let now = mem.now();
    let broken: Vec<String> = k
        .parked_frames()
        .filter_map(|frame| {
            let f = mem.frame_meta(frame)?;
            let tag = mem.watch_tag(frame);
            let idle = now.saturating_sub(f.last_access);
            (f.tier == TierId::FAST || idle < park_window || tag != Some(slot))
                .then(|| format!("{frame}: {} idle {idle} watch {tag:?}", f.tier))
        })
        .collect();
    if !broken.is_empty() {
        let v = kloc_mem::ksan::Violation::new(
            "Knode.parked <-> member frames",
            format!("{}", k.inode()),
            "a parked live member is slow-resident, idle beyond every member window, and watched with its knode's slot",
            format!("not fast, idle >= {park_window}, watch Some({slot})"),
            broken.join("; "),
        );
        kloc_mem::ksan::enforce("park invariant oracle", &[v]);
    }
}

#[cfg(feature = "ksan")]
impl KlocRegistry {
    /// Audits the whole KLOC engine: the kmap's internal invariants plus
    /// every per-CPU fast-path entry against the kmap. Observation only.
    pub fn ksan_audit(&self, out: &mut Vec<kloc_mem::ksan::Violation>) {
        self.kmap.ksan_audit(out);
        self.percpu.ksan_audit(&self.kmap, out);
    }

    /// Corruption hooks for sanitizer self-tests, forwarded to the kmap.
    #[doc(hidden)]
    pub fn ksan_kmap_mut(&mut self) -> &mut Kmap {
        &mut self.kmap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kloc_mem::{PageKind, PAGE_SIZE};

    fn info(ty: KernelObjectType, ino: u64) -> ObjectInfo {
        ObjectInfo {
            ty,
            size: ty.size(),
            inode: Some(InodeId(ino)),
        }
    }

    #[test]
    fn lifecycle_creates_and_destroys_knodes() {
        let mut r = KlocRegistry::new(KlocConfig::default());
        r.inode_created(InodeId(1), CpuId(0), Nanos::ZERO);
        assert_eq!(r.kmap().len(), 1);
        assert_eq!(r.is_active(InodeId(1)), Some(true));
        r.inode_closed(InodeId(1), Nanos::ZERO);
        assert_eq!(r.is_active(InodeId(1)), Some(false));
        r.inode_destroyed(InodeId(1), Nanos::ZERO);
        assert_eq!(r.kmap().len(), 0);
        assert_eq!(r.stats().knodes_created, 1);
        assert_eq!(r.stats().knodes_destroyed, 1);
    }

    #[test]
    fn objects_tracked_and_untracked() {
        let mut r = KlocRegistry::new(KlocConfig::default());
        r.inode_created(InodeId(1), CpuId(0), Nanos::ZERO);
        let i = info(KernelObjectType::PageCache, 1);
        r.object_allocated(ObjectId(5), &i, FrameId(9), CpuId(0), Nanos::ZERO);
        assert_eq!(r.member_frames(InodeId(1)), vec![FrameId(9)]);
        assert_eq!(r.member_frame_count(InodeId(1)), 1);
        r.object_freed(ObjectId(5), &i);
        assert!(r.member_frames(InodeId(1)).is_empty());
        assert_eq!(r.member_frame_count(InodeId(1)), 0);
        assert_eq!(r.stats().objects_tracked, 1);
        assert_eq!(r.stats().objects_untracked, 1);
    }

    #[test]
    fn excluded_types_not_tracked() {
        let mut cfg = KlocConfig::default();
        cfg.included.remove(&KernelObjectType::SkBuff);
        let mut r = KlocRegistry::new(cfg);
        r.inode_created(InodeId(1), CpuId(0), Nanos::ZERO);
        r.object_allocated(
            ObjectId(5),
            &info(KernelObjectType::SkBuff, 1),
            FrameId(9),
            CpuId(0),
            Nanos::ZERO,
        );
        assert!(r.member_frames(InodeId(1)).is_empty());
    }

    #[test]
    fn disabled_registry_tracks_nothing() {
        let mut r = KlocRegistry::new(KlocConfig {
            enabled: false,
            ..KlocConfig::default()
        });
        r.inode_created(InodeId(1), CpuId(0), Nanos::ZERO);
        assert_eq!(r.kmap().len(), 0);
    }

    #[test]
    fn cold_knodes_respect_idle_threshold() {
        let mut r = KlocRegistry::new(KlocConfig::default());
        r.inode_created(InodeId(1), CpuId(0), Nanos::ZERO);
        r.inode_created(InodeId(2), CpuId(0), Nanos::from_millis(10));
        r.inode_closed(InodeId(1), Nanos::ZERO);
        r.inode_closed(InodeId(2), Nanos::ZERO);
        let now = Nanos::from_millis(11);
        // Only inode 1 has been idle >= 5ms.
        assert_eq!(r.cold_knodes(now, Nanos::from_millis(5)), vec![InodeId(1)]);
        // Reopening makes it hot again.
        r.inode_opened(InodeId(1), CpuId(0), now);
        assert!(
            r.cold_knodes(now, Nanos::ZERO).is_empty() || {
                // inode 2 is still inactive with 1ms idle; with zero threshold
                // it is cold.
                r.cold_knodes(now, Nanos::ZERO) == vec![InodeId(2)]
            }
        );
    }

    #[test]
    fn migrate_knode_moves_members_en_masse() {
        let mut mem = MemorySystem::two_tier(64 * PAGE_SIZE, 8);
        let mut r = KlocRegistry::new(KlocConfig::default());
        r.inode_created(InodeId(1), CpuId(0), Nanos::ZERO);
        // Three relocatable member pages + one pinned slab page.
        let mut frames = Vec::new();
        for i in 0..3u64 {
            let f = mem.allocate(TierId::FAST, PageKind::PageCache).unwrap();
            r.object_allocated(
                ObjectId(i),
                &info(KernelObjectType::PageCache, 1),
                f,
                CpuId(0),
                Nanos::ZERO,
            );
            frames.push(f);
        }
        let pinned = mem.allocate(TierId::FAST, PageKind::Slab).unwrap();
        r.object_allocated(
            ObjectId(99),
            &info(KernelObjectType::Dentry, 1),
            pinned,
            CpuId(0),
            Nanos::ZERO,
        );

        let moved = r.migrate_knode(InodeId(1), &mut mem, TierId::SLOW);
        assert_eq!(moved, 3, "pinned page skipped");
        for f in &frames {
            assert_eq!(mem.tier_of(*f), TierId::SLOW);
        }
        assert_eq!(mem.tier_of(pinned), TierId::FAST);
        assert_eq!(r.stats().knode_demotions, 1);
        assert_eq!(r.stats().pages_demoted, 3);

        // Promote back.
        let back = r.migrate_knode(InodeId(1), &mut mem, TierId::FAST);
        assert_eq!(back, 3);
        assert_eq!(r.stats().pages_promoted, 3);
    }

    #[test]
    fn pingpong_guard_skips_hot_movers() {
        let mut mem = MemorySystem::two_tier(64 * PAGE_SIZE, 8);
        let mut r = KlocRegistry::new(KlocConfig {
            max_migrations: 2,
            ..KlocConfig::default()
        });
        r.inode_created(InodeId(1), CpuId(0), Nanos::ZERO);
        let f = mem.allocate(TierId::FAST, PageKind::PageCache).unwrap();
        r.object_allocated(
            ObjectId(1),
            &info(KernelObjectType::PageCache, 1),
            f,
            CpuId(0),
            Nanos::ZERO,
        );
        // Bounce twice: 2 migrations on the frame.
        r.migrate_knode(InodeId(1), &mut mem, TierId::SLOW);
        r.migrate_knode(InodeId(1), &mut mem, TierId::FAST);
        // Third demotion attempt is skipped by the guard.
        let moved = r.migrate_knode(InodeId(1), &mut mem, TierId::SLOW);
        assert_eq!(moved, 0);
        assert_eq!(r.stats().pingpong_skips, 1);
        assert_eq!(mem.tier_of(f), TierId::FAST, "page retained in fast memory");
    }

    /// Runs `walk` twice over inode 1, whose members are one page-cache
    /// frame per tier in `tiers`; between the walks the first frame is
    /// promoted behind the registry's back (no `note_external_*`), so
    /// the second walk's memo hit must trip the KSAN oracle.
    #[cfg(feature = "ksan")]
    fn walk_around_unannounced_promotion(
        tiers: &[TierId],
        walk: impl Fn(&mut KlocRegistry, &mut MemorySystem),
    ) {
        let mut mem = MemorySystem::two_tier(64 * PAGE_SIZE, 8);
        let mut r = KlocRegistry::new(KlocConfig::default());
        r.inode_created(InodeId(1), CpuId(0), Nanos::ZERO);
        let i = info(KernelObjectType::PageCache, 1);
        let frames: Vec<FrameId> = (0u64..)
            .zip(tiers)
            .map(|(n, &tier)| {
                let f = mem.allocate(tier, PageKind::PageCache).unwrap();
                r.object_allocated(ObjectId(n), &i, f, CpuId(0), Nanos::ZERO);
                f
            })
            .collect();
        mem.charge(Nanos::from_millis(10));
        mem.read(frames[tiers.len() - 1], 64);
        walk(&mut r, &mut mem);
        if mem.tier_of(frames[0]) != TierId::FAST {
            mem.migrate(frames[0], TierId::FAST).unwrap();
        }
        walk(&mut r, &mut mem);
    }

    #[cfg(feature = "ksan")]
    #[test]
    #[should_panic(expected = "Knode.enmasse_cache <-> member frames")]
    fn unannounced_promotion_trips_the_enmasse_memo_oracle() {
        walk_around_unannounced_promotion(&[TierId::FAST], |r, mem| {
            r.migrate_knode(InodeId(1), mem, TierId::SLOW);
        });
    }

    #[cfg(feature = "ksan")]
    #[test]
    #[should_panic(expected = "Knode.demote_bound <-> member frames")]
    fn unannounced_promotion_trips_the_demote_memo_oracle() {
        // The cold frame starts on slow memory, so only the hot one
        // bounds the next candidacy (at ~15 ms).
        walk_around_unannounced_promotion(&[TierId::SLOW, TierId::FAST], |r, mem| {
            r.demote_cold_members(InodeId(1), mem, Nanos::from_millis(5), 8);
        });
    }

    /// Inode 1 with one page-cache member per tier in `tiers`, all last
    /// touched at time 0, then 20 ms of idle time.
    fn idle_members(tiers: &[TierId]) -> (KlocRegistry, MemorySystem, Vec<FrameId>) {
        let mut mem = MemorySystem::two_tier(64 * PAGE_SIZE, 8);
        let mut r = KlocRegistry::new(KlocConfig::default());
        r.inode_created(InodeId(1), CpuId(0), Nanos::ZERO);
        let i = info(KernelObjectType::PageCache, 1);
        let frames = (0u64..)
            .zip(tiers)
            .map(|(n, &tier)| {
                let f = mem.allocate(tier, PageKind::PageCache).unwrap();
                r.object_allocated(ObjectId(n), &i, f, CpuId(0), Nanos::ZERO);
                f
            })
            .collect();
        mem.charge(Nanos::from_millis(20));
        (r, mem, frames)
    }

    #[test]
    fn cold_slow_members_park_until_the_memory_system_wakes_them() {
        let (mut r, mut mem, frames) = idle_members(&[TierId::SLOW, TierId::SLOW, TierId::FAST]);
        let slot = r.kmap().slot_of(InodeId(1)).unwrap();
        let idle = Nanos::from_millis(15);
        assert_eq!(r.demote_cold_members(InodeId(1), &mut mem, idle, 8), 1);
        assert_eq!(r.parks(), 2, "both cold slow members parked");
        assert_eq!(mem.watch_tag(frames[0]), Some(slot));
        assert_eq!(mem.watch_tag(frames[2]), None, "demoted, not parked");
        assert_eq!(r.kmap().get(InodeId(1)).unwrap().parked_count(), 2);
        // A touch wakes frame 0; the next walk unparks and promotes it.
        mem.read(frames[0], 64);
        assert_eq!(mem.watch_tag(frames[0]), None);
        let hot = Nanos::from_millis(2);
        assert_eq!(r.promote_hot_members(InodeId(1), &mut mem, hot, 8), 1);
        assert_eq!(mem.tier_of(frames[0]), TierId::FAST);
        assert_eq!(r.kmap().get(InodeId(1)).unwrap().parked_count(), 1);
        // A foreign migration wakes frame 1 too.
        mem.migrate(frames[1], TierId::FAST).unwrap();
        r.promote_hot_members(InodeId(1), &mut mem, hot, 8);
        assert_eq!(r.kmap().get(InodeId(1)).unwrap().parked_count(), 0);
        // En-masse walks never skip parked members: frames 1 and 2
        // (demoted by the first walk) park, frame 0 demotes.
        mem.migrate(frames[1], TierId::SLOW).unwrap();
        mem.charge(Nanos::from_millis(20));
        assert_eq!(r.demote_cold_members(InodeId(1), &mut mem, idle, 8), 1);
        assert_eq!(r.parks(), 4);
        assert_eq!(r.migrate_knode(InodeId(1), &mut mem, TierId::FAST), 3);
    }

    #[test]
    fn shared_kinds_never_park() {
        let mut mem = MemorySystem::two_tier(64 * PAGE_SIZE, 8);
        let mut r = KlocRegistry::new(KlocConfig::default());
        r.inode_created(InodeId(1), CpuId(0), Nanos::ZERO);
        let f = mem.allocate(TierId::SLOW, PageKind::KernelVma).unwrap();
        let i = info(KernelObjectType::Dentry, 1);
        r.object_allocated(ObjectId(1), &i, f, CpuId(0), Nanos::ZERO);
        mem.charge(Nanos::from_millis(20));
        r.demote_cold_members(InodeId(1), &mut mem, Nanos::from_millis(15), 8);
        assert_eq!(r.parks(), 0);
        assert_eq!(mem.watch_tag(f), None);
    }

    #[test]
    #[should_panic(expected = "must be shorter than the demotion window")]
    fn promotion_window_must_stay_below_the_park_window() {
        let (mut r, mut mem, _) = idle_members(&[TierId::SLOW]);
        r.demote_cold_members(InodeId(1), &mut mem, Nanos::from_millis(15), 8);
        r.promote_hot_members(InodeId(1), &mut mem, Nanos::from_millis(15), 8);
    }

    #[test]
    fn fast_path_reduces_tree_accesses() {
        // With per-CPU lists, repeated accesses to the same knode hit the
        // fast path; without them, every access traverses the kmap. This
        // is the §4.3 ablation in miniature.
        let mk = |use_percpu: bool| {
            let mut r = KlocRegistry::new(KlocConfig {
                use_percpu,
                ..KlocConfig::default()
            });
            r.inode_created(InodeId(1), CpuId(0), Nanos::ZERO);
            let i = info(KernelObjectType::PageCache, 1);
            for n in 0..100u64 {
                r.object_allocated(ObjectId(n), &i, FrameId(n), CpuId(0), Nanos::ZERO);
            }
            r.kmap().tree_accesses()
        };
        let with = mk(true);
        let without = mk(false);
        assert!(
            with * 2 < without,
            "fast path must cut tree accesses >50%: {with} vs {without}"
        );
    }

    #[test]
    fn shared_accesses_count_only_live_knodes() {
        let mut r = KlocRegistry::new(KlocConfig::default());
        let (owner, guest) = (TenantId(1), TenantId(2));
        r.inode_created_by(InodeId(1), CpuId(0), owner, Nanos::ZERO);
        let i = info(KernelObjectType::PageCache, 1);
        r.object_accessed_by(&i, CpuId(0), guest, Nanos::ZERO);
        r.object_accessed_by(&i, CpuId(0), owner, Nanos::ZERO);
        assert_eq!(r.knode_owner(InodeId(1)), owner);
        assert_eq!(r.shared_accesses_of(guest), 1);
        assert_eq!(r.shared_accesses_of(owner), 0);
        // Once the knode is destroyed, an access (a late event for the
        // dead inode) touches no knode and counts as shared for nobody.
        r.inode_destroyed(InodeId(1), Nanos::ZERO);
        assert_eq!(r.knode_owner(InodeId(1)), TenantId::DEFAULT);
        for tenant in [guest, owner, TenantId::DEFAULT] {
            r.object_accessed_by(&i, CpuId(0), tenant, Nanos::ZERO);
        }
        assert_eq!(r.shared_accesses_of(guest), 1);
        assert_eq!(r.shared_accesses_of(owner), 0);
        assert_eq!(r.shared_accesses_of(TenantId::DEFAULT), 0);
        // Nor does an access to an inode that never had a knode.
        let never = info(KernelObjectType::PageCache, 9);
        r.object_accessed_by(&never, CpuId(0), guest, Nanos::ZERO);
        assert_eq!(r.shared_accesses_of(guest), 1);
    }

    #[test]
    fn age_epoch_only_ages_inactive() {
        let mut r = KlocRegistry::new(KlocConfig::default());
        r.inode_created(InodeId(1), CpuId(0), Nanos::ZERO);
        r.inode_created(InodeId(2), CpuId(0), Nanos::ZERO);
        r.inode_closed(InodeId(2), Nanos::ZERO);
        r.age_epoch();
        r.age_epoch();
        assert_eq!(r.kmap().age_of(InodeId(1)), Some(0));
        assert_eq!(r.kmap().age_of(InodeId(2)), Some(2));
    }

    #[test]
    fn age_epoch_walks_nothing() {
        let mut r = KlocRegistry::new(KlocConfig::default());
        for ino in 1..=200u64 {
            r.inode_created(InodeId(ino), CpuId(0), Nanos::ZERO);
            if ino % 2 == 0 {
                r.inode_closed(InodeId(ino), Nanos::ZERO);
            }
        }
        let before = r.kmap().knodes_examined();
        for _ in 0..1000 {
            r.age_epoch();
        }
        assert_eq!(
            r.kmap().knodes_examined(),
            before,
            "age_epoch must not iterate the kmap"
        );
        assert_eq!(r.kmap().age_of(InodeId(2)), Some(1000));
        assert_eq!(r.kmap().age_of(InodeId(1)), Some(0));
    }
}
