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
//! The member-granular walks pay per candidate, not per member (see the
//! `members` module docs). They skip *parked* members: the demotion
//! walk parks cold slow-tier frames that no member walk can move and
//! asks the memory system to watch them, and the promotion walk parks
//! fast-tier frames, which it cannot move, under a migration-only
//! watch (see the park invariants at [`crate::members::FrameRefs`]).
//! Each walk first drains the memory system's wake log and unparks
//! every woken frame; the wake signal comes from the memory system, so
//! DMA stamps and foreign migrations wake members that no registry hook
//! ever sees. The demotion walk also skips each 128-member chunk whose
//! bound says no member can be cold enough yet. A walk thus costs one
//! visit per member it might move, plus one mask read per chunk and the
//! wakes since the last walk, instead of O(all members).
//!
//! **Membership.** Which objects are knode members is one bit per
//! object-table slot ([`ObjectId::slot`]) in a dense bit vector, not a
//! per-knode table: the kernel's object table keeps its slots dense by
//! recycling freed ones, and it already holds each object's type, inode
//! and frame. The bit vector costs one bit per slot, so it follows the
//! peak number of live objects. Its contract:
//! - an object is a member of at most one knode, the one named by its
//!   inode when it was added (the kernel associates only objects
//!   allocated without an inode, so the inode never changes once set);
//! - an object's frame never changes, so the free hook's frame is the
//!   frame the member was counted on;
//! - every free of a member clears its bit: members always have an
//!   inode, and every free runs [`KlocRegistry::object_freed`]. A
//!   recycled slot therefore starts as a non-member;
//! - inode ids are never reused, so the bits a destroyed knode leaves
//!   behind can never be counted against a new knode; they are cleared
//!   as their objects are freed.

use std::collections::BTreeSet;

use kloc_mem::{FrameId, MemorySystem, Nanos, PageKind, TenantId, TierId};

use kloc_kernel::hooks::CpuId;
use kloc_kernel::vfs::InodeId;
use kloc_kernel::{KernelObjectType, ObjectId, ObjectInfo};

use crate::kmap::Kmap;
use crate::knode::Knode;
use crate::members::{Mask, Walk};
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
    /// Keys the member-demotion chunk bounds (see the `members` module
    /// docs): bumped by the promotions without a hotness check that can
    /// reach other knodes' frames — foreign ones and en-masse promotions
    /// of shared frames — and whenever `hot_window` widens.
    bound_epoch: u64,
    /// The widest window passed to
    /// [`KlocRegistry::promote_hot_members`]: the cap on every chunk
    /// bound assumes no hotness-checked promotion reaches further back.
    hot_window: Nanos,
    /// Per-tenant count of knode accesses that crossed a tenant
    /// boundary (accessor != knode owner), dense by the *accessor's*
    /// [`TenantId::index`] — the shared-inode / shared-socket
    /// attribution signal of the multi-tenant model.
    shared_accesses: Vec<u64>,
    /// The shortest demotion window that has parked a member. Every
    /// parked frame was idle at least this long when parked, so a
    /// promotion window below it can never want a parked frame.
    park_window: Nanos,
    /// Diagnostic probe: members cold-parked so far. Not part of any report
    /// (like [`Kmap::knodes_examined`]); tests use it to prove parking
    /// fires.
    parks: u64,
    /// Membership bits: bit `id` is set iff object `id` is counted in a
    /// knode (see the module docs for the contract).
    members: Vec<u64>,
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
            bound_epoch: 0,
            hot_window: Nanos::ZERO,
            shared_accesses: Vec::new(),
            park_window: Nanos::new(u64::MAX),
            parks: 0,
            members: Vec::new(),
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

    /// Members cold-parked by the demotion walks so far (diagnostic;
    /// see the field doc).
    pub fn parks(&self) -> u64 {
        self.parks
    }

    /// Whether `obj` is counted in a knode. Membership is kept per
    /// slot, so `obj` must be live.
    #[inline]
    pub fn is_member(&self, obj: ObjectId) -> bool {
        let (word, bit) = member_bit(obj);
        self.members.get(word).is_some_and(|w| w & bit != 0)
    }

    /// Sets `obj`'s membership bit.
    #[inline]
    fn set_member(&mut self, obj: ObjectId) {
        let (word, bit) = member_bit(obj);
        if word >= self.members.len() {
            self.members.resize(word + 1, 0);
        }
        self.members[word] |= bit;
    }

    /// Clears `obj`'s membership bit; returns whether it was set.
    #[inline]
    fn take_member(&mut self, obj: ObjectId) -> bool {
        let (word, bit) = member_bit(obj);
        match self.members.get_mut(word) {
            Some(w) if *w & bit != 0 => {
                *w &= !bit;
                true
            }
            _ => false,
        }
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
    /// included), going through the per-CPU fast path. Re-adding an
    /// object that is already a member still touches the knode and
    /// counts as tracked, but leaves its member counts and frame
    /// references as they are.
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
        let fresh = !self.is_member(obj);
        if self.knode_event(cpu, inode, |k, epoch| {
            if fresh {
                k.add_obj(info.ty, frame);
            }
            k.touch_at(cpu, now, epoch);
        }) {
            if fresh {
                self.set_member(obj);
            }
            self.stats.objects_tracked += 1;
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

    /// Object freed: drop it from its knode. `frame` is the object's
    /// backing frame, the one it was added with. A member whose knode
    /// was already destroyed just loses its bit.
    pub fn object_freed(&mut self, obj: ObjectId, info: &ObjectInfo, frame: FrameId) {
        // Only objects with an inode ever get a bit, and an inode is
        // never taken away.
        let Some(inode) = info.inode else { return };
        if !self.take_member(obj) {
            return;
        }
        if self
            .kmap
            .with_knode_mut(inode, |k, _| k.remove_obj(info.ty, frame))
            .unwrap_or(false)
        {
            self.stats.objects_untracked += 1;
        }
    }

    /// Object accessed by `tenant`: refresh its knode's recency via the
    /// fast path. When the knode exists and the accessor differs from
    /// its owner, the access is counted as shared (cross-tenant)
    /// against the accessor. A per-CPU hit is one list probe plus
    /// [`Kmap::touch_at`], which also returns the owner; a miss takes
    /// the counted kmap route of every other knode event.
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
        let hit = if self.config.use_percpu {
            self.percpu.lookup(cpu, inode)
        } else {
            None
        };
        let mut owner = tenant;
        match hit {
            Some(slot) => owner = self.kmap.touch_at(slot, cpu, now).unwrap_or(tenant),
            None => {
                self.knode_miss(cpu, inode, |k, epoch| {
                    owner = k.owner();
                    k.touch_at(cpu, now, epoch);
                });
            }
        }
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
        }
        self.knode_miss(cpu, inode, f)
    }

    /// The kmap half of a knode event, after the per-CPU list missed (or
    /// with the lists off): a counted traversal, then the found knode's
    /// slot goes on `cpu`'s list. Returns whether the knode exists.
    fn knode_miss(&mut self, cpu: CpuId, inode: InodeId, f: impl FnOnce(&mut Knode, u64)) -> bool {
        let found = self.kmap.with_knode_mut_counted(inode, f).is_some();
        if found && self.config.use_percpu {
            #[expect(clippy::expect_used, reason = "with_knode_mut_counted found the knode")]
            let slot = self.kmap.slot_of(inode).expect("knode just mutated");
            self.percpu.touch(cpu, inode, slot);
        }
        found
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

    /// Appends to `out` the next per-tick demotion batch: up to `max`
    /// inactive knodes aged at least `min_age` that still track members,
    /// oldest crossing into the cold set first, sorted by inode — each
    /// handed out once per cold spell, off the kmap's cold queue (see
    /// [`Kmap::cold_inodes_with_members`]).
    pub fn cold_member_candidates(&mut self, min_age: u32, max: usize, out: &mut Vec<InodeId>) {
        self.kmap.cold_inodes_with_members(min_age, max, out);
    }

    /// Ages all knodes by one scan epoch (§4.3: age increments when the
    /// LRU policy scans without evicting). O(1) — knodes age lazily off
    /// the kmap's epoch; nothing is walked.
    pub fn age_epoch(&mut self) {
        self.kmap.advance_epoch();
    }

    /// Records that frames were promoted to fast memory by something
    /// other than this registry's migration walks (a page-granular scan
    /// policy, a test driving the memory system directly). Required for
    /// correctness whenever member frames can change tier outside
    /// [`KlocRegistry::migrate_knode`] /
    /// [`KlocRegistry::promote_hot_members`] — it invalidates the
    /// demotion walk's chunk bounds, which otherwise assume they see
    /// every route into fast memory.
    pub fn note_external_promotions(&mut self) {
        self.bound_epoch += 1;
    }

    /// Migrates every member frame of `inode`'s knode to `to` — the
    /// en-masse mechanism (paper §4.4). Pinned frames and frames that
    /// exceeded the anti-ping-pong counter are skipped. A demotion that
    /// a failed migration leaves incomplete queues a cold knode again
    /// ([`Kmap::requeue_cold`]). Returns pages moved.
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
        let Some(k) = self
            .kmap
            .slot_of(inode)
            .and_then(|slot| self.kmap.knode_at_mut(slot))
        else {
            return (0, 0);
        };
        let staged = k.member_frame_count() as u64;
        let demoting = to != TierId::FAST;
        let max_migrations = self.config.max_migrations;
        let mut pingpong_skips = 0;
        let mut moved = 0;
        let mut failed = false;
        let mut promoted_shared = false;
        for frame in k.member_frames() {
            if moved >= max_pages {
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
                // The frame stays movable.
                failed = true;
            }
        }
        if !demoting && moved > 0 {
            // No hotness check: a promoted frame may already be cold, so
            // the demotion chunk bounds are stale.
            if promoted_shared {
                // Packed frames are shared with other knodes, so every
                // knode's bounds are stale.
                self.bound_epoch += 1;
            } else {
                // Single-owner frames gained fast residency: only this
                // knode's bounds are stale.
                k.frame_refs_mut().reset_bounds();
            }
        }
        if demoting && failed {
            // A cold knode the walk could not finish goes back on the
            // cold queue, behind every crossing queued before it.
            self.kmap.requeue_cold(inode);
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
        let now = mem.now();
        let max_migrations = self.config.max_migrations;
        let key = (older_than, self.bound_epoch);
        if kloc_mem::ksan::armed() {
            ksan_check_parked(k, slot, mem, self.park_window, max_migrations);
            ksan_check_bounds(k, mem, key, max_migrations);
        }
        // No hotness-checked promotion can make a frame cold before this
        // (see the `members` module docs).
        let cap = now
            .saturating_add(older_than)
            .saturating_sub(self.hot_window)
            .max(now);
        let mut moved = 0;
        let (mut parked, mut parked_slow) = (0, false);
        // Parked members are never candidates, and a skipped chunk holds
        // none; the budget stop therefore fires only on a later visited
        // member, as it would without the skips.
        k.frame_refs_mut().walk_cold(key, now, cap, |frame, until| {
            if moved >= max_pages {
                return Walk::Stop;
            }
            let Some(f) = mem.frame_meta(frame) else {
                return Walk::Skip;
            };
            let single = !frame_is_shared(f.kind);
            let cold = now.saturating_sub(f.last_access) >= older_than;
            // Only fast-tier frames are demotion candidates, and a slow
            // one becomes one only by a promotion, which the chunk bound
            // accounts for (see the `members` module docs). A cold
            // single-owner frame elsewhere is parked until the memory
            // system reports its next touch or migration.
            if f.tier != TierId::FAST {
                if cold && single && mem.watch(frame, slot) {
                    parked += 1;
                    parked_slow = true;
                    return Walk::Park(Mask::Cold);
                }
                return Walk::Skip;
            }
            // A fast frame that cannot move stays a no-op for both walks
            // until it next migrates: parked under a migration-only
            // watch, it no longer holds its chunk's bound down.
            if f.pinned || f.migrations >= max_migrations {
                if single && mem.watch_migrations(frame, slot) {
                    parked += 1;
                    return Walk::Park(Mask::Cold);
                }
                return Walk::Skip;
            }
            if !cold {
                *until = (*until).min(f.last_access.saturating_add(older_than));
                return Walk::Skip;
            }
            if mem.migrate(frame, TierId::SLOW).is_err() {
                // Still a candidate: the chunk must be walked again.
                *until = Nanos::ZERO;
            } else {
                moved += 1;
            }
            Walk::Skip
        });
        self.parks += parked;
        if parked_slow {
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
        if newer_than > self.hot_window {
            // The chunk bounds were capped for a narrower window.
            self.hot_window = newer_than;
            self.bound_epoch += 1;
        }
        self.unpark_woken(mem);
        let Some(slot) = self.kmap.slot_of(inode) else {
            return 0;
        };
        let Some(k) = self.kmap.knode_at_mut(slot) else {
            return 0;
        };
        if kloc_mem::ksan::armed() {
            ksan_check_parked(k, slot, mem, self.park_window, self.config.max_migrations);
        }
        let now = mem.now();
        let park_window = self.park_window;
        let mut moved = 0;
        let mut parked = 0;
        // Cold-parked members are slow-resident but idle beyond this
        // window, and hot-parked ones fast-resident, so the walk visits
        // neither. A single-owner member found or left fast-resident is
        // hot-parked until the memory system reports its next migration;
        // one found slow-resident and idle beyond the park window is
        // cold-parked as the demotion walk would, since that walk skips
        // the chunks its bounds rule out.
        k.frame_refs_mut().walk_hot(|frame| {
            if moved >= max_pages {
                return Walk::Stop;
            }
            let Some(f) = mem.frame_meta(frame) else {
                return Walk::Skip;
            };
            let shared = frame_is_shared(f.kind);
            if f.tier != TierId::FAST {
                let idle = now.saturating_sub(f.last_access);
                if f.pinned || idle > newer_than {
                    if !shared && idle >= park_window && mem.watch(frame, slot) {
                        parked += 1;
                        return Walk::Park(Mask::Cold);
                    }
                    return Walk::Skip;
                }
                if mem.migrate(frame, TierId::FAST).is_err() {
                    return Walk::Skip;
                }
                moved += 1;
            }
            if !shared && mem.watch_migrations(frame, slot) {
                Walk::Park(Mask::Hot)
            } else {
                Walk::Skip
            }
        });
        self.parks += parked;
        if moved > 0 {
            // The promoted frames were touched within `newer_than`, so
            // the demotion chunk bounds, capped by `hot_window`, still
            // hold.
            self.stats.pages_promoted += moved;
            self.emit_kloc_migrate(inode, mem, "promote", "members", moved);
        }
        moved
    }

    /// Drains the memory system's wake log, unparking every woken
    /// member from both masks: each entry names a watched frame that was
    /// touched or migrated, tagged with the kmap slot of the knode that
    /// parked it.
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

/// The word index and bit mask of `obj`'s slot in
/// [`KlocRegistry::members`].
#[inline]
fn member_bit(obj: ObjectId) -> (usize, u64) {
    let slot = obj.slot();
    ((slot / 64) as usize, 1 << (slot % 64))
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

/// KSAN oracle for parked members, run where KSAN is armed by each
/// member walk right after it drains the wake log: re-probes `k`'s
/// parked entries read-only and panics with a violation report unless
/// every live cold-parked one is either slow-resident, idle at least
/// `park_window` and watched, or fast-resident, pinned or past the
/// ping-pong limit, and migration-watched, and every live hot-parked
/// one is fast-resident and migration-watched — each watch under the
/// knode's kmap `slot`.
/// These are the park invariants that make skipping them a no-op.
fn ksan_check_parked(
    k: &Knode,
    slot: u32,
    mem: &MemorySystem,
    park_window: Nanos,
    max_migrations: u8,
) {
    let now = mem.now();
    let cold: Vec<String> = k
        .parked_frames(Mask::Cold)
        .filter_map(|frame| {
            let f = mem.frame_meta(frame)?;
            let idle = now.saturating_sub(f.last_access);
            let ok = if f.tier == TierId::FAST {
                (f.pinned || f.migrations >= max_migrations)
                    && mem.migration_watch_tag(frame) == Some(slot)
            } else {
                idle >= park_window && mem.watch_tag(frame) == Some(slot)
            };
            (!ok).then(|| {
                format!(
                    "{frame}: {} idle {idle} migrations {} watch {:?} migration watch {:?}",
                    f.tier,
                    f.migrations,
                    mem.watch_tag(frame),
                    mem.migration_watch_tag(frame)
                )
            })
        })
        .collect();
    let hot: Vec<String> = k
        .parked_frames(Mask::Hot)
        .filter_map(|frame| {
            let f = mem.frame_meta(frame)?;
            let tag = mem.migration_watch_tag(frame);
            (f.tier != TierId::FAST || tag != Some(slot))
                .then(|| format!("{frame}: {} migration watch {tag:?}", f.tier))
        })
        .collect();
    let mut found = Vec::new();
    if !cold.is_empty() {
        found.push(kloc_mem::ksan::Violation::new(
            "Knode.parked <-> member frames",
            format!("{}", k.inode()),
            "a parked live member is slow-resident, idle beyond every member window, and watched with its knode's slot, or fast-resident, unable to move, and migration-watched with it",
            format!(
                "not fast, idle >= {park_window}, watch Some({slot}); or fast, pinned or migrations >= {max_migrations}, migration watch Some({slot})"
            ),
            cold.join("; "),
        ));
    }
    if !hot.is_empty() {
        found.push(kloc_mem::ksan::Violation::new(
            "Knode.hot_parked <-> member frames",
            format!("{}", k.inode()),
            "a hot-parked live member is fast-resident and migration-watched with its knode's slot",
            format!("fast, migration watch Some({slot})"),
            hot.join("; "),
        ));
    }
    if !found.is_empty() {
        kloc_mem::ksan::enforce("park invariant oracle", &found);
    }
}

/// KSAN oracle for the demotion chunk bounds, run where KSAN is armed by
/// each demotion walk before it walks: re-probes every member of each
/// chunk the walk under `key` will skip and panics with a violation
/// report if one is a demotion candidate now (cold by the key's window,
/// fast-resident, unpinned, under the ping-pong limit) — the walk would
/// have moved it.
fn ksan_check_bounds(k: &Knode, mem: &MemorySystem, key: (Nanos, u64), max_migrations: u8) {
    let now = mem.now();
    let older_than = key.0;
    let movable: Vec<FrameId> = k
        .bounded_frames(key, now)
        .into_iter()
        .filter(|&frame| {
            mem.frame_meta(frame).is_some_and(|f| {
                now.saturating_sub(f.last_access) >= older_than
                    && f.tier == TierId::FAST
                    && !f.pinned
                    && f.migrations < max_migrations
            })
        })
        .collect();
    if !movable.is_empty() {
        let v = kloc_mem::ksan::Violation::new(
            "Knode.chunk_bounds <-> member frames",
            format!("{}", k.inode()),
            "a chunk the demotion walk skips for its bound holds no demotion candidate",
            "movable []".to_owned(),
            format!("movable {movable:?}"),
        );
        kloc_mem::ksan::enforce("chunk bound oracle", &[v]);
    }
}

impl KlocRegistry {
    /// Audits the whole KLOC engine: the kmap's internal invariants plus
    /// every per-CPU fast-path entry against the kmap. Membership needs
    /// the kernel's object table; see
    /// [`KlocRegistry::ksan_audit_members`]. Observation only.
    pub fn ksan_audit(&self, out: &mut Vec<kloc_mem::ksan::Violation>) {
        self.kmap.ksan_audit(out);
        self.percpu.ksan_audit(&self.kmap, out);
    }

    /// Cross-checks membership against the kernel's object table, the
    /// ground truth: every set membership bit names a slot holding a
    /// live object with an inode, and every knode's per-frame refcounts
    /// and per-backing member counts equal the tally of the live member
    /// objects on its inode. Members whose knode was destroyed are
    /// tallied against no knode. Observation only.
    pub fn ksan_audit_members(
        &self,
        objects: &kloc_kernel::obj::ObjectTable,
        out: &mut Vec<kloc_mem::ksan::Violation>,
    ) {
        use std::collections::BTreeMap;

        use kloc_kernel::Backing;
        use kloc_mem::ksan::Violation;

        use crate::knode::MemberTree;
        /// Per inode: member frame refcounts, then (cache, slab) counts.
        type Tally = (BTreeMap<FrameId, u32>, (usize, usize));
        let mut tally: BTreeMap<InodeId, Tally> = BTreeMap::new();
        let mut stray = Vec::new();
        for (w, &word) in (0u32..).zip(&self.members) {
            let mut bits = word;
            while bits != 0 {
                let slot = w * 64 + bits.trailing_zeros();
                bits &= bits - 1;
                let id = objects.id_in_slot(slot);
                let Some((o, inode)) = id
                    .and_then(|id| objects.get(id))
                    .and_then(|o| Some((o, o.info.inode?)))
                else {
                    // An empty slot shows as its generation-0 id.
                    stray.push(id.unwrap_or(ObjectId(u64::from(slot))));
                    continue;
                };
                let (refs, counts) = tally.entry(inode).or_default();
                *refs.entry(o.frame).or_insert(0) += 1;
                match o.info.ty.backing() {
                    Backing::Page(_) => counts.0 += 1,
                    Backing::Slab => counts.1 += 1,
                }
            }
        }
        if !stray.is_empty() {
            out.push(Violation::new(
                "KlocRegistry.members <-> ObjectTable",
                "kmap",
                "every membership bit names a slot holding a live object with an inode",
                "no stray bits".to_owned(),
                format!("bits set for {stray:?}"),
            ));
        }
        for k in self.kmap.ksan_knodes() {
            let (refs, counts) = tally.remove(&k.inode()).unwrap_or_default();
            let want: Vec<(FrameId, u32)> = refs.into_iter().collect();
            let got = k.frame_refcounts();
            let got_counts = (
                k.tree_count(MemberTree::Cache),
                k.tree_count(MemberTree::Slab),
            );
            if got != want || got_counts != counts {
                out.push(Violation::new(
                    "Knode members <-> ObjectTable",
                    format!("{}", k.inode()),
                    "frame refcounts and (cache, slab) counts tally the live member objects on the inode",
                    format!("{counts:?} {want:?}"),
                    format!("{got_counts:?} {got:?}"),
                ));
            }
        }
    }

    /// Corruption hooks for sanitizer self-tests, forwarded to the kmap.
    #[doc(hidden)]
    pub fn ksan_kmap_mut(&mut self) -> &mut Kmap {
        &mut self.kmap
    }

    /// Corruption hook for sanitizer self-tests: flips `obj`'s
    /// membership bit without touching any knode.
    #[doc(hidden)]
    pub fn ksan_flip_member(&mut self, obj: ObjectId) {
        if !self.take_member(obj) {
            self.set_member(obj);
        }
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
        r.object_freed(ObjectId(5), &i, FrameId(9));
        assert!(r.member_frames(InodeId(1)).is_empty());
        assert_eq!(r.member_frame_count(InodeId(1)), 0);
        assert_eq!(r.stats().objects_tracked, 1);
        assert_eq!(r.stats().objects_untracked, 1);
    }

    #[test]
    fn re_adding_a_member_counts_but_keeps_one_frame_ref() {
        let mut r = KlocRegistry::new(KlocConfig::default());
        r.inode_created(InodeId(1), CpuId(0), Nanos::ZERO);
        let i = info(KernelObjectType::Dentry, 1);
        r.object_allocated(ObjectId(5), &i, FrameId(9), CpuId(0), Nanos::ZERO);
        r.object_allocated(ObjectId(5), &i, FrameId(9), CpuId(0), Nanos::ZERO);
        assert_eq!(r.stats().objects_tracked, 2, "a re-add still counts");
        let k = r.kmap().get(InodeId(1)).unwrap();
        assert_eq!(k.member_count(), 1);
        let mut refs = Vec::new();
        k.member_frames().for_each(|f| refs.push(f));
        assert_eq!(refs, [FrameId(9)]);
        // One free releases the one reference; a second is a no-op.
        r.object_freed(ObjectId(5), &i, FrameId(9));
        r.object_freed(ObjectId(5), &i, FrameId(9));
        assert!(r.member_frames(InodeId(1)).is_empty());
        assert_eq!(r.stats().objects_untracked, 1);
        assert!(!r.is_member(ObjectId(5)));
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
    /// promoted behind the registry's back (no
    /// `note_external_promotions`), so the second walk's chunk-bound
    /// skip must trip the KSAN oracle. The walks run their oracles only
    /// where KSAN is armed, which a release test build is not, hence
    /// `debug_assertions` here and below.
    #[cfg(debug_assertions)]
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

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "Knode.chunk_bounds <-> member frames")]
    fn unannounced_promotion_trips_the_chunk_bound_oracle() {
        // The cold frame starts on slow memory, so only the hot one
        // bounds the chunk's next candidacy (at ~15 ms).
        walk_around_unannounced_promotion(&[TierId::SLOW, TierId::FAST], |r, mem| {
            r.demote_cold_members(InodeId(1), mem, Nanos::from_millis(5), 8);
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "Knode.hot_parked <-> member frames")]
    fn unannounced_migration_trips_the_hot_park_oracle() {
        let (mut r, mut mem, frames) = idle_members(&[TierId::FAST]);
        let hot = Nanos::from_millis(2);
        r.promote_hot_members(InodeId(1), &mut mem, hot, 8);
        // Demoted behind the registry's back: the wake is discarded.
        mem.migrate(frames[0], TierId::SLOW).unwrap();
        assert_eq!(mem.drain_wakes().count(), 1);
        r.promote_hot_members(InodeId(1), &mut mem, hot, 8);
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
        assert_eq!(
            r.kmap().get(InodeId(1)).unwrap().parked_count(Mask::Cold),
            2
        );
        // A touch wakes frame 0; the next walk unparks and promotes it.
        mem.read(frames[0], 64);
        assert_eq!(mem.watch_tag(frames[0]), None);
        let hot = Nanos::from_millis(2);
        assert_eq!(r.promote_hot_members(InodeId(1), &mut mem, hot, 8), 1);
        assert_eq!(mem.tier_of(frames[0]), TierId::FAST);
        let parked = |r: &KlocRegistry, mask| r.kmap().get(InodeId(1)).unwrap().parked_count(mask);
        // Frame 1 stays parked, and the promotion walk parks frame 2,
        // demoted by the first walk and idle beyond the park window.
        assert_eq!(parked(&r, Mask::Cold), 2);
        assert_eq!(r.parks(), 3);
        // The promoted frame waits out its fast residency hot-parked,
        // under a watch that touches do not wake.
        assert_eq!(parked(&r, Mask::Hot), 1);
        assert_eq!(mem.migration_watch_tag(frames[0]), Some(slot));
        mem.read(frames[0], 64);
        assert_eq!(mem.migration_watch_tag(frames[0]), Some(slot));
        // A foreign migration wakes frame 1 too; now fast, it hot-parks.
        mem.migrate(frames[1], TierId::FAST).unwrap();
        r.promote_hot_members(InodeId(1), &mut mem, hot, 8);
        assert_eq!(parked(&r, Mask::Cold), 1);
        assert_eq!(parked(&r, Mask::Hot), 2);
        // En-masse walks never skip parked members: frame 1 parks again
        // (its demotion woke it out of the hot mask), frame 0 demotes.
        mem.migrate(frames[1], TierId::SLOW).unwrap();
        mem.charge(Nanos::from_millis(20));
        assert_eq!(r.demote_cold_members(InodeId(1), &mut mem, idle, 8), 1);
        assert_eq!(r.parks(), 4);
        assert_eq!(parked(&r, Mask::Cold), 2);
        assert_eq!(r.migrate_knode(InodeId(1), &mut mem, TierId::FAST), 3);
    }

    /// Inode 1 with one page-cache member per tier in `tiers`, created
    /// at time 0; `touches` then advances the clock by each gap and reads
    /// the member it names.
    fn touched_members(
        tiers: &[TierId],
        touches: &[(u64, usize)],
    ) -> (KlocRegistry, MemorySystem, Vec<FrameId>) {
        let (r, mut mem, frames) = idle_members(tiers);
        let mut now = mem.now().as_nanos();
        for &(at_ms, member) in touches {
            let at = Nanos::from_millis(at_ms).as_nanos();
            mem.charge(Nanos::new(at.saturating_sub(now)));
            now = mem.now().as_nanos();
            mem.read(frames[member], 64);
        }
        (r, mem, frames)
    }

    #[test]
    fn enmasse_promotion_resets_the_demotion_bounds() {
        // Member 0 is hot at 30 ms and bounds its chunk to 35 ms; member
        // 1, cold and slow, parks.
        let (mut r, mut mem, frames) = touched_members(&[TierId::FAST, TierId::SLOW], &[(30, 0)]);
        let idle = Nanos::from_millis(5);
        assert_eq!(r.demote_cold_members(InodeId(1), &mut mem, idle, 8), 0);
        assert_eq!(r.parks(), 1);
        // An en-masse promotion has no hotness check: member 1 arrives
        // in fast memory already cold, and the next walk must see it.
        assert_eq!(r.migrate_knode(InodeId(1), &mut mem, TierId::FAST), 1);
        mem.charge(Nanos::from_millis(2));
        assert_eq!(r.demote_cold_members(InodeId(1), &mut mem, idle, 8), 1);
        assert_eq!(mem.tier_of(frames[1]), TierId::SLOW);
    }

    #[test]
    fn widening_the_hot_window_resets_the_demotion_bounds() {
        // At 40 ms member 0 is hot; member 1 (slow, touched at 37 ms) is
        // neither cold nor hot under a 1 ms window.
        let (mut r, mut mem, frames) =
            touched_members(&[TierId::FAST, TierId::SLOW], &[(37, 1), (40, 0)]);
        let idle = Nanos::from_millis(10);
        assert_eq!(
            r.promote_hot_members(InodeId(1), &mut mem, Nanos::from_millis(1), 8),
            0
        );
        // The chunk bound is capped at 40 + 10 - 1 = 49 ms.
        assert_eq!(r.demote_cold_members(InodeId(1), &mut mem, idle, 8), 0);
        // An 8 ms window promotes member 1, cold from 47 ms on.
        assert_eq!(
            r.promote_hot_members(InodeId(1), &mut mem, Nanos::from_millis(8), 8),
            1
        );
        mem.charge(Nanos::from_millis(8));
        assert_eq!(r.demote_cold_members(InodeId(1), &mut mem, idle, 8), 1);
        assert_eq!(mem.tier_of(frames[1]), TierId::SLOW);
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
