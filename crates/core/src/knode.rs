//! The per-inode knode.
//!
//! Every file/socket inode gets a knode — a "table of contents" naming
//! every kernel object associated with that inode (paper Fig. 1). The
//! members are split across two tables, mirroring the paper's
//! `rbtree-cache` / `rbtree-slab` split (§4.2.3): separating page-cache
//! pages from small slab objects keeps each table small and the split
//! organizationally meaningful. Since PR 7 the tables are the dense
//! open-addressed [`crate::members::MemberMap`]s rather than
//! `BTreeMap`s: the member add/remove/touch path sits on every syscall,
//! so it probes a flat slot array instead of chasing tree nodes. The
//! distinct member frames the migration walks read are kept sorted in
//! one chunked [`crate::members::FrameRefs`] set (see the `members`
//! module docs).
//!
//! Aging is *lazy*: instead of a scan bumping a counter on every knode
//! each epoch (O(knodes) per tick), a knode records the
//! [`crate::Kmap`] epoch it was last synchronized at and derives its age
//! on demand as the number of epochs it has since sat inactive. The
//! kmap's global epoch advance is then O(1) — the paper's claim that
//! KLOCs age "as a side effect of events" rather than by scanning
//! (§4.3).

use std::cell::Cell;

use kloc_mem::{FrameId, Nanos, TenantId, TierId};

use kloc_kernel::hooks::CpuId;
use kloc_kernel::vfs::InodeId;
use kloc_kernel::{Backing, KernelObjectType, ObjectId};

use crate::members::{FrameRefs, MemberMap};

/// Which member tree an object landed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberTree {
    /// `rbtree-cache`: page-backed objects (page-cache pages, data
    /// buffers, journal blocks).
    Cache,
    /// `rbtree-slab`: small slab-class objects (inodes, dentries, …).
    Slab,
}

/// A knode: the KLOC bookkeeping attached to one inode.
#[derive(Debug, Clone)]
pub struct Knode {
    inode: InodeId,
    /// Whether the inode is currently open/active.
    inuse: bool,
    /// The tenant that created the inode, for shared-access
    /// attribution ([`TenantId::DEFAULT`] in single-tenant runs).
    owner: TenantId,
    /// Age accrued up to `synced_epoch` (materialized on activation
    /// transitions; zero after any touch).
    age_base: u32,
    /// Kmap epoch at which `age_base` was last materialized. While
    /// inactive, one age unit accrues per epoch since.
    synced_epoch: u64,
    /// CPU that last touched this knode (`find_cpu` in Table 2).
    last_cpu: CpuId,
    /// Last access time.
    last_active: Nanos,
    /// Page-backed members: object -> backing frame (`rbtree-cache`).
    cache: MemberMap,
    /// Slab-class members: object -> backing frame (`rbtree-slab`).
    slab: MemberMap,
    /// Distinct frames backing members, refcounted (several slab
    /// objects can share a frame) and kept ascending by full `FrameId`
    /// (the report-visible migration order), so the migration walks
    /// iterate it in place.
    frames: FrameRefs,
    /// Memoized outcome of a *settled* en-masse migration walk:
    /// `(target tier, ping-pong skips the walk charges, external
    /// migration epoch)`. While valid, a repeat walk toward the same
    /// tier can move nothing and charges exactly the cached skip count,
    /// so the registry answers it in O(1) instead of re-probing every
    /// member frame. Cleared whenever the distinct frame set changes or
    /// frames are promoted back (registry paths), and keyed to the
    /// registry's external-migration epoch so app-LRU migrations of
    /// member frames invalidate it too.
    enmasse_cache: Cell<Option<(TierId, u64, u64)>>,
    /// Earliest virtual time the member-granular demotion walk could
    /// move anything: `(older_than key, bound, external promotion
    /// epoch)`. Touches only push member candidacy later, so the bound
    /// stays conservative until the member set changes or a frame is
    /// promoted into fast memory.
    demote_bound: Cell<Option<(Nanos, Nanos, u64)>>,
}

impl Knode {
    /// Creates a knode for `inode`, initially in use.
    pub fn new(inode: InodeId, now: Nanos) -> Self {
        Knode {
            inode,
            inuse: true,
            owner: TenantId::DEFAULT,
            age_base: 0,
            synced_epoch: 0,
            last_cpu: CpuId(0),
            last_active: now,
            cache: MemberMap::default(),
            slab: MemberMap::default(),
            frames: FrameRefs::default(),
            enmasse_cache: Cell::new(None),
            demote_bound: Cell::new(None),
        }
    }

    /// The inode this knode belongs to.
    pub fn inode(&self) -> InodeId {
        self.inode
    }

    /// Whether the inode is active (open).
    pub fn inuse(&self) -> bool {
        self.inuse
    }

    /// The tenant that owns this knode.
    pub(crate) fn owner(&self) -> TenantId {
        self.owner
    }

    /// Sets the owning tenant (at creation).
    pub(crate) fn set_owner(&mut self, tenant: TenantId) {
        self.owner = tenant;
    }

    /// LRU age as of `epoch`: epochs spent inactive since the last
    /// touch. Active knodes do not accrue age.
    pub fn age_at(&self, epoch: u64) -> u32 {
        let accrued = if self.inuse {
            0
        } else {
            epoch.saturating_sub(self.synced_epoch)
        };
        u32::try_from(u64::from(self.age_base).saturating_add(accrued)).unwrap_or(u32::MAX)
    }

    /// The effective epoch this knode has been inactive since — the
    /// ordering key of the kmap's inactive index (`age_at(epoch)` ==
    /// `epoch - inactive_stamp()` whenever the age fits in a `u32`).
    pub(crate) fn inactive_stamp(&self) -> u64 {
        self.synced_epoch.saturating_sub(u64::from(self.age_base))
    }

    /// Materializes the age accrued so far into `age_base` and re-bases
    /// it on `epoch`. Called on activation transitions so the age stops
    /// (or resumes) accruing from the right point.
    pub(crate) fn sync_age_at(&mut self, epoch: u64) {
        self.age_base = self.age_at(epoch);
        self.synced_epoch = epoch;
    }

    /// Marks the knode active/inactive as of `epoch`. No-op when the
    /// state does not change (a repeated close must not restart the
    /// inactivity clock).
    pub(crate) fn set_inuse_at(&mut self, inuse: bool, epoch: u64) {
        if self.inuse != inuse {
            self.sync_age_at(epoch);
            self.inuse = inuse;
        }
    }

    /// CPU that last accessed the knode (paper's `find_cpu`).
    pub fn last_cpu(&self) -> CpuId {
        self.last_cpu
    }

    /// Last access time.
    pub fn last_active(&self) -> Nanos {
        self.last_active
    }

    /// Records an access as of `epoch`: resets the age, stamps time and
    /// CPU.
    pub(crate) fn touch_at(&mut self, cpu: CpuId, now: Nanos, epoch: u64) {
        self.age_base = 0;
        self.synced_epoch = epoch;
        self.last_cpu = cpu;
        self.last_active = now;
    }

    /// Adds a member object (`knode_add_obj` in Table 2); routed to the
    /// cache or slab table by the object's backing. Returns the table
    /// used. One dense-table probe plus a sorted refcount insert (an
    /// append when the frame sorts last).
    pub fn add_obj(&mut self, obj: ObjectId, ty: KernelObjectType, frame: FrameId) -> MemberTree {
        let (tree, prev) = match ty.backing() {
            Backing::Page(_) => (MemberTree::Cache, self.cache.insert(obj, frame)),
            Backing::Slab => (MemberTree::Slab, self.slab.insert(obj, frame)),
        };
        let mut changed = false;
        if let Some(old) = prev {
            changed |= self.frames.unref(old);
        }
        changed |= self.frames.add(frame);
        if changed {
            self.clear_walk_caches();
        }
        tree
    }

    /// Removes a member of type `ty`, routed to its table by backing as
    /// in [`Knode::add_obj`]. Returns whether it was tracked. One
    /// dense-table probe plus a sorted refcount drop.
    pub fn remove_obj(&mut self, obj: ObjectId, ty: KernelObjectType) -> bool {
        let frame = match ty.backing() {
            Backing::Page(_) => self.cache.remove(obj),
            Backing::Slab => self.slab.remove(obj),
        };
        match frame {
            Some(f) => {
                if self.frames.unref(f) {
                    self.clear_walk_caches();
                }
                true
            }
            None => false,
        }
    }

    /// Number of members across both tables.
    pub fn member_count(&self) -> usize {
        self.cache.len() + self.slab.len()
    }

    /// Whether the knode tracks no objects.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty() && self.slab.is_empty()
    }

    /// Page-backed members ascending by `ObjectId` (`itr_knode_cache`).
    /// Derived on demand — the insert/remove path maintains no order.
    pub fn cache_members(&self) -> Vec<(ObjectId, FrameId)> {
        self.cache.sorted()
    }

    /// Slab-class members ascending by `ObjectId` (`itr_knode_slab`).
    /// Derived on demand — the insert/remove path maintains no order.
    pub fn slab_members(&self) -> Vec<(ObjectId, FrameId)> {
        self.slab.sorted()
    }

    /// The deduplicated frames backing all members, ascending by full
    /// `FrameId` — the unit of en-masse migration (paper §4.4: "kernel
    /// objects pointed to by a knode subtree are migrated" together).
    /// The order is report-visible; the frame set maintains it on every
    /// member insert/remove, so walks iterate it in place.
    pub fn member_frames(&self) -> impl Iterator<Item = FrameId> + '_ {
        self.frames.iter()
    }

    /// Number of distinct member frames.
    pub fn member_frame_count(&self) -> usize {
        self.frames.len()
    }

    /// The member frame set with its per-entry parked bits, for the
    /// member walks (see the park invariant at
    /// [`crate::members::FrameRefs`]).
    pub(crate) fn frame_refs_mut(&mut self) -> &mut FrameRefs {
        &mut self.frames
    }

    /// Number of parked member frames.
    #[cfg(test)]
    pub(crate) fn parked_count(&self) -> usize {
        self.frames.parked()
    }

    /// Drops both migration-walk memoizations. Called whenever the
    /// distinct frame set changes or member frames gain fast-tier
    /// residency outside a demotion walk's own bookkeeping.
    pub(crate) fn clear_walk_caches(&self) {
        self.enmasse_cache.set(None);
        self.demote_bound.set(None);
    }

    /// The memoized settled en-masse walk outcome, if any.
    pub(crate) fn enmasse_cache(&self) -> Option<(TierId, u64, u64)> {
        self.enmasse_cache.get()
    }

    /// Memoizes a settled en-masse walk toward `to`: nothing movable
    /// remains and a repeat walk charges exactly `pingpong_skips`.
    pub(crate) fn set_enmasse_cache(&self, to: TierId, pingpong_skips: u64, epoch: u64) {
        self.enmasse_cache.set(Some((to, pingpong_skips, epoch)));
    }

    /// The memoized member-demotion candidacy bound, if any.
    pub(crate) fn demote_bound(&self) -> Option<(Nanos, Nanos, u64)> {
        self.demote_bound.get()
    }

    /// Memoizes the earliest time a member-granular demotion walk with
    /// this `older_than` could move anything.
    pub(crate) fn set_demote_bound(&self, older_than: Nanos, bound: Nanos, epoch: u64) {
        self.demote_bound.set(Some((older_than, bound, epoch)));
    }
}

#[cfg(feature = "ksan")]
impl Knode {
    /// The epoch this knode's age was last synchronized at (audited
    /// against the kmap's global epoch, which must never lag it).
    pub(crate) fn synced_epoch(&self) -> u64 {
        self.synced_epoch
    }

    /// Recomputes the frame refcounts from both member tables and
    /// cross-checks the incrementally maintained frame set, audits the
    /// frame set's own order and counts, then audits each dense table's
    /// internal slot bookkeeping (live counter vs occupied slots,
    /// probe-chain reachability). Observation only.
    pub(crate) fn ksan_audit(&self, out: &mut Vec<kloc_mem::ksan::Violation>) {
        use std::collections::BTreeMap;

        use kloc_mem::ksan::Violation;
        let mut tally: BTreeMap<FrameId, u32> = BTreeMap::new();
        let mut count = |_: ObjectId, frame: FrameId| {
            *tally.entry(frame).or_insert(0) += 1;
        };
        self.cache.for_each(&mut count);
        self.slab.for_each(&mut count);
        let mut refs: BTreeMap<FrameId, u32> = BTreeMap::new();
        self.frames.for_each(|frame, rc| {
            refs.insert(frame, rc);
        });
        if tally != refs {
            out.push(Violation::new(
                "Knode.frames <-> Knode member tables",
                format!("{}", self.inode),
                "frame refcounts match the members that reference them",
                format!("{tally:?}"),
                format!("{refs:?}"),
            ));
        }
        if let Err(err) = self.frames.ksan_check() {
            out.push(Violation::new(
                "Knode.frames order <-> refcounts",
                format!("{}", self.inode),
                "frames strictly ascending, every refcount >= 1, chunks non-empty with exact maxes",
                "sorted refcounted frame set".to_owned(),
                err,
            ));
        }
        for (label, check) in [
            ("rbtree-cache", self.cache.ksan_check()),
            ("rbtree-slab", self.slab.ksan_check()),
        ] {
            if let Err(err) = check {
                out.push(Violation::new(
                    "Knode dense table slots <-> live counter",
                    format!("{} {label}", self.inode),
                    "stored ids are probe-reachable and counted exactly once",
                    "consistent slot array".to_owned(),
                    err,
                ));
            }
        }
    }

    /// Corruption hook for sanitizer self-tests: stamps the knode's
    /// synced epoch into the future, ahead of the kmap's global epoch.
    #[doc(hidden)]
    pub fn ksan_force_synced_epoch(&mut self, epoch: u64) {
        self.synced_epoch = epoch;
    }

    /// Corruption hook for sanitizer self-tests: injects a phantom
    /// frame reference, desyncing the frame set from the member tables.
    #[doc(hidden)]
    pub fn ksan_break_knode_members(&mut self) {
        self.frames.add(FrameId(0xDEAD));
    }

    /// Corruption hook for sanitizer self-tests: skews the cache
    /// table's live counter against its occupied slots.
    #[doc(hidden)]
    pub fn ksan_break_member_slots(&mut self) {
        self.cache.ksan_break_live_count();
    }

    /// Corruption hook for sanitizer self-tests: appends a frame below
    /// every tracked one past the tail of the frame set, breaking its
    /// ascending order.
    #[doc(hidden)]
    pub fn ksan_break_frame_order(&mut self) {
        self.frames.ksan_break_order(FrameId(0));
    }

    /// Corruption hook for sanitizer self-tests: raises the frame set's
    /// first recorded chunk max past the chunk's last frame, so the
    /// chunk search would misroute frames.
    #[doc(hidden)]
    pub fn ksan_break_frame_maxes(&mut self) {
        self.frames.ksan_break_maxes();
    }

    /// The parked member frames, ascending by full `FrameId`.
    pub(crate) fn parked_frames(&self) -> impl Iterator<Item = FrameId> + '_ {
        self.frames.parked_frames()
    }

    /// Corruption hook for sanitizer self-tests: parks `frame`'s entry
    /// without checking or watching the frame.
    #[doc(hidden)]
    pub fn ksan_park_frame(&mut self, frame: FrameId) {
        self.frames.set_parked(frame, true);
    }

    /// Test-only wrapper over the crate-private inuse transition so
    /// sanitizer self-tests can stage inactive knodes from outside the
    /// crate (via `Kmap::with_knode_mut`, which repairs the activation
    /// indexes around the change).
    #[doc(hidden)]
    pub fn ksan_set_inuse_at(&mut self, inuse: bool, epoch: u64) {
        self.set_inuse_at(inuse, epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knode() -> Knode {
        Knode::new(InodeId(1), Nanos::ZERO)
    }

    fn frames(k: &Knode) -> Vec<FrameId> {
        k.member_frames().collect()
    }

    #[test]
    fn members_route_by_backing() {
        let mut k = knode();
        let t1 = k.add_obj(ObjectId(1), KernelObjectType::PageCache, FrameId(10));
        let t2 = k.add_obj(ObjectId(2), KernelObjectType::Dentry, FrameId(11));
        assert_eq!(t1, MemberTree::Cache);
        assert_eq!(t2, MemberTree::Slab);
        assert_eq!(k.cache_members().len(), 1);
        assert_eq!(k.slab_members().len(), 1);
        assert_eq!(k.member_count(), 2);
    }

    #[test]
    fn remove_from_either_tree() {
        let mut k = knode();
        k.add_obj(ObjectId(1), KernelObjectType::PageCache, FrameId(10));
        k.add_obj(ObjectId(2), KernelObjectType::Extent, FrameId(11));
        assert!(k.remove_obj(ObjectId(1), KernelObjectType::PageCache));
        assert!(k.remove_obj(ObjectId(2), KernelObjectType::Extent));
        assert!(!k.remove_obj(ObjectId(3), KernelObjectType::PageCache));
        // Routing by backing: a slab-class type never probes the cache
        // table, so it cannot remove a page-backed member.
        k.add_obj(ObjectId(4), KernelObjectType::PageCache, FrameId(12));
        assert!(!k.remove_obj(ObjectId(4), KernelObjectType::Dentry));
        assert!(k.remove_obj(ObjectId(4), KernelObjectType::PageCache));
        assert!(k.is_empty());
        assert_eq!(k.member_frames().count(), 0);
    }

    #[test]
    fn member_frames_deduplicate_shared_slab_pages() {
        let mut k = knode();
        // Two dentries packed on the same slab frame.
        k.add_obj(ObjectId(1), KernelObjectType::Dentry, FrameId(7));
        k.add_obj(ObjectId(2), KernelObjectType::Dentry, FrameId(7));
        k.add_obj(ObjectId(3), KernelObjectType::PageCache, FrameId(8));
        assert_eq!(frames(&k), vec![FrameId(7), FrameId(8)]);
        // Removing one sharer keeps the frame; removing both drops it.
        assert!(k.remove_obj(ObjectId(1), KernelObjectType::Dentry));
        assert_eq!(frames(&k), vec![FrameId(7), FrameId(8)]);
        assert!(k.remove_obj(ObjectId(2), KernelObjectType::Dentry));
        assert_eq!(frames(&k), vec![FrameId(8)]);
        assert_eq!(k.member_frame_count(), 1);
    }

    #[test]
    fn reinserted_object_moves_its_frame_ref() {
        let mut k = knode();
        k.add_obj(ObjectId(1), KernelObjectType::PageCache, FrameId(7));
        // Same object re-added on a different frame: old ref released.
        k.add_obj(ObjectId(1), KernelObjectType::PageCache, FrameId(9));
        assert_eq!(frames(&k), vec![FrameId(9)]);
        assert_eq!(k.member_count(), 1);
    }

    #[test]
    fn member_views_sort_by_full_id() {
        let mut k = knode();
        // Insertion order deliberately disagrees with id order, and two
        // frames share a slot (low 32 bits) across generations.
        k.add_obj(ObjectId(9), KernelObjectType::PageCache, FrameId(5));
        k.add_obj(
            ObjectId(2),
            KernelObjectType::PageCache,
            FrameId((1 << 32) | 4),
        );
        k.add_obj(ObjectId(5), KernelObjectType::PageCache, FrameId(4));
        let ids: Vec<u64> = k.cache_members().iter().map(|(o, _)| o.0).collect();
        assert_eq!(ids, vec![2, 5, 9]);
        assert_eq!(
            frames(&k),
            vec![FrameId(4), FrameId(5), FrameId((1 << 32) | 4)]
        );
    }

    #[test]
    fn age_accrues_only_while_inactive() {
        let mut k = knode();
        assert_eq!(k.age_at(5), 0, "active knodes do not age");
        k.set_inuse_at(false, 5);
        assert_eq!(k.age_at(5), 0);
        assert_eq!(k.age_at(9), 4, "one unit per epoch inactive");
        k.touch_at(CpuId(3), Nanos::from_micros(5), 9);
        assert_eq!(k.age_at(9), 0, "touch resets the clock");
        assert_eq!(k.last_cpu(), CpuId(3));
        assert_eq!(k.last_active(), Nanos::from_micros(5));
    }

    #[test]
    fn reactivation_freezes_age() {
        let mut k = knode();
        k.set_inuse_at(false, 0);
        assert_eq!(k.age_at(7), 7);
        k.set_inuse_at(true, 7);
        assert_eq!(k.age_at(20), 7, "age frozen while active");
        // Repeated close must not restart the inactivity clock.
        k.set_inuse_at(false, 20);
        k.set_inuse_at(false, 25);
        assert_eq!(k.age_at(30), 17);
        assert_eq!(k.inactive_stamp(), 13);
    }

    #[test]
    fn inuse_toggles() {
        let mut k = knode();
        assert!(k.inuse());
        k.set_inuse_at(false, 0);
        assert!(!k.inuse());
    }

    #[test]
    fn age_saturates() {
        let mut k = knode();
        k.set_inuse_at(false, 0);
        assert_eq!(k.age_at(u64::from(u32::MAX) + 100), u32::MAX);
    }
}
