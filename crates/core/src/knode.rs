//! The per-inode knode.
//!
//! Every file/socket inode gets a knode — a "table of contents" naming
//! every kernel object associated with that inode (paper Fig. 1). The
//! paper splits the members across two trees, `rbtree-cache` for
//! page-backed objects and `rbtree-slab` for slab-class objects
//! (§4.2.3). Here the split survives as two member counts: which objects
//! are members is one bit per object in the registry, and each member's
//! inode, type and frame are already in the kernel's object table, so
//! the paper's `itr_knode_cache` / `itr_knode_slab` are that table
//! filtered by inode and backing. What the knode itself stores is what
//! the migration walks read: the distinct member frames, kept sorted in
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

use kloc_mem::{FrameId, Nanos, TenantId};

use kloc_kernel::hooks::CpuId;
use kloc_kernel::vfs::InodeId;
use kloc_kernel::{Backing, KernelObjectType};

use crate::members::FrameRefs;

/// Which member tree an object counts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberTree {
    /// `rbtree-cache`: page-backed objects (page-cache pages, data
    /// buffers, journal blocks).
    Cache,
    /// `rbtree-slab`: small slab-class objects (inodes, dentries, …).
    Slab,
}

/// A knode: the KLOC bookkeeping attached to one inode.
///
/// `repr(C)` keeps the fields an object access reads and writes
/// ([`crate::Kmap::touch_at`]) together at the front.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct Knode {
    inode: InodeId,
    /// Kmap epoch at which `age_base` was last materialized. While
    /// inactive, one age unit accrues per epoch since.
    synced_epoch: u64,
    /// Last access time.
    last_active: Nanos,
    /// Age accrued up to `synced_epoch` (materialized on activation
    /// transitions; zero after any touch).
    age_base: u32,
    /// The tenant that created the inode, for shared-access
    /// attribution ([`TenantId::DEFAULT`] in single-tenant runs).
    owner: TenantId,
    /// CPU that last touched this knode (`find_cpu` in Table 2).
    last_cpu: CpuId,
    /// Whether the inode is currently open/active.
    inuse: bool,
    /// The kmap's ticket for this knode's latest crossing into the cold
    /// set, held while it stays cold; 0 otherwise. Names the knode's
    /// live cold-queue entry (see the `kmap` module docs).
    cold_ticket: u64,
    /// Number of page-backed members (`rbtree-cache`).
    cache: usize,
    /// Number of slab-class members (`rbtree-slab`).
    slab: usize,
    /// Distinct frames backing members, refcounted (several slab
    /// objects can share a frame) and kept ascending by full `FrameId`
    /// (the report-visible migration order), so the migration walks
    /// iterate it in place.
    frames: FrameRefs,
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
            cold_ticket: 0,
            cache: 0,
            slab: 0,
            frames: FrameRefs::default(),
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

    /// The knode's cold-crossing ticket (0 while it is not cold).
    pub(crate) fn cold_ticket(&self) -> u64 {
        self.cold_ticket
    }

    /// Records the knode's cold-crossing ticket (kmap index repair only).
    pub(crate) fn set_cold_ticket(&mut self, ticket: u64) {
        self.cold_ticket = ticket;
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

    /// Adds a member object of type `ty` backed by `frame`
    /// (`knode_add_obj` in Table 2): counts it in the cache or slab tree
    /// by the object's backing and takes a reference on its frame.
    /// Returns the tree used. The caller guarantees the object is not
    /// already a member of any knode (see the membership contract at
    /// [`crate::KlocRegistry`]).
    pub fn add_obj(&mut self, ty: KernelObjectType, frame: FrameId) -> MemberTree {
        let tree = match ty.backing() {
            Backing::Page(_) => {
                self.cache += 1;
                MemberTree::Cache
            }
            Backing::Slab => {
                self.slab += 1;
                MemberTree::Slab
            }
        };
        self.frames.add(frame);
        tree
    }

    /// Removes a member of type `ty` backed by `frame`, the same frame
    /// it was added with (an object's frame never changes). Returns
    /// whether its tree counted a member to remove; an empty tree is
    /// left at zero rather than underflowing.
    pub fn remove_obj(&mut self, ty: KernelObjectType, frame: FrameId) -> bool {
        let count = match ty.backing() {
            Backing::Page(_) => &mut self.cache,
            Backing::Slab => &mut self.slab,
        };
        debug_assert!(
            *count > 0,
            "{}: removing a {ty:?} from an empty tree",
            self.inode
        );
        let Some(left) = count.checked_sub(1) else {
            return false;
        };
        *count = left;
        self.frames.unref(frame);
        true
    }

    /// Number of members across both trees.
    pub fn member_count(&self) -> usize {
        self.cache + self.slab
    }

    /// Number of members in one tree.
    pub fn tree_count(&self, tree: MemberTree) -> usize {
        match tree {
            MemberTree::Cache => self.cache,
            MemberTree::Slab => self.slab,
        }
    }

    /// Whether the knode tracks no objects.
    pub fn is_empty(&self) -> bool {
        self.member_count() == 0
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

    /// The member frame set with its walk state, for the member walks
    /// (see the park invariants at [`crate::members::FrameRefs`]).
    pub(crate) fn frame_refs_mut(&mut self) -> &mut FrameRefs {
        &mut self.frames
    }

    /// Number of member frames parked in `mask`.
    #[cfg(test)]
    pub(crate) fn parked_count(&self, mask: crate::members::Mask) -> usize {
        self.frames.parked(mask)
    }
}

impl Knode {
    /// The epoch this knode's age was last synchronized at (audited
    /// against the kmap's global epoch, which must never lag it).
    pub(crate) fn synced_epoch(&self) -> u64 {
        self.synced_epoch
    }

    /// Audits the frame set's own order, counts and parked masks.
    /// Whether the counts match the member objects needs the kernel's
    /// object table, so that cross-check lives in
    /// `KlocRegistry::ksan_audit_members`. Observation only.
    pub(crate) fn ksan_audit(&self, out: &mut Vec<kloc_mem::ksan::Violation>) {
        if let Err(err) = self.frames.ksan_check() {
            out.push(kloc_mem::ksan::Violation::new(
                "Knode.frames order <-> refcounts",
                format!("{}", self.inode),
                "frames strictly ascending, every refcount >= 1, chunks non-empty with exact maxes, walk state per chunk, no parked bit past a chunk's length or in both masks",
                "sorted refcounted frame set".to_owned(),
                err,
            ));
        }
    }

    /// Every (frame, refcount), ascending by full `FrameId`, for the
    /// registry's membership audit.
    pub(crate) fn frame_refcounts(&self) -> Vec<(FrameId, u32)> {
        let mut refs = Vec::new();
        self.frames.for_each(|frame, rc| refs.push((frame, rc)));
        refs
    }

    /// Corruption hook for sanitizer self-tests: stamps the knode's
    /// synced epoch into the future, ahead of the kmap's global epoch.
    #[doc(hidden)]
    pub fn ksan_force_synced_epoch(&mut self, epoch: u64) {
        self.synced_epoch = epoch;
    }

    /// Corruption hook for sanitizer self-tests: injects a phantom
    /// frame reference, desyncing the frame set from the member objects.
    #[doc(hidden)]
    pub fn ksan_break_knode_members(&mut self) {
        self.frames.add(FrameId(0xDEAD));
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

    /// Corruption hook for sanitizer self-tests: sets a cold-parked bit
    /// past the end of the frame set's final chunk.
    #[doc(hidden)]
    pub fn ksan_break_parked_mask(&mut self) {
        self.frames.ksan_break_mask();
    }

    /// The member frames parked in `mask`, ascending by full `FrameId`.
    pub(crate) fn parked_frames(
        &self,
        mask: crate::members::Mask,
    ) -> impl Iterator<Item = FrameId> + '_ {
        self.frames.parked_frames(mask)
    }

    /// The member frames a demotion walk under `key` at `now` skips for
    /// its chunk bounds.
    pub(crate) fn bounded_frames(&self, key: (Nanos, u64), now: Nanos) -> Vec<FrameId> {
        self.frames.bounded_frames(key, now)
    }

    /// Corruption hook for sanitizer self-tests: cold-parks `frame`'s
    /// entry without checking or watching the frame.
    #[doc(hidden)]
    pub fn ksan_park_frame(&mut self, frame: FrameId) {
        self.frames
            .set_parked(frame, crate::members::Mask::Cold, true);
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
        let t1 = k.add_obj(KernelObjectType::PageCache, FrameId(10));
        let t2 = k.add_obj(KernelObjectType::Dentry, FrameId(11));
        assert_eq!(t1, MemberTree::Cache);
        assert_eq!(t2, MemberTree::Slab);
        assert_eq!(k.tree_count(MemberTree::Cache), 1);
        assert_eq!(k.tree_count(MemberTree::Slab), 1);
        assert_eq!(k.member_count(), 2);
    }

    #[test]
    fn remove_from_either_tree() {
        let mut k = knode();
        k.add_obj(KernelObjectType::PageCache, FrameId(10));
        k.add_obj(KernelObjectType::Extent, FrameId(11));
        assert!(k.remove_obj(KernelObjectType::PageCache, FrameId(10)));
        assert_eq!(k.tree_count(MemberTree::Cache), 0);
        assert_eq!(k.tree_count(MemberTree::Slab), 1);
        assert!(k.remove_obj(KernelObjectType::Extent, FrameId(11)));
        assert!(k.is_empty());
        assert_eq!(k.member_frames().count(), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "removing a PageCache from an empty tree")]
    fn remove_from_an_empty_tree_is_a_contract_breach() {
        let mut k = knode();
        k.add_obj(KernelObjectType::Dentry, FrameId(7));
        k.remove_obj(KernelObjectType::PageCache, FrameId(7));
    }

    #[test]
    fn member_frames_deduplicate_shared_slab_pages() {
        let mut k = knode();
        // Two dentries packed on the same slab frame.
        k.add_obj(KernelObjectType::Dentry, FrameId(7));
        k.add_obj(KernelObjectType::Dentry, FrameId(7));
        k.add_obj(KernelObjectType::PageCache, FrameId(8));
        assert_eq!(frames(&k), vec![FrameId(7), FrameId(8)]);
        // Removing one sharer keeps the frame; removing both drops it.
        assert!(k.remove_obj(KernelObjectType::Dentry, FrameId(7)));
        assert_eq!(frames(&k), vec![FrameId(7), FrameId(8)]);
        assert!(k.remove_obj(KernelObjectType::Dentry, FrameId(7)));
        assert_eq!(frames(&k), vec![FrameId(8)]);
        assert_eq!(k.member_frame_count(), 1);
    }

    #[test]
    fn member_views_sort_by_full_id() {
        let mut k = knode();
        // Insertion order deliberately disagrees with id order, and two
        // frames share a slot (low 32 bits) across generations.
        k.add_obj(KernelObjectType::PageCache, FrameId(5));
        k.add_obj(KernelObjectType::PageCache, FrameId((1 << 32) | 4));
        k.add_obj(KernelObjectType::PageCache, FrameId(4));
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
