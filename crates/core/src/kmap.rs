//! The global kmap: registry of all knodes (paper Fig. 1).
//!
//! Knodes live in a slot-addressed slab; an inode-keyed index (the
//! paper uses an RCU-friendly red-black tree) maps inodes to slots and
//! drives every ordered traversal. The VFS hands out inode numbers
//! sequentially, so the index is a direct-mapped dense table — a lookup
//! is one array access, and walking it in position order *is* inode
//! order, which keeps every ordered traversal identical to the tree it
//! replaces. The hot path avoids even that: the per-CPU lists in
//! [`crate::percpu`] remember each knode's slot, so a fast-path hit
//! reaches its knode with one array access and no index probe — the
//! §4.3 claim ("per-CPU lists cut rbtree accesses") made literal. Cold
//! paths — LRU selection and teardown — traverse the index here.
//!
//! Beyond the knode storage itself, the kmap maintains the state that
//! makes policy bookkeeping scan-free (paper §4.3: KLOCs age "as a side
//! effect of events", without walking active/inactive lists):
//!
//! * a global **epoch** counter — advancing it is the whole of an aging
//!   pass; knode ages derive lazily from it ([`Knode::age_at`]);
//! * an ordered **inactive index** keyed by `(inactive-since epoch,
//!   inode)`, updated O(log n) on activate/deactivate/touch, so cold-set
//!   selection is a range scan over candidates only;
//! * an **active index** so scans of in-use knodes skip the (typically
//!   much larger) inactive population;
//! * a **cold index** of knodes past the policy's age threshold, in
//!   inode order — knodes enter when their stamp crosses the watermark
//!   (at most once per cold spell) and leave on touch/reactivation, so
//!   the per-tick demotion batch is read off the front in O(batch)
//!   instead of re-scanning and re-sorting every cold knode each tick.
//!
//! All knode mutation funnels through [`Kmap::with_knode_mut`] /
//! [`Kmap::with_knode_mut_at`], which repair the indexes when a mutation
//! changes the knode's activation state or inactivity stamp; no
//! `&mut Knode` ever escapes the kmap.

use std::cell::Cell;
use std::collections::BTreeSet;

use kloc_mem::Nanos;

use kloc_kernel::vfs::InodeId;

use crate::knode::Knode;

/// Sentinel in the dense inode index marking an unmapped inode.
const NO_SLOT: u32 = u32::MAX;

/// The global knode registry.
#[derive(Debug, Clone, Default)]
pub struct Kmap {
    /// Slot-addressed knode storage. Slots are stable for a knode's
    /// lifetime (freed and recycled only on unmap), so callers may
    /// cache them.
    slots: Vec<Option<Knode>>,
    /// Recycled slot numbers.
    free: Vec<u32>,
    /// Dense inode -> slot index ([`NO_SLOT`] = unmapped). Inode numbers
    /// are sequential VFS handles, so direct indexing replaces the
    /// ordered tree, and position-order iteration is inode order.
    index: Vec<u32>,
    /// Number of mapped knodes (occupied `index` entries).
    mapped: usize,
    /// Global aging epoch; one unit of knode age per advance.
    epoch: u64,
    /// Inactive knodes ordered by how long they have been inactive:
    /// `(inactive_stamp, inode)`, oldest first.
    inactive_idx: BTreeSet<(u64, InodeId)>,
    /// In-use knodes, in inode order.
    active_idx: BTreeSet<InodeId>,
    /// The age threshold the cold index below is maintained for —
    /// registered by the first [`Kmap::cold_inodes_with_members`] call.
    cold_threshold: Option<u32>,
    /// Stamps at or below this are cold (`epoch - cold_threshold` as of
    /// the last cold query).
    cold_watermark: u64,
    /// Inactive knodes whose stamp is at or below the watermark, in
    /// inode order. Maintained incrementally: a knode enters when its
    /// stamp crosses the watermark (at most once per cold spell) and
    /// leaves on touch/reactivation/unmap, so the per-tick cold query
    /// reads its batch straight off the front instead of re-scanning
    /// and re-sorting every cold knode each time.
    cold_idx: BTreeSet<InodeId>,
    /// Accesses that had to traverse the kmap tree (misses of the
    /// per-CPU fast path); feeds the §4.3 ablation.
    tree_accesses: u64,
    /// Diagnostic probe: knodes examined by bulk scans (iteration, LRU
    /// ranking, cold/active-set selection). Targeted per-inode lookups
    /// do not count. Not part of any report — tests use it to prove the
    /// hot paths stay scan-free.
    examined: Cell<u64>,
}

impl Kmap {
    /// Creates an empty kmap.
    pub fn new() -> Self {
        Kmap::default()
    }

    /// Number of registered knodes.
    pub fn len(&self) -> usize {
        self.mapped
    }

    /// Whether no knodes are registered.
    pub fn is_empty(&self) -> bool {
        self.mapped == 0
    }

    /// Slot mapped for `inode`, off one array probe.
    #[inline]
    fn index_get(&self, inode: InodeId) -> Option<u32> {
        match self.index.get(inode.0 as usize) {
            Some(&s) if s != NO_SLOT => Some(s),
            _ => None,
        }
    }

    /// Maps `inode` to `slot`, growing the table on first sight of a new
    /// inode number. Returns the previous slot, if any.
    fn index_insert(&mut self, inode: InodeId, slot: u32) -> Option<u32> {
        let i = inode.0 as usize;
        if i >= self.index.len() {
            self.index.resize(i + 1, NO_SLOT);
        }
        let prev = self.index[i];
        self.index[i] = slot;
        if prev == NO_SLOT {
            self.mapped += 1;
            None
        } else {
            Some(prev)
        }
    }

    /// Unmaps `inode`, returning its slot if it was mapped.
    fn index_remove(&mut self, inode: InodeId) -> Option<u32> {
        let entry = self.index.get_mut(inode.0 as usize)?;
        let prev = *entry;
        if prev == NO_SLOT {
            return None;
        }
        *entry = NO_SLOT;
        self.mapped -= 1;
        Some(prev)
    }

    /// Iterates `(inode, slot)` pairs of mapped knodes in inode order.
    fn index_iter(&self) -> impl Iterator<Item = (InodeId, u32)> + '_ {
        self.index
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != NO_SLOT)
            .map(|(i, &s)| (InodeId(i as u64), s))
    }

    /// Accesses that traversed the tree (per-CPU fast-path misses).
    pub fn tree_accesses(&self) -> u64 {
        self.tree_accesses
    }

    /// The current aging epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances the aging epoch: every inactive knode is now one unit
    /// older. O(1) — ages derive lazily ([`Knode::age_at`]); nothing is
    /// walked.
    pub fn advance_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Knodes examined by bulk scans so far (see the field doc).
    pub fn knodes_examined(&self) -> u64 {
        self.examined.get()
    }

    fn note_examined(&self, n: u64) {
        self.examined.set(self.examined.get() + n);
    }

    fn at(&self, slot: u32) -> &Knode {
        self.slots[slot as usize]
            .as_ref()
            .expect("index entry has knode") // lint: unwrap-ok — the index only stores occupied slots
    }

    /// Adds `inode` to the cold index if its stamp is already past the
    /// watermark (knodes usually cross it later, via the query's
    /// incremental pull).
    #[inline]
    fn cold_enter(&mut self, stamp: u64, inode: InodeId) {
        if self.cold_threshold.is_some() && stamp <= self.cold_watermark {
            self.cold_idx.insert(inode);
        }
    }

    /// Drops `inode` from the cold index if its (previous) stamp had it
    /// there.
    #[inline]
    fn cold_leave(&mut self, stamp: u64, inode: InodeId) {
        if self.cold_threshold.is_some() && stamp <= self.cold_watermark {
            self.cold_idx.remove(&inode);
        }
    }

    /// Registers a knode (`map_knode` / `add_to_kmap` in Table 2) and
    /// returns its storage slot — stable until the knode is unmapped,
    /// usable with [`Kmap::with_knode_mut_at`].
    ///
    /// # Panics
    /// Panics if the inode already has a knode.
    pub fn map_knode(&mut self, mut knode: Knode) -> u32 {
        let inode = knode.inode();
        // Re-base the age onto this kmap's epoch domain.
        knode.sync_age_at(self.epoch);
        let active = knode.inuse();
        let stamp = knode.inactive_stamp();
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(knode);
                s
            }
            None => {
                self.slots.push(Some(knode));
                // lint: unwrap-ok — slot count is bounded well below 2^32
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 knodes")
            }
        };
        let prev = self.index_insert(inode, slot);
        assert!(prev.is_none(), "{inode} already has a knode");
        if active {
            self.active_idx.insert(inode);
        } else {
            self.inactive_idx.insert((stamp, inode));
            self.cold_enter(stamp, inode);
        }
        slot
    }

    /// Removes and returns the knode of `inode`.
    pub fn unmap(&mut self, inode: InodeId) -> Option<Knode> {
        let slot = self.index_remove(inode)?;
        let knode = self.slots[slot as usize]
            .take()
            .expect("index entry has knode"); // lint: unwrap-ok — the index only stores occupied slots
        self.free.push(slot);
        if knode.inuse() {
            self.active_idx.remove(&inode);
        } else {
            let stamp = knode.inactive_stamp();
            self.inactive_idx.remove(&(stamp, inode));
            self.cold_leave(stamp, inode);
        }
        Some(knode)
    }

    /// Storage slot of `inode`'s knode, for slot-addressed access.
    #[inline]
    pub fn slot_of(&self, inode: InodeId) -> Option<u32> {
        self.index_get(inode)
    }

    /// Looks up a knode without counting a tree access (bookkeeping
    /// paths).
    #[inline]
    pub fn get(&self, inode: InodeId) -> Option<&Knode> {
        self.index_get(inode).map(|slot| self.at(slot))
    }

    /// The knode in `slot`, mutably, *without* the index repair of
    /// [`Kmap::with_knode_mut_at`]: for the registry's member walks and
    /// wake-log drains, which touch only frame bookkeeping, never
    /// activation state or age. `None` for a free slot.
    #[inline]
    pub(crate) fn knode_at_mut(&mut self, slot: u32) -> Option<&mut Knode> {
        self.slots.get_mut(slot as usize)?.as_mut()
    }

    /// LRU age of `inode`'s knode at the current epoch.
    pub fn age_of(&self, inode: InodeId) -> Option<u32> {
        self.get(inode).map(|k| k.age_at(self.epoch))
    }

    /// Mutates `inode`'s knode through `f` (which also receives the
    /// current epoch), repairing the activation/inactivity indexes if
    /// the mutation changed them. This — and its slot-addressed twin
    /// [`Kmap::with_knode_mut_at`] — is the only mutable access to a
    /// knode, so the indexes cannot go stale. Does not count a tree
    /// access.
    pub fn with_knode_mut<R>(
        &mut self,
        inode: InodeId,
        f: impl FnOnce(&mut Knode, u64) -> R,
    ) -> Option<R> {
        let slot = self.index_get(inode)?;
        self.with_knode_mut_at(slot, f)
    }

    /// Mutates the knode in `slot` directly — the per-CPU fast-path hit
    /// route, which skips the inode index entirely. Index repair is
    /// identical to [`Kmap::with_knode_mut`]. Returns `None` for a free
    /// slot.
    pub fn with_knode_mut_at<R>(
        &mut self,
        slot: u32,
        f: impl FnOnce(&mut Knode, u64) -> R,
    ) -> Option<R> {
        let epoch = self.epoch;
        let knode = self.slots.get_mut(slot as usize)?.as_mut()?;
        let inode = knode.inode();
        let was_active = knode.inuse();
        let was_stamp = knode.inactive_stamp();
        let r = f(knode, epoch);
        let is_active = knode.inuse();
        let is_stamp = knode.inactive_stamp();
        if was_active != is_active {
            if was_active {
                self.active_idx.remove(&inode);
                self.inactive_idx.insert((is_stamp, inode));
                self.cold_enter(is_stamp, inode);
            } else {
                self.inactive_idx.remove(&(was_stamp, inode));
                self.cold_leave(was_stamp, inode);
                self.active_idx.insert(inode);
            }
        } else if !is_active && was_stamp != is_stamp {
            self.inactive_idx.remove(&(was_stamp, inode));
            self.cold_leave(was_stamp, inode);
            self.inactive_idx.insert((is_stamp, inode));
            self.cold_enter(is_stamp, inode);
        }
        Some(r)
    }

    /// Like [`Kmap::with_knode_mut`] but counts a tree traversal
    /// (whether or not the knode exists) — used when the per-CPU fast
    /// path missed.
    pub fn with_knode_mut_counted<R>(
        &mut self,
        inode: InodeId,
        f: impl FnOnce(&mut Knode, u64) -> R,
    ) -> Option<R> {
        self.tree_accesses += 1;
        self.with_knode_mut(inode, f)
    }

    /// Iterates all knodes in inode order.
    pub fn iter(&self) -> impl Iterator<Item = &Knode> {
        self.index_iter().map(|(_, slot)| {
            self.note_examined(1);
            self.at(slot)
        })
    }

    /// Iterates the in-use knodes in inode order, via the active index —
    /// cost is O(#active), independent of the inactive population.
    pub fn active_knodes(&self) -> impl Iterator<Item = &Knode> + '_ {
        self.active_idx.iter().map(|&inode| {
            self.note_examined(1);
            let slot = self.slot_of(inode).expect("active index entry has knode"); // lint: unwrap-ok — the active index tracks live knodes
            self.at(slot)
        })
    }

    /// Appends to `out` the first `max` inodes, in inode order, of
    /// inactive knodes with age >= `min_age` that still track members.
    ///
    /// Served from the incrementally maintained cold index: the call
    /// pulls in knodes whose stamps crossed the cold cutoff since the
    /// last query (each crosses at most once per cold spell), then
    /// reads the batch off the front — O(batch), independent of how
    /// many knodes are cold. Inode order is exactly what sorting the
    /// full candidate range and truncating to `max` used to produce.
    pub fn cold_inodes_with_members(&mut self, min_age: u32, max: usize, out: &mut Vec<InodeId>) {
        // A knode is cold iff its stamp <= epoch - min_age; nothing
        // qualifies while fewer than min_age epochs have elapsed.
        let Some(max_stamp) = self.epoch.checked_sub(u64::from(min_age)) else {
            return;
        };
        if self.cold_threshold != Some(min_age) {
            // First query (or a new threshold): build the index with one
            // range scan; it stays incremental from here on.
            self.cold_threshold = Some(min_age);
            self.cold_idx.clear();
            for &(_, inode) in self.inactive_idx.range(..=(max_stamp, InodeId(u64::MAX))) {
                self.cold_idx.insert(inode);
            }
        } else if max_stamp > self.cold_watermark {
            let lo = std::ops::Bound::Excluded((self.cold_watermark, InodeId(u64::MAX)));
            let hi = std::ops::Bound::Included((max_stamp, InodeId(u64::MAX)));
            for &(_, inode) in self.inactive_idx.range((lo, hi)) {
                self.cold_idx.insert(inode);
            }
        }
        self.cold_watermark = max_stamp;
        for &inode in &self.cold_idx {
            if out.len() == max {
                break;
            }
            self.note_examined(1);
            let slot = self.slot_of(inode).expect("index entry has knode"); // lint: unwrap-ok — the cold index tracks live knodes
            if self.at(slot).member_count() > 0 {
                out.push(inode);
            }
        }
    }

    /// Returns up to `n` LRU knode inodes (`get_LRU_knodes` in Table 2):
    /// inactive knodes first, oldest activity first, then the oldest
    /// active ones. Partial selection — O(knodes + n log n), not a full
    /// sort.
    pub fn lru_knodes(&self, n: usize) -> Vec<InodeId> {
        if n == 0 {
            return Vec::new();
        }
        self.note_examined(self.mapped as u64);
        // The tuple's derived order is exactly the ranking (the inode
        // tiebreak makes it total, matching the old stable sort over
        // inode-ordered iteration).
        let mut all: Vec<(bool, Nanos, InodeId)> = self
            .index_iter()
            .map(|(_, slot)| {
                let k = self.at(slot);
                (k.inuse(), k.last_active(), k.inode())
            })
            .collect();
        if n < all.len() {
            all.select_nth_unstable(n - 1);
            all.truncate(n);
        }
        all.sort_unstable();
        all.into_iter().map(|(_, _, inode)| inode).collect()
    }

    /// Inodes of all currently inactive knodes, oldest activity first.
    pub fn inactive_knodes(&self) -> Vec<InodeId> {
        let mut v: Vec<(Nanos, InodeId)> = self
            .inactive_idx
            .iter()
            .map(|&(_, inode)| {
                self.note_examined(1);
                let slot = self.slot_of(inode).expect("index entry has knode"); // lint: unwrap-ok — the inactive index tracks live knodes
                (self.at(slot).last_active(), inode)
            })
            .collect();
        v.sort_unstable();
        v.into_iter().map(|(_, inode)| inode).collect()
    }
}

#[cfg(feature = "ksan")]
impl Kmap {
    /// Audits the kmap: the inode index against the slot storage, the
    /// free list, the global epoch against every knode's synced epoch,
    /// exact two-way membership of the activation indexes, and each
    /// knode's internal frame refcounts. Observation only — in
    /// particular the `examined` scan probe is never touched, so a run
    /// audited by ksan reports the same counters as an unaudited one.
    pub fn ksan_audit(&self, out: &mut Vec<kloc_mem::ksan::Violation>) {
        use kloc_mem::ksan::Violation;
        let occupied = self.slots.iter().filter(|s| s.is_some()).count();
        if occupied != self.mapped {
            out.push(Violation::new(
                "Kmap.index <-> Kmap.slots",
                "kmap",
                "the inode index covers exactly the occupied slots",
                format!("{occupied} occupied slots"),
                format!("{} index entries", self.mapped),
            ));
        }
        let dense_entries = self.index.iter().filter(|&&s| s != NO_SLOT).count();
        if dense_entries != self.mapped {
            out.push(Violation::new(
                "Kmap.mapped <-> Kmap.index",
                "kmap",
                "the mapped count tracks the occupied dense-index entries",
                format!("{dense_entries} occupied entries"),
                format!("mapped = {}", self.mapped),
            ));
        }
        if self.free.len() + self.mapped != self.slots.len() {
            out.push(Violation::new(
                "Kmap.free <-> Kmap.slots",
                "kmap",
                "free + mapped partition the slot space",
                format!("{} slots", self.slots.len()),
                format!("{} free + {} mapped", self.free.len(), self.mapped),
            ));
        }
        for (inode, slot) in self.index_iter() {
            let Some(knode) = self.slots.get(slot as usize).and_then(Option::as_ref) else {
                out.push(Violation::new(
                    "Kmap.index <-> Kmap.slots",
                    format!("{inode}"),
                    "every index entry names an occupied slot",
                    format!("knode in slot {slot}"),
                    "empty slot".to_owned(),
                ));
                continue;
            };
            if knode.inode() != inode {
                out.push(Violation::new(
                    "Kmap.index <-> Knode.inode",
                    format!("{inode}"),
                    "the indexed slot holds that inode's knode",
                    format!("{inode}"),
                    format!("{}", knode.inode()),
                ));
            }
            if knode.synced_epoch() > self.epoch {
                out.push(Violation::new(
                    "Kmap.epoch <-> Knode.synced_epoch",
                    format!("{inode}"),
                    "the global epoch never lags a knode's synced epoch",
                    format!("<= {}", self.epoch),
                    format!("synced_epoch = {}", knode.synced_epoch()),
                ));
            }
            let in_active = self.active_idx.contains(&inode);
            let in_inactive = self.inactive_idx.contains(&(knode.inactive_stamp(), inode));
            if knode.inuse() && (!in_active || in_inactive) {
                out.push(Violation::new(
                    "Knode.inuse <-> Kmap activation indexes",
                    format!("{inode}"),
                    "an in-use knode sits in the active index only",
                    "active index".to_owned(),
                    format!("active: {in_active}, inactive: {in_inactive}"),
                ));
            }
            if !knode.inuse() && (in_active || !in_inactive) {
                out.push(Violation::new(
                    "Knode.inuse <-> Kmap activation indexes",
                    format!("{inode}"),
                    "an inactive knode sits in the inactive index, keyed by its stamp",
                    format!("inactive index entry ({}, {inode})", knode.inactive_stamp()),
                    format!("active: {in_active}, inactive: {in_inactive}"),
                ));
            }
            knode.ksan_audit(out);
        }
        // Two-way membership of the cold index against the inactive
        // index and the registered watermark.
        if self.cold_threshold.is_some() {
            for &(stamp, inode) in &self.inactive_idx {
                let should = stamp <= self.cold_watermark;
                let has = self.cold_idx.contains(&inode);
                if should != has {
                    out.push(Violation::new(
                        "Kmap.cold_idx <-> Kmap.inactive_idx",
                        format!("{inode}"),
                        "the cold index holds exactly the inactive knodes at or past the watermark",
                        format!(
                            "stamp {stamp} vs watermark {}: cold = {should}",
                            self.cold_watermark
                        ),
                        format!("cold = {has}"),
                    ));
                }
            }
            for &inode in &self.cold_idx {
                let inactive = self
                    .index_get(inode)
                    .map(|s| !self.at(s).inuse())
                    .unwrap_or(false);
                if !inactive {
                    out.push(Violation::new(
                        "Kmap.cold_idx <-> Kmap.index",
                        format!("{inode}"),
                        "every cold index entry names a mapped, inactive knode",
                        "mapped inactive knode".to_owned(),
                        "missing or active".to_owned(),
                    ));
                }
            }
        }
        // Exact membership: with every knode accounted for above, equal
        // sizes rule out entries pointing at unmapped inodes.
        if self.active_idx.len() + self.inactive_idx.len() != self.mapped {
            out.push(Violation::new(
                "Kmap activation indexes <-> Kmap.index",
                "kmap",
                "the activation indexes partition the mapped knodes",
                format!("{} mapped knodes", self.index.len()),
                format!(
                    "{} active + {} inactive",
                    self.active_idx.len(),
                    self.inactive_idx.len()
                ),
            ));
        }
    }

    /// Corruption hook for sanitizer self-tests: drops the oldest
    /// inactive-index entry while its knode stays inactive.
    #[doc(hidden)]
    pub fn ksan_break_inactive_index(&mut self) {
        if let Some(&entry) = self.inactive_idx.iter().next() {
            self.inactive_idx.remove(&entry);
        }
    }

    /// Corruption hook for sanitizer self-tests: drops the first cold
    /// index entry (or plants a phantom one when the index is empty),
    /// desyncing it from the inactive index.
    #[doc(hidden)]
    pub fn ksan_break_cold_index(&mut self) {
        if let Some(&inode) = self.cold_idx.iter().next() {
            self.cold_idx.remove(&inode);
        } else {
            self.cold_threshold.get_or_insert(1);
            self.cold_idx.insert(InodeId(u64::MAX - 1));
        }
    }

    /// Corruption hook for sanitizer self-tests: stamps the first mapped
    /// knode's synced epoch into the future, bypassing index repair.
    #[doc(hidden)]
    pub fn ksan_break_epoch(&mut self) {
        let epoch = self.epoch + 10;
        let first = self.index_iter().next();
        if let Some((_, slot)) = first {
            if let Some(knode) = self.slots[slot as usize].as_mut() {
                knode.ksan_force_synced_epoch(epoch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kloc_kernel::hooks::CpuId;
    use kloc_mem::Nanos;

    fn knode_at(ino: u64, t: u64, inuse: bool) -> Knode {
        let mut k = Knode::new(InodeId(ino), Nanos::from_micros(t));
        k.set_inuse_at(inuse, 0);
        k
    }

    #[test]
    fn map_and_unmap() {
        let mut m = Kmap::new();
        m.map_knode(knode_at(1, 0, true));
        assert_eq!(m.len(), 1);
        assert!(m.get(InodeId(1)).is_some());
        let k = m.unmap(InodeId(1)).unwrap();
        assert_eq!(k.inode(), InodeId(1));
        assert!(m.is_empty());
        assert!(m.unmap(InodeId(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "already has a knode")]
    fn double_map_panics() {
        let mut m = Kmap::new();
        m.map_knode(knode_at(1, 0, true));
        m.map_knode(knode_at(1, 0, true));
    }

    #[test]
    fn slots_are_stable_and_recycled() {
        let mut m = Kmap::new();
        let s1 = m.map_knode(knode_at(1, 0, true));
        let s2 = m.map_knode(knode_at(2, 0, true));
        assert_ne!(s1, s2);
        assert_eq!(m.slot_of(InodeId(1)), Some(s1));
        // Slot-addressed mutation reaches the same knode.
        let ino = m.with_knode_mut_at(s2, |k, _| k.inode()).unwrap();
        assert_eq!(ino, InodeId(2));
        // Unmapping frees the slot for the next knode.
        m.unmap(InodeId(1)).unwrap();
        assert!(m.with_knode_mut_at(s1, |_, _| ()).is_none());
        let s3 = m.map_knode(knode_at(3, 0, true));
        assert_eq!(s3, s1, "freed slot recycled");
    }

    #[test]
    fn lru_prefers_inactive_then_oldest() {
        let mut m = Kmap::new();
        m.map_knode(knode_at(1, 30, true)); // active, old
        m.map_knode(knode_at(2, 20, false)); // inactive, newer
        m.map_knode(knode_at(3, 10, false)); // inactive, oldest
        assert_eq!(m.lru_knodes(3), vec![InodeId(3), InodeId(2), InodeId(1)]);
        assert_eq!(m.lru_knodes(2), vec![InodeId(3), InodeId(2)]);
        assert_eq!(m.lru_knodes(1), vec![InodeId(3)]);
        assert!(m.lru_knodes(0).is_empty());
        assert_eq!(m.inactive_knodes(), vec![InodeId(3), InodeId(2)]);
    }

    #[test]
    fn counted_mutation_tracks_tree_accesses() {
        let mut m = Kmap::new();
        let slot = m.map_knode(knode_at(1, 0, true));
        assert!(m.with_knode_mut_counted(InodeId(1), |_, _| ()).is_some());
        assert!(m.with_knode_mut_counted(InodeId(2), |_, _| ()).is_none());
        assert_eq!(m.tree_accesses(), 2);
        // Uncounted paths do not count — in particular the slot-addressed
        // fast path, which is the point of remembering slots.
        m.get(InodeId(1));
        m.with_knode_mut(InodeId(1), |_, _| ());
        m.with_knode_mut_at(slot, |_, _| ());
        assert_eq!(m.tree_accesses(), 2);
    }

    #[test]
    fn epoch_advance_ages_inactive_knodes_only() {
        let mut m = Kmap::new();
        m.map_knode(knode_at(1, 0, true));
        m.map_knode(knode_at(2, 0, false));
        for _ in 0..3 {
            m.advance_epoch();
        }
        assert_eq!(m.age_of(InodeId(1)), Some(0));
        assert_eq!(m.age_of(InodeId(2)), Some(3));
        assert_eq!(m.age_of(InodeId(9)), None);
    }

    #[test]
    fn indexes_follow_state_transitions() {
        let mut m = Kmap::new();
        let slot = m.map_knode(knode_at(1, 0, true));
        assert_eq!(m.active_knodes().count(), 1);
        // Deactivate at epoch 2, then age 5 more epochs.
        m.advance_epoch();
        m.advance_epoch();
        m.with_knode_mut(InodeId(1), |k, ep| k.set_inuse_at(false, ep));
        for _ in 0..5 {
            m.advance_epoch();
        }
        assert_eq!(m.active_knodes().count(), 0);
        assert_eq!(m.age_of(InodeId(1)), Some(5));
        assert_eq!(m.inactive_knodes(), vec![InodeId(1)]);
        // A touch while inactive re-stamps the index entry — also via
        // the slot-addressed route.
        m.with_knode_mut_at(slot, |k, ep| {
            k.touch_at(CpuId(0), Nanos::from_micros(9), ep);
        });
        assert_eq!(m.age_of(InodeId(1)), Some(0));
        // Reactivation moves it back to the active index.
        m.with_knode_mut_at(slot, |k, ep| k.set_inuse_at(true, ep));
        assert_eq!(m.active_knodes().count(), 1);
        assert!(m.inactive_knodes().is_empty());
    }

    #[test]
    fn cold_selection_scans_candidates_only() {
        let mut m = Kmap::new();
        // Three inactive knodes; only 1 and 2 have members; 3 is old but
        // empty; 4 is recent; 5 is active.
        for ino in 1..=4 {
            let mut k = knode_at(ino, 0, false);
            if ino != 3 {
                k.add_obj(
                    kloc_kernel::ObjectId(ino),
                    kloc_kernel::KernelObjectType::PageCache,
                    kloc_mem::FrameId(ino),
                );
            }
            m.map_knode(k);
        }
        m.map_knode(knode_at(5, 0, true));
        for _ in 0..10 {
            m.advance_epoch();
        }
        // Re-stamp 4 at the current epoch (age 0).
        m.with_knode_mut(InodeId(4), |k, ep| {
            k.touch_at(CpuId(0), Nanos::from_micros(1), ep);
        });
        let mut cold = Vec::new();
        m.cold_inodes_with_members(5, usize::MAX, &mut cold);
        assert_eq!(cold, vec![InodeId(1), InodeId(2)]);
        // The cold-index read examined the three old entries, not knode
        // 4 or the active knode 5.
        let before = m.knodes_examined();
        let mut again = Vec::new();
        m.cold_inodes_with_members(5, usize::MAX, &mut again);
        assert_eq!(m.knodes_examined() - before, 3);
        // The batch limit stops the read early: one candidate wanted,
        // one entry examined.
        let before = m.knodes_examined();
        let mut one = Vec::new();
        m.cold_inodes_with_members(5, 1, &mut one);
        assert_eq!(one, vec![InodeId(1)]);
        assert_eq!(m.knodes_examined() - before, 1);
        // A touch while cold drops the knode from the cold index.
        m.with_knode_mut(InodeId(1), |k, ep| {
            k.touch_at(CpuId(0), Nanos::from_micros(2), ep);
        });
        let mut after_touch = Vec::new();
        m.cold_inodes_with_members(5, usize::MAX, &mut after_touch);
        assert_eq!(after_touch, vec![InodeId(2)]);
        // Nothing qualifies before enough epochs have elapsed.
        let mut none = Vec::new();
        m.cold_inodes_with_members(11, usize::MAX, &mut none);
        assert!(none.is_empty());
    }

    #[test]
    fn advance_epoch_examines_no_knodes() {
        let mut m = Kmap::new();
        for ino in 1..50 {
            m.map_knode(knode_at(ino, 0, ino % 2 == 0));
        }
        let before = m.knodes_examined();
        for _ in 0..100 {
            m.advance_epoch();
        }
        assert_eq!(m.knodes_examined(), before, "aging must not walk the kmap");
    }
}
