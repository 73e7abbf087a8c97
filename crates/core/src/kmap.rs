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
//! * an **active bitset** over inode numbers, so scans of in-use knodes
//!   skip the (typically much larger) inactive population; ascending
//!   bit order is inode order;
//! * a **cold bitset** of inactive knodes past the policy's age
//!   threshold — knodes enter when their stamp crosses the watermark
//!   (at most once per cold spell) and leave on touch/reactivation, so
//!   the per-tick demotion batch is read off the lowest set bits in
//!   inode order instead of re-scanning and re-sorting every cold knode
//!   each tick;
//! * an **inactive heap**: a min-heap of `(inactive-since epoch, inode)`
//!   for inactive knodes not yet cold, from which the cold query pops
//!   the knodes whose stamps crossed the watermark. Entries are
//!   validated lazily: an activation change only flips a bit and leaves
//!   the knode's old heap entry in place, and a pop counts an entry only
//!   if its knode is still mapped, inactive, not cold, and at that
//!   stamp. When stale entries outnumber live ones (plus a small slack)
//!   the heap is rebuilt from its own live entries, so it stays O(live
//!   entries) without ever scanning the knode population.
//!
//! Every activation change therefore costs one bit flip plus at most
//! one O(log n) heap push — no tree node is allocated, freed or
//! rebalanced on the open/close/touch paths.
//!
//! All knode mutation funnels through [`Kmap::with_knode_mut`] /
//! [`Kmap::with_knode_mut_at`], which repair the indexes when a mutation
//! changes the knode's activation state or inactivity stamp; no
//! `&mut Knode` ever escapes the kmap.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use kloc_mem::Nanos;

use kloc_kernel::vfs::InodeId;

use crate::knode::Knode;

/// Sentinel in the dense inode index marking an unmapped inode.
const NO_SLOT: u32 = u32::MAX;

/// Stale inactive-heap entries tolerated beyond the live count before
/// a rebuild; keeps tiny heaps from rebuilding on every change.
const HEAP_SLACK: usize = 64;

/// A set of inodes as a dense bitset over inode numbers (sequential VFS
/// handles), with its population count. Ascending bit order is inode
/// order.
#[derive(Debug, Clone, Default)]
struct InodeBits {
    words: Vec<u64>,
    len: usize,
}

impl InodeBits {
    #[inline]
    fn locate(inode: InodeId) -> (usize, u64) {
        // lint: truncation-ok — inode numbers index the dense tables
        ((inode.0 / 64) as usize, 1 << (inode.0 % 64))
    }

    /// Adds `inode` (a no-op if present).
    #[inline]
    fn insert(&mut self, inode: InodeId) {
        let (w, bit) = Self::locate(inode);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.len += usize::from(self.words[w] & bit == 0);
        self.words[w] |= bit;
    }

    /// Drops `inode` (a no-op if absent).
    #[inline]
    fn remove(&mut self, inode: InodeId) {
        let (w, bit) = Self::locate(inode);
        if let Some(word) = self.words.get_mut(w) {
            self.len -= usize::from(*word & bit != 0);
            *word &= !bit;
        }
    }

    #[inline]
    fn contains(&self, inode: InodeId) -> bool {
        let (w, bit) = Self::locate(inode);
        self.words.get(w).is_some_and(|word| word & bit != 0)
    }

    fn len(&self) -> usize {
        self.len
    }

    /// The members in inode order.
    fn iter(&self) -> impl Iterator<Item = InodeId> + '_ {
        let words = if self.len == 0 {
            &[][..]
        } else {
            &self.words[..]
        };
        (0u64..).zip(words).flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = u64::from(rest.trailing_zeros());
                    rest &= rest - 1;
                    InodeId(w * 64 + bit)
                })
            })
        })
    }
}

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
    /// Min-heap of `(inactive_stamp, inode)` for inactive knodes that
    /// are not cold, validated lazily (see the module docs).
    inactive_idx: BinaryHeap<Reverse<(u64, InodeId)>>,
    /// Inactive knodes that are not cold — the heap's live entries.
    /// Every other heap entry is stale.
    heap_live: usize,
    /// In-use knodes.
    active_idx: InodeBits,
    /// The age threshold the cold bitset below is maintained for —
    /// registered by the first [`Kmap::cold_inodes_with_members`] call.
    cold_threshold: Option<u32>,
    /// Stamps at or below this are cold (`epoch - cold_threshold` as of
    /// the last cold query).
    cold_watermark: u64,
    /// Inactive knodes whose stamp is at or below the watermark.
    /// Maintained incrementally: a knode enters when its stamp crosses
    /// the watermark (at most once per cold spell) and leaves on
    /// touch/reactivation/unmap, so the per-tick cold query reads its
    /// batch straight off the lowest set bits.
    cold_idx: InodeBits,
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

    /// Whether an inactive knode at `stamp` belongs in the cold bitset
    /// rather than the inactive heap.
    #[inline]
    fn is_cold(&self, stamp: u64) -> bool {
        self.cold_threshold.is_some() && stamp <= self.cold_watermark
    }

    /// Files a newly inactive (or restamped) knode: straight into the
    /// cold bitset if its stamp is already past the watermark (knodes
    /// usually cross it later, via the cold query's heap pops), else
    /// onto the inactive heap.
    #[inline]
    fn enter_inactive(&mut self, stamp: u64, inode: InodeId) {
        if self.is_cold(stamp) {
            self.cold_idx.insert(inode);
        } else {
            self.inactive_idx.push(Reverse((stamp, inode)));
            self.heap_live += 1;
        }
    }

    /// Unfiles a knode leaving the inactive state (or its old stamp):
    /// clears its cold bit, or lets its heap entry go stale.
    #[inline]
    fn leave_inactive(&mut self, stamp: u64, inode: InodeId) {
        if self.is_cold(stamp) {
            self.cold_idx.remove(inode);
        } else {
            self.heap_live -= 1;
        }
    }

    /// Whether heap entry `(stamp, inode)` is live: its knode is still
    /// mapped, inactive, at that stamp, and not yet cold. A knode can
    /// hold two entries at one stamp (closed, reopened and closed again
    /// within an epoch); the cold check counts only the first popped.
    fn heap_entry_live(&self, stamp: u64, inode: InodeId) -> bool {
        self.index_get(inode).is_some_and(|slot| {
            let k = self.at(slot);
            !k.inuse() && k.inactive_stamp() == stamp
        }) && !self.cold_idx.contains(inode)
    }

    /// Rebuilds the inactive heap from its live entries once stale ones
    /// outnumber them by more than [`HEAP_SLACK`]. Each stale entry was
    /// left by one activation change since the last rebuild, and more
    /// than half the heap is stale, so the O(n log n) rebuild amortizes
    /// to O(log n) per change. Called only between index repairs, when
    /// every live entry's knode is filed.
    fn bound_heap(&mut self) {
        if self.inactive_idx.len() <= 2 * self.heap_live + HEAP_SLACK {
            return;
        }
        let mut entries = std::mem::take(&mut self.inactive_idx).into_vec();
        entries.retain(|&Reverse((stamp, inode))| self.heap_entry_live(stamp, inode));
        entries.sort_unstable();
        entries.dedup();
        debug_assert_eq!(entries.len(), self.heap_live);
        self.inactive_idx = BinaryHeap::from(entries);
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
            self.enter_inactive(stamp, inode);
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
            self.active_idx.remove(inode);
        } else {
            self.leave_inactive(knode.inactive_stamp(), inode);
            self.bound_heap();
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
                self.active_idx.remove(inode);
                self.enter_inactive(is_stamp, inode);
            } else {
                self.leave_inactive(was_stamp, inode);
                self.active_idx.insert(inode);
                self.bound_heap();
            }
        } else if !is_active && was_stamp != is_stamp {
            self.leave_inactive(was_stamp, inode);
            self.enter_inactive(is_stamp, inode);
            self.bound_heap();
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

    /// Iterates the in-use knodes in inode order, via the active bitset —
    /// cost is O(#active) knode reads plus one word per 64 inode
    /// numbers, independent of the inactive population.
    pub fn active_knodes(&self) -> impl Iterator<Item = &Knode> + '_ {
        self.active_idx.iter().map(|inode| {
            self.note_examined(1);
            let slot = self.slot_of(inode).expect("active index entry has knode"); // lint: unwrap-ok — the active index tracks live knodes
            self.at(slot)
        })
    }

    /// Appends to `out` the first `max` inodes, in inode order, of
    /// inactive knodes with age >= `min_age` that still track members.
    ///
    /// Served from the incrementally maintained cold bitset: the call
    /// pops the knodes whose stamps crossed the cold cutoff since the
    /// last query off the inactive heap (each crosses at most once per
    /// cold spell), then reads the batch off the lowest set bits —
    /// O(batch) knode reads, independent of how many knodes are cold.
    /// Inode order is exactly what sorting the full candidate range and
    /// truncating to `max` used to produce.
    pub fn cold_inodes_with_members(&mut self, min_age: u32, max: usize, out: &mut Vec<InodeId>) {
        // A knode is cold iff its stamp <= epoch - min_age; nothing
        // qualifies while fewer than min_age epochs have elapsed.
        let Some(max_stamp) = self.epoch.checked_sub(u64::from(min_age)) else {
            return;
        };
        if self.cold_threshold != Some(min_age) {
            // First query (or a new threshold): return every cold knode
            // to the heap, then pop against the new watermark below; the
            // bitset stays incremental from here on.
            let cold: Vec<InodeId> = self.cold_idx.iter().collect();
            for inode in cold {
                let knode = self.get(inode).expect("cold bit names a mapped knode"); // lint: unwrap-ok — the cold bitset tracks live knodes
                self.inactive_idx
                    .push(Reverse((knode.inactive_stamp(), inode)));
            }
            self.heap_live += self.cold_idx.len();
            self.cold_idx = InodeBits::default();
            self.cold_threshold = Some(min_age);
        }
        self.cold_watermark = max_stamp;
        while let Some(&Reverse((stamp, inode))) = self.inactive_idx.peek() {
            if stamp > max_stamp {
                break;
            }
            self.inactive_idx.pop();
            if self.heap_entry_live(stamp, inode) {
                self.cold_idx.insert(inode);
                self.heap_live -= 1;
            }
        }
        self.bound_heap();
        for inode in self.cold_idx.iter() {
            if out.len() == max {
                break;
            }
            self.note_examined(1);
            let slot = self.slot_of(inode).expect("index entry has knode"); // lint: unwrap-ok — the cold bitset tracks live knodes
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
    /// A filtered scan of every knode: for tests and diagnostics, never
    /// the tick path.
    pub fn inactive_knodes(&self) -> Vec<InodeId> {
        let mut v: Vec<(Nanos, InodeId)> = self
            .iter()
            .filter(|k| !k.inuse())
            .map(|k| (k.last_active(), k.inode()))
            .collect();
        v.sort_unstable();
        v.into_iter().map(|(_, inode)| inode).collect()
    }
}

#[cfg(feature = "ksan")]
impl Kmap {
    /// Audits the kmap: the inode index against the slot storage, the
    /// free list, the global epoch against every knode's synced epoch,
    /// the activation indexes against every knode (the active bitset
    /// holds exactly the in-use knodes, the cold bitset exactly the
    /// inactive ones at or below the watermark, and every other inactive
    /// knode has a heap entry at its current stamp), the heap's live
    /// count and bound, and each knode's internal frame refcounts.
    /// Observation only — in particular the `examined` scan probe is
    /// never touched, so a run audited by ksan reports the same counters
    /// as an unaudited one.
    pub fn ksan_audit(&self, out: &mut Vec<kloc_mem::ksan::Violation>) {
        use std::collections::BTreeSet;

        use kloc_mem::ksan::Violation;
        let heap: BTreeSet<(u64, InodeId)> = self.inactive_idx.iter().map(|e| e.0).collect();
        let mut above_watermark = 0usize;
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
            let stamp = knode.inactive_stamp();
            let in_active = self.active_idx.contains(inode);
            let in_cold = self.cold_idx.contains(inode);
            if knode.inuse() && (!in_active || in_cold) {
                out.push(Violation::new(
                    "Knode.inuse <-> Kmap activation indexes",
                    format!("{inode}"),
                    "an in-use knode sits in the active bitset only",
                    "active bit".to_owned(),
                    format!("active: {in_active}, cold: {in_cold}"),
                ));
            }
            if knode.inuse() {
                knode.ksan_audit(out);
                continue;
            }
            if in_active {
                out.push(Violation::new(
                    "Knode.inuse <-> Kmap activation indexes",
                    format!("{inode}"),
                    "an inactive knode has no active bit",
                    "no active bit".to_owned(),
                    "active bit set".to_owned(),
                ));
            }
            let should_cold = self.is_cold(stamp);
            if should_cold != in_cold {
                out.push(Violation::new(
                    "Kmap.cold_idx <-> Kmap.inactive_idx",
                    format!("{inode}"),
                    "the cold bitset holds exactly the inactive knodes at or below the watermark",
                    format!(
                        "stamp {stamp} vs watermark {}: cold = {should_cold}",
                        self.cold_watermark
                    ),
                    format!("cold = {in_cold}"),
                ));
            }
            if !should_cold && !heap.contains(&(stamp, inode)) {
                out.push(Violation::new(
                    "Knode.inuse <-> Kmap activation indexes",
                    format!("{inode}"),
                    "an inactive knode above the watermark has an inactive-heap entry at its stamp",
                    format!("inactive heap entry ({stamp}, {inode})"),
                    "no entry".to_owned(),
                ));
            }
            if !should_cold {
                above_watermark += 1;
            }
            knode.ksan_audit(out);
        }
        // Every set bit names a mapped knode in the matching state (the
        // per-knode checks above cover the converse).
        for (name, bits, want_inuse) in [
            ("Kmap.active_idx <-> Kmap.index", &self.active_idx, true),
            ("Kmap.cold_idx <-> Kmap.index", &self.cold_idx, false),
        ] {
            for inode in bits.iter() {
                if self.get(inode).map(Knode::inuse) != Some(want_inuse) {
                    out.push(Violation::new(
                        name,
                        format!("{inode}"),
                        "every set bit names a mapped knode in that state",
                        format!("mapped knode with inuse = {want_inuse}"),
                        "missing or in the other state".to_owned(),
                    ));
                }
            }
            let counted = bits
                .words
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>();
            if counted != bits.len() {
                out.push(Violation::new(
                    name,
                    "kmap",
                    "a bitset's population count matches its set bits",
                    format!("{counted} set bits"),
                    format!("len = {}", bits.len()),
                ));
            }
        }
        if above_watermark != self.heap_live {
            out.push(Violation::new(
                "Kmap.heap_live <-> Kmap.inactive_idx",
                "kmap",
                "the live heap-entry count equals the inactive knodes above the watermark",
                format!("{above_watermark} knodes"),
                format!("heap_live = {}", self.heap_live),
            ));
        }
        // Exact membership: active bits, cold bits and distinct live heap
        // entries partition the mapped knodes.
        let heap_live_entries = heap
            .iter()
            .filter(|&&(stamp, inode)| self.heap_entry_live(stamp, inode))
            .count();
        if self.active_idx.len() + self.cold_idx.len() + heap_live_entries != self.mapped {
            out.push(Violation::new(
                "Kmap activation indexes <-> Kmap.index",
                "kmap",
                "the activation indexes partition the mapped knodes",
                format!("{} mapped knodes", self.mapped),
                format!(
                    "{} active + {} cold + {heap_live_entries} live heap entries",
                    self.active_idx.len(),
                    self.cold_idx.len(),
                ),
            ));
        }
        if self.inactive_idx.len() > 2 * self.heap_live + HEAP_SLACK {
            out.push(Violation::new(
                "Kmap.inactive_idx <-> Kmap.heap_live",
                "kmap",
                "stale heap entries never outnumber live ones by more than the slack",
                format!("<= {} entries", 2 * self.heap_live + HEAP_SLACK),
                format!("{} entries", self.inactive_idx.len()),
            ));
        }
    }

    /// Corruption hook for sanitizer self-tests: drops the oldest
    /// inactive-heap entry while its knode stays inactive.
    #[doc(hidden)]
    pub fn ksan_break_inactive_index(&mut self) {
        self.inactive_idx.pop();
    }

    /// Corruption hook for sanitizer self-tests: clears the lowest cold
    /// bit (or plants a phantom one past the mapped inodes when the
    /// bitset is empty), desyncing it from the knodes' stamps.
    #[doc(hidden)]
    pub fn ksan_break_cold_index(&mut self) {
        let lowest = self.cold_idx.iter().next();
        if let Some(inode) = lowest {
            self.cold_idx.remove(inode);
        } else {
            self.cold_threshold.get_or_insert(1);
            self.cold_idx.insert(InodeId(self.index.len() as u64));
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
