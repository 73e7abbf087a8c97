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
//!   (at most once per cold spell) and leave on touch/reactivation;
//! * a **cold queue** of those crossings in the order they happened.
//!   Each crossing queues the knode once, under a fresh ticket the knode
//!   keeps while it stays cold, and the per-tick demotion batch is taken
//!   off the queue's front: every cold knode is handed out once per
//!   cold spell, oldest crossing first, so it is demoted as soon as its
//!   age confirms it is cold (§4.5). An entry whose knode left the cold
//!   set (touched, reopened, destroyed) no longer matches its ticket and
//!   is dropped when it reaches the front;
//! * an **inactive heap**: a min-heap of `(inactive-since epoch, inode)`
//!   for inactive knodes not yet cold, from which the cold query pops
//!   the knodes whose stamps crossed the watermark. Entries are
//!   validated lazily: an activation change only flips a bit and leaves
//!   the knode's old heap entry in place, and a pop counts an entry only
//!   if its knode is still mapped, inactive, not cold, and at that
//!   stamp. When stale entries outnumber live ones (plus a small slack)
//!   the heap is rebuilt from its own live entries, and the cold queue
//!   is compacted the same way, so both stay O(live entries) without
//!   ever scanning the knode population.
//!
//! Every activation change therefore costs one bit flip plus at most
//! one O(log n) heap push or one queue push — no tree node is
//! allocated, freed or rebalanced on the open/close/touch paths.
//!
//! All knode mutation funnels through [`Kmap::with_knode_mut`] /
//! [`Kmap::with_knode_mut_at`], which repair the indexes when a mutation
//! changes the knode's activation state or inactivity stamp; no
//! `&mut Knode` ever escapes the kmap. [`Kmap::touch_at`], the object
//! access's recency touch, skips the repair for active knodes, whose
//! touch can never need it.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use kloc_mem::{Nanos, TenantId};

use kloc_kernel::hooks::CpuId;
use kloc_kernel::vfs::InodeId;

use crate::knode::Knode;

/// Sentinel in the dense inode index marking an unmapped inode.
const NO_SLOT: u32 = u32::MAX;

/// Stale inactive-heap (and cold-queue) entries tolerated beyond the
/// live count before a rebuild; keeps tiny heaps from rebuilding on
/// every change.
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
    /// touch/reactivation/unmap.
    cold_idx: InodeBits,
    /// Crossings into `cold_idx` not yet handed out, oldest first, as
    /// `(ticket, inode)`. An entry is live while its knode still holds
    /// the ticket ([`Knode::cold_ticket`]); every other entry is stale.
    cold_queue: VecDeque<(u64, InodeId)>,
    /// The last crossing ticket issued. Tickets start at 1; a knode
    /// outside the cold bitset holds 0.
    last_ticket: u64,
    /// The newest ticket taken off the cold queue's front. Entries leave
    /// in ticket order, so a cold knode holding a newer ticket still has
    /// its entry queued (audited).
    popped_ticket: u64,
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

    #[expect(clippy::expect_used, reason = "the index only stores occupied slots")]
    fn at(&self, slot: u32) -> &Knode {
        self.slots[slot as usize]
            .as_ref()
            .expect("index entry has knode")
    }

    /// Whether an inactive knode at `stamp` belongs in the cold bitset
    /// rather than the inactive heap.
    #[inline]
    fn is_cold(&self, stamp: u64) -> bool {
        self.cold_threshold.is_some() && stamp <= self.cold_watermark
    }

    /// Files a newly inactive (or restamped) knode in `slot`: straight
    /// into the cold set if its stamp is already past the watermark
    /// (knodes usually cross it later, via the cold query's heap pops),
    /// else onto the inactive heap.
    #[inline]
    fn enter_inactive(&mut self, stamp: u64, inode: InodeId, slot: u32) {
        if self.is_cold(stamp) {
            self.enter_cold(inode, slot);
        } else {
            self.inactive_idx.push(Reverse((stamp, inode)));
            self.heap_live += 1;
        }
    }

    /// Unfiles the knode in `slot` as it leaves the inactive state (or
    /// its old stamp): clears its cold bit and ticket, or lets its heap
    /// entry go stale.
    #[inline]
    fn leave_inactive(&mut self, stamp: u64, inode: InodeId, slot: u32) {
        if self.is_cold(stamp) {
            self.cold_idx.remove(inode);
            if let Some(k) = self.knode_at_mut(slot) {
                k.set_cold_ticket(0);
            }
        } else {
            self.heap_live -= 1;
        }
    }

    /// Records the knode in `slot` crossing into the cold set: sets its
    /// cold bit and queues the crossing.
    fn enter_cold(&mut self, inode: InodeId, slot: u32) {
        self.cold_idx.insert(inode);
        self.queue_crossing(inode, slot);
    }

    /// Queues the cold knode in `slot` at the back of the cold queue
    /// under a fresh ticket; an entry it may still have queued goes
    /// stale.
    fn queue_crossing(&mut self, inode: InodeId, slot: u32) {
        self.last_ticket += 1;
        let ticket = self.last_ticket;
        if let Some(k) = self.knode_at_mut(slot) {
            k.set_cold_ticket(ticket);
        }
        self.cold_queue.push_back((ticket, inode));
    }

    /// The slot of heap entry `(stamp, inode)`'s knode if the entry is
    /// live: its knode is still mapped, inactive, at that stamp, and not
    /// yet cold. A knode can hold two entries at one stamp (closed,
    /// reopened and closed again within an epoch); the cold check counts
    /// only the first popped.
    fn heap_entry_slot(&self, stamp: u64, inode: InodeId) -> Option<u32> {
        self.index_get(inode).filter(|&slot| {
            let k = self.at(slot);
            !k.inuse() && k.inactive_stamp() == stamp && !self.cold_idx.contains(inode)
        })
    }

    /// Whether cold-queue entry `(ticket, inode)` is live: its knode is
    /// still mapped and holds the ticket, so it has stayed cold since
    /// the crossing the entry records and was not queued again since. A
    /// ticket, not the stamp, names the crossing because a knode can
    /// leave the cold set and cross back at the same stamp (reopened
    /// without a touch, or touched inside the epoch at threshold 0).
    fn queue_entry_live(&self, ticket: u64, inode: InodeId) -> bool {
        self.get(inode).is_some_and(|k| k.cold_ticket() == ticket)
    }

    /// Compacts the cold queue once stale entries outnumber the cold
    /// knodes by more than [`HEAP_SLACK`], keeping the live entries in
    /// order. Live entries are at most one per cold knode, so more than
    /// half the queue is dropped and the O(n) pass amortizes to O(1)
    /// per queued crossing.
    fn bound_queue(&mut self) {
        if self.cold_queue.len() <= 2 * self.cold_idx.len() + HEAP_SLACK {
            return;
        }
        let mut queue = std::mem::take(&mut self.cold_queue);
        queue.retain(|&(ticket, inode)| self.queue_entry_live(ticket, inode));
        self.cold_queue = queue;
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
        entries.retain(|&Reverse((stamp, inode))| self.heap_entry_slot(stamp, inode).is_some());
        entries.sort_unstable();
        entries.dedup();
        debug_assert_eq!(entries.len(), self.heap_live);
        self.inactive_idx = BinaryHeap::from(entries);
    }

    /// Bounds both lazily validated indexes after a change that can
    /// leave stale entries behind.
    fn bound_stale(&mut self) {
        self.bound_heap();
        self.bound_queue();
    }

    /// Registers a knode (`map_knode` / `add_to_kmap` in Table 2) and
    /// returns its storage slot — stable until the knode is unmapped,
    /// usable with [`Kmap::with_knode_mut_at`].
    ///
    /// # Panics
    /// Panics if the inode already has a knode.
    pub fn map_knode(&mut self, mut knode: Knode) -> u32 {
        let inode = knode.inode();
        // Re-base the age onto this kmap's epoch domain; a crossing
        // ticket from another kmap means nothing here.
        knode.sync_age_at(self.epoch);
        knode.set_cold_ticket(0);
        let active = knode.inuse();
        let stamp = knode.inactive_stamp();
        #[expect(clippy::expect_used, reason = "slot count is bounded well below 2^32")]
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(knode);
                s
            }
            None => {
                self.slots.push(Some(knode));
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 knodes")
            }
        };
        let prev = self.index_insert(inode, slot);
        assert!(prev.is_none(), "{inode} already has a knode");
        if active {
            self.active_idx.insert(inode);
        } else {
            self.enter_inactive(stamp, inode, slot);
        }
        slot
    }

    /// Removes and returns the knode of `inode`.
    pub fn unmap(&mut self, inode: InodeId) -> Option<Knode> {
        let slot = self.index_remove(inode)?;
        let (inuse, stamp) = (self.at(slot).inuse(), self.at(slot).inactive_stamp());
        if inuse {
            self.active_idx.remove(inode);
        } else {
            self.leave_inactive(stamp, inode, slot);
            self.bound_stale();
        }
        self.free.push(slot);
        #[expect(clippy::expect_used, reason = "the index only stores occupied slots")]
        let knode = self.slots[slot as usize]
            .take()
            .expect("index entry has knode");
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
    /// the mutation changed them. This — with its slot-addressed twin
    /// [`Kmap::with_knode_mut_at`] and the active-knode touch of
    /// [`Kmap::touch_at`] — is the only mutable access to a knode's
    /// activation state and age, so the indexes cannot go stale. Does
    /// not count a tree access.
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
                self.enter_inactive(is_stamp, inode, slot);
            } else {
                self.leave_inactive(was_stamp, inode, slot);
                self.active_idx.insert(inode);
                self.bound_stale();
            }
        } else if !is_active && was_stamp != is_stamp {
            self.leave_inactive(was_stamp, inode, slot);
            self.enter_inactive(is_stamp, inode, slot);
            self.bound_stale();
        }
        Some(r)
    }

    /// Records an access to the knode in `slot` (resets its age, stamps
    /// time and CPU) and returns its owner — the per-CPU fast-path hit
    /// route of an object access. A touch of an active knode cannot
    /// change the activation indexes (active knodes sit only in the
    /// active bitset), so it writes the four recency fields and reads
    /// no index state; an inactive knode takes
    /// [`Kmap::with_knode_mut_at`] and its repair. `None` for a free
    /// slot.
    #[inline]
    pub fn touch_at(&mut self, slot: u32, cpu: CpuId, now: Nanos) -> Option<TenantId> {
        let epoch = self.epoch;
        let knode = self.slots.get_mut(slot as usize)?.as_mut()?;
        if knode.inuse() {
            knode.touch_at(cpu, now, epoch);
            return Some(knode.owner());
        }
        self.with_knode_mut_at(slot, |k, epoch| {
            k.touch_at(cpu, now, epoch);
            k.owner()
        })
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
            #[expect(clippy::expect_used, reason = "the active index tracks live knodes")]
            let slot = self.slot_of(inode).expect("active index entry has knode");
            self.at(slot)
        })
    }

    /// Hands out the next cold batch: appends to `out` up to `max`
    /// inactive knodes aged at least `min_age` that still track
    /// members, oldest crossing into the cold set first, the batch then
    /// sorted by inode. A knode is handed out once per cold spell; it
    /// comes back only after it is touched or reopened and turns cold
    /// again, or is queued again by [`Kmap::requeue_cold`].
    ///
    /// The call pops the knodes whose stamps crossed the cold cutoff
    /// since the last query off the inactive heap (each crosses at most
    /// once per cold spell) onto the back of the cold queue, then takes
    /// the batch off its front — O(crossings + batch + stale entries
    /// passed) knode reads, independent of how many knodes are cold. A
    /// member-less entry is dropped: a knode gains members only through
    /// an allocation, which touches it out of the cold set.
    pub fn cold_inodes_with_members(&mut self, min_age: u32, max: usize, out: &mut Vec<InodeId>) {
        // A knode is cold iff its stamp <= epoch - min_age; nothing
        // qualifies while fewer than min_age epochs have elapsed.
        let Some(max_stamp) = self.epoch.checked_sub(u64::from(min_age)) else {
            return;
        };
        if self.cold_threshold != Some(min_age) {
            // First query (or a new threshold): return every cold knode
            // to the heap and forget the queued crossings, then pop
            // against the new watermark below; the bitset and queue stay
            // incremental from here on.
            let cold: Vec<InodeId> = self.cold_idx.iter().collect();
            for inode in cold {
                #[expect(clippy::expect_used, reason = "the cold bitset tracks live knodes")]
                let slot = self.slot_of(inode).expect("cold bit names a mapped knode");
                if let Some(knode) = self.knode_at_mut(slot) {
                    knode.set_cold_ticket(0);
                    let stamp = knode.inactive_stamp();
                    self.inactive_idx.push(Reverse((stamp, inode)));
                }
            }
            self.heap_live += self.cold_idx.len();
            self.cold_idx = InodeBits::default();
            self.cold_queue.clear();
            self.cold_threshold = Some(min_age);
        }
        self.cold_watermark = max_stamp;
        while let Some(&Reverse((stamp, inode))) = self.inactive_idx.peek() {
            if stamp > max_stamp {
                break;
            }
            self.inactive_idx.pop();
            if let Some(slot) = self.heap_entry_slot(stamp, inode) {
                self.heap_live -= 1;
                self.enter_cold(inode, slot);
            }
        }
        self.bound_heap();
        let start = out.len();
        while out.len() - start < max {
            let Some((ticket, inode)) = self.cold_queue.pop_front() else {
                break;
            };
            self.popped_ticket = ticket;
            self.note_examined(1);
            if self
                .get(inode)
                .is_some_and(|k| k.cold_ticket() == ticket && k.member_count() > 0)
            {
                out.push(inode);
            }
        }
        out[start..].sort_unstable();
    }

    /// Queues `inode`'s knode again at the back of the cold queue if it
    /// is still cold, superseding any entry it still has queued: for an
    /// en-masse demotion that a failed migration left incomplete, so the
    /// knode is retried after every crossing queued before it, not on
    /// every tick.
    pub fn requeue_cold(&mut self, inode: InodeId) {
        if !self.cold_idx.contains(inode) {
            return;
        }
        if let Some(slot) = self.index_get(inode) {
            self.queue_crossing(inode, slot);
            self.bound_queue();
        }
    }

    /// The cold set, in inode order: every inactive knode whose stamp is
    /// at or below the last cold query's cutoff, handed out or not. A
    /// read-only view for tests and oracles; it leaves the examined
    /// probe alone.
    pub fn cold_set(&self) -> impl Iterator<Item = InodeId> + '_ {
        self.cold_idx.iter()
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

impl Kmap {
    /// Audits the kmap: the inode index against the slot storage, the
    /// free list, the global epoch against every knode's synced epoch,
    /// the activation indexes against every knode (the active bitset
    /// holds exactly the in-use knodes, the cold bitset exactly the
    /// inactive ones at or below the watermark, and every other inactive
    /// knode has a heap entry at its current stamp), the heap's live
    /// count and bound, the cold queue against the cold bitset (a knode
    /// holds a crossing ticket exactly while it is cold, each crossing
    /// not yet handed out is queued, and the queue holds each ticket
    /// once, oldest first, none already handed out), the queue's bound,
    /// and each knode's internal frame refcounts.
    /// Observation only — in particular the `examined` scan probe is
    /// never touched, so a run audited by ksan reports the same counters
    /// as an unaudited one.
    pub fn ksan_audit(&self, out: &mut Vec<kloc_mem::ksan::Violation>) {
        use std::collections::BTreeSet;

        use kloc_mem::ksan::Violation;
        let heap: BTreeSet<(u64, InodeId)> = self.inactive_idx.iter().map(|e| e.0).collect();
        let queued: BTreeSet<(u64, InodeId)> = self.cold_queue.iter().copied().collect();
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
            let ticket = knode.cold_ticket();
            if (ticket != 0) != in_cold || ticket > self.last_ticket {
                out.push(Violation::new(
                    "Knode.cold_ticket <-> Kmap.cold_idx",
                    format!("{inode}"),
                    "a knode holds an issued crossing ticket exactly while it is cold",
                    format!("cold = {in_cold}, ticket <= {}", self.last_ticket),
                    format!("ticket = {ticket}"),
                ));
            }
            if in_cold && ticket > self.popped_ticket && !queued.contains(&(ticket, inode)) {
                out.push(Violation::new(
                    "Kmap.cold_queue <-> Kmap.cold_idx",
                    format!("{inode}"),
                    "a cold knode whose crossing was not handed out yet has it queued",
                    format!("queue entry ({ticket}, {inode})"),
                    "no entry".to_owned(),
                ));
            }
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
            .filter(|&&(stamp, inode)| self.heap_entry_slot(stamp, inode).is_some())
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
        // Tickets strictly ascending: each crossing is queued once, in
        // order, and none was already taken off the front.
        let mut prev = self.popped_ticket;
        for &(ticket, inode) in &self.cold_queue {
            if ticket <= prev || ticket > self.last_ticket {
                out.push(Violation::new(
                    "Kmap.cold_queue order",
                    format!("{inode}"),
                    "queue tickets rise strictly, past the last one handed out",
                    format!("ticket in ({prev}, {}]", self.last_ticket),
                    format!("ticket = {ticket}"),
                ));
            }
            prev = prev.max(ticket);
        }
        if self.cold_queue.len() > 2 * self.cold_idx.len() + HEAP_SLACK {
            out.push(Violation::new(
                "Kmap.cold_queue <-> Kmap.cold_idx",
                "kmap",
                "stale queue entries never outnumber the cold knodes by more than the slack",
                format!("<= {} entries", 2 * self.cold_idx.len() + HEAP_SLACK),
                format!("{} entries", self.cold_queue.len()),
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

    /// Every mapped knode in slot order, for cross-structure audits.
    /// Unlike [`Kmap::iter`] it leaves the examined probe alone.
    pub(crate) fn ksan_knodes(&self) -> impl Iterator<Item = &Knode> {
        self.slots.iter().flatten()
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

    /// Corruption hook for sanitizer self-tests: drops the newest
    /// cold-queue entry while its knode stays cold, losing a crossing
    /// that was never handed out.
    #[doc(hidden)]
    pub fn ksan_break_cold_queue(&mut self) {
        self.cold_queue.pop_back();
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

    fn audit_clean(m: &Kmap) {
        let mut out = Vec::new();
        m.ksan_audit(&mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    fn cold_batch(m: &mut Kmap, max: usize) -> Vec<InodeId> {
        let mut out = Vec::new();
        m.cold_inodes_with_members(5, max, &mut out);
        audit_clean(m);
        out
    }

    fn touch(m: &mut Kmap, ino: u64) {
        m.with_knode_mut(InodeId(ino), |k, ep| {
            k.touch_at(CpuId(0), Nanos::from_micros(ep), ep);
        });
    }

    fn advance(m: &mut Kmap, epochs: u32) {
        for _ in 0..epochs {
            m.advance_epoch();
        }
    }

    #[test]
    fn cold_selection_scans_candidates_only() {
        let mut m = Kmap::new();
        // Four inactive knodes; 3 has no members; 5 is active.
        for ino in 1..=4 {
            let mut k = knode_at(ino, 0, false);
            if ino != 3 {
                k.add_obj(
                    kloc_kernel::KernelObjectType::PageCache,
                    kloc_mem::FrameId(ino),
                );
            }
            m.map_knode(k);
        }
        m.map_knode(knode_at(5, 0, true));
        advance(&mut m, 10);
        // Re-stamp 4 at the current epoch (age 0).
        touch(&mut m, 4);
        // 1, 2 and 3 cross; member-less 3 is dropped. The query examined
        // those three crossings, not knode 4 or the active knode 5.
        let before = m.knodes_examined();
        assert_eq!(cold_batch(&mut m, usize::MAX), [InodeId(1), InodeId(2)]);
        assert_eq!(m.knodes_examined() - before, 3);
        let cold: Vec<InodeId> = m.cold_set().collect();
        assert_eq!(cold, [InodeId(1), InodeId(2), InodeId(3)]);
        // Each crossing is handed out once: while 1 and 2 stay cold, a
        // second query hands out nothing and examines no knode.
        let before = m.knodes_examined();
        assert!(cold_batch(&mut m, usize::MAX).is_empty());
        assert_eq!(m.knodes_examined(), before);
        // A touch ends 1's cold spell. 4 (stamped at epoch 10) crosses
        // before 1 (stamped at 12), so the oldest crossing leads the
        // queue although 1 has the lower inode, and the batch limit
        // stops the read early: one knode wanted, one entry examined.
        advance(&mut m, 2);
        touch(&mut m, 1);
        advance(&mut m, 5);
        let before = m.knodes_examined();
        assert_eq!(cold_batch(&mut m, 1), [InodeId(4)]);
        assert_eq!(m.knodes_examined() - before, 1);
        assert_eq!(cold_batch(&mut m, 1), [InodeId(1)]);
        // A knode touched after it crossed but before it was handed out
        // leaves a stale entry, which the next batch drops.
        touch(&mut m, 2);
        touch(&mut m, 4);
        advance(&mut m, 5);
        assert!(cold_batch(&mut m, 0).is_empty(), "2 and 4 queued");
        touch(&mut m, 2);
        let before = m.knodes_examined();
        assert_eq!(cold_batch(&mut m, usize::MAX), [InodeId(4)]);
        assert_eq!(m.knodes_examined() - before, 2);
        // A cold knode queued again comes back once; a knode outside the
        // cold set cannot be queued.
        m.requeue_cold(InodeId(1));
        m.requeue_cold(InodeId(2));
        assert_eq!(cold_batch(&mut m, usize::MAX), [InodeId(1)]);
        assert!(cold_batch(&mut m, usize::MAX).is_empty());
        // Nothing qualifies before enough epochs have elapsed.
        let mut none = Vec::new();
        m.cold_inodes_with_members(30, usize::MAX, &mut none);
        assert!(none.is_empty());
    }

    #[test]
    fn a_knode_that_crosses_back_at_its_old_stamp_is_handed_out_again() {
        // Reactivated without a touch and closed again, a knode keeps its
        // stamp, so only its ticket tells the two cold spells apart.
        let mut m = Kmap::new();
        let mut k = knode_at(1, 0, false);
        k.add_obj(
            kloc_kernel::KernelObjectType::PageCache,
            kloc_mem::FrameId(1),
        );
        m.map_knode(k);
        advance(&mut m, 6);
        m.with_knode_mut(InodeId(1), |k, ep| k.set_inuse_at(true, ep));
        // Closed while queued: the old entry is still in the queue.
        m.with_knode_mut(InodeId(1), |k, ep| k.set_inuse_at(false, ep));
        assert!(cold_batch(&mut m, 0).is_empty());
        m.with_knode_mut(InodeId(1), |k, ep| k.set_inuse_at(true, ep));
        m.with_knode_mut(InodeId(1), |k, ep| k.set_inuse_at(false, ep));
        assert_eq!(cold_batch(&mut m, usize::MAX), [InodeId(1)]);
        assert!(cold_batch(&mut m, usize::MAX).is_empty());
        // A new spell at the same stamp after the hand-out queues anew.
        m.with_knode_mut(InodeId(1), |k, ep| k.set_inuse_at(true, ep));
        m.with_knode_mut(InodeId(1), |k, ep| k.set_inuse_at(false, ep));
        assert_eq!(cold_batch(&mut m, usize::MAX), [InodeId(1)]);
    }

    #[test]
    fn churn_keeps_the_cold_queue_bounded() {
        // Every touch of a queued cold knode leaves a stale entry; the
        // queue compacts itself instead of growing with the churn.
        let mut m = Kmap::new();
        for ino in 1..=4 {
            m.map_knode(knode_at(ino, 0, false));
        }
        advance(&mut m, 5);
        for round in 0..500 {
            advance(&mut m, 1);
            touch(&mut m, 1 + round % 4);
            // At threshold 0 the touched knode crosses again at once.
            let mut out = Vec::new();
            m.cold_inodes_with_members(0, 0, &mut out);
            audit_clean(&m);
        }
        assert!(m.cold_queue.len() <= 2 * 4 + HEAP_SLACK);
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
