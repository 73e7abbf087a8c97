//! Struct-of-arrays frame table with a LIFO free list.
//!
//! Every simulated memory access looks up its frame record, which makes
//! the frame table the single hottest data structure in the simulator.
//! Earlier revisions stored a `Vec<Option<Frame>>` (array-of-structs);
//! this table splits the metadata into parallel dense columns keyed by
//! slot — identity, tier, kind, flags, migration count, access times and
//! counts each in their own `Vec` — so the access path touches only the
//! handful of bytes it reads and the whole table is half the footprint
//! (no `Option` discriminant, no padding to the widest field).
//!
//! [`FrameId`]s stay unique for the lifetime of the table: an id packs
//! `generation << 32 | slot`, and the generation increments each time a
//! slot is reused, so a stale id for a reused slot misses (the identity
//! column no longer matches). Free slots are reused from one LIFO stack:
//! the most recently freed slot is the next one handed out.
//!
//! A frame can be *watched* on behalf of a client that wants to hear
//! about its next change instead of re-probing it (the KLOC registry
//! parks cold knode members this way). The watch bit is the top bit of
//! the access-count word, which [`FrameTable::touch`] already reads and
//! writes, so the per-touch path loads nothing extra. When a touch or a
//! migration hits a watched frame, the table appends `(id, tag)` to a
//! wake log and clears the bit; the client drains the log.

use crate::clock::Nanos;
use crate::frame::{Frame, FrameId, PageKind};
use crate::tenant::TenantId;
use crate::tier::TierId;

const SLOT_BITS: u32 = 32;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// Flag bit: frame is pinned (non-migratable).
const FLAG_PINNED: u8 = 1 << 0;

/// Top bit of an access-count word: the frame is watched. Counts never
/// approach 2^63, so the bit is free; [`Frame::accesses`] never shows it.
const WATCHED: u64 = 1 << 63;

/// The subset of a frame record migration policies filter on. Returned
/// by [`FrameTable::meta`] so candidate walks read five columns instead
/// of materializing a full [`Frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMeta {
    /// Tier the frame resides on.
    pub tier: TierId,
    /// What the frame backs.
    pub kind: PageKind,
    /// Whether the frame is pinned (non-migratable).
    pub pinned: bool,
    /// Saturating migration count (paper §4.5 anti-ping-pong).
    pub migrations: u8,
    /// Time of the most recent access.
    pub last_access: Nanos,
}

/// O(1) slab of live frame records in struct-of-arrays layout, indexed
/// by [`FrameId`].
#[derive(Debug, Clone)]
pub struct FrameTable {
    /// Identity column: the live frame's full id, or the free sentinel
    /// (generation `u32::MAX`) when the slot is empty. Lookups compare
    /// against this to reject stale ids.
    ids: Vec<FrameId>,
    /// Tier residency column.
    tiers: Vec<TierId>,
    /// Page-kind column.
    kinds: Vec<PageKind>,
    /// Flag bits column ([`FLAG_PINNED`]).
    flags: Vec<u8>,
    /// Migration-count column (saturating 8-bit, paper §4.5).
    migrations: Vec<u8>,
    /// Allocation-time column (cold: read on free and in age reports).
    allocated_at: Vec<Nanos>,
    /// Last-access-time column.
    last_access: Vec<Nanos>,
    /// Access-count column; the top bit is the [`WATCHED`] bit.
    accesses: Vec<u64>,
    /// Watch-tag column: the tag the last [`FrameTable::watch`] left on
    /// the slot. Meaningful only while the watch bit is set, and grown
    /// only by `watch`, so runs that never watch a frame never pay for
    /// it.
    watch_tags: Vec<u32>,
    /// Wake log: `(frame, tag)` for every watched frame a touch or a
    /// migration hit since the last [`FrameTable::drain_wakes`].
    wakes: Vec<(FrameId, u32)>,
    /// Owning-tenant column. Frames are born owned by
    /// [`TenantId::DEFAULT`]; the kernel restamps them when an
    /// allocation is attributable to a specific tenant.
    tenants: Vec<TenantId>,
    /// Generation of the *next* id handed out for each slot.
    generations: Vec<u32>,
    /// Free slots as a LIFO stack (top = most recently freed).
    free: Vec<u32>,
    live: usize,
}

impl Default for FrameTable {
    fn default() -> Self {
        FrameTable::new()
    }
}

impl FrameTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FrameTable {
            ids: Vec::new(),
            tiers: Vec::new(),
            kinds: Vec::new(),
            flags: Vec::new(),
            migrations: Vec::new(),
            allocated_at: Vec::new(),
            last_access: Vec::new(),
            accesses: Vec::new(),
            watch_tags: Vec::new(),
            wakes: Vec::new(),
            tenants: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of live frames.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no frames are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Capacity in slots (live + free; high-water mark of concurrent
    /// liveness).
    pub fn slot_capacity(&self) -> usize {
        self.ids.len()
    }

    /// Reserves the id the next insertion will use, without inserting.
    /// The caller builds the [`Frame`] around the id and passes it to
    /// [`FrameTable::insert`].
    pub fn next_id(&self) -> FrameId {
        match self.free.last() {
            Some(&slot) => pack(self.generations[slot as usize], slot),
            None => {
                let slot = self.ids.len() as u32;
                pack(0, slot)
            }
        }
    }

    /// Inserts a frame built around [`FrameTable::next_id`] and returns
    /// its id.
    ///
    /// # Panics
    /// Panics if the frame's id is not the one `next_id` promised (an
    /// insert raced a second allocation, which a single-threaded
    /// simulation never does).
    pub fn insert(&mut self, frame: Frame) -> FrameId {
        let id = frame.id();
        assert_eq!(id, self.next_id(), "frame built for a stale id");
        // A fresh count never carries the watch bit, so a reused slot
        // starts unwatched.
        debug_assert_eq!(frame.accesses() & WATCHED, 0);
        let mut flags = 0u8;
        if frame.pinned() {
            flags |= FLAG_PINNED;
        }
        match self.free.pop() {
            Some(slot) => {
                let slot = slot as usize;
                debug_assert_eq!(self.ids[slot], free_sentinel(slot as u32));
                self.ids[slot] = id;
                self.tiers[slot] = frame.tier();
                self.kinds[slot] = frame.kind();
                self.flags[slot] = flags;
                self.migrations[slot] = frame.migrations();
                self.allocated_at[slot] = frame.allocated_at();
                self.last_access[slot] = frame.last_access();
                self.accesses[slot] = frame.accesses();
                self.tenants[slot] = TenantId::DEFAULT;
            }
            None => {
                self.ids.push(id);
                self.tiers.push(frame.tier());
                self.kinds.push(frame.kind());
                self.flags.push(flags);
                self.migrations.push(frame.migrations());
                self.allocated_at.push(frame.allocated_at());
                self.last_access.push(frame.last_access());
                self.accesses.push(frame.accesses());
                self.tenants.push(TenantId::DEFAULT);
                self.generations.push(1); // generation 0 handed out
            }
        }
        self.live += 1;
        id
    }

    /// Removes and returns the frame for `id`, recycling its slot.
    pub fn remove(&mut self, id: FrameId) -> Option<Frame> {
        let slot = slot_of(id);
        if self.ids.get(slot) != Some(&id) {
            return None;
        }
        let frame = self.materialize(slot);
        self.ids[slot] = free_sentinel(slot as u32);
        // Wrapping like the original single-list table: after 2^32
        // reuses of one slot the generation would collide with the free
        // sentinel, which no simulation length approaches.
        self.generations[slot] = self.generations[slot].wrapping_add(1);
        self.free.push(slot as u32);
        self.live -= 1;
        Some(frame)
    }

    /// Looks up a frame, materializing the record from the columns.
    #[inline]
    pub fn get(&self, id: FrameId) -> Option<Frame> {
        let slot = slot_of(id);
        if self.ids.get(slot) != Some(&id) {
            return None;
        }
        Some(self.materialize(slot))
    }

    /// Looks up just the columns migration policies filter on, without
    /// materializing a full [`Frame`] record. Policy candidate walks
    /// probe thousands of frames per tick and read only these fields.
    #[inline]
    pub fn meta(&self, id: FrameId) -> Option<FrameMeta> {
        let slot = slot_of(id);
        if self.ids.get(slot) != Some(&id) {
            return None;
        }
        Some(FrameMeta {
            tier: self.tiers[slot],
            kind: self.kinds[slot],
            pinned: self.flags[slot] & FLAG_PINNED != 0,
            migrations: self.migrations[slot],
            last_access: self.last_access[slot],
        })
    }

    /// Looks up just the tier column; `None` for stale ids. The
    /// cheapest liveness-plus-residency probe — migration walks use it
    /// to reject frames already on the target tier before paying for
    /// the full [`FrameMeta`] read.
    #[inline]
    pub fn tier_of_live(&self, id: FrameId) -> Option<TierId> {
        let slot = slot_of(id);
        if self.ids.get(slot) != Some(&id) {
            return None;
        }
        Some(self.tiers[slot])
    }

    /// Looks up just the owning-tenant column; `None` for stale ids.
    /// Budget checks and eviction attribution read only this field, so
    /// the probe stays a single column access.
    #[inline]
    pub fn tenant_of_live(&self, id: FrameId) -> Option<TenantId> {
        let slot = slot_of(id);
        if self.ids.get(slot) != Some(&id) {
            return None;
        }
        Some(self.tenants[slot])
    }

    /// Restamps a live frame's owning tenant, returning the previous
    /// owner; `None` for stale ids.
    #[inline]
    pub fn set_tenant(&mut self, id: FrameId, tenant: TenantId) -> Option<TenantId> {
        let slot = slot_of(id);
        if self.ids.get(slot) != Some(&id) {
            return None;
        }
        Some(std::mem::replace(&mut self.tenants[slot], tenant))
    }

    /// Looks up just the last-access column; `None` for stale ids.
    /// Recency-filtered walks (member-granular demotion) probe this
    /// first: most members of an active knode were touched recently, so
    /// the reject path reads one column.
    #[inline]
    pub fn last_access_of_live(&self, id: FrameId) -> Option<Nanos> {
        let slot = slot_of(id);
        if self.ids.get(slot) != Some(&id) {
            return None;
        }
        Some(self.last_access[slot])
    }

    /// Records an access: bumps the access count and last-access time,
    /// returning the columns the cost model needs, and wakes the frame
    /// if it is watched. This is the whole per-touch hot path — four
    /// column reads, two column writes.
    #[inline]
    pub fn touch(&mut self, id: FrameId, now: Nanos) -> Option<(TierId, PageKind)> {
        let slot = slot_of(id);
        if self.ids.get(slot) != Some(&id) {
            return None;
        }
        self.last_access[slot] = now;
        let count = self.accesses[slot] + 1;
        self.accesses[slot] = count;
        if count & WATCHED != 0 {
            self.wake(id, slot);
        }
        Some((self.tiers[slot], self.kinds[slot]))
    }

    /// Moves a live frame to `tier` and bumps its migration counter,
    /// waking the frame if it is watched. Returns `false` for stale ids.
    #[inline]
    pub fn record_migration(&mut self, id: FrameId, tier: TierId) -> bool {
        let slot = slot_of(id);
        if self.ids.get(slot) != Some(&id) {
            return false;
        }
        self.tiers[slot] = tier;
        self.migrations[slot] = self.migrations[slot].saturating_add(1);
        if self.accesses[slot] & WATCHED != 0 {
            self.wake(id, slot);
        }
        true
    }

    /// Logs the wake of watched frame `id` and clears its watch bit.
    #[cold]
    fn wake(&mut self, id: FrameId, slot: usize) {
        self.accesses[slot] &= !WATCHED;
        self.wakes.push((id, self.watch_tags[slot]));
    }

    /// Watches a live frame under `tag`: its next touch or migration
    /// appends `(id, tag)` to the wake log and clears the watch. A
    /// second watch before then replaces the tag. Returns `false` for
    /// stale ids.
    pub fn watch(&mut self, id: FrameId, tag: u32) -> bool {
        let slot = slot_of(id);
        if self.ids.get(slot) != Some(&id) {
            return false;
        }
        if slot >= self.watch_tags.len() {
            self.watch_tags.resize(slot + 1, 0);
        }
        self.accesses[slot] |= WATCHED;
        self.watch_tags[slot] = tag;
        true
    }

    /// The tag a live frame is watched under; `None` for stale or
    /// unwatched frames.
    pub fn watch_tag(&self, id: FrameId) -> Option<u32> {
        let slot = slot_of(id);
        if self.ids.get(slot) != Some(&id) || self.accesses[slot] & WATCHED == 0 {
            return None;
        }
        Some(self.watch_tags[slot])
    }

    /// Empties the wake log, yielding `(frame, tag)` in wake order.
    pub fn drain_wakes(&mut self) -> std::vec::Drain<'_, (FrameId, u32)> {
        self.wakes.drain(..)
    }

    /// Whether `id` names a live frame.
    #[inline]
    pub fn contains(&self, id: FrameId) -> bool {
        self.ids.get(slot_of(id)) == Some(&id)
    }

    /// Iterates live frames in slot order, materializing each record.
    pub fn iter(&self) -> impl Iterator<Item = Frame> + '_ {
        self.ids
            .iter()
            .enumerate()
            .filter(|(slot, id)| !is_free_sentinel(**id, *slot as u32))
            .map(|(slot, _)| self.materialize(slot))
    }

    #[inline]
    fn materialize(&self, slot: usize) -> Frame {
        Frame {
            id: self.ids[slot],
            tier: self.tiers[slot],
            kind: self.kinds[slot],
            pinned: self.flags[slot] & FLAG_PINNED != 0,
            allocated_at: self.allocated_at[slot],
            last_access: self.last_access[slot],
            accesses: self.accesses[slot] & !WATCHED,
            migrations: self.migrations[slot],
        }
    }
}

#[cfg(feature = "ksan")]
impl FrameTable {
    /// Cross-checks the table's internal invariants: every SoA column
    /// the same length, the live counter against the occupied slots, the
    /// free list against the empty slots (distinct entries, each naming
    /// an empty slot, free + live partitioning the slot space), and every
    /// identity entry against the slot holding it. Observation only.
    pub fn ksan_audit(&self, out: &mut Vec<crate::ksan::Violation>) {
        use crate::ksan::Violation;
        let slots = self.ids.len();
        let columns = [
            ("tiers", self.tiers.len()),
            ("kinds", self.kinds.len()),
            ("flags", self.flags.len()),
            ("migrations", self.migrations.len()),
            ("allocated_at", self.allocated_at.len()),
            ("last_access", self.last_access.len()),
            ("accesses", self.accesses.len()),
            ("tenants", self.tenants.len()),
            ("generations", self.generations.len()),
        ];
        for (name, len) in columns {
            if len != slots {
                out.push(Violation::new(
                    "FrameTable SoA columns",
                    format!("column {name}"),
                    "every metadata column is as long as the identity column",
                    format!("{slots} slots"),
                    format!("{len} entries"),
                ));
            }
        }
        let occupied = self
            .ids
            .iter()
            .enumerate()
            .filter(|(slot, id)| !is_free_sentinel(**id, *slot as u32))
            .count();
        if occupied != self.live {
            out.push(Violation::new(
                "FrameTable.live <-> FrameTable.ids",
                "frame table",
                "live counter equals the number of occupied slots",
                format!("{occupied} occupied slots"),
                format!("live = {}", self.live),
            ));
        }
        if self.free.len() + self.live != slots {
            out.push(Violation::new(
                "FrameTable.free <-> FrameTable.ids",
                "frame table",
                "free + live partition the slot space",
                format!("{slots} slots"),
                format!("{} free + {} live", self.free.len(), self.live),
            ));
        }
        let mut seen = vec![false; slots];
        for &slot in &self.free {
            match seen.get_mut(slot as usize) {
                Some(flag) if !*flag => *flag = true,
                Some(_) => out.push(Violation::new(
                    "FrameTable.free distinctness",
                    format!("slot {slot}"),
                    "a free slot appears on the free list once",
                    "one entry".to_owned(),
                    "duplicate entries".to_owned(),
                )),
                None => out.push(Violation::new(
                    "FrameTable.free <-> FrameTable.ids",
                    format!("slot {slot}"),
                    "free-list entries name real slots",
                    format!("slot < {slots}"),
                    format!("slot {slot}"),
                )),
            }
            if self
                .ids
                .get(slot as usize)
                .is_some_and(|id| !is_free_sentinel(*id, slot))
            {
                out.push(Violation::new(
                    "FrameTable.free <-> FrameTable.ids",
                    format!("slot {slot}"),
                    "free-list entries name empty slots",
                    "free sentinel".to_owned(),
                    "occupied slot".to_owned(),
                ));
            }
        }
        for (i, id) in self.ids.iter().enumerate() {
            if is_free_sentinel(*id, i as u32) {
                continue;
            }
            if slot_of(*id) != i {
                out.push(Violation::new(
                    "FrameTable.ids <-> Frame.id",
                    format!("frame {id}"),
                    "a frame lives in the slot its id names",
                    format!("slot {}", slot_of(*id)),
                    format!("slot {i}"),
                ));
            }
        }
    }

    /// Corruption hook for sanitizer self-tests: skews the live counter.
    #[doc(hidden)]
    pub fn ksan_break_live_count(&mut self) {
        self.live += 1;
    }

    /// Corruption hook for sanitizer self-tests: pushes the top free-list
    /// entry a second time, so one slot could be handed out twice.
    #[doc(hidden)]
    pub fn ksan_break_free_duplicate(&mut self) {
        if let Some(&slot) = self.free.last() {
            self.free.push(slot);
        }
    }

    /// Corruption hook for sanitizer self-tests: drops the top free-list
    /// entry, leaking its slot from the free + live accounting.
    #[doc(hidden)]
    pub fn ksan_break_free_accounting(&mut self) {
        self.free.pop();
    }

    /// Corruption hook for sanitizer self-tests: grows one SoA column
    /// out of step with the identity column.
    #[doc(hidden)]
    pub fn ksan_break_soa_column(&mut self) {
        self.accesses.push(0);
    }
}

#[inline]
fn slot_of(id: FrameId) -> usize {
    (id.0 & SLOT_MASK) as usize
}

#[inline]
fn pack(generation: u32, slot: u32) -> FrameId {
    FrameId((u64::from(generation) << SLOT_BITS) | u64::from(slot))
}

#[inline]
fn free_sentinel(slot: u32) -> FrameId {
    pack(u32::MAX, slot)
}

#[inline]
fn is_free_sentinel(id: FrameId, slot: u32) -> bool {
    id == free_sentinel(slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Nanos;
    use crate::frame::PageKind;
    use crate::tier::TierId;

    fn table_with(n: usize) -> (FrameTable, Vec<FrameId>) {
        let mut t = FrameTable::new();
        let ids = (0..n)
            .map(|_| {
                let id = t.next_id();
                t.insert(Frame::new(id, TierId::FAST, PageKind::AppData, Nanos::ZERO))
            })
            .collect();
        (t, ids)
    }

    #[test]
    fn first_generation_ids_are_sequential() {
        let (_, ids) = table_with(4);
        assert_eq!(ids, vec![FrameId(0), FrameId(1), FrameId(2), FrameId(3)]);
    }

    #[test]
    fn alloc_free_realloc_reuses_slot_with_fresh_id() {
        let (mut t, ids) = table_with(3);
        assert_eq!(t.len(), 3);
        let freed = t.remove(ids[1]).expect("live");
        assert_eq!(freed.id(), ids[1]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.slot_capacity(), 3);

        // Reuse occupies the freed slot but mints a distinct id.
        let id = t.next_id();
        let new = t.insert(Frame::new(id, TierId::SLOW, PageKind::Slab, Nanos::ZERO));
        assert_ne!(new, ids[1], "reused slot must not reuse the id");
        assert_eq!(new.0 & SLOT_MASK, ids[1].0 & SLOT_MASK, "slot is recycled");
        assert_eq!(t.slot_capacity(), 3, "no new slot grown");
        assert_eq!(t.len(), 3);

        // The stale id misses; the new id hits.
        assert!(t.get(ids[1]).is_none());
        assert!(!t.contains(ids[1]));
        assert_eq!(t.get(new).unwrap().kind(), PageKind::Slab);
        assert!(t.get(new).unwrap().pinned(), "slab page pinned via flags");
    }

    #[test]
    fn double_remove_is_none() {
        let (mut t, ids) = table_with(1);
        assert!(t.remove(ids[0]).is_some());
        assert!(t.remove(ids[0]).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn unknown_ids_miss() {
        let (t, _) = table_with(2);
        assert!(t.get(FrameId(99)).is_none());
        assert!(t.get(FrameId((1 << 32) | 5)).is_none());
    }

    #[test]
    fn iter_visits_each_live_frame_once() {
        let (mut t, ids) = table_with(5);
        t.remove(ids[0]).unwrap();
        t.remove(ids[3]).unwrap();
        let seen: Vec<FrameId> = t.iter().map(|f| f.id()).collect();
        assert_eq!(seen, vec![ids[1], ids[2], ids[4]]);
    }

    #[test]
    fn generations_advance_per_slot() {
        let mut t = FrameTable::new();
        let mut last = None;
        for _ in 0..4 {
            let id = t.next_id();
            t.insert(Frame::new(id, TierId::FAST, PageKind::AppData, Nanos::ZERO));
            t.remove(id).unwrap();
            if let Some(prev) = last {
                assert_ne!(prev, id);
            }
            assert_eq!(id.0 & SLOT_MASK, 0, "same slot recycled every time");
            last = Some(id);
        }
    }

    #[test]
    fn touch_updates_access_columns() {
        let (mut t, ids) = table_with(1);
        let got = t.touch(ids[0], Nanos::new(42)).expect("live");
        assert_eq!(got, (TierId::FAST, PageKind::AppData));
        t.touch(ids[0], Nanos::new(50)).unwrap();
        let f = t.get(ids[0]).unwrap();
        assert_eq!(f.accesses(), 2);
        assert_eq!(f.last_access(), Nanos::new(50));
        assert!(t.touch(FrameId(99), Nanos::ZERO).is_none());
    }

    #[test]
    fn record_migration_moves_tier_and_counts() {
        let (mut t, ids) = table_with(1);
        assert!(t.record_migration(ids[0], TierId::SLOW));
        let f = t.get(ids[0]).unwrap();
        assert_eq!(f.tier(), TierId::SLOW);
        assert_eq!(f.migrations(), 1);
        assert!(!t.record_migration(FrameId(99), TierId::FAST));
    }

    #[test]
    fn touch_wakes_a_watched_frame_once() {
        let (mut t, ids) = table_with(2);
        assert!(t.watch(ids[0], 7));
        assert_eq!(t.watch_tag(ids[0]), Some(7));
        assert_eq!(t.watch_tag(ids[1]), None, "unwatched");
        t.touch(ids[1], Nanos::new(5)).unwrap();
        assert_eq!(t.drain_wakes().count(), 0, "unwatched touches log nothing");
        t.touch(ids[0], Nanos::new(10)).unwrap();
        assert_eq!(t.watch_tag(ids[0]), None, "the wake clears the bit");
        t.touch(ids[0], Nanos::new(11)).unwrap();
        assert_eq!(t.drain_wakes().collect::<Vec<_>>(), vec![(ids[0], 7)]);
        assert_eq!(t.drain_wakes().count(), 0, "drained");
        assert_eq!(t.get(ids[0]).unwrap().accesses(), 2);
    }

    #[test]
    fn migration_wakes_a_watched_frame_once() {
        let (mut t, ids) = table_with(1);
        t.watch(ids[0], 3);
        // A re-watch replaces the tag.
        t.watch(ids[0], 4);
        assert!(t.record_migration(ids[0], TierId::SLOW));
        assert!(t.record_migration(ids[0], TierId::FAST));
        assert_eq!(t.watch_tag(ids[0]), None);
        assert_eq!(t.drain_wakes().collect::<Vec<_>>(), vec![(ids[0], 4)]);
        assert!(!t.watch(FrameId(99), 1), "stale ids cannot be watched");
    }

    #[test]
    fn reused_slot_starts_unwatched() {
        let (mut t, ids) = table_with(1);
        t.watch(ids[0], 9);
        t.remove(ids[0]).unwrap();
        let id = t.next_id();
        t.insert(Frame::new(id, TierId::FAST, PageKind::AppData, Nanos::ZERO));
        assert_eq!(id.0 & SLOT_MASK, ids[0].0 & SLOT_MASK, "slot recycled");
        assert_eq!(t.watch_tag(id), None);
        assert_eq!(t.watch_tag(ids[0]), None, "stale id");
        t.touch(id, Nanos::new(1)).unwrap();
        t.record_migration(id, TierId::SLOW);
        assert_eq!(t.drain_wakes().count(), 0);
    }

    #[test]
    fn accesses_never_show_the_watch_bit() {
        let (mut t, ids) = table_with(1);
        t.touch(ids[0], Nanos::new(1)).unwrap();
        t.watch(ids[0], 1);
        assert_eq!(t.get(ids[0]).unwrap().accesses(), 1);
        assert_eq!(t.iter().next().unwrap().accesses(), 1);
        t.touch(ids[0], Nanos::new(2)).unwrap();
        t.watch(ids[0], 1);
        assert_eq!(t.remove(ids[0]).unwrap().accesses(), 2);
    }

    #[test]
    fn tenant_stamp_survives_until_slot_reuse() {
        let (mut t, ids) = table_with(2);
        assert_eq!(t.tenant_of_live(ids[0]), Some(TenantId::DEFAULT));
        assert_eq!(t.set_tenant(ids[0], TenantId(7)), Some(TenantId::DEFAULT));
        assert_eq!(t.tenant_of_live(ids[0]), Some(TenantId(7)));
        assert_eq!(t.tenant_of_live(ids[1]), Some(TenantId::DEFAULT));

        // Recycling the slot resets ownership to the default tenant.
        t.remove(ids[0]).unwrap();
        assert_eq!(t.tenant_of_live(ids[0]), None);
        assert_eq!(t.set_tenant(ids[0], TenantId(9)), None, "stale id misses");
        let id = t.next_id();
        t.insert(Frame::new(id, TierId::FAST, PageKind::AppData, Nanos::ZERO));
        assert_eq!(id.0 & SLOT_MASK, ids[0].0 & SLOT_MASK, "slot recycled");
        assert_eq!(t.tenant_of_live(id), Some(TenantId::DEFAULT));
    }

    #[test]
    fn alloc_order_matches_global_lifo_model() {
        // Reference model: one global LIFO stack of freed slots. A seeded
        // interleaving of allocations and frees from anywhere in the live
        // set must mint exactly the slots the model predicts.
        let mut t = FrameTable::new();
        let mut model: Vec<u32> = Vec::new();
        let mut live: Vec<FrameId> = Vec::new();
        let mut rng = crate::rng::SplitMix64::seed_from_u64(0x11F0);
        for _ in 0..2000 {
            if live.is_empty() || rng.gen_below(3) != 0 {
                let id = t.next_id();
                let expect = model.pop().unwrap_or(t.slot_capacity() as u32);
                assert_eq!(slot_of(id), expect as usize, "LIFO slot reuse");
                t.insert(Frame::new(id, TierId::FAST, PageKind::AppData, Nanos::ZERO));
                live.push(id);
            } else {
                let victim = live.swap_remove(rng.gen_below(live.len() as u64) as usize);
                t.remove(victim).unwrap();
                model.push(slot_of(victim) as u32);
            }
            assert_eq!(t.len(), live.len());
            assert_eq!(t.slot_capacity(), live.len() + model.len());
        }
        while let Some(slot) = model.pop() {
            let id = t.next_id();
            assert_eq!(slot_of(id), slot as usize);
            t.insert(Frame::new(id, TierId::FAST, PageKind::AppData, Nanos::ZERO));
        }
        assert_eq!(slot_of(t.next_id()), t.slot_capacity(), "free list drained");
    }

    #[test]
    fn alloc_order_is_identical_at_any_shard_count() {
        // `ShardConfig` survives only as an inert compatibility knob: the
        // id sequence a memory system mints under churn is the bare frame
        // table's, whatever shard count is passed to `set_shards`.
        use crate::system::{MemorySystem, ShardConfig};
        fn churn(
            mut alloc: impl FnMut() -> FrameId,
            mut free: impl FnMut(FrameId),
        ) -> Vec<FrameId> {
            let mut live: Vec<FrameId> = Vec::new();
            let mut minted = Vec::new();
            for round in 0u64..120 {
                for _ in 0..(round % 5) + 1 {
                    let id = alloc();
                    live.push(id);
                    minted.push(id);
                }
                // Deterministic churn: free from the middle.
                for _ in 0..(round % 3) {
                    if live.len() > 2 {
                        free(live.remove(live.len() / 2));
                    }
                }
            }
            minted
        }
        let table = std::cell::RefCell::new(FrameTable::new());
        let baseline = churn(
            || {
                let mut t = table.borrow_mut();
                let id = t.next_id();
                t.insert(Frame::new(id, TierId::FAST, PageKind::AppData, Nanos::ZERO))
            },
            |id| {
                table.borrow_mut().remove(id).unwrap();
            },
        );
        for shards in [1, 2, 4, 8] {
            let mem = std::cell::RefCell::new(MemorySystem::two_tier(16 << 20, 8));
            mem.borrow_mut()
                .set_shards(ShardConfig::with_shards(shards));
            let got = churn(
                || {
                    mem.borrow_mut()
                        .allocate(TierId::FAST, PageKind::AppData)
                        .unwrap()
                },
                |id| mem.borrow_mut().free(id).unwrap(),
            );
            assert_eq!(got, baseline, "shards={shards}");
        }
    }
}
