//! Frame table: one packed hot record per slot, a few cold columns, and
//! a LIFO free list.
//!
//! Every simulated memory access looks up its frame record, which makes
//! the frame table the single hottest data structure in the simulator.
//! The fields an access, a policy probe or a migration reads — identity,
//! last access, access count, tier, kind, flags, migration count and
//! owning tenant — sit together in one 30-byte record per slot,
//! padded and aligned to 32. Frame slots are hit in random order, so a
//! column-per-field layout paid one cache miss per field read (2–5 per
//! event); the record pays one, and never straddles a line. The fields
//! read rarely — allocation time (on free and in age reports) and watch
//! tags — stay in separate columns so the record stays at 32 bytes.
//!
//! [`FrameId`]s stay unique for the lifetime of the table: an id packs
//! `generation << 32 | slot`, and the generation increments each time a
//! slot is reused, so a stale id for a reused slot misses (the record's
//! generation no longer matches). The slot half of an id is the record's
//! index, so a record stores only the generation half — and, in the
//! bytes that saves, the generation the slot's next id gets. Free slots
//! are reused from one LIFO stack: the most recently freed slot is the
//! next one handed out.
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
/// by [`FrameTable::meta`] so candidate walks copy five fields instead
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

/// Generation marking an empty slot (the generation half of the free
/// sentinel id).
const FREE_GENERATION: u32 = u32::MAX;

/// The hot fields of one slot: 30 bytes of payload, padded and aligned
/// to 32 so two records share a cache line and none straddles one.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(32))]
struct Record {
    /// Time of the most recent access.
    last_access: Nanos,
    /// Access count; the top bit is the [`WATCHED`] bit.
    accesses: u64,
    /// Generation half of the live frame's id, or [`FREE_GENERATION`]
    /// when the slot is empty. Lookups compare against this to reject
    /// stale ids.
    generation: u32,
    /// Generation of the *next* id handed out for this slot.
    next_generation: u32,
    /// Owning tenant. Frames are born owned by [`TenantId::DEFAULT`];
    /// the kernel restamps them when an allocation is attributable to a
    /// specific tenant.
    tenant: TenantId,
    /// Tier residency.
    tier: TierId,
    /// What the frame backs.
    kind: PageKind,
    /// Flag bits ([`FLAG_PINNED`]).
    flags: u8,
    /// Saturating 8-bit migration count (paper §4.5).
    migrations: u8,
}

const _: () = assert!(std::mem::size_of::<Record>() == 32);

/// Slots per record page (64 KiB of records).
const PAGE_SHIFT: u32 = 11;
const PAGE: usize = 1 << PAGE_SHIFT;

/// The record array, in pages of [`PAGE`] slots, each allocated whole
/// when the previous one fills: growing the table never copies a
/// record, and every page stays under glibc's initial 128 KiB mmap
/// threshold. One doubling `Vec` of 32-byte
/// records held old and new copies of the whole table at each growth,
/// and freeing its large mmapped buffers raised glibc's dynamic mmap
/// threshold; together that lifted the peak resident set of a 40-run
/// Small sweep by about 0.5 MB.
#[derive(Debug, Clone, Default)]
struct Records {
    pages: Vec<Vec<Record>>,
    len: usize,
}

impl Records {
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn get(&self, slot: usize) -> Option<&Record> {
        self.pages.get(slot >> PAGE_SHIFT)?.get(slot & (PAGE - 1))
    }

    #[inline]
    fn get_mut(&mut self, slot: usize) -> Option<&mut Record> {
        self.pages
            .get_mut(slot >> PAGE_SHIFT)?
            .get_mut(slot & (PAGE - 1))
    }

    fn push(&mut self, record: Record) {
        if self.len.is_multiple_of(PAGE) {
            self.pages.push(Vec::with_capacity(PAGE));
        }
        let page = self.pages.last_mut().expect("a page with room"); // lint: unwrap-ok — pushed above when the last page filled
        page.push(record);
        self.len += 1;
    }

    /// Records in slot order.
    fn iter(&self) -> impl Iterator<Item = &Record> {
        self.pages.iter().flatten()
    }
}

impl std::ops::Index<usize> for Records {
    type Output = Record;

    #[inline]
    fn index(&self, slot: usize) -> &Record {
        &self.pages[slot >> PAGE_SHIFT][slot & (PAGE - 1)]
    }
}

impl std::ops::IndexMut<usize> for Records {
    #[inline]
    fn index_mut(&mut self, slot: usize) -> &mut Record {
        &mut self.pages[slot >> PAGE_SHIFT][slot & (PAGE - 1)]
    }
}

/// O(1) slab of live frame records, indexed by [`FrameId`].
#[derive(Debug, Clone)]
pub struct FrameTable {
    /// One hot record per slot.
    records: Records,
    /// Allocation-time column (cold: read on free and in age reports).
    allocated_at: Vec<Nanos>,
    /// Watch-tag column: the tag the last [`FrameTable::watch`] left on
    /// the slot. Meaningful only while the watch bit is set, and grown
    /// only by `watch`, so runs that never watch a frame never pay for
    /// it.
    watch_tags: Vec<u32>,
    /// Wake log: `(frame, tag)` for every watched frame a touch or a
    /// migration hit since the last [`FrameTable::drain_wakes`].
    wakes: Vec<(FrameId, u32)>,
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
            records: Records::default(),
            allocated_at: Vec::new(),
            watch_tags: Vec::new(),
            wakes: Vec::new(),
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
        self.records.len()
    }

    /// Reserves the id the next insertion will use, without inserting.
    /// The caller builds the [`Frame`] around the id and passes it to
    /// [`FrameTable::insert`].
    pub fn next_id(&self) -> FrameId {
        match self.free.last() {
            Some(&slot) => pack(self.records[slot as usize].next_generation, slot),
            None => {
                let slot = self.records.len() as u32;
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
        let mut record = Record {
            last_access: frame.last_access(),
            accesses: frame.accesses(),
            generation: generation_of(id),
            // generation 0 handed out
            next_generation: 1,
            tenant: TenantId::DEFAULT,
            tier: frame.tier(),
            kind: frame.kind(),
            flags: if frame.pinned() { FLAG_PINNED } else { 0 },
            migrations: frame.migrations(),
        };
        match self.free.pop() {
            Some(slot) => {
                let slot = slot as usize;
                debug_assert_eq!(self.records[slot].generation, FREE_GENERATION);
                record.next_generation = self.records[slot].next_generation;
                self.records[slot] = record;
                self.allocated_at[slot] = frame.allocated_at();
            }
            None => {
                self.records.push(record);
                self.allocated_at.push(frame.allocated_at());
            }
        }
        self.live += 1;
        id
    }

    /// Removes and returns the frame for `id`, recycling its slot.
    pub fn remove(&mut self, id: FrameId) -> Option<Frame> {
        let slot = slot_of(id);
        let frame = self.get(id)?;
        let r = &mut self.records[slot];
        r.generation = FREE_GENERATION;
        // Wrapping like the original single-list table: after 2^32
        // reuses of one slot the generation would collide with the free
        // sentinel, which no simulation length approaches.
        r.next_generation = r.next_generation.wrapping_add(1);
        self.free.push(slot as u32);
        self.live -= 1;
        Some(frame)
    }

    /// The live record for `id`; `None` for stale ids.
    #[inline]
    fn record(&self, id: FrameId) -> Option<&Record> {
        let generation = generation_of(id);
        self.records
            .get(slot_of(id))
            .filter(|r| r.generation == generation)
    }

    /// The live record for `id`, mutably; `None` for stale ids.
    #[inline]
    fn record_mut(&mut self, id: FrameId) -> Option<&mut Record> {
        let generation = generation_of(id);
        self.records
            .get_mut(slot_of(id))
            .filter(|r| r.generation == generation)
    }

    /// Looks up a frame, materializing the record plus its cold
    /// allocation time.
    #[inline]
    pub fn get(&self, id: FrameId) -> Option<Frame> {
        let r = self.record(id)?;
        Some(Frame {
            id,
            tier: r.tier,
            kind: r.kind,
            pinned: r.flags & FLAG_PINNED != 0,
            allocated_at: self.allocated_at[slot_of(id)],
            last_access: r.last_access,
            accesses: r.accesses & !WATCHED,
            migrations: r.migrations,
        })
    }

    /// Looks up just the fields migration policies filter on, without
    /// materializing a full [`Frame`] (which also reads the cold
    /// allocation-time column). Policy candidate walks probe thousands
    /// of frames per tick and read only these fields.
    #[inline]
    pub fn meta(&self, id: FrameId) -> Option<FrameMeta> {
        self.record(id).map(|r| FrameMeta {
            tier: r.tier,
            kind: r.kind,
            pinned: r.flags & FLAG_PINNED != 0,
            migrations: r.migrations,
            last_access: r.last_access,
        })
    }

    /// Looks up just the tier; `None` for stale ids. The cheapest
    /// liveness-plus-residency probe — migration walks use it to reject
    /// frames already on the target tier.
    #[inline]
    pub fn tier_of_live(&self, id: FrameId) -> Option<TierId> {
        self.record(id).map(|r| r.tier)
    }

    /// Looks up just the owning tenant; `None` for stale ids. Budget
    /// checks and eviction attribution read only this field.
    #[inline]
    pub fn tenant_of_live(&self, id: FrameId) -> Option<TenantId> {
        self.record(id).map(|r| r.tenant)
    }

    /// Restamps a live frame's owning tenant, returning the previous
    /// owner; `None` for stale ids.
    #[inline]
    pub fn set_tenant(&mut self, id: FrameId, tenant: TenantId) -> Option<TenantId> {
        self.record_mut(id)
            .map(|r| std::mem::replace(&mut r.tenant, tenant))
    }

    /// Looks up just the last-access time; `None` for stale ids.
    /// Recency-filtered walks (member-granular demotion) probe this
    /// first: most members of an active knode were touched recently, so
    /// the reject path reads one field.
    #[inline]
    pub fn last_access_of_live(&self, id: FrameId) -> Option<Nanos> {
        self.record(id).map(|r| r.last_access)
    }

    /// Records an access: bumps the access count and last-access time,
    /// returning the fields the cost model needs, and wakes the frame if
    /// it is watched. This is the whole per-touch hot path — one record
    /// read and written.
    #[inline]
    pub fn touch(&mut self, id: FrameId, now: Nanos) -> Option<(TierId, PageKind)> {
        let r = self.record_mut(id)?;
        r.last_access = now;
        r.accesses += 1;
        let hit = (r.tier, r.kind);
        if r.accesses & WATCHED != 0 {
            self.wake(id);
        }
        Some(hit)
    }

    /// Moves a live frame to `tier` and bumps its migration counter,
    /// waking the frame if it is watched. Returns `false` for stale ids.
    #[inline]
    pub fn record_migration(&mut self, id: FrameId, tier: TierId) -> bool {
        let Some(r) = self.record_mut(id) else {
            return false;
        };
        r.tier = tier;
        r.migrations = r.migrations.saturating_add(1);
        if r.accesses & WATCHED != 0 {
            self.wake(id);
        }
        true
    }

    /// Logs the wake of watched frame `id` and clears its watch bit.
    #[cold]
    fn wake(&mut self, id: FrameId) {
        let slot = slot_of(id);
        self.records[slot].accesses &= !WATCHED;
        self.wakes.push((id, self.watch_tags[slot]));
    }

    /// Watches a live frame under `tag`: its next touch or migration
    /// appends `(id, tag)` to the wake log and clears the watch. A
    /// second watch before then replaces the tag. Returns `false` for
    /// stale ids.
    pub fn watch(&mut self, id: FrameId, tag: u32) -> bool {
        let Some(r) = self.record_mut(id) else {
            return false;
        };
        r.accesses |= WATCHED;
        let slot = slot_of(id);
        if slot >= self.watch_tags.len() {
            self.watch_tags.resize(slot + 1, 0);
        }
        self.watch_tags[slot] = tag;
        true
    }

    /// The tag a live frame is watched under; `None` for stale or
    /// unwatched frames.
    pub fn watch_tag(&self, id: FrameId) -> Option<u32> {
        let r = self.record(id)?;
        (r.accesses & WATCHED != 0).then(|| self.watch_tags[slot_of(id)])
    }

    /// Empties the wake log, yielding `(frame, tag)` in wake order.
    pub fn drain_wakes(&mut self) -> std::vec::Drain<'_, (FrameId, u32)> {
        self.wakes.drain(..)
    }

    /// Whether `id` names a live frame.
    #[inline]
    pub fn contains(&self, id: FrameId) -> bool {
        self.record(id).is_some()
    }

    /// Iterates live frames in slot order, materializing each record.
    pub fn iter(&self) -> impl Iterator<Item = Frame> + '_ {
        (0u32..)
            .zip(self.records.iter())
            .filter(|(_, r)| r.generation != FREE_GENERATION)
            .filter_map(|(slot, r)| self.get(pack(r.generation, slot)))
    }
}

#[cfg(feature = "ksan")]
impl FrameTable {
    /// Cross-checks the table's internal invariants: the cold column as
    /// long as the record array, the live counter against the occupied
    /// slots, and the free list against the empty slots (distinct
    /// entries, each naming an empty slot, free + live partitioning the
    /// slot space). Observation only.
    pub fn ksan_audit(&self, out: &mut Vec<crate::ksan::Violation>) {
        use crate::ksan::Violation;
        let slots = self.records.len();
        if self.allocated_at.len() != slots {
            out.push(Violation::new(
                "FrameTable records <-> cold columns",
                "column allocated_at",
                "every cold column is as long as the record array",
                format!("{slots} slots"),
                format!("{} entries", self.allocated_at.len()),
            ));
        }
        let occupied = self
            .records
            .iter()
            .filter(|r| r.generation != FREE_GENERATION)
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
                .records
                .get(slot as usize)
                .is_some_and(|r| r.generation != FREE_GENERATION)
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

    /// Corruption hook for sanitizer self-tests: grows the cold
    /// allocation-time column out of step with the record array.
    #[doc(hidden)]
    pub fn ksan_break_soa_column(&mut self) {
        self.allocated_at.push(Nanos::ZERO);
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
fn generation_of(id: FrameId) -> u32 {
    (id.0 >> SLOT_BITS) as u32 // lint: truncation-ok — the high half of the id
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
