//! Dense member tables for knodes.
//!
//! PR 6 replaced tree/hash probes on the kernel touch path with
//! direct-mapped side tables (`FrameSet`/`FrameMap` in kloc-mem),
//! exploiting that frame *slots* are dense indices into one global
//! table. A knode's member ids have the opposite shape: `ObjectId`s are
//! global, sequential, and never reused, so a per-knode table indexed
//! directly by object id would cost memory proportional to the global
//! id space in every knode. [`MemberMap`] therefore uses the same idiom
//! in its open-addressed form: a power-of-two slot array probed linearly
//! from a multiplicative hash, storing the full 64-bit id so a probe
//! rejects a recycled slot by full-id compare exactly as `FrameSet`
//! rejects stale generations. Inserts and removes are amortized O(1),
//! each entry is one `(key, value)` pair in a single flat allocation
//! (one cache line covers probe and payload), and an empty table
//! allocates nothing. Its ordered view is *derived on demand* (collect +
//! sort by full id), paid only where member order is report-visible
//! (`cache_members`/`slab_members`, audits). Unordered iteration walks
//! slots in array order, which is a pure function of the insertion
//! history and thus deterministic across identically-seeded runs — but
//! it is only used where the consumer is order-insensitive (refcount
//! tallies).
//!
//! [`FrameRefs`], the knode's distinct member frames, is the one view
//! every policy-tick migration walk reads in order (ascending full
//! `FrameId` is the report-visible en-masse migration order), and its
//! frame set changes between most walks. It is therefore kept sorted
//! *incrementally*, as a chunked sorted set: sorted runs of at most
//! [`FrameRefs::CHUNK`] 12-byte `(frame, refcount)` entries plus the
//! chunk maxes that route a frame to its chunk. The walks iterate the
//! chunks in place and nothing is re-sorted; an insert or remove shifts
//! at most one chunk, where one flat sorted vector shifted its whole
//! tail (≈ 730 MB of memmove per Huge RocksDB run, the largest knodes
//! holding 15 k frames). Each refcount word also carries the entry's
//! *parked* bit, which lets the member-granular walks skip frames they
//! cannot move (see the park invariant at [`FrameRefs`]).

use kloc_kernel::ObjectId;
use kloc_mem::FrameId;

/// Slot holds nothing and never did (probe chains stop here).
const EMPTY: u64 = u64::MAX;
/// Slot held an entry that was removed (probe chains continue).
const TOMBSTONE: u64 = u64::MAX - 1;

/// SplitMix64-style finalizer: full-avalanche 64-bit mix, so sequential
/// ids spread over the power-of-two slot array. Dependency-free.
#[inline]
fn mix(key: u64) -> u64 {
    let mut h = key;
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Dense member table for one knode tree: `ObjectId -> FrameId` (the
/// `rbtree-cache` / `rbtree-slab` payload). Open-addressed: linear
/// probing, tombstone deletion, capacity kept a power of two with at
/// least 1/8 of slots `EMPTY` so probes terminate.
#[derive(Debug, Clone, Default)]
pub struct MemberMap {
    /// `(object id, frame id)` pairs; the key is [`EMPTY`] /
    /// [`TOMBSTONE`] for vacant slots.
    slots: Vec<(u64, u64)>,
    live: usize,
    tombs: usize,
}

impl MemberMap {
    const MIN_CAP: usize = 8;

    /// Looks up the frame backing a member.
    #[inline]
    pub fn get(&self, obj: ObjectId) -> Option<FrameId> {
        if self.live == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (mix(obj.0) as usize) & mask; // lint: truncation-ok
        loop {
            match self.slots[i].0 {
                EMPTY => return None,
                k if k == obj.0 => return Some(FrameId(self.slots[i].1)),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Inserts or replaces a member; returns the previously mapped
    /// frame if the object was already tracked. The full id is stored,
    /// so a probe that lands on a recycled (tombstoned, then reused)
    /// slot can never confuse two ids that happened to hash alike.
    pub fn insert(&mut self, obj: ObjectId, frame: FrameId) -> Option<FrameId> {
        let key = obj.0;
        debug_assert!(key < TOMBSTONE, "id collides with a table sentinel");
        self.reserve_one();
        let mask = self.slots.len() - 1;
        // lint: truncation-ok — masked into the power-of-two table index
        let mut i = (mix(key) as usize) & mask;
        // First tombstone seen is the insertion point, but the probe
        // must continue to EMPTY to rule out a later duplicate.
        let mut reuse = None;
        loop {
            match self.slots[i].0 {
                EMPTY => {
                    let slot = reuse.unwrap_or(i);
                    if self.slots[slot].0 == TOMBSTONE {
                        self.tombs -= 1;
                    }
                    self.slots[slot] = (key, frame.0);
                    self.live += 1;
                    return None;
                }
                TOMBSTONE => {
                    if reuse.is_none() {
                        reuse = Some(i);
                    }
                    i = (i + 1) & mask;
                }
                k if k == key => {
                    let old = self.slots[i].1;
                    self.slots[i].1 = frame.0;
                    return Some(FrameId(old));
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Removes a member; returns the frame it mapped to. The slot
    /// becomes a tombstone so probe chains through it stay intact.
    pub fn remove(&mut self, obj: ObjectId) -> Option<FrameId> {
        if self.live == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (mix(obj.0) as usize) & mask; // lint: truncation-ok
        loop {
            match self.slots[i].0 {
                EMPTY => return None,
                k if k == obj.0 => {
                    self.slots[i].0 = TOMBSTONE;
                    self.tombs += 1;
                    self.live -= 1;
                    return Some(FrameId(self.slots[i].1));
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Grows (or first-allocates) when less than 1/8 of slots would
    /// stay `EMPTY` after one more insert.
    #[inline]
    fn reserve_one(&mut self) {
        if self.slots.is_empty() || (self.live + self.tombs + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
    }

    /// Rehashes into a table sized for the live entries, dropping
    /// tombstones. Also the initial allocation (tables start empty so an
    /// idle knode costs no member-table memory at all).
    fn grow(&mut self) {
        let cap = ((self.live + 1) * 2).next_power_of_two().max(Self::MIN_CAP);
        let old = std::mem::replace(&mut self.slots, vec![(EMPTY, 0); cap]);
        self.tombs = 0;
        let mask = cap - 1;
        for (k, v) in old {
            if k < TOMBSTONE {
                let mut i = (mix(k) as usize) & mask; // lint: truncation-ok
                while self.slots[i].0 != EMPTY {
                    i = (i + 1) & mask;
                }
                self.slots[i] = (k, v);
            }
        }
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table tracks no members.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Visits every member in slot order (deterministic, unordered; see
    /// the module docs for where this is allowed).
    pub fn for_each(&self, mut f: impl FnMut(ObjectId, FrameId)) {
        for &(k, v) in &self.slots {
            if k < TOMBSTONE {
                f(ObjectId(k), FrameId(v));
            }
        }
    }

    /// The ordered view, derived on demand: members ascending by
    /// `ObjectId`, matching the old `BTreeMap` iteration order.
    pub fn sorted(&self) -> Vec<(ObjectId, FrameId)> {
        let mut out = Vec::with_capacity(self.live);
        self.for_each(|o, f| out.push((o, f)));
        out.sort_unstable_by_key(|(o, _)| *o);
        out
    }
}

#[cfg(feature = "ksan")]
impl MemberMap {
    /// Internal-consistency audit: the live counter must equal the
    /// occupied slot count, and every stored id must be reachable by its
    /// own probe sequence (tombstones may sit in the chain but an EMPTY
    /// must not). Returns an error string naming the first discrepancy.
    /// Observation only.
    pub(crate) fn ksan_check(&self) -> Result<(), String> {
        let mut occupied = 0usize;
        for (i, &(k, _)) in self.slots.iter().enumerate() {
            if k < TOMBSTONE {
                occupied += 1;
                if self.get(ObjectId(k)).is_none() {
                    return Err(format!("stored id {k} at slot {i} is unreachable by probe"));
                }
            }
        }
        if occupied != self.live {
            return Err(format!(
                "live counter {} != occupied slots {occupied}",
                self.live
            ));
        }
        Ok(())
    }

    /// Corruption hook for sanitizer self-tests: skews the live counter
    /// without touching slots.
    #[doc(hidden)]
    pub fn ksan_break_live_count(&mut self) {
        self.live += 1;
    }
}

/// One entry's refcount word. The top bit marks the entry *parked*
/// (see the park invariant at [`FrameRefs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RefWord(u32);

impl RefWord {
    const PARKED: u32 = 1 << 31;

    /// The reference count, without the parked bit.
    fn count(self) -> u32 {
        self.0 & !Self::PARKED
    }

    /// Whether member walks skip this entry.
    pub(crate) fn parked(self) -> bool {
        self.0 & Self::PARKED != 0
    }

    /// Marks the entry parked; the caller has established the park
    /// invariant.
    pub(crate) fn park(&mut self) {
        self.0 |= Self::PARKED;
    }
}

/// One frame-set entry: the frame id split into two 32-bit halves so
/// the entry packs into 12 bytes with its refcount word, the footprint
/// of the parallel frame/refcount vectors it replaces.
#[derive(Debug, Clone, Copy)]
struct Entry {
    lo: u32,
    hi: u32,
    word: RefWord,
}

impl Entry {
    fn new(frame: FrameId) -> Self {
        Entry {
            lo: frame.slot(),
            hi: (frame.0 >> 32) as u32, // lint: truncation-ok — the high half of the id
            word: RefWord(1),
        }
    }

    #[inline]
    fn frame(&self) -> FrameId {
        FrameId((u64::from(self.hi) << 32) | u64::from(self.lo))
    }
}

/// A sorted run of at most [`FrameRefs::CHUNK`] entries.
type Chunk = Vec<Entry>;

/// Refcounted set of distinct frames backing a knode's members
/// (several slab objects can share one frame), ascending by full
/// `FrameId`. Full-id order matters: a frame's generation bits can
/// invert slot order.
///
/// The entries live in sorted chunks of at most [`FrameRefs::CHUNK`],
/// concatenated in order, so an insert or a remove shifts at most one
/// chunk instead of the whole tail. `maxes` holds the last frame of
/// every chunk but the final one; a binary search over it picks the
/// chunk a frame belongs in (the final chunk takes everything above the
/// last max). A full chunk splits in half before an insert would grow
/// it past capacity — or, for an append past the last frame, a new
/// final chunk starts, so append-only sets fill their chunks. A chunk
/// emptied by removals is dropped. A set that fits one chunk — almost
/// every knode — holds two allocations (the chunk list and the chunk)
/// and no `maxes`.
///
/// The top bit of an entry's refcount word marks it *parked*: member
/// walks skip it without probing the memory system.
///
/// **The park invariant.** A parked entry whose frame is still live is
/// slow-resident, idle beyond every member window, and watched (see
/// `kloc_mem::MemorySystem::watch`) with its knode's kmap slot as the
/// tag. Every member walk is then a no-op on it: demotion moves only
/// fast-tier frames, and promotion only frames touched within its
/// window. The invariant holds once the memory system's wake log is
/// drained, because any touch or migration of a watched frame logs a
/// wake and clears the watch, and draining unparks each woken entry.
/// A dead frame stays a no-op for every walk. The registry parks only
/// frames of single-owner kinds, so one tag names every knode that
/// holds the frame.
#[derive(Debug, Clone, Default)]
pub struct FrameRefs {
    chunks: Vec<Chunk>,
    maxes: Vec<FrameId>,
}

impl FrameRefs {
    /// Capacity of one chunk: an insert or remove shifts at most this
    /// many 12-byte entries.
    pub const CHUNK: usize = 128;

    /// The chunk `frame` belongs in: the first whose max is at least
    /// `frame`, else the final one. Requires a non-empty set.
    #[inline]
    fn chunk_of(&self, frame: FrameId) -> usize {
        self.maxes.partition_point(|&max| max < frame)
    }

    /// Where `frame` sits (`Ok`) or would be inserted (`Err`), as
    /// `(chunk, position)`; `None` for an empty set.
    #[inline]
    fn find(&self, frame: FrameId) -> Option<(usize, Result<usize, usize>)> {
        if self.chunks.is_empty() {
            return None;
        }
        let c = self.chunk_of(frame);
        Some((c, self.chunks[c].binary_search_by_key(&frame, Entry::frame)))
    }

    /// Adds one reference; returns whether the frame is newly tracked.
    pub fn add(&mut self, frame: FrameId) -> bool {
        // Fast path: a frame past the last one (fresh frames mostly are)
        // appends to a final chunk with room.
        if let Some(last) = self.chunks.last_mut() {
            if last.len() < Self::CHUNK && last.last().is_some_and(|e| e.frame() < frame) {
                last.push(Entry::new(frame));
                return true;
            }
        }
        let Some((c, at)) = self.find(frame) else {
            // Exact capacity: a one-chunk set allocates no spare slots.
            self.chunks = vec![vec![Entry::new(frame)]];
            return true;
        };
        let i = match at {
            Ok(i) => {
                self.chunks[c][i].word.0 += 1;
                return false;
            }
            Err(i) => i,
        };
        if self.chunks[c].len() < Self::CHUNK {
            self.chunks[c].insert(i, Entry::new(frame));
        } else if i == Self::CHUNK {
            // Past the last frame of a full final chunk (only the final
            // chunk can take a frame above its own max): start the next.
            self.maxes.push(self.chunks[c][i - 1].frame());
            self.chunks.push(vec![Entry::new(frame)]);
        } else {
            // Split in half, then insert into the half that owns `i`; a
            // frame at the boundary opens the right half, so the left
            // half's max is final.
            let half = Self::CHUNK / 2;
            let right = self.chunks[c].split_off(half);
            self.maxes.insert(c, self.chunks[c][half - 1].frame());
            self.chunks.insert(c + 1, right);
            if i < half {
                self.chunks[c].insert(i, Entry::new(frame));
            } else {
                self.chunks[c + 1].insert(i - half, Entry::new(frame));
            }
        }
        true
    }

    /// Drops one reference; returns whether the frame left the set.
    /// Unreferenced frames are ignored (mirrors the old map behavior).
    pub fn unref(&mut self, frame: FrameId) -> bool {
        let Some((c, Ok(i))) = self.find(frame) else {
            return false;
        };
        let chunk = &mut self.chunks[c];
        if chunk[i].word.count() > 1 {
            chunk[i].word.0 -= 1;
            return false;
        }
        chunk.remove(i);
        let last = chunk.last().map(Entry::frame);
        match (last, c < self.maxes.len()) {
            // Keep the recorded max exact: the removed entry may have
            // been it.
            (Some(max), true) => self.maxes[c] = max,
            (Some(_), false) => {}
            (None, true) => {
                self.chunks.remove(c);
                self.maxes.remove(c);
            }
            // The final chunk emptied: its predecessor becomes final
            // and sheds its recorded max.
            (None, false) => {
                self.chunks.pop();
                self.maxes.pop();
            }
        }
        true
    }

    /// Number of distinct frames. O(chunks).
    pub fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// Whether no frame is tracked.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The distinct frames, ascending by full `FrameId` — the
    /// report-visible en-masse migration order.
    pub fn iter(&self) -> impl Iterator<Item = FrameId> + '_ {
        self.chunks.iter().flatten().map(Entry::frame)
    }

    /// Visits every (frame, refcount), ascending by full `FrameId`.
    pub fn for_each(&self, mut f: impl FnMut(FrameId, u32)) {
        for e in self.chunks.iter().flatten() {
            f(e.frame(), e.word.count());
        }
    }

    /// Every (frame, refcount word) ascending by full `FrameId`, with
    /// the words mutable so a member walk can park entries in place.
    pub(crate) fn entries_mut(&mut self) -> impl Iterator<Item = (FrameId, &mut RefWord)> {
        self.chunks
            .iter_mut()
            .flatten()
            .map(|e| (e.frame(), &mut e.word))
    }

    /// Clears `frame`'s parked bit if it is tracked.
    pub(crate) fn unpark(&mut self, frame: FrameId) {
        self.set_parked(frame, false);
    }

    /// Number of parked entries.
    #[cfg(test)]
    pub(crate) fn parked(&self) -> usize {
        self.chunks
            .iter()
            .flatten()
            .filter(|e| e.word.parked())
            .count()
    }
}

/// Inspection and staging hooks for the seeded model tests, which
/// drive sets across chunk splits and emptied chunks.
#[doc(hidden)]
impl FrameRefs {
    /// Entries per chunk, in order.
    pub fn chunk_lens(&self) -> Vec<usize> {
        self.chunks.iter().map(Vec::len).collect()
    }

    /// The recorded max of every chunk but the final one.
    pub fn chunk_maxes(&self) -> &[FrameId] {
        &self.maxes
    }

    /// Sets or clears `frame`'s parked bit if it is tracked, without
    /// establishing the park invariant.
    pub fn set_parked(&mut self, frame: FrameId, parked: bool) {
        if let Some((c, Ok(i))) = self.find(frame) {
            let word = &mut self.chunks[c][i].word;
            if parked {
                word.park();
            } else {
                word.0 &= !RefWord::PARKED;
            }
        }
    }

    /// Every (frame, parked bit), ascending by full `FrameId`.
    pub fn parked_bits(&self) -> Vec<(FrameId, bool)> {
        self.chunks
            .iter()
            .flatten()
            .map(|e| (e.frame(), e.word.parked()))
            .collect()
    }
}

#[cfg(feature = "ksan")]
impl FrameRefs {
    /// Internal-consistency audit: every chunk non-empty and within
    /// capacity, one recorded max per chunk but the final one, each
    /// equal to its chunk's last frame, frames strictly ascending across
    /// the whole set (sorted and distinct), every refcount at least 1.
    /// Returns an error string naming the first discrepancy.
    pub(crate) fn ksan_check(&self) -> Result<(), String> {
        if let Some(c) = self
            .chunks
            .iter()
            .position(|ch| ch.is_empty() || ch.len() > Self::CHUNK)
        {
            return Err(format!(
                "chunk {c} holds {} entries (want 1..={})",
                self.chunks[c].len(),
                Self::CHUNK
            ));
        }
        if self.maxes.len() + 1 != self.chunks.len().max(1) {
            return Err(format!(
                "{} chunks but {} recorded maxes",
                self.chunks.len(),
                self.maxes.len()
            ));
        }
        for (c, (&max, chunk)) in self.maxes.iter().zip(&self.chunks).enumerate() {
            let last = chunk.last().map(Entry::frame);
            if last != Some(max) {
                return Err(format!("chunk {c} ends at {last:?} but its max is {max}"));
            }
        }
        let mut prev: Option<FrameId> = None;
        for e in self.chunks.iter().flatten() {
            let frame = e.frame();
            if let Some(p) = prev.filter(|&p| p >= frame) {
                return Err(format!("frame {p} not below its successor {frame}"));
            }
            if e.word.count() == 0 {
                return Err(format!("frame {frame} has refcount 0"));
            }
            prev = Some(frame);
        }
        Ok(())
    }

    /// Parked frames, ascending by full `FrameId` (the park-invariant
    /// oracle re-probes them).
    pub(crate) fn parked_frames(&self) -> impl Iterator<Item = FrameId> + '_ {
        self.chunks
            .iter()
            .flatten()
            .filter(|e| e.word.parked())
            .map(Entry::frame)
    }

    /// Raises the first recorded chunk max past its chunk's last frame.
    /// Corruption hook for self-tests.
    pub(crate) fn ksan_break_maxes(&mut self) {
        if let Some(max) = self.maxes.first_mut() {
            max.0 += 1;
        }
    }

    /// Appends `frame` past the tail of the final chunk with refcount
    /// 1, regardless of order. Corruption hook for self-tests.
    pub(crate) fn ksan_break_order(&mut self, frame: FrameId) {
        match self.chunks.last_mut() {
            Some(chunk) => chunk.push(Entry::new(frame)),
            None => self.chunks.push(vec![Entry::new(frame)]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = MemberMap::default();
        assert!(m.is_empty());
        assert_eq!(m.insert(ObjectId(1), FrameId(10)), None);
        assert_eq!(m.insert(ObjectId(2), FrameId(20)), None);
        assert_eq!(m.get(ObjectId(1)), Some(FrameId(10)));
        assert_eq!(m.insert(ObjectId(1), FrameId(11)), Some(FrameId(10)));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(ObjectId(1)), Some(FrameId(11)));
        assert_eq!(m.remove(ObjectId(1)), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn tombstoned_slot_reuse_keeps_probe_chains() {
        let mut m = MemberMap::default();
        // Fill past one growth so chains wrap and collide.
        for i in 0..64u64 {
            m.insert(ObjectId(i), FrameId(i + 100));
        }
        for i in (0..64u64).step_by(2) {
            assert_eq!(m.remove(ObjectId(i)), Some(FrameId(i + 100)));
        }
        // Ids landing on recycled slots must not shadow survivors.
        for i in 64..96u64 {
            m.insert(ObjectId(i), FrameId(i + 100));
        }
        for i in (1..64u64).step_by(2) {
            assert_eq!(m.get(ObjectId(i)), Some(FrameId(i + 100)), "id {i}");
        }
        for i in (0..64u64).step_by(2) {
            assert_eq!(m.get(ObjectId(i)), None, "removed id {i}");
        }
        assert_eq!(m.len(), 32 + 32);
    }

    #[test]
    fn sorted_view_orders_by_object_id() {
        let mut m = MemberMap::default();
        for &i in &[5u64, 1, 9, 3] {
            m.insert(ObjectId(i), FrameId(i));
        }
        let ids: Vec<u64> = m.sorted().iter().map(|(o, _)| o.0).collect();
        assert_eq!(ids, vec![1, 3, 5, 9]);
    }

    #[test]
    fn frame_refs_count_and_drop() {
        let mut r = FrameRefs::default();
        assert!(r.add(FrameId(7)));
        assert!(!r.add(FrameId(7)));
        assert!(r.add(FrameId(8)));
        assert_eq!(r.iter().collect::<Vec<_>>(), [FrameId(7), FrameId(8)]);
        assert!(!r.unref(FrameId(7)));
        assert!(r.unref(FrameId(7)));
        assert!(!r.unref(FrameId(7)), "already dropped");
        assert_eq!(r.iter().collect::<Vec<_>>(), [FrameId(8)]);
    }

    #[test]
    fn parked_bit_survives_refcount_changes() {
        let mut r = FrameRefs::default();
        r.add(FrameId(7));
        r.add(FrameId(9));
        for (frame, rc) in r.entries_mut() {
            if frame == FrameId(7) {
                rc.park();
            }
        }
        assert_eq!(r.parked(), 1);
        assert!(!r.add(FrameId(7)));
        let mut counts = Vec::new();
        r.for_each(|f, rc| counts.push((f, rc)));
        assert_eq!(counts, vec![(FrameId(7), 2), (FrameId(9), 1)], "bit hidden");
        assert!(!r.unref(FrameId(7)), "one reference left");
        assert_eq!(r.parked(), 1);
        r.unpark(FrameId(7));
        r.unpark(FrameId(8));
        assert_eq!(r.parked(), 0);
        assert!(r.unref(FrameId(7)));
        assert_eq!(r.iter().collect::<Vec<_>>(), [FrameId(9)]);
    }

    #[test]
    fn tables_start_unallocated() {
        let m = MemberMap::default();
        assert_eq!(m.slots.capacity(), 0, "empty knodes cost nothing");
        assert_eq!(m.get(ObjectId(3)), None);
        let mut r = FrameRefs::default();
        assert_eq!(r.chunks.capacity(), 0);
        assert!(!r.unref(FrameId(3)));
    }
}
