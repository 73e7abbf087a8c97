//! The member frame set of a knode.
//!
//! A knode does not store its member *objects*. The kernel's
//! `ObjectTable` already records every live object's type, inode and
//! frame, and the registry records which objects are members with one
//! bit per object-table slot (see [`crate::KlocRegistry`]). The paper's
//! `itr_knode_cache` / `itr_knode_slab` views are therefore the object
//! table filtered by inode and backing; a knode keeps only its
//! per-backing member counts and the [`FrameRefs`] set below.
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
//! holding 15 k frames). Each chunk also carries a 128-bit *parked*
//! mask, which lets the member-granular walks visit only the frames
//! they might move (see the park invariant at [`FrameRefs`]) by
//! iterating the mask's clear bits, so a walk never steps over a parked
//! entry.

use kloc_mem::FrameId;

/// One frame-set entry: the frame id split into two 32-bit halves so
/// the entry packs into 12 bytes with its refcount.
#[derive(Debug, Clone, Copy)]
struct Entry {
    lo: u32,
    hi: u32,
    refs: u32,
}

impl Entry {
    fn new(frame: FrameId) -> Self {
        Entry {
            lo: frame.slot(),
            hi: (frame.0 >> 32) as u32, // lint: truncation-ok — the high half of the id
            refs: 1,
        }
    }

    #[inline]
    fn frame(&self) -> FrameId {
        FrameId((u64::from(self.hi) << 32) | u64::from(self.lo))
    }
}

/// The mask of the `n` lowest bits, for `n` in `0..=128`.
#[inline]
fn low_bits(n: usize) -> u128 {
    // lint: truncation-ok — n <= 128
    u128::MAX.checked_shr((128 - n) as u32).unwrap_or(0)
}

/// A sorted run of at most [`FrameRefs::CHUNK`] entries. Bit `i` of
/// `parked` is set iff entry `i` is parked; bits at or past the run's
/// length are always clear.
#[derive(Debug, Clone, Default)]
struct Chunk {
    entries: Vec<Entry>,
    parked: u128,
}

impl Chunk {
    fn one(frame: FrameId) -> Self {
        Chunk {
            entries: vec![Entry::new(frame)],
            parked: 0,
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Inserts an unparked entry at `i`, shifting the parked bits of
    /// the entries after it up with them. Requires a chunk with room.
    fn insert(&mut self, i: usize, frame: FrameId) {
        self.entries.insert(i, Entry::new(frame));
        let below = self.parked & low_bits(i);
        self.parked = below | ((self.parked & !below) << 1);
    }

    /// Removes entry `i` and its parked bit, shifting the bits of the
    /// entries after it down with them.
    fn remove(&mut self, i: usize) {
        self.entries.remove(i);
        let below = self.parked & low_bits(i);
        self.parked = below | ((self.parked >> i >> 1) << i);
    }

    /// Splits off the entries from `at` on, parked bits included.
    fn split_off(&mut self, at: usize) -> Chunk {
        let right = Chunk {
            entries: self.entries.split_off(at),
            parked: self.parked >> at,
        };
        self.parked &= low_bits(at);
        right
    }

    /// The clear bits of `parked` below the run's length.
    fn unparked(&self) -> u128 {
        !self.parked & low_bits(self.len())
    }
}

/// What a member walk does with the unparked entry it visits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// Leave the entry as it is and go on.
    Skip,
    /// Park the entry (the caller has established the park invariant)
    /// and go on.
    Park,
    /// End the walk before this entry.
    Stop,
}

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
/// Each chunk's parked mask marks entries the member walks skip without
/// probing the memory system; [`FrameRefs::walk_unparked`] visits only
/// the clear bits.
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
    /// Capacity of one chunk (and width of its parked mask): an insert
    /// or remove shifts at most this many 12-byte entries.
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
        Some((
            c,
            self.chunks[c]
                .entries
                .binary_search_by_key(&frame, Entry::frame),
        ))
    }

    /// Adds one reference; returns whether the frame is newly tracked.
    /// A newly tracked frame starts unparked.
    pub fn add(&mut self, frame: FrameId) -> bool {
        // Fast path: a frame past the last one (fresh frames mostly are)
        // appends to a final chunk with room; its parked bit is clear.
        if let Some(last) = self.chunks.last_mut() {
            if last.len() < Self::CHUNK && last.entries.last().is_some_and(|e| e.frame() < frame) {
                last.entries.push(Entry::new(frame));
                return true;
            }
        }
        let Some((c, at)) = self.find(frame) else {
            // Exact capacity: a one-chunk set allocates no spare slots.
            self.chunks = vec![Chunk::one(frame)];
            return true;
        };
        let i = match at {
            Ok(i) => {
                self.chunks[c].entries[i].refs += 1;
                return false;
            }
            Err(i) => i,
        };
        if self.chunks[c].len() < Self::CHUNK {
            self.chunks[c].insert(i, frame);
        } else if i == Self::CHUNK {
            // Past the last frame of a full final chunk (only the final
            // chunk can take a frame above its own max): start the next.
            self.maxes.push(self.chunks[c].entries[i - 1].frame());
            self.chunks.push(Chunk::one(frame));
        } else {
            // Split in half, then insert into the half that owns `i`; a
            // frame at the boundary opens the right half, so the left
            // half's max is final.
            let half = Self::CHUNK / 2;
            let right = self.chunks[c].split_off(half);
            self.maxes
                .insert(c, self.chunks[c].entries[half - 1].frame());
            self.chunks.insert(c + 1, right);
            if i < half {
                self.chunks[c].insert(i, frame);
            } else {
                self.chunks[c + 1].insert(i - half, frame);
            }
        }
        true
    }

    /// Drops one reference; returns whether the frame left the set.
    /// Unreferenced frames are ignored.
    pub fn unref(&mut self, frame: FrameId) -> bool {
        let Some((c, Ok(i))) = self.find(frame) else {
            return false;
        };
        let chunk = &mut self.chunks[c];
        if chunk.entries[i].refs > 1 {
            chunk.entries[i].refs -= 1;
            return false;
        }
        chunk.remove(i);
        let last = chunk.entries.last().map(Entry::frame);
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
        self.chunks.iter().map(Chunk::len).sum()
    }

    /// Whether no frame is tracked.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Every entry, ascending by full `FrameId`.
    fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.chunks.iter().flat_map(|c| &c.entries)
    }

    /// The distinct frames, ascending by full `FrameId` — the
    /// report-visible en-masse migration order.
    pub fn iter(&self) -> impl Iterator<Item = FrameId> + '_ {
        self.entries().map(Entry::frame)
    }

    /// Visits every (frame, refcount), ascending by full `FrameId`.
    pub fn for_each(&self, mut f: impl FnMut(FrameId, u32)) {
        for e in self.entries() {
            f(e.frame(), e.refs);
        }
    }

    /// Visits the unparked frames ascending by full `FrameId`, stepping
    /// over parked ones a chunk mask at a time: the cost is one visit
    /// per unparked entry plus one mask read per chunk. `f` decides per
    /// frame whether to leave it, park it, or end the walk.
    pub fn walk_unparked(&mut self, mut f: impl FnMut(FrameId) -> Walk) {
        for chunk in &mut self.chunks {
            let mut todo = chunk.unparked();
            while todo != 0 {
                let i = todo.trailing_zeros() as usize;
                todo &= todo - 1;
                match f(chunk.entries[i].frame()) {
                    Walk::Skip => {}
                    Walk::Park => chunk.parked |= 1 << i,
                    Walk::Stop => return,
                }
            }
        }
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
            .map(|c| c.parked.count_ones() as usize)
            .sum()
    }
}

/// Inspection and staging hooks for the seeded model tests, which
/// drive sets across chunk splits and emptied chunks.
#[doc(hidden)]
impl FrameRefs {
    /// Entries per chunk, in order.
    pub fn chunk_lens(&self) -> Vec<usize> {
        self.chunks.iter().map(Chunk::len).collect()
    }

    /// The recorded max of every chunk but the final one.
    pub fn chunk_maxes(&self) -> &[FrameId] {
        &self.maxes
    }

    /// Sets or clears `frame`'s parked bit if it is tracked, without
    /// establishing the park invariant.
    pub fn set_parked(&mut self, frame: FrameId, parked: bool) {
        if let Some((c, Ok(i))) = self.find(frame) {
            let bit = 1u128 << i;
            if parked {
                self.chunks[c].parked |= bit;
            } else {
                self.chunks[c].parked &= !bit;
            }
        }
    }

    /// Every (frame, parked bit), ascending by full `FrameId`.
    pub fn parked_bits(&self) -> Vec<(FrameId, bool)> {
        self.chunks
            .iter()
            .flat_map(|c| {
                c.entries
                    .iter()
                    .enumerate()
                    .map(move |(i, e)| (e.frame(), c.parked >> i & 1 == 1))
            })
            .collect()
    }
}

#[cfg(feature = "ksan")]
impl FrameRefs {
    /// Internal-consistency audit: every chunk non-empty and within
    /// capacity with no parked bit past its length, one recorded max per
    /// chunk but the final one, each equal to its chunk's last frame,
    /// frames strictly ascending across the whole set (sorted and
    /// distinct), every refcount at least 1. Returns an error string
    /// naming the first discrepancy.
    pub(crate) fn ksan_check(&self) -> Result<(), String> {
        if let Some(c) = self
            .chunks
            .iter()
            .position(|ch| ch.len() == 0 || ch.len() > Self::CHUNK)
        {
            return Err(format!(
                "chunk {c} holds {} entries (want 1..={})",
                self.chunks[c].len(),
                Self::CHUNK
            ));
        }
        if let Some(c) = self
            .chunks
            .iter()
            .position(|ch| ch.parked & !low_bits(ch.len()) != 0)
        {
            return Err(format!(
                "chunk {c} of {} entries has parked mask {:#x}",
                self.chunks[c].len(),
                self.chunks[c].parked
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
            let last = chunk.entries.last().map(Entry::frame);
            if last != Some(max) {
                return Err(format!("chunk {c} ends at {last:?} but its max is {max}"));
            }
        }
        let mut prev: Option<FrameId> = None;
        for e in self.entries() {
            let frame = e.frame();
            if let Some(p) = prev.filter(|&p| p >= frame) {
                return Err(format!("frame {p} not below its successor {frame}"));
            }
            if e.refs == 0 {
                return Err(format!("frame {frame} has refcount 0"));
            }
            prev = Some(frame);
        }
        Ok(())
    }

    /// Parked frames, ascending by full `FrameId` (the park-invariant
    /// oracle re-probes them).
    pub(crate) fn parked_frames(&self) -> impl Iterator<Item = FrameId> + '_ {
        self.parked_bits()
            .into_iter()
            .filter_map(|(frame, parked)| parked.then_some(frame))
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
            Some(chunk) => chunk.entries.push(Entry::new(frame)),
            None => self.chunks.push(Chunk::one(frame)),
        }
    }

    /// Sets the parked bit just past the final chunk's last entry.
    /// Corruption hook for self-tests.
    pub(crate) fn ksan_break_mask(&mut self) {
        if let Some(chunk) = self.chunks.last_mut() {
            chunk.parked |= 1u128.checked_shl(chunk.len() as u32).unwrap_or(0); // lint: truncation-ok — len <= 128
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        r.walk_unparked(|frame| {
            if frame == FrameId(7) {
                Walk::Park
            } else {
                Walk::Skip
            }
        });
        assert_eq!(r.parked(), 1);
        assert!(!r.add(FrameId(7)));
        let mut counts = Vec::new();
        r.for_each(|f, rc| counts.push((f, rc)));
        assert_eq!(counts, vec![(FrameId(7), 2), (FrameId(9), 1)]);
        assert!(!r.unref(FrameId(7)), "one reference left");
        assert_eq!(r.parked(), 1);
        let mut seen = Vec::new();
        r.walk_unparked(|frame| {
            seen.push(frame);
            Walk::Skip
        });
        assert_eq!(seen, [FrameId(9)], "the walk steps over parked entries");
        r.unpark(FrameId(7));
        r.unpark(FrameId(8));
        assert_eq!(r.parked(), 0);
        assert!(r.unref(FrameId(7)));
        assert_eq!(r.iter().collect::<Vec<_>>(), [FrameId(9)]);
    }

    #[test]
    fn walk_stops_before_the_entry_it_refuses() {
        let mut r = FrameRefs::default();
        for f in 0..300 {
            r.add(FrameId(f));
        }
        let mut seen = 0;
        r.walk_unparked(|_| {
            if seen == 200 {
                return Walk::Stop;
            }
            seen += 1;
            Walk::Park
        });
        assert_eq!(r.parked(), 200, "parks span a chunk boundary");
        let mut rest = Vec::new();
        r.walk_unparked(|frame| {
            rest.push(frame.0);
            Walk::Skip
        });
        assert_eq!(rest, (200..300).collect::<Vec<_>>());
    }

    #[test]
    fn tables_start_unallocated() {
        let mut r = FrameRefs::default();
        assert_eq!(r.chunks.capacity(), 0, "empty knodes cost nothing");
        assert!(!r.unref(FrameId(3)));
        r.walk_unparked(|_| unreachable!("an empty set has no entries"));
    }
}
