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
//! holding 15 k frames). An add or unref first tries the position of
//! the set's previous add or unref: slab objects packed on one frame
//! come and go together, so the entry there is often the frame itself,
//! and the chunk search is skipped.
//!
//! # What a member walk visits
//!
//! The member-granular walks (the registry's `demote_cold_members` and
//! `promote_hot_members`) pay per *candidate*, not per member. Once a
//! knode is first walked, each chunk gets walk state beside its entries
//! (knodes that are never walked carry none):
//!
//! - a **cold mask**: members neither walk can move, which neither walk
//!   visits (see the park invariants at [`FrameRefs`]): cold
//!   slow-resident frames, watched so that their next touch or
//!   migration unparks them, and fast-resident frames that cannot move
//!   (pinned, or past the ping-pong counter), watched for their next
//!   migration only.
//! - a **hot mask**: fast-resident members, parked by the promotion
//!   walk and watched for their next migration only. Promotion moves
//!   only slow frames, so it skips them while they stay fast; a touch
//!   cannot change that and does not unpark them. The demotion walk
//!   still visits them: fast frames are what it demotes.
//! - a **demotion bound** `until`: the demotion walk skips the whole
//!   chunk while its walk time is below it.
//!
//! A demotion walk that reaches the end of a chunk sets the chunk's
//! bound to the smaller of
//! - `last_access + older_than` over the chunk's movable fast-resident
//!   frames touched within `older_than` (the earliest time passing can
//!   make one of them a candidate; touches only push it later), and
//! - the **cap** `walk time + (older_than − H)`, where `H` is the widest
//!   hot window ever passed to `promote_hot_members`.
//!
//! Every other frame in the chunk (cold-parked ones included) is no
//! candidate and cannot become one by time passing: it is
//! slow-resident, dead, pinned, or past the ping-pong counter. Only a promotion makes a slow frame a candidate
//! again, and the cap covers the hotness-checked kind: a frame that
//! `promote_hot_members` moves at time `t ≥ walk time` was touched at or
//! after `t − H`, so it is not cold before `t − H + older_than`, which is
//! not below the cap. The cap therefore keeps each bound sound across
//! those promotions, including promotions of frames shared with other
//! knodes, which no per-knode invalidation would see. The promotions
//! without a hotness check (en-masse and the page-granular app tier)
//! reset the bounds, through a key the walk compares (see
//! [`FrameRefs::walk_cold`]); so does widening `H`. An insert resets
//! only its own chunk's bound, since the new frame may already be a
//! candidate; a removal leaves it, as a subset of a chunk has no
//! candidate the chunk lacked.

use kloc_mem::{FrameId, Nanos};

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

/// A sorted run of at most [`FrameRefs::CHUNK`] entries.
type Chunk = Vec<Entry>;

/// The mask of the `n` lowest bits, for `n` in `0..=128`.
#[inline]
fn low_bits(n: usize) -> u128 {
    // lint: truncation-ok — n <= 128
    u128::MAX.checked_shr((128 - n) as u32).unwrap_or(0)
}

/// `mask` with a clear bit opened at `i`, the bits from `i` on moving
/// up one.
#[inline]
fn open_bit(mask: u128, i: usize) -> u128 {
    let below = mask & low_bits(i);
    below | ((mask & !below) << 1)
}

/// `mask` with bit `i` taken out, the bits above it moving down one.
#[inline]
fn close_bit(mask: u128, i: usize) -> u128 {
    let below = mask & low_bits(i);
    below | ((mask >> i >> 1) << i)
}

/// Which parked mask an entry is in (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mask {
    /// Parked by the demotion walk: skipped by both walks.
    Cold,
    /// Parked by the promotion walk: skipped by it alone.
    Hot,
}

/// The member-walk state of one chunk. Bit `i` of a mask belongs to
/// entry `i`; bits at or past the run's length are always clear, and no
/// entry is in both masks.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkWalk {
    cold: u128,
    hot: u128,
    /// The demotion walk skips the chunk while its walk time is below
    /// this.
    until: Nanos,
}

impl ChunkWalk {
    /// Opens clear bits at `i` for an inserted entry, which may be a
    /// demotion candidate: the bound no longer holds.
    fn insert(&mut self, i: usize) {
        self.cold = open_bit(self.cold, i);
        self.hot = open_bit(self.hot, i);
        self.until = Nanos::ZERO;
    }

    /// Takes out the bits of removed entry `i`.
    fn remove(&mut self, i: usize) {
        self.cold = close_bit(self.cold, i);
        self.hot = close_bit(self.hot, i);
    }

    /// Splits off the bits from `at` on; both halves keep the bound.
    fn split_off(&mut self, at: usize) -> ChunkWalk {
        let right = ChunkWalk {
            cold: self.cold >> at,
            hot: self.hot >> at,
            until: self.until,
        };
        self.cold &= low_bits(at);
        self.hot &= low_bits(at);
        right
    }

    /// Parks entry `i` in `mask`, out of the other.
    fn park(&mut self, i: usize, mask: Mask) {
        let bit = 1u128 << i;
        let (set, clear) = match mask {
            Mask::Cold => (&mut self.cold, &mut self.hot),
            Mask::Hot => (&mut self.hot, &mut self.cold),
        };
        *set |= bit;
        *clear &= !bit;
    }
}

/// The walk state of a set, allocated on its first member walk.
#[derive(Debug, Clone, Default)]
struct WalkState {
    /// The key the `until` bounds were computed under (see
    /// [`FrameRefs::walk_cold`]); `None` when they were reset.
    key: Option<(Nanos, u64)>,
    /// One entry per chunk, in chunk order.
    chunks: Vec<ChunkWalk>,
}

/// What a member walk does with the entry it visits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// Leave the entry as it is and go on.
    Skip,
    /// Park the entry in this mask, out of the other (the caller has
    /// established the mask's park invariant), and go on.
    Park(Mask),
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
/// and no `maxes`, plus the walk state once it is walked.
///
/// **The park invariants** (see the module docs for the masks). Once
/// the memory system's wake log is drained, a parked entry whose frame
/// is still live is watched with its knode's kmap slot as the tag, and:
/// - if *cold-parked*, either slow-resident, idle beyond every member
///   window, and watched (see `kloc_mem::MemorySystem::watch`), or
///   fast-resident, pinned or past the ping-pong counter, and
///   migration-watched (`kloc_mem::MemorySystem::watch_migrations`).
///   Every member walk is then a no-op on it: demotion moves only
///   fast-tier frames that can move, and promotion only slow frames
///   touched within its window;
/// - if *hot-parked*, fast-resident and migration-watched, so the
///   promotion walk is a no-op on it.
///
/// Both hold because a touch of a watched frame, or any migration of a
/// watched or migration-watched one, logs a wake and clears the watch,
/// and draining unparks each woken entry from both masks. A dead frame
/// stays a no-op for every walk. The registry parks only frames of
/// single-owner kinds, so one tag names every knode that holds the
/// frame.
#[derive(Debug, Clone, Default)]
pub struct FrameRefs {
    chunks: Vec<Chunk>,
    maxes: Vec<FrameId>,
    walk: Option<Box<WalkState>>,
    /// `(chunk, index)` of the last add or unref; a hit when the entry
    /// there is the frame looked up.
    hint: (u32, u32),
}

impl FrameRefs {
    /// Capacity of one chunk (and width of its masks): an insert or
    /// remove shifts at most this many 12-byte entries.
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

    /// The hinted position, if `frame` sits there.
    #[inline]
    fn at_hint(&self, frame: FrameId) -> Option<(usize, usize)> {
        let (c, i) = (self.hint.0 as usize, self.hint.1 as usize);
        (self.chunks.get(c)?.get(i)?.frame() == frame).then_some((c, i))
    }

    #[inline]
    fn set_hint(&mut self, c: usize, i: usize) {
        // Both fit: a set holds at most `u32::MAX` chunks of 128.
        self.hint = (
            u32::try_from(c).unwrap_or(u32::MAX),
            u32::try_from(i).unwrap_or(u32::MAX),
        );
    }

    /// Where `frame` sits, as `(chunk, position)`, trying the hint
    /// first.
    #[inline]
    fn position(&self, frame: FrameId) -> Option<(usize, usize)> {
        self.at_hint(frame).or_else(|| match self.find(frame) {
            Some((c, Ok(i))) => Some((c, i)),
            _ => None,
        })
    }

    /// Adds one reference; returns whether the frame is newly tracked.
    /// A newly tracked frame starts unparked and resets its chunk's
    /// demotion bound.
    pub fn add(&mut self, frame: FrameId) -> bool {
        // Fast path: a frame past the last one (fresh frames mostly are)
        // appends to a final chunk with room; its mask bits are clear.
        let c = self.chunks.len().wrapping_sub(1);
        if let Some(last) = self.chunks.last_mut() {
            if last.len() < Self::CHUNK && last.last().is_some_and(|e| e.frame() < frame) {
                last.push(Entry::new(frame));
                let i = last.len() - 1;
                if let Some(w) = self.walk.as_deref_mut() {
                    w.chunks[c].until = Nanos::ZERO;
                }
                self.set_hint(c, i);
                return true;
            }
        }
        if let Some((c, i)) = self.at_hint(frame) {
            self.chunks[c][i].refs += 1;
            return false;
        }
        let Some((c, at)) = self.find(frame) else {
            // Exact capacity: a one-chunk set allocates no spare slots.
            self.chunks = vec![vec![Entry::new(frame)]];
            if let Some(w) = self.walk.as_deref_mut() {
                w.chunks = vec![ChunkWalk::default()];
            }
            self.hint = (0, 0);
            return true;
        };
        let i = match at {
            Ok(i) => {
                self.chunks[c][i].refs += 1;
                self.set_hint(c, i);
                return false;
            }
            Err(i) => i,
        };
        let walk = self.walk.as_deref_mut();
        if self.chunks[c].len() < Self::CHUNK {
            self.chunks[c].insert(i, Entry::new(frame));
            if let Some(w) = walk {
                w.chunks[c].insert(i);
            }
            self.set_hint(c, i);
        } else if i == Self::CHUNK {
            // Past the last frame of a full final chunk (only the final
            // chunk can take a frame above its own max): start the next.
            self.maxes.push(self.chunks[c][i - 1].frame());
            self.chunks.push(vec![Entry::new(frame)]);
            if let Some(w) = walk {
                w.chunks.push(ChunkWalk::default());
            }
            self.set_hint(c + 1, 0);
        } else {
            // Split in half, then insert into the half that owns `i`; a
            // frame at the boundary opens the right half, so the left
            // half's max is final.
            let half = Self::CHUNK / 2;
            let right = self.chunks[c].split_off(half);
            self.maxes.insert(c, self.chunks[c][half - 1].frame());
            self.chunks.insert(c + 1, right);
            if let Some(w) = walk {
                let right = w.chunks[c].split_off(half);
                w.chunks.insert(c + 1, right);
            }
            let (c, i) = if i < half { (c, i) } else { (c + 1, i - half) };
            self.chunks[c].insert(i, Entry::new(frame));
            if let Some(w) = self.walk.as_deref_mut() {
                w.chunks[c].insert(i);
            }
            self.set_hint(c, i);
        }
        true
    }

    /// Drops one reference; returns whether the frame left the set.
    /// Unreferenced frames are ignored.
    pub fn unref(&mut self, frame: FrameId) -> bool {
        let Some((c, i)) = self.position(frame) else {
            return false;
        };
        self.set_hint(c, i);
        let chunk = &mut self.chunks[c];
        if chunk[i].refs > 1 {
            chunk[i].refs -= 1;
            return false;
        }
        chunk.remove(i);
        let last = chunk.last().map(Entry::frame);
        let mut walk = self.walk.as_deref_mut();
        if let Some(w) = walk.as_mut() {
            w.chunks[c].remove(i);
        }
        match (last, c < self.maxes.len()) {
            // Keep the recorded max exact: the removed entry may have
            // been it.
            (Some(max), true) => self.maxes[c] = max,
            (Some(_), false) => {}
            (None, true) => {
                self.chunks.remove(c);
                self.maxes.remove(c);
                if let Some(w) = walk {
                    w.chunks.remove(c);
                }
            }
            // The final chunk emptied: its predecessor becomes final
            // and sheds its recorded max.
            (None, false) => {
                self.chunks.pop();
                self.maxes.pop();
                if let Some(w) = walk {
                    w.chunks.pop();
                }
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

    /// Every entry, ascending by full `FrameId`.
    fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.chunks.iter().flatten()
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

    /// The chunks and their walk state, allocating the state on first
    /// use.
    fn walk_parts(&mut self) -> (&[Chunk], &mut WalkState) {
        let n = self.chunks.len();
        let state = self.walk.get_or_insert_with(|| {
            Box::new(WalkState {
                key: None,
                chunks: vec![ChunkWalk::default(); n],
            })
        });
        (&self.chunks, state)
    }

    /// The demotion walk: visits, ascending by full `FrameId`, the
    /// entries outside the cold mask of every chunk whose bound is not
    /// above `now`, stepping over the rest a chunk mask at a time. `f`
    /// decides per frame whether to leave it, park it, or end the
    /// walk, and may lower the chunk's next bound, which starts at `cap`;
    /// a chunk walked to its end keeps that bound.
    ///
    /// Bounds computed under a `key` other than this walk's are dropped
    /// first: the registry keys them by demotion window and by the
    /// promotions that invalidate them (see the module docs).
    pub fn walk_cold(
        &mut self,
        key: (Nanos, u64),
        now: Nanos,
        cap: Nanos,
        mut f: impl FnMut(FrameId, &mut Nanos) -> Walk,
    ) {
        let (chunks, state) = self.walk_parts();
        if state.key != Some(key) {
            state.key = Some(key);
            for w in &mut state.chunks {
                w.until = Nanos::ZERO;
            }
        }
        for (entries, w) in chunks.iter().zip(&mut state.chunks) {
            if now < w.until {
                continue;
            }
            let mut until = cap;
            let mut todo = !w.cold & low_bits(entries.len());
            while todo != 0 {
                let i = todo.trailing_zeros() as usize;
                todo &= todo - 1;
                match f(entries[i].frame(), &mut until) {
                    Walk::Skip => {}
                    Walk::Park(mask) => w.park(i, mask),
                    Walk::Stop => return,
                }
            }
            w.until = until;
        }
    }

    /// The promotion walk: visits, ascending by full `FrameId`, the
    /// entries in neither mask, stepping over parked ones a chunk mask
    /// at a time: the cost is one visit per such entry plus one mask
    /// read per chunk. `f` decides per frame whether to leave it, park
    /// it, or end the walk.
    pub fn walk_hot(&mut self, mut f: impl FnMut(FrameId) -> Walk) {
        let (chunks, state) = self.walk_parts();
        for (entries, w) in chunks.iter().zip(&mut state.chunks) {
            let mut todo = !(w.cold | w.hot) & low_bits(entries.len());
            while todo != 0 {
                let i = todo.trailing_zeros() as usize;
                todo &= todo - 1;
                match f(entries[i].frame()) {
                    Walk::Skip => {}
                    Walk::Park(mask) => w.park(i, mask),
                    Walk::Stop => return,
                }
            }
        }
    }

    /// Drops every chunk's demotion bound (a promotion without a
    /// hotness check moved member frames into fast memory).
    pub(crate) fn reset_bounds(&mut self) {
        if let Some(w) = self.walk.as_deref_mut() {
            w.key = None;
        }
    }

    /// Clears both of `frame`'s parked bits if it is tracked.
    pub(crate) fn unpark(&mut self, frame: FrameId) {
        if let Some((c, i)) = self.position(frame) {
            if let Some(w) = self.walk.as_deref_mut() {
                let bit = !(1u128 << i);
                w.chunks[c].cold &= bit;
                w.chunks[c].hot &= bit;
            }
        }
    }

    /// Each chunk's demotion bound, in order (`None` before the first
    /// walk).
    #[cfg(test)]
    fn chunk_bounds(&self) -> Option<Vec<Nanos>> {
        self.walk
            .as_ref()
            .map(|w| w.chunks.iter().map(|c| c.until).collect())
    }

    /// Number of entries parked in `mask`.
    #[cfg(test)]
    pub(crate) fn parked(&self, mask: Mask) -> usize {
        self.walk.as_ref().map_or(0, |w| {
            w.chunks
                .iter()
                .map(|c| match mask {
                    Mask::Cold => c.cold.count_ones() as usize,
                    Mask::Hot => c.hot.count_ones() as usize,
                })
                .sum()
        })
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

    /// Parks `frame` in `mask` (out of the other) or unparks it from
    /// both, if it is tracked, without establishing the park invariant.
    pub fn set_parked(&mut self, frame: FrameId, mask: Mask, parked: bool) {
        let Some((c, i)) = self.position(frame) else {
            return;
        };
        let w = &mut self.walk_parts().1.chunks[c];
        if parked {
            w.park(i, mask);
        } else {
            let bit = !(1u128 << i);
            w.cold &= bit;
            w.hot &= bit;
        }
    }

    /// Every (frame, mask it is parked in), ascending by full `FrameId`.
    pub fn parked_bits(&self) -> Vec<(FrameId, Option<Mask>)> {
        let none = ChunkWalk::default();
        self.chunks
            .iter()
            .enumerate()
            .flat_map(|(c, entries)| {
                let w = self
                    .walk
                    .as_ref()
                    .and_then(|w| w.chunks.get(c))
                    .unwrap_or(&none);
                let (cold, hot) = (w.cold, w.hot);
                entries.iter().enumerate().map(move |(i, e)| {
                    let mask = if cold >> i & 1 == 1 {
                        Some(Mask::Cold)
                    } else if hot >> i & 1 == 1 {
                        Some(Mask::Hot)
                    } else {
                        None
                    };
                    (e.frame(), mask)
                })
            })
            .collect()
    }
}

impl FrameRefs {
    /// Internal-consistency audit: every chunk non-empty and within
    /// capacity, one recorded max per chunk but the final one, each
    /// equal to its chunk's last frame, frames strictly ascending across
    /// the whole set (sorted and distinct), every refcount at least 1,
    /// and walk state, once allocated, one per chunk with no bit past
    /// its chunk's length and no entry in both masks. Returns an error
    /// string naming the first discrepancy.
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
        if let Some(w) = &self.walk {
            if w.chunks.len() != self.chunks.len() {
                return Err(format!(
                    "{} chunks but walk state for {}",
                    self.chunks.len(),
                    w.chunks.len()
                ));
            }
            for (c, (entries, w)) in self.chunks.iter().zip(&w.chunks).enumerate() {
                let past = !low_bits(entries.len());
                if (w.cold | w.hot) & past != 0 || w.cold & w.hot != 0 {
                    return Err(format!(
                        "chunk {c} of {} entries has parked masks cold {:#x} hot {:#x}",
                        entries.len(),
                        w.cold,
                        w.hot
                    ));
                }
            }
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

    /// Frames parked in `mask`, ascending by full `FrameId` (the
    /// park-invariant oracle re-probes them).
    pub(crate) fn parked_frames(&self, mask: Mask) -> impl Iterator<Item = FrameId> + '_ {
        self.parked_bits()
            .into_iter()
            .filter_map(move |(frame, m)| (m == Some(mask)).then_some(frame))
    }

    /// The frames of every chunk a demotion walk under `key` at `now`
    /// would skip for its bound (the chunk-bound oracle re-probes them).
    pub(crate) fn bounded_frames(&self, key: (Nanos, u64), now: Nanos) -> Vec<FrameId> {
        let Some(w) = self.walk.as_ref().filter(|w| w.key == Some(key)) else {
            return Vec::new();
        };
        self.chunks
            .iter()
            .zip(&w.chunks)
            .filter(|(_, w)| now < w.until)
            .flat_map(|(entries, _)| entries.iter().map(Entry::frame))
            .collect()
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

    /// Sets the cold bit just past the final chunk's last entry.
    /// Corruption hook for self-tests.
    pub(crate) fn ksan_break_mask(&mut self) {
        let Some(len) = self.chunks.last().map(Vec::len) else {
            return;
        };
        if let Some(w) = self.walk_parts().1.chunks.last_mut() {
            w.cold |= 1u128.checked_shl(len as u32).unwrap_or(0); // lint: truncation-ok — len <= 128
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The frames the promotion walk visits when it parks nothing.
    fn unparked(r: &mut FrameRefs) -> Vec<FrameId> {
        let mut seen = Vec::new();
        r.walk_hot(|frame| {
            seen.push(frame);
            Walk::Skip
        });
        seen
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
        r.walk_cold((Nanos::ZERO, 0), Nanos::ZERO, Nanos::ZERO, |frame, _| {
            if frame == FrameId(7) {
                Walk::Park(Mask::Cold)
            } else {
                Walk::Skip
            }
        });
        assert_eq!(r.parked(Mask::Cold), 1);
        assert!(!r.add(FrameId(7)));
        let mut counts = Vec::new();
        r.for_each(|f, rc| counts.push((f, rc)));
        assert_eq!(counts, vec![(FrameId(7), 2), (FrameId(9), 1)]);
        assert!(!r.unref(FrameId(7)), "one reference left");
        assert_eq!(r.parked(Mask::Cold), 1);
        assert_eq!(
            unparked(&mut r),
            [FrameId(9)],
            "the walk steps over parked entries"
        );
        r.unpark(FrameId(7));
        r.unpark(FrameId(8));
        assert_eq!(r.parked(Mask::Cold), 0);
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
        r.walk_hot(|_| {
            if seen == 200 {
                return Walk::Stop;
            }
            seen += 1;
            Walk::Park(Mask::Hot)
        });
        assert_eq!(r.parked(Mask::Hot), 200, "parks span a chunk boundary");
        assert_eq!(
            unparked(&mut r),
            (200..300).map(FrameId).collect::<Vec<_>>()
        );
    }

    #[test]
    fn hot_parked_entries_stay_in_the_demotion_walk() {
        let mut r = FrameRefs::default();
        for f in 0..4 {
            r.add(FrameId(f));
        }
        r.walk_hot(|frame| {
            if frame.0 < 2 {
                Walk::Park(Mask::Hot)
            } else {
                Walk::Skip
            }
        });
        r.set_parked(FrameId(3), Mask::Cold, true);
        let mut seen = Vec::new();
        r.walk_cold((Nanos::ZERO, 0), Nanos::ZERO, Nanos::ZERO, |frame, _| {
            seen.push(frame.0);
            Walk::Skip
        });
        assert_eq!(seen, [0, 1, 2], "only cold-parked entries are skipped");
        assert_eq!(unparked(&mut r), [FrameId(2)]);
        r.unpark(FrameId(0));
        assert_eq!(unparked(&mut r), [FrameId(0), FrameId(2)]);
    }

    #[test]
    fn demotion_bounds_skip_chunks_until_they_expire() {
        let mut r = FrameRefs::default();
        for f in (0..400).step_by(2) {
            r.add(FrameId(f));
        }
        assert_eq!(r.chunk_lens(), [128, 72]);
        let key = (Nanos::new(10), 0);
        let visits = |r: &mut FrameRefs, key, now: u64| {
            let mut seen = 0;
            r.walk_cold(
                key,
                Nanos::new(now),
                Nanos::new(now + 50),
                |frame, until| {
                    seen += 1;
                    // Frame 10 pulls its chunk's bound below the cap.
                    if frame.0 == 10 {
                        *until = (*until).min(Nanos::new(now + 20));
                    }
                    Walk::Skip
                },
            );
            seen
        };
        assert_eq!(r.chunk_bounds(), None, "no walk state yet");
        assert_eq!(visits(&mut r, key, 100), 200);
        assert_eq!(
            r.chunk_bounds().unwrap(),
            [Nanos::new(120), Nanos::new(150)]
        );
        assert_eq!(visits(&mut r, key, 119), 0, "both chunks bounded");
        assert_eq!(visits(&mut r, key, 120), 128, "the first expired");
        // An insert resets its own chunk only; a removal keeps it.
        r.unref(FrameId(300));
        r.add(FrameId(1000));
        assert_eq!(visits(&mut r, key, 121), 72);
        r.unref(FrameId(0));
        assert_eq!(visits(&mut r, key, 122), 0);
        r.add(FrameId(0));
        assert_eq!(visits(&mut r, key, 130), 128);
        // A split keeps the bound in both halves; the insert then resets
        // the half it lands in.
        r.add(FrameId(201));
        assert_eq!(r.chunk_lens(), [64, 65, 72]);
        assert_eq!(visits(&mut r, key, 131), 65);
        // Another key, or a reset, drops every bound.
        assert_eq!(visits(&mut r, (Nanos::new(10), 1), 132), 201);
        r.reset_bounds();
        assert_eq!(visits(&mut r, (Nanos::new(10), 1), 133), 201);
    }

    #[test]
    fn the_hint_follows_the_last_add_or_unref() {
        let mut r = FrameRefs::default();
        for f in (0..400).step_by(2) {
            r.add(FrameId(f));
        }
        assert!(r.add(FrameId(101)), "a mid insert");
        assert_eq!(r.at_hint(FrameId(101)), Some((0, 51)));
        assert!(!r.add(FrameId(101)), "a hint hit counts a reference");
        assert!(!r.unref(FrameId(101)));
        assert!(r.unref(FrameId(101)));
        assert_eq!(r.at_hint(FrameId(101)), None, "gone");
        assert!(!r.unref(FrameId(101)), "a stale hint misses");
        assert!(r.unref(FrameId(102)), "the entry now under the hint");
        assert_eq!(r.iter().filter(|f| f.0 % 2 == 1).count(), 0);
        assert_eq!(r.len(), 199);
    }

    #[test]
    fn tables_start_unallocated() {
        let mut r = FrameRefs::default();
        assert_eq!(r.chunks.capacity(), 0, "empty knodes cost nothing");
        assert!(!r.unref(FrameId(3)));
        r.add(FrameId(3));
        assert!(r.walk.is_none(), "no walk state before the first walk");
        r.walk_hot(|_| Walk::Skip);
        assert!(r.walk.is_some());
        r.unref(FrameId(3));
        r.walk_hot(|_| unreachable!("an empty set has no entries"));
    }
}
