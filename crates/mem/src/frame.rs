//! Page frames.
//!
//! The substrate hands out 4 KB page frames identified by [`FrameId`].
//! Frames are tagged with a [`PageKind`] (what class of data lives on
//! them — this is what the motivation study in paper Fig. 2 breaks down)
//! plus bookkeeping used by tiering policies: allocation time, last access
//! time, access counts, an 8-bit migration counter (the paper uses one to
//! suppress migration ping-pong, §4.5), and a pinned flag for
//! non-relocatable memory (slab pages).

use std::fmt;

use crate::clock::Nanos;
use crate::tier::TierId;

/// Size of one page frame in bytes. The paper (and Linux) manage kernel
/// objects almost exclusively in 4 KB pages (§5).
pub const PAGE_SIZE: u64 = 4096;

/// Identifier of an allocated page frame. Ids are unique for the lifetime
/// of a [`crate::MemorySystem`] and never reused: the value packs
/// `generation << 32 | slot` of the backing [`crate::FrameTable`], so a
/// recycled slot mints a fresh id and stale ids miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FrameId(pub u64);

impl FrameId {
    /// The frame table slot (low id bits). Slots are *dense* — the table
    /// hands them out sequentially and recycles freed ones — so they suit
    /// direct-mapped side tables, unlike the full id (whose generation
    /// bits make the value space sparse). A slot alone does not identify
    /// a frame across time: compare the full id to reject stale entries.
    pub fn slot(self) -> u32 {
        // Slot extraction is the point here: the low 32 bits *are* the
        // slot, the high bits the generation. lint: truncation-ok
        self.0 as u32
    }
}

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame{}", self.0)
    }
}

/// A set of live frames, direct-mapped by [`FrameId::slot`].
///
/// The frame table keeps slots dense and guarantees at most one live
/// frame per slot, so membership is one array read against the stored
/// full id (stale generations miss automatically) — no hashing. This is
/// the side-table shape the hot paths want for per-frame flags like
/// "brought in by readahead".
///
/// ```
/// use kloc_mem::{FrameId, FrameSet};
/// let mut s = FrameSet::new();
/// assert!(s.insert(FrameId(7)));
/// assert!(s.contains(FrameId(7)));
/// // Same slot, newer generation: a different frame.
/// assert!(!s.contains(FrameId(1 << 32 | 7)));
/// assert!(s.remove(FrameId(7)));
/// assert!(s.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FrameSet {
    /// Full frame id per slot, `EMPTY` when vacant.
    slots: Vec<u64>,
    len: usize,
}

impl FrameSet {
    /// Vacant-slot sentinel: a real id would need generation `u32::MAX`
    /// *and* slot `u32::MAX`, beyond any simulated allocation count.
    const EMPTY: u64 = u64::MAX;

    /// Creates an empty set.
    pub fn new() -> Self {
        FrameSet::default()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `frame` is a member.
    pub fn contains(&self, frame: FrameId) -> bool {
        self.slots.get(frame.slot() as usize) == Some(&frame.0)
    }

    /// Adds `frame`; returns whether it was newly inserted. Replaces a
    /// stale generation occupying the same slot (that frame is gone).
    pub fn insert(&mut self, frame: FrameId) -> bool {
        let slot = frame.slot() as usize;
        if slot >= self.slots.len() {
            self.slots.resize(slot + 1, Self::EMPTY);
        }
        let prev = std::mem::replace(&mut self.slots[slot], frame.0);
        if prev == frame.0 {
            return false;
        }
        if prev == Self::EMPTY {
            self.len += 1;
        }
        true
    }

    /// Removes `frame`; returns whether it was a member.
    pub fn remove(&mut self, frame: FrameId) -> bool {
        match self.slots.get_mut(frame.slot() as usize) {
            Some(s) if *s == frame.0 => {
                *s = Self::EMPTY;
                self.len -= 1;
                true
            }
            _ => false,
        }
    }
}

/// What class of data occupies a frame.
///
/// This is the granularity at which the paper's motivation study
/// (Fig. 2a/2b) separates memory footprint, and the granularity at which
/// placement policies decide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum PageKind {
    /// Anonymous application data (heap, stacks).
    AppData,
    /// Anonymous application data backed by transparent huge pages
    /// (paper §5's multi-page-size discussion): cheaper per-access TLB
    /// cost, coarser (costlier) migration granularity.
    AppHuge,
    /// File page-cache page (buffer cache).
    PageCache,
    /// A slab page holding small kernel objects (non-relocatable).
    Slab,
    /// A page in the KLOC relocatable-allocation region (paper §4.4's new
    /// VMA-backed allocation interface for kernel objects).
    KernelVma,
    /// Kernel page allocated via vmalloc (relocatable, virtually mapped).
    Vmalloc,
    /// Network driver receive-ring buffer page.
    RxRing,
}

impl PageKind {
    /// Whether pages of this kind can be migrated between tiers.
    ///
    /// Slab pages are referenced by physical address and are not
    /// relocatable (paper §3.3); everything else is.
    pub fn relocatable(self) -> bool {
        !matches!(self, PageKind::Slab | PageKind::RxRing)
    }

    /// Whether this kind counts as a kernel object page (vs application).
    pub fn is_kernel(self) -> bool {
        !matches!(self, PageKind::AppData | PageKind::AppHuge)
    }

    /// All page kinds, for iteration in reports.
    pub const ALL: [PageKind; 7] = [
        PageKind::AppData,
        PageKind::AppHuge,
        PageKind::PageCache,
        PageKind::Slab,
        PageKind::KernelVma,
        PageKind::Vmalloc,
        PageKind::RxRing,
    ];
}

impl fmt::Display for PageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PageKind::AppData => "app",
            PageKind::AppHuge => "app-huge",
            PageKind::PageCache => "page-cache",
            PageKind::Slab => "slab",
            PageKind::KernelVma => "kernel-vma",
            PageKind::Vmalloc => "vmalloc",
            PageKind::RxRing => "rx-ring",
        };
        f.write_str(s)
    }
}

/// Bookkeeping record for one allocated frame.
///
/// Stored column-wise in the [`crate::FrameTable`] (struct-of-arrays);
/// lookups materialize this view by value, so it is `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    pub(crate) id: FrameId,
    pub(crate) tier: TierId,
    pub(crate) kind: PageKind,
    pub(crate) pinned: bool,
    pub(crate) allocated_at: Nanos,
    pub(crate) last_access: Nanos,
    pub(crate) accesses: u64,
    /// 8-bit migration counter (paper §4.5: used to retain ping-ponging
    /// pages in fast memory).
    pub(crate) migrations: u8,
}

impl Frame {
    pub(crate) fn new(id: FrameId, tier: TierId, kind: PageKind, now: Nanos) -> Self {
        Frame {
            id,
            tier,
            kind,
            pinned: !kind.relocatable(),
            allocated_at: now,
            last_access: now,
            accesses: 0,
            migrations: 0,
        }
    }

    /// Frame id.
    pub fn id(&self) -> FrameId {
        self.id
    }

    /// Tier the frame currently resides on.
    pub fn tier(&self) -> TierId {
        self.tier
    }

    /// Data class on this frame.
    pub fn kind(&self) -> PageKind {
        self.kind
    }

    /// Whether the frame is pinned (non-migratable).
    pub fn pinned(&self) -> bool {
        self.pinned
    }

    /// Virtual time of allocation.
    pub fn allocated_at(&self) -> Nanos {
        self.allocated_at
    }

    /// Virtual time of most recent access.
    pub fn last_access(&self) -> Nanos {
        self.last_access
    }

    /// Total accesses charged to this frame.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Number of times this frame has migrated (saturating 8-bit counter).
    pub fn migrations(&self) -> u8 {
        self.migrations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_pages_are_pinned_and_kernel() {
        let f = Frame::new(FrameId(1), TierId::FAST, PageKind::Slab, Nanos::ZERO);
        assert!(f.pinned());
        assert!(f.kind().is_kernel());
        assert!(!PageKind::Slab.relocatable());
    }

    #[test]
    fn app_pages_are_relocatable_and_not_kernel() {
        assert!(PageKind::AppData.relocatable());
        assert!(!PageKind::AppData.is_kernel());
    }

    #[test]
    fn kernel_vma_pages_are_relocatable_kernel_pages() {
        // This is the crux of the paper's new allocation interface: kernel
        // objects that would be slab-allocated become migratable.
        assert!(PageKind::KernelVma.relocatable());
        assert!(PageKind::KernelVma.is_kernel());
    }

    #[test]
    fn all_kinds_listed_once() {
        let mut kinds = PageKind::ALL.to_vec();
        kinds.sort();
        kinds.dedup();
        assert_eq!(kinds.len(), PageKind::ALL.len());
    }

    #[test]
    fn display_names() {
        assert_eq!(PageKind::PageCache.to_string(), "page-cache");
        assert_eq!(FrameId(3).to_string(), "frame3");
    }

    #[test]
    fn frame_set_tracks_membership_by_full_id() {
        let mut s = FrameSet::new();
        assert!(!s.remove(FrameId(3)), "empty set has no members");
        assert!(s.insert(FrameId(3)));
        assert!(!s.insert(FrameId(3)), "double insert is a no-op");
        assert_eq!(s.len(), 1);
        // A recycled slot (new generation) is a distinct frame.
        let recycled = FrameId(1 << 32 | 3);
        assert!(!s.contains(recycled));
        assert!(!s.remove(recycled));
        // Inserting the recycled id displaces the stale entry in place.
        assert!(s.insert(recycled));
        assert_eq!(s.len(), 1);
        assert!(!s.contains(FrameId(3)));
        assert!(s.remove(recycled));
        assert!(s.is_empty());
    }
}
