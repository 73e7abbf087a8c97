//! Extent tracking.
//!
//! ext4 maps file offsets to contiguous disk block ranges via extents;
//! the in-memory `extent_status` structures are slab objects that the
//! paper tiers (Table 1). We model one extent object per
//! [`span`](ExtentTree::span) bytes of file growth.
//!
//! Like [`crate::pagecache::PageCache`], this is a pure data structure —
//! the kernel facade allocates the extent objects and records them here.
//!
//! The tree remembers how many spans from offset 0 are covered without
//! a gap, so a growing write examines only the spans beyond that prefix:
//! O(new spans) per write instead of O(file size).

use std::collections::BTreeMap;

use crate::obj::ObjectId;

/// Extent map of one inode.
#[derive(Debug, Clone, Default)]
pub struct ExtentTree {
    span: u64,
    extents: BTreeMap<u64, ObjectId>,
    /// Spans `0..covered` are all present: the contiguous covered
    /// prefix, which `missing_spans` never re-examines.
    covered: u64,
}

impl ExtentTree {
    /// Creates a tree with one extent per `span` bytes. Zero (which
    /// would mean "an extent covers nothing") is clamped to the
    /// documented minimum of 1 byte per extent.
    pub fn new(span: u64) -> Self {
        ExtentTree {
            span: span.max(1),
            extents: BTreeMap::new(),
            covered: 0,
        }
    }

    /// Bytes covered per extent object.
    pub fn span(&self) -> u64 {
        self.span
    }

    /// Number of live extent objects.
    pub fn len(&self) -> usize {
        self.extents.len()
    }

    /// Whether the tree has no extents.
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// Extent start offsets needed to cover a file grown from `old_size`
    /// to `new_size` bytes, i.e. the spans not yet covered, ascending.
    /// Only spans past the covered prefix are examined.
    pub fn missing_spans(&self, new_size: u64) -> Vec<u64> {
        if new_size == 0 {
            return Vec::new();
        }
        let last = (new_size - 1) / self.span;
        (self.covered..=last)
            .map(|i| i * self.span)
            .filter(|start| !self.extents.contains_key(start))
            .collect()
    }

    /// Records the extent object covering `start`.
    ///
    /// # Panics
    /// Panics if the span is already covered.
    pub fn insert(&mut self, start: u64, obj: ObjectId) {
        debug_assert_eq!(start % self.span, 0, "extent start must be span-aligned");
        let prev = self.extents.insert(start, obj);
        assert!(prev.is_none(), "span at {start} already covered");
        if start == self.covered * self.span {
            // Closing the gap at the prefix's end may join spans that
            // were inserted out of order beyond it.
            while self.extents.contains_key(&(self.covered * self.span)) {
                self.covered += 1;
            }
        }
    }

    /// The extent object covering byte `offset`, if any. Lookups cost one
    /// object access, charged by the caller.
    pub fn lookup(&self, offset: u64) -> Option<ObjectId> {
        let start = (offset / self.span) * self.span;
        self.extents.get(&start).copied()
    }

    /// Removes and returns all extent objects (file truncate/unlink).
    pub fn drain(&mut self) -> Vec<ObjectId> {
        let objs = self.extents.values().copied().collect();
        self.extents.clear();
        self.covered = 0;
        objs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_spans_for_growth() {
        let mut t = ExtentTree::new(1024);
        assert_eq!(t.missing_spans(0), Vec::<u64>::new());
        assert_eq!(t.missing_spans(1), vec![0]);
        assert_eq!(t.missing_spans(2048), vec![0, 1024]);
        t.insert(0, ObjectId(1));
        assert_eq!(t.missing_spans(2049), vec![1024, 2048]);
    }

    #[test]
    fn lookup_by_offset() {
        let mut t = ExtentTree::new(1024);
        t.insert(0, ObjectId(1));
        t.insert(1024, ObjectId(2));
        assert_eq!(t.lookup(0), Some(ObjectId(1)));
        assert_eq!(t.lookup(1023), Some(ObjectId(1)));
        assert_eq!(t.lookup(1024), Some(ObjectId(2)));
        assert_eq!(t.lookup(99999), None);
    }

    #[test]
    fn drain_empties_tree() {
        let mut t = ExtentTree::new(512);
        t.insert(0, ObjectId(1));
        t.insert(512, ObjectId(2));
        let mut drained = t.drain();
        drained.sort();
        assert_eq!(drained, vec![ObjectId(1), ObjectId(2)]);
        assert!(t.is_empty());
    }

    #[test]
    fn zero_span_clamped_to_one_byte() {
        let t = ExtentTree::new(0);
        assert_eq!(t.span(), 1, "documented minimum: one byte per extent");
    }

    #[test]
    #[should_panic(expected = "already covered")]
    fn double_cover_panics() {
        let mut t = ExtentTree::new(512);
        t.insert(0, ObjectId(1));
        t.insert(0, ObjectId(2));
    }
}
