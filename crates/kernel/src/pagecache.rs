//! Per-inode page cache (radix tree).
//!
//! Each inode's cached pages are tracked in a radix-tree-like structure:
//! pages are grouped into chunks of [`fanout`](PageCache::fanout) page
//! indices, and each populated chunk is backed by one **radix-node slab
//! object** — those nodes are themselves kernel objects that the paper's
//! Fig. 2a accounts for and that KLOCs tier.
//!
//! Storage mirrors the radix shape: a dense chunk directory indexed by
//! `idx / fanout`, each populated chunk holding a dense slot array of
//! `fanout` pages. Lookup is two array indexes — the previous
//! implementation kept every page of an inode in one `BTreeMap` and paid
//! an O(log n) descent on the simulator's hottest read path. Each chunk
//! also counts its dirty pages so writeback scans skip clean chunks.
//!
//! This module is a pure data structure: the caller (the [`crate::Kernel`]
//! facade) allocates/frees the radix-node and page objects and charges
//! access costs; the page cache only records the mapping.

use kloc_mem::FrameId;

use crate::obj::ObjectId;

/// One cached page of a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedPage {
    /// Page-cache object backing this page.
    pub obj: ObjectId,
    /// Frame the page lives on.
    pub frame: FrameId,
    /// Whether the page has unwritten (dirty) data.
    pub dirty: bool,
    /// Monotone content version: bumped on every dirtying write, so the
    /// crash checker can compare what reached disk against what an
    /// `fsync` promised (a page flushed at version 3 then promised at
    /// version 3 must recover at version >= 3).
    pub version: u64,
}

#[derive(Debug, Clone)]
struct Chunk {
    node_obj: ObjectId,
    pages: u32,
    /// Dirty pages within this chunk (lets dirty scans skip clean
    /// chunks).
    dirty: u32,
    /// Dense page slots, indexed by `idx % fanout`.
    slots: Box<[Option<CachedPage>]>,
}

impl Chunk {
    fn new(node_obj: ObjectId, fanout: u64) -> Self {
        Chunk {
            node_obj,
            pages: 0,
            dirty: 0,
            slots: vec![None; fanout as usize].into_boxed_slice(),
        }
    }
}

/// Outcome of removing a page: the page record, plus the radix-node
/// object to free if its chunk became empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Removed {
    /// The removed page.
    pub page: CachedPage,
    /// Radix node freed because its chunk emptied, if any.
    pub freed_node: Option<ObjectId>,
}

/// Radix-tree page cache of one inode.
#[derive(Debug, Clone, Default)]
pub struct PageCache {
    fanout: u64,
    /// Chunk directory, indexed by `idx / fanout`; `None` marks an
    /// unpopulated chunk.
    chunks: Vec<Option<Chunk>>,
    pages: usize,
    nodes: usize,
    dirty: u64,
}

impl PageCache {
    /// Creates a cache whose radix nodes each cover `fanout` page indices.
    /// Zero (a node that covers nothing) is clamped to the documented
    /// minimum of 1, one node per page.
    pub fn new(fanout: u64) -> Self {
        PageCache {
            fanout: fanout.max(1),
            ..PageCache::default()
        }
    }

    /// Page indices per radix node.
    pub fn fanout(&self) -> u64 {
        self.fanout
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.pages
    }

    /// Whether no pages are cached.
    pub fn is_empty(&self) -> bool {
        self.pages == 0
    }

    /// Number of dirty pages.
    pub fn dirty_pages(&self) -> u64 {
        self.dirty
    }

    /// Number of live radix nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    fn chunk_of(&self, idx: u64) -> usize {
        (idx / self.fanout) as usize
    }

    #[inline]
    fn slot_of(&self, idx: u64) -> usize {
        (idx % self.fanout) as usize
    }

    #[inline]
    fn chunk(&self, idx: u64) -> Option<&Chunk> {
        self.chunks.get(self.chunk_of(idx))?.as_ref()
    }

    /// Whether inserting page `idx` requires a new radix node first.
    pub fn needs_node(&self, idx: u64) -> bool {
        self.chunk(idx).is_none()
    }

    /// The radix-node object covering page `idx`, if populated. The
    /// caller charges a memory access to it on every lookup (tree
    /// traversal cost, paper §4.2.3 measures ~10 references per lookup
    /// on a single big tree).
    pub fn node_for(&self, idx: u64) -> Option<ObjectId> {
        self.chunk(idx).map(|c| c.node_obj)
    }

    /// Installs a freshly allocated radix node for the chunk covering
    /// `idx`.
    ///
    /// # Panics
    /// Panics if the chunk already has a node.
    pub fn install_node(&mut self, idx: u64, node_obj: ObjectId) {
        let chunk = self.chunk_of(idx);
        if chunk >= self.chunks.len() {
            self.chunks.resize_with(chunk + 1, || None);
        }
        let entry = &mut self.chunks[chunk];
        assert!(entry.is_none(), "chunk {chunk} already has a radix node");
        *entry = Some(Chunk::new(node_obj, self.fanout));
        self.nodes += 1;
    }

    /// Inserts a page.
    ///
    /// # Panics
    /// Panics if the page is already present or the chunk has no node
    /// (call [`PageCache::install_node`] first).
    pub fn insert(&mut self, idx: u64, obj: ObjectId, frame: FrameId, dirty: bool) {
        let chunk = self.chunk_of(idx);
        let slot = self.slot_of(idx);
        #[expect(clippy::expect_used, reason = "install_node requires a prior insert")]
        let c = self
            .chunks
            .get_mut(chunk)
            .and_then(Option::as_mut)
            .expect("insert before install_node");
        let prev = c.slots[slot].replace(CachedPage {
            obj,
            frame,
            dirty,
            version: u64::from(dirty),
        });
        assert!(prev.is_none(), "page {idx} already cached");
        c.pages += 1;
        if dirty {
            c.dirty += 1;
            self.dirty += 1;
        }
        self.pages += 1;
    }

    /// Looks up a page.
    #[inline]
    pub fn get(&self, idx: u64) -> Option<&CachedPage> {
        let slot = self.slot_of(idx);
        self.chunk(idx)?.slots[slot].as_ref()
    }

    /// Marks a page dirty, advancing its content version (every call is
    /// one more write the crash checker can account for). Returns
    /// whether the page exists.
    pub fn mark_dirty(&mut self, idx: u64) -> bool {
        let (chunk, slot) = (self.chunk_of(idx), self.slot_of(idx));
        let Some(c) = self.chunks.get_mut(chunk).and_then(Option::as_mut) else {
            return false;
        };
        match c.slots[slot].as_mut() {
            Some(p) => {
                if !p.dirty {
                    p.dirty = true;
                    c.dirty += 1;
                    self.dirty += 1;
                }
                p.version += 1;
                true
            }
            None => false,
        }
    }

    /// Marks a page clean. Returns whether the page exists.
    pub fn mark_clean(&mut self, idx: u64) -> bool {
        let (chunk, slot) = (self.chunk_of(idx), self.slot_of(idx));
        let Some(c) = self.chunks.get_mut(chunk).and_then(Option::as_mut) else {
            return false;
        };
        match c.slots[slot].as_mut() {
            Some(p) => {
                if p.dirty {
                    p.dirty = false;
                    c.dirty -= 1;
                    self.dirty -= 1;
                }
                true
            }
            None => false,
        }
    }

    /// Removes a page, reporting any radix node that must be freed.
    pub fn remove(&mut self, idx: u64) -> Option<Removed> {
        let (chunk, slot) = (self.chunk_of(idx), self.slot_of(idx));
        let c = self.chunks.get_mut(chunk).and_then(Option::as_mut)?;
        let page = c.slots[slot].take()?;
        if page.dirty {
            c.dirty -= 1;
            self.dirty -= 1;
        }
        c.pages -= 1;
        self.pages -= 1;
        let freed_node = if c.pages == 0 {
            let node = c.node_obj;
            self.chunks[chunk] = None;
            self.nodes -= 1;
            Some(node)
        } else {
            None
        };
        Some(Removed { page, freed_node })
    }

    /// Empties the cache, returning all pages and all radix-node objects
    /// (inode teardown). Dirty accounting is reset.
    pub fn take_all(&mut self) -> (Vec<CachedPage>, Vec<ObjectId>) {
        let mut pages = Vec::with_capacity(self.pages);
        let mut nodes = Vec::with_capacity(self.nodes);
        for chunk in std::mem::take(&mut self.chunks).into_iter().flatten() {
            nodes.push(chunk.node_obj);
            pages.extend(chunk.slots.into_vec().into_iter().flatten());
        }
        self.pages = 0;
        self.nodes = 0;
        self.dirty = 0;
        (pages, nodes)
    }

    /// Iterates `(index, page)` in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &CachedPage)> {
        let fanout = self.fanout;
        self.chunks
            .iter()
            .enumerate()
            .filter_map(|(ci, c)| c.as_ref().map(|c| (ci, c)))
            .flat_map(move |(ci, c)| {
                c.slots.iter().enumerate().filter_map(move |(si, p)| {
                    p.as_ref().map(|p| (ci as u64 * fanout + si as u64, p))
                })
            })
    }

    /// Radix-node objects, in index order.
    pub fn nodes(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.chunks.iter().flatten().map(|c| c.node_obj)
    }

    /// Indices of all dirty pages, in order. Clean chunks are skipped
    /// via their dirty counters.
    pub fn dirty_indices(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.dirty as usize);
        for (ci, c) in self.chunks.iter().enumerate() {
            let Some(c) = c else { continue };
            if c.dirty == 0 {
                continue;
            }
            for (si, p) in c.slots.iter().enumerate() {
                if p.as_ref().is_some_and(|p| p.dirty) {
                    out.push(ci as u64 * self.fanout + si as u64);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(n: u64) -> (ObjectId, FrameId) {
        (ObjectId(n), FrameId(n + 1000))
    }

    #[test]
    fn insert_requires_node_once_per_chunk() {
        let mut pc = PageCache::new(64);
        assert!(pc.needs_node(0));
        pc.install_node(0, ObjectId(900));
        assert!(!pc.needs_node(63), "same chunk");
        assert!(pc.needs_node(64), "next chunk");
        let (o, f) = page(1);
        pc.insert(0, o, f, false);
        assert_eq!(pc.node_for(0), Some(ObjectId(900)));
        assert_eq!(pc.node_count(), 1);
    }

    #[test]
    fn zero_fanout_clamped() {
        let pc = PageCache::new(0);
        assert_eq!(pc.fanout(), 1, "clamped to one page per node");
    }

    #[test]
    fn versions_advance_per_dirtying_write() {
        let mut pc = PageCache::new(64);
        pc.install_node(0, ObjectId(900));
        let (o, f) = page(1);
        pc.insert(0, o, f, false);
        assert_eq!(pc.get(0).unwrap().version, 0, "clean fill");
        pc.mark_dirty(0);
        pc.mark_dirty(0);
        assert_eq!(pc.get(0).unwrap().version, 2, "every write counts");
        pc.mark_clean(0);
        assert_eq!(pc.get(0).unwrap().version, 2, "flush preserves version");
        let (o1, f1) = page(2);
        pc.insert(1, o1, f1, true);
        assert_eq!(pc.get(1).unwrap().version, 1, "dirty insert is write one");
    }

    #[test]
    fn dirty_accounting() {
        let mut pc = PageCache::new(64);
        pc.install_node(0, ObjectId(900));
        let (o, f) = page(1);
        pc.insert(0, o, f, true);
        assert_eq!(pc.dirty_pages(), 1);
        assert!(pc.mark_clean(0));
        assert_eq!(pc.dirty_pages(), 0);
        assert!(pc.mark_dirty(0));
        assert!(pc.mark_dirty(0), "idempotent");
        assert_eq!(pc.dirty_pages(), 1);
        assert!(!pc.mark_dirty(99), "missing page");
        assert_eq!(pc.dirty_indices(), vec![0]);
    }

    #[test]
    fn remove_frees_node_when_chunk_empties() {
        let mut pc = PageCache::new(2);
        pc.install_node(0, ObjectId(900));
        let (o0, f0) = page(0);
        let (o1, f1) = page(1);
        pc.insert(0, o0, f0, false);
        pc.insert(1, o1, f1, true);
        let r = pc.remove(0).unwrap();
        assert_eq!(r.page.obj, o0);
        assert_eq!(r.freed_node, None, "chunk still has page 1");
        let r = pc.remove(1).unwrap();
        assert_eq!(r.freed_node, Some(ObjectId(900)));
        assert!(pc.is_empty());
        assert_eq!(pc.dirty_pages(), 0);
        assert!(pc.remove(1).is_none());
    }

    #[test]
    #[should_panic(expected = "already cached")]
    fn double_insert_panics() {
        let mut pc = PageCache::new(64);
        pc.install_node(0, ObjectId(900));
        let (o, f) = page(1);
        pc.insert(0, o, f, false);
        pc.insert(0, o, f, false);
    }

    #[test]
    #[should_panic(expected = "insert before install_node")]
    fn insert_without_node_panics() {
        let mut pc = PageCache::new(64);
        let (o, f) = page(1);
        pc.insert(0, o, f, false);
    }

    #[test]
    fn iteration_in_index_order() {
        let mut pc = PageCache::new(64);
        pc.install_node(0, ObjectId(900));
        for i in [5u64, 1, 3] {
            let (o, f) = page(i);
            pc.insert(i, o, f, false);
        }
        let order: Vec<u64> = pc.iter().map(|(i, _)| i).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn reinstalling_a_freed_chunk_works() {
        let mut pc = PageCache::new(2);
        pc.install_node(0, ObjectId(900));
        let (o, f) = page(0);
        pc.insert(0, o, f, false);
        assert!(pc.remove(0).unwrap().freed_node.is_some());
        assert!(pc.needs_node(0), "chunk directory entry cleared");
        pc.install_node(0, ObjectId(901));
        pc.insert(1, o, f, true);
        assert_eq!(pc.node_for(1), Some(ObjectId(901)));
        assert_eq!(pc.dirty_indices(), vec![1]);
    }
}
