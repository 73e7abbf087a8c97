//! Active/inactive page LRU lists.
//!
//! Linux tracks reclaimable pages on per-zone active and inactive lists;
//! pages are promoted on reference and demoted by aging, and reclaim
//! scans the inactive tail. Policies in `kloc-policy` reuse this
//! structure for hotness detection of application pages (Nimble-style),
//! and the kernel itself uses one instance for page-cache reclaim.
//!
//! Scanning is *not free*: the paper measures 2 s per million pages
//! (§3.3) — callers charge [`crate::KernelParams::lru_scan_per_page`] per
//! scanned page, which is exactly why scan-based tiering cannot keep up
//! with short-lived kernel objects.
//!
//! Like Linux's `struct lruvec`, the lists are intrusive doubly-linked
//! lists over an arena of slots: touch, rotate, insert, and remove are
//! all O(1) pointer splices (the previous implementation kept the
//! ordering in per-list `BTreeMap`s keyed by timestamp, paying
//! O(log n) rebalancing on the simulator's hottest path).

use kloc_mem::FrameId;

/// Which list a page is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum List {
    /// Recently used pages.
    Active,
    /// Aging pages; reclaim candidates live at the tail.
    Inactive,
}

/// Result of one inactive-list scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Pages examined (each costs scan time).
    pub scanned: usize,
    /// Unreferenced pages removed from the list — eviction/demotion
    /// candidates, now owned by the caller.
    pub evict: Vec<FrameId>,
    /// Referenced pages rescued to the active list.
    pub promoted: usize,
}

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    frame: FrameId,
    prev: u32,
    next: u32,
    list: List,
    referenced: bool,
}

/// Head/tail/length of one intrusive list. Head is the oldest
/// (least-recently inserted) page, tail the newest.
#[derive(Debug, Clone, Copy)]
struct Ends {
    head: u32,
    tail: u32,
    len: usize,
}

impl Default for Ends {
    fn default() -> Self {
        Ends {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }
}

/// Two-list page LRU.
#[derive(Debug, Clone, Default)]
pub struct PageLru {
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// Direct-mapped slot -> node table. Keyed by [`FrameId::slot`]
    /// (dense; the full id is sparse — generation bits), verified
    /// against the node's stored full id to reject stale generations.
    /// `NIL` marks untracked slots.
    index: Vec<u32>,
    tracked: usize,
    active: Ends,
    inactive: Ends,
}

impl PageLru {
    /// Creates empty lists.
    pub fn new() -> Self {
        PageLru::default()
    }

    /// Pages on the active list.
    pub fn active_len(&self) -> usize {
        self.active.len
    }

    /// Pages on the inactive list.
    pub fn inactive_len(&self) -> usize {
        self.inactive.len
    }

    /// Total tracked pages.
    pub fn len(&self) -> usize {
        self.tracked
    }

    /// Whether no pages are tracked.
    pub fn is_empty(&self) -> bool {
        self.tracked == 0
    }

    /// Whether `frame` is tracked.
    pub fn contains(&self, frame: FrameId) -> bool {
        self.node_of(frame) != NIL
    }

    fn node_of(&self, frame: FrameId) -> u32 {
        match self.index.get(frame.slot() as usize) {
            Some(&n) if n != NIL && self.nodes[n as usize].frame == frame => n,
            _ => NIL,
        }
    }

    fn ends(&mut self, list: List) -> &mut Ends {
        match list {
            List::Active => &mut self.active,
            List::Inactive => &mut self.inactive,
        }
    }

    /// Links `node` at the tail (most-recent end) of `list`.
    fn link_tail(&mut self, node: u32, list: List) {
        let old_tail = self.ends(list).tail;
        {
            let n = &mut self.nodes[node as usize];
            n.list = list;
            n.prev = old_tail;
            n.next = NIL;
        }
        if old_tail != NIL {
            self.nodes[old_tail as usize].next = node;
        }
        let ends = self.ends(list);
        ends.tail = node;
        if ends.head == NIL {
            ends.head = node;
        }
        ends.len += 1;
    }

    /// Unlinks `node` from whichever list holds it.
    fn unlink(&mut self, node: u32) {
        let (prev, next, list) = {
            let n = &self.nodes[node as usize];
            (n.prev, n.next, n.list)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        }
        let ends = self.ends(list);
        if ends.head == node {
            ends.head = next;
        }
        if ends.tail == node {
            ends.tail = prev;
        }
        ends.len -= 1;
    }

    /// Allocates a node slot for `frame` (reusing freed slots).
    fn alloc_node(&mut self, frame: FrameId, list: List, referenced: bool) -> u32 {
        let node = Node {
            frame,
            prev: NIL,
            next: NIL,
            list,
            referenced,
        };
        match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    fn push(&mut self, frame: FrameId, list: List, referenced: bool) {
        let i = frame.slot() as usize;
        if i >= self.index.len() {
            self.index.resize(i + 1, NIL);
        } else {
            let stale = self.index[i];
            if stale != NIL {
                // The frame table recycled this slot: the previous
                // occupant's frame is dead (its id can never be queried
                // again), it just was never removed. Drop it.
                self.unlink(stale);
                self.free.push(stale);
                self.tracked -= 1;
            }
        }
        let node = self.alloc_node(frame, list, referenced);
        self.link_tail(node, list);
        self.index[i] = node;
        self.tracked += 1;
    }

    /// Adds a new page to a list (most-recent end).
    ///
    /// # Panics
    /// Panics if the frame is already tracked.
    pub fn insert(&mut self, frame: FrameId, list: List) {
        assert!(!self.contains(frame), "{frame} already on an LRU list");
        self.push(frame, list, false);
    }

    /// Records a reference to `frame`. First touch sets the referenced
    /// bit; a second touch on the inactive list promotes to active
    /// (Linux's two-touch promotion). Unknown frames are ignored.
    pub fn mark_accessed(&mut self, frame: FrameId) {
        let node = self.node_of(frame);
        if node == NIL {
            return;
        }
        let n = &mut self.nodes[node as usize];
        if n.referenced && n.list == List::Inactive {
            n.referenced = false;
            self.unlink(node);
            self.link_tail(node, List::Active);
        } else {
            n.referenced = true;
        }
    }

    /// Stops tracking `frame` (freed or migrated away). Returns whether
    /// it was tracked.
    pub fn remove(&mut self, frame: FrameId) -> bool {
        let node = self.node_of(frame);
        if node == NIL {
            return false;
        }
        self.index[frame.slot() as usize] = NIL;
        self.tracked -= 1;
        self.unlink(node);
        self.free.push(node);
        true
    }

    /// Scans up to `n` pages from the inactive tail (oldest first):
    /// referenced pages are rescued to the active list; unreferenced
    /// pages are removed and returned as eviction candidates.
    pub fn scan_inactive(&mut self, n: usize) -> ScanOutcome {
        let mut out = ScanOutcome::default();
        while out.scanned < n {
            let node = self.inactive.head;
            if node == NIL {
                break;
            }
            out.scanned += 1;
            self.unlink(node);
            let entry = &mut self.nodes[node as usize];
            if entry.referenced {
                // Rescue: rotate to the active MRU end, reference cleared.
                entry.referenced = false;
                self.link_tail(node, List::Active);
                out.promoted += 1;
            } else {
                let frame = entry.frame;
                self.index[frame.slot() as usize] = NIL;
                self.tracked -= 1;
                self.free.push(node);
                out.evict.push(frame);
            }
        }
        out
    }

    /// Ages up to `n` pages from the active tail to the inactive list
    /// (clearing their referenced bit).
    pub fn age_active(&mut self, n: usize) -> usize {
        let mut moved = 0;
        while moved < n {
            let node = self.active.head;
            if node == NIL {
                break;
            }
            self.unlink(node);
            self.nodes[node as usize].referenced = false;
            self.link_tail(node, List::Inactive);
            moved += 1;
        }
        moved
    }

    fn iter_list(&self, ends: &Ends) -> impl Iterator<Item = FrameId> + '_ {
        ListIter {
            lru: self,
            cursor: ends.head,
        }
    }

    /// Iterates inactive frames oldest-first without removing them.
    pub fn inactive_iter(&self) -> impl Iterator<Item = FrameId> + '_ {
        self.iter_list(&self.inactive)
    }

    /// Iterates active frames oldest-first without removing them.
    pub fn active_iter(&self) -> impl Iterator<Item = FrameId> + '_ {
        self.iter_list(&self.active)
    }
}

impl PageLru {
    /// Walks both intrusive lists and cross-checks them against the
    /// slot index and the counters: list lengths, link reciprocity,
    /// list tags, and index round-trips. Observation only.
    pub fn ksan_audit(&self, out: &mut Vec<kloc_mem::ksan::Violation>) {
        use kloc_mem::ksan::Violation;
        let mut walked = 0usize;
        for (ends, list, name) in [
            (&self.active, List::Active, "active"),
            (&self.inactive, List::Inactive, "inactive"),
        ] {
            let mut prev = NIL;
            let mut cursor = ends.head;
            let mut len = 0usize;
            while cursor != NIL {
                let n = &self.nodes[cursor as usize];
                if n.list != list {
                    out.push(Violation::new(
                        "PageLru list links <-> Node.list",
                        format!("frame {}", n.frame),
                        "a node is linked on the list its tag names",
                        format!("{name} (linked there)"),
                        format!("tagged {:?}", n.list),
                    ));
                }
                if n.prev != prev {
                    out.push(Violation::new(
                        "PageLru.next <-> PageLru.prev",
                        format!("frame {}", n.frame),
                        "forward and backward links are reciprocal",
                        format!("prev = {prev}"),
                        format!("prev = {}", n.prev),
                    ));
                }
                if self.index.get(n.frame.slot() as usize) != Some(&cursor) {
                    out.push(Violation::new(
                        "PageLru list links <-> PageLru.index",
                        format!("frame {}", n.frame),
                        "every linked node is reachable through the index",
                        format!("index[{}] = {cursor}", n.frame.slot()),
                        format!(
                            "index[{}] = {:?}",
                            n.frame.slot(),
                            self.index.get(n.frame.slot() as usize)
                        ),
                    ));
                }
                prev = cursor;
                cursor = n.next;
                len += 1;
                if len > self.nodes.len() {
                    out.push(Violation::new(
                        "PageLru list links",
                        format!("{name} list"),
                        "lists are acyclic",
                        format!("<= {} nodes", self.nodes.len()),
                        "walk did not terminate".to_owned(),
                    ));
                    return;
                }
            }
            if ends.tail != prev {
                out.push(Violation::new(
                    "PageLru.Ends.tail <-> list links",
                    format!("{name} list"),
                    "the tail pointer names the last linked node",
                    format!("tail = {prev}"),
                    format!("tail = {}", ends.tail),
                ));
            }
            if ends.len != len {
                out.push(Violation::new(
                    "PageLru.Ends.len <-> list links",
                    format!("{name} list"),
                    "the cached length equals the walked length",
                    format!("{len} walked"),
                    format!("len = {}", ends.len),
                ));
            }
            walked += len;
        }
        if self.tracked != walked {
            out.push(Violation::new(
                "PageLru.tracked <-> list links",
                "page LRU",
                "tracked equals the nodes linked on both lists",
                format!("{walked} linked"),
                format!("tracked = {}", self.tracked),
            ));
        }
        let indexed = self.index.iter().filter(|&&n| n != NIL).count();
        if indexed != self.tracked {
            out.push(Violation::new(
                "PageLru.index <-> PageLru.tracked",
                "page LRU",
                "the index holds exactly one entry per tracked frame",
                format!("tracked = {}", self.tracked),
                format!("{indexed} index entries"),
            ));
        }
    }

    /// Corruption hook for sanitizer self-tests: drops `frame`'s index
    /// entry while leaving it linked on its list.
    #[doc(hidden)]
    pub fn ksan_break_index(&mut self, frame: FrameId) {
        let i = frame.slot() as usize;
        if i < self.index.len() {
            self.index[i] = NIL;
        }
    }
}

struct ListIter<'a> {
    lru: &'a PageLru,
    cursor: u32,
}

impl Iterator for ListIter<'_> {
    type Item = FrameId;

    fn next(&mut self) -> Option<FrameId> {
        if self.cursor == NIL {
            return None;
        }
        let n = &self.lru.nodes[self.cursor as usize];
        self.cursor = n.next;
        Some(n.frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_counts() {
        let mut lru = PageLru::new();
        lru.insert(FrameId(1), List::Inactive);
        lru.insert(FrameId(2), List::Active);
        assert_eq!(lru.inactive_len(), 1);
        assert_eq!(lru.active_len(), 1);
        assert!(lru.contains(FrameId(1)));
        assert!(!lru.contains(FrameId(3)));
    }

    #[test]
    #[should_panic(expected = "already on an LRU list")]
    fn double_insert_panics() {
        let mut lru = PageLru::new();
        lru.insert(FrameId(1), List::Inactive);
        lru.insert(FrameId(1), List::Active);
    }

    #[test]
    fn two_touch_promotion() {
        let mut lru = PageLru::new();
        lru.insert(FrameId(1), List::Inactive);
        lru.mark_accessed(FrameId(1)); // sets referenced
        assert_eq!(lru.inactive_len(), 1);
        lru.mark_accessed(FrameId(1)); // promotes
        assert_eq!(lru.active_len(), 1);
        assert_eq!(lru.inactive_len(), 0);
    }

    #[test]
    fn scan_rescues_referenced_and_evicts_cold() {
        let mut lru = PageLru::new();
        lru.insert(FrameId(1), List::Inactive);
        lru.insert(FrameId(2), List::Inactive);
        lru.mark_accessed(FrameId(1));
        let out = lru.scan_inactive(10);
        assert_eq!(out.scanned, 2);
        assert_eq!(out.promoted, 1);
        assert_eq!(out.evict, vec![FrameId(2)]);
        assert!(lru.contains(FrameId(1)));
        assert!(!lru.contains(FrameId(2)));
    }

    #[test]
    fn scan_is_oldest_first() {
        let mut lru = PageLru::new();
        for i in 0..5 {
            lru.insert(FrameId(i), List::Inactive);
        }
        let out = lru.scan_inactive(2);
        assert_eq!(out.evict, vec![FrameId(0), FrameId(1)]);
    }

    #[test]
    fn aging_moves_active_to_inactive() {
        let mut lru = PageLru::new();
        lru.insert(FrameId(1), List::Active);
        lru.insert(FrameId(2), List::Active);
        assert_eq!(lru.age_active(1), 1);
        assert_eq!(lru.inactive_len(), 1);
        assert_eq!(lru.active_len(), 1);
        // Oldest active page (frame 1) moved first.
        assert_eq!(lru.inactive_iter().next(), Some(FrameId(1)));
    }

    #[test]
    fn remove_untracks() {
        let mut lru = PageLru::new();
        lru.insert(FrameId(1), List::Active);
        assert!(lru.remove(FrameId(1)));
        assert!(!lru.remove(FrameId(1)));
        assert!(lru.is_empty());
    }

    #[test]
    fn mark_accessed_unknown_frame_is_noop() {
        let mut lru = PageLru::new();
        lru.mark_accessed(FrameId(99));
        assert!(lru.is_empty());
    }

    #[test]
    fn stale_generation_misses_and_is_displaced() {
        // Slot 1, generation 0 vs generation 1 (frame table id packing:
        // generation << 32 | slot).
        let old = FrameId(1);
        let new = FrameId((1 << 32) | 1);
        let mut lru = PageLru::new();
        lru.insert(old, List::Inactive);
        // The recycled slot's new id does not alias the old entry.
        assert!(!lru.contains(new));
        lru.mark_accessed(new); // no-op
        assert!(!lru.remove(new));
        assert_eq!(lru.len(), 1);
        // Inserting the new generation displaces the dead occupant.
        lru.insert(new, List::Active);
        assert_eq!(lru.len(), 1);
        assert!(lru.contains(new));
        assert!(!lru.contains(old));
        assert_eq!(lru.active_len(), 1);
        assert_eq!(lru.inactive_len(), 0);
    }

    #[test]
    fn aged_page_lands_at_inactive_mru_end() {
        // Matches the timestamp-ordered implementation: aging re-stamps
        // the page, so it enters the inactive list as *newest*.
        let mut lru = PageLru::new();
        lru.insert(FrameId(1), List::Inactive);
        lru.insert(FrameId(2), List::Active);
        lru.age_active(1);
        let order: Vec<FrameId> = lru.inactive_iter().collect();
        assert_eq!(order, vec![FrameId(1), FrameId(2)]);
    }

    #[test]
    fn promotion_rotates_to_active_mru_end() {
        let mut lru = PageLru::new();
        lru.insert(FrameId(1), List::Active);
        lru.insert(FrameId(2), List::Inactive);
        lru.mark_accessed(FrameId(2));
        lru.mark_accessed(FrameId(2)); // promote
        let order: Vec<FrameId> = lru.active_iter().collect();
        assert_eq!(order, vec![FrameId(1), FrameId(2)]);
        // A promoted page needs two fresh touches to promote again.
        assert_eq!(lru.age_active(2), 2);
        assert_eq!(
            lru.inactive_iter().collect::<Vec<_>>(),
            vec![FrameId(1), FrameId(2)]
        );
        lru.mark_accessed(FrameId(2));
        let out = lru.scan_inactive(2);
        assert_eq!(out.evict, vec![FrameId(1)]);
        assert_eq!(out.promoted, 1);
    }
}
