//! Per-CPU knode fast-path lists (paper §4.3).
//!
//! The global kmap is a contended shared structure; the paper adds
//! per-CPU lists of recently touched knodes — a software cache in the
//! spirit of other kernel fast paths — with per-entry age tracking. The
//! paper reports these lists cut `rbtree-cache`/`rbtree-slab` accesses
//! by 54 %; this module's hit/miss counters reproduce that ablation.
//!
//! Entry ages are lazy, mirroring the kmap: each entry records the list
//! epoch at which it was last touched and its age is the difference —
//! [`PerCpuKnodeLists::age_all`] is a counter bump, not a walk of every
//! entry on every list.

use std::collections::VecDeque;

use kloc_kernel::hooks::CpuId;
use kloc_kernel::vfs::InodeId;

/// One entry on a per-CPU list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    inode: InodeId,
    /// The knode's storage slot in the kmap: a fast-path hit hands this
    /// back so the caller mutates the knode with one array access — no
    /// kmap tree walk at all (the §4.3 point of these lists).
    slot: u32,
    /// List epoch of the last access; the entry's age is the number of
    /// epochs since (reset-on-access, §4.3).
    touched_epoch: u64,
}

/// Per-CPU lists of recently used knodes.
#[derive(Debug, Clone)]
pub struct PerCpuKnodeLists {
    lists: Vec<VecDeque<Entry>>,
    capacity: usize,
    /// Aging epoch shared by all lists; advanced by `age_all`.
    epoch: u64,
    hits: u64,
    misses: u64,
}

impl PerCpuKnodeLists {
    /// Creates lists for `cpus` CPUs, each holding at most `capacity`
    /// entries (bounded so traversal stays fast, §4.3).
    ///
    /// # Panics
    /// Panics if `cpus` or `capacity` is zero.
    pub fn new(cpus: usize, capacity: usize) -> Self {
        assert!(cpus > 0, "need at least one cpu");
        assert!(capacity > 0, "capacity must be non-zero");
        PerCpuKnodeLists {
            lists: vec![VecDeque::new(); cpus],
            capacity,
            epoch: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Fast-path hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Fast-path misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Fraction of lookups served by the fast path (the §4.3 "54 %
    /// reduction" is `hit_ratio` here).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn list_mut(&mut self, cpu: CpuId) -> &mut VecDeque<Entry> {
        let n = self.lists.len();
        &mut self.lists[cpu.0 as usize % n]
    }

    /// Looks up `inode` on `cpu`'s list and refreshes it on hit (moved to
    /// front, age reset). Returns the knode's kmap slot on a hit; on miss
    /// the caller consults the kmap and should then call
    /// [`PerCpuKnodeLists::touch`].
    pub fn lookup(&mut self, cpu: CpuId, inode: InodeId) -> Option<u32> {
        let epoch = self.epoch;
        let list = self.list_mut(cpu);
        // Repeated touches of the same knode hit the front entry;
        // refreshing it in place is the move-to-front it would get.
        let front_hit = match list.front_mut() {
            Some(e) if e.inode == inode => {
                e.touched_epoch = epoch;
                Some(e.slot)
            }
            _ => None,
        };
        if let Some(slot) = front_hit {
            self.hits += 1;
            return Some(slot);
        }
        if let Some(pos) = list.iter().position(|e| e.inode == inode) {
            #[expect(clippy::expect_used, reason = "position() just found the entry")]
            let mut e = list.remove(pos).expect("position just found");
            e.touched_epoch = epoch;
            list.push_front(e);
            self.hits += 1;
            Some(e.slot)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Inserts `inode` (stored in kmap slot `slot`) at the front of
    /// `cpu`'s list (after a kmap lookup), evicting the coldest entry if
    /// full. The same knode may appear on several CPUs' lists — the
    /// paper leans on existing per-CPU coherence APIs for that (§4.3).
    pub fn touch(&mut self, cpu: CpuId, inode: InodeId, slot: u32) {
        let capacity = self.capacity;
        let epoch = self.epoch;
        let list = self.list_mut(cpu);
        if let Some(e) = list.front_mut() {
            if e.inode == inode {
                e.touched_epoch = epoch;
                e.slot = slot;
                return;
            }
        }
        if let Some(pos) = list.iter().position(|e| e.inode == inode) {
            #[expect(clippy::expect_used, reason = "position() just found the entry")]
            let mut e = list.remove(pos).expect("position just found");
            e.touched_epoch = epoch;
            e.slot = slot;
            list.push_front(e);
            return;
        }
        if list.len() >= capacity {
            list.pop_back();
        }
        list.push_front(Entry {
            inode,
            slot,
            touched_epoch: epoch,
        });
    }

    /// Removes `inode` from every CPU's list (knode destroyed).
    pub fn purge(&mut self, inode: InodeId) {
        for list in &mut self.lists {
            list.retain(|e| e.inode != inode);
        }
    }

    /// Ages every entry by one (called by policy LRU scans). O(1): the
    /// shared epoch advances and entry ages derive lazily.
    pub fn age_all(&mut self) {
        self.epoch += 1;
    }

    /// Inodes whose age on some CPU list is at least `min_age` — cold
    /// candidates for the policy to consider.
    pub fn cold_candidates(&self, min_age: u32) -> Vec<InodeId> {
        let mut out = Vec::new();
        for list in &self.lists {
            for e in list {
                if self.epoch - e.touched_epoch >= u64::from(min_age) && !out.contains(&e.inode) {
                    out.push(e.inode);
                }
            }
        }
        out
    }

    /// Total entries across all lists (for overhead accounting).
    pub fn total_entries(&self) -> usize {
        self.lists.iter().map(|l| l.len()).sum()
    }
}

#[cfg(feature = "ksan")]
impl PerCpuKnodeLists {
    /// Audits every cached entry against the kmap it shadows: the entry's
    /// remembered slot must still hold that inode's knode (purge-on-unmap
    /// keeps this exact), list lengths must respect the capacity bound,
    /// and no entry may be stamped ahead of the shared epoch. Observation
    /// only.
    pub fn ksan_audit(&self, kmap: &crate::Kmap, out: &mut Vec<kloc_mem::ksan::Violation>) {
        use kloc_mem::ksan::Violation;
        for (cpu, list) in self.lists.iter().enumerate() {
            if list.len() > self.capacity {
                out.push(Violation::new(
                    "PerCpuKnodeLists capacity",
                    format!("cpu{cpu} list"),
                    "a per-CPU list never exceeds its capacity",
                    format!("<= {} entries", self.capacity),
                    format!("{} entries", list.len()),
                ));
            }
            for e in list {
                if kmap.slot_of(e.inode) != Some(e.slot) {
                    out.push(Violation::new(
                        "PerCpuKnodeLists <-> Kmap.index",
                        format!("{} on cpu{cpu}", e.inode),
                        "a cached entry remembers its knode's current kmap slot",
                        format!("{:?}", kmap.slot_of(e.inode)),
                        format!("slot {}", e.slot),
                    ));
                }
                if e.touched_epoch > self.epoch {
                    out.push(Violation::new(
                        "PerCpuKnodeLists.epoch <-> Entry.touched_epoch",
                        format!("{} on cpu{cpu}", e.inode),
                        "no entry is stamped ahead of the shared epoch",
                        format!("<= {}", self.epoch),
                        format!("touched_epoch = {}", e.touched_epoch),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut p = PerCpuKnodeLists::new(2, 4);
        assert!(p.lookup(CpuId(0), InodeId(1)).is_none());
        p.touch(CpuId(0), InodeId(1), 0);
        assert!(p.lookup(CpuId(0), InodeId(1)).is_some());
        assert_eq!(p.hits(), 1);
        assert_eq!(p.misses(), 1);
        assert!((p.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lists_are_per_cpu() {
        let mut p = PerCpuKnodeLists::new(2, 4);
        p.touch(CpuId(0), InodeId(1), 0);
        assert!(p.lookup(CpuId(1), InodeId(1)).is_none(), "other cpu misses");
        assert!(p.lookup(CpuId(0), InodeId(1)).is_some());
    }

    #[test]
    fn capacity_evicts_coldest() {
        let mut p = PerCpuKnodeLists::new(1, 2);
        p.touch(CpuId(0), InodeId(1), 0);
        p.touch(CpuId(0), InodeId(2), 0);
        p.touch(CpuId(0), InodeId(3), 0); // evicts 1 (back of list)
        assert!(p.lookup(CpuId(0), InodeId(1)).is_none());
        assert!(p.lookup(CpuId(0), InodeId(2)).is_some());
        assert!(p.lookup(CpuId(0), InodeId(3)).is_some());
        assert_eq!(p.total_entries(), 2);
    }

    #[test]
    fn aging_and_cold_candidates() {
        let mut p = PerCpuKnodeLists::new(1, 4);
        p.touch(CpuId(0), InodeId(1), 0);
        p.touch(CpuId(0), InodeId(2), 0);
        p.age_all();
        p.age_all();
        // Access 2: its age resets.
        assert!(p.lookup(CpuId(0), InodeId(2)).is_some());
        assert_eq!(p.cold_candidates(2), vec![InodeId(1)]);
        assert!(p.cold_candidates(3).is_empty());
    }

    #[test]
    fn entries_touched_after_aging_are_young() {
        let mut p = PerCpuKnodeLists::new(1, 4);
        p.touch(CpuId(0), InodeId(1), 0);
        for _ in 0..5 {
            p.age_all();
        }
        p.touch(CpuId(0), InodeId(2), 0); // born at epoch 5: age 0
        assert_eq!(p.cold_candidates(1), vec![InodeId(1)]);
        p.age_all();
        // MRU-first list order: 2 sits in front of 1.
        assert_eq!(p.cold_candidates(1), vec![InodeId(2), InodeId(1)]);
    }

    #[test]
    fn purge_removes_everywhere() {
        let mut p = PerCpuKnodeLists::new(2, 4);
        p.touch(CpuId(0), InodeId(1), 0);
        p.touch(CpuId(1), InodeId(1), 0);
        p.purge(InodeId(1));
        assert_eq!(p.total_entries(), 0);
    }

    #[test]
    fn cpu_ids_wrap_onto_lists() {
        let mut p = PerCpuKnodeLists::new(2, 4);
        p.touch(CpuId(4), InodeId(1), 0); // 4 % 2 == list 0
        assert!(p.lookup(CpuId(0), InodeId(1)).is_some());
    }
}
