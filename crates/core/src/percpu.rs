//! Per-CPU knode fast-path lists (paper §4.3).
//!
//! The global kmap is a contended shared structure; the paper adds
//! per-CPU lists of recently touched knodes — a software cache in the
//! spirit of other kernel fast paths. The paper reports these lists cut
//! `rbtree-cache`/`rbtree-slab` accesses by 54 %; this module's hit/miss
//! counters reproduce that ablation.
//!
//! All lists share one flat array of `cpus × capacity` `{inode, slot}`
//! entries, CPU `c`'s list occupying the `c`-th run of `capacity`, most
//! recent first, with one length per CPU. A lookup is one scan of at
//! most `capacity` contiguous entries, and a hit at position `p` moves
//! the entry to the front by rotating the first `p + 1` entries.
//!
//! The entries carry no age. The paper ages list entries too, but the
//! policy's cold selection reads only the kmap's per-knode ages
//! ([`crate::Kmap::age_of`]); the list needs just its recency order,
//! which decides the entry a full list drops, so an age per entry
//! would be bookkeeping on every hit that nothing reads.

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
}

/// Filler for the unused tail of a list; never compared against.
const EMPTY: Entry = Entry {
    inode: InodeId(u64::MAX),
    slot: u32::MAX,
};

/// Per-CPU lists of recently used knodes.
#[derive(Debug, Clone)]
pub struct PerCpuKnodeLists {
    /// `lens.len() × capacity` entries; list `c` is
    /// `entries[c * capacity..][..lens[c]]`, most recent first. No
    /// inode appears twice on one list.
    entries: Vec<Entry>,
    lens: Vec<usize>,
    capacity: usize,
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
            entries: vec![EMPTY; cpus * capacity],
            lens: vec![0; cpus],
            capacity,
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

    /// The list `cpu` maps to (CPU ids wrap onto the lists).
    #[inline]
    fn list_of(&self, cpu: CpuId) -> usize {
        let (c, n) = (cpu.0 as usize, self.lens.len());
        // Skips the division for the ids that need no wrapping.
        if c < n {
            c
        } else {
            c % n
        }
    }

    /// Looks up `inode` on `cpu`'s list and moves it to the front on a
    /// hit. Returns the knode's kmap slot on a hit; on miss the caller
    /// consults the kmap and should then call
    /// [`PerCpuKnodeLists::touch`].
    #[inline]
    pub fn lookup(&mut self, cpu: CpuId, inode: InodeId) -> Option<u32> {
        let c = self.list_of(cpu);
        let start = c * self.capacity;
        let list = &mut self.entries[start..start + self.lens[c]];
        match list.iter().position(|e| e.inode == inode) {
            Some(p) => {
                list[..=p].rotate_right(1);
                self.hits += 1;
                Some(list[0].slot)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Puts `inode` (stored in kmap slot `slot`) at the front of `cpu`'s
    /// list (after a kmap lookup), dropping the least recent entry if
    /// the list is full. The same knode may appear on several CPUs'
    /// lists — the paper leans on existing per-CPU coherence APIs for
    /// that (§4.3).
    pub fn touch(&mut self, cpu: CpuId, inode: InodeId, slot: u32) {
        let c = self.list_of(cpu);
        let len = self.lens[c];
        let start = c * self.capacity;
        let list = &mut self.entries[start..start + self.capacity];
        // The entry to move to the front: `inode`'s own, else the first
        // free one, else the least recent (which the new entry replaces).
        let p = match list[..len].iter().position(|e| e.inode == inode) {
            Some(p) => p,
            None if len < self.capacity => {
                self.lens[c] += 1;
                len
            }
            None => len - 1,
        };
        list[..=p].rotate_right(1);
        list[0] = Entry { inode, slot };
    }

    /// Removes `inode` from every CPU's list (knode destroyed).
    pub fn purge(&mut self, inode: InodeId) {
        for (c, len) in self.lens.iter_mut().enumerate() {
            let start = c * self.capacity;
            let list = &mut self.entries[start..start + *len];
            if let Some(p) = list.iter().position(|e| e.inode == inode) {
                list[p..].rotate_left(1);
                *len -= 1;
            }
        }
    }

    /// Total entries across all lists (for overhead accounting).
    pub fn total_entries(&self) -> usize {
        self.lens.iter().sum()
    }
}

impl PerCpuKnodeLists {
    /// Audits every cached entry against the kmap it shadows: list
    /// lengths must respect the capacity bound, each entry's remembered
    /// slot must still hold that inode's knode (purge-on-unmap keeps
    /// this exact), and no inode may appear twice on one list (purge
    /// removes one entry per list). Observation only.
    pub fn ksan_audit(&self, kmap: &crate::Kmap, out: &mut Vec<kloc_mem::ksan::Violation>) {
        use kloc_mem::ksan::Violation;
        for (cpu, &len) in self.lens.iter().enumerate() {
            if len > self.capacity {
                out.push(Violation::new(
                    "PerCpuKnodeLists capacity",
                    format!("cpu{cpu} list"),
                    "a per-CPU list never exceeds its capacity",
                    format!("<= {} entries", self.capacity),
                    format!("{len} entries"),
                ));
                continue;
            }
            let list = &self.entries[cpu * self.capacity..][..len];
            for (i, e) in list.iter().enumerate() {
                if kmap.slot_of(e.inode) != Some(e.slot) {
                    out.push(Violation::new(
                        "PerCpuKnodeLists <-> Kmap.index",
                        format!("{} on cpu{cpu}", e.inode),
                        "a cached entry remembers its knode's current kmap slot",
                        format!("{:?}", kmap.slot_of(e.inode)),
                        format!("slot {}", e.slot),
                    ));
                }
                if list[..i].iter().any(|d| d.inode == e.inode) {
                    out.push(Violation::new(
                        "PerCpuKnodeLists entries",
                        format!("{} on cpu{cpu}", e.inode),
                        "an inode appears at most once on a list",
                        "1 entry".to_owned(),
                        format!("a second entry at position {i}"),
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

    #[test]
    fn ksan_audit_catches_duplicates_and_overlong_lists() {
        use crate::{Kmap, Knode};
        use kloc_mem::Nanos;

        let mut kmap = Kmap::new();
        let slot = kmap.map_knode(Knode::new(InodeId(1), Nanos::ZERO));
        let mut p = PerCpuKnodeLists::new(2, 2);
        p.touch(CpuId(0), InodeId(1), slot);
        let mut out = Vec::new();
        p.ksan_audit(&kmap, &mut out);
        assert_eq!(out, vec![]);

        p.entries[1] = p.entries[0];
        p.lens[0] = 2;
        p.ksan_audit(&kmap, &mut out);
        assert!(
            out.iter()
                .any(|v| v.structures == "PerCpuKnodeLists entries"),
            "{out:#?}"
        );
        p.lens[1] = 3;
        p.ksan_audit(&kmap, &mut out);
        assert!(
            out.iter()
                .any(|v| v.structures == "PerCpuKnodeLists capacity"),
            "{out:#?}"
        );
    }
}
