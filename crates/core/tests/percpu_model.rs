//! Differential test of the flat per-CPU knode lists against a
//! reference model: one `VecDeque` per CPU with move-to-front on hit,
//! the layout the lists had before they were flattened into one array.
//! Random lookup/touch/purge mixes must give the same hit or miss, the
//! same remembered slot and the same counters after every operation.
//!
//! Sequences come from the in-tree seeded `SplitMix64` PRNG (fixed
//! seeds, so failures reproduce exactly).

use std::collections::VecDeque;

use kloc_core::PerCpuKnodeLists;
use kloc_kernel::hooks::CpuId;
use kloc_kernel::vfs::InodeId;
use kloc_mem::SplitMix64;

/// The reference lists: most recent first, the least recent dropped
/// when a touch finds its list full.
struct Model {
    lists: Vec<VecDeque<(InodeId, u32)>>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl Model {
    fn new(cpus: usize, capacity: usize) -> Self {
        Model {
            lists: vec![VecDeque::new(); cpus],
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    fn list(&mut self, cpu: CpuId) -> &mut VecDeque<(InodeId, u32)> {
        let n = self.lists.len();
        &mut self.lists[cpu.0 as usize % n]
    }

    fn lookup(&mut self, cpu: CpuId, inode: InodeId) -> Option<u32> {
        let list = self.list(cpu);
        match list.iter().position(|e| e.0 == inode) {
            Some(pos) => {
                let e = list.remove(pos)?;
                list.push_front(e);
                self.hits += 1;
                Some(e.1)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn touch(&mut self, cpu: CpuId, inode: InodeId, slot: u32) {
        let capacity = self.capacity;
        let list = self.list(cpu);
        if let Some(pos) = list.iter().position(|e| e.0 == inode) {
            list.remove(pos);
        } else if list.len() >= capacity {
            list.pop_back();
        }
        list.push_front((inode, slot));
    }

    fn purge(&mut self, inode: InodeId) {
        for list in &mut self.lists {
            list.retain(|e| e.0 != inode);
        }
    }

    fn total_entries(&self) -> usize {
        self.lists.iter().map(VecDeque::len).sum()
    }
}

#[test]
fn flat_lists_match_the_deque_model() {
    for case in 0..256u64 {
        let mut rng = SplitMix64::seed_from_u64(0x9EC9_0000 + case);
        let cpus = rng.gen_range(1..5) as usize;
        let capacity = rng.gen_range(1..9) as usize;
        // Few enough inodes that lists fill, hit and evict.
        let inodes = rng.gen_range(2..3 * capacity as u64 + 2);
        let mut flat = PerCpuKnodeLists::new(cpus, capacity);
        let mut model = Model::new(cpus, capacity);

        for step in 0..400 {
            // CPU ids run past the list count: they wrap onto the lists.
            let cpu = CpuId(rng.gen_below(2 * cpus as u64 + 3) as u16);
            let inode = InodeId(rng.gen_below(inodes));
            let ctx = format!("case {case} step {step} (cpus {cpus}, capacity {capacity})");
            match rng.gen_below(10) {
                0..=4 => assert_eq!(
                    flat.lookup(cpu, inode),
                    model.lookup(cpu, inode),
                    "lookup {inode} on {cpu:?}: {ctx}"
                ),
                5..=8 => {
                    let slot = rng.gen_below(1 << 20) as u32;
                    flat.touch(cpu, inode, slot);
                    model.touch(cpu, inode, slot);
                }
                _ => {
                    flat.purge(inode);
                    model.purge(inode);
                }
            }
            assert_eq!(flat.hits(), model.hits, "hits: {ctx}");
            assert_eq!(flat.misses(), model.misses, "misses: {ctx}");
            assert_eq!(
                flat.total_entries(),
                model.total_entries(),
                "entries: {ctx}"
            );
        }
    }
}
