//! RocksDB model (dbbench, paper Table 3).
//!
//! A log-structured merge store: puts land in an in-memory memtable
//! (application pages) and a write-ahead log; full memtables flush by
//! merging into the SSTable covering the affected key range (read old
//! file, write replacement, delete old — the file churn that makes
//! RocksDB's kernel objects short-lived). Gets consult an app-level
//! block cache, then the table cache (a bounded open-file set — what
//! turns cold SSTables into *closed inodes*, the KLOC signal), then read
//! index + data pages.
//!
//! SSTables are organized as fixed key-range *slots*: the file backing a
//! slot is rewritten by merges, but the slot's key range (and therefore
//! its hotness under the zipfian key distribution) is stable — as in a
//! real leveled LSM where L1+ files tile the key space. Slot hotness is
//! decorrelated from file-creation order via a multiplicative
//! permutation, so first-come-first-served placement gets no accidental
//! advantage.
//!
//! The paper's characterization this reproduces: hundreds of small files
//! updated with key-value data, ~40-50 % of runtime inside the kernel
//! allocating inodes, block I/O, journals, dentries and radix nodes
//! (§3.1), with page-cache pages dominating the footprint (Fig. 2a).

use std::collections::VecDeque;

use crate::rng::WorkloadRng;

use kloc_kernel::hooks::{CpuId, Ctx};
use kloc_kernel::{Fd, Kernel, KernelError};
use kloc_mem::{Nanos, PAGE_SIZE};

use crate::keygen::Zipfian;
use crate::scale::Scale;
use crate::spec::{AppMemory, Workload};

const VALUE_BYTES: u64 = 1024;
const SSTABLE_PAGES: u64 = 16; // 64 KB SSTables (paper's 4 MB, scaled)
const MEMTABLE_PAGES: u64 = 16;
const COMPACT_EVERY_FLUSHES: u64 = 4;
/// Per-op application think time (key comparison, skiplist walk).
const THINK: Nanos = Nanos::new(600);

/// A key-range slot: the file number of its current SSTable, which
/// lives at [`sst_path`]`(slot, file)`. File numbers are never reused,
/// so the number alone names the file.
#[derive(Debug, Clone, Copy)]
struct Slot {
    file: u64,
}

fn sst_path(slot: usize, file: u64) -> String {
    format!("/db/sst{slot}_{file}")
}

/// The RocksDB workload.
#[derive(Debug)]
pub struct RocksDb {
    scale: Scale,
    zipf: Zipfian,
    rng: WorkloadRng,
    memtable: AppMemory,
    block_cache: AppMemory,
    block_cache_pages: u64,
    memtable_fill: u64,
    wal: Option<Fd>,
    wal_offset: u64,
    /// Key-range slots; each holds the current SSTable for that range.
    slots: Vec<Slot>,
    /// Multiplier decorrelating slot index from key order.
    perm: u64,
    /// Open SSTables, most recently used first, keyed by file number.
    table_cache: VecDeque<(u64, Fd)>,
    /// Bounded open-file set (RocksDB's max_open_files), scaled so cold
    /// SSTables actually close at every scale.
    table_cache_cap: usize,
    next_file: u64,
    flushes: u64,
    next_merge_slot: usize,
    ops_done: u64,
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl RocksDb {
    /// Creates the workload at `scale`.
    pub fn new(scale: &Scale) -> Self {
        let n_keys = (scale.data_bytes / VALUE_BYTES).max(16);
        let n_slots = (scale.data_bytes / (SSTABLE_PAGES * PAGE_SIZE)).max(8);
        // Odd multiplier coprime with the slot count: a permutation of
        // slot indices that scrambles hotness vs creation order.
        let mut perm = (2_654_435_761u64 % n_slots).max(2);
        while gcd(perm, n_slots) != 1 {
            perm += 1;
        }
        RocksDb {
            zipf: Zipfian::new(n_keys),
            rng: WorkloadRng::seed_from_u64(scale.seed ^ 0xDB),
            memtable: AppMemory::default(),
            block_cache: AppMemory::default(),
            block_cache_pages: (scale.data_bytes / PAGE_SIZE / 16).max(16),
            memtable_fill: 0,
            wal: None,
            wal_offset: 0,
            slots: Vec::with_capacity(n_slots as usize),
            perm,
            table_cache: VecDeque::new(),
            table_cache_cap: (n_slots as usize / 8).clamp(4, 32),
            next_file: 0,
            flushes: 0,
            next_merge_slot: 0,
            ops_done: 0,
            scale: scale.clone(),
        }
    }

    /// Live SSTable files.
    pub fn sstable_count(&self) -> usize {
        self.slots.len()
    }

    fn thread(&self, op: u64) -> CpuId {
        CpuId((op % self.scale.threads as u64) as u16)
    }

    /// Slot covering `key`: range-partitioned (hot keys concentrate in a
    /// hot subset of slots) then permuted (hotness decorrelated from
    /// creation order).
    fn slot_of(&self, key: u64) -> usize {
        let n = self.slots.len() as u64;
        let range = (key * n) / self.zipf.n().max(1);
        ((range.min(n - 1) * self.perm) % n) as usize
    }

    /// Writes a fresh SSTable for `slot` and closes it. Like real
    /// RocksDB, flushes run on background threads: the foreground thread
    /// does not wait for the device (writeback drains asynchronously).
    fn write_slot(
        &mut self,
        k: &mut Kernel,
        ctx: &mut Ctx<'_>,
        slot: usize,
        merge_old: bool,
    ) -> Result<(), KernelError> {
        // Merge: read the slot's current file first.
        let old = merge_old.then(|| self.slots[slot].file);
        if let Some(old) = old {
            let fd = k.open(ctx, &sst_path(slot, old))?;
            k.read(ctx, fd, 0, SSTABLE_PAGES * PAGE_SIZE)?;
            k.close(ctx, fd)?;
        }
        let file = self.next_file;
        self.next_file += 1;
        let fd = k.create(ctx, &sst_path(slot, file))?;
        k.write(ctx, fd, 0, SSTABLE_PAGES * PAGE_SIZE)?;
        k.close(ctx, fd)?;
        match old {
            Some(old) => {
                self.slots[slot].file = file;
                self.drop_from_table_cache(k, ctx, old)?;
                k.unlink(ctx, &sst_path(slot, old))?;
            }
            None => self.slots.push(Slot { file }),
        }
        Ok(())
    }

    /// Table-cache lookup of `slot`'s current SSTable: reuse an open fd
    /// or open (evicting LRU).
    fn cached_open(
        &mut self,
        k: &mut Kernel,
        ctx: &mut Ctx<'_>,
        slot: usize,
    ) -> Result<Fd, KernelError> {
        let file = self.slots[slot].file;
        if let Some(pos) = self.table_cache.iter().position(|&(f, _)| f == file) {
            #[expect(clippy::expect_used, reason = "position() just found the entry")]
            let entry = self.table_cache.remove(pos).expect("position valid");
            let fd = entry.1;
            self.table_cache.push_front(entry);
            return Ok(fd);
        }
        let fd = k.open(ctx, &sst_path(slot, file))?;
        self.table_cache.push_front((file, fd));
        if self.table_cache.len() > self.table_cache_cap {
            if let Some((_, old)) = self.table_cache.pop_back() {
                k.close(ctx, old)?;
            }
        }
        Ok(fd)
    }

    fn drop_from_table_cache(
        &mut self,
        k: &mut Kernel,
        ctx: &mut Ctx<'_>,
        file: u64,
    ) -> Result<(), KernelError> {
        if let Some(pos) = self.table_cache.iter().position(|&(f, _)| f == file) {
            #[expect(clippy::expect_used, reason = "position() just found the entry")]
            let (_, fd) = self.table_cache.remove(pos).expect("position valid");
            k.close(ctx, fd)?;
        }
        Ok(())
    }

    /// Memtable flush: merge into the slot covering the flushed range,
    /// plus periodic background compaction of the next slot round-robin.
    fn flush_memtable(
        &mut self,
        k: &mut Kernel,
        ctx: &mut Ctx<'_>,
        key: u64,
    ) -> Result<(), KernelError> {
        let slot = self.slot_of(key);
        self.write_slot(k, ctx, slot, true)?;
        self.memtable_fill = 0;
        self.flushes += 1;
        if self.flushes.is_multiple_of(COMPACT_EVERY_FLUSHES) && !self.slots.is_empty() {
            let victim = self.next_merge_slot % self.slots.len();
            self.next_merge_slot += 1;
            self.write_slot(k, ctx, victim, true)?;
        }
        Ok(())
    }

    fn put(&mut self, k: &mut Kernel, ctx: &mut Ctx<'_>, key: u64) -> Result<(), KernelError> {
        ctx.mem.charge(THINK);
        // Heap churn (key/value buffers) + memtable insert (skiplist walk
        // touches a couple of nodes).
        self.block_cache.churn(k, ctx, 32)?;
        self.memtable.touch(k, ctx, key / 2, 64, false);
        self.memtable.touch(k, ctx, key, VALUE_BYTES, true);
        // WAL append (dbbench default: sync=false — durability comes
        // from background writeback, not per-write fsync).
        if let Some(wal) = self.wal {
            k.write(ctx, wal, self.wal_offset, VALUE_BYTES)?;
            self.wal_offset += VALUE_BYTES;
        }
        self.memtable_fill += 1;
        if self.memtable_fill >= MEMTABLE_PAGES * PAGE_SIZE / VALUE_BYTES {
            self.flush_memtable(k, ctx, key)?;
        }
        Ok(())
    }

    fn get(&mut self, k: &mut Kernel, ctx: &mut Ctx<'_>, key: u64) -> Result<(), KernelError> {
        ctx.mem.charge(THINK);
        self.block_cache.churn(k, ctx, 32)?;
        // App-level block cache (~35% hit for point reads).
        self.block_cache
            .touch(k, ctx, key % self.block_cache_pages, 256, false);
        self.block_cache
            .touch(k, ctx, (key / 7) % self.block_cache_pages, 256, false);
        if self.rng.gen_f64() < 0.35 {
            return Ok(());
        }
        if self.slots.is_empty() {
            return Ok(());
        }
        let slot = self.slot_of(key);
        let fd = self.cached_open(k, ctx, slot)?;
        // Index block + one data block.
        k.read(ctx, fd, 0, 4096)?;
        let data_page = 1 + key % (SSTABLE_PAGES - 1);
        k.read(ctx, fd, data_page * PAGE_SIZE, 4096)?;
        Ok(())
    }
}

impl Workload for RocksDb {
    fn name(&self) -> &'static str {
        "rocksdb"
    }

    fn setup(&mut self, k: &mut Kernel, ctx: &mut Ctx<'_>) -> Result<(), KernelError> {
        self.memtable = AppMemory::allocate(k, ctx, MEMTABLE_PAGES)?;
        self.block_cache = AppMemory::allocate(k, ctx, self.block_cache_pages)?;
        let wal = k.create(ctx, "/db/wal")?;
        self.wal = Some(wal);
        // Load phase: populate the dataset as one SSTable per slot.
        let slots = (self.scale.data_bytes / (SSTABLE_PAGES * PAGE_SIZE)).max(8);
        for s in 0..slots as usize {
            self.write_slot(k, ctx, s, false)?;
        }
        Ok(())
    }

    fn step(&mut self, k: &mut Kernel, ctx: &mut Ctx<'_>) -> Result<(), KernelError> {
        ctx.cpu = self.thread(self.ops_done);
        let key = self.zipf.next_key(&mut self.rng);
        // dbbench: 50% reads, 50% writes.
        if self.rng.gen_bool() {
            self.get(k, ctx, key)?;
        } else {
            self.put(k, ctx, key)?;
        }
        self.ops_done += 1;
        Ok(())
    }

    fn target_ops(&self) -> u64 {
        self.scale.ops
    }

    fn ops_done(&self) -> u64 {
        self.ops_done
    }

    fn teardown(&mut self, k: &mut Kernel, ctx: &mut Ctx<'_>) -> Result<(), KernelError> {
        while let Some((_, fd)) = self.table_cache.pop_front() {
            k.close(ctx, fd)?;
        }
        if let Some(wal) = self.wal.take() {
            k.fsync(ctx, wal)?;
            k.close(ctx, wal)?;
        }
        self.memtable.free_all(k, ctx)?;
        self.block_cache.free_all(k, ctx)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kloc_kernel::hooks::NullHooks;
    use kloc_kernel::{KernelObjectType, KernelParams};
    use kloc_mem::MemorySystem;

    fn run(scale: Scale) -> (Kernel, MemorySystem, RocksDb) {
        let mut mem = MemorySystem::two_tier(u64::MAX, 8);
        let mut hooks = NullHooks::fast_first();
        let mut k = Kernel::new(KernelParams::default());
        let mut w = RocksDb::new(&scale);
        {
            let mut ctx = Ctx::new(&mut mem, &mut hooks);
            w.setup(&mut k, &mut ctx).unwrap();
            while !w.is_done() {
                w.step(&mut k, &mut ctx).unwrap();
            }
            w.teardown(&mut k, &mut ctx).unwrap();
        }
        (k, mem, w)
    }

    #[test]
    fn produces_file_churn_and_kernel_objects() {
        let (k, _mem, w) = run(Scale::tiny());
        assert!(w.sstable_count() > 4, "live sstables remain");
        let s = k.stats();
        assert!(s.ty(KernelObjectType::PageCache).allocated > 100);
        assert!(s.ty(KernelObjectType::Inode).allocated > 10);
        assert!(s.ty(KernelObjectType::JournalHead).allocated > 10);
        assert!(s.ty(KernelObjectType::Bio).allocated > 0);
        assert!(
            s.ty(KernelObjectType::Inode).freed > 0,
            "merges must delete files"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let (k1, m1, _) = run(Scale::tiny());
        let (k2, m2, _) = run(Scale::tiny());
        assert_eq!(m1.now(), m2.now(), "virtual time must be reproducible");
        assert_eq!(
            k1.stats().ty(KernelObjectType::PageCache).allocated,
            k2.stats().ty(KernelObjectType::PageCache).allocated
        );
    }

    #[test]
    fn table_cache_holds_exactly_the_open_sstables() {
        let mut mem = MemorySystem::two_tier(u64::MAX, 8);
        let mut hooks = NullHooks::fast_first();
        let mut k = Kernel::new(KernelParams::default());
        let mut w = RocksDb::new(&Scale::tiny());
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        w.setup(&mut k, &mut ctx).unwrap();
        let mut hits = 0;
        while !w.is_done() {
            w.step(&mut k, &mut ctx).unwrap();
            // Every open fd is a table-cache entry or the WAL.
            assert_eq!(k.vfs().open_fds(), w.table_cache.len() + 1);
            for &(file, _) in &w.table_cache {
                let slot = w
                    .slots
                    .iter()
                    .position(|s| s.file == file)
                    .unwrap_or_else(|| panic!("cached file {file} is no slot's table"));
                assert!(
                    k.vfs().lookup_path(&sst_path(slot, file)).is_some(),
                    "cached file {file} is unlinked"
                );
                hits += 1;
            }
        }
        assert!(hits > 0, "the table cache must be exercised");
        w.teardown(&mut k, &mut ctx).unwrap();
        assert_eq!(k.vfs().open_fds(), 0);
    }

    #[test]
    fn ops_counted() {
        let (_, _, w) = run(Scale::tiny());
        assert_eq!(w.ops_done(), Scale::tiny().ops);
        assert!(w.is_done());
    }

    #[test]
    fn slot_mapping_is_stable_and_permuted() {
        // Exactly 8 slots so the permutation math is checked end to end.
        let mut scale = Scale::tiny();
        scale.data_bytes = 8 * SSTABLE_PAGES * PAGE_SIZE;
        let mut w = RocksDb::new(&scale);
        for file in 0..8 {
            w.slots.push(Slot { file });
        }
        let a = w.slot_of(0);
        assert_eq!(a, w.slot_of(0), "mapping must be deterministic");
        // Hot (low) keys and the first-created slots must differ for at
        // least some keys: the permutation decorrelates them.
        let mapped: Vec<usize> = (0..8).map(|r| w.slot_of(r * w.zipf.n() / 8)).collect();
        assert_ne!(mapped, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        // And it is a permutation (all slots reachable).
        let mut sorted = mapped.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8);
    }
}
