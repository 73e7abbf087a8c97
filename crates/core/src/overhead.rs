//! KLOC metadata memory accounting (paper Table 6, §5 "KLOC memory
//! usage").
//!
//! The paper reports <1 % memory increase, dominated by the 8-byte
//! red-black-tree pointer per tracked cache page and slab object
//! (~96 MB of RocksDB's 101 MB), plus per-CPU lists (<800 KB), a
//! migration tracking list (~1 MB), and a 64-byte KLOC structure per
//! open inode (<400 KB). This module computes the same breakdown from
//! live registry state.

use crate::registry::KlocRegistry;

/// Bytes per member-tree pointer (one per tracked object).
pub const BYTES_PER_MEMBER: u64 = 8;
/// Bytes per per-CPU list entry (inode id + age + links).
pub const BYTES_PER_PERCPU_ENTRY: u64 = 16;
/// Bytes per knode structure ("64 byte KLOC structure attached to each
/// open inode", §7.1).
pub const BYTES_PER_KNODE: u64 = 64;
/// Bytes per entry of the to-migrate list.
pub const BYTES_PER_MIGRATE_ENTRY: u64 = 16;

/// Breakdown of KLOC metadata memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverheadReport {
    /// Member-tree pointers (`rb-cache` + `rb-slab`).
    pub member_pointers: u64,
    /// Per-CPU fast-path lists.
    pub percpu_lists: u64,
    /// Knode structures.
    pub knodes: u64,
    /// Migration tracking list (sized by the largest en-masse migration).
    pub migrate_list: u64,
}

impl OverheadReport {
    /// Total metadata bytes.
    pub fn total(&self) -> u64 {
        self.member_pointers + self.percpu_lists + self.knodes + self.migrate_list
    }

    /// Overhead as a fraction of `memory_bytes` of managed memory
    /// (the paper reports <1 % of fast-memory capacity).
    pub fn fraction_of(&self, memory_bytes: u64) -> f64 {
        if memory_bytes == 0 {
            0.0
        } else {
            self.total() as f64 / memory_bytes as f64
        }
    }
}

/// Computes the current metadata overhead of a registry.
///
/// `peak_migration_batch` is the largest number of pages staged for one
/// en-masse migration (the "list to track pages that need to migrate").
pub fn measure(registry: &KlocRegistry, peak_migration_batch: u64) -> OverheadReport {
    let tracked_members = registry
        .kmap()
        .iter()
        .map(|k| k.member_count() as u64)
        .sum::<u64>();
    OverheadReport {
        member_pointers: tracked_members * BYTES_PER_MEMBER,
        percpu_lists: registry.percpu().total_entries() as u64 * BYTES_PER_PERCPU_ENTRY,
        knodes: registry.kmap().len() as u64 * BYTES_PER_KNODE,
        migrate_list: peak_migration_batch * BYTES_PER_MIGRATE_ENTRY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::KlocConfig;
    use kloc_kernel::hooks::CpuId;
    use kloc_kernel::vfs::InodeId;
    use kloc_kernel::{KernelObjectType, ObjectId, ObjectInfo};
    use kloc_mem::{FrameId, Nanos};

    #[test]
    fn overhead_scales_with_tracked_objects() {
        let mut r = KlocRegistry::new(KlocConfig::default());
        r.inode_created(InodeId(1), CpuId(0), Nanos::ZERO);
        for n in 0..10u64 {
            r.object_allocated(
                ObjectId(n),
                &ObjectInfo {
                    ty: KernelObjectType::PageCache,
                    size: 4096,
                    inode: Some(InodeId(1)),
                },
                FrameId(n),
                CpuId(0),
                Nanos::ZERO,
            );
        }
        let rep = measure(&r, 4);
        assert_eq!(rep.member_pointers, 10 * BYTES_PER_MEMBER);
        assert_eq!(rep.knodes, BYTES_PER_KNODE);
        assert_eq!(rep.migrate_list, 4 * BYTES_PER_MIGRATE_ENTRY);
        assert!(rep.percpu_lists >= BYTES_PER_PERCPU_ENTRY);
        assert_eq!(
            rep.total(),
            rep.member_pointers + rep.percpu_lists + rep.knodes + rep.migrate_list
        );
    }

    #[test]
    fn fraction_is_small_for_realistic_ratios() {
        // 1M tracked objects over 8 GB of fast memory: ~8 MB of pointers,
        // i.e. ~0.1% — comfortably under the paper's <1% claim.
        let rep = OverheadReport {
            member_pointers: 1_000_000 * BYTES_PER_MEMBER,
            percpu_lists: 800 << 10,
            knodes: 400 << 10,
            migrate_list: 1 << 20,
        };
        assert!(rep.fraction_of(8 << 30) < 0.01);
        assert_eq!(rep.fraction_of(0), 0.0);
    }
}
