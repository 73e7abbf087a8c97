//! Corruption-injection tests for the KLOC-layer sanitizer: desync the
//! kmap's activation indexes and cold queue, a knode's epoch, its frame
//! refcounts against the kernel's object table, a membership bit, its
//! frame order and its parked mask, and assert the audit reports the specific
//! structure pair; park a member that breaks the park invariant and
//! assert the member walk's oracle catches it (debug builds, where
//! KSAN is always armed).

use kloc_core::{Kmap, Knode};
use kloc_kernel::vfs::InodeId;
use kloc_mem::ksan::Violation;
use kloc_mem::Nanos;

fn audited(kmap: &Kmap) -> Vec<Violation> {
    let mut out = Vec::new();
    kmap.ksan_audit(&mut out);
    out
}

fn kmap_with(actives: &[u64], inactives: &[u64]) -> Kmap {
    let mut kmap = Kmap::new();
    for &ino in actives {
        kmap.map_knode(Knode::new(InodeId(ino), Nanos::ZERO));
    }
    for &ino in inactives {
        kmap.map_knode(Knode::new(InodeId(ino), Nanos::ZERO));
        kmap.with_knode_mut(InodeId(ino), |k, ep| k.ksan_set_inuse_at(false, ep));
    }
    kmap
}

#[test]
fn healthy_kmap_audits_clean() {
    let mut kmap = kmap_with(&[1, 2], &[3, 4]);
    kmap.advance_epoch();
    kmap.advance_epoch();
    assert_eq!(audited(&kmap), vec![]);
}

#[test]
fn inactive_index_desync_is_caught() {
    let mut kmap = kmap_with(&[1], &[2]);
    kmap.ksan_break_inactive_index();
    let out = audited(&kmap);
    assert!(
        out.iter().any(
            |v| v.structures == "Knode.inuse <-> Kmap activation indexes" && v.object == "inode2"
        ),
        "{out:#?}"
    );
    assert!(
        out.iter()
            .any(|v| v.structures == "Kmap activation indexes <-> Kmap.index"),
        "{out:#?}"
    );
}

#[test]
fn knode_epoch_ahead_of_global_epoch_is_caught() {
    // Active knode only: the epoch stamp then desyncs nothing else.
    let mut kmap = kmap_with(&[7], &[]);
    kmap.ksan_break_epoch();
    let out = audited(&kmap);
    assert_eq!(out.len(), 1, "{out:#?}");
    assert_eq!(out[0].structures, "Kmap.epoch <-> Knode.synced_epoch");
    assert_eq!(out[0].object, "inode7");
    assert!(out[0].actual.contains("synced_epoch = 10"), "{out:#?}");
}

#[test]
fn knode_frame_refcount_churn_audits_clean() {
    use kloc_kernel::KernelObjectType;
    use kloc_mem::FrameId;
    let mut knode = Knode::new(InodeId(5), Nanos::ZERO);
    knode.add_obj(KernelObjectType::Dentry, FrameId(9));
    knode.add_obj(KernelObjectType::Dentry, FrameId(9));
    let mut kmap = Kmap::new();
    kmap.map_knode(knode);
    assert_eq!(audited(&kmap), vec![]);
    // Dropping a frame's last reference and taking it again leaves the
    // set consistent.
    let mut churned = Knode::new(InodeId(6), Nanos::ZERO);
    churned.add_obj(KernelObjectType::Dentry, FrameId(4));
    churned.remove_obj(KernelObjectType::Dentry, FrameId(4));
    churned.add_obj(KernelObjectType::Dentry, FrameId(4));
    kmap.map_knode(churned);
    assert_eq!(audited(&kmap), vec![], "refcount churn stays consistent");
}

/// A registry with knodes for inodes 1 and 2 and the kernel-side
/// object table behind it: two dentries packed on one slab frame and a
/// page-cache page on inode 1, a page on inode 2, and one page with no
/// inode (never a member).
fn registry_with_objects() -> (
    kloc_core::KlocRegistry,
    kloc_kernel::obj::ObjectTable,
    Vec<kloc_kernel::ObjectId>,
) {
    use kloc_core::{KlocConfig, KlocRegistry};
    use kloc_kernel::hooks::CpuId;
    use kloc_kernel::obj::ObjectTable;
    use kloc_kernel::{KernelObjectType, ObjectInfo};
    use kloc_mem::FrameId;

    let mut reg = KlocRegistry::new(KlocConfig::default());
    let mut table = ObjectTable::new();
    reg.inode_created(InodeId(1), CpuId(0), Nanos::ZERO);
    reg.inode_created(InodeId(2), CpuId(0), Nanos::ZERO);
    let mut ids = Vec::new();
    for (ty, ino, frame) in [
        (KernelObjectType::Dentry, Some(1), 7),
        (KernelObjectType::Dentry, Some(1), 7),
        (KernelObjectType::PageCache, Some(1), 8),
        (KernelObjectType::PageCache, Some(2), 9),
        (KernelObjectType::PageCache, None, 10),
    ] {
        let info = ObjectInfo {
            ty,
            size: ty.size(),
            inode: ino.map(InodeId),
        };
        let id = table.insert(info, FrameId(frame), Nanos::ZERO);
        reg.object_allocated(id, &info, FrameId(frame), CpuId(0), Nanos::ZERO);
        ids.push(id);
    }
    (reg, table, ids)
}

fn audited_members(
    reg: &kloc_core::KlocRegistry,
    table: &kloc_kernel::obj::ObjectTable,
) -> Vec<Violation> {
    let mut out = Vec::new();
    reg.ksan_audit(&mut out);
    reg.ksan_audit_members(table, &mut out);
    out
}

#[test]
fn membership_matches_the_object_table_through_frees() {
    let (mut reg, mut table, ids) = registry_with_objects();
    assert_eq!(audited_members(&reg, &table), vec![]);
    // Free one packed dentry, then destroy inode 2 while its page is
    // still live: the orphaned bit is tallied against no knode.
    let o = table.remove(ids[0]).unwrap();
    reg.object_freed(ids[0], &o.info, o.frame);
    reg.inode_destroyed(InodeId(2), Nanos::ZERO);
    assert_eq!(audited_members(&reg, &table), vec![]);
    let o = table.remove(ids[3]).unwrap();
    reg.object_freed(ids[3], &o.info, o.frame);
    assert!(!reg.is_member(ids[3]));
    assert_eq!(audited_members(&reg, &table), vec![]);
}

#[test]
fn phantom_frame_ref_is_caught() {
    let (mut reg, table, _) = registry_with_objects();
    reg.ksan_kmap_mut()
        .with_knode_mut(InodeId(1), |k, _| k.ksan_break_knode_members());
    let out = audited_members(&reg, &table);
    assert!(
        out.iter()
            .any(|v| v.structures == "Knode members <-> ObjectTable" && v.object == "inode1"),
        "{out:#?}"
    );
}

#[test]
fn member_counted_in_the_wrong_tree_is_caught() {
    use kloc_kernel::KernelObjectType;
    use kloc_mem::FrameId;
    // Frame references unchanged, one dentry moved to the cache tree.
    let (mut reg, table, _) = registry_with_objects();
    reg.ksan_kmap_mut().with_knode_mut(InodeId(1), |k, _| {
        k.remove_obj(KernelObjectType::Dentry, FrameId(7));
        k.add_obj(KernelObjectType::PageCache, FrameId(7));
    });
    let out = audited_members(&reg, &table);
    assert!(
        out.iter()
            .any(|v| v.structures == "Knode members <-> ObjectTable"
                && v.object == "inode1"
                && v.actual.starts_with("(2, 1)")),
        "{out:#?}"
    );
}

#[test]
fn flipped_membership_bit_is_caught() {
    use kloc_kernel::ObjectId;
    // A member's bit cleared: its knode counts an object the bits do
    // not name.
    let (mut reg, table, ids) = registry_with_objects();
    reg.ksan_flip_member(ids[2]);
    let out = audited_members(&reg, &table);
    assert!(
        out.iter()
            .any(|v| v.structures == "Knode members <-> ObjectTable" && v.object == "inode1"),
        "{out:#?}"
    );
    // A bit set for an object without an inode, and one for an id that
    // was never allocated: neither names a live object with an inode.
    let (mut reg, table, ids) = registry_with_objects();
    reg.ksan_flip_member(ids[4]);
    reg.ksan_flip_member(ObjectId(200));
    let out = audited_members(&reg, &table);
    assert_eq!(out.len(), 1, "{out:#?}");
    assert_eq!(out[0].structures, "KlocRegistry.members <-> ObjectTable");
    assert!(out[0].actual.contains(&format!("{:?}", ids[4])), "{out:#?}");
    assert!(out[0].actual.contains("ObjectId(200)"), "{out:#?}");
}

#[test]
fn parked_bit_past_a_chunk_is_caught() {
    use kloc_kernel::KernelObjectType;
    use kloc_mem::FrameId;
    let mut kmap = Kmap::new();
    let mut knode = Knode::new(InodeId(4), Nanos::ZERO);
    knode.add_obj(KernelObjectType::PageCache, FrameId(2));
    kmap.map_knode(knode);
    assert_eq!(audited(&kmap), vec![]);
    kmap.with_knode_mut(InodeId(4), |k, _| k.ksan_break_parked_mask());
    let out = audited(&kmap);
    assert!(
        out.iter()
            .any(|v| v.structures == "Knode.frames order <-> refcounts"
                && v.object == "inode4"
                && v.actual.contains("parked mask")),
        "{out:#?}"
    );
}

#[test]
fn unsorted_frame_set_is_caught() {
    use kloc_kernel::KernelObjectType;
    use kloc_mem::FrameId;
    let mut kmap = Kmap::new();
    let mut knode = Knode::new(InodeId(8), Nanos::ZERO);
    knode.add_obj(KernelObjectType::Dentry, FrameId(5));
    knode.add_obj(KernelObjectType::PageCache, FrameId(3));
    kmap.map_knode(knode);
    assert_eq!(audited(&kmap), vec![]);
    kmap.with_knode_mut(InodeId(8), |k, _| k.ksan_break_frame_order());
    let out = audited(&kmap);
    assert!(
        out.iter()
            .any(|v| v.structures == "Knode.frames order <-> refcounts"
                && v.object == "inode8"
                && v.actual.contains("not below its successor")),
        "{out:#?}"
    );
}

#[test]
fn multi_chunk_frame_set_audits_clean_and_a_bad_max_is_caught() {
    use kloc_core::members::FrameRefs;
    use kloc_kernel::KernelObjectType;
    use kloc_mem::FrameId;
    let mut kmap = Kmap::new();
    let mut knode = Knode::new(InodeId(9), Nanos::ZERO);
    // Descending inserts across several chunk splits.
    let n = 3 * FrameRefs::CHUNK as u64;
    for i in (0..n).rev() {
        knode.add_obj(KernelObjectType::PageCache, FrameId(i * 3));
    }
    kmap.map_knode(knode);
    assert_eq!(audited(&kmap), vec![]);
    kmap.with_knode_mut(InodeId(9), |k, _| k.ksan_break_frame_maxes());
    let out = audited(&kmap);
    assert!(
        out.iter()
            .any(|v| v.structures == "Knode.frames order <-> refcounts"
                && v.object == "inode9"
                && v.actual.contains("but its max is")),
        "{out:#?}"
    );
}

#[test]
fn stale_heap_entries_audit_clean_and_a_lost_cold_bit_is_caught() {
    // Close/reopen churn leaves stale inactive-heap entries behind; the
    // audit accepts them. Dropping a cold bit is still caught.
    let mut kmap = kmap_with(&[1, 2, 3], &[]);
    // Ends inactive: odd rounds close.
    for round in 0..50 {
        for ino in 1..=3 {
            kmap.with_knode_mut(InodeId(ino), |k, ep| {
                k.ksan_set_inuse_at(round % 2 == 0, ep)
            });
        }
        kmap.advance_epoch();
    }
    assert_eq!(audited(&kmap), vec![]);
    let mut cold = Vec::new();
    kmap.cold_inodes_with_members(1, 8, &mut cold);
    assert!(
        cold.is_empty(),
        "cold but memberless knodes are not candidates"
    );
    assert_eq!(audited(&kmap), vec![]);
    kmap.ksan_break_cold_index();
    let out = audited(&kmap);
    assert!(
        out.iter()
            .any(|v| v.structures == "Kmap.cold_idx <-> Kmap.inactive_idx" && v.object == "inode1"),
        "{out:#?}"
    );
}

#[test]
fn cold_index_desync_is_caught() {
    let mut kmap = kmap_with(&[], &[5]);
    kmap.advance_epoch();
    kmap.advance_epoch();
    // Pull inode5 past the watermark into the cold index.
    let mut out_inodes = Vec::new();
    kmap.cold_inodes_with_members(1, 8, &mut out_inodes);
    kmap.ksan_break_cold_index();
    let out = audited(&kmap);
    assert!(
        out.iter()
            .any(|v| v.structures == "Kmap.cold_idx <-> Kmap.inactive_idx"),
        "{out:#?}"
    );
}

#[test]
fn a_lost_cold_crossing_is_caught() {
    use kloc_kernel::KernelObjectType;
    use kloc_mem::FrameId;

    let mut kmap = kmap_with(&[], &[6, 7]);
    for ino in [6, 7] {
        kmap.with_knode_mut(InodeId(ino), |k, _| {
            k.add_obj(KernelObjectType::PageCache, FrameId(ino));
        });
    }
    kmap.advance_epoch();
    kmap.advance_epoch();
    // Both cross; a batch of one hands out inode6 and leaves inode7's
    // crossing queued. Dropping that entry loses a cold knode.
    let mut batch = Vec::new();
    kmap.cold_inodes_with_members(1, 1, &mut batch);
    assert_eq!(batch, [InodeId(6)]);
    assert_eq!(audited(&kmap), vec![]);
    kmap.ksan_break_cold_queue();
    let out = audited(&kmap);
    assert!(
        out.iter()
            .any(|v| v.structures == "Kmap.cold_queue <-> Kmap.cold_idx" && v.object == "inode7"),
        "{out:#?}"
    );
}

#[test]
fn percpu_entries_are_validated_against_kmap() {
    use kloc_core::{KlocConfig, KlocRegistry};
    use kloc_kernel::hooks::CpuId;

    let mut reg = KlocRegistry::new(KlocConfig::default());
    reg.inode_created(InodeId(1), CpuId(0), Nanos::ZERO);
    let mut out = Vec::new();
    reg.ksan_audit(&mut out);
    assert_eq!(out, vec![]);

    // Unmapping behind the fast path's back leaves a dangling entry.
    reg.ksan_kmap_mut().unmap(InodeId(1));
    reg.ksan_audit(&mut out);
    assert!(
        out.iter()
            .any(|v| v.structures == "PerCpuKnodeLists <-> Kmap.index"),
        "{out:#?}"
    );
}

// The member walks run their oracles only where KSAN is armed, which a
// release test build is not.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "Knode.parked <-> member frames")]
fn parked_hot_fast_member_trips_the_park_oracle() {
    use kloc_core::{KlocConfig, KlocRegistry};
    use kloc_kernel::hooks::CpuId;
    use kloc_kernel::{KernelObjectType, ObjectId, ObjectInfo};
    use kloc_mem::{MemorySystem, PageKind, TierId, PAGE_SIZE};

    let mut mem = MemorySystem::two_tier(64 * PAGE_SIZE, 8);
    let mut reg = KlocRegistry::new(KlocConfig::default());
    reg.inode_created(InodeId(1), CpuId(0), Nanos::ZERO);
    let frame = mem.allocate(TierId::FAST, PageKind::PageCache).unwrap();
    let info = ObjectInfo {
        ty: KernelObjectType::PageCache,
        size: KernelObjectType::PageCache.size(),
        inode: Some(InodeId(1)),
    };
    reg.object_allocated(ObjectId(1), &info, frame, CpuId(0), Nanos::ZERO);
    mem.read(frame, 64);
    // Parked although hot, fast-resident and unwatched: skipping it
    // would no longer be a no-op, and the next member walk must say so.
    reg.ksan_kmap_mut()
        .with_knode_mut(InodeId(1), |k, _| k.ksan_park_frame(frame));
    reg.promote_hot_members(InodeId(1), &mut mem, Nanos::from_millis(2), 8);
}
