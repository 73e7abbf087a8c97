//! Randomized model tests: knode member sets must always equal the set
//! of live objects of that inode, under arbitrary event interleavings.
//!
//! Sequences come from the in-tree seeded `SplitMix64` PRNG (fixed
//! seeds, so failures reproduce exactly).

use std::collections::{BTreeMap, BTreeSet};

use kloc_core::{KlocConfig, KlocRegistry};
use kloc_kernel::hooks::CpuId;
use kloc_kernel::vfs::InodeId;
use kloc_kernel::{KernelObjectType, ObjectId, ObjectInfo};
use kloc_mem::{FrameId, Nanos, SplitMix64, TenantId};

#[derive(Debug, Clone)]
enum Ev {
    CreateInode(u8),
    OpenInode(u8),
    CloseInode(u8),
    DestroyInode(u8),
    AllocObj(u8, u8),
    FreeObj(usize),
    AccessObj(usize, u8),
}

fn gen_ev(rng: &mut SplitMix64) -> Ev {
    match rng.gen_below(7) {
        0 => Ev::CreateInode(rng.gen_below(6) as u8),
        1 => Ev::OpenInode(rng.gen_below(6) as u8),
        2 => Ev::CloseInode(rng.gen_below(6) as u8),
        3 => Ev::DestroyInode(rng.gen_below(6) as u8),
        4 => Ev::AllocObj(rng.gen_below(6) as u8, rng.gen_below(14) as u8),
        5 => Ev::FreeObj(rng.gen_below(64) as usize),
        _ => Ev::AccessObj(rng.gen_below(64) as usize, rng.gen_below(4) as u8),
    }
}

fn gen_evs(rng: &mut SplitMix64, min: u64, max: u64) -> Vec<Ev> {
    (0..rng.gen_range(min..max)).map(|_| gen_ev(rng)).collect()
}

#[test]
fn knode_members_match_live_objects() {
    for case in 0..128u64 {
        let mut rng = SplitMix64::seed_from_u64(0x6E0D_0000 + case);
        let evs = gen_evs(&mut rng, 1, 250);

        let mut r = KlocRegistry::new(KlocConfig::default());
        // Model: live inodes, and live objects (id -> (inode, info, frame)).
        let mut inodes: BTreeSet<InodeId> = BTreeSet::new();
        let mut objects: Vec<(ObjectId, ObjectInfo, FrameId)> = Vec::new();
        let mut next_obj = 0u64;
        let mut now = Nanos::ZERO;

        for ev in evs {
            now += Nanos::from_micros(1);
            match ev {
                Ev::CreateInode(n) => {
                    let ino = InodeId(n as u64);
                    if inodes.insert(ino) {
                        r.inode_created(ino, CpuId(0), now);
                    }
                }
                Ev::OpenInode(n) => {
                    let ino = InodeId(n as u64);
                    if inodes.contains(&ino) {
                        r.inode_opened(ino, CpuId(1), now);
                        assert_eq!(r.is_active(ino), Some(true));
                    }
                }
                Ev::CloseInode(n) => {
                    let ino = InodeId(n as u64);
                    if inodes.contains(&ino) {
                        r.inode_closed(ino, Nanos::ZERO);
                        assert_eq!(r.is_active(ino), Some(false));
                    }
                }
                Ev::DestroyInode(n) => {
                    let ino = InodeId(n as u64);
                    if inodes.remove(&ino) {
                        // Kernel frees objects before/around destroy.
                        let dead: Vec<_> = objects
                            .iter()
                            .filter(|(_, i, _)| i.inode == Some(ino))
                            .cloned()
                            .collect();
                        for (id, info, frame) in &dead {
                            r.object_freed(*id, info, *frame);
                        }
                        objects.retain(|(_, i, _)| i.inode != Some(ino));
                        r.inode_destroyed(ino, Nanos::ZERO);
                        assert!(r.is_active(ino).is_none());
                    }
                }
                Ev::AllocObj(n, t) => {
                    let ino = InodeId(n as u64);
                    if !inodes.contains(&ino) {
                        continue;
                    }
                    let ty = KernelObjectType::ALL[t as usize % KernelObjectType::ALL.len()];
                    let info = ObjectInfo {
                        ty,
                        size: ty.size(),
                        inode: Some(ino),
                    };
                    let id = ObjectId(next_obj);
                    next_obj += 1;
                    let frame = FrameId(1000 + id.0);
                    r.object_allocated(id, &info, frame, CpuId((n % 4) as u16), now);
                    objects.push((id, info, frame));
                }
                Ev::FreeObj(i) => {
                    if objects.is_empty() {
                        continue;
                    }
                    let (id, info, frame) = objects.remove(i % objects.len());
                    r.object_freed(id, &info, frame);
                }
                Ev::AccessObj(i, c) => {
                    if objects.is_empty() {
                        continue;
                    }
                    let (_, info, _) = objects[i % objects.len()];
                    r.object_accessed_by(&info, CpuId(c as u16), TenantId::DEFAULT, now);
                }
            }

            // Invariant: per-inode member frames == model's frames.
            let mut model: BTreeMap<InodeId, BTreeSet<FrameId>> = BTreeMap::new();
            for &(_, info, frame) in &objects {
                if let Some(ino) = info.inode {
                    if inodes.contains(&ino) {
                        model.entry(ino).or_default().insert(frame);
                    }
                }
            }
            for &ino in &inodes {
                let got: BTreeSet<FrameId> = r.member_frames(ino).into_iter().collect();
                let want = model.get(&ino).cloned().unwrap_or_default();
                assert_eq!(got, want, "case {case}: member mismatch for {ino}");
            }
            assert_eq!(r.kmap().len(), inodes.len());
        }
    }
}

/// Tracked/untracked counters balance on full teardown.
#[test]
fn counters_balance() {
    for case in 0..128u64 {
        let mut rng = SplitMix64::seed_from_u64(0xBA1A_0000 + case);
        let evs = gen_evs(&mut rng, 1, 150);

        let mut r = KlocRegistry::new(KlocConfig::default());
        let mut inodes: BTreeSet<InodeId> = BTreeSet::new();
        let mut objects: Vec<(ObjectId, ObjectInfo)> = Vec::new();
        let mut next_obj = 0u64;
        for ev in evs {
            match ev {
                Ev::CreateInode(n) => {
                    let ino = InodeId(n as u64);
                    if inodes.insert(ino) {
                        r.inode_created(ino, CpuId(0), Nanos::ZERO);
                    }
                }
                Ev::AllocObj(n, t) => {
                    let ino = InodeId(n as u64);
                    if !inodes.contains(&ino) {
                        continue;
                    }
                    let ty = KernelObjectType::ALL[t as usize % KernelObjectType::ALL.len()];
                    let info = ObjectInfo {
                        ty,
                        size: ty.size(),
                        inode: Some(ino),
                    };
                    let id = ObjectId(next_obj);
                    next_obj += 1;
                    r.object_allocated(id, &info, FrameId(id.0), CpuId(0), Nanos::ZERO);
                    objects.push((id, info));
                }
                _ => {}
            }
        }
        for (id, info) in objects.drain(..) {
            r.object_freed(id, &info, FrameId(id.0));
        }
        assert_eq!(r.stats().objects_tracked, r.stats().objects_untracked);
        for &ino in &inodes {
            assert!(r.member_frames(ino).is_empty());
        }
    }
}
