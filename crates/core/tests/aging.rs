//! Eager-vs-lazy aging equivalence.
//!
//! The registry ages knodes lazily: `age_epoch` bumps a global counter
//! and each knode derives its age on demand (paper §4.3 — KLOCs age "as
//! a side effect of events", without scanning). These tests drive the
//! real registry and an *eager* reference model — which walks every
//! knode on every epoch, the implementation the rewrite replaced —
//! through identical seeded op streams and require them to agree on
//! every observable: per-knode age and activity, the inactive ordering,
//! cold-set selection, and LRU ranking.

use std::collections::BTreeMap;

use kloc_core::{KlocConfig, KlocRegistry};
use kloc_kernel::hooks::CpuId;
use kloc_kernel::vfs::InodeId;
use kloc_kernel::{KernelObjectType, ObjectId, ObjectInfo};
use kloc_mem::rng::SplitMix64;
use kloc_mem::{FrameId, Nanos};

/// The scan-based reference: one record per knode, aged by walking the
/// whole population on every epoch.
#[derive(Debug, Default)]
struct EagerModel {
    knodes: BTreeMap<InodeId, EagerKnode>,
    epoch: u64,
}

#[derive(Debug)]
struct EagerKnode {
    inuse: bool,
    age: u32,
    last_active: Nanos,
    members: BTreeMap<ObjectId, FrameId>,
}

impl EagerModel {
    fn create(&mut self, inode: InodeId, now: Nanos) {
        self.knodes.insert(
            inode,
            EagerKnode {
                inuse: true,
                age: 0,
                last_active: now,
                members: BTreeMap::new(),
            },
        );
    }

    fn open(&mut self, inode: InodeId, now: Nanos) {
        if let Some(k) = self.knodes.get_mut(&inode) {
            k.inuse = true;
            k.age = 0;
            k.last_active = now;
        }
    }

    fn close(&mut self, inode: InodeId) {
        if let Some(k) = self.knodes.get_mut(&inode) {
            k.inuse = false;
        }
    }

    fn destroy(&mut self, inode: InodeId) {
        self.knodes.remove(&inode);
    }

    fn touch(&mut self, inode: InodeId, now: Nanos) {
        if let Some(k) = self.knodes.get_mut(&inode) {
            k.age = 0;
            k.last_active = now;
        }
    }

    fn add_obj(&mut self, inode: InodeId, obj: ObjectId, frame: FrameId, now: Nanos) {
        if let Some(k) = self.knodes.get_mut(&inode) {
            k.members.insert(obj, frame);
            k.age = 0;
            k.last_active = now;
        }
    }

    fn remove_obj(&mut self, inode: InodeId, obj: ObjectId) {
        if let Some(k) = self.knodes.get_mut(&inode) {
            k.members.remove(&obj);
        }
    }

    /// The eager aging pass: O(knodes), the cost `age_epoch` no longer
    /// pays.
    fn age_epoch(&mut self) {
        self.epoch += 1;
        for k in self.knodes.values_mut() {
            if !k.inuse {
                k.age = k.age.saturating_add(1);
            }
        }
    }

    /// Inactive inodes ordered by last activity (the registry's
    /// `inactive_knodes` contract).
    fn inactive_by_activity(&self) -> Vec<InodeId> {
        let mut v: Vec<(Nanos, InodeId)> = self
            .knodes
            .iter()
            .filter(|(_, k)| !k.inuse)
            .map(|(&i, k)| (k.last_active, i))
            .collect();
        v.sort_unstable();
        v.into_iter().map(|(_, i)| i).collect()
    }

    /// Cold candidates: inactive, age >= min_age, non-empty; inode
    /// order (the registry's cold-index contract).
    fn cold_with_members(&self, min_age: u32) -> Vec<InodeId> {
        self.knodes
            .iter()
            .filter(|(_, k)| !k.inuse && k.age >= min_age && !k.members.is_empty())
            .map(|(&i, _)| i)
            .collect()
    }

    /// LRU ranking: inactive before active, oldest activity first.
    fn lru(&self, n: usize) -> Vec<InodeId> {
        let mut v: Vec<(bool, Nanos, InodeId)> = self
            .knodes
            .iter()
            .map(|(&i, k)| (k.inuse, k.last_active, i))
            .collect();
        v.sort_unstable();
        v.truncate(n);
        v.into_iter().map(|(_, _, i)| i).collect()
    }
}

fn info(inode: InodeId) -> ObjectInfo {
    ObjectInfo {
        ty: KernelObjectType::PageCache,
        size: KernelObjectType::PageCache.size(),
        inode: Some(inode),
    }
}

fn assert_equivalent(r: &mut KlocRegistry, m: &EagerModel, seed: u64, step: usize) {
    let ctx = |what: &str| format!("seed {seed}, step {step}: {what}");
    assert_eq!(r.kmap().len(), m.knodes.len(), "{}", ctx("population"));
    for (&inode, k) in &m.knodes {
        assert_eq!(
            r.kmap().age_of(inode),
            Some(k.age),
            "{}",
            ctx(&format!("age of {inode}"))
        );
        assert_eq!(
            r.is_active(inode),
            Some(k.inuse),
            "{}",
            ctx(&format!("activity of {inode}"))
        );
    }
    assert_eq!(
        r.kmap().inactive_knodes(),
        m.inactive_by_activity(),
        "{}",
        ctx("inactive ordering")
    );
    for min_age in [0, 1, 3, 8] {
        let expected = m.cold_with_members(min_age);
        let mut cold = Vec::new();
        r.cold_member_candidates(min_age, usize::MAX, &mut cold);
        assert_eq!(
            cold,
            expected,
            "{}",
            ctx(&format!("cold set at min_age {min_age}"))
        );
        // The batch limit takes a prefix of the same ordering.
        let mut batch = Vec::new();
        r.cold_member_candidates(min_age, 2, &mut batch);
        assert_eq!(
            batch,
            expected[..expected.len().min(2)],
            "{}",
            ctx(&format!("cold batch at min_age {min_age}"))
        );
    }
    for n in [1, 4, usize::MAX] {
        assert_eq!(
            r.kmap().lru_knodes(n.min(m.knodes.len() + 1)),
            m.lru(n.min(m.knodes.len() + 1)),
            "{}",
            ctx(&format!("lru ranking at n {n}"))
        );
    }
}

/// Drives both models through `steps` random ops from `seed` and checks
/// every observable after each op.
fn run_stream(seed: u64, steps: usize) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut r = KlocRegistry::new(KlocConfig::default());
    let mut m = EagerModel::default();
    let mut next_inode = 1u64;
    let mut next_obj = 0u64;
    let mut live: Vec<InodeId> = Vec::new();

    for step in 0..steps {
        let now = Nanos::from_micros(step as u64);
        let cpu = CpuId(rng.gen_below(4) as u16);
        match rng.gen_below(100) {
            // Create a knode.
            0..=14 => {
                let inode = InodeId(next_inode);
                next_inode += 1;
                r.inode_created(inode, cpu, now);
                m.create(inode, now);
                live.push(inode);
            }
            // Reopen (possibly already open — must not reset the clock
            // semantics differently between models).
            15..=24 if !live.is_empty() => {
                let inode = live[rng.gen_below(live.len() as u64) as usize];
                r.inode_opened(inode, cpu, now);
                m.open(inode, now);
            }
            // Close (possibly repeatedly — a repeated close must not
            // restart the inactivity clock).
            25..=44 if !live.is_empty() => {
                let inode = live[rng.gen_below(live.len() as u64) as usize];
                r.inode_closed(inode, Nanos::ZERO);
                m.close(inode);
            }
            // Destroy.
            45..=49 if !live.is_empty() => {
                let i = rng.gen_below(live.len() as u64) as usize;
                let inode = live.swap_remove(i);
                r.inode_destroyed(inode, Nanos::ZERO);
                m.destroy(inode);
            }
            // Object allocation (touches the knode).
            50..=59 if !live.is_empty() => {
                let inode = live[rng.gen_below(live.len() as u64) as usize];
                let obj = ObjectId(next_obj);
                next_obj += 1;
                let frame = FrameId(rng.gen_below(64));
                r.object_allocated(obj, &info(inode), frame, cpu, now);
                m.add_obj(inode, obj, frame, now);
            }
            // Object free (does not touch).
            60..=64 if !live.is_empty() => {
                let inode = live[rng.gen_below(live.len() as u64) as usize];
                if let Some((&obj, _)) = m.knodes[&inode].members.iter().next() {
                    r.object_freed(obj, &info(inode));
                    m.remove_obj(inode, obj);
                }
            }
            // Access (touch via the per-CPU fast path).
            65..=79 if !live.is_empty() => {
                let inode = live[rng.gen_below(live.len() as u64) as usize];
                r.object_accessed(&info(inode), cpu, now);
                m.touch(inode, now);
            }
            // Aging epoch — O(1) lazy vs O(n) eager.
            _ => {
                r.age_epoch();
                m.age_epoch();
            }
        }
        assert_equivalent(&mut r, &m, seed, step);
    }
}

#[test]
fn lazy_aging_matches_eager_reference() {
    for seed in [1, 42, 0xD1CE, 0xFEED_FACE] {
        run_stream(seed, 400);
    }
}

#[test]
fn long_idle_stretches_match() {
    // Heavier on epochs: knodes sit inactive across hundreds of epochs,
    // exercising stamp arithmetic far from the create point.
    let mut r = KlocRegistry::new(KlocConfig::default());
    let mut m = EagerModel::default();
    for ino in 1..=20u64 {
        let now = Nanos::from_micros(ino);
        r.inode_created(InodeId(ino), CpuId(0), now);
        m.create(InodeId(ino), now);
    }
    let mut rng = SplitMix64::seed_from_u64(7);
    for round in 0..50 {
        // Close a few, run a burst of epochs, reopen a few.
        for _ in 0..3 {
            let ino = InodeId(rng.gen_range(1..21));
            r.inode_closed(ino, Nanos::ZERO);
            m.close(ino);
        }
        for _ in 0..rng.gen_below(40) {
            r.age_epoch();
            m.age_epoch();
        }
        let ino = InodeId(rng.gen_range(1..21));
        let now = Nanos::from_micros(1000 + round);
        r.inode_opened(ino, CpuId(1), now);
        m.open(ino, now);
        assert_equivalent(&mut r, &m, 7, round as usize);
    }
}

/// Brute-force recomputations of the kmap's indexed views, straight off
/// every knode.
fn brute_active(r: &KlocRegistry) -> Vec<InodeId> {
    r.kmap()
        .iter()
        .filter(|k| k.inuse())
        .map(|k| k.inode())
        .collect()
}

fn brute_cold(r: &KlocRegistry, min_age: u32) -> Vec<InodeId> {
    let epoch = r.kmap().epoch();
    r.kmap()
        .iter()
        .filter(|k| !k.inuse() && k.age_at(epoch) >= min_age && k.member_count() > 0)
        .map(|k| k.inode())
        .collect()
}

fn brute_inactive(r: &KlocRegistry) -> Vec<InodeId> {
    let mut v: Vec<(Nanos, InodeId)> = r
        .kmap()
        .iter()
        .filter(|k| !k.inuse())
        .map(|k| (k.last_active(), k.inode()))
        .collect();
    v.sort_unstable();
    v.into_iter().map(|(_, i)| i).collect()
}

/// With the sanitizer compiled in, the kmap audit (bitsets against the
/// knodes, live heap entries, heap bound) must stay clean throughout.
fn audit_clean(r: &KlocRegistry, ctx: &str) {
    #[cfg(feature = "ksan")]
    {
        let mut out = Vec::new();
        r.ksan_audit(&mut out);
        assert!(out.is_empty(), "{ctx}: {out:#?}");
    }
    let _ = (r, ctx);
}

/// Drives open/close churn — including close/reopen/close bursts inside
/// one epoch, which leave stale and duplicate heap entries — member
/// adds and frees, aging, destroys and cold queries whose age threshold
/// changes now and then, and checks every indexed view against its
/// brute-force recomputation after each step.
#[test]
fn kmap_indexes_match_brute_force() {
    for seed in [3u64, 0xB175, 0xC01D] {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut r = KlocRegistry::new(KlocConfig::default());
        let mut live: Vec<InodeId> = Vec::new();
        let mut objects: Vec<(InodeId, ObjectId)> = Vec::new();
        let mut next_inode = 1u64;
        let mut next_obj = 0u64;
        let mut threshold = 2u32;
        for step in 0..1500usize {
            let ctx = format!("seed {seed} step {step}");
            let now = Nanos::from_micros(step as u64);
            let cpu = CpuId(rng.gen_below(4) as u16);
            let pick = |rng: &mut SplitMix64, live: &[InodeId]| {
                live[rng.gen_below(live.len() as u64) as usize]
            };
            match rng.gen_below(100) {
                _ if live.len() < 8 => {
                    r.inode_created(InodeId(next_inode), cpu, now);
                    live.push(InodeId(next_inode));
                    next_inode += 1;
                }
                0..=19 => r.inode_opened(pick(&mut rng, &live), cpu, now),
                20..=44 => r.inode_closed(pick(&mut rng, &live), now),
                // Close, reopen and close again within one epoch.
                45..=54 => {
                    let inode = pick(&mut rng, &live);
                    r.inode_closed(inode, now);
                    r.inode_opened(inode, cpu, now);
                    r.inode_closed(inode, now);
                }
                55..=64 => {
                    let inode = pick(&mut rng, &live);
                    let obj = ObjectId(next_obj);
                    next_obj += 1;
                    r.object_allocated(obj, &info(inode), FrameId(next_obj), cpu, now);
                    objects.push((inode, obj));
                }
                65..=69 if !objects.is_empty() => {
                    let i = rng.gen_below(objects.len() as u64) as usize;
                    let (inode, obj) = objects.swap_remove(i);
                    r.object_freed(obj, &info(inode));
                }
                70..=77 => r.object_accessed(&info(pick(&mut rng, &live)), cpu, now),
                78..=81 => {
                    let i = rng.gen_below(live.len() as u64) as usize;
                    let inode = live.swap_remove(i);
                    r.inode_destroyed(inode, now);
                    objects.retain(|&(ino, _)| ino != inode);
                }
                82..=93 => r.age_epoch(),
                _ => {
                    if rng.gen_below(8) == 0 {
                        threshold = [0, 1, 2, 5][rng.gen_below(4) as usize];
                    }
                    let want = brute_cold(&r, threshold);
                    let mut batch = Vec::new();
                    r.cold_member_candidates(threshold, 3, &mut batch);
                    assert_eq!(batch, want[..want.len().min(3)], "{ctx}: cold batch");
                    let mut all = Vec::new();
                    r.cold_member_candidates(threshold, usize::MAX, &mut all);
                    assert_eq!(all, want, "{ctx}: cold set at {threshold}");
                }
            }
            let active: Vec<InodeId> = r.kmap().active_knodes().map(|k| k.inode()).collect();
            assert_eq!(active, brute_active(&r), "{ctx}: active knodes");
            assert_eq!(
                r.kmap().inactive_knodes(),
                brute_inactive(&r),
                "{ctx}: inactive knodes"
            );
            audit_clean(&r, &ctx);
        }
    }
}

/// A run that never issues a cold query (no threshold registered, as
/// under KLOCs-nomigration) still keeps the inactive heap bounded: the
/// sanitizer's bound check stays clean through heavy churn, and the
/// first cold query afterwards matches brute force.
#[test]
fn churn_without_cold_queries_keeps_the_heap_bounded() {
    let mut r = KlocRegistry::new(KlocConfig::default());
    for ino in 1..=40u64 {
        r.inode_created(InodeId(ino), CpuId(0), Nanos::ZERO);
        r.object_allocated(
            ObjectId(ino),
            &info(InodeId(ino)),
            FrameId(ino),
            CpuId(0),
            Nanos::ZERO,
        );
    }
    let mut rng = SplitMix64::seed_from_u64(0x5EED);
    for step in 0..20_000u64 {
        let inode = InodeId(rng.gen_range(1..41));
        let now = Nanos::from_micros(step);
        if rng.gen_below(2) == 0 {
            r.inode_closed(inode, now);
        } else {
            r.inode_opened(inode, CpuId(0), now);
        }
        if step % 97 == 0 {
            r.age_epoch();
        }
        if step % 1000 == 0 {
            audit_clean(&r, &format!("step {step}"));
        }
    }
    audit_clean(&r, "end");
    let mut cold = Vec::new();
    r.cold_member_candidates(1, usize::MAX, &mut cold);
    assert_eq!(cold, brute_cold(&r, 1));
}
