//! Eager-vs-lazy aging equivalence.
//!
//! The registry ages knodes lazily: `age_epoch` bumps a global counter
//! and each knode derives its age on demand (paper §4.3 — KLOCs age "as
//! a side effect of events", without scanning). These tests drive the
//! real registry and an *eager* reference model — which walks every
//! knode on every epoch, the implementation the rewrite replaced —
//! through identical seeded op streams and require them to agree on
//! every observable: per-knode age and activity, the inactive ordering,
//! the cold set, every cold batch (exact contents, handed out in
//! crossing order, once per cold spell), and LRU ranking.

use std::collections::BTreeMap;

use kloc_core::{KlocConfig, KlocRegistry};
use kloc_kernel::hooks::CpuId;
use kloc_kernel::vfs::InodeId;
use kloc_kernel::{KernelObjectType, ObjectId, ObjectInfo};
use kloc_mem::rng::SplitMix64;
use kloc_mem::{FrameId, Nanos, TenantId};

/// The scan-based reference: one record per knode, aged by walking the
/// whole population on every epoch. Its cold set follows the events
/// directly: a knode crosses into it when a cold query's cutoff passes
/// its inactivity stamp, or when it goes inactive (or is restamped)
/// already past the last cutoff, and leaves it when touched or
/// reopened. Each crossing takes the next sequence number, and a cold
/// query hands out pending crossings in sequence order.
#[derive(Debug, Default)]
struct EagerModel {
    knodes: BTreeMap<InodeId, EagerKnode>,
    epoch: u64,
    /// Threshold of the last cold query (none before the first).
    threshold: Option<u32>,
    /// Inactivity stamps at or below this are cold.
    watermark: u64,
    /// Sequence number of the next crossing.
    next_crossing: u64,
}

#[derive(Debug)]
struct EagerKnode {
    inuse: bool,
    age: u32,
    last_active: Nanos,
    members: BTreeMap<ObjectId, FrameId>,
    cold: bool,
    /// The crossing of the current cold spell, until it is handed out.
    pending: Option<u64>,
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
                cold: false,
                pending: None,
            },
        );
    }

    /// The epoch an inactive knode has been inactive since.
    fn stamp(&self, k: &EagerKnode) -> u64 {
        self.epoch - u64::from(k.age)
    }

    fn past_cutoff(&self, stamp: u64) -> bool {
        self.threshold.is_some() && stamp <= self.watermark
    }

    fn cross(&mut self, inode: InodeId) {
        let seq = self.next_crossing;
        self.next_crossing += 1;
        if let Some(k) = self.knodes.get_mut(&inode) {
            k.cold = true;
            k.pending = Some(seq);
        }
    }

    fn open(&mut self, inode: InodeId, now: Nanos) {
        if let Some(k) = self.knodes.get_mut(&inode) {
            k.inuse = true;
            k.age = 0;
            k.last_active = now;
            k.cold = false;
            k.pending = None;
        }
    }

    fn close(&mut self, inode: InodeId) {
        let epoch = self.epoch;
        let Some(k) = self.knodes.get_mut(&inode) else {
            return;
        };
        if !k.inuse {
            return;
        }
        k.inuse = false;
        let stamp = epoch - u64::from(k.age);
        if self.past_cutoff(stamp) {
            self.cross(inode);
        }
    }

    fn destroy(&mut self, inode: InodeId) {
        self.knodes.remove(&inode);
    }

    /// A touch resets the age; an inactive knode whose stamp moves
    /// leaves the cold set, and crosses back at once if its new stamp
    /// is already past the cutoff.
    fn touch(&mut self, inode: InodeId, now: Nanos) {
        let epoch = self.epoch;
        let Some(k) = self.knodes.get_mut(&inode) else {
            return;
        };
        let restamped = !k.inuse && k.age != 0;
        k.age = 0;
        k.last_active = now;
        if restamped {
            k.cold = false;
            k.pending = None;
            if self.past_cutoff(epoch) {
                self.cross(inode);
            }
        }
    }

    fn add_obj(&mut self, inode: InodeId, obj: ObjectId, frame: FrameId, now: Nanos) {
        if let Some(k) = self.knodes.get_mut(&inode) {
            k.members.insert(obj, frame);
        }
        self.touch(inode, now);
    }

    /// The cold query: a new threshold empties the cold set; then every
    /// inactive knode past the new cutoff crosses, oldest stamp first
    /// (inode order breaks ties), and up to `max` pending crossings with
    /// members are handed out in crossing order (member-less ones are
    /// dropped on the way), the batch sorted by inode.
    fn cold_query(&mut self, min_age: u32, max: usize) -> Vec<InodeId> {
        let Some(watermark) = self.epoch.checked_sub(u64::from(min_age)) else {
            return Vec::new();
        };
        if self.threshold != Some(min_age) {
            for k in self.knodes.values_mut() {
                k.cold = false;
                k.pending = None;
            }
            self.threshold = Some(min_age);
        }
        self.watermark = watermark;
        let mut crossing: Vec<(u64, InodeId)> = self
            .knodes
            .iter()
            .filter(|(_, k)| !k.inuse && !k.cold && self.stamp(k) <= watermark)
            .map(|(&i, k)| (self.stamp(k), i))
            .collect();
        crossing.sort_unstable();
        for (_, inode) in crossing {
            self.cross(inode);
        }
        let mut pending: Vec<(u64, InodeId)> = self
            .knodes
            .iter()
            .filter_map(|(&i, k)| k.pending.map(|seq| (seq, i)))
            .collect();
        pending.sort_unstable();
        let mut batch = Vec::new();
        for (_, inode) in pending {
            if batch.len() == max {
                break;
            }
            let k = self.knodes.get_mut(&inode).expect("pending knode exists");
            k.pending = None;
            if !k.members.is_empty() {
                batch.push(inode);
            }
        }
        batch.sort_unstable();
        batch
    }

    /// The cold set, in inode order.
    fn cold_set(&self) -> Vec<InodeId> {
        self.knodes
            .iter()
            .filter(|(_, k)| k.cold)
            .map(|(&i, _)| i)
            .collect()
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

fn assert_equivalent(r: &KlocRegistry, m: &EagerModel, seed: u64, step: usize) {
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
    assert_eq!(
        r.kmap().cold_set().collect::<Vec<_>>(),
        m.cold_set(),
        "{}",
        ctx("cold set")
    );
    for n in [1, 4, usize::MAX] {
        assert_eq!(
            r.kmap().lru_knodes(n.min(m.knodes.len() + 1)),
            m.lru(n.min(m.knodes.len() + 1)),
            "{}",
            ctx(&format!("lru ranking at n {n}"))
        );
    }
}

/// Runs one cold query on both models and requires the same batch.
fn assert_cold_batch(
    r: &mut KlocRegistry,
    m: &mut EagerModel,
    min_age: u32,
    max: usize,
    ctx: &str,
) {
    let want = m.cold_query(min_age, max);
    let mut got = Vec::new();
    r.cold_member_candidates(min_age, max, &mut got);
    assert_eq!(
        got, want,
        "{ctx}: cold batch at min_age {min_age}, max {max}"
    );
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
    let mut threshold = 1u32;

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
                if let Some((&obj, &frame)) = m.knodes[&inode].members.iter().next() {
                    r.object_freed(obj, &info(inode), frame);
                    m.remove_obj(inode, obj);
                }
            }
            // Access (touch via the per-CPU fast path).
            65..=79 if !live.is_empty() => {
                let inode = live[rng.gen_below(live.len() as u64) as usize];
                r.object_accessed_by(&info(inode), cpu, TenantId::DEFAULT, now);
                m.touch(inode, now);
            }
            // Aging epoch — O(1) lazy vs O(n) eager.
            80..=89 => {
                r.age_epoch();
                m.age_epoch();
            }
            // Cold query; the threshold changes now and then.
            _ => {
                if rng.gen_below(8) == 0 {
                    threshold = [0, 1, 3, 8][rng.gen_below(4) as usize];
                }
                let max = [1, 2, usize::MAX][rng.gen_below(3) as usize];
                let ctx = format!("seed {seed}, step {step}");
                assert_cold_batch(&mut r, &mut m, threshold, max, &ctx);
            }
        }
        assert_equivalent(&r, &m, seed, step);
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
        let inode = InodeId(ino);
        r.inode_created(inode, CpuId(0), now);
        m.create(inode, now);
        r.object_allocated(ObjectId(ino), &info(inode), FrameId(ino), CpuId(0), now);
        m.add_obj(inode, ObjectId(ino), FrameId(ino), now);
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
        assert_cold_batch(&mut r, &mut m, 8, 2, &format!("round {round}"));
        assert_equivalent(&r, &m, 7, round as usize);
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

/// The kmap audit (bitsets against the knodes, live heap entries, heap
/// bound) must stay clean throughout.
fn audit_clean(r: &KlocRegistry, ctx: &str) {
    let mut out = Vec::new();
    r.ksan_audit(&mut out);
    assert!(out.is_empty(), "{ctx}: {out:#?}");
}

/// The cold crossings, derived from brute-force snapshots of every
/// knode taken after each registry call: a knode is cold while it is
/// inactive with its stamp at or below the last cold query's cutoff,
/// and a snapshot that finds it cold for the first time, or at a new
/// stamp, records a new crossing. One registry call other than a cold
/// query moves at most one knode into or out of the cold set, so no
/// crossing falls between two snapshots.
#[derive(Debug, Default)]
struct CrossingTracker {
    threshold: Option<u32>,
    watermark: u64,
    /// Per cold knode: its stamp, and its crossing's sequence number
    /// until the crossing is handed out.
    cold: BTreeMap<InodeId, (u64, Option<u64>)>,
    next_crossing: u64,
}

impl CrossingTracker {
    /// Re-derives the cold set from every knode; new crossings take
    /// sequence numbers oldest stamp first, inode order breaking ties.
    fn fold(&mut self, r: &KlocRegistry) {
        let Some(_) = self.threshold else { return };
        let epoch = r.kmap().epoch();
        let mut past: Vec<(u64, InodeId)> = r
            .kmap()
            .iter()
            .filter(|k| !k.inuse())
            .map(|k| (epoch - u64::from(k.age_at(epoch)), k.inode()))
            .filter(|&(stamp, _)| stamp <= self.watermark)
            .collect();
        past.sort_unstable();
        let mut cold = BTreeMap::new();
        for (stamp, inode) in past {
            let spell = match self.cold.get(&inode) {
                Some(&(s, pending)) if s == stamp => (s, pending),
                _ => {
                    self.next_crossing += 1;
                    (stamp, Some(self.next_crossing))
                }
            };
            cold.insert(inode, spell);
        }
        self.cold = cold;
    }

    /// Folds the snapshot after a registry call and checks the kmap's
    /// cold set against it.
    fn observe(&mut self, r: &KlocRegistry, ctx: &str) {
        self.fold(r);
        let want: Vec<InodeId> = self.cold.keys().copied().collect();
        let got: Vec<InodeId> = r.kmap().cold_set().collect();
        assert_eq!(got, want, "{ctx}: cold set");
    }

    /// The batch the cold query `(min_age, max)` must hand out from the
    /// registry's current state: a new threshold empties the cold set,
    /// the knodes past the new cutoff cross, and up to `max` pending
    /// crossings with members are handed out in crossing order, each
    /// once (member-less ones are dropped on the way), sorted by inode.
    fn query(&mut self, r: &KlocRegistry, min_age: u32, max: usize) -> Vec<InodeId> {
        let Some(watermark) = r.kmap().epoch().checked_sub(u64::from(min_age)) else {
            return Vec::new();
        };
        if self.threshold != Some(min_age) {
            self.cold.clear();
            self.threshold = Some(min_age);
        }
        self.watermark = watermark;
        self.fold(r);
        let mut pending: Vec<(u64, InodeId)> = self
            .cold
            .iter()
            .filter_map(|(&inode, &(_, seq))| seq.map(|seq| (seq, inode)))
            .collect();
        pending.sort_unstable();
        let mut batch = Vec::new();
        for (_, inode) in pending {
            if batch.len() == max {
                break;
            }
            if let Some(spell) = self.cold.get_mut(&inode) {
                spell.1 = None;
            }
            if r.kmap().get(inode).is_some_and(|k| k.member_count() > 0) {
                batch.push(inode);
            }
        }
        batch.sort_unstable();
        batch
    }
}

/// Drives open/close churn — including close/reopen/close bursts inside
/// one epoch, which leave stale and duplicate heap entries and, at
/// threshold 0, cross a knode back at an unchanged stamp — member adds
/// and frees, aging, destroys and cold queries whose age threshold
/// changes now and then, and checks every indexed view against its
/// brute-force recomputation after each call.
#[test]
fn kmap_indexes_match_brute_force() {
    for seed in [3u64, 0xB175, 0xC01D] {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut r = KlocRegistry::new(KlocConfig::default());
        let mut live: Vec<InodeId> = Vec::new();
        let mut objects: Vec<(InodeId, ObjectId, FrameId)> = Vec::new();
        let mut next_inode = 1u64;
        let mut next_obj = 0u64;
        let mut threshold = 2u32;
        let mut tracker = CrossingTracker::default();
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
                    tracker.observe(&r, &ctx);
                    r.inode_opened(inode, cpu, now);
                    tracker.observe(&r, &ctx);
                    r.inode_closed(inode, now);
                }
                55..=64 => {
                    let inode = pick(&mut rng, &live);
                    let obj = ObjectId(next_obj);
                    next_obj += 1;
                    let frame = FrameId(next_obj);
                    r.object_allocated(obj, &info(inode), frame, cpu, now);
                    objects.push((inode, obj, frame));
                }
                65..=69 if !objects.is_empty() => {
                    let i = rng.gen_below(objects.len() as u64) as usize;
                    let (inode, obj, frame) = objects.swap_remove(i);
                    r.object_freed(obj, &info(inode), frame);
                }
                70..=77 => {
                    r.object_accessed_by(&info(pick(&mut rng, &live)), cpu, TenantId::DEFAULT, now)
                }
                78..=81 => {
                    let i = rng.gen_below(live.len() as u64) as usize;
                    let inode = live.swap_remove(i);
                    r.inode_destroyed(inode, now);
                    objects.retain(|&(ino, _, _)| ino != inode);
                }
                82..=93 => r.age_epoch(),
                _ => {
                    if rng.gen_below(8) == 0 {
                        threshold = [0, 1, 2, 5][rng.gen_below(4) as usize];
                    }
                    // A bounded batch, then the rest of the queue.
                    for max in [[1, 3][rng.gen_below(2) as usize], usize::MAX] {
                        let want = tracker.query(&r, threshold, max);
                        let mut batch = Vec::new();
                        r.cold_member_candidates(threshold, max, &mut batch);
                        assert_eq!(batch, want, "{ctx}: cold batch of {max} at {threshold}");
                        tracker.observe(&r, &ctx);
                    }
                }
            }
            tracker.observe(&r, &ctx);
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
