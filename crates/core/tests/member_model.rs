//! Seeded model tests for knode membership: the registry's
//! one-bit-per-slot membership path and the knode's `FrameRefs`
//! frame set must behave exactly like `BTreeMap` references — the
//! membership across allocation, late association, frees, destroyed and
//! missing knodes, excluded types, a disabled registry and object-table
//! slots recycled from freed members; the frame set
//! after every single step, including its cold and hot parked masks,
//! whose unparked entries the migration walks visit in place.
//!
//! Sequences come from the in-tree seeded `SplitMix64` PRNG (fixed
//! seeds, so failures reproduce exactly).

use std::collections::{BTreeMap, BTreeSet};

use kloc_core::knode::MemberTree;
use kloc_core::members::{FrameRefs, Mask, Walk};
use kloc_core::{KlocConfig, KlocRegistry};
use kloc_kernel::hooks::CpuId;
use kloc_kernel::obj::ObjectTable;
use kloc_kernel::vfs::InodeId;
use kloc_kernel::{Backing, KernelObjectType, ObjectId, ObjectInfo};
use kloc_mem::{FrameId, Nanos, SplitMix64};

/// Reference state of the membership path: the members with the inode,
/// type and frame each was added with, the live knodes, and the
/// tracked/untracked counters the registry must report.
#[derive(Default)]
struct MembershipModel {
    members: BTreeMap<ObjectId, (InodeId, KernelObjectType, FrameId)>,
    knodes: BTreeSet<InodeId>,
    tracked: u64,
    untracked: u64,
}

impl MembershipModel {
    /// What `object_allocated`/`object_associated` must do.
    fn add(&mut self, cfg: &KlocConfig, obj: ObjectId, info: &ObjectInfo, frame: FrameId) {
        let Some(inode) = info.inode else { return };
        if cfg.enabled && cfg.included.contains(&info.ty) && self.knodes.contains(&inode) {
            self.members.insert(obj, (inode, info.ty, frame));
            self.tracked += 1;
        }
    }

    /// What `object_freed` must do.
    fn free(&mut self, obj: ObjectId) {
        if let Some((inode, _, _)) = self.members.remove(&obj) {
            if self.knodes.contains(&inode) {
                self.untracked += 1;
            }
        }
    }
}

/// The registry agrees with the model: the membership bit of every
/// object-table slot (and of slots past them) against its live object,
/// every live knode's frames and per-tree counts, and the counters.
fn assert_membership(r: &KlocRegistry, m: &MembershipModel, table: &ObjectTable, ctx: &str) {
    assert!(
        m.members.keys().all(|&obj| table.get(obj).is_some()),
        "{ctx}: every model member is live"
    );
    for slot in 0..table.slot_count() as u32 + 70 {
        let live = table.id_in_slot(slot);
        assert_eq!(
            r.is_member(ObjectId(u64::from(slot))),
            live.is_some_and(|obj| m.members.contains_key(&obj)),
            "{ctx}: bit of slot {slot} ({live:?})"
        );
    }
    assert_eq!(r.stats().objects_tracked, m.tracked, "{ctx}: tracked");
    assert_eq!(r.stats().objects_untracked, m.untracked, "{ctx}: untracked");
    assert_eq!(r.kmap().len(), m.knodes.len(), "{ctx}: knodes");
    for &inode in &m.knodes {
        let on_inode = || m.members.values().filter(move |e| e.0 == inode);
        let frames: BTreeSet<FrameId> = on_inode().map(|e| e.2).collect();
        assert!(
            r.member_frames(inode).into_iter().eq(frames),
            "{ctx}: frames of {inode}"
        );
        let k = r.kmap().get(inode).expect("model knode is mapped");
        let cache = on_inode()
            .filter(|e| matches!(e.1.backing(), Backing::Page(_)))
            .count();
        assert_eq!(
            k.tree_count(MemberTree::Cache),
            cache,
            "{ctx}: cache of {inode}"
        );
        assert_eq!(
            k.member_count(),
            on_inode().count(),
            "{ctx}: members of {inode}"
        );
    }
}

#[test]
fn registry_membership_matches_btreemap_model() {
    let mut excluded = KlocConfig::default();
    for ty in [KernelObjectType::SkBuff, KernelObjectType::Dentry] {
        excluded.included.remove(&ty);
    }
    let configs = [
        KlocConfig::default(),
        excluded,
        KlocConfig {
            enabled: false,
            ..KlocConfig::default()
        },
    ];
    let (mut late, mut orphan_frees, mut missing, mut recycled) = (0, 0, 0, 0);
    for case in 0..48u64 {
        let cfg = configs[(case % 3) as usize].clone();
        let mut rng = SplitMix64::seed_from_u64(0x3E3B_0000 + case);
        let mut r = KlocRegistry::new(cfg.clone());
        let mut m = MembershipModel::default();
        // Ids come from a real object table, which recycles the slots of
        // freed objects; `live` mirrors it in id order.
        let mut table = ObjectTable::new();
        let mut live: BTreeMap<ObjectId, (ObjectInfo, FrameId)> = BTreeMap::new();
        // Slots last freed while their object was a member.
        let mut member_slots: BTreeSet<u32> = BTreeSet::new();
        let (mut next_ino, mut next_page) = (1u64, 1000u64);
        for step in 0..300 {
            let ctx = format!("case {case} step {step}");
            let now = Nanos::from_micros(step);
            match rng.gen_below(12) {
                // Inode ids are never reused, as in the VFS.
                0 => {
                    let inode = InodeId(next_ino);
                    next_ino += 1;
                    r.inode_created(inode, CpuId(0), now);
                    if cfg.enabled {
                        m.knodes.insert(inode);
                    }
                }
                1 if !m.knodes.is_empty() => {
                    let i = rng.gen_below(m.knodes.len() as u64) as usize;
                    let inode = *m.knodes.iter().nth(i).expect("index below len");
                    r.inode_destroyed(inode, now);
                    m.knodes.remove(&inode);
                }
                2..=6 => {
                    let ty = KernelObjectType::ALL
                        [rng.gen_below(KernelObjectType::ALL.len() as u64) as usize];
                    // Mostly a created inode (live or destroyed), now and
                    // then one that never had a knode.
                    let inode = if rng.gen_below(8) == 0 {
                        missing += 1;
                        InodeId(next_ino + 1000)
                    } else {
                        InodeId(1 + rng.gen_below(next_ino))
                    };
                    // Slab objects share a few frames; page objects own one.
                    let frame = match ty.backing() {
                        Backing::Slab => FrameId(rng.gen_below(6)),
                        Backing::Page(_) => {
                            next_page += 1;
                            FrameId(next_page)
                        }
                    };
                    // Allocated without an inode: associated late, the way
                    // the kernel's TCP layer does after late demux.
                    let alloc_inode = (rng.gen_below(4) != 0).then_some(inode);
                    let mut info = ObjectInfo {
                        ty,
                        size: ty.size(),
                        inode: alloc_inode,
                    };
                    let obj = table.insert(info, frame, now);
                    // A recycled slot starts as a non-member, even when
                    // its last object was one.
                    if member_slots.remove(&obj.slot()) {
                        recycled += 1;
                    }
                    assert!(!r.is_member(obj), "{ctx}: fresh {obj} is a member");
                    r.object_allocated(obj, &info, frame, CpuId(0), now);
                    m.add(&cfg, obj, &info, frame);
                    if alloc_inode.is_none() {
                        info.inode = Some(inode);
                        table.set_inode(obj, inode).expect("just allocated");
                        r.object_associated(obj, &info, frame, CpuId(1), now);
                        m.add(&cfg, obj, &info, frame);
                        late += 1;
                    }
                    live.insert(obj, (info, frame));
                }
                _ if !live.is_empty() => {
                    let i = rng.gen_below(live.len() as u64) as usize;
                    let obj = *live.keys().nth(i).expect("index below len");
                    let (info, frame) = live.remove(&obj).expect("just picked");
                    table.remove(obj).expect("live in the table");
                    if let Some(e) = m.members.get(&obj) {
                        orphan_frees += usize::from(!m.knodes.contains(&e.0));
                        member_slots.insert(obj.slot());
                    }
                    r.object_freed(obj, &info, frame);
                    m.free(obj);
                }
                _ => {}
            }
            assert_membership(&r, &m, &table, &ctx);
        }
        // Freeing every live object clears every bit.
        for (obj, (info, frame)) in live {
            table.remove(obj).expect("live in the table");
            r.object_freed(obj, &info, frame);
            m.free(obj);
        }
        assert_membership(&r, &m, &table, &format!("case {case} teardown"));
        assert!(m.members.is_empty());
    }
    assert!(late >= 200, "{late} late associations");
    assert!(
        orphan_frees >= 20,
        "{orphan_frees} frees after inode_destroyed"
    );
    assert!(missing >= 100, "{missing} allocations on a missing knode");
    assert!(recycled >= 100, "{recycled} members' slots recycled");
}

/// The frame set must equal the model after every step: same frames
/// in ascending full-id order, same refcounts.
fn assert_frame_refs_match(dense: &FrameRefs, model: &BTreeMap<FrameId, u32>, ctx: &str) {
    assert!(
        dense.iter().eq(model.keys().copied()),
        "{ctx}: ascending frames"
    );
    assert_eq!(dense.len(), model.len(), "{ctx}: len");
    let mut want = model.iter();
    dense.for_each(|frame, rc| {
        assert_eq!(want.next(), Some((&frame, &rc)), "{ctx}: refcounts");
    });
}

/// Applies one `add`/`unref` to both sides, checking the return value.
fn step_frame_refs(
    dense: &mut FrameRefs,
    model: &mut BTreeMap<FrameId, u32>,
    frame: FrameId,
    add: bool,
    ctx: &str,
) {
    if add {
        let rc = model.entry(frame).or_insert(0);
        *rc += 1;
        assert_eq!(dense.add(frame), *rc == 1, "{ctx}: add({frame})");
    } else {
        let gone = match model.get_mut(&frame) {
            Some(rc) if *rc > 1 => {
                *rc -= 1;
                false
            }
            Some(_) => model.remove(&frame).is_some(),
            None => false,
        };
        assert_eq!(dense.unref(frame), gone, "{ctx}: unref({frame})");
    }
}

#[test]
fn frame_refs_match_refcount_model() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::seed_from_u64(0xF8_4E00 + case);
        let mut dense = FrameRefs::default();
        let mut model: BTreeMap<FrameId, u32> = BTreeMap::new();

        for step in 0..400 {
            // Random slots and generations: most inserts land mid-vector,
            // and full-id order disagrees with slot order.
            let frame = FrameId((rng.gen_below(2) << 32) | rng.gen_below(48));
            let ctx = format!("case {case} step {step}");
            step_frame_refs(&mut dense, &mut model, frame, rng.gen_below(2) == 0, &ctx);
            // Unref of a frame never tracked is a no-op.
            let absent = FrameId(1000 + rng.gen_below(8));
            assert!(!dense.unref(absent), "{ctx}: unref of absent {absent}");
            assert_frame_refs_match(&dense, &model, &ctx);
        }
    }
}

#[test]
fn frame_refs_match_model_past_4096_frames() {
    // Enough distinct frames that mid-vector inserts and removes shift
    // long tails. Multiplying by a stride coprime to N permutes 0..N.
    const N: u64 = 4160;
    let mut dense = FrameRefs::default();
    let mut model: BTreeMap<FrameId, u32> = BTreeMap::new();
    for step in 0..N {
        let ctx = format!("fill step {step}");
        step_frame_refs(&mut dense, &mut model, FrameId(step * 7919 % N), true, &ctx);
        assert_frame_refs_match(&dense, &model, &ctx);
    }
    assert_eq!(dense.len() as u64, N);
    // Drain in another order; every fifth frame is shared for a step.
    for step in 0..N {
        let ctx = format!("drain step {step}");
        let frame = FrameId(step * 6007 % N);
        if step % 5 == 0 {
            step_frame_refs(&mut dense, &mut model, frame, true, &ctx);
            step_frame_refs(&mut dense, &mut model, frame, false, &ctx);
        }
        step_frame_refs(&mut dense, &mut model, frame, false, &ctx);
        assert_frame_refs_match(&dense, &model, &ctx);
    }
    assert!(dense.is_empty());
}

/// Model entry for the chunked-set test: refcount and the mask the
/// entry is parked in.
type ParkModel = BTreeMap<FrameId, (u32, Option<Mask>)>;

/// The chunked set equals the model after a step: the same frames in
/// ascending full-id order, each with the model's refcount and parked
/// mask, and no chunk empty or past capacity.
fn assert_chunked_matches(dense: &FrameRefs, model: &ParkModel, ctx: &str) {
    let want: Vec<(FrameId, Option<Mask>)> = model.iter().map(|(&f, &(_, p))| (f, p)).collect();
    assert_eq!(dense.parked_bits(), want, "{ctx}: frames and parked bits");
    assert!(dense.iter().eq(model.keys().copied()), "{ctx}: iteration");
    let mut counts = model.iter();
    dense.for_each(|frame, rc| {
        assert_eq!(
            counts.next().map(|(&f, &(c, _))| (f, c)),
            Some((frame, rc)),
            "{ctx}: refcounts"
        );
    });
    assert_eq!(dense.len(), model.len(), "{ctx}: len");
    let lens = dense.chunk_lens();
    assert!(
        lens.iter().all(|&n| (1..=FrameRefs::CHUNK).contains(&n)),
        "{ctx}: chunk sizes {lens:?}"
    );
    // Every chunk but the final one records its last frame as its max.
    let frames: Vec<FrameId> = dense.iter().collect();
    let lasts: Vec<FrameId> = lens
        .iter()
        .scan(0, |end, &n| {
            *end += n;
            Some(frames[*end - 1])
        })
        .take(lens.len().saturating_sub(1))
        .collect();
    assert_eq!(dense.chunk_maxes(), lasts, "{ctx}: chunk maxes");
}

/// The frames the promotion walk visits when it parks nothing.
fn unparked(dense: &mut FrameRefs) -> Vec<FrameId> {
    let mut seen = Vec::new();
    dense.walk_hot(|frame| {
        seen.push(frame);
        Walk::Skip
    });
    seen
}

/// A demotion walk whose chunk bounds never skip a chunk: the walk time
/// never lies below a bound of zero.
fn walk_cold_unbounded(dense: &mut FrameRefs, mut f: impl FnMut(FrameId) -> Walk) {
    dense.walk_cold((Nanos::ZERO, 0), Nanos::ZERO, Nanos::ZERO, |frame, _| {
        f(frame)
    });
}

/// The walks visit exactly the model's frames they should, ascending:
/// the promotion walk those in neither mask, the demotion walk those
/// not cold-parked.
fn assert_walk_matches(dense: &mut FrameRefs, model: &ParkModel, ctx: &str) {
    let want = |skip: &dyn Fn(Option<Mask>) -> bool| -> Vec<FrameId> {
        model
            .iter()
            .filter(|(_, &(_, p))| !skip(p))
            .map(|(&f, _)| f)
            .collect()
    };
    assert_eq!(
        unparked(dense),
        want(&|p| p.is_some()),
        "{ctx}: promotion walk"
    );
    let mut seen = Vec::new();
    walk_cold_unbounded(dense, |frame| {
        seen.push(frame);
        Walk::Skip
    });
    assert_eq!(
        seen,
        want(&|p| p == Some(Mask::Cold)),
        "{ctx}: demotion walk"
    );
}

/// Whether `frame` is the last entry of its chunk (cumulative chunk
/// lengths mark the boundaries).
fn ends_a_chunk(dense: &FrameRefs, frame: FrameId) -> bool {
    let Some(at) = dense.iter().position(|f| f == frame) else {
        return false;
    };
    dense
        .chunk_lens()
        .iter()
        .scan(0, |end, &n| {
            *end += n;
            Some(*end)
        })
        .any(|end| end == at + 1)
}

#[test]
fn chunked_frame_refs_match_model_across_splits_and_parking() {
    let (mut splits, mut emptied, mut max_removals, mut parked_splits) = (0, 0, 0, 0);
    let (mut walk_parks, mut stops) = (0, 0);
    for case in 0..12u64 {
        let mut rng = SplitMix64::seed_from_u64(0xC4_0000 + case);
        let mut dense = FrameRefs::default();
        let mut model = ParkModel::new();
        // Pools several chunks wide; two generations so full-id order
        // disagrees with slot order. Each case alternates fill-heavy
        // and drain-heavy phases so chunks split and then empty.
        let pool = 160 + rng.gen_below(480);
        for step in 0..2000 {
            let ctx = format!("case {case} step {step}");
            let filling = (step / 400) % 2 == 0;
            let frame = FrameId((rng.gen_below(2) << 32) | rng.gen_below(pool));
            let chunks_before = dense.chunk_lens().len();
            let any_parked = model.values().any(|&(_, p)| p.is_some());
            let mask = if rng.gen_below(2) == 0 {
                Mask::Cold
            } else {
                Mask::Hot
            };
            match rng.gen_below(10) {
                0..=5 if filling => {
                    let e = model.entry(frame).or_insert((0, None));
                    e.0 += 1;
                    assert_eq!(dense.add(frame), e.0 == 1, "{ctx}: add({frame})");
                }
                0..=5 => {
                    // Drain: unref an existing frame, often a chunk max.
                    let Some(&victim) = model
                        .keys()
                        .nth(rng.gen_below(model.len().max(1) as u64) as usize)
                    else {
                        continue;
                    };
                    max_removals += usize::from(ends_a_chunk(&dense, victim));
                    let gone = match model.get_mut(&victim) {
                        Some(e) if e.0 > 1 => {
                            e.0 -= 1;
                            false
                        }
                        _ => model.remove(&victim).is_some(),
                    };
                    assert_eq!(dense.unref(victim), gone, "{ctx}: unref({victim})");
                }
                6 => {
                    let gone = match model.get_mut(&frame) {
                        Some(e) if e.0 > 1 => {
                            e.0 -= 1;
                            false
                        }
                        Some(_) => model.remove(&frame).is_some(),
                        None => false,
                    };
                    assert_eq!(dense.unref(frame), gone, "{ctx}: unref({frame})");
                }
                7 => {
                    dense.set_parked(frame, mask, true);
                    if let Some(e) = model.get_mut(&frame) {
                        e.1 = Some(mask);
                    }
                }
                8 => {
                    // A member walk parks a random share of what it
                    // visits, in either mask, and sometimes stops early;
                    // what it visits is the model's frames outside the
                    // masks it skips, in order.
                    let stop_after = rng.gen_below(2 * model.len().max(1) as u64);
                    let visits = |p: Option<Mask>| match mask {
                        Mask::Cold => p != Some(Mask::Cold),
                        Mask::Hot => p.is_none(),
                    };
                    let mut want = model.iter_mut().filter(|(_, e)| visits(e.1));
                    let mut visited = 0;
                    let mut step = |frame: FrameId| {
                        if visited == stop_after {
                            stops += 1;
                            return Walk::Stop;
                        }
                        visited += 1;
                        let (&f, e) = want.next().expect("the walk visits a model frame");
                        assert_eq!(frame, f, "{ctx}: walk order");
                        if rng.gen_below(3) == 0 {
                            let into = if rng.gen_below(2) == 0 {
                                Mask::Cold
                            } else {
                                Mask::Hot
                            };
                            e.1 = Some(into);
                            walk_parks += 1;
                            Walk::Park(into)
                        } else {
                            Walk::Skip
                        }
                    };
                    match mask {
                        Mask::Cold => walk_cold_unbounded(&mut dense, step),
                        Mask::Hot => dense.walk_hot(&mut step),
                    }
                }
                _ => {
                    dense.set_parked(frame, mask, false);
                    if let Some(e) = model.get_mut(&frame) {
                        e.1 = None;
                    }
                }
            }
            let chunks_after = dense.chunk_lens().len();
            if chunks_after > chunks_before {
                splits += 1;
                parked_splits += usize::from(any_parked);
            }
            emptied += usize::from(chunks_after < chunks_before);
            assert_chunked_matches(&dense, &model, &ctx);
            assert_walk_matches(&mut dense, &model, &ctx);
        }
    }
    assert!(walk_parks >= 500, "{walk_parks} parks by a walk");
    assert!(stops >= 100, "{stops} early stops");
    // The stream really exercised the structure's edges.
    assert!(splits >= 40, "{splits} splits");
    assert!(
        parked_splits >= 20,
        "{parked_splits} splits with parked entries"
    );
    assert!(emptied >= 20, "{emptied} chunks emptied");
    assert!(max_removals >= 100, "{max_removals} chunk maxes removed");
}

#[test]
fn chunked_frame_refs_edges_in_order() {
    let mut r = FrameRefs::default();
    let mut model = ParkModel::new();
    let add = |r: &mut FrameRefs, model: &mut ParkModel, f: u64| {
        model.entry(FrameId(f)).or_insert((0, None)).0 += 1;
        r.add(FrameId(f));
    };
    // One full chunk of even frames, three of them parked, one hot.
    for f in (0..256).step_by(2) {
        add(&mut r, &mut model, f);
    }
    assert_eq!(r.chunk_lens(), [FrameRefs::CHUNK]);
    for (f, mask) in [(20, Mask::Cold), (128, Mask::Hot), (254, Mask::Cold)] {
        r.set_parked(FrameId(f), mask, true);
        model.get_mut(&FrameId(f)).unwrap().1 = Some(mask);
    }
    // Appending past a full final chunk opens a new one.
    add(&mut r, &mut model, 255);
    assert_eq!(r.chunk_lens(), [128, 1]);
    assert_chunked_matches(&r, &model, "append");
    // A mid-chunk insert into a full chunk splits it in half first; the
    // parked bits travel with their entries.
    add(&mut r, &mut model, 1);
    assert_eq!(r.chunk_lens(), [65, 64, 1]);
    assert_chunked_matches(&r, &model, "split");
    // A frame between two chunks joins the upper one.
    add(&mut r, &mut model, 127);
    assert_eq!(r.chunk_lens(), [65, 65, 1]);
    assert_chunked_matches(&r, &model, "boundary insert");
    // Removing a chunk's max lowers its bound; a frame above the new
    // max then lands in the next chunk, still in order.
    r.unref(FrameId(126));
    model.remove(&FrameId(126));
    add(&mut r, &mut model, 125);
    assert_eq!(r.chunk_lens(), [64, 66, 1]);
    assert_chunked_matches(&r, &model, "max removal");
    // Emptying the final chunk and a middle chunk drops them.
    r.unref(FrameId(255));
    model.remove(&FrameId(255));
    assert_eq!(r.chunk_lens(), [64, 66]);
    let middle: Vec<FrameId> = r.iter().skip(64).collect();
    for f in middle {
        r.unref(f);
        model.remove(&f);
    }
    assert_eq!(r.chunk_lens(), [64]);
    assert_chunked_matches(&r, &model, "emptied chunks");
    // And the set refills past the old boundaries in order.
    for f in (300..600).rev() {
        add(&mut r, &mut model, f);
    }
    assert_chunked_matches(&r, &model, "refill");
    assert_walk_matches(&mut r, &model, "refill");
}

#[test]
fn walk_reads_every_mask_position() {
    // One full chunk of even frames: frame 2i sits at mask position i,
    // so the word edges 0, 63, 64 and 127 hold frames 0, 126, 128, 254.
    let mut r = FrameRefs::default();
    let mut model = ParkModel::new();
    for f in (0..2 * FrameRefs::CHUNK as u64).step_by(2) {
        r.add(FrameId(f));
        model.insert(FrameId(f), (1, None));
    }
    assert_eq!(r.chunk_lens(), [FrameRefs::CHUNK]);
    let edges = [0u64, 126, 128, 254];
    // Park everything but the edges through the walk itself.
    r.walk_hot(|frame| {
        if edges.contains(&frame.0) {
            Walk::Skip
        } else {
            Walk::Park(Mask::Hot)
        }
    });
    for (f, e) in model.iter_mut() {
        e.1 = (!edges.contains(&f.0)).then_some(Mask::Hot);
    }
    assert_eq!(unparked(&mut r), edges.map(FrameId));
    assert_chunked_matches(&r, &model, "edges unparked");
    // Flip: only the edges parked, alternately in either mask.
    for (f, e) in model.iter_mut() {
        let mask = if f.0 % 4 == 0 { Mask::Cold } else { Mask::Hot };
        e.1 = edges.contains(&f.0).then_some(mask);
        r.set_parked(*f, mask, e.1.is_some());
    }
    assert_walk_matches(&mut r, &model, "edges parked");
    // Removing position 0 shifts every later bit down by one, and
    // inserting at position 0 shifts them back up.
    r.unref(FrameId(0));
    model.remove(&FrameId(0));
    assert_chunked_matches(&r, &model, "remove at 0");
    assert_walk_matches(&mut r, &model, "remove at 0");
    r.add(FrameId(0));
    model.insert(FrameId(0), (1, None));
    assert_chunked_matches(&r, &model, "insert at 0");
    assert_walk_matches(&mut r, &model, "insert at 0");
    // A mid insert into the full chunk splits it; the upper half's bits
    // (positions 64..128, two of them parked) move to the new chunk.
    r.add(FrameId(127));
    model.insert(FrameId(127), (1, None));
    assert_eq!(r.chunk_lens(), [64, 65]);
    assert_chunked_matches(&r, &model, "split");
    assert_walk_matches(&mut r, &model, "split");
    // Removing the last entry of the final chunk (mask position 64).
    r.unref(FrameId(254));
    model.remove(&FrameId(254));
    assert_chunked_matches(&r, &model, "remove last");
    assert_walk_matches(&mut r, &model, "remove last");
}
