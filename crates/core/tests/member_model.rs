//! Seeded model tests for the knode member tables: `MemberMap` and
//! `FrameRefs` must behave exactly like the `BTreeMap`s they replaced —
//! including around recycled slots, where a stale `ObjectId` probing a
//! reused slot must miss on the full-id compare rather than false-hit,
//! and after every single `FrameRefs` step, whose frame order the
//! migration walks read in place.
//!
//! Sequences come from the in-tree seeded `SplitMix64` PRNG (fixed
//! seeds, so failures reproduce exactly).

use std::collections::BTreeMap;

use kloc_core::members::{FrameRefs, MemberMap};
use kloc_kernel::ObjectId;
use kloc_mem::{FrameId, SplitMix64};

/// Draws an `ObjectId` from a pool sized to force heavy slot reuse:
/// low bits collide across ids whose high bits differ, so recycled
/// slots see lookups by both the old and new full id.
fn gen_obj(rng: &mut SplitMix64) -> ObjectId {
    let low = rng.gen_below(32);
    let high = rng.gen_below(4) << 40;
    ObjectId(high | low)
}

#[test]
fn member_map_matches_btreemap_model() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::seed_from_u64(0xD0_5E00 + case);
        let mut dense = MemberMap::default();
        let mut model: BTreeMap<ObjectId, FrameId> = BTreeMap::new();

        for step in 0..400 {
            let obj = gen_obj(&mut rng);
            match rng.gen_below(3) {
                0 | 1 => {
                    let frame = FrameId(rng.gen_below(64));
                    assert_eq!(
                        dense.insert(obj, frame),
                        model.insert(obj, frame),
                        "case {case} step {step}: insert({obj}, {frame})"
                    );
                }
                _ => {
                    assert_eq!(
                        dense.remove(obj),
                        model.remove(&obj),
                        "case {case} step {step}: remove({obj})"
                    );
                }
            }
            // A probe by an id that may share a (recycled) slot with a
            // live entry must agree with the model — full-id compare.
            let probe = gen_obj(&mut rng);
            assert_eq!(dense.get(probe), model.get(&probe).copied());
            assert_eq!(dense.len(), model.len());
            assert_eq!(dense.is_empty(), model.is_empty());
        }
        // The ordered view is exactly the BTreeMap's iteration order.
        let want: Vec<(ObjectId, FrameId)> = model.iter().map(|(&o, &f)| (o, f)).collect();
        assert_eq!(dense.sorted(), want, "case {case}: iteration order");
    }
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

/// Model entry for the chunked-set test: refcount and parked bit.
type ParkModel = BTreeMap<FrameId, (u32, bool)>;

/// The chunked set equals the model after a step: the same frames in
/// ascending full-id order, each with the model's refcount and parked
/// bit, and no chunk empty or past capacity.
fn assert_chunked_matches(dense: &FrameRefs, model: &ParkModel, ctx: &str) {
    let want: Vec<(FrameId, bool)> = model.iter().map(|(&f, &(_, p))| (f, p)).collect();
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
            let any_parked = model.values().any(|&(_, p)| p);
            match rng.gen_below(10) {
                0..=5 if filling => {
                    let e = model.entry(frame).or_insert((0, false));
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
                7 | 8 => {
                    dense.set_parked(frame, true);
                    if let Some(e) = model.get_mut(&frame) {
                        e.1 = true;
                    }
                }
                _ => {
                    dense.set_parked(frame, false);
                    if let Some(e) = model.get_mut(&frame) {
                        e.1 = false;
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
        }
    }
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
        model.entry(FrameId(f)).or_insert((0, false)).0 += 1;
        r.add(FrameId(f));
    };
    // One full chunk of even frames, three of them parked.
    for f in (0..256).step_by(2) {
        add(&mut r, &mut model, f);
    }
    assert_eq!(r.chunk_lens(), [FrameRefs::CHUNK]);
    for f in [20, 128, 254] {
        r.set_parked(FrameId(f), true);
        model.get_mut(&FrameId(f)).unwrap().1 = true;
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
}
