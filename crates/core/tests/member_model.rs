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
        dense.frames().iter().eq(model.keys()),
        "{ctx}: ascending frames"
    );
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
    assert_eq!(dense.frames().len() as u64, N);
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
    assert!(dense.frames().is_empty());
}
