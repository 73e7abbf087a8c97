//! Randomized model tests for the memory substrate: the frame table and
//! per-tier capacity accounting must agree under arbitrary interleavings
//! of allocate / free / migrate / access.
//!
//! Sequences are generated from the in-tree seeded [`SplitMix64`] PRNG
//! (fixed seeds, so failures reproduce exactly) instead of an external
//! property-testing crate.

use std::collections::BTreeMap;

use kloc_mem::{
    DenseMap, FrameId, MemError, MemorySystem, PageKind, SplitMix64, TierId, PAGE_SIZE,
};

#[derive(Debug, Clone)]
enum Op {
    Alloc(u8, PageKind),
    Free(usize),
    Migrate(usize, u8),
    Read(usize, u16),
    Write(usize, u16),
}

const KINDS: [PageKind; 5] = [
    PageKind::AppData,
    PageKind::PageCache,
    PageKind::Slab,
    PageKind::KernelVma,
    PageKind::Vmalloc,
];

fn gen_op(rng: &mut SplitMix64) -> Op {
    match rng.gen_below(5) {
        0 => Op::Alloc(
            rng.gen_below(2) as u8,
            KINDS[rng.gen_below(KINDS.len() as u64) as usize],
        ),
        1 => Op::Free(rng.gen_below(64) as usize),
        2 => Op::Migrate(rng.gen_below(64) as usize, rng.gen_below(2) as u8),
        3 => Op::Read(rng.gen_below(64) as usize, rng.gen_range(1..4096) as u16),
        _ => Op::Write(rng.gen_below(64) as usize, rng.gen_range(1..4096) as u16),
    }
}

fn gen_ops(rng: &mut SplitMix64, min: u64, max: u64) -> Vec<Op> {
    (0..rng.gen_range(min..max)).map(|_| gen_op(rng)).collect()
}

/// Capacity accounting never drifts from the live-frame model, frames
/// are never double-freed, and pinned pages never move.
#[test]
fn frame_table_matches_model() {
    for case in 0..128u64 {
        let mut rng = SplitMix64::seed_from_u64(0x000F_7A3E_0000 + case);
        let ops = gen_ops(&mut rng, 1, 200);

        let fast_frames = 8u64;
        let mut mem = MemorySystem::two_tier(fast_frames * PAGE_SIZE, 8);
        // Model: (frame, tier, kind) for every live frame.
        let mut model: Vec<(FrameId, TierId, PageKind)> = Vec::new();

        for op in ops {
            match op {
                Op::Alloc(t, kind) => {
                    let tier = TierId(t);
                    match mem.allocate(tier, kind) {
                        Ok(id) => model.push((id, tier, kind)),
                        Err(MemError::TierFull(f)) => {
                            assert_eq!(f, tier);
                            let live_on = model.iter().filter(|(_, mt, _)| *mt == tier).count();
                            assert_eq!(
                                live_on as u64, fast_frames,
                                "case {case}: tier reported full but model disagrees"
                            );
                        }
                        Err(e) => panic!("case {case}: {e}"),
                    }
                }
                Op::Free(i) => {
                    if model.is_empty() {
                        continue;
                    }
                    let (id, _, _) = model.remove(i % model.len());
                    assert!(mem.free(id).is_ok());
                    assert_eq!(mem.free(id), Err(MemError::BadFrame(id)));
                }
                Op::Migrate(i, t) => {
                    if model.is_empty() {
                        continue;
                    }
                    let idx = i % model.len();
                    let (id, tier, kind) = model[idx];
                    let to = TierId(t);
                    match mem.migrate(id, to) {
                        Ok(_) => {
                            assert!(kind.relocatable());
                            assert_ne!(tier, to);
                            model[idx].1 = to;
                        }
                        Err(MemError::Pinned(_)) => assert!(!kind.relocatable()),
                        Err(MemError::AlreadyResident(_, _)) => assert_eq!(tier, to),
                        Err(MemError::TierFull(_)) => assert_eq!(to, TierId::FAST),
                        Err(e) => panic!("case {case}: {e}"),
                    }
                }
                Op::Read(i, b) => {
                    if model.is_empty() {
                        continue;
                    }
                    let (id, _, _) = model[i % model.len()];
                    let before = mem.now();
                    let cost = mem.read(id, b as u64);
                    assert_eq!(mem.now(), before + cost);
                }
                Op::Write(i, b) => {
                    if model.is_empty() {
                        continue;
                    }
                    let (id, _, _) = model[i % model.len()];
                    mem.write(id, b as u64);
                }
            }

            // Invariants checked after every step.
            assert_eq!(mem.live_frames(), model.len());
            for &(id, tier, kind) in &model {
                assert_eq!(mem.tier_of(id), tier);
                assert_eq!(mem.frame(id).unwrap().kind(), kind);
            }
            let fast_used = mem.tier_alloc(TierId::FAST).unwrap().used_frames();
            let model_fast = model.iter().filter(|(_, t, _)| *t == TierId::FAST).count() as u64;
            assert_eq!(fast_used, model_fast);
            assert!(fast_used <= fast_frames);
        }
    }
}

/// Residency statistics always sum to the number of live frames.
#[test]
fn residency_stats_sum_to_live() {
    for case in 0..128u64 {
        let mut rng = SplitMix64::seed_from_u64(0xBEE5_0000 + case);
        let ops = gen_ops(&mut rng, 1, 150);

        let mut mem = MemorySystem::two_tier(16 * PAGE_SIZE, 4);
        let mut live: Vec<FrameId> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc(t, k) => {
                    if let Ok(id) = mem.allocate(TierId(t), k) {
                        live.push(id);
                    }
                }
                Op::Free(i) if !live.is_empty() => {
                    let id = live.remove(i % live.len());
                    mem.free(id).unwrap();
                }
                Op::Migrate(i, t) if !live.is_empty() => {
                    let id = live[i % live.len()];
                    let _ = mem.migrate(id, TierId(t));
                }
                _ => {}
            }
            let resident: u64 = (0..mem.tier_count())
                .map(|i| mem.stats().tier(TierId(i as u8)).frames_resident)
                .sum();
            assert_eq!(resident as usize, live.len(), "case {case}");
        }
    }
}

/// The clock never runs backwards and costs are monotone in bytes.
#[test]
fn access_cost_monotone_in_bytes() {
    let mut rng = SplitMix64::seed_from_u64(0xC0517);
    for _ in 0..256 {
        let bytes = rng.gen_range(1..65536);
        let mut mem = MemorySystem::two_tier(16 * PAGE_SIZE, 8);
        let f = mem.allocate(TierId::FAST, PageKind::AppData).unwrap();
        let small = mem.read(f, bytes);
        let big = mem.read(f, bytes * 2);
        assert!(big >= small);
    }
}

/// `DenseMap` reads exactly as the `BTreeMap` it replaces in the stats
/// counters: under random increments (zero included) and lookups of two
/// map pairs, iteration order, values, length, `==`, `Index` and `{:?}`
/// agree after every step.
#[test]
fn dense_map_matches_btreemap() {
    for case in 0..256u64 {
        let mut rng = SplitMix64::seed_from_u64(0x00DE_05E0_0000 + case);
        let mut dense: [DenseMap<PageKind, u64>; 2] = Default::default();
        let mut model: [BTreeMap<PageKind, u64>; 2] = Default::default();
        for _ in 0..rng.gen_range(1..64) {
            let side = rng.gen_below(2) as usize;
            let key = PageKind::ALL[rng.gen_below(PageKind::ALL.len() as u64) as usize];
            let (d, m) = (&mut dense[side], &mut model[side]);
            match rng.gen_below(3) {
                0 | 1 => {
                    let by = rng.gen_below(3);
                    *d.get_or_default(key) += by;
                    *m.entry(key).or_default() += by;
                }
                _ => {
                    assert_eq!(d.get(&key), m.get(&key), "case {case}");
                    if let Some(v) = m.get(&key) {
                        assert_eq!(d[&key], *v, "case {case}");
                    }
                }
            }
            for (d, m) in dense.iter().zip(&model) {
                let d_pairs: Vec<_> = d.iter().map(|(&k, &v)| (k, v)).collect();
                let m_pairs: Vec<_> = m.iter().map(|(&k, &v)| (k, v)).collect();
                assert_eq!(d_pairs, m_pairs, "case {case}: entries in key order");
                assert!(d.values().eq(m.values()), "case {case}");
                assert_eq!(d.len(), m.len(), "case {case}");
                assert_eq!(d.is_empty(), m.is_empty(), "case {case}");
                assert_eq!(format!("{d:?}"), format!("{m:?}"), "case {case}");
            }
            assert_eq!(dense[0] == dense[1], model[0] == model[1], "case {case}");
        }
    }
}
