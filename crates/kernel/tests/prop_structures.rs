//! Randomized model tests for the kernel's core data structures: the
//! page-cache radix tree against a `BTreeMap` model, the LRU lists
//! against a recency model, the packed allocator against byte
//! accounting, and the extent tree's covered-prefix growth against the
//! full-scan definition of a missing span.
//!
//! Sequences come from the in-tree seeded `SplitMix64` PRNG (fixed
//! seeds, so failures reproduce exactly).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use kloc_kernel::extent::ExtentTree;
use kloc_kernel::hooks::{Ctx, NullHooks};
use kloc_kernel::lru::{List, PageLru};
use kloc_kernel::pagecache::PageCache;
use kloc_kernel::slab::PackedAllocator;
use kloc_kernel::vfs::InodeId;
use kloc_kernel::{KernelObjectType, ObjectId};
use kloc_mem::{FrameId, MemorySystem, PageKind, SplitMix64};

// ---------------------------------------------------------------------
// Page cache vs BTreeMap model
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum PcOp {
    Insert(u64, bool),
    Remove(u64),
    MarkDirty(u64),
    MarkClean(u64),
}

fn pc_op(rng: &mut SplitMix64) -> PcOp {
    match rng.gen_below(4) {
        0 => PcOp::Insert(rng.gen_below(256), rng.gen_bool()),
        1 => PcOp::Remove(rng.gen_below(256)),
        2 => PcOp::MarkDirty(rng.gen_below(256)),
        _ => PcOp::MarkClean(rng.gen_below(256)),
    }
}

/// The radix tree agrees with a flat map on membership, dirtiness,
/// dirty counts, and node bookkeeping (one node per populated chunk).
#[test]
fn pagecache_matches_model() {
    for case in 0..192u64 {
        let mut rng = SplitMix64::seed_from_u64(0x9A6E_0000 + case);
        let fanout = rng.gen_range(1..70);
        let ops: Vec<PcOp> = (0..rng.gen_range(1..250))
            .map(|_| pc_op(&mut rng))
            .collect();

        let mut pc = PageCache::new(fanout);
        let mut model: BTreeMap<u64, bool> = BTreeMap::new(); // idx -> dirty
        let mut next_obj = 0u64;

        for op in ops {
            match op {
                PcOp::Insert(idx, dirty) => {
                    if model.contains_key(&idx) {
                        continue;
                    }
                    if pc.needs_node(idx) {
                        pc.install_node(idx, ObjectId(1_000_000 + idx / fanout));
                    }
                    pc.insert(idx, ObjectId(next_obj), FrameId(next_obj), dirty);
                    next_obj += 1;
                    model.insert(idx, dirty);
                }
                PcOp::Remove(idx) => {
                    let removed = pc.remove(idx);
                    assert_eq!(removed.is_some(), model.remove(&idx).is_some());
                    if let Some(r) = removed {
                        // Node freed iff the chunk emptied.
                        let chunk = idx / fanout;
                        let chunk_live = model.keys().any(|k| k / fanout == chunk);
                        assert_eq!(r.freed_node.is_some(), !chunk_live);
                    }
                }
                PcOp::MarkDirty(idx) => {
                    let ok = pc.mark_dirty(idx);
                    assert_eq!(ok, model.contains_key(&idx));
                    if let Some(d) = model.get_mut(&idx) {
                        *d = true;
                    }
                }
                PcOp::MarkClean(idx) => {
                    let ok = pc.mark_clean(idx);
                    assert_eq!(ok, model.contains_key(&idx));
                    if let Some(d) = model.get_mut(&idx) {
                        *d = false;
                    }
                }
            }

            assert_eq!(pc.len(), model.len());
            assert_eq!(
                pc.dirty_pages(),
                model.values().filter(|d| **d).count() as u64
            );
            let chunks: std::collections::BTreeSet<u64> =
                model.keys().map(|k| k / fanout).collect();
            assert_eq!(pc.node_count(), chunks.len());
            for (&idx, &dirty) in &model {
                let page = pc.get(idx).expect("model page present");
                assert_eq!(page.dirty, dirty);
                assert!(pc.node_for(idx).is_some());
            }
            let listed: Vec<u64> = pc.iter().map(|(i, _)| i).collect();
            let expect: Vec<u64> = model.keys().copied().collect();
            assert_eq!(
                listed, expect,
                "case {case}: iteration order is index order"
            );
        }
    }
}

// ---------------------------------------------------------------------
// LRU vs recency model
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum LruOp {
    Insert(u64, bool),
    Access(u64),
    Remove(u64),
    Scan(u8),
    Age(u8),
}

fn lru_op(rng: &mut SplitMix64) -> LruOp {
    match rng.gen_below(5) {
        0 => LruOp::Insert(rng.gen_below(64), rng.gen_bool()),
        1 => LruOp::Access(rng.gen_below(64)),
        2 => LruOp::Remove(rng.gen_below(64)),
        3 => LruOp::Scan(rng.gen_range(1..16) as u8),
        _ => LruOp::Age(rng.gen_range(1..16) as u8),
    }
}

/// Membership never drifts, scans only evict unreferenced pages, and
/// counts always balance.
#[test]
fn lru_membership_and_counts() {
    for case in 0..192u64 {
        let mut rng = SplitMix64::seed_from_u64(0x12C8_0000 + case);
        let ops: Vec<LruOp> = (0..rng.gen_range(1..300))
            .map(|_| lru_op(&mut rng))
            .collect();

        let mut lru = PageLru::new();
        let mut member: HashMap<u64, ()> = HashMap::new();

        for op in ops {
            match op {
                LruOp::Insert(f, active) => {
                    if member.contains_key(&f) {
                        continue;
                    }
                    lru.insert(
                        FrameId(f),
                        if active { List::Active } else { List::Inactive },
                    );
                    member.insert(f, ());
                }
                LruOp::Access(f) => {
                    lru.mark_accessed(FrameId(f)); // no-op when untracked
                }
                LruOp::Remove(f) => {
                    assert_eq!(lru.remove(FrameId(f)), member.remove(&f).is_some());
                }
                LruOp::Scan(n) => {
                    let before_inactive = lru.inactive_len();
                    let out = lru.scan_inactive(n as usize);
                    assert!(out.scanned <= n as usize);
                    assert!(out.scanned <= before_inactive);
                    assert_eq!(out.scanned, out.evict.len() + out.promoted);
                    // Evicted frames left the structure entirely.
                    for f in &out.evict {
                        assert!(!lru.contains(*f));
                        member.remove(&f.0);
                    }
                }
                LruOp::Age(n) => {
                    let before_active = lru.active_len();
                    let moved = lru.age_active(n as usize);
                    assert!(moved <= before_active.min(n as usize));
                }
            }

            assert_eq!(lru.len(), member.len(), "case {case}");
            assert_eq!(lru.active_len() + lru.inactive_len(), lru.len());
            // lint: ordered-ok — membership check only; order-insensitive.
            for f in member.keys() {
                assert!(lru.contains(FrameId(*f)));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Packed allocator vs byte accounting
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum SlabOp {
    Alloc(u8, u8),
    Free(usize),
}

fn slab_op(rng: &mut SplitMix64) -> SlabOp {
    if rng.gen_bool() {
        SlabOp::Alloc(rng.gen_below(14) as u8, rng.gen_below(6) as u8)
    } else {
        SlabOp::Free(rng.gen_below(128) as usize)
    }
}

/// Live bytes never exceed frame capacity; the allocator never leaks
/// frames; freeing everything returns every frame.
#[test]
fn packed_allocator_conserves_frames() {
    for case in 0..128u64 {
        let mut rng = SplitMix64::seed_from_u64(0x51AB_0000 + case);
        let sharded = rng.gen_bool();
        let ops: Vec<SlabOp> = (0..rng.gen_range(1..250))
            .map(|_| slab_op(&mut rng))
            .collect();

        let mut mem = MemorySystem::two_tier(u64::MAX, 8);
        let mut hooks = NullHooks::fast_first();
        let kind = if sharded {
            PageKind::KernelVma
        } else {
            PageKind::Slab
        };
        let mut alloc = PackedAllocator::new(kind, if sharded { Some(4) } else { None });
        // Live objects: (ty, inode, frame).
        let mut live: Vec<(KernelObjectType, Option<InodeId>, FrameId)> = Vec::new();

        for op in ops {
            let mut ctx = Ctx::new(&mut mem, &mut hooks);
            match op {
                SlabOp::Alloc(t, i) => {
                    let ty = KernelObjectType::ALL[t as usize % KernelObjectType::ALL.len()];
                    if !matches!(ty.backing(), kloc_kernel::Backing::Slab) {
                        continue;
                    }
                    let inode = if i == 0 {
                        None
                    } else {
                        Some(InodeId(i as u64))
                    };
                    let f = alloc.alloc(&mut ctx, ty, inode, false).unwrap();
                    assert!(ctx.mem.is_live(f));
                    live.push((ty, inode, f));
                }
                SlabOp::Free(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (ty, inode, f) = live.remove(i % live.len());
                    alloc.free(&mut ctx, ty, inode, f).unwrap();
                }
            }
            let _ = ctx;

            // Frame count bounded by object count (packing can only help),
            // and bytes fit: per live frame, sum of resident object sizes
            // cannot exceed a page.
            assert!(alloc.live_frames() <= live.len());
            let mut per_frame: HashMap<FrameId, u64> = HashMap::new();
            for (ty, _, f) in &live {
                *per_frame.entry(*f).or_default() += ty.size();
            }
            // lint: ordered-ok — per-frame bound check; order-insensitive.
            for (f, bytes) in &per_frame {
                assert!(
                    *bytes <= kloc_mem::PAGE_SIZE,
                    "case {case}: frame {f} overpacked: {bytes} bytes"
                );
            }
            assert_eq!(per_frame.len(), alloc.live_frames());
        }

        // Full teardown: no leaked frames.
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        for (ty, inode, f) in live.drain(..) {
            alloc.free(&mut ctx, ty, inode, f).unwrap();
        }
        assert_eq!(alloc.live_frames(), 0);
        assert_eq!(ctx.mem.live_frames(), 0);
    }
}

// ---------------------------------------------------------------------
// Extent tree vs full-scan definition
// ---------------------------------------------------------------------

/// The definition `missing_spans` had before it learned the covered
/// prefix: every span start from 0 through the last byte, minus the
/// covered ones.
fn full_scan_missing(span: u64, covered: &BTreeSet<u64>, new_size: u64) -> Vec<u64> {
    if new_size == 0 {
        return Vec::new();
    }
    (0..=(new_size - 1) / span)
        .map(|i| i * span)
        .filter(|start| !covered.contains(start))
        .collect()
}

/// Random grows (the kernel's write path: insert exactly the missing
/// spans), out-of-order single `insert`s anywhere through the pub API,
/// and drains: `missing_spans` always equals the full-scan definition,
/// and lookups and the extent count agree with the model.
#[test]
fn extent_tree_matches_full_scan() {
    for case in 0..128u64 {
        let mut rng = SplitMix64::seed_from_u64(0xE7E7_0000 + case);
        let span = [1u64, 512, 4096, 1 << 20][rng.gen_below(4) as usize];
        let mut tree = ExtentTree::new(span);
        let mut model: BTreeSet<u64> = BTreeSet::new();
        let mut next_obj = 0u64;
        for step in 0..rng.gen_range(1..200) {
            let size = rng.gen_below(48 * span);
            let want = full_scan_missing(span, &model, size);
            assert_eq!(
                tree.missing_spans(size),
                want,
                "case {case} step {step}: size {size}"
            );
            match rng.gen_below(10) {
                // Grow: cover everything up to `size`.
                0..=4 => {
                    for start in want {
                        next_obj += 1;
                        tree.insert(start, ObjectId(next_obj));
                        model.insert(start);
                    }
                }
                // One span anywhere, often past a gap.
                5..=8 => {
                    let start = rng.gen_below(64) * span;
                    if model.insert(start) {
                        next_obj += 1;
                        tree.insert(start, ObjectId(next_obj));
                    }
                }
                _ => {
                    assert_eq!(tree.drain().len(), model.len());
                    model.clear();
                }
            }
            assert_eq!(tree.len(), model.len());
            let probe = rng.gen_below(64 * span);
            assert_eq!(
                tree.lookup(probe).is_some(),
                model.contains(&(probe / span * span)),
                "case {case} step {step}: lookup {probe}"
            );
        }
    }
}
