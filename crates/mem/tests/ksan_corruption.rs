//! Corruption-injection tests: desync each audited structure pair in the
//! memory substrate and assert the sanitizer reports exactly that pair.

use kloc_mem::ksan::{enforce, ClockMonitor, Violation};
use kloc_mem::{MemorySystem, Nanos, PageKind, TierId, PAGE_SIZE};

fn audited(mem: &MemorySystem) -> Vec<Violation> {
    let mut out = Vec::new();
    mem.ksan_audit(&mut out);
    out
}

fn small() -> MemorySystem {
    let mut mem = MemorySystem::two_tier(4 * PAGE_SIZE, 8);
    for _ in 0..3 {
        mem.allocate(TierId::FAST, PageKind::AppData).unwrap();
    }
    mem.allocate(TierId::SLOW, PageKind::PageCache).unwrap();
    mem
}

#[test]
fn clean_system_audits_clean() {
    let mem = small();
    assert_eq!(audited(&mem), vec![]);
}

#[test]
fn frame_table_live_count_desync_is_caught() {
    let mut mem = small();
    mem.ksan_break_frame_live_count();
    let out = audited(&mem);
    assert!(
        out.iter()
            .any(|v| v.structures == "FrameTable.live <-> FrameTable.ids"),
        "{out:#?}"
    );
    // The skewed live counter also breaks the slot-space partition.
    assert!(
        out.iter()
            .any(|v| v.structures == "FrameTable.free <-> FrameTable.ids"),
        "{out:#?}"
    );
}

/// A system with free-list population: allocate then free some frames so
/// the free list holds entries.
fn churned() -> MemorySystem {
    let mut mem = MemorySystem::two_tier(16 * PAGE_SIZE, 8);
    let ids: Vec<_> = (0..8)
        .map(|_| mem.allocate(TierId::FAST, PageKind::AppData).unwrap())
        .collect();
    for id in &ids[2..6] {
        mem.free(*id).unwrap();
    }
    mem
}

#[test]
fn churned_system_audits_clean() {
    assert_eq!(audited(&churned()), vec![]);
}

#[test]
fn free_list_duplicate_is_caught() {
    let mut mem = churned();
    mem.ksan_break_free_duplicate();
    let out = audited(&mem);
    assert!(
        out.iter()
            .any(|v| v.structures == "FrameTable.free distinctness"),
        "{out:#?}"
    );
}

#[test]
fn free_list_accounting_desync_is_caught() {
    let mut mem = churned();
    mem.ksan_break_free_accounting();
    let out = audited(&mem);
    // The dropped slot is neither live nor free: the partition breaks.
    assert!(
        out.iter()
            .any(|v| v.structures == "FrameTable.free <-> FrameTable.ids"
                && v.invariant == "free + live partition the slot space"),
        "{out:#?}"
    );
}

#[test]
fn soa_column_length_desync_is_caught() {
    let mut mem = churned();
    mem.ksan_break_soa_column();
    let out = audited(&mem);
    assert!(
        out.iter()
            .any(|v| v.structures == "FrameTable records <-> cold columns"
                && v.object.contains("allocated_at")),
        "{out:#?}"
    );
}

#[test]
fn tier_accounting_desync_is_caught() {
    let mut mem = small();
    mem.ksan_break_tier_accounting();
    let out = audited(&mem);
    assert_eq!(out.len(), 1, "{out:#?}");
    assert_eq!(
        out[0].structures,
        "TierAllocator.used_frames <-> FrameTable"
    );
    assert_eq!(out[0].object, "tier0");
    assert!(out[0].expected.contains("3 resident frames"), "{out:#?}");
    assert!(out[0].actual.contains("used_frames = 4"), "{out:#?}");
}

#[test]
#[should_panic(expected = "TierAllocator.used_frames <-> FrameTable")]
fn enforce_panics_naming_the_desynced_pair() {
    let mut mem = small();
    mem.ksan_break_tier_accounting();
    enforce("corruption test", &audited(&mem));
}

#[test]
fn clock_regression_is_caught() {
    let mut mon = ClockMonitor::new();
    let mut out = Vec::new();
    mon.observe(Nanos::new(100), &mut out);
    mon.observe(Nanos::new(40), &mut out);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].structures, "Clock");
    assert!(out[0].actual.contains("40"), "{out:#?}");
}
