//! kfault corruption suite: proves the crash-consistency checker
//! actually detects each violation class it claims to (the same
//! self-test pattern as the `ksan_break_*` hooks), and exercises the
//! blk-mq retry path end to end against the real kernel.

use kloc_kernel::hooks::{Ctx, NullHooks};
use kloc_kernel::recovery::{recover_breaking, BreakMode};
use kloc_kernel::{check, recover, CrashViolation, Kernel, KernelError, KernelParams};
use kloc_mem::{CrashPoint, DiskOp, FaultPlan, MemorySystem, Nanos, PAGE_SIZE};

fn machine() -> (MemorySystem, NullHooks, Kernel) {
    (
        MemorySystem::two_tier(1024 * PAGE_SIZE, 8),
        NullHooks::fast_first(),
        Kernel::new(KernelParams::default()),
    )
}

/// Drives the kernel to a crash torn mid-commit: file `/a` is written
/// and fsync'd (commit 0, a durability promise), then `/b` is created
/// and its commit (ordinal 1) tears after one journal block.
fn crash_mid_commit() -> Kernel {
    let (mut mem, mut hooks, mut k) = machine();
    mem.set_fault_plan(FaultPlan::new().with_crash(CrashPoint::Commit {
        index: 1,
        after_blocks: 1,
    }));
    let mut ctx = Ctx::new(&mut mem, &mut hooks);
    let fd = k.create(&mut ctx, "/a").unwrap();
    k.write(&mut ctx, fd, 0, 2 * PAGE_SIZE).unwrap();
    k.fsync(&mut ctx, fd).unwrap();
    k.create(&mut ctx, "/b").unwrap();
    assert_eq!(k.commit_journal(&mut ctx), Err(KernelError::Crashed));
    k
}

#[test]
fn faithful_recovery_of_torn_commit_passes_check() {
    let k = crash_mid_commit();
    assert_eq!(k.durable().journal.len(), 2);
    assert!(k.durable().journal[0].is_complete());
    assert!(!k.durable().journal[1].is_complete(), "commit 1 tore");
    assert_eq!(k.promise().committed_records, 1);
    assert!(!k.promise().pages.is_empty(), "/a's pages were promised");

    let r = recover(k.durable());
    assert_eq!(r.replayed, 1);
    assert_eq!(r.torn, 1);
    assert_eq!(check(k.durable(), k.promise(), &r), Vec::new());
}

#[test]
fn fsync_after_torn_commit_promises_only_complete_records() {
    let (mut mem, mut hooks, mut k) = machine();
    mem.set_fault_plan(FaultPlan::new().with_crash(CrashPoint::Commit {
        index: 3,
        after_blocks: 1,
    }));
    let mut ctx = Ctx::new(&mut mem, &mut hooks);
    let recount = |k: &Kernel| {
        k.durable()
            .journal
            .iter()
            .filter(|r| r.is_complete())
            .count()
    };
    let fd = k.create(&mut ctx, "/a").unwrap();
    for n in 0..3u64 {
        k.write(&mut ctx, fd, n * PAGE_SIZE, PAGE_SIZE).unwrap();
        k.fsync(&mut ctx, fd).unwrap();
        assert_eq!(k.promise().committed_records, recount(&k));
    }
    k.create(&mut ctx, "/b").unwrap();
    assert_eq!(k.commit_journal(&mut ctx), Err(KernelError::Crashed));
    assert!(!k.durable().journal[3].is_complete(), "commit 3 tore");
    // The kernel model keeps running past a commit crash; a later fsync
    // must promise the complete records and never the torn one.
    k.write(&mut ctx, fd, 3 * PAGE_SIZE, PAGE_SIZE).unwrap();
    k.fsync(&mut ctx, fd).unwrap();
    assert_eq!(k.promise().committed_records, recount(&k));
    assert_eq!(k.promise().committed_records, k.durable().journal.len() - 1);
}

#[test]
fn checker_detects_lost_fsynced_page() {
    let k = crash_mid_commit();
    let r = recover_breaking(k.durable(), BreakMode::LosePromisedPage);
    let violations = check(k.durable(), k.promise(), &r);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, CrashViolation::LostPage { .. })),
        "got {violations:?}"
    );
}

#[test]
fn checker_detects_torn_commit_applied() {
    let k = crash_mid_commit();
    let r = recover_breaking(k.durable(), BreakMode::ApplyTorn);
    let violations = check(k.durable(), k.promise(), &r);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, CrashViolation::TornApplied { .. })),
        "/b must not survive replay; got {violations:?}"
    );
}

#[test]
fn checker_detects_stale_metadata_after_replay() {
    let k = crash_mid_commit();
    let r = recover_breaking(k.durable(), BreakMode::SkipLastCommitted);
    let violations = check(k.durable(), k.promise(), &r);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, CrashViolation::StaleMeta { .. })),
        "dropping /a's committed record must be caught; got {violations:?}"
    );
}

#[test]
fn transient_write_faults_retry_with_backoff_and_succeed() {
    let (mut mem, mut hooks, mut k) = machine();
    mem.set_fault_plan(FaultPlan::new().with_disk_fault(Nanos::ZERO, DiskOp::Write, 2));
    let mut ctx = Ctx::new(&mut mem, &mut hooks);
    let fd = k.create(&mut ctx, "/f").unwrap();
    k.write(&mut ctx, fd, 0, 2 * PAGE_SIZE).unwrap();
    k.fsync(&mut ctx, fd).unwrap();
    assert_eq!(k.disk().stats().io_errors, 2);
    assert_eq!(k.disk().stats().retries, 2, "both failures were retried");
    assert_eq!(k.promise().committed_records, 1, "fsync still succeeded");
}

#[test]
fn persistent_faults_exhaust_the_retry_budget() {
    let (mut mem, mut hooks, mut k) = machine();
    // More consecutive failures than io_max_retries allows.
    let budget = KernelParams::default().io_max_retries;
    mem.set_fault_plan(FaultPlan::new().with_disk_fault(Nanos::ZERO, DiskOp::Write, budget + 5));
    let mut ctx = Ctx::new(&mut mem, &mut hooks);
    let fd = k.create(&mut ctx, "/f").unwrap();
    k.write(&mut ctx, fd, 0, PAGE_SIZE).unwrap();
    assert_eq!(k.fsync(&mut ctx, fd), Err(KernelError::Io(DiskOp::Write)));
    assert_eq!(k.disk().stats().retries, u64::from(budget));
    assert_eq!(k.disk().stats().io_errors, u64::from(budget) + 1);
}

#[test]
fn time_scheduled_crash_aborts_the_next_syscall() {
    let (mut mem, mut hooks, mut k) = machine();
    mem.set_fault_plan(FaultPlan::new().with_crash(CrashPoint::At(Nanos::ZERO)));
    let mut ctx = Ctx::new(&mut mem, &mut hooks);
    assert_eq!(k.create(&mut ctx, "/f"), Err(KernelError::Crashed));
    // Nothing reached the disk; recovery of the empty store is clean.
    let r = recover(k.durable());
    assert_eq!(r.replayed, 0);
    assert_eq!(check(k.durable(), k.promise(), &r), Vec::new());
}
