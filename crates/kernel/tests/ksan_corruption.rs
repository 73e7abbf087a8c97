//! Corruption-injection tests for the kernel-side sanitizer: desync each
//! audited structure pair and assert the audit reports exactly that pair.
//!
//! Gated on the `ksan` feature (see `[[test]]` in Cargo.toml); run with
//! `cargo test -p kloc-kernel --features ksan`.

use kloc_kernel::hooks::{Ctx, NullHooks};
use kloc_kernel::lru::{List, PageLru};
use kloc_kernel::{Kernel, KernelParams};
use kloc_mem::ksan::Violation;
use kloc_mem::{FrameId, MemorySystem};

fn setup() -> (MemorySystem, NullHooks, Kernel) {
    (
        MemorySystem::two_tier(1024 * kloc_mem::PAGE_SIZE, 8),
        NullHooks::fast_first(),
        Kernel::new(KernelParams::default()),
    )
}

/// A kernel with a few cached (and dirty) file pages.
fn populated() -> (MemorySystem, NullHooks, Kernel) {
    let (mut mem, mut hooks, mut kernel) = setup();
    {
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let fd = kernel.create(&mut ctx, "/ksan").unwrap();
        kernel.write(&mut ctx, fd, 0, 3 * 4096).unwrap();
        kernel.read(&mut ctx, fd, 0, 4096).unwrap();
    }
    (mem, hooks, kernel)
}

fn audited(kernel: &Kernel, mem: &MemorySystem) -> Vec<Violation> {
    let mut out = Vec::new();
    kernel.ksan_audit(mem, &mut out);
    out
}

#[test]
fn populated_kernel_audits_clean() {
    let (mem, _hooks, kernel) = populated();
    assert_eq!(audited(&kernel, &mem), vec![]);
}

#[test]
fn cache_index_desync_is_caught() {
    let (mem, _hooks, mut kernel) = populated();
    kernel.ksan_break_cache_index();
    let out = audited(&kernel, &mem);
    assert!(
        out.iter()
            .any(|v| v.structures == "PageCache <-> Kernel.cache_index"),
        "{out:#?}"
    );
    assert!(
        out.iter().all(|v| v.structures.contains("cache_index")),
        "only the reverse-map pair should fire: {out:#?}"
    );
}

#[test]
fn cache_lru_desync_is_caught() {
    let (mem, _hooks, mut kernel) = populated();
    kernel.ksan_break_cache_lru();
    let out = audited(&kernel, &mem);
    assert!(
        out.iter()
            .any(|v| v.structures == "PageCache <-> Kernel.cache_lru"),
        "{out:#?}"
    );
    assert!(
        out.iter()
            .any(|v| v.structures == "Kernel.cache_lru <-> PageCache"),
        "the LRU population count should also disagree: {out:#?}"
    );
}

#[test]
fn lru_index_desync_is_caught() {
    let mut lru = PageLru::new();
    for i in 0..4 {
        lru.insert(
            FrameId(i),
            if i % 2 == 0 {
                List::Active
            } else {
                List::Inactive
            },
        );
    }
    let mut out = Vec::new();
    lru.ksan_audit(&mut out);
    assert_eq!(out, vec![]);

    lru.ksan_break_index(FrameId(2));
    lru.ksan_audit(&mut out);
    assert!(
        out.iter()
            .any(|v| v.structures == "PageLru list links <-> PageLru.index"
                && v.object == "frame frame2"),
        "{out:#?}"
    );
    assert!(
        out.iter()
            .any(|v| v.structures == "PageLru.index <-> PageLru.tracked"),
        "{out:#?}"
    );
}

#[test]
fn slab_cache_link_desync_is_caught() {
    let (mut mem, mut hooks, mut kernel) = setup();
    {
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let fd = kernel.create(&mut ctx, "/slab").unwrap();
        kernel.write(&mut ctx, fd, 0, 4096).unwrap();
    }
    assert_eq!(audited(&kernel, &mem), vec![]);
    // Reach the slab allocator indirectly: breaking the kernel's own
    // allocator state is not exposed, so corrupt a standalone one.
    use kloc_kernel::slab::PackedAllocator;
    use kloc_kernel::KernelObjectType;
    use kloc_mem::PageKind;
    let mut slab = PackedAllocator::new(PageKind::Slab, None);
    {
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        slab.alloc(&mut ctx, KernelObjectType::Dentry, None, false)
            .unwrap();
    }
    let mut out = Vec::new();
    slab.ksan_audit(&mem, &mut out);
    assert_eq!(out, vec![]);
    slab.ksan_break_frame_key();
    slab.ksan_audit(&mem, &mut out);
    assert!(
        out.iter()
            .any(|v| v.structures == "PackedAllocator.frames <-> PackedAllocator.caches"),
        "{out:#?}"
    );
}
