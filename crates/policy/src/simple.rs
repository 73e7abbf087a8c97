//! Bound and baseline policies: All-Fast, All-Slow, and Naive.

use kloc_kernel::hooks::{KernelHooks, PageRequest, Placement};
use kloc_kernel::Kernel;
use kloc_mem::MemorySystem;

use crate::traits::Policy;

/// Upper bound: place everything in fast memory (run with a fast tier
/// large enough to hold the workload). Paper's "All Fast Mem".
#[derive(Debug, Default)]
pub struct AllFast(());

impl AllFast {
    /// Creates the policy.
    pub fn new() -> Self {
        AllFast(())
    }
}

impl KernelHooks for AllFast {
    fn place_page(&mut self, _req: &PageRequest, _mem: &MemorySystem) -> Placement {
        Placement::fast_then_slow()
    }
}

impl Policy for AllFast {
    fn name(&self) -> &'static str {
        "all-fast"
    }
    fn tick(&mut self, _kernel: &Kernel, _mem: &mut MemorySystem) {}
}

/// Lower bound: place everything in slow memory. Paper's "All Slow Mem"
/// — the normalization baseline of Fig. 4.
#[derive(Debug, Default)]
pub struct AllSlow(());

impl AllSlow {
    /// Creates the policy.
    pub fn new() -> Self {
        AllSlow(())
    }
}

impl KernelHooks for AllSlow {
    fn place_page(&mut self, _req: &PageRequest, _mem: &MemorySystem) -> Placement {
        Placement::slow_only()
    }
}

impl Policy for AllSlow {
    fn name(&self) -> &'static str {
        "all-slow"
    }
    fn tick(&mut self, _kernel: &Kernel, _mem: &mut MemorySystem) {}
}

/// Greedy first-come-first-served: everything goes to fast memory until
/// it fills; afterwards allocations land in slow memory and *nothing
/// migrates* — fast memory only frees up on deallocation (paper
/// Table 5). Cold data therefore pollutes fast memory indefinitely.
#[derive(Debug, Default)]
pub struct Naive(());

impl Naive {
    /// Creates the policy.
    pub fn new() -> Self {
        Naive(())
    }
}

impl KernelHooks for Naive {
    fn place_page(&mut self, _req: &PageRequest, _mem: &MemorySystem) -> Placement {
        Placement::fast_then_slow()
    }
}

impl Policy for Naive {
    fn name(&self) -> &'static str {
        "naive"
    }
    fn tick(&mut self, _kernel: &Kernel, _mem: &mut MemorySystem) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use kloc_kernel::hooks::CpuId;
    use kloc_mem::{PageKind, TierId};

    fn req() -> PageRequest {
        PageRequest {
            kind: PageKind::AppData,
            ty: None,
            inode: None,
            readahead: false,
            cpu: CpuId(0),
            tenant: kloc_mem::TenantId::DEFAULT,
        }
    }

    #[test]
    fn all_slow_never_uses_fast() {
        let mem = MemorySystem::two_tier(1 << 20, 8);
        let mut p = AllSlow::new();
        assert_eq!(p.place_page(&req(), &mem)[..], [TierId::SLOW]);
    }

    #[test]
    fn naive_spills_but_never_migrates() {
        let mut mem = MemorySystem::two_tier(2 * 4096, 8);
        let mut p = Naive::new();
        let pl = p.place_page(&req(), &mem);
        assert_eq!(pl[0], TierId::FAST);
        // Fill fast; further allocations spill.
        let a = mem.allocate_preferring(&pl, PageKind::AppData).unwrap();
        let _b = mem.allocate_preferring(&pl, PageKind::AppData).unwrap();
        let c = mem.allocate_preferring(&pl, PageKind::AppData).unwrap();
        assert_eq!(mem.tier_of(a), TierId::FAST);
        assert_eq!(mem.tier_of(c), TierId::SLOW);
        // Tick does nothing.
        let kernel = Kernel::new(Default::default());
        p.tick(&kernel, &mut mem);
        assert_eq!(mem.migration_stats().total(), 0);
    }
}
