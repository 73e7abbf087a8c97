//! Nimble and Nimble++ (paper Table 5).
//!
//! **Nimble** reimplements the behaviour of Yan et al.'s page management
//! for tiered memory (ASPLOS '19): application pages are allocated fast
//! first and tiered by scan-based hotness detection with parallelized
//! page copies. Kernel objects are *not* managed — like the prior work
//! the paper describes (§3.2), they are allocated entirely in slow
//! memory on the two-tier platform.
//!
//! **Nimble++** is the paper's strawman extension: kernel pages join the
//! same scan-based mechanism (allocated fast-first, demoted when cold),
//! but without the KLOC abstraction the scan latency exceeds kernel
//! object lifetimes, so "once kernel objects are evicted to slow memory,
//! they rarely return to fast memory" (§6.2). That emerges here
//! naturally from the bounded scan rate.

use kloc_kernel::hooks::{CpuId, KernelHooks, PageRequest, Placement};
use kloc_kernel::{Kernel, ObjectId, ObjectInfo};
use kloc_mem::{FrameId, MemorySystem, MigrationCost, PageKind};

use crate::apptier::AppTier;
use crate::traits::Policy;

/// Prior-art application-page tiering.
#[derive(Debug, Default)]
pub struct Nimble {
    tier: AppTier,
}

impl Nimble {
    /// Creates the policy.
    pub fn new() -> Self {
        Nimble::default()
    }

    /// The underlying scan mechanism (for ablation reports).
    pub fn app_tier(&self) -> &AppTier {
        &self.tier
    }
}

impl KernelHooks for Nimble {
    fn place_page(&mut self, req: &PageRequest, _mem: &MemorySystem) -> Placement {
        if req.kind == PageKind::AppData {
            Placement::fast_then_slow()
        } else {
            // Kernel objects go to slow memory (prior-art behaviour, §3.2).
            Placement::slow_only()
        }
    }

    fn on_app_page_alloc(&mut self, frame: FrameId, _cpu: CpuId, _mem: &mut MemorySystem) {
        self.tier.on_alloc(frame);
    }

    fn on_app_page_access(&mut self, frame: FrameId, _cpu: CpuId, _mem: &mut MemorySystem) {
        self.tier.on_access(frame);
    }

    fn on_page_free(&mut self, frame: FrameId, _mem: &mut MemorySystem) {
        self.tier.on_free(frame);
    }
}

impl Policy for Nimble {
    fn name(&self) -> &'static str {
        "nimble"
    }

    fn tick(&mut self, _kernel: &Kernel, mem: &mut MemorySystem) {
        self.tier.tick(mem);
    }

    fn tick_interval(&self) -> kloc_mem::Nanos {
        // Scan cadence: slower than kernel object lifetimes (the paper's
        // central observation about scan-based tiering, §3.3).
        kloc_mem::Nanos::from_millis(2)
    }

    fn migration_cost(&self) -> MigrationCost {
        MigrationCost::parallel()
    }
}

/// Nimble extended to kernel objects without the KLOC abstraction.
#[derive(Debug, Default)]
pub struct NimblePlusPlus {
    tier: AppTier,
}

impl NimblePlusPlus {
    /// Creates the policy.
    pub fn new() -> Self {
        NimblePlusPlus::default()
    }

    /// The underlying scan mechanism.
    pub fn app_tier(&self) -> &AppTier {
        &self.tier
    }
}

impl KernelHooks for NimblePlusPlus {
    fn place_page(&mut self, _req: &PageRequest, _mem: &MemorySystem) -> Placement {
        // Kernel pages are also allowed into fast memory...
        Placement::fast_then_slow()
    }

    fn on_app_page_alloc(&mut self, frame: FrameId, _cpu: CpuId, _mem: &mut MemorySystem) {
        self.tier.on_alloc(frame);
    }

    fn on_app_page_access(&mut self, frame: FrameId, _cpu: CpuId, _mem: &mut MemorySystem) {
        self.tier.on_access(frame);
    }

    fn on_object_alloc(
        &mut self,
        _obj: ObjectId,
        _info: &ObjectInfo,
        frame: FrameId,
        _cpu: CpuId,
        mem: &mut MemorySystem,
    ) {
        // ...and tracked by the same scans — if they are relocatable at
        // all (slab pages are pinned: no KLOC allocation interface here).
        if let Ok(f) = mem.frame(frame) {
            if f.kind().relocatable() {
                self.tier.on_alloc(frame);
            }
        }
    }

    fn on_object_access(
        &mut self,
        _obj: ObjectId,
        _info: &ObjectInfo,
        frame: FrameId,
        _cpu: CpuId,
        _tenant: kloc_mem::TenantId,
        _mem: &mut MemorySystem,
    ) {
        self.tier.on_access(frame);
    }

    fn on_page_free(&mut self, frame: FrameId, _mem: &mut MemorySystem) {
        self.tier.on_free(frame);
    }
}

impl Policy for NimblePlusPlus {
    fn name(&self) -> &'static str {
        "nimble++"
    }

    fn tick(&mut self, _kernel: &Kernel, mem: &mut MemorySystem) {
        self.tier.tick(mem);
    }

    fn tick_interval(&self) -> kloc_mem::Nanos {
        kloc_mem::Nanos::from_millis(2)
    }

    fn migration_cost(&self) -> MigrationCost {
        MigrationCost::parallel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kloc_kernel::KernelObjectType;
    use kloc_mem::{TierId, PAGE_SIZE};

    fn req(kind: PageKind, ty: Option<KernelObjectType>) -> PageRequest {
        PageRequest {
            kind,
            ty,
            inode: None,
            readahead: false,
            cpu: CpuId(0),
            tenant: kloc_mem::TenantId::DEFAULT,
        }
    }

    #[test]
    fn nimble_sends_kernel_objects_to_slow() {
        let mem = MemorySystem::two_tier(1 << 20, 8);
        let mut p = Nimble::new();
        let app = p.place_page(&req(PageKind::AppData, None), &mem);
        let pc = p.place_page(
            &req(PageKind::PageCache, Some(KernelObjectType::PageCache)),
            &mem,
        );
        let slab = p.place_page(&req(PageKind::Slab, Some(KernelObjectType::Dentry)), &mem);
        assert_eq!(app[0], TierId::FAST);
        assert_eq!(pc[..], [TierId::SLOW]);
        assert_eq!(slab[..], [TierId::SLOW]);
    }

    #[test]
    fn nimblepp_lets_kernel_pages_into_fast() {
        let mem = MemorySystem::two_tier(1 << 20, 8);
        let mut p = NimblePlusPlus::new();
        let pc = p.place_page(
            &req(PageKind::PageCache, Some(KernelObjectType::PageCache)),
            &mem,
        );
        assert_eq!(pc[0], TierId::FAST);
    }

    #[test]
    fn nimblepp_tracks_relocatable_kernel_pages_only() {
        let mut mem = MemorySystem::two_tier(64 * PAGE_SIZE, 8);
        let mut p = NimblePlusPlus::new();
        let cache = mem.allocate(TierId::FAST, PageKind::PageCache).unwrap();
        let slab = mem.allocate(TierId::FAST, PageKind::Slab).unwrap();
        let info = ObjectInfo {
            ty: KernelObjectType::PageCache,
            size: 4096,
            inode: None,
        };
        p.on_object_alloc(ObjectId(1), &info, cache, CpuId(0), &mut mem);
        p.on_object_alloc(ObjectId(2), &info, slab, CpuId(0), &mut mem);
        assert_eq!(p.app_tier().tracked(), 1, "pinned slab page not tracked");
    }

    #[test]
    fn both_use_parallel_migration() {
        assert_eq!(Nimble::new().migration_cost(), MigrationCost::parallel());
        assert_eq!(
            NimblePlusPlus::new().migration_cost(),
            MigrationCost::parallel()
        );
    }

    #[test]
    fn nimble_tick_tiers_app_pages() {
        let mut mem = MemorySystem::two_tier(4 * PAGE_SIZE, 8);
        let kernel = Kernel::new(Default::default());
        let mut p = Nimble::new();
        // Fill fast with cold app pages.
        for _ in 0..4 {
            let f = mem.allocate(TierId::FAST, PageKind::AppData).unwrap();
            p.on_app_page_alloc(f, CpuId(0), &mut mem);
        }
        p.tick(&kernel, &mut mem);
        assert!(mem.migration_stats().demotions > 0);
    }
}
