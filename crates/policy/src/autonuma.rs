//! AutoNUMA and AutoNUMA+KLOCs (the Optane Memory Mode platform,
//! paper §4.5 and Fig. 5a).
//!
//! On the two-socket Optane platform each socket is a PMEM tier behind a
//! hardware-managed DRAM cache; the OS balances *between sockets*. Vanilla
//! AutoNUMA migrates application pages toward the task's current socket
//! (modeled as periodic hint-fault scans) but **ignores kernel objects**,
//! which stay on whichever socket allocated them even after the scheduler
//! moves the task away from an interfering co-runner. The KLOC extension
//! walks the active knodes and migrates their members too.

use std::collections::BTreeSet;

use kloc_core::{KlocConfig, KlocRegistry};
use kloc_kernel::hooks::{CpuId, KernelHooks, PageRequest, Placement};
use kloc_kernel::{Kernel, ObjectId, ObjectInfo};
use kloc_mem::{FrameId, MemorySystem, Nanos, TenantId, TierId};

use crate::traits::Policy;

/// Shared socket-affinity mechanics.
#[derive(Debug)]
struct NumaCore {
    task_socket: u8,
    app_pages: BTreeSet<FrameId>,
    /// Pages migrated per tick (hint-fault rate limit).
    batch: usize,
    /// Cost per examined page (NUMA hint fault handling).
    scan_cost: Nanos,
    migrated_app: u64,
}

impl NumaCore {
    fn new() -> Self {
        NumaCore {
            task_socket: 0,
            app_pages: BTreeSet::new(),
            batch: 256,
            scan_cost: Nanos::from_micros(1),
            migrated_app: 0,
        }
    }

    fn home_tier(&self) -> TierId {
        TierId(self.task_socket)
    }

    fn placement(&self) -> Placement {
        let home = self.home_tier();
        let other = TierId(1 - self.task_socket.min(1));
        Placement::new(&[home, other])
    }

    /// Migrates up to `batch` tracked app pages toward the task socket.
    fn balance_app_pages(&mut self, mem: &mut MemorySystem) {
        let home = self.home_tier();
        let remote: Vec<FrameId> = self
            .app_pages
            .iter()
            .copied()
            .filter(|f| mem.is_live(*f) && mem.tier_of(*f) != home)
            .take(self.batch)
            .collect();
        mem.charge(self.scan_cost * remote.len() as u64);
        for f in remote {
            if mem.migrate(f, home).is_ok() {
                self.migrated_app += 1;
            }
        }
    }
}

/// Vanilla AutoNUMA: app pages follow the task; kernel objects do not.
#[derive(Debug)]
pub struct AutoNuma {
    core: NumaCore,
    parallel: bool,
}

impl Default for AutoNuma {
    fn default() -> Self {
        AutoNuma::new()
    }
}

impl AutoNuma {
    /// Creates the policy.
    pub fn new() -> Self {
        AutoNuma {
            core: NumaCore::new(),
            parallel: false,
        }
    }

    /// Nimble configured for the NUMA platform: same app-page-only
    /// scope as AutoNUMA but with a larger migration batch and parallel
    /// page copies — slightly better than vanilla AutoNUMA, as in the
    /// paper's Fig. 5a ordering (KLOCs 1.5x over AutoNUMA, 1.4x over
    /// Nimble).
    pub fn nimble_flavor() -> Self {
        let mut p = AutoNuma::new();
        p.core.batch = 512;
        p.parallel = true;
        p
    }

    /// Application pages migrated so far.
    pub fn migrated_app_pages(&self) -> u64 {
        self.core.migrated_app
    }
}

impl KernelHooks for AutoNuma {
    fn place_page(&mut self, _req: &PageRequest, _mem: &MemorySystem) -> Placement {
        self.core.placement()
    }

    fn on_app_page_alloc(&mut self, frame: FrameId, _cpu: CpuId, _mem: &mut MemorySystem) {
        self.core.app_pages.insert(frame);
    }

    fn on_page_free(&mut self, frame: FrameId, _mem: &mut MemorySystem) {
        self.core.app_pages.remove(&frame);
    }
}

impl Policy for AutoNuma {
    fn name(&self) -> &'static str {
        if self.parallel {
            "nimble-numa"
        } else {
            "autonuma"
        }
    }

    fn tick(&mut self, _kernel: &Kernel, mem: &mut MemorySystem) {
        self.core.balance_app_pages(mem);
    }

    fn tick_interval(&self) -> Nanos {
        Nanos::from_millis(1)
    }

    fn migration_cost(&self) -> kloc_mem::MigrationCost {
        if self.parallel {
            kloc_mem::MigrationCost::parallel()
        } else {
            kloc_mem::MigrationCost::sequential()
        }
    }

    fn set_task_socket(&mut self, socket: u8) {
        self.core.task_socket = socket;
    }
}

/// AutoNUMA enhanced with KLOCs: kernel objects of active knodes follow
/// the task across sockets (§4.5).
#[derive(Debug)]
pub struct AutoNumaKloc {
    core: NumaCore,
    registry: KlocRegistry,
    migrated_kernel: u64,
    /// Reusable active-knode buffer for the tick (no per-tick
    /// allocation).
    active_scratch: Vec<kloc_kernel::InodeId>,
}

impl Default for AutoNumaKloc {
    fn default() -> Self {
        AutoNumaKloc::new()
    }
}

impl AutoNumaKloc {
    /// Creates the policy.
    pub fn new() -> Self {
        AutoNumaKloc {
            core: NumaCore::new(),
            registry: KlocRegistry::new(KlocConfig::default()),
            migrated_kernel: 0,
            active_scratch: Vec::new(),
        }
    }

    /// Kernel-object pages migrated so far.
    pub fn migrated_kernel_pages(&self) -> u64 {
        self.migrated_kernel
    }
}

impl KernelHooks for AutoNumaKloc {
    fn place_page(&mut self, _req: &PageRequest, _mem: &MemorySystem) -> Placement {
        self.core.placement()
    }

    fn relocatable_kernel_alloc(&self) -> bool {
        true
    }

    fn early_socket_demux(&self) -> bool {
        true
    }

    fn on_inode_create(
        &mut self,
        inode: kloc_kernel::InodeId,
        cpu: CpuId,
        tenant: TenantId,
        mem: &mut MemorySystem,
    ) {
        self.registry
            .inode_created_by(inode, cpu, tenant, mem.now());
    }

    fn on_inode_open(&mut self, inode: kloc_kernel::InodeId, cpu: CpuId, mem: &mut MemorySystem) {
        self.registry.inode_opened(inode, cpu, mem.now());
        // An opened inode is in use: pull its kernel objects to the
        // task's socket right away (§4.5 — active KLOCs' objects are
        // checked for locality and migrated when remote).
        let home = self.core.home_tier();
        self.migrated_kernel += self.registry.migrate_knode(inode, mem, home);
    }

    fn on_inode_close(&mut self, inode: kloc_kernel::InodeId, mem: &mut MemorySystem) {
        self.registry.inode_closed(inode, mem.now());
    }

    fn on_inode_destroy(&mut self, inode: kloc_kernel::InodeId, mem: &mut MemorySystem) {
        self.registry.inode_destroyed(inode, mem.now());
    }

    fn on_object_alloc(
        &mut self,
        obj: ObjectId,
        info: &ObjectInfo,
        frame: FrameId,
        cpu: CpuId,
        mem: &mut MemorySystem,
    ) {
        self.registry
            .object_allocated(obj, info, frame, cpu, mem.now());
    }

    fn on_object_associate(
        &mut self,
        obj: ObjectId,
        info: &ObjectInfo,
        frame: FrameId,
        cpu: CpuId,
        mem: &mut MemorySystem,
    ) {
        self.registry
            .object_associated(obj, info, frame, cpu, mem.now());
    }

    fn on_object_free(
        &mut self,
        obj: ObjectId,
        info: &ObjectInfo,
        frame: FrameId,
        _mem: &mut MemorySystem,
    ) {
        self.registry.object_freed(obj, info, frame);
    }

    fn on_object_access(
        &mut self,
        _obj: ObjectId,
        info: &ObjectInfo,
        _frame: FrameId,
        cpu: CpuId,
        tenant: TenantId,
        mem: &mut MemorySystem,
    ) {
        self.registry
            .object_accessed_by(info, cpu, tenant, mem.now());
    }

    fn on_app_page_alloc(&mut self, frame: FrameId, _cpu: CpuId, _mem: &mut MemorySystem) {
        self.core.app_pages.insert(frame);
    }

    fn on_page_free(&mut self, frame: FrameId, _mem: &mut MemorySystem) {
        self.core.app_pages.remove(&frame);
    }
}

impl Policy for AutoNumaKloc {
    fn name(&self) -> &'static str {
        "autonuma-kloc"
    }

    fn tick_interval(&self) -> Nanos {
        Nanos::from_millis(1)
    }

    fn tick(&mut self, _kernel: &Kernel, mem: &mut MemorySystem) {
        self.core.balance_app_pages(mem);
        // §4.5: for all active KLOCs, pull remote kernel objects local.
        // The kmap's active index names them directly — the inactive
        // population is never walked.
        let home = self.core.home_tier();
        let mut active = std::mem::take(&mut self.active_scratch);
        active.clear();
        active.extend(self.registry.kmap().active_knodes().map(|k| k.inode()));
        for &ino in &active {
            self.migrated_kernel += self.registry.migrate_knode(ino, mem, home);
        }
        self.active_scratch = active;
    }

    fn migration_cost(&self) -> kloc_mem::MigrationCost {
        // KLOCs reuse Nimble's parallel background page copy (§6.2).
        kloc_mem::MigrationCost::parallel()
    }

    fn set_task_socket(&mut self, socket: u8) {
        self.core.task_socket = socket;
    }

    fn registry(&self) -> Option<&KlocRegistry> {
        Some(&self.registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kloc_kernel::{InodeId, KernelObjectType};
    use kloc_mem::{PageKind, PAGE_SIZE};

    fn numa() -> MemorySystem {
        MemorySystem::numa_two_socket(1024 * PAGE_SIZE)
    }

    #[test]
    fn placement_follows_task_socket() {
        let mem = numa();
        let mut p = AutoNuma::new();
        let req = PageRequest {
            kind: PageKind::AppData,
            ty: None,
            inode: None,
            readahead: false,
            cpu: CpuId(0),
            tenant: TenantId::DEFAULT,
        };
        assert_eq!(p.place_page(&req, &mem)[0], TierId(0));
        p.set_task_socket(1);
        assert_eq!(p.place_page(&req, &mem)[0], TierId(1));
    }

    #[test]
    fn app_pages_follow_task_kernel_pages_do_not() {
        let mut mem = numa();
        let kernel = Kernel::new(Default::default());
        let mut p = AutoNuma::new();
        let app = mem.allocate(TierId(0), PageKind::AppData).unwrap();
        let kobj = mem.allocate(TierId(0), PageKind::PageCache).unwrap();
        p.on_app_page_alloc(app, CpuId(0), &mut mem);
        // Task moves to socket 1 (e.g. interference on socket 0).
        p.set_task_socket(1);
        p.tick(&kernel, &mut mem);
        assert_eq!(mem.tier_of(app), TierId(1), "app page followed");
        assert_eq!(mem.tier_of(kobj), TierId(0), "kernel page stranded");
        assert_eq!(p.migrated_app_pages(), 1);
    }

    #[test]
    fn kloc_variant_moves_active_knode_members() {
        let mut mem = numa();
        let kernel = Kernel::new(Default::default());
        let mut p = AutoNumaKloc::new();
        p.on_inode_create(InodeId(1), CpuId(0), TenantId::DEFAULT, &mut mem);
        let f = mem.allocate(TierId(0), PageKind::PageCache).unwrap();
        let info = ObjectInfo {
            ty: KernelObjectType::PageCache,
            size: 4096,
            inode: Some(InodeId(1)),
        };
        p.on_object_alloc(ObjectId(1), &info, f, CpuId(0), &mut mem);
        p.set_task_socket(1);
        p.tick(&kernel, &mut mem);
        assert_eq!(mem.tier_of(f), TierId(1), "kernel object followed the task");
        assert_eq!(p.migrated_kernel_pages(), 1);
    }

    #[test]
    fn kloc_variant_ignores_inactive_knodes() {
        let mut mem = numa();
        let kernel = Kernel::new(Default::default());
        let mut p = AutoNumaKloc::new();
        p.on_inode_create(InodeId(1), CpuId(0), TenantId::DEFAULT, &mut mem);
        let f = mem.allocate(TierId(0), PageKind::PageCache).unwrap();
        let info = ObjectInfo {
            ty: KernelObjectType::PageCache,
            size: 4096,
            inode: Some(InodeId(1)),
        };
        p.on_object_alloc(ObjectId(1), &info, f, CpuId(0), &mut mem);
        p.on_inode_close(InodeId(1), &mut mem);
        p.set_task_socket(1);
        p.tick(&kernel, &mut mem);
        assert_eq!(mem.tier_of(f), TierId(0), "inactive knode left in place");
    }
}
