//! Three-tier extension: the paper evaluates two tiers, but its
//! introduction motivates deeper hierarchies (die-stacked/HBM over DRAM
//! over slow memory). This example builds a bespoke *waterfall* KLOC
//! policy on the public API — active knodes allocate as high as
//! possible, cold knodes cascade one tier down per epoch — showing the
//! hook interface generalizes beyond the calibrated two-tier policies.
//!
//! ```text
//! cargo run --release --example three_tier
//! ```

use klocs::core::{KlocConfig, KlocRegistry};
use klocs::kernel::hooks::{CpuId, Ctx, KernelHooks, PageRequest, Placement};
use klocs::kernel::{InodeId, Kernel, KernelParams, ObjectId, ObjectInfo};
use klocs::mem::{FrameId, MemorySystem, Nanos, PageKind, TenantId, TierId};
use klocs::workloads::{RocksDb, Scale, Workload};

/// A minimal three-tier KLOC policy: allocation prefers the fastest tier
/// with room; cold knodes cascade downward one tier at a time.
struct Waterfall {
    registry: KlocRegistry,
    tiers: u8,
}

impl Waterfall {
    fn new(tiers: u8) -> Self {
        Waterfall {
            registry: KlocRegistry::new(KlocConfig::default()),
            tiers,
        }
    }

    /// Cascades every sufficiently cold knode one tier down.
    fn cascade(&mut self, mem: &mut MemorySystem) {
        // The kmap's inactive index yields cold knodes directly; the
        // warm population is never examined.
        let mut cold: Vec<InodeId> = Vec::new();
        self.registry
            .cold_member_candidates(4, usize::MAX, &mut cold);
        for ino in cold {
            // Demote each member one level from wherever it is.
            for frame in self.registry.member_frames(ino) {
                let Ok(f) = mem.frame(frame) else { continue };
                let next = f.tier().0 + 1;
                if !f.pinned() && next < self.tiers {
                    let _ = mem.migrate(frame, TierId(next));
                }
            }
        }
        self.registry.age_epoch();
    }
}

impl KernelHooks for Waterfall {
    fn place_page(&mut self, req: &PageRequest, _mem: &MemorySystem) -> Placement {
        let all: Vec<TierId> = (0..self.tiers).map(TierId).collect();
        if req.kind == PageKind::AppData {
            return Placement::new(&all);
        }
        match req.inode.and_then(|i| self.registry.is_active(i)) {
            // Inactive knodes start in the middle of the hierarchy.
            Some(false) => Placement::new(&all[1..]),
            _ => Placement::new(&all),
        }
    }

    fn relocatable_kernel_alloc(&self) -> bool {
        true
    }

    fn on_inode_create(
        &mut self,
        inode: InodeId,
        cpu: CpuId,
        _tenant: TenantId,
        mem: &mut MemorySystem,
    ) {
        self.registry.inode_created(inode, cpu, mem.now());
    }
    fn on_inode_open(&mut self, inode: InodeId, cpu: CpuId, mem: &mut MemorySystem) {
        self.registry.inode_opened(inode, cpu, mem.now());
    }
    fn on_inode_close(&mut self, inode: InodeId, mem: &mut MemorySystem) {
        self.registry.inode_closed(inode, mem.now());
    }
    fn on_inode_destroy(&mut self, inode: InodeId, mem: &mut MemorySystem) {
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
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // HBM (1 MB) over DRAM (4 MB) over slow memory — capacities scaled
    // like the rest of the repository.
    let mut mem = MemorySystem::three_tier(1 << 20, 4 << 20, 8);
    mem.set_cpu_parallelism(16);
    let mut policy = Waterfall::new(3);
    let mut kernel = Kernel::new(KernelParams::default());

    let scale = Scale::tiny();
    let mut workload = RocksDb::new(&scale);
    {
        let mut ctx = Ctx::new(&mut mem, &mut policy);
        workload.setup(&mut kernel, &mut ctx)?;
    }
    let t0 = mem.now();
    let mut next_tick = t0;
    while !workload.is_done() {
        {
            let mut ctx = Ctx::new(&mut mem, &mut policy);
            workload.step(&mut kernel, &mut ctx)?;
        }
        if mem.now() >= next_tick {
            policy.cascade(&mut mem);
            next_tick = mem.now() + Nanos::from_micros(250);
        }
    }
    let elapsed = mem.now() - t0;

    println!(
        "RocksDB over HBM/DRAM/slow with a waterfall KLOC policy: {:.0} ops/s",
        workload.ops_done() as f64 / elapsed.as_secs_f64()
    );
    for t in 0..3u8 {
        let tier = mem.tier_alloc(TierId(t))?;
        let stats = mem.stats().tier(TierId(t));
        println!(
            "  tier{t}: {:>5} frames resident, {:>8} accesses  ({})",
            stats.frames_resident,
            stats.reads + stats.writes,
            if tier.frame_capacity() == u64::MAX {
                "unbounded".to_owned()
            } else {
                format!("{} frames", tier.frame_capacity())
            }
        );
    }
    println!(
        "  demotions: {} (cascading one tier per cold epoch), promotions: {}",
        mem.migration_stats().demotions,
        mem.migration_stats().promotions
    );
    // Sanity: the middle tier actually holds pages (waterfall worked).
    assert!(mem.stats().tier(TierId(1)).frames_resident > 0);
    assert_eq!(workload.ops_done(), scale.ops);
    {
        let mut ctx = Ctx::new(&mut mem, &mut policy);
        workload.teardown(&mut kernel, &mut ctx)?;
    }
    Ok(())
}
