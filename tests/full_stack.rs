//! Cross-crate integration: drive the kernel directly under the KLOC
//! policy and verify the registry mirrors kernel state exactly.

use klocs::core::overhead::{self, BYTES_PER_MEMBER};
use klocs::core::KlocRegistry;
use klocs::kernel::hooks::Ctx;
use klocs::kernel::{Kernel, KernelParams};
use klocs::mem::{MemorySystem, PAGE_SIZE};
use klocs::policy::{KlocPolicy, Policy};
use klocs::workloads::{Scale, WorkloadKind};

fn registry_members(reg: &KlocRegistry) -> usize {
    reg.kmap().iter().map(|k| k.member_count()).sum()
}

#[test]
fn registry_mirrors_kernel_objects_through_file_lifecycle() {
    let mut mem = MemorySystem::two_tier(1024 * PAGE_SIZE, 8);
    let mut policy = KlocPolicy::new();
    let mut kernel = Kernel::new(KernelParams::default());
    let mut ctx = Ctx::new(&mut mem, &mut policy);

    // Create files, write, close some, unlink others.
    let mut fds = Vec::new();
    for i in 0..8 {
        let fd = kernel.create(&mut ctx, &format!("/f{i}")).unwrap();
        kernel.write(&mut ctx, fd, 0, 8 * PAGE_SIZE).unwrap();
        fds.push(fd);
    }
    let _ = ctx;

    // Every tracked member must correspond to a live kernel object with
    // an inode, and vice versa (for included types).
    let reg = policy.kloc_registry();
    let tracked = registry_members(reg);
    let live_with_inode = kernel
        .objects()
        .iter()
        .filter(|o| o.info.inode.is_some() && reg.includes(o.info.ty))
        .count();
    assert_eq!(
        tracked, live_with_inode,
        "knode members must equal live inode-owned objects"
    );

    // Close half, destroy the other half.
    let mut ctx = Ctx::new(&mut mem, &mut policy);
    for (i, fd) in fds.into_iter().enumerate() {
        kernel.close(&mut ctx, fd).unwrap();
        if i % 2 == 0 {
            kernel.unlink(&mut ctx, &format!("/f{i}")).unwrap();
        }
    }
    kernel.commit_journal(&mut ctx).unwrap();
    let _ = ctx;

    let reg = policy.kloc_registry();
    assert_eq!(reg.kmap().len(), 4, "unlinked files lose their knodes");
    let tracked = registry_members(reg);
    let live_with_inode = kernel
        .objects()
        .iter()
        .filter(|o| o.info.inode.is_some() && reg.includes(o.info.ty))
        .count();
    assert_eq!(tracked, live_with_inode, "mirror holds after teardown");
}

#[test]
fn socket_lifecycle_with_early_demux() {
    let mut mem = MemorySystem::two_tier(1024 * PAGE_SIZE, 8);
    let mut policy = KlocPolicy::new();
    let mut kernel = Kernel::new(KernelParams::default());
    let mut ctx = Ctx::new(&mut mem, &mut policy);

    let sock = kernel.socket(&mut ctx).unwrap();
    kernel.deliver(&mut ctx, sock, 4096).unwrap();
    // Early demux: every ingress packet was associated in the driver.
    assert_eq!(
        kernel.net_stats().early_demuxed,
        kernel.net_stats().rx_packets
    );
    kernel.recv(&mut ctx, sock, 8192).unwrap();
    kernel.send(&mut ctx, sock, 4096).unwrap();
    kernel.close(&mut ctx, sock).unwrap();
    kernel.commit_journal(&mut ctx).unwrap();
    let _ = ctx;

    assert_eq!(
        policy.kloc_registry().kmap().len(),
        0,
        "socket knode destroyed on close"
    );
    assert_eq!(ctx_free_frames(&kernel), 0, "no kernel objects leaked");
    fn ctx_free_frames(k: &Kernel) -> usize {
        k.objects().len()
    }
}

#[test]
fn relocatable_interface_makes_slab_objects_migratable() {
    // Under the KLOC policy every slab-class object can move; under a
    // baseline policy none can.
    use klocs::kernel::Backing;

    let mut mem = MemorySystem::two_tier(1024 * PAGE_SIZE, 8);
    let mut policy = KlocPolicy::new();
    let mut kernel = Kernel::new(KernelParams::default());
    let mut ctx = Ctx::new(&mut mem, &mut policy);
    let fd = kernel.create(&mut ctx, "/f").unwrap();
    kernel.write(&mut ctx, fd, 0, 4 * PAGE_SIZE).unwrap();

    for obj in kernel.objects().iter() {
        if obj.info.ty.backing() == Backing::Slab {
            let frame = ctx.mem.frame(obj.frame).unwrap();
            assert!(
                !frame.pinned(),
                "{}: slab-class object must be relocatable under KLOCs",
                obj.info.ty
            );
        }
    }
}

#[test]
fn policy_tick_is_safe_at_any_time() {
    // Ticks interleaved with syscalls at arbitrary points never corrupt
    // state (mini fuzz, deterministic).
    let mut mem = MemorySystem::two_tier(64 * PAGE_SIZE, 8);
    let mut policy = KlocPolicy::new();
    let mut kernel = Kernel::new(KernelParams::default());

    for i in 0..50u64 {
        {
            let mut ctx = Ctx::new(&mut mem, &mut policy);
            let path = format!("/t{i}");
            let fd = kernel.create(&mut ctx, &path).unwrap();
            kernel
                .write(&mut ctx, fd, 0, (1 + i % 4) * PAGE_SIZE)
                .unwrap();
            if i % 3 == 0 {
                kernel.fsync(&mut ctx, fd).unwrap();
            }
            kernel.close(&mut ctx, fd).unwrap();
            if i % 2 == 0 {
                kernel.unlink(&mut ctx, &path).unwrap();
            }
        }
        mem.charge(klocs::mem::Nanos::from_micros(300));
        policy.tick(&kernel, &mut mem);
    }
    // Registry and kernel agree at the end.
    let reg = policy.kloc_registry();
    assert_eq!(reg.kmap().len(), kernel.vfs().inode_count());
}

/// Paper Table 6 and the member counts it is computed from, on every
/// workload at tiny scale under KLOCs, driven the way the engine drives
/// a run (setup, then steps with policy ticks). At the end, the summed
/// knode member counts equal the live objects the registry tracks (an
/// included type on an inode that still has a knode), and the metadata
/// overhead stays under 1 % of the data footprint.
#[test]
fn table6_overhead_and_member_counts_hold_at_tiny_scale() {
    let scale = Scale::tiny();
    let kinds = WorkloadKind::ALL
        .into_iter()
        .chain([WorkloadKind::Tenants { budgeted: true }]);
    for kind in kinds {
        let mut mem = MemorySystem::two_tier(scale.fast_bytes, 8);
        let mut policy = KlocPolicy::new();
        let mut kernel = Kernel::new(KernelParams {
            page_cache_budget: scale.page_cache_frames,
            ..KernelParams::default()
        });
        let mut workload = kind.build(&scale);
        let specs = workload.tenant_specs();
        for spec in &specs {
            kernel.register_tenant(spec.clone());
        }
        if !specs.is_empty() {
            policy.configure_tenants(&specs);
        }
        let tick = policy.tick_interval();
        let mut next_tick = mem.now() + tick;
        workload
            .setup(&mut kernel, &mut Ctx::new(&mut mem, &mut policy))
            .unwrap();
        while !workload.is_done() {
            workload
                .step(&mut kernel, &mut Ctx::new(&mut mem, &mut policy))
                .unwrap();
            if mem.now() >= next_tick {
                policy.tick(&kernel, &mut mem);
                next_tick = mem.now() + tick;
            }
        }

        let reg = policy.kloc_registry();
        let members = registry_members(reg);
        let tracked = kernel
            .objects()
            .iter()
            .filter(|o| {
                reg.includes(o.info.ty) && o.info.inode.is_some_and(|i| reg.kmap().get(i).is_some())
            })
            .count();
        let label = kind.label();
        assert!(members > 0, "{label}: no members at the end of the run");
        assert_eq!(members, tracked, "{label}: knode member counts");
        let report = overhead::measure(reg, policy.peak_migration_batch());
        assert_eq!(report.member_pointers, members as u64 * BYTES_PER_MEMBER);
        let fraction = report.fraction_of(scale.data_bytes);
        assert!(
            fraction < 0.01,
            "{label}: KLOC metadata is {:.3} % of the footprint, not < 1 %",
            fraction * 100.0
        );
    }
}
