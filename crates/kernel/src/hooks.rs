//! Policy hook interface between the kernel and tiering policies.
//!
//! The paper's KLOC prototype intercepts existing kernel code paths —
//! syscall entry, object allocation sites (400+ redirected allocation
//! sites, §1), LRU bookkeeping — to keep knodes up to date and to decide
//! placement. This crate inverts that dependency: the simulated kernel
//! calls *out* through [`KernelHooks`] at every one of those points, and
//! the policies in `kloc-policy` (optionally wrapping the KLOC registry
//! from `kloc-core`) implement the trait.
//!
//! All kernel entry points take a [`Ctx`], which bundles the memory
//! system, the hooks, and the CPU performing the operation.

use kloc_mem::{FrameId, MemorySystem, PageKind, TenantId, TierId};

use crate::obj::{KernelObjectType, ObjectId, ObjectInfo};
use crate::vfs::InodeId;

/// Identifier of a (simulated) CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CpuId(pub u16);

impl std::fmt::Display for CpuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// A request for one new page frame, given to [`KernelHooks::place_page`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRequest {
    /// Page class being allocated.
    pub kind: PageKind,
    /// Kernel object type the page will hold (None for app pages).
    pub ty: Option<KernelObjectType>,
    /// Owning file/socket inode, when known at allocation time.
    pub inode: Option<InodeId>,
    /// Whether this allocation is speculative readahead (paper §4.4's
    /// prefetcher integration).
    pub readahead: bool,
    /// CPU performing the allocation.
    pub cpu: CpuId,
    /// Tenant on whose behalf the allocation is made
    /// ([`TenantId::DEFAULT`] in single-tenant runs). Budget-aware
    /// policies compare the tenant's fast-tier residency against its
    /// budget when choosing the placement.
    pub tenant: TenantId,
}

/// Tier preference order for a new page. The kernel tries tiers in order
/// and takes the first with room.
///
/// Every page placement builds one, so the list is stored inline (up to
/// [`Placement::MAX_TIERS`] entries) and the type is `Copy`: choosing a
/// placement never touches the heap. It derefs to the `&[TierId]` that
/// [`MemorySystem::allocate_preferring`] takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    tiers: [TierId; Placement::MAX_TIERS],
    len: u8,
}

impl Placement {
    /// Most tiers one placement can list.
    pub const MAX_TIERS: usize = 8;

    /// Tries `tiers` in the given order.
    ///
    /// # Panics
    /// Panics if `tiers` lists more than [`Placement::MAX_TIERS`] tiers.
    pub fn new(tiers: &[TierId]) -> Self {
        assert!(
            tiers.len() <= Placement::MAX_TIERS,
            "a placement lists at most {} tiers",
            Placement::MAX_TIERS
        );
        let mut inline = [TierId::FAST; Placement::MAX_TIERS];
        inline[..tiers.len()].copy_from_slice(tiers);
        Placement {
            tiers: inline,
            // lint: truncation-ok — bounded by MAX_TIERS above.
            len: tiers.len() as u8,
        }
    }

    /// Prefer the fast tier, spill to slow.
    pub fn fast_then_slow() -> Self {
        Placement::new(&[TierId::FAST, TierId::SLOW])
    }

    /// Slow tier only.
    pub fn slow_only() -> Self {
        Placement::new(&[TierId::SLOW])
    }

    /// A single specific tier.
    pub fn only(tier: TierId) -> Self {
        Placement::new(&[tier])
    }
}

impl std::ops::Deref for Placement {
    type Target = [TierId];

    fn deref(&self) -> &[TierId] {
        &self.tiers[..usize::from(self.len)]
    }
}

/// Callbacks from the simulated kernel into the tiering policy.
///
/// Every method has a no-op default except [`KernelHooks::place_page`];
/// a policy overrides exactly the code paths it cares about, the same way
/// the paper's patches touch only specific kernel paths.
pub trait KernelHooks {
    /// Chooses tier preference for a new page frame.
    fn place_page(&mut self, req: &PageRequest, mem: &MemorySystem) -> Placement;

    /// Whether slab-class kernel objects should be allocated through the
    /// relocatable KLOC allocation interface instead of the slab
    /// allocator (paper §4.4). Policies without KLOC return `false` and
    /// get pinned slab pages.
    fn relocatable_kernel_alloc(&self) -> bool {
        false
    }

    /// Whether the network driver extracts socket identity at RX time
    /// (the paper's 8-byte skbuff socket field, §4.2.3). Enables early
    /// knode association and elides redundant demux work in TCP.
    fn early_socket_demux(&self) -> bool {
        false
    }

    /// An inode (file or socket) was created by `tenant`. The tenant
    /// becomes the knode's owner for shared-object attribution (§12).
    fn on_inode_create(
        &mut self,
        _inode: InodeId,
        _cpu: CpuId,
        _tenant: TenantId,
        _mem: &mut MemorySystem,
    ) {
    }

    /// An inode was opened (open count 0 -> 1 marks it active).
    fn on_inode_open(&mut self, _inode: InodeId, _cpu: CpuId, _mem: &mut MemorySystem) {}

    /// The last open handle on an inode was closed (it is now inactive —
    /// the paper's primary "definitely cold" signal, §3.2).
    fn on_inode_close(&mut self, _inode: InodeId, _mem: &mut MemorySystem) {}

    /// The inode was unlinked/destroyed; its objects are being freed, not
    /// migrated (paper §3.2, second implication).
    fn on_inode_destroy(&mut self, _inode: InodeId, _mem: &mut MemorySystem) {}

    /// A kernel object was allocated on `frame`.
    fn on_object_alloc(
        &mut self,
        _obj: ObjectId,
        _info: &ObjectInfo,
        _frame: FrameId,
        _cpu: CpuId,
        _mem: &mut MemorySystem,
    ) {
    }

    /// A kernel object was freed.
    fn on_object_free(
        &mut self,
        _obj: ObjectId,
        _info: &ObjectInfo,
        _frame: FrameId,
        _mem: &mut MemorySystem,
    ) {
    }

    /// A kernel object was accessed by `tenant`. When the accessor is
    /// not the owning knode's tenant, KLOC attribution records a shared
    /// access (shared-inode/shared-socket case, §12).
    fn on_object_access(
        &mut self,
        _obj: ObjectId,
        _info: &ObjectInfo,
        _frame: FrameId,
        _cpu: CpuId,
        _tenant: TenantId,
        _mem: &mut MemorySystem,
    ) {
    }

    /// A late (TCP-layer) socket association was made for an object that
    /// was allocated before its socket was known (ingress path without
    /// early demux, §4.2.3).
    fn on_object_associate(
        &mut self,
        _obj: ObjectId,
        _info: &ObjectInfo,
        _frame: FrameId,
        _cpu: CpuId,
        _mem: &mut MemorySystem,
    ) {
    }

    /// An application page was allocated.
    fn on_app_page_alloc(&mut self, _frame: FrameId, _cpu: CpuId, _mem: &mut MemorySystem) {}

    /// An application page was accessed.
    fn on_app_page_access(&mut self, _frame: FrameId, _cpu: CpuId, _mem: &mut MemorySystem) {}

    /// Any page (app or kernel) is about to be freed; policies drop their
    /// tracking state for it.
    fn on_page_free(&mut self, _frame: FrameId, _mem: &mut MemorySystem) {}
}

/// Context threaded through every kernel operation: the memory system,
/// the policy hooks, and the CPU issuing the operation.
pub struct Ctx<'a> {
    /// The tiered memory system.
    pub mem: &'a mut MemorySystem,
    /// The tiering policy.
    pub hooks: &'a mut dyn KernelHooks,
    /// CPU performing the operation.
    pub cpu: CpuId,
    /// NUMA socket of `cpu` (0 in non-NUMA topologies).
    pub socket: u8,
    /// Tenant on whose behalf the operation runs
    /// ([`TenantId::DEFAULT`] in single-tenant runs). Multi-tenant
    /// workloads set this per session step, exactly like `cpu`.
    pub tenant: TenantId,
}

impl<'a> Ctx<'a> {
    /// Context on CPU 0 / socket 0.
    pub fn new(mem: &'a mut MemorySystem, hooks: &'a mut dyn KernelHooks) -> Self {
        Ctx {
            mem,
            hooks,
            cpu: CpuId(0),
            socket: 0,
            tenant: TenantId::DEFAULT,
        }
    }

    /// Context pinned to a CPU and socket.
    pub fn on_cpu(
        mem: &'a mut MemorySystem,
        hooks: &'a mut dyn KernelHooks,
        cpu: CpuId,
        socket: u8,
    ) -> Self {
        Ctx {
            mem,
            hooks,
            cpu,
            socket,
            tenant: TenantId::DEFAULT,
        }
    }
}

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("cpu", &self.cpu)
            .field("socket", &self.socket)
            .finish_non_exhaustive()
    }
}

/// Trivial hooks for tests and examples: a fixed placement and no
/// notifications.
#[derive(Debug, Clone)]
pub struct NullHooks {
    placement: Placement,
}

impl NullHooks {
    /// Place everything fast-first (spilling to slow).
    pub fn fast_first() -> Self {
        NullHooks {
            placement: Placement::fast_then_slow(),
        }
    }

    /// Place everything on the slow tier.
    pub fn slow_only() -> Self {
        NullHooks {
            placement: Placement::slow_only(),
        }
    }
}

impl KernelHooks for NullHooks {
    fn place_page(&mut self, _req: &PageRequest, _mem: &MemorySystem) -> Placement {
        self.placement
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_constructors() {
        assert_eq!(
            Placement::fast_then_slow()[..],
            [TierId::FAST, TierId::SLOW]
        );
        assert_eq!(Placement::only(TierId(3))[..], [TierId(3)]);
        assert_eq!(Placement::slow_only()[..], [TierId::SLOW]);
    }

    #[test]
    fn null_hooks_fixed_placement() {
        let mem = MemorySystem::two_tier(1 << 20, 8);
        let mut h = NullHooks::slow_only();
        let req = PageRequest {
            kind: PageKind::AppData,
            ty: None,
            inode: None,
            readahead: false,
            cpu: CpuId(0),
            tenant: TenantId::DEFAULT,
        };
        assert_eq!(h.place_page(&req, &mem), Placement::slow_only());
        assert!(!h.relocatable_kernel_alloc());
        assert!(!h.early_socket_demux());
    }

    #[test]
    fn ctx_debug_and_constructors() {
        let mut mem = MemorySystem::two_tier(1 << 20, 8);
        let mut h = NullHooks::fast_first();
        let ctx = Ctx::on_cpu(&mut mem, &mut h, CpuId(3), 1);
        assert_eq!(ctx.cpu, CpuId(3));
        assert_eq!(ctx.socket, 1);
        assert!(format!("{ctx:?}").contains("CpuId(3)"));
    }
}
