//! The `Timed` policy wrapper: times every kernel hook call around the
//! wrapped policy, from outside the model crates.
//!
//! Hooks never nest (they receive the memory system, not a syscall
//! context), so each recorded interval is the hook's self time plus one
//! empty-span bias that [`Calibration`] measures and the metrics
//! subtract.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use kloc_core::{KlocRegistry, KlocStats};
use kloc_kernel::hooks::{CpuId, KernelHooks, PageRequest, Placement};
use kloc_kernel::{InodeId, Kernel, ObjectId, ObjectInfo, TenantSpec};
use kloc_mem::{FrameId, MemorySystem, MigrationCost, Nanos, TenantId};
use kloc_policy::Policy;

/// The timed [`KernelHooks`] methods, in declaration order. The two
/// configuration queries (`relocatable_kernel_alloc`,
/// `early_socket_demux`) are forwarded untimed.
pub const HOOKS: [&str; 12] = [
    "place_page",
    "on_inode_create",
    "on_inode_open",
    "on_inode_close",
    "on_inode_destroy",
    "on_object_alloc",
    "on_object_free",
    "on_object_access",
    "on_object_associate",
    "on_app_page_alloc",
    "on_app_page_access",
    "on_page_free",
];

/// Call counts and summed host nanoseconds per hook.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HookTotals {
    /// Calls per hook, indexed like [`HOOKS`].
    pub calls: [u64; 12],
    /// Raw host nanoseconds per hook (timer bias included).
    pub ns: [u64; 12],
}

impl HookTotals {
    /// Element-wise `self - earlier`.
    pub fn since(&self, earlier: &HookTotals) -> HookTotals {
        let mut out = HookTotals::default();
        for i in 0..HOOKS.len() {
            out.calls[i] = self.calls[i] - earlier.calls[i];
            out.ns[i] = self.ns[i] - earlier.ns[i];
        }
        out
    }

    /// Total calls over all hooks.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }
}

/// Live hook counters, shared between a [`Timed`] wrapper and the replay
/// that reads them at step boundaries.
#[derive(Debug, Default)]
pub struct HookTimes {
    calls: [Cell<u64>; 12],
    ns: [Cell<u64>; 12],
}

impl HookTimes {
    /// Charges one call of hook `hook` that started at `start`.
    #[inline]
    pub fn record(&self, hook: usize, start: Instant) {
        let ns = elapsed_ns(start);
        self.calls[hook].set(self.calls[hook].get() + 1);
        self.ns[hook].set(self.ns[hook].get() + ns);
    }

    /// Calls over all hooks so far.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().map(Cell::get).sum()
    }

    /// A copy of the counters.
    pub fn snapshot(&self) -> HookTotals {
        HookTotals {
            calls: self.calls.each_ref().map(Cell::get),
            ns: self.ns.each_ref().map(Cell::get),
        }
    }
}

/// Host nanoseconds since `start`, saturating.
#[inline]
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The measured cost of timing, from [`calibrate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// What an empty timed span reads: the bias inside every recorded
    /// interval, subtracted once per span from that span's own time.
    pub span_ns: f64,
    /// What one timed span adds to the span enclosing it (two clock
    /// reads plus the bookkeeping), subtracted once per inner span from
    /// the enclosing span's time. Reported as `bench.timer_ns`.
    pub cost_ns: f64,
}

/// Measures [`Calibration`] by timing empty spans through the same
/// [`HookTimes::record`] path the wrapper uses; median of five batches.
pub fn calibrate() -> Calibration {
    const SPANS: u64 = 200_000;
    let mut span = Vec::new();
    let mut cost = Vec::new();
    for _ in 0..5 {
        let times = HookTimes::default();
        let outer = Instant::now();
        for _ in 0..SPANS {
            let t = Instant::now();
            std::hint::black_box(&times).record(0, t);
        }
        let outer_ns = elapsed_ns(outer);
        span.push(times.snapshot().ns[0] as f64 / SPANS as f64);
        cost.push(outer_ns as f64 / SPANS as f64);
    }
    Calibration {
        span_ns: crate::stats::median(&span),
        cost_ns: crate::stats::median(&cost),
    }
}

/// A [`Policy`] that forwards everything to `inner` and times each hook
/// call. Report-inert: `engine::run_with(cfg, Box::new(Timed::new(p)))`
/// equals `engine::run_with(cfg, p)` (the package tests check it).
pub struct Timed {
    inner: Box<dyn Policy>,
    times: Rc<HookTimes>,
}

impl Timed {
    /// Wraps `inner` with fresh counters.
    pub fn new(inner: Box<dyn Policy>) -> Self {
        Timed {
            inner,
            times: Rc::default(),
        }
    }

    /// A handle on the live counters.
    pub fn times(&self) -> Rc<HookTimes> {
        Rc::clone(&self.times)
    }
}

impl KernelHooks for Timed {
    fn place_page(&mut self, req: &PageRequest, mem: &MemorySystem) -> Placement {
        let t = Instant::now();
        let placement = self.inner.place_page(req, mem);
        self.times.record(0, t);
        placement
    }

    fn relocatable_kernel_alloc(&self) -> bool {
        self.inner.relocatable_kernel_alloc()
    }

    fn early_socket_demux(&self) -> bool {
        self.inner.early_socket_demux()
    }

    fn on_inode_create(
        &mut self,
        inode: InodeId,
        cpu: CpuId,
        tenant: TenantId,
        mem: &mut MemorySystem,
    ) {
        let t = Instant::now();
        self.inner.on_inode_create(inode, cpu, tenant, mem);
        self.times.record(1, t);
    }

    fn on_inode_open(&mut self, inode: InodeId, cpu: CpuId, mem: &mut MemorySystem) {
        let t = Instant::now();
        self.inner.on_inode_open(inode, cpu, mem);
        self.times.record(2, t);
    }

    fn on_inode_close(&mut self, inode: InodeId, mem: &mut MemorySystem) {
        let t = Instant::now();
        self.inner.on_inode_close(inode, mem);
        self.times.record(3, t);
    }

    fn on_inode_destroy(&mut self, inode: InodeId, mem: &mut MemorySystem) {
        let t = Instant::now();
        self.inner.on_inode_destroy(inode, mem);
        self.times.record(4, t);
    }

    fn on_object_alloc(
        &mut self,
        obj: ObjectId,
        info: &ObjectInfo,
        frame: FrameId,
        cpu: CpuId,
        mem: &mut MemorySystem,
    ) {
        let t = Instant::now();
        self.inner.on_object_alloc(obj, info, frame, cpu, mem);
        self.times.record(5, t);
    }

    fn on_object_free(
        &mut self,
        obj: ObjectId,
        info: &ObjectInfo,
        frame: FrameId,
        mem: &mut MemorySystem,
    ) {
        let t = Instant::now();
        self.inner.on_object_free(obj, info, frame, mem);
        self.times.record(6, t);
    }

    fn on_object_access(
        &mut self,
        obj: ObjectId,
        info: &ObjectInfo,
        frame: FrameId,
        cpu: CpuId,
        tenant: TenantId,
        mem: &mut MemorySystem,
    ) {
        let t = Instant::now();
        self.inner
            .on_object_access(obj, info, frame, cpu, tenant, mem);
        self.times.record(7, t);
    }

    fn on_object_associate(
        &mut self,
        obj: ObjectId,
        info: &ObjectInfo,
        frame: FrameId,
        cpu: CpuId,
        mem: &mut MemorySystem,
    ) {
        let t = Instant::now();
        self.inner.on_object_associate(obj, info, frame, cpu, mem);
        self.times.record(8, t);
    }

    fn on_app_page_alloc(&mut self, frame: FrameId, cpu: CpuId, mem: &mut MemorySystem) {
        let t = Instant::now();
        self.inner.on_app_page_alloc(frame, cpu, mem);
        self.times.record(9, t);
    }

    fn on_app_page_access(&mut self, frame: FrameId, cpu: CpuId, mem: &mut MemorySystem) {
        let t = Instant::now();
        self.inner.on_app_page_access(frame, cpu, mem);
        self.times.record(10, t);
    }

    fn on_page_free(&mut self, frame: FrameId, mem: &mut MemorySystem) {
        let t = Instant::now();
        self.inner.on_page_free(frame, mem);
        self.times.record(11, t);
    }
}

impl Policy for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn tick(&mut self, kernel: &Kernel, mem: &mut MemorySystem) {
        self.inner.tick(kernel, mem);
    }

    fn tick_interval(&self) -> Nanos {
        self.inner.tick_interval()
    }

    fn migration_cost(&self) -> MigrationCost {
        self.inner.migration_cost()
    }

    fn registry(&self) -> Option<&KlocRegistry> {
        self.inner.registry()
    }

    fn kloc_stats(&self) -> Option<KlocStats> {
        self.inner.kloc_stats()
    }

    fn peak_migration_batch(&self) -> u64 {
        self.inner.peak_migration_batch()
    }

    fn set_task_socket(&mut self, socket: u8) {
        self.inner.set_task_socket(socket);
    }

    fn configure_tenants(&mut self, specs: &[TenantSpec]) {
        self.inner.configure_tenants(specs);
    }
}
