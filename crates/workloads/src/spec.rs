//! The [`Workload`] trait, the workload factory, and shared helpers.

use kloc_kernel::hooks::Ctx;
use kloc_kernel::{Kernel, KernelError};
use kloc_mem::FrameId;

use crate::scale::Scale;

/// A runnable workload model.
///
/// The engine calls [`Workload::setup`] once (load phase, not measured),
/// then [`Workload::step`] until [`Workload::is_done`], then
/// [`Workload::teardown`]. A step is one application-level operation
/// (one KV op, one 4 KB I/O, one request/response, ...), so throughput is
/// `ops / measured virtual time`.
pub trait Workload {
    /// Workload name ("rocksdb", "redis", ...).
    fn name(&self) -> &'static str;

    /// Load phase: create files, populate stores, open sockets.
    ///
    /// # Errors
    /// Propagates kernel errors (which indicate a harness bug — workloads
    /// only issue valid syscalls).
    fn setup(&mut self, kernel: &mut Kernel, ctx: &mut Ctx<'_>) -> Result<(), KernelError>;

    /// Executes one operation.
    ///
    /// # Errors
    /// Propagates kernel errors.
    fn step(&mut self, kernel: &mut Kernel, ctx: &mut Ctx<'_>) -> Result<(), KernelError>;

    /// Operations to run in the measured phase.
    fn target_ops(&self) -> u64;

    /// Operations completed so far.
    fn ops_done(&self) -> u64;

    /// Whether the measured phase is complete.
    fn is_done(&self) -> bool {
        self.ops_done() >= self.target_ops()
    }

    /// Close remaining handles and free app memory.
    ///
    /// # Errors
    /// Propagates kernel errors.
    fn teardown(&mut self, kernel: &mut Kernel, ctx: &mut Ctx<'_>) -> Result<(), KernelError>;

    /// Tenant specs this workload runs under. The engine registers them
    /// with the kernel and hands them to the policy before setup; the
    /// default (empty) leaves the run single-tenant.
    fn tenant_specs(&self) -> Vec<kloc_kernel::TenantSpec> {
        Vec::new()
    }
}

/// The paper's evaluation workloads (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum WorkloadKind {
    /// LSM key-value store (dbbench).
    RocksDb,
    /// In-memory KV over sockets with checkpoints.
    Redis,
    /// File microbenchmark.
    Filebench,
    /// YCSB over a Java-style store with a big app cache.
    Cassandra,
    /// TeraSort over a distributed-FS model.
    Spark,
    /// Consolidated-server tenants sharing one kernel (DESIGN.md §12).
    /// Not part of [`WorkloadKind::ALL`] — driven by `repro tenants`.
    Tenants {
        /// Whether the tenant specs carry per-tenant budgets.
        budgeted: bool,
    },
}

impl WorkloadKind {
    /// The four workloads the paper's evaluation focuses on plus
    /// Filebench (Spark is exercised in the motivation study; the paper
    /// had firewall trouble evaluating it, §6.1 — we *can* run it).
    pub const ALL: [WorkloadKind; 5] = [
        WorkloadKind::RocksDb,
        WorkloadKind::Redis,
        WorkloadKind::Filebench,
        WorkloadKind::Cassandra,
        WorkloadKind::Spark,
    ];

    /// The evaluation set of Fig. 4 / Fig. 6.
    pub const EVALUATED: [WorkloadKind; 4] = [
        WorkloadKind::RocksDb,
        WorkloadKind::Redis,
        WorkloadKind::Filebench,
        WorkloadKind::Cassandra,
    ];

    /// Builds the workload at a scale.
    pub fn build(self, scale: &Scale) -> Box<dyn Workload> {
        match self {
            WorkloadKind::RocksDb => Box::new(crate::rocksdb::RocksDb::new(scale)),
            WorkloadKind::Redis => Box::new(crate::redis::Redis::new(scale)),
            WorkloadKind::Filebench => Box::new(crate::filebench::Filebench::new(scale)),
            WorkloadKind::Cassandra => Box::new(crate::cassandra::Cassandra::new(scale)),
            WorkloadKind::Spark => Box::new(crate::spark::Spark::new(scale)),
            WorkloadKind::Tenants { budgeted } => {
                Box::new(crate::tenants::MultiTenant::new(scale, budgeted))
            }
        }
    }

    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::RocksDb => "RocksDB",
            WorkloadKind::Redis => "Redis",
            WorkloadKind::Filebench => "Filebench",
            WorkloadKind::Cassandra => "Cassandra",
            WorkloadKind::Spark => "Spark",
            WorkloadKind::Tenants { budgeted: true } => "Multi-tenant (budgeted)",
            WorkloadKind::Tenants { budgeted: false } => "Multi-tenant (no budgets)",
        }
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A region of application memory (anonymous pages) owned by a workload.
#[derive(Debug, Default)]
pub struct AppMemory {
    frames: Vec<FrameId>,
    /// Rotating scratch pool modeling heap churn (malloc/free traffic):
    /// real applications allocate and release anonymous pages
    /// continuously, which is what makes the paper's Fig. 2b an
    /// *allocation-share* comparison rather than a residency one.
    scratch: std::collections::VecDeque<FrameId>,
}

impl AppMemory {
    /// Allocates `pages` application pages.
    ///
    /// # Errors
    /// Propagates allocation failures.
    pub fn allocate(
        kernel: &mut Kernel,
        ctx: &mut Ctx<'_>,
        pages: u64,
    ) -> Result<Self, KernelError> {
        let mut frames = Vec::with_capacity(pages as usize);
        for _ in 0..pages {
            frames.push(kernel.alloc_app_page(ctx)?);
        }
        Ok(AppMemory {
            frames,
            scratch: std::collections::VecDeque::new(),
        })
    }

    /// Number of pages.
    pub fn pages(&self) -> u64 {
        self.frames.len() as u64
    }

    /// Accesses `bytes` at logical page `index` (wrapping).
    pub fn touch(
        &self,
        kernel: &mut Kernel,
        ctx: &mut Ctx<'_>,
        index: u64,
        bytes: u64,
        write: bool,
    ) {
        if self.frames.is_empty() {
            return;
        }
        let frame = self.frames[(index % self.frames.len() as u64) as usize];
        kernel.app_access(ctx, frame, bytes, write);
    }

    /// One round of heap churn: allocates a fresh anonymous page and
    /// releases the oldest scratch page once the pool holds `pool`
    /// pages. Models per-operation malloc/free traffic.
    ///
    /// # Errors
    /// Propagates allocation failures.
    pub fn churn(
        &mut self,
        kernel: &mut Kernel,
        ctx: &mut Ctx<'_>,
        pool: usize,
    ) -> Result<(), KernelError> {
        let f = kernel.alloc_app_page(ctx)?;
        kernel.app_access(ctx, f, 512, true);
        self.scratch.push_back(f);
        while self.scratch.len() > pool {
            #[expect(clippy::expect_used, reason = "the loop guard ensures non-empty")]
            let old = self.scratch.pop_front().expect("non-empty");
            kernel.free_app_page(ctx, old)?;
        }
        Ok(())
    }

    /// Frees every page.
    ///
    /// # Errors
    /// Propagates free failures (double free = harness bug).
    pub fn free_all(&mut self, kernel: &mut Kernel, ctx: &mut Ctx<'_>) -> Result<(), KernelError> {
        for f in self.frames.drain(..) {
            kernel.free_app_page(ctx, f)?;
        }
        for f in self.scratch.drain(..) {
            kernel.free_app_page(ctx, f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kloc_kernel::hooks::NullHooks;
    use kloc_kernel::KernelParams;
    use kloc_mem::MemorySystem;

    #[test]
    fn factory_builds_all_workloads() {
        let scale = Scale::tiny();
        for kind in WorkloadKind::ALL {
            let w = kind.build(&scale);
            assert!(!w.name().is_empty());
            assert!(w.target_ops() > 0);
            assert_eq!(w.ops_done(), 0);
            assert!(!w.is_done());
        }
    }

    #[test]
    fn app_memory_round_trip() {
        let mut mem = MemorySystem::two_tier(u64::MAX, 8);
        let mut hooks = NullHooks::fast_first();
        let mut k = Kernel::new(KernelParams::default());
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let mut app = AppMemory::allocate(&mut k, &mut ctx, 8).unwrap();
        assert_eq!(app.pages(), 8);
        app.touch(&mut k, &mut ctx, 3, 64, true);
        app.touch(&mut k, &mut ctx, 100, 64, false); // wraps
        app.free_all(&mut k, &mut ctx).unwrap();
        assert_eq!(app.pages(), 0);
        assert_eq!(ctx.mem.live_frames(), 0);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(WorkloadKind::RocksDb.to_string(), "RocksDB");
        assert_eq!(WorkloadKind::EVALUATED.len(), 4);
    }
}
