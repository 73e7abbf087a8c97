//! Multi-tenant traffic generator (consolidated server, paper §5).
//!
//! The paper evaluates KLOCs on consolidated servers where independent
//! applications share one kernel and one fast tier: "kernel objects
//! created on behalf of one application can evict another application's
//! hot objects". This workload reproduces that contention with three
//! tenants multiplexed over one simulated kernel:
//!
//! * **frontend** (tenant 1, guaranteed) — a Redis-style server: many
//!   concurrent client sessions over sockets, each request touching a
//!   hot file whose page-cache pages are the latency-critical working
//!   set, plus a telemetry socket it feeds for the analytics tenant.
//! * **analytics** (tenant 2, burstable) — a Cassandra-lite pipeline:
//!   commitlog appends, SSTable scans, periodic reads of the frontend's
//!   shared config file (shared-inode attribution), and reads from the
//!   frontend-owned telemetry socket (shared-socket attribution).
//! * **churn** (tenant 3, best-effort) — an antagonist that creates,
//!   writes, and unlinks short-lived files, churning page-cache pages
//!   far past the global budget.
//!
//! Steps are interleaved by a weighted draw from the in-tree
//! deterministic SplitMix64 generator, so the schedule is identical on
//! every run. With [`MultiTenant::specs`]`(budgeted = true)` each tenant
//! gets a page-cache cap (caps sum below the global budget, so an
//! over-cap tenant self-evicts instead of triggering the global
//! shrinker) and the churn tenant gets a fast-tier cap; with
//! `budgeted = false` the tenants share the kernel unprotected and the
//! churn tenant's allocations evict its neighbours' hot pages.

use std::collections::VecDeque;

use kloc_kernel::hooks::{CpuId, Ctx};
use kloc_kernel::{Fd, Kernel, KernelError, QosClass, TenantSpec};
use kloc_mem::{TenantId, PAGE_SIZE};

use crate::keygen::Zipfian;
use crate::rng::WorkloadRng;
use crate::scale::Scale;
use crate::spec::Workload;

/// The latency-critical server tenant.
pub const FRONTEND: TenantId = TenantId(1);
/// The throughput-oriented pipeline tenant.
pub const ANALYTICS: TenantId = TenantId(2);
/// The best-effort file-churn antagonist.
pub const CHURN: TenantId = TenantId(3);

const REQUEST_BYTES: u64 = 256;
const RESPONSE_BYTES: u64 = 1024;
const TELEMETRY_BYTES: u64 = 512;
/// Pages written per churn file.
const CHURN_PAGES: u64 = 8;

/// The multi-tenant workload.
#[derive(Debug)]
pub struct MultiTenant {
    scale: Scale,
    budgeted: bool,
    rng: WorkloadRng,
    zipf: Zipfian,
    // Frontend state.
    sessions: Vec<Fd>,
    front_ops: u64,
    hot_fd: Option<Fd>,
    hot_pages: u64,
    telemetry: Option<Fd>,
    /// Telemetry bytes delivered but not yet consumed by analytics.
    telemetry_queued: u64,
    // Analytics state.
    commitlog: Option<Fd>,
    commitlog_off: u64,
    sstables: Vec<String>,
    analytics_ops: u64,
    // Churn state.
    churn_live: VecDeque<String>,
    /// Files kept alive before the oldest is unlinked — sized to ~3/4
    /// of the global page-cache budget, so an unbudgeted churn tenant
    /// overflows the shared cache while a capped one self-evicts long
    /// before the global shrinker is reached.
    churn_lag: usize,
    churn_serial: u64,
    ops_done: u64,
}

impl MultiTenant {
    /// Creates the workload at `scale`; `budgeted` selects whether
    /// [`MultiTenant::specs`] carries per-tenant budgets.
    pub fn new(scale: &Scale, budgeted: bool) -> Self {
        let hot_pages = (scale.page_cache_frames / 4).max(8);
        MultiTenant {
            budgeted,
            rng: WorkloadRng::seed_from_u64(scale.seed ^ 0x7E_A27),
            zipf: Zipfian::new(hot_pages),
            sessions: Vec::new(),
            front_ops: 0,
            hot_fd: None,
            hot_pages,
            telemetry: None,
            telemetry_queued: 0,
            commitlog: None,
            commitlog_off: 0,
            sstables: Vec::new(),
            analytics_ops: 0,
            churn_live: VecDeque::new(),
            churn_lag: (scale.page_cache_frames * 3 / 4 / CHURN_PAGES).max(8) as usize,
            churn_serial: 0,
            ops_done: 0,
            scale: scale.clone(),
        }
    }

    /// The tenant specs this workload runs under.
    ///
    /// With `budgeted = true`, page-cache caps are fractions of the
    /// scale's global budget that sum to ~82 % of it — an over-cap
    /// tenant self-evicts before the global shrinker can fire, which is
    /// what makes cross-tenant evictions structurally impossible — and
    /// the churn tenant's kernel pages are capped to an eighth of the
    /// fast tier. With `budgeted = false` every cap is `None`.
    pub fn specs(scale: &Scale, budgeted: bool) -> Vec<TenantSpec> {
        let pc = scale.page_cache_frames;
        let cap = |num: u64, den: u64| budgeted.then(|| (pc * num / den).max(8));
        vec![
            TenantSpec {
                id: FRONTEND,
                name: "frontend".to_owned(),
                qos: QosClass::Guaranteed,
                fast_budget_frames: None,
                pc_budget: cap(2, 5),
            },
            TenantSpec {
                id: ANALYTICS,
                name: "analytics".to_owned(),
                qos: QosClass::Burstable,
                fast_budget_frames: None,
                pc_budget: cap(3, 10),
            },
            TenantSpec {
                id: CHURN,
                name: "churn".to_owned(),
                qos: QosClass::BestEffort,
                fast_budget_frames: budgeted.then(|| (scale.fast_bytes / PAGE_SIZE / 8).max(8)),
                pc_budget: cap(1, 8),
            },
        ]
    }

    /// One frontend request: deliver/serve/answer on the next session,
    /// re-reading a zipf-hot page of the hot file, and feed the
    /// telemetry socket.
    fn frontend_step(&mut self, k: &mut Kernel, ctx: &mut Ctx<'_>) -> Result<(), KernelError> {
        let idx = (self.front_ops % self.sessions.len() as u64) as usize;
        ctx.cpu = CpuId(idx as u16);
        let sock = self.sessions[idx];
        k.deliver(ctx, sock, REQUEST_BYTES)?;
        k.recv(ctx, sock, REQUEST_BYTES)?;
        let page = self.zipf.next_key(&mut self.rng);
        #[expect(clippy::expect_used, reason = "set in setup")]
        let hot = self.hot_fd.expect("setup opened the hot file");
        k.read(ctx, hot, (page % self.hot_pages) * PAGE_SIZE, 4096)?;
        k.send(ctx, sock, RESPONSE_BYTES)?;
        // Publish telemetry for the analytics tenant (bounded queue so
        // ingress buffers cannot grow without limit if analytics lags).
        if self.telemetry_queued < 64 {
            #[expect(clippy::expect_used, reason = "set in setup")]
            let tele = self.telemetry.expect("setup opened telemetry");
            k.deliver(ctx, tele, TELEMETRY_BYTES)?;
            self.telemetry_queued += 1;
        }
        self.front_ops += 1;
        Ok(())
    }

    /// One analytics op: commitlog append, an SSTable scan read, and
    /// periodic cross-tenant reads (shared config file, telemetry
    /// socket) that exercise shared-object attribution.
    fn analytics_step(&mut self, k: &mut Kernel, ctx: &mut Ctx<'_>) -> Result<(), KernelError> {
        ctx.cpu = CpuId(self.sessions.len() as u16);
        if let Some(cl) = self.commitlog {
            k.write(ctx, cl, self.commitlog_off, 1024)?;
            self.commitlog_off += 1024;
        }
        let n = self.sstables.len() as u64;
        if n > 0 {
            let pick = self.rng.gen_below(n);
            let path = self.sstables[pick as usize].clone();
            let fd = k.open(ctx, &path)?;
            let page = self.rng.gen_below(self.sstable_pages());
            k.read(ctx, fd, page * PAGE_SIZE, 4096)?;
            k.close(ctx, fd)?;
        }
        // Every few ops, read the frontend-owned config file: the pages
        // stay charged to the frontend (the inode's owner) and the
        // access counts as a shared-object access by analytics.
        if self.analytics_ops.is_multiple_of(4) {
            let fd = k.open(ctx, "/tenants/shared.cfg")?;
            k.read(ctx, fd, 0, 4096)?;
            k.close(ctx, fd)?;
        }
        // Drain the frontend-owned telemetry socket: rx bytes are
        // charged to analytics (the reading tenant), the socket knode
        // stays the frontend's.
        if self.telemetry_queued > 0 {
            #[expect(clippy::expect_used, reason = "set in setup")]
            let tele = self.telemetry.expect("setup opened telemetry");
            k.recv(ctx, tele, TELEMETRY_BYTES)?;
            self.telemetry_queued -= 1;
        }
        self.analytics_ops += 1;
        Ok(())
    }

    /// One churn op: write a short-lived file and unlink the oldest
    /// once the lag window is full.
    fn churn_step(&mut self, k: &mut Kernel, ctx: &mut Ctx<'_>) -> Result<(), KernelError> {
        ctx.cpu = CpuId(self.sessions.len() as u16 + 1);
        let path = format!("/churn/f{}", self.churn_serial);
        self.churn_serial += 1;
        let fd = k.create(ctx, &path)?;
        k.write(ctx, fd, 0, CHURN_PAGES * PAGE_SIZE)?;
        k.fsync(ctx, fd)?;
        k.close(ctx, fd)?;
        self.churn_live.push_back(path);
        while self.churn_live.len() > self.churn_lag {
            #[expect(clippy::expect_used, reason = "the loop guard ensures non-empty")]
            let old = self.churn_live.pop_front().expect("non-empty");
            k.unlink(ctx, &old)?;
        }
        Ok(())
    }

    fn sstable_pages(&self) -> u64 {
        (self.scale.page_cache_frames / 16).max(4)
    }
}

impl Workload for MultiTenant {
    fn name(&self) -> &'static str {
        "tenants"
    }

    fn tenant_specs(&self) -> Vec<TenantSpec> {
        MultiTenant::specs(&self.scale, self.budgeted)
    }

    fn setup(&mut self, k: &mut Kernel, ctx: &mut Ctx<'_>) -> Result<(), KernelError> {
        // Frontend: hot file, shared config, client sessions, telemetry.
        ctx.tenant = FRONTEND;
        let hot = k.create(ctx, "/tenants/hot")?;
        k.write(ctx, hot, 0, self.hot_pages * PAGE_SIZE)?;
        k.fsync(ctx, hot)?;
        self.hot_fd = Some(hot);
        let cfg = k.create(ctx, "/tenants/shared.cfg")?;
        k.write(ctx, cfg, 0, 4 * PAGE_SIZE)?;
        k.fsync(ctx, cfg)?;
        k.close(ctx, cfg)?;
        for _ in 0..self.scale.threads {
            self.sessions.push(k.socket(ctx)?);
        }
        self.telemetry = Some(k.socket(ctx)?);
        // Analytics: commitlog plus a small SSTable set.
        ctx.tenant = ANALYTICS;
        self.commitlog = Some(k.create(ctx, "/analytics/commitlog")?);
        for i in 0..4 {
            let path = format!("/analytics/sst{i}");
            let fd = k.create(ctx, &path)?;
            k.write(ctx, fd, 0, self.sstable_pages() * PAGE_SIZE)?;
            k.fsync(ctx, fd)?;
            k.close(ctx, fd)?;
            self.sstables.push(path);
        }
        ctx.tenant = TenantId::DEFAULT;
        Ok(())
    }

    fn step(&mut self, k: &mut Kernel, ctx: &mut Ctx<'_>) -> Result<(), KernelError> {
        // Weighted deterministic interleave: 45 % frontend, 25 %
        // analytics, 30 % churn.
        let draw = self.rng.gen_below(100);
        if draw < 45 {
            ctx.tenant = FRONTEND;
            self.frontend_step(k, ctx)?;
        } else if draw < 70 {
            ctx.tenant = ANALYTICS;
            self.analytics_step(k, ctx)?;
        } else {
            ctx.tenant = CHURN;
            self.churn_step(k, ctx)?;
        }
        self.ops_done += 1;
        Ok(())
    }

    fn target_ops(&self) -> u64 {
        self.scale.ops
    }

    fn ops_done(&self) -> u64 {
        self.ops_done
    }

    fn teardown(&mut self, k: &mut Kernel, ctx: &mut Ctx<'_>) -> Result<(), KernelError> {
        ctx.tenant = FRONTEND;
        for s in self.sessions.drain(..) {
            k.close(ctx, s)?;
        }
        if let Some(t) = self.telemetry.take() {
            k.close(ctx, t)?;
        }
        if let Some(hot) = self.hot_fd.take() {
            k.close(ctx, hot)?;
        }
        ctx.tenant = ANALYTICS;
        if let Some(cl) = self.commitlog.take() {
            k.fsync(ctx, cl)?;
            k.close(ctx, cl)?;
        }
        ctx.tenant = CHURN;
        for path in self.churn_live.drain(..) {
            k.unlink(ctx, &path)?;
        }
        ctx.tenant = TenantId::DEFAULT;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kloc_kernel::hooks::NullHooks;
    use kloc_kernel::KernelParams;
    use kloc_mem::MemorySystem;

    fn run(budgeted: bool) -> (Kernel, MultiTenant) {
        let scale = Scale::tiny();
        let mut mem = MemorySystem::two_tier(u64::MAX, 8);
        let mut hooks = NullHooks::fast_first();
        let mut k = Kernel::new(KernelParams {
            page_cache_budget: scale.page_cache_frames,
            ..KernelParams::default()
        });
        for spec in MultiTenant::specs(&scale, budgeted) {
            k.register_tenant(spec);
        }
        let mut w = MultiTenant::new(&scale, budgeted);
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        w.setup(&mut k, &mut ctx).unwrap();
        while !w.is_done() {
            w.step(&mut k, &mut ctx).unwrap();
        }
        w.teardown(&mut k, &mut ctx).unwrap();
        (k, w)
    }

    #[test]
    fn all_three_tenants_act_and_attribution_lands() {
        let (k, _) = run(false);
        let f = k.tenant_stats(FRONTEND);
        let a = k.tenant_stats(ANALYTICS);
        let c = k.tenant_stats(CHURN);
        assert!(f.pc_inserted > 0, "frontend caches its hot file");
        assert!(f.tx_bytes > 0 && f.rx_bytes > 0, "frontend serves sockets");
        assert!(a.pc_inserted > 0, "analytics caches logs and sstables");
        assert!(a.rx_bytes > 0, "analytics drains the telemetry socket");
        assert_eq!(a.tx_bytes, 0, "analytics never sends");
        assert!(c.pc_inserted > c.pc_resident, "churn unlinks its files");
        assert_eq!(c.tx_bytes + c.rx_bytes, 0, "churn is file-only");
    }

    #[test]
    fn unbudgeted_churn_causes_cross_evictions() {
        let (k, _) = run(false);
        let c = k.tenant_stats(CHURN);
        assert!(
            c.cross_evictions_caused > 0,
            "churn must evict neighbours' pages without budgets"
        );
        assert_eq!(c.pc_self_evicted, 0, "no cap, no self-eviction");
    }

    #[test]
    fn budgets_confine_eviction_to_the_offender() {
        let (k, _) = run(true);
        for id in [FRONTEND, ANALYTICS, CHURN] {
            let s = k.tenant_stats(id);
            assert_eq!(
                s.cross_evictions_caused, 0,
                "{id}: caps sum below the global budget, so the global shrinker never fires"
            );
            assert_eq!(s.cross_evictions_suffered, 0, "{id}: isolated");
        }
        let c = k.tenant_stats(CHURN);
        assert!(c.pc_self_evicted > 0, "churn reclaims from itself");
        let specs = MultiTenant::specs(&Scale::tiny(), true);
        let f_cap = specs[0].pc_budget.unwrap();
        assert!(
            k.tenant_stats(FRONTEND).pc_resident <= f_cap,
            "frontend stays within its own cap"
        );
    }

    #[test]
    fn specs_caps_sum_below_global_budget() {
        let scale = Scale::tiny();
        let specs = MultiTenant::specs(&scale, true);
        let total: u64 = specs.iter().filter_map(|s| s.pc_budget).sum();
        assert!(
            total < scale.page_cache_frames,
            "caps ({total}) must undercut the global budget ({})",
            scale.page_cache_frames
        );
        assert!(MultiTenant::specs(&scale, false)
            .iter()
            .all(|s| s.pc_budget.is_none() && s.fast_budget_frames.is_none()));
    }
}
