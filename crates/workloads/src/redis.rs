//! Redis model (paper Table 3).
//!
//! Sixteen in-memory key-value instances serving requests over sockets
//! (75 % sets / 25 % gets) and periodically checkpointing their store to
//! a dump file on disk. The paper highlights two KLOC-relevant
//! behaviours (§3.1, §7.1): a significant footprint of ingress/egress
//! socket buffers (whose placement KLOCs prioritize), and page-cache
//! pages from checkpoints of *large, quickly-cold* files (which KLOCs
//! rapidly demote — the source of the 2.2-2.7x Redis wins).

use crate::rng::WorkloadRng;

use kloc_kernel::hooks::{CpuId, Ctx};
use kloc_kernel::{Fd, Kernel, KernelError};
use kloc_mem::{Nanos, PAGE_SIZE};

use crate::keygen::Zipfian;
use crate::scale::Scale;
use crate::spec::{AppMemory, Workload};

const REQUEST_BYTES: u64 = 256;
const RESPONSE_BYTES: u64 = 2048;
/// Client requests arrive in pipelined bursts (redis-benchmark style),
/// so ingress socket buffers queue up and form sustained kernel-object
/// memory — the paper's "significant number of kernel object pages for
/// ingress and egress socket buffers" (§3.1).
const PIPELINE: u64 = 4;

/// Per-op application think time (hash lookup, encoding).
const THINK: Nanos = Nanos::new(450);

/// Redis persistence mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Persistence {
    /// Periodic RDB snapshots: each BGSAVE writes the whole store to a
    /// fresh dump file and deletes the previous one (the paper's
    /// configuration: "periodically checkpoints to disk").
    Rdb,
    /// Append-only file: every set appends to a per-instance log that is
    /// periodically rewritten — a showcase for member-granular demotion
    /// (the AOF's old pages go cold while its tail stays hot).
    Aof,
}

#[derive(Debug)]
struct Instance {
    sock: Fd,
    store: AppMemory,
    dump_serial: u64,
    /// Requests delivered but not yet consumed (pipelining).
    queued: u64,
    /// Append-only file (AOF mode).
    aof: Option<Fd>,
    aof_offset: u64,
}

/// The Redis workload.
#[derive(Debug)]
pub struct Redis {
    scale: Scale,
    zipf: Zipfian,
    rng: WorkloadRng,
    persistence: Persistence,
    instances: Vec<Instance>,
    /// Checkpoint one instance every this many global operations
    /// (scaled so each instance checkpoints a few times per run, as with
    /// periodic `save` rules in a real deployment).
    checkpoint_every: u64,
    ops_done: u64,
    checkpoints: u64,
}

impl Redis {
    /// Creates the workload at `scale` with RDB snapshots (the paper's
    /// configuration).
    pub fn new(scale: &Scale) -> Self {
        Redis::with_persistence(scale, Persistence::Rdb)
    }

    /// Creates the workload with an explicit persistence mode.
    pub fn with_persistence(scale: &Scale, persistence: Persistence) -> Self {
        let n_keys = (scale.data_bytes / 1024).max(16);
        Redis {
            zipf: Zipfian::new(n_keys),
            rng: WorkloadRng::seed_from_u64(scale.seed ^ 0x8ED15),
            persistence,
            instances: Vec::new(),
            checkpoint_every: (scale.ops / 60).max(50),
            ops_done: 0,
            checkpoints: 0,
            scale: scale.clone(),
        }
    }

    /// Checkpoints taken so far.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// Store pages per instance.
    fn pages_per_instance(&self) -> u64 {
        // Paper: 14 GB resident for a 40 GB-class config -> ~data/3.
        (self.scale.data_bytes / PAGE_SIZE / 3 / self.scale.threads as u64).max(4)
    }

    /// BGREWRITEAOF: write a compacted log and delete the old one.
    fn rewrite_aof(
        &mut self,
        k: &mut Kernel,
        ctx: &mut Ctx<'_>,
        idx: usize,
    ) -> Result<(), KernelError> {
        let serial = self.instances[idx].dump_serial;
        let new_path = format!("/redis/aof{idx}_r{serial}");
        let fd = k.create(ctx, &new_path)?;
        // Compacted log ~ one entry per store page.
        let pages = self.instances[idx].store.pages() / 4;
        k.write(ctx, fd, 0, (pages * 256).max(256))?;
        k.fsync(ctx, fd)?;
        // Swap logs: close and delete the old one.
        if let Some(old) = self.instances[idx].aof.take() {
            k.close(ctx, old)?;
        }
        let old_path = if serial == 0 {
            format!("/redis/aof{idx}")
        } else {
            format!("/redis/aof{idx}_r{}", serial - 1)
        };
        k.unlink(ctx, &old_path)?;
        self.instances[idx].aof = Some(fd);
        self.instances[idx].aof_offset = (pages * 256).max(256);
        self.instances[idx].dump_serial += 1;
        self.checkpoints += 1;
        Ok(())
    }

    /// BGSAVE: dump one instance's store to a fresh file, replacing its
    /// previous dump.
    fn checkpoint(
        &mut self,
        k: &mut Kernel,
        ctx: &mut Ctx<'_>,
        idx: usize,
    ) -> Result<(), KernelError> {
        let pages = {
            let inst = &self.instances[idx];
            inst.store.pages()
        };
        let serial = self.instances[idx].dump_serial;
        let path = format!("/redis/dump{idx}_{serial}");
        let fd = k.create(ctx, &path)?;
        // Serialize the store: read app memory, write the file.
        for p in 0..pages {
            self.instances[idx].store.touch(k, ctx, p, PAGE_SIZE, false);
            k.write(ctx, fd, p * PAGE_SIZE, PAGE_SIZE)?;
        }
        k.fsync(ctx, fd)?;
        k.close(ctx, fd)?;
        if serial > 0 {
            let old = format!("/redis/dump{idx}_{}", serial - 1);
            k.unlink(ctx, &old)?;
        }
        self.instances[idx].dump_serial += 1;
        self.checkpoints += 1;
        Ok(())
    }
}

impl Workload for Redis {
    fn name(&self) -> &'static str {
        "redis"
    }

    fn setup(&mut self, k: &mut Kernel, ctx: &mut Ctx<'_>) -> Result<(), KernelError> {
        let pages = self.pages_per_instance();
        for _ in 0..self.scale.threads {
            let sock = k.socket(ctx)?;
            let store = AppMemory::allocate(k, ctx, pages)?;
            let aof = if self.persistence == Persistence::Aof {
                Some(k.create(ctx, &format!("/redis/aof{}", self.instances.len()))?)
            } else {
                None
            };
            self.instances.push(Instance {
                sock,
                store,
                dump_serial: 0,
                queued: 0,
                aof,
                aof_offset: 0,
            });
        }
        Ok(())
    }

    fn step(&mut self, k: &mut Kernel, ctx: &mut Ctx<'_>) -> Result<(), KernelError> {
        let idx = (self.ops_done % self.instances.len() as u64) as usize;
        ctx.cpu = CpuId(idx as u16);
        let key = self.zipf.next_key(&mut self.rng);
        let is_set = self.rng.gen_f64() < 0.75;

        // Pipelined requests arrive in bursts on the instance's socket;
        // each op consumes one, serves it from the in-memory store, and
        // answers.
        let sock = self.instances[idx].sock;
        if self.instances[idx].queued == 0 {
            for _ in 0..PIPELINE {
                k.deliver(ctx, sock, REQUEST_BYTES)?;
            }
            self.instances[idx].queued = PIPELINE;
        }
        k.recv(ctx, sock, REQUEST_BYTES)?;
        self.instances[idx].queued -= 1;
        ctx.mem.charge(THINK);
        // Heap churn (request/response objects) + hash walk + value.
        self.instances[idx].store.churn(k, ctx, 16)?;
        self.instances[idx].store.touch(k, ctx, key / 3, 64, false);
        self.instances[idx].store.touch(k, ctx, key, 1024, is_set);
        // AOF: every write appends to the instance's log.
        if is_set {
            if let Some(aof) = self.instances[idx].aof {
                let off = self.instances[idx].aof_offset;
                k.write(ctx, aof, off, 256)?;
                self.instances[idx].aof_offset = off + 256;
            }
        }
        k.send(ctx, sock, RESPONSE_BYTES)?;

        self.ops_done += 1;
        match self.persistence {
            Persistence::Rdb => {
                if self.ops_done.is_multiple_of(self.checkpoint_every) {
                    let victim = (self.checkpoints % self.instances.len() as u64) as usize;
                    self.checkpoint(k, ctx, victim)?;
                }
            }
            Persistence::Aof => {
                // Periodic AOF rewrite: replace one instance's log with a
                // compacted one (BGREWRITEAOF).
                if self.ops_done.is_multiple_of(self.checkpoint_every * 4) {
                    let idx = (self.checkpoints % self.instances.len() as u64) as usize;
                    self.rewrite_aof(k, ctx, idx)?;
                }
            }
        }
        Ok(())
    }

    fn target_ops(&self) -> u64 {
        self.scale.ops
    }

    fn ops_done(&self) -> u64 {
        self.ops_done
    }

    fn teardown(&mut self, k: &mut Kernel, ctx: &mut Ctx<'_>) -> Result<(), KernelError> {
        for mut inst in self.instances.drain(..) {
            k.close(ctx, inst.sock)?;
            if let Some(aof) = inst.aof.take() {
                k.fsync(ctx, aof)?;
                k.close(ctx, aof)?;
            }
            inst.store.free_all(k, ctx)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    use kloc_kernel::hooks::{CpuId, KernelHooks, NullHooks, PageRequest, Placement};
    use kloc_kernel::{KernelObjectType, KernelParams, ObjectId, ObjectInfo};
    use kloc_mem::{FrameId, MemorySystem};

    fn run(scale: Scale) -> (Kernel, Redis) {
        let mut mem = MemorySystem::two_tier(u64::MAX, 8);
        let mut hooks = NullHooks::fast_first();
        let mut k = Kernel::new(KernelParams::default());
        let mut w = Redis::new(&scale);
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        w.setup(&mut k, &mut ctx).unwrap();
        while !w.is_done() {
            w.step(&mut k, &mut ctx).unwrap();
        }
        w.teardown(&mut k, &mut ctx).unwrap();
        (k, w)
    }

    /// Fast-first placement that counts live kernel objects through the
    /// alloc/free hooks, which fire once per object-table insert and
    /// remove, and shares the peak with the test.
    struct LiveCount {
        live: u64,
        peak: Rc<Cell<u64>>,
    }

    impl KernelHooks for LiveCount {
        fn place_page(&mut self, _req: &PageRequest, _mem: &MemorySystem) -> Placement {
            Placement::fast_then_slow()
        }

        fn on_object_alloc(
            &mut self,
            _obj: ObjectId,
            _info: &ObjectInfo,
            _frame: FrameId,
            _cpu: CpuId,
            _mem: &mut MemorySystem,
        ) {
            self.live += 1;
            self.peak.set(self.peak.get().max(self.live));
        }

        fn on_object_free(
            &mut self,
            _obj: ObjectId,
            _info: &ObjectInfo,
            _frame: FrameId,
            _mem: &mut MemorySystem,
        ) {
            self.live -= 1;
        }
    }

    #[test]
    fn object_slots_never_exceed_peak_live_objects() {
        // The object table recycles freed slots, so it never holds more
        // slots than objects were live at once, although the run
        // allocates many times that in transient socket objects.
        let peak = Rc::new(Cell::new(0));
        let mut mem = MemorySystem::two_tier(u64::MAX, 8);
        let mut hooks = LiveCount {
            live: 0,
            peak: Rc::clone(&peak),
        };
        let mut k = Kernel::new(KernelParams::default());
        let mut w = Redis::new(&Scale::tiny());
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let check = |k: &Kernel, at: &str| {
            let slots = k.objects().slot_count() as u64;
            assert!(
                slots <= peak.get(),
                "{at}: {slots} slots for a peak of {} live objects",
                peak.get()
            );
        };
        w.setup(&mut k, &mut ctx).unwrap();
        check(&k, "setup");
        let mut steps = 0;
        while !w.is_done() {
            w.step(&mut k, &mut ctx).unwrap();
            steps += 1;
            check(&k, &format!("step {steps}"));
        }
        w.teardown(&mut k, &mut ctx).unwrap();
        check(&k, "teardown");
        let allocated: u64 = KernelObjectType::ALL
            .iter()
            .map(|&ty| k.stats().ty(ty).allocated)
            .sum();
        assert!(
            allocated > 10 * peak.get(),
            "{allocated} objects allocated, peak {} live",
            peak.get()
        );
    }

    #[test]
    fn exercises_sockets_and_checkpoints() {
        let (k, w) = run(Scale::tiny());
        assert!(w.checkpoints() > 0, "BGSAVE must fire");
        let s = k.stats();
        assert!(s.ty(KernelObjectType::SkBuff).allocated > 1000);
        assert!(s.ty(KernelObjectType::RxBuf).allocated > 500);
        assert!(s.ty(KernelObjectType::Sock).allocated >= 4);
        assert!(
            s.ty(KernelObjectType::PageCache).allocated > 0,
            "checkpoints hit the page cache"
        );
        // Old dumps unlinked -> page cache freed.
        assert!(s.ty(KernelObjectType::PageCache).freed > 0);
    }

    #[test]
    fn aof_mode_appends_and_rewrites() {
        let mut mem = MemorySystem::two_tier(u64::MAX, 8);
        let mut hooks = NullHooks::fast_first();
        let mut k = Kernel::new(KernelParams::default());
        let scale = Scale::tiny();
        let mut w = Redis::with_persistence(&scale, Persistence::Aof);
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        w.setup(&mut k, &mut ctx).unwrap();
        while !w.is_done() {
            w.step(&mut k, &mut ctx).unwrap();
        }
        assert!(w.checkpoints() > 0, "AOF rewrites must fire");
        // Rewrites delete old logs.
        assert!(k.stats().ty(KernelObjectType::Inode).freed > 0);
        w.teardown(&mut k, &mut ctx).unwrap();
    }

    #[test]
    fn network_mix_is_heavier_than_fs() {
        // Redis should allocate more network object bytes than journal
        // bytes (it is network-intensive; Fig. 2a shows the mix).
        let (k, _) = run(Scale::tiny());
        let s = k.stats();
        let net = s.ty(KernelObjectType::SkBuff).bytes + s.ty(KernelObjectType::RxBuf).bytes;
        let journal = s.ty(KernelObjectType::JournalHead).bytes;
        assert!(net > journal);
    }
}
