//! The kernel facade: syscall layer tying all subsystems together.
//!
//! [`Kernel`] owns the VFS, allocators, journal, block layer, disk,
//! network state, and readahead, and exposes the syscall-like API that
//! workloads drive. Every operation charges a calibrated CPU cost plus
//! the memory accesses of the kernel objects it touches — which is how
//! tier placement of those objects turns into end-to-end performance
//! differences (the paper's central effect).
//!
//! The per-operation object choreography follows paper Fig. 3(b):
//! `create` allocates an inode + dentry and journals the metadata;
//! `write` allocates page-cache pages, radix nodes, extents, and journal
//! heads; writeback allocates bios and blk-mq requests; `fsync` commits
//! the journal; socket I/O allocates socks, skbuffs, data buffers, and
//! RX ring pages.

use std::collections::VecDeque;

use kloc_mem::{DiskOp, FrameId, FrameSet, PageKind, TenantId};

use crate::block::BlockLayer;
use crate::disk::{Disk, IoPattern};
use crate::error::KernelError;
use crate::extent::ExtentTree;
use crate::hooks::{Ctx, PageRequest};
use crate::journal::{Journal, MetaUpdate};
use crate::lru::{List, PageLru};
use crate::net::{NetStats, Packet, RxQueue};
use crate::obj::{Backing, KernelObjectType, ObjectId, ObjectInfo, ObjectTable};
use crate::pagecache::PageCache;
use crate::params::KernelParams;
use crate::readahead::{Readahead, ReadaheadState};
use crate::recovery::{DurableStore, JournalRecord, Promise};
use crate::slab::PackedAllocator;
use crate::stats::{KernelStats, Syscall};
use crate::tenant::{QosClass, TenantSpec, TenantStats, TenantTable};
use crate::vfs::{Fd, Inode, InodeId, InodeKind, Vfs};

/// The simulated kernel.
#[derive(Debug)]
pub struct Kernel {
    params: KernelParams,
    vfs: Vfs,
    objects: ObjectTable,
    slab: PackedAllocator,
    kvma: PackedAllocator,
    journal: Journal,
    disk: Disk,
    block: BlockLayer,
    readahead: Readahead,
    /// LRU of page-cache frames, for the cache-budget shrinker.
    cache_lru: PageLru,
    /// frame -> (inode, page index) for cached file pages.
    cache_index: CacheIndex,
    /// Live file page-cache pages (budget accounting).
    cache_pages: u64,
    /// Globally dirty pages and their flush order.
    dirty_pages: u64,
    dirty_list: VecDeque<(InodeId, u64)>,
    /// Frames brought in by readahead, awaiting first real use
    /// (direct-mapped by frame slot — checked on every cache hit).
    prefetched: FrameSet,
    /// What has actually reached the disk (crash-recovery model).
    durable: DurableStore,
    /// Complete records in `durable.journal`, counted as
    /// [`Kernel::commit_journal`] pushes them, so `fsync` reads its
    /// promise off this instead of recounting the whole journal.
    complete_records: usize,
    /// What successful `fsync` calls have promised is durable.
    promise: Promise,
    stats: KernelStats,
    net_stats: NetStats,
    /// Tenant registry: specs, per-tenant counters, self-eviction FIFO.
    tenants: TenantTable,
    /// Scratch buffers of [`Kernel::writeback`] and `flush_pages`, kept
    /// across calls so background writeback allocates nothing once they
    /// have grown. An error return drops the one in use; the next call
    /// regrows it.
    writeback_batch: Vec<(InodeId, u64)>,
    writeback_idxs: Vec<u64>,
    dma: Vec<kloc_mem::AccessOp>,
}

impl Kernel {
    /// Creates a kernel with the given parameters.
    pub fn new(params: KernelParams) -> Self {
        Kernel {
            vfs: Vfs::new(),
            objects: ObjectTable::new(),
            slab: PackedAllocator::new(PageKind::Slab, None),
            // Sharded arenas: objects of related inodes share relocatable
            // frames. Sharding bounds internal fragmentation (the paper's
            // <1% Table-6 overhead implies no per-inode page blow-up)
            // while keeping unrelated contexts mostly apart so en-masse
            // knode migration drags little collateral.
            kvma: PackedAllocator::new(PageKind::KernelVma, Some(64)),
            journal: Journal::new(params.journal_txn_max),
            disk: Disk::nvme(),
            block: BlockLayer::new(),
            readahead: Readahead::new(params.readahead_max),
            cache_lru: PageLru::new(),
            cache_index: CacheIndex::default(),
            cache_pages: 0,
            dirty_pages: 0,
            dirty_list: VecDeque::new(),
            prefetched: FrameSet::new(),
            durable: DurableStore::default(),
            complete_records: 0,
            promise: Promise::default(),
            stats: KernelStats::default(),
            net_stats: NetStats::default(),
            tenants: TenantTable::new(),
            writeback_batch: Vec::new(),
            writeback_idxs: Vec::new(),
            dma: Vec::new(),
            params,
        }
    }

    /// Kernel parameters.
    pub fn params(&self) -> &KernelParams {
        &self.params
    }

    /// Kernel statistics.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// Network statistics.
    pub fn net_stats(&self) -> &NetStats {
        &self.net_stats
    }

    /// Registers (or replaces) a tenant. Budgets take effect on the
    /// tenant's next allocation; nothing is reclaimed retroactively.
    pub fn register_tenant(&mut self, spec: TenantSpec) {
        self.tenants.register(spec);
    }

    /// The tenant registry (specs + per-tenant counters).
    pub fn tenants(&self) -> &TenantTable {
        &self.tenants
    }

    /// A copy of one tenant's counters (zeros if it never acted).
    pub fn tenant_stats(&self, id: TenantId) -> TenantStats {
        self.tenants.stats(id)
    }

    /// QoS class a tenant is scheduled under. Unregistered principals
    /// (including the shared-kernel default tenant) are scavengers:
    /// anything that never declared a class yields first.
    fn qos_of(&self, id: TenantId) -> QosClass {
        self.tenants
            .spec(id)
            .map_or(QosClass::BestEffort, |s| s.qos)
    }

    /// The QoS class that pays reclaim next — the most-scavenger class
    /// among tenants currently holding page-cache residency — plus
    /// whether more than one distinct class holds residency (plain LRU
    /// reclaim applies when only one does; there is nobody to protect).
    fn reclaim_floor(&self) -> (Option<QosClass>, bool) {
        let mut seen = [false; 3];
        for i in 0..self.tenants.stats_len() {
            let id = TenantId(i as u16);
            if self.tenants.stats(id).pc_resident > 0 {
                seen[self.qos_of(id) as usize] = true;
            }
        }
        let floor = [
            QosClass::BestEffort,
            QosClass::Burstable,
            QosClass::Guaranteed,
        ]
        .into_iter()
        .find(|q| seen[*q as usize]);
        (floor, seen.iter().filter(|s| **s).count() > 1)
    }

    /// Applies a `sys_kloc_memsize`-style mid-run budget resize
    /// (DESIGN.md §13). Returns `Ok(false)` when `id` was never
    /// registered. A page-cache shrink is enforced by *gradual*
    /// self-eviction: at most [`KernelParams::resize_evict_step`] pages
    /// (clamped to at least 1) are reclaimed here, and the insert-time
    /// cap works off the remainder — a large shrink degrades the tenant
    /// over time instead of stalling the run on one giant reclaim. Fast
    /// budgets take effect at the policy's next placement decision.
    ///
    /// # Errors
    /// Propagates I/O errors from flushing dirty victim pages.
    pub fn resize_tenant_budget(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: TenantId,
        pc_budget: Option<u64>,
        fast_budget_frames: Option<u64>,
    ) -> Result<bool, KernelError> {
        if !self
            .tenants
            .resize_budget(id, pc_budget, fast_budget_frames)
        {
            return Ok(false);
        }
        if let Some(cap) = pc_budget {
            let step = self.params.resize_evict_step.max(1);
            let mut evicted = 0;
            while evicted < step && self.tenants.stats(id).pc_resident > cap {
                if !self.self_evict_one(ctx, id, Some("resize"))? {
                    break;
                }
                evicted += 1;
            }
        }
        Ok(true)
    }

    /// The storage device.
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// The block layer.
    pub fn block(&self) -> &BlockLayer {
        &self.block
    }

    /// The journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The readahead engine.
    pub fn readahead(&self) -> &Readahead {
        &self.readahead
    }

    /// Live kernel objects.
    pub fn objects(&self) -> &ObjectTable {
        &self.objects
    }

    /// The VFS tables.
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// Live file page-cache pages.
    pub fn cache_pages(&self) -> u64 {
        self.cache_pages
    }

    /// Globally dirty pages.
    pub fn dirty_pages(&self) -> u64 {
        self.dirty_pages
    }

    /// What has reached the disk: data-page versions and journal
    /// records. Feed to [`crate::recovery::recover`] after a simulated
    /// crash.
    pub fn durable(&self) -> &DurableStore {
        &self.durable
    }

    /// The fsync oracle: what successful `fsync` calls promised. Feed
    /// to [`crate::recovery::check`] alongside the recovered state.
    pub fn promise(&self) -> &Promise {
        &self.promise
    }

    /// Aborts the syscall with [`KernelError::Crashed`] when a
    /// time-scheduled crash fault is due (no-op without faults).
    fn crash_check(&mut self, ctx: &mut Ctx<'_>) -> Result<(), KernelError> {
        if ctx.mem.fault_crash_due() {
            return Err(KernelError::Crashed);
        }
        Ok(())
    }

    /// blk-mq error handling: consumes any injected fault for `op`,
    /// retrying with bounded exponential backoff charged to the virtual
    /// clock. Errors out with [`KernelError::Io`] once
    /// [`KernelParams::io_max_retries`] is exceeded. On the faultless
    /// path this is a single cheap check.
    fn disk_retry(&mut self, ctx: &mut Ctx<'_>, op: DiskOp) -> Result<(), KernelError> {
        let mut attempt: u32 = 0;
        while ctx.mem.fault_take_disk(op) {
            self.disk.record_io_error();
            attempt += 1;
            if attempt > self.params.io_max_retries {
                return Err(KernelError::Io(op));
            }
            let backoff =
                (self.params.io_retry_base * (1u64 << (attempt - 1))).min(self.params.io_retry_cap);
            ctx.mem.charge(backoff);
            self.disk.record_retry();
            let t = ctx.mem.now().as_nanos();
            kloc_trace::emit(|| kloc_trace::Event::Retry {
                t,
                op: op.label().to_string(),
                attempt: u64::from(attempt),
                backoff: backoff.as_nanos(),
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Object helpers
    // ------------------------------------------------------------------

    /// Allocates a kernel object, charging CPU cost and firing hooks.
    fn alloc_object(
        &mut self,
        ctx: &mut Ctx<'_>,
        ty: KernelObjectType,
        inode: Option<InodeId>,
        readahead: bool,
    ) -> Result<ObjectId, KernelError> {
        let frame = match ty.backing() {
            Backing::Slab => {
                if ctx.hooks.relocatable_kernel_alloc() {
                    ctx.mem.charge(self.params.kvma_alloc_cpu);
                    self.kvma.alloc(ctx, ty, inode, readahead)?
                } else {
                    ctx.mem.charge(self.params.slab_alloc_cpu);
                    self.slab.alloc(ctx, ty, inode, readahead)?
                }
            }
            Backing::Page(kind) => {
                ctx.mem.charge(self.params.page_alloc_cpu);
                let req = PageRequest {
                    kind,
                    ty: Some(ty),
                    inode,
                    readahead,
                    cpu: ctx.cpu,
                    tenant: ctx.tenant,
                };
                let placement = ctx.hooks.place_page(&req, ctx.mem);
                let frame = ctx.mem.allocate_preferring(&placement, kind)?;
                // Page-backed kernel frames are owned by the allocating
                // tenant; slab frames stay on TenantId::DEFAULT because
                // a packed slab page can host objects of many tenants.
                if ctx.tenant != TenantId::DEFAULT {
                    ctx.mem.set_frame_tenant(frame, ctx.tenant)?;
                }
                frame
            }
        };
        let info = ObjectInfo {
            ty,
            size: ty.size(),
            inode,
        };
        let obj = self.objects.insert(info, frame, ctx.mem.now());
        self.stats.on_alloc(ty);
        ctx.hooks
            .on_object_alloc(obj, &info, frame, ctx.cpu, ctx.mem);
        Ok(obj)
    }

    /// Frees a kernel object, charging CPU cost and firing hooks.
    fn free_object(&mut self, ctx: &mut Ctx<'_>, obj: ObjectId) -> Result<(), KernelError> {
        let kobj = self
            .objects
            .remove(obj)
            .ok_or(KernelError::BadObject(obj))?;
        let lifetime = ctx.mem.now().saturating_sub(kobj.allocated_at);
        self.stats.on_free(kobj.info.ty, lifetime);
        ctx.mem.charge(self.params.free_cpu);
        ctx.hooks
            .on_object_free(obj, &kobj.info, kobj.frame, ctx.mem);
        match kobj.info.ty.backing() {
            Backing::Slab => {
                let kind = ctx.mem.frame(kobj.frame)?.kind();
                if kind == PageKind::KernelVma {
                    self.kvma
                        .free(ctx, kobj.info.ty, kobj.info.inode, kobj.frame)?;
                } else {
                    self.slab
                        .free(ctx, kobj.info.ty, kobj.info.inode, kobj.frame)?;
                }
            }
            Backing::Page(_) => {
                if self.cache_index.remove(kobj.frame) {
                    self.cache_pages -= 1;
                }
                self.cache_lru.remove(kobj.frame);
                self.prefetched.remove(kobj.frame);
                ctx.hooks.on_page_free(kobj.frame, ctx.mem);
                ctx.mem.free(kobj.frame)?;
            }
        }
        Ok(())
    }

    /// Charges a memory access to a kernel object and fires hooks.
    fn access_object(
        &mut self,
        ctx: &mut Ctx<'_>,
        obj: ObjectId,
        bytes: u64,
        write: bool,
    ) -> Result<(), KernelError> {
        let kobj = self.objects.get(obj).ok_or(KernelError::BadObject(obj))?;
        if write {
            ctx.mem.write_from(ctx.socket, kobj.frame, bytes);
        } else {
            ctx.mem.read_from(ctx.socket, kobj.frame, bytes);
        }
        // Only page-cache frames are ever on the LRU; for any other
        // object the probe would find nothing.
        if kobj.info.ty == KernelObjectType::PageCache {
            self.cache_lru.mark_accessed(kobj.frame);
        }
        ctx.hooks
            .on_object_access(obj, &kobj.info, kobj.frame, ctx.cpu, ctx.tenant, ctx.mem);
        Ok(())
    }

    /// Re-associates an object with a socket inode after late demux and
    /// fires the association hook (paper §4.2.3 ingress path).
    fn associate_object(
        &mut self,
        ctx: &mut Ctx<'_>,
        obj: ObjectId,
        inode: InodeId,
    ) -> Result<(), KernelError> {
        let kobj = self
            .objects
            .set_inode(obj, inode)
            .ok_or(KernelError::BadObject(obj))?;
        ctx.hooks
            .on_object_associate(obj, &kobj.info, kobj.frame, ctx.cpu, ctx.mem);
        Ok(())
    }

    /// Adds a journal head for a metadata update; commits if the
    /// transaction fills.
    fn journal_add(
        &mut self,
        ctx: &mut Ctx<'_>,
        inode: Option<InodeId>,
        update: MetaUpdate,
    ) -> Result<(), KernelError> {
        let head = self.alloc_object(ctx, KernelObjectType::JournalHead, inode, false)?;
        self.access_object(ctx, head, KernelObjectType::JournalHead.size(), true)?;
        if self.journal.add(head, inode, update) {
            self.commit_journal(ctx)?;
        }
        Ok(())
    }

    /// Commits the running journal transaction: writes journal blocks
    /// sequentially to disk and releases the heads.
    pub fn commit_journal(&mut self, ctx: &mut Ctx<'_>) -> Result<(), KernelError> {
        let Some(spec) = self.journal.commit() else {
            return Ok(());
        };
        let _attrib = kloc_trace::scope("journal");
        let head_count = spec.heads.len() as u64;
        let updates: Vec<(InodeId, MetaUpdate)> = spec
            .heads
            .iter()
            .filter_map(|h| h.inode.map(|i| (i, h.update)))
            .collect();
        let blocks_total = spec.blocks as u32;
        // Scheduled crash at this commit ordinal: only the first
        // `after` journal blocks become durable (0 = clean boundary,
        // more = a torn record) and the machine dies.
        let commit_idx = self.durable.journal.len() as u64;
        if let Some(after) = ctx.mem.fault_crash_at_commit(commit_idx) {
            self.push_journal_record(JournalRecord {
                updates,
                blocks_total,
                blocks_written: after.min(blocks_total),
            });
            return Err(KernelError::Crashed);
        }
        let mut blocks = Vec::with_capacity(spec.blocks);
        for _ in 0..spec.blocks {
            let b = self.alloc_object(ctx, KernelObjectType::JournalBlock, None, false)?;
            self.access_object(ctx, b, kloc_mem::PAGE_SIZE, true)?;
            blocks.push(b);
        }
        self.disk_retry(ctx, DiskOp::Write)?;
        self.disk.submit_write(
            ctx.mem.now(),
            spec.blocks as u64 * kloc_mem::PAGE_SIZE,
            IoPattern::Sequential,
        );
        self.push_journal_record(JournalRecord {
            updates,
            blocks_total,
            blocks_written: blocks_total,
        });
        let t = ctx.mem.now().as_nanos();
        kloc_trace::emit(|| kloc_trace::Event::JournalCommit {
            t,
            heads: head_count,
            blocks: spec.blocks as u64,
        });
        for head in spec.heads {
            self.free_object(ctx, head.obj)?;
        }
        for b in blocks {
            self.free_object(ctx, b)?;
        }
        Ok(())
    }

    /// Appends a record to the durable journal, counting it when every
    /// block reached the disk (a torn crash record never counts).
    fn push_journal_record(&mut self, record: JournalRecord) {
        self.complete_records += usize::from(record.is_complete());
        self.durable.journal.push(record);
    }

    // ------------------------------------------------------------------
    // Filesystem syscalls
    // ------------------------------------------------------------------

    /// Creates and opens a new file.
    ///
    /// # Errors
    /// [`KernelError::Exists`] if the path is taken.
    pub fn create(&mut self, ctx: &mut Ctx<'_>, path: &str) -> Result<Fd, KernelError> {
        self.stats.on_syscall(Syscall::Create);
        ctx.mem.charge(self.params.syscall_base);
        let _attrib = kloc_trace::scope("create");
        self.crash_check(ctx)?;
        if self.vfs.lookup_path(path).is_some() {
            return Err(KernelError::Exists(path.to_owned()));
        }
        let ino = self.vfs.next_inode_id();
        ctx.hooks.on_inode_create(ino, ctx.cpu, ctx.tenant, ctx.mem);

        let inode_obj = self.alloc_object(ctx, KernelObjectType::Inode, Some(ino), false)?;
        self.access_object(ctx, inode_obj, KernelObjectType::Inode.size(), true)?;
        let dentry_obj = self.alloc_object(ctx, KernelObjectType::Dentry, Some(ino), false)?;
        self.access_object(ctx, dentry_obj, KernelObjectType::Dentry.size(), true)?;
        self.journal_add(ctx, Some(ino), MetaUpdate::Create)?;

        let inode = Inode {
            id: ino,
            kind: InodeKind::RegularFile,
            owner: ctx.tenant,
            size: 0,
            nlink: 1,
            open_count: 1,
            inode_obj,
            dentry_obj: Some(dentry_obj),
            sock_obj: None,
            cache: PageCache::new(self.params.radix_fanout),
            extents: ExtentTree::new(self.params.extent_span),
            rx: RxQueue::new(),
            created_at: ctx.mem.now(),
            last_activity: ctx.mem.now(),
            readahead: ReadaheadState::default(),
        };
        self.vfs.insert_inode(inode);
        self.vfs.bind_path(path, ino);
        let file_obj = self.alloc_object(ctx, KernelObjectType::FileHandle, Some(ino), false)?;
        let fd = self.vfs.open_fd(ino, file_obj);
        ctx.hooks.on_inode_open(ino, ctx.cpu, ctx.mem);
        Ok(fd)
    }

    /// Opens an existing file.
    ///
    /// # Errors
    /// [`KernelError::NoEntry`] if the path does not resolve.
    pub fn open(&mut self, ctx: &mut Ctx<'_>, path: &str) -> Result<Fd, KernelError> {
        self.stats.on_syscall(Syscall::Open);
        ctx.mem.charge(self.params.syscall_base);
        let _attrib = kloc_trace::scope("open");
        self.crash_check(ctx)?;
        let ino = self
            .vfs
            .lookup_path(path)
            .ok_or_else(|| KernelError::NoEntry(path.to_owned()))?;

        // Dentry-cache lookup.
        let dentry = self
            .vfs
            .inode(ino)
            .ok_or(KernelError::BadInode(ino))?
            .dentry_obj;
        match dentry {
            Some(d) => {
                self.stats.dentry_hits += 1;
                self.access_object(ctx, d, KernelObjectType::Dentry.size(), false)?;
            }
            None => {
                // Cold lookup: read the directory block, repopulate.
                self.stats.dentry_misses += 1;
                self.disk_retry(ctx, DiskOp::Read)?;
                let stall =
                    self.disk
                        .read_sync(ctx.mem.now(), kloc_mem::PAGE_SIZE, IoPattern::Random);
                ctx.mem.charge(stall);
                let d = self.alloc_object(ctx, KernelObjectType::Dentry, Some(ino), false)?;
                self.access_object(ctx, d, KernelObjectType::Dentry.size(), true)?;
                self.vfs
                    .inode_mut(ino)
                    .ok_or(KernelError::BadInode(ino))?
                    .dentry_obj = Some(d);
            }
        }

        let inode_obj = self
            .vfs
            .inode(ino)
            .ok_or(KernelError::BadInode(ino))?
            .inode_obj;
        self.access_object(ctx, inode_obj, KernelObjectType::Inode.size(), false)?;
        let file_obj = self.alloc_object(ctx, KernelObjectType::FileHandle, Some(ino), false)?;
        let fd = self.vfs.open_fd(ino, file_obj);
        let inode = self.vfs.inode_mut(ino).ok_or(KernelError::BadInode(ino))?;
        inode.open_count += 1;
        inode.last_activity = ctx.mem.now();
        if inode.open_count == 1 {
            ctx.hooks.on_inode_open(ino, ctx.cpu, ctx.mem);
        }
        Ok(fd)
    }

    fn resolve(&self, fd: Fd) -> Result<(InodeId, ObjectId), KernelError> {
        let of = self.vfs.fd(fd).ok_or(KernelError::BadFd(fd))?;
        Ok((of.inode, of.file_obj))
    }

    /// Writes `len` bytes at `offset`. Returns bytes written.
    ///
    /// # Errors
    /// [`KernelError::BadFd`] for closed descriptors;
    /// [`KernelError::WrongKind`] for sockets.
    pub fn write(
        &mut self,
        ctx: &mut Ctx<'_>,
        fd: Fd,
        offset: u64,
        len: u64,
    ) -> Result<u64, KernelError> {
        self.stats.on_syscall(Syscall::Write);
        ctx.mem.charge(self.params.syscall_base);
        let _attrib = kloc_trace::scope("write");
        self.crash_check(ctx)?;
        let (ino, file_obj) = self.resolve(fd)?;
        self.access_object(ctx, file_obj, 64, false)?;
        if len == 0 {
            return Ok(0);
        }
        {
            let inode = self.vfs.inode(ino).ok_or(KernelError::BadInode(ino))?;
            if inode.kind != InodeKind::RegularFile {
                return Err(KernelError::WrongKind(ino));
            }
        }

        // Growth: extents + journaled metadata update.
        let new_size = {
            let inode = self.vfs.inode(ino).ok_or(KernelError::BadInode(ino))?;
            inode.size.max(offset + len)
        };
        let grew = {
            let inode = self.vfs.inode(ino).ok_or(KernelError::BadInode(ino))?;
            new_size > inode.size
        };
        if grew {
            let missing = {
                let inode = self.vfs.inode(ino).ok_or(KernelError::BadInode(ino))?;
                inode.extents.missing_spans(new_size)
            };
            for start in missing {
                let e = self.alloc_object(ctx, KernelObjectType::Extent, Some(ino), false)?;
                self.access_object(ctx, e, KernelObjectType::Extent.size(), true)?;
                self.vfs
                    .inode_mut(ino)
                    .ok_or(KernelError::BadInode(ino))?
                    .extents
                    .insert(start, e);
            }
            let inode_obj = self
                .vfs
                .inode(ino)
                .ok_or(KernelError::BadInode(ino))?
                .inode_obj;
            self.access_object(ctx, inode_obj, KernelObjectType::Inode.size(), true)?;
            self.journal_add(ctx, Some(ino), MetaUpdate::Size(new_size))?;
            self.vfs
                .inode_mut(ino)
                .ok_or(KernelError::BadInode(ino))?
                .size = new_size;
        }

        // Per-page cache writes.
        let first = offset / kloc_mem::PAGE_SIZE;
        let last = (offset + len - 1) / kloc_mem::PAGE_SIZE;
        for idx in first..=last {
            let page_off = idx * kloc_mem::PAGE_SIZE;
            let lo = offset.max(page_off);
            let hi = (offset + len).min(page_off + kloc_mem::PAGE_SIZE);
            let bytes = hi - lo;
            self.write_cache_page(ctx, ino, idx, bytes)?;
        }
        self.vfs
            .inode_mut(ino)
            .ok_or(KernelError::BadInode(ino))?
            .last_activity = ctx.mem.now();

        // Background writeback + cache budget.
        if self.dirty_pages as usize >= self.params.writeback_threshold {
            let flush = self.params.writeback_threshold / 2;
            self.writeback(ctx, flush)?;
        }
        self.shrink_cache(ctx)?;
        Ok(len)
    }

    /// Writes `bytes` into page `idx` of `ino`, allocating cache
    /// structures as needed.
    fn write_cache_page(
        &mut self,
        ctx: &mut Ctx<'_>,
        ino: InodeId,
        idx: u64,
        bytes: u64,
    ) -> Result<(), KernelError> {
        // Radix traversal.
        let node = self
            .vfs
            .inode(ino)
            .ok_or(KernelError::BadInode(ino))?
            .cache
            .node_for(idx);
        if let Some(n) = node {
            self.access_object(ctx, n, 64, false)?;
        }
        let cached = self
            .vfs
            .inode(ino)
            .ok_or(KernelError::BadInode(ino))?
            .cache
            .get(idx)
            .copied();
        match cached {
            Some(page) => {
                self.stats.cache_hits += 1;
                ctx.mem.write_from(ctx.socket, page.frame, bytes);
                self.cache_lru.mark_accessed(page.frame);
                self.note_prefetch_hit(page.frame);
                let inode = self.vfs.inode_mut(ino).ok_or(KernelError::BadInode(ino))?;
                let was_dirty = inode.cache.get(idx).map(|p| p.dirty).unwrap_or(false);
                inode.cache.mark_dirty(idx);
                if !was_dirty {
                    self.dirty_pages += 1;
                    self.dirty_list.push_back((ino, idx));
                }
                if let Some(kobj) = self.objects.get(page.obj) {
                    ctx.hooks.on_object_access(
                        page.obj, &kobj.info, kobj.frame, ctx.cpu, ctx.tenant, ctx.mem,
                    );
                }
            }
            None => {
                self.stats.cache_misses += 1;
                self.insert_cache_page(ctx, ino, idx, true, false)?;
                #[expect(clippy::expect_used, reason = "inserted into the cache just above")]
                let frame = self
                    .vfs
                    .inode(ino)
                    .ok_or(KernelError::BadInode(ino))?
                    .cache
                    .get(idx)
                    .expect("just inserted")
                    .frame;
                ctx.mem.write_from(ctx.socket, frame, bytes);
            }
        }
        Ok(())
    }

    /// Allocates a page-cache page (and radix node if needed) for
    /// (`ino`, `idx`) and inserts it into the inode's cache and the
    /// global cache LRU.
    fn insert_cache_page(
        &mut self,
        ctx: &mut Ctx<'_>,
        ino: InodeId,
        idx: u64,
        dirty: bool,
        readahead: bool,
    ) -> Result<FrameId, KernelError> {
        // Per-tenant cache cap: the page's *owner* (the inode's creator,
        // not the faulting tenant) self-evicts before this insert, so a
        // capped tenant can never exceed its budget — and never reclaims
        // a neighbour's page doing so.
        let owner = self.vfs.inode(ino).ok_or(KernelError::BadInode(ino))?.owner;
        if let Some(cap) = self.tenants.pc_budget(owner) {
            self.enforce_tenant_pc_cap(ctx, owner, cap)?;
        }
        let needs_node = self
            .vfs
            .inode(ino)
            .ok_or(KernelError::BadInode(ino))?
            .cache
            .needs_node(idx);
        if needs_node {
            let n = self.alloc_object(ctx, KernelObjectType::RadixNode, Some(ino), readahead)?;
            self.access_object(ctx, n, KernelObjectType::RadixNode.size(), true)?;
            self.vfs
                .inode_mut(ino)
                .ok_or(KernelError::BadInode(ino))?
                .cache
                .install_node(idx, n);
        }
        let obj = self.alloc_object(ctx, KernelObjectType::PageCache, Some(ino), readahead)?;
        #[expect(clippy::expect_used, reason = "alloc_object just created it")]
        let frame = self.objects.get(obj).expect("just allocated").frame;
        self.vfs
            .inode_mut(ino)
            .ok_or(KernelError::BadInode(ino))?
            .cache
            .insert(idx, obj, frame, dirty);
        self.cache_lru.insert(frame, List::Inactive);
        self.cache_lru.mark_accessed(frame);
        self.cache_index.insert(frame, ino, idx);
        self.cache_pages += 1;
        self.tenants.note_pc_insert(owner, ino, idx);
        if dirty {
            self.dirty_pages += 1;
            self.dirty_list.push_back((ino, idx));
        }
        Ok(frame)
    }

    /// Self-eviction for a tenant at or over its page-cache cap: reclaim
    /// the tenant's own oldest cached page (flushing it first when
    /// dirty), skipping ledger entries already removed by the global
    /// shrinker or an unlink. Runs before an insert, so the incoming
    /// page is never its own victim.
    fn enforce_tenant_pc_cap(
        &mut self,
        ctx: &mut Ctx<'_>,
        owner: TenantId,
        cap: u64,
    ) -> Result<(), KernelError> {
        while self.tenants.stats(owner).pc_resident >= cap {
            if !self.self_evict_one(ctx, owner, None)? {
                break;
            }
        }
        Ok(())
    }

    /// Reclaims one of `owner`'s own cached pages, oldest first
    /// (flushing it when dirty), skipping ledger entries already
    /// removed by the global shrinker or an unlink. Returns `Ok(false)`
    /// when the ledger is exhausted. `degrade_action` labels the
    /// eviction as QoS degradation (a `degrade` trace event plus the
    /// tenant's `preempted` counter); `None` keeps the steady-state cap
    /// enforcement event-silent, exactly as before resize existed.
    fn self_evict_one(
        &mut self,
        ctx: &mut Ctx<'_>,
        owner: TenantId,
        degrade_action: Option<&'static str>,
    ) -> Result<bool, KernelError> {
        loop {
            let Some((vino, vidx)) = self.tenants.pop_oldest(owner) else {
                return Ok(false);
            };
            let dirty = self
                .vfs
                .inode(vino)
                .and_then(|i| i.cache.get(vidx))
                .map(|p| p.dirty);
            let Some(dirty) = dirty else {
                continue; // stale ledger entry
            };
            if dirty {
                self.flush_pages(ctx, vino, &[vidx])?;
            }
            self.drop_cache_page(ctx, vino, vidx)?;
            self.tenants.stats_mut(owner).pc_self_evicted += 1;
            self.stats.reclaimed_pages += 1;
            if let Some(action) = degrade_action {
                self.tenants.stats_mut(owner).preempted += 1;
                let qos = self.qos_of(owner);
                let t = ctx.mem.now().as_nanos();
                kloc_trace::emit(|| kloc_trace::Event::Degrade {
                    t,
                    tenant: u64::from(owner.0),
                    qos: qos.to_string(),
                    action: action.to_string(),
                    pages: 1,
                });
            }
            return Ok(true);
        }
    }

    fn note_prefetch_hit(&mut self, frame: FrameId) {
        if self.prefetched.remove(frame) {
            self.readahead.record_useful();
        }
    }

    /// Reads `len` bytes at `offset`. Returns bytes actually read
    /// (clamped to the file size).
    ///
    /// # Errors
    /// [`KernelError::BadFd`] / [`KernelError::WrongKind`] as for
    /// [`Kernel::write`].
    pub fn read(
        &mut self,
        ctx: &mut Ctx<'_>,
        fd: Fd,
        offset: u64,
        len: u64,
    ) -> Result<u64, KernelError> {
        self.stats.on_syscall(Syscall::Read);
        ctx.mem.charge(self.params.syscall_base);
        let _attrib = kloc_trace::scope("read");
        self.crash_check(ctx)?;
        let (ino, file_obj) = self.resolve(fd)?;
        self.access_object(ctx, file_obj, 64, false)?;
        let size = {
            let inode = self.vfs.inode(ino).ok_or(KernelError::BadInode(ino))?;
            if inode.kind != InodeKind::RegularFile {
                return Err(KernelError::WrongKind(ino));
            }
            inode.size
        };
        if offset >= size || len == 0 {
            return Ok(0);
        }
        let len = len.min(size - offset);

        let first = offset / kloc_mem::PAGE_SIZE;
        let last = (offset + len - 1) / kloc_mem::PAGE_SIZE;
        for idx in first..=last {
            let page_off = idx * kloc_mem::PAGE_SIZE;
            let lo = offset.max(page_off);
            let hi = (offset + len).min(page_off + kloc_mem::PAGE_SIZE);
            let bytes = hi - lo;
            self.read_cache_page(ctx, ino, idx, bytes)?;

            // Adaptive readahead.
            let inode = self.vfs.inode_mut(ino).ok_or(KernelError::BadInode(ino))?;
            let window = self.readahead.on_read(&mut inode.readahead, idx);
            if window > 0 {
                self.prefetch(ctx, ino, idx + 1, window, size)?;
            }
        }
        self.vfs
            .inode_mut(ino)
            .ok_or(KernelError::BadInode(ino))?
            .last_activity = ctx.mem.now();
        self.shrink_cache(ctx)?;
        Ok(len)
    }

    fn read_cache_page(
        &mut self,
        ctx: &mut Ctx<'_>,
        ino: InodeId,
        idx: u64,
        bytes: u64,
    ) -> Result<(), KernelError> {
        let node = self
            .vfs
            .inode(ino)
            .ok_or(KernelError::BadInode(ino))?
            .cache
            .node_for(idx);
        if let Some(n) = node {
            self.access_object(ctx, n, 64, false)?;
        }
        let cached = self
            .vfs
            .inode(ino)
            .ok_or(KernelError::BadInode(ino))?
            .cache
            .get(idx)
            .copied();
        match cached {
            Some(page) => {
                self.stats.cache_hits += 1;
                ctx.mem.read_from(ctx.socket, page.frame, bytes);
                self.cache_lru.mark_accessed(page.frame);
                self.note_prefetch_hit(page.frame);
                if let Some(kobj) = self.objects.get(page.obj) {
                    ctx.hooks.on_object_access(
                        page.obj, &kobj.info, kobj.frame, ctx.cpu, ctx.tenant, ctx.mem,
                    );
                }
            }
            None => {
                // Major fault: synchronous disk read.
                self.stats.cache_misses += 1;
                self.disk_retry(ctx, DiskOp::Read)?;
                let stall =
                    self.disk
                        .read_sync(ctx.mem.now(), kloc_mem::PAGE_SIZE, IoPattern::Random);
                ctx.mem.charge(stall);
                let frame = self.insert_cache_page(ctx, ino, idx, false, false)?;
                // Fill + read back-to-back with no hook in between: one
                // batched charge, identical cost sum.
                ctx.mem.access_batch(
                    Some(ctx.socket),
                    &[
                        kloc_mem::AccessOp::write(frame, kloc_mem::PAGE_SIZE),
                        kloc_mem::AccessOp::read(frame, bytes),
                    ],
                );
            }
        }
        Ok(())
    }

    /// Prefetches up to `window` pages starting at `start` (bounded by
    /// the file size). Disk reads are asynchronous.
    fn prefetch(
        &mut self,
        ctx: &mut Ctx<'_>,
        ino: InodeId,
        start: u64,
        window: u64,
        size: u64,
    ) -> Result<(), KernelError> {
        let _attrib = kloc_trace::scope("readahead");
        let max_idx = if size == 0 {
            0
        } else {
            (size - 1) / kloc_mem::PAGE_SIZE
        };
        let mut issued = 0;
        for idx in start..(start + window).min(max_idx + 1) {
            let present = self
                .vfs
                .inode(ino)
                .ok_or(KernelError::BadInode(ino))?
                .cache
                .get(idx)
                .is_some();
            if present {
                continue;
            }
            let frame = self.insert_cache_page(ctx, ino, idx, false, true)?;
            self.disk_retry(ctx, DiskOp::Read)?;
            self.disk
                .submit_read(ctx.mem.now(), kloc_mem::PAGE_SIZE, IoPattern::Sequential);
            self.prefetched.insert(frame);
            issued += 1;
        }
        if issued > 0 {
            self.readahead.record_issued(issued);
        }
        Ok(())
    }

    /// Flushes `fd`'s dirty pages and commits the journal, waiting for
    /// the device.
    pub fn fsync(&mut self, ctx: &mut Ctx<'_>, fd: Fd) -> Result<(), KernelError> {
        self.stats.on_syscall(Syscall::Fsync);
        ctx.mem.charge(self.params.syscall_base);
        let _attrib = kloc_trace::scope("fsync");
        self.crash_check(ctx)?;
        let (ino, _) = self.resolve(fd)?;
        let dirty = {
            let inode = self.vfs.inode(ino).ok_or(KernelError::BadInode(ino))?;
            inode.cache.dirty_indices()
        };
        self.flush_pages(ctx, ino, &dirty)?;
        self.commit_journal(ctx)?;
        self.disk_retry(ctx, DiskOp::Fsync)?;
        let stall = self.disk.drain(ctx.mem.now());
        ctx.mem.charge(stall);
        // The drain succeeded: everything this inode submitted plus
        // every complete journal record becomes a durability promise
        // the crash checker enforces after any later crash.
        self.promise
            .record_fsync(&self.durable, ino, self.complete_records);
        Ok(())
    }

    /// Writes back up to `max_pages` from the global dirty list
    /// (background writeback).
    pub fn writeback(&mut self, ctx: &mut Ctx<'_>, max_pages: usize) -> Result<(), KernelError> {
        let mut batch = std::mem::take(&mut self.writeback_batch);
        batch.clear();
        while batch.len() < max_pages {
            let Some((ino, idx)) = self.dirty_list.pop_front() else {
                break;
            };
            let still_dirty = self
                .vfs
                .inode(ino)
                .and_then(|i| i.cache.get(idx))
                .map(|p| p.dirty)
                .unwrap_or(false);
            if still_dirty {
                batch.push((ino, idx));
            }
        }
        // Group by inode for flushing, in inode order: the flush order
        // must be deterministic, or per-run counters drift between
        // identically-seeded runs. The sort is stable, so each inode's
        // pages keep their dirty-list order.
        batch.sort_by_key(|&(ino, _)| ino);
        let mut idxs = std::mem::take(&mut self.writeback_idxs);
        for run in batch.chunk_by(|a, b| a.0 == b.0) {
            idxs.clear();
            idxs.extend(run.iter().map(|&(_, idx)| idx));
            self.flush_pages(ctx, run[0].0, &idxs)?;
        }
        self.writeback_batch = batch;
        self.writeback_idxs = idxs;
        Ok(())
    }

    /// Writes back the given dirty pages of one inode: reads the page
    /// data (DMA), allocates bio/blk-mq objects per batch, submits the
    /// write, and marks pages clean.
    fn flush_pages(
        &mut self,
        ctx: &mut Ctx<'_>,
        ino: InodeId,
        idxs: &[u64],
    ) -> Result<(), KernelError> {
        if idxs.is_empty() {
            return Ok(());
        }
        let _attrib = kloc_trace::scope("writeback");
        let mut flushed = 0usize;
        let mut dma = std::mem::take(&mut self.dma);
        for chunk in idxs.chunks(self.params.pages_per_bio.max(1)) {
            dma.clear();
            for &idx in chunk {
                let page = {
                    let inode = self.vfs.inode(ino).ok_or(KernelError::BadInode(ino))?;
                    inode.cache.get(idx).copied()
                };
                let Some(page) = page else { continue };
                if !page.dirty {
                    continue;
                }
                // DMA read of the page from wherever it lives: this is
                // where dirty pages stranded in slow memory hurt. No KLOC
                // hook fires between the pages of one bio, so the reads
                // of a chunk form one batchable run.
                dma.push(kloc_mem::AccessOp::read(page.frame, kloc_mem::PAGE_SIZE));
                let inode = self.vfs.inode_mut(ino).ok_or(KernelError::BadInode(ino))?;
                inode.cache.mark_clean(idx);
                // Submitted pages are durable at this version (the
                // device queue drains in bounded time; only journal
                // commits can tear).
                self.durable.record_page(ino, idx, page.version);
                self.dirty_pages -= 1;
            }
            let pages_in_bio = dma.len();
            if pages_in_bio == 0 {
                continue;
            }
            ctx.mem.access_batch(None, &dma);
            let bio = self.alloc_object(ctx, KernelObjectType::Bio, Some(ino), false)?;
            self.access_object(ctx, bio, KernelObjectType::Bio.size(), true)?;
            let req = self.alloc_object(ctx, KernelObjectType::BlkMqRequest, Some(ino), false)?;
            self.access_object(ctx, req, KernelObjectType::BlkMqRequest.size(), true)?;
            self.disk_retry(ctx, DiskOp::Write)?;
            self.disk.submit_write(
                ctx.mem.now(),
                pages_in_bio as u64 * kloc_mem::PAGE_SIZE,
                IoPattern::Sequential,
            );
            self.block.record_dispatch(pages_in_bio, 1);
            self.free_object(ctx, req)?;
            self.free_object(ctx, bio)?;
            flushed += pages_in_bio;
        }
        self.dma = dma;
        self.stats.writeback_pages += flushed as u64;
        if flushed > 0 {
            let t = ctx.mem.now().as_nanos();
            kloc_trace::emit(|| kloc_trace::Event::Writeback {
                t,
                ino: ino.0,
                pages: flushed as u64,
            });
        }
        Ok(())
    }

    /// Enforces the page-cache budget: reclaims clean cold pages
    /// (writing back dirty ones first), oldest-first, charging LRU scan
    /// costs.
    ///
    /// While any tier fault window is open and more than one QoS class
    /// holds cached pages, reclaim preempts the most-scavenger class
    /// first: candidates owned by a stricter class are rescued back to
    /// the active list untouched, so a Guaranteed tenant's hot set
    /// survives as long as any lower class still holds pages (DESIGN.md
    /// §13). The `guard` bound holds either way — degraded reclaim may
    /// leave the cache over budget for a pass rather than touch
    /// protected pages.
    fn shrink_cache(&mut self, ctx: &mut Ctx<'_>) -> Result<(), KernelError> {
        let _attrib = kloc_trace::scope("reclaim");
        let qos_gate = ctx.mem.tier_fault_active();
        let mut guard = 0;
        while self.cache_pages > self.params.page_cache_budget && guard < 64 {
            guard += 1;
            let out = self.cache_lru.scan_inactive(32);
            ctx.mem
                .charge(self.params.lru_scan_per_page * out.scanned as u64);
            if out.scanned == 0 {
                // Everything is active: age some pages and retry.
                let target = (self.cache_lru.active_len() / 4).max(32);
                self.cache_lru.age_active(target);
                continue;
            }
            for frame in out.evict {
                let Some((ino, idx)) = self.cache_index.get(frame) else {
                    continue;
                };
                let owner = self.vfs.inode(ino).map(|i| i.owner).unwrap_or_default();
                let mut preemption = None;
                if qos_gate {
                    // Recomputed per eviction: draining one class can
                    // move the floor to the next.
                    let (floor, multi) = self.reclaim_floor();
                    if multi {
                        if floor != Some(self.qos_of(owner)) {
                            // Protected: a lower class still holds
                            // pages. Rescue, never evict.
                            self.cache_lru.insert(frame, List::Active);
                            continue;
                        }
                        preemption = Some(self.qos_of(owner));
                    }
                }
                let dirty = self
                    .vfs
                    .inode(ino)
                    .and_then(|i| i.cache.get(idx))
                    .map(|p| p.dirty)
                    .unwrap_or(false);
                if dirty {
                    self.flush_pages(ctx, ino, &[idx])?;
                }
                let t = ctx.mem.now().as_nanos();
                kloc_trace::emit(|| kloc_trace::Event::PcEvict {
                    t,
                    ino: ino.0,
                    idx,
                    dirty: u64::from(dirty),
                });
                // Cross-tenant attribution: the tenant driving this
                // allocation evicted a page owned by another tenant.
                // Never fires in single-tenant runs (both sides are
                // TenantId::DEFAULT), so existing traces are unchanged.
                if owner != ctx.tenant {
                    self.tenants.stats_mut(ctx.tenant).cross_evictions_caused += 1;
                    self.tenants.stats_mut(owner).cross_evictions_suffered += 1;
                    kloc_trace::emit(|| kloc_trace::Event::TenantEvict {
                        t,
                        evictor: u64::from(ctx.tenant.0),
                        victim: u64::from(owner.0),
                        ino: ino.0,
                        idx,
                    });
                }
                if let Some(qos) = preemption {
                    // QoS-ordered reclaim chose this page because its
                    // owner is the current floor class.
                    self.tenants.stats_mut(owner).preempted += 1;
                    kloc_trace::emit(|| kloc_trace::Event::Degrade {
                        t,
                        tenant: u64::from(owner.0),
                        qos: qos.to_string(),
                        action: "reclaim".to_string(),
                        pages: 1,
                    });
                }
                self.drop_cache_page(ctx, ino, idx)?;
                self.stats.reclaimed_pages += 1;
            }
        }
        Ok(())
    }

    /// Removes one page from an inode's cache, freeing the page object
    /// and any emptied radix node.
    fn drop_cache_page(
        &mut self,
        ctx: &mut Ctx<'_>,
        ino: InodeId,
        idx: u64,
    ) -> Result<(), KernelError> {
        let (removed, owner) = {
            let inode = self.vfs.inode_mut(ino).ok_or(KernelError::BadInode(ino))?;
            let was_dirty = inode.cache.get(idx).map(|p| p.dirty).unwrap_or(false);
            if was_dirty {
                self.dirty_pages -= 1;
            }
            (inode.cache.remove(idx), inode.owner)
        };
        let Some(removed) = removed else {
            return Ok(());
        };
        self.tenants.note_pc_removed(owner, 1);
        self.free_object(ctx, removed.page.obj)?;
        if let Some(node) = removed.freed_node {
            self.free_object(ctx, node)?;
        }
        Ok(())
    }

    /// Closes a descriptor. When the last handle drops, the inode goes
    /// inactive (firing `on_inode_close`) or is destroyed if unlinked.
    pub fn close(&mut self, ctx: &mut Ctx<'_>, fd: Fd) -> Result<(), KernelError> {
        self.stats.on_syscall(Syscall::Close);
        ctx.mem.charge(self.params.syscall_base);
        let _attrib = kloc_trace::scope("close");
        self.crash_check(ctx)?;
        let of = self.vfs.close_fd(fd).ok_or(KernelError::BadFd(fd))?;
        self.free_object(ctx, of.file_obj)?;
        let ino = of.inode;
        let (open_count, nlink, kind) = {
            let inode = self.vfs.inode_mut(ino).ok_or(KernelError::BadInode(ino))?;
            inode.open_count -= 1;
            if inode.open_count == 0 {
                // A reopened file starts a fresh readahead stream.
                inode.readahead = ReadaheadState::default();
            }
            (inode.open_count, inode.nlink, inode.kind)
        };
        if open_count == 0 {
            if nlink == 0 || kind == InodeKind::Socket {
                self.destroy_inode(ctx, ino)?;
            } else {
                ctx.hooks.on_inode_close(ino, ctx.mem);
            }
        }
        Ok(())
    }

    /// Unlinks a path. The inode is destroyed once no handles remain.
    pub fn unlink(&mut self, ctx: &mut Ctx<'_>, path: &str) -> Result<(), KernelError> {
        self.stats.on_syscall(Syscall::Unlink);
        ctx.mem.charge(self.params.syscall_base);
        let _attrib = kloc_trace::scope("unlink");
        self.crash_check(ctx)?;
        let ino = self
            .vfs
            .unbind_path(path)
            .ok_or_else(|| KernelError::NoEntry(path.to_owned()))?;
        self.journal_add(ctx, Some(ino), MetaUpdate::Unlink)?;
        let open_count = {
            let inode = self.vfs.inode_mut(ino).ok_or(KernelError::BadInode(ino))?;
            inode.nlink = 0;
            inode.open_count
        };
        if open_count == 0 {
            self.destroy_inode(ctx, ino)?;
        }
        Ok(())
    }

    /// Frees every object belonging to an inode (paper §3.2: deleted
    /// files' objects are *deallocated*, never migrated).
    fn destroy_inode(&mut self, ctx: &mut Ctx<'_>, ino: InodeId) -> Result<(), KernelError> {
        ctx.hooks.on_inode_destroy(ino, ctx.mem);
        let mut inode = self
            .vfs
            .remove_inode(ino)
            .ok_or(KernelError::BadInode(ino))?;
        self.dirty_pages -= inode.cache.dirty_pages();
        let cached = inode.cache.len() as u64;
        if cached > 0 {
            self.tenants.note_pc_removed(inode.owner, cached);
        }
        let (pages, nodes) = inode.cache.take_all();
        for p in pages {
            self.free_object(ctx, p.obj)?;
        }
        for n in nodes {
            self.free_object(ctx, n)?;
        }
        for e in inode.extents.drain() {
            self.free_object(ctx, e)?;
        }
        for packet in inode.rx.drain() {
            self.free_object(ctx, packet.skb)?;
            self.free_object(ctx, packet.data)?;
        }
        if let Some(d) = inode.dentry_obj {
            self.free_object(ctx, d)?;
        }
        if let Some(s) = inode.sock_obj {
            self.free_object(ctx, s)?;
        }
        self.free_object(ctx, inode.inode_obj)?;
        Ok(())
    }

    /// Creates a directory.
    ///
    /// # Errors
    /// [`KernelError::Exists`] if the path is taken.
    pub fn mkdir(&mut self, ctx: &mut Ctx<'_>, path: &str) -> Result<InodeId, KernelError> {
        self.stats.on_syscall(Syscall::Mkdir);
        ctx.mem.charge(self.params.syscall_base);
        let _attrib = kloc_trace::scope("mkdir");
        self.crash_check(ctx)?;
        if self.vfs.lookup_path(path).is_some() {
            return Err(KernelError::Exists(path.to_owned()));
        }
        let ino = self.vfs.next_inode_id();
        ctx.hooks.on_inode_create(ino, ctx.cpu, ctx.tenant, ctx.mem);
        let inode_obj = self.alloc_object(ctx, KernelObjectType::Inode, Some(ino), false)?;
        self.access_object(ctx, inode_obj, KernelObjectType::Inode.size(), true)?;
        let dentry_obj = self.alloc_object(ctx, KernelObjectType::Dentry, Some(ino), false)?;
        self.access_object(ctx, dentry_obj, KernelObjectType::Dentry.size(), true)?;
        self.journal_add(ctx, Some(ino), MetaUpdate::Create)?;
        let inode = Inode {
            id: ino,
            kind: InodeKind::Directory,
            owner: ctx.tenant,
            size: 0,
            nlink: 1,
            open_count: 0,
            inode_obj,
            dentry_obj: Some(dentry_obj),
            sock_obj: None,
            cache: PageCache::new(self.params.radix_fanout),
            extents: ExtentTree::new(self.params.extent_span),
            rx: RxQueue::new(),
            created_at: ctx.mem.now(),
            last_activity: ctx.mem.now(),
            readahead: ReadaheadState::default(),
        };
        self.vfs.insert_inode(inode);
        self.vfs.bind_path(path, ino);
        // Directories are long-lived caches, not held open: mark the
        // knode inactive right away.
        ctx.hooks.on_inode_close(ino, ctx.mem);
        Ok(ino)
    }

    /// Lists a directory: allocates transient dir-buffer objects (one
    /// per `entries_per_buffer` entries), reads them, and frees them —
    /// the short-lived "dir buffers" of paper §3.3.
    ///
    /// # Errors
    /// [`KernelError::NoEntry`] if the path does not name a directory.
    pub fn readdir(
        &mut self,
        ctx: &mut Ctx<'_>,
        path: &str,
        entries: u64,
    ) -> Result<u64, KernelError> {
        self.stats.on_syscall(Syscall::Readdir);
        ctx.mem.charge(self.params.syscall_base);
        let _attrib = kloc_trace::scope("readdir");
        self.crash_check(ctx)?;
        let ino = self
            .vfs
            .lookup_path(path)
            .ok_or_else(|| KernelError::NoEntry(path.to_owned()))?;
        {
            let inode = self.vfs.inode(ino).ok_or(KernelError::BadInode(ino))?;
            if inode.kind != InodeKind::Directory {
                return Err(KernelError::WrongKind(ino));
            }
        }
        let inode_obj = self
            .vfs
            .inode(ino)
            .ok_or(KernelError::BadInode(ino))?
            .inode_obj;
        self.access_object(ctx, inode_obj, KernelObjectType::Inode.size(), false)?;
        // ~6 directory entries fit one 680 B buffer.
        let buffers = entries.div_ceil(6).max(1);
        for _ in 0..buffers {
            let b = self.alloc_object(ctx, KernelObjectType::DirBuffer, Some(ino), false)?;
            self.access_object(ctx, b, KernelObjectType::DirBuffer.size(), true)?;
            self.access_object(ctx, b, KernelObjectType::DirBuffer.size(), false)?;
            self.free_object(ctx, b)?;
        }
        self.vfs
            .inode_mut(ino)
            .ok_or(KernelError::BadInode(ino))?
            .last_activity = ctx.mem.now();
        Ok(entries)
    }

    // ------------------------------------------------------------------
    // Network syscalls
    // ------------------------------------------------------------------

    /// Creates a socket (with its sockfs inode).
    pub fn socket(&mut self, ctx: &mut Ctx<'_>) -> Result<Fd, KernelError> {
        self.stats.on_syscall(Syscall::Socket);
        ctx.mem.charge(self.params.syscall_base);
        let _attrib = kloc_trace::scope("socket");
        self.crash_check(ctx)?;
        let ino = self.vfs.next_inode_id();
        ctx.hooks.on_inode_create(ino, ctx.cpu, ctx.tenant, ctx.mem);
        let inode_obj = self.alloc_object(ctx, KernelObjectType::Inode, Some(ino), false)?;
        self.access_object(ctx, inode_obj, KernelObjectType::Inode.size(), true)?;
        let sock_obj = self.alloc_object(ctx, KernelObjectType::Sock, Some(ino), false)?;
        self.access_object(ctx, sock_obj, KernelObjectType::Sock.size(), true)?;
        let inode = Inode {
            id: ino,
            kind: InodeKind::Socket,
            owner: ctx.tenant,
            size: 0,
            nlink: 1,
            open_count: 1,
            inode_obj,
            dentry_obj: None,
            sock_obj: Some(sock_obj),
            cache: PageCache::new(self.params.radix_fanout),
            extents: ExtentTree::new(self.params.extent_span),
            rx: RxQueue::new(),
            created_at: ctx.mem.now(),
            last_activity: ctx.mem.now(),
            readahead: ReadaheadState::default(),
        };
        self.vfs.insert_inode(inode);
        let file_obj = self.alloc_object(ctx, KernelObjectType::FileHandle, Some(ino), false)?;
        let fd = self.vfs.open_fd(ino, file_obj);
        ctx.hooks.on_inode_open(ino, ctx.cpu, ctx.mem);
        Ok(fd)
    }

    /// Sends `bytes` on a socket (egress path: skbuff + data buffer per
    /// packet, freed after transmission).
    pub fn send(&mut self, ctx: &mut Ctx<'_>, fd: Fd, bytes: u64) -> Result<u64, KernelError> {
        self.stats.on_syscall(Syscall::Send);
        ctx.mem.charge(self.params.syscall_base);
        let _attrib = kloc_trace::scope("send");
        self.crash_check(ctx)?;
        let (ino, _) = self.resolve(fd)?;
        let (kind, sock_obj) = {
            let inode = self.vfs.inode(ino).ok_or(KernelError::BadInode(ino))?;
            (inode.kind, inode.sock_obj)
        };
        if kind != InodeKind::Socket {
            return Err(KernelError::WrongKind(ino));
        }
        let sock_obj = sock_obj.ok_or(KernelError::WrongKind(ino))?;
        self.access_object(ctx, sock_obj, 128, true)?;

        let packets = bytes.div_ceil(self.params.packet_bytes).max(1);
        for p in 0..packets {
            let payload = if p == packets - 1 {
                bytes - p * self.params.packet_bytes
            } else {
                self.params.packet_bytes
            };
            let skb = self.alloc_object(ctx, KernelObjectType::SkBuff, Some(ino), false)?;
            self.access_object(ctx, skb, KernelObjectType::SkBuff.size(), true)?;
            let data = self.alloc_object(ctx, KernelObjectType::SkBuffData, Some(ino), false)?;
            self.access_object(ctx, data, payload.max(1), true)?;
            ctx.mem.charge(
                self.params.net_tcp_cpu + self.params.net_ip_cpu + self.params.net_driver_cpu,
            );
            // Transmitted: egress buffers are freed immediately.
            self.free_object(ctx, data)?;
            self.free_object(ctx, skb)?;
            self.net_stats.tx_packets += 1;
        }
        self.net_stats.tx_bytes += bytes;
        self.tenants.stats_mut(ctx.tenant).tx_bytes += bytes;
        self.vfs
            .inode_mut(ino)
            .ok_or(KernelError::BadInode(ino))?
            .last_activity = ctx.mem.now();
        Ok(bytes)
    }

    /// Delivers `bytes` of ingress traffic to a socket (the asynchronous
    /// receive path: driver RX buffer + skbuff, demuxed up the stack and
    /// queued until [`Kernel::recv`]).
    pub fn deliver(&mut self, ctx: &mut Ctx<'_>, fd: Fd, bytes: u64) -> Result<(), KernelError> {
        let _attrib = kloc_trace::scope("deliver");
        let (ino, _) = self.resolve(fd)?;
        {
            let inode = self.vfs.inode(ino).ok_or(KernelError::BadInode(ino))?;
            if inode.kind != InodeKind::Socket {
                return Err(KernelError::WrongKind(ino));
            }
        }
        let early = ctx.hooks.early_socket_demux();
        let packets = bytes.div_ceil(self.params.packet_bytes).max(1);
        #[expect(clippy::expect_used, reason = "alloc_object just created it")]
        for p in 0..packets {
            let payload = if p == packets - 1 {
                bytes - p * self.params.packet_bytes
            } else {
                self.params.packet_bytes
            };
            // Driver: allocate the RX buffer and skbuff. With early demux
            // the socket is known here; otherwise it is discovered at the
            // TCP layer and associated late.
            let alloc_inode = if early { Some(ino) } else { None };
            ctx.mem.charge(self.params.net_driver_cpu);
            let rx = self.alloc_object(ctx, KernelObjectType::RxBuf, alloc_inode, false)?;
            // DMA fill: the NIC writes a whole ring buffer page.
            ctx.mem.write(
                self.objects.get(rx).expect("just allocated").frame,
                kloc_mem::PAGE_SIZE,
            );
            let skb = self.alloc_object(ctx, KernelObjectType::SkBuff, alloc_inode, false)?;
            self.access_object(ctx, skb, KernelObjectType::SkBuff.size(), true)?;

            // IP + TCP layers.
            ctx.mem.charge(self.params.net_ip_cpu);
            let tcp_cpu = if early {
                self.params
                    .net_tcp_cpu
                    .saturating_sub(self.params.net_early_demux_saving)
            } else {
                self.params.net_tcp_cpu
            };
            ctx.mem.charge(tcp_cpu);
            if early {
                self.net_stats.early_demuxed += 1;
            } else {
                // Late demux: associate the objects with the socket now.
                self.associate_object(ctx, rx, ino)?;
                self.associate_object(ctx, skb, ino)?;
            }

            // Queue on the socket.
            let sock_obj = self
                .vfs
                .inode(ino)
                .ok_or(KernelError::BadInode(ino))?
                .sock_obj
                .ok_or(KernelError::WrongKind(ino))?;
            self.access_object(ctx, sock_obj, 128, true)?;
            self.vfs
                .inode_mut(ino)
                .ok_or(KernelError::BadInode(ino))?
                .rx
                .push(Packet {
                    skb,
                    data: rx,
                    bytes: payload,
                });
            self.net_stats.rx_packets += 1;
        }
        self.net_stats.rx_bytes += bytes;
        Ok(())
    }

    /// Receives up to `max_bytes` from a socket's queue.
    ///
    /// # Errors
    /// [`KernelError::WouldBlock`] when nothing is queued.
    pub fn recv(&mut self, ctx: &mut Ctx<'_>, fd: Fd, max_bytes: u64) -> Result<u64, KernelError> {
        self.stats.on_syscall(Syscall::Recv);
        ctx.mem.charge(self.params.syscall_base);
        let _attrib = kloc_trace::scope("recv");
        self.crash_check(ctx)?;
        let (ino, _) = self.resolve(fd)?;
        {
            let inode = self.vfs.inode(ino).ok_or(KernelError::BadInode(ino))?;
            if inode.kind != InodeKind::Socket {
                return Err(KernelError::WrongKind(ino));
            }
            if inode.rx.is_empty() {
                return Err(KernelError::WouldBlock(fd));
            }
        }
        let mut got = 0;
        while got < max_bytes {
            let packet = {
                let inode = self.vfs.inode_mut(ino).ok_or(KernelError::BadInode(ino))?;
                inode.rx.pop()
            };
            let Some(packet) = packet else { break };
            self.access_object(ctx, packet.skb, KernelObjectType::SkBuff.size(), false)?;
            // Copy to userspace: read the kernel buffer.
            self.access_object(ctx, packet.data, packet.bytes.max(1), false)?;
            got += packet.bytes;
            self.free_object(ctx, packet.skb)?;
            self.free_object(ctx, packet.data)?;
        }
        self.tenants.stats_mut(ctx.tenant).rx_bytes += got;
        self.vfs
            .inode_mut(ino)
            .ok_or(KernelError::BadInode(ino))?
            .last_activity = ctx.mem.now();
        Ok(got)
    }

    // ------------------------------------------------------------------
    // Application memory
    // ------------------------------------------------------------------

    /// Allocates one application (anonymous) page — a transparent huge
    /// page when [`KernelParams::thp_app`] is set.
    pub fn alloc_app_page(&mut self, ctx: &mut Ctx<'_>) -> Result<FrameId, KernelError> {
        ctx.mem.charge(self.params.page_alloc_cpu);
        let kind = if self.params.thp_app {
            PageKind::AppHuge
        } else {
            PageKind::AppData
        };
        let req = PageRequest {
            kind,
            ty: None,
            inode: None,
            readahead: false,
            cpu: ctx.cpu,
            tenant: ctx.tenant,
        };
        let placement = ctx.hooks.place_page(&req, ctx.mem);
        let frame = ctx.mem.allocate_preferring(&placement, kind)?;
        if ctx.tenant != TenantId::DEFAULT {
            ctx.mem.set_frame_tenant(frame, ctx.tenant)?;
        }
        self.stats.app_pages_allocated += 1;
        ctx.hooks.on_app_page_alloc(frame, ctx.cpu, ctx.mem);
        Ok(frame)
    }

    /// Frees an application page.
    pub fn free_app_page(&mut self, ctx: &mut Ctx<'_>, frame: FrameId) -> Result<(), KernelError> {
        ctx.mem.charge(self.params.free_cpu);
        ctx.hooks.on_page_free(frame, ctx.mem);
        ctx.mem.free(frame)?;
        self.stats.app_pages_freed += 1;
        Ok(())
    }

    /// Application access to its own page.
    pub fn app_access(&mut self, ctx: &mut Ctx<'_>, frame: FrameId, bytes: u64, write: bool) {
        if write {
            ctx.mem.write_from(ctx.socket, frame, bytes);
        } else {
            ctx.mem.read_from(ctx.socket, frame, bytes);
        }
        ctx.hooks.on_app_page_access(frame, ctx.cpu, ctx.mem);
    }
}

impl Kernel {
    /// Audits the kernel's cross-structure invariants: the VFS tables,
    /// both packed allocators, the object table against the objects
    /// live inodes own, and — the tentpole — three-way agreement
    /// between the per-inode page caches, the frame -> (inode, index)
    /// reverse map, the page-cache LRU, and frame liveness in `mem`.
    /// Observation only.
    pub fn ksan_audit(
        &self,
        mem: &kloc_mem::MemorySystem,
        out: &mut Vec<kloc_mem::ksan::Violation>,
    ) {
        use kloc_mem::ksan::Violation;
        self.vfs.ksan_audit(out);
        self.slab.ksan_audit(mem, out);
        self.kvma.ksan_audit(mem, out);
        self.ksan_audit_objects(out);

        let mut cached = 0u64;
        let mut dirty = 0u64;
        let mut by_owner: Vec<u64> = Vec::new();
        for inode in self.vfs.inodes() {
            cached += inode.cache.len() as u64;
            dirty += inode.cache.dirty_pages();
            let o = inode.owner.index();
            if o >= by_owner.len() {
                by_owner.resize(o + 1, 0);
            }
            by_owner[o] += inode.cache.len() as u64;
            for (idx, page) in inode.cache.iter() {
                let object = format!("{} page {idx} ({})", inode.id, page.frame);
                if self.cache_index.get(page.frame) != Some((inode.id, idx)) {
                    out.push(Violation::new(
                        "PageCache <-> Kernel.cache_index",
                        object.clone(),
                        "the reverse map points every cached frame at its page",
                        format!("({}, {idx})", inode.id),
                        format!("{:?}", self.cache_index.get(page.frame)),
                    ));
                }
                if !self.cache_lru.contains(page.frame) {
                    out.push(Violation::new(
                        "PageCache <-> Kernel.cache_lru",
                        object.clone(),
                        "every cached page is tracked by the page LRU",
                        "tracked".to_owned(),
                        "untracked".to_owned(),
                    ));
                }
                if !mem.is_live(page.frame) {
                    out.push(Violation::new(
                        "PageCache <-> FrameTable",
                        object.clone(),
                        "every cached page's frame is live",
                        "live".to_owned(),
                        "freed".to_owned(),
                    ));
                }
                if page.dirty && !self.dirty_list.contains(&(inode.id, idx)) {
                    out.push(Violation::new(
                        "PageCache.dirty <-> Kernel.dirty_list",
                        object,
                        "every dirty page is queued for writeback",
                        "queued".to_owned(),
                        "missing from dirty_list".to_owned(),
                    ));
                }
            }
        }
        if cached != self.cache_pages {
            out.push(Violation::new(
                "Kernel.cache_pages <-> PageCache",
                "page cache",
                "the budget counter equals the pages cached across inodes",
                format!("{cached} cached pages"),
                format!("cache_pages = {}", self.cache_pages),
            ));
        }
        if dirty != self.dirty_pages {
            out.push(Violation::new(
                "Kernel.dirty_pages <-> PageCache",
                "page cache",
                "the dirty counter equals the dirty pages across inodes",
                format!("{dirty} dirty pages"),
                format!("dirty_pages = {}", self.dirty_pages),
            ));
        }
        if self.cache_lru.len() as u64 != cached {
            out.push(Violation::new(
                "Kernel.cache_lru <-> PageCache",
                "page cache",
                "the LRU tracks exactly the cached pages",
                format!("{cached} cached pages"),
                format!("{} LRU entries", self.cache_lru.len()),
            ));
        }
        self.cache_lru.ksan_audit(out);
        // Per-tenant residency: each tenant's pc_resident counter equals
        // the cached pages of the inodes it owns.
        for i in 0..by_owner.len().max(self.tenants.stats_len()) {
            let id = TenantId(i as u16);
            let counted = by_owner.get(i).copied().unwrap_or(0);
            let stored = self.tenants.stats(id).pc_resident;
            if counted != stored {
                out.push(Violation::new(
                    "TenantTable.pc_resident <-> PageCache",
                    format!("{id}"),
                    "per-tenant residency equals the cached pages of owned inodes",
                    format!("{counted} cached pages"),
                    format!("pc_resident = {stored}"),
                ));
            }
        }
        // Reverse direction: every reverse-map entry round-trips into
        // the owning inode's page cache.
        for (frame, ino, idx) in self.cache_index.iter() {
            let hit = self
                .vfs
                .inode(ino)
                .and_then(|inode| inode.cache.get(idx))
                .is_some_and(|page| page.frame == frame);
            if !hit {
                out.push(Violation::new(
                    "Kernel.cache_index <-> PageCache",
                    format!("{ino} page {idx} ({frame})"),
                    "every reverse-map entry names a cached page",
                    format!("{frame} cached at ({ino}, {idx})"),
                    "no such cached page".to_owned(),
                ));
            }
        }
    }

    /// The object table's own invariants (live counter, free list),
    /// and every object a live inode owns (inode, dentry, cached pages,
    /// radix nodes, extents) against the table: live, of the expected
    /// type, associated with that inode, and — for cached pages — on
    /// the frame the page cache recorded.
    fn ksan_audit_objects(&self, out: &mut Vec<kloc_mem::ksan::Violation>) {
        use kloc_mem::ksan::Violation;
        self.objects.ksan_audit(out);
        for inode in self.vfs.inodes() {
            use KernelObjectType as T;
            let mut owned = vec![(inode.inode_obj, T::Inode, None)];
            owned.extend(inode.dentry_obj.map(|o| (o, T::Dentry, None)));
            let pages = inode.cache.iter();
            owned.extend(pages.map(|(_, p)| (p.obj, T::PageCache, Some(p.frame))));
            owned.extend(inode.cache.nodes().map(|o| (o, T::RadixNode, None)));
            owned.extend(inode.extents.objects().map(|o| (o, T::Extent, None)));
            for (obj, ty, frame) in owned {
                let found = self.objects.get(obj);
                let ok = found.is_some_and(|k| {
                    k.info.ty == ty
                        && k.info.inode == Some(inode.id)
                        && frame.is_none_or(|f| f == k.frame)
                });
                if !ok {
                    let on = frame.map_or(String::new(), |f| format!(" on {f}"));
                    out.push(Violation::new(
                        "Inode <-> ObjectTable",
                        format!("{} {ty} {obj}", inode.id),
                        "every object a live inode owns is live in the table with its type, inode and frame",
                        format!("live {ty} of {}{on}", inode.id),
                        found.map_or("freed".to_owned(), |k| {
                            format!("{} of {:?} on {}", k.info.ty, k.info.inode, k.frame)
                        }),
                    ));
                }
            }
        }
    }

    /// Corruption hook for sanitizer self-tests: kills the object-table
    /// slot of the first cached page while the page stays cached and
    /// the table's live counter still counts it.
    #[doc(hidden)]
    pub fn ksan_break_object_table(&mut self) {
        let obj = self
            .vfs
            .inodes()
            .find_map(|inode| inode.cache.iter().next().map(|(_, p)| p.obj));
        if let Some(obj) = obj {
            self.objects.ksan_clear_slot(obj);
        }
    }

    /// Corruption hook for sanitizer self-tests: pushes the object
    /// table's most recently freed slot on its free list a second time.
    #[doc(hidden)]
    pub fn ksan_break_object_free_list(&mut self) -> bool {
        self.objects.ksan_push_free_twice()
    }

    /// Corruption hook for sanitizer self-tests: drops the reverse-map
    /// entry of the first cached frame while the page stays cached.
    #[doc(hidden)]
    pub fn ksan_break_cache_index(&mut self) {
        let first = self.cache_index.iter().next();
        if let Some((frame, _, _)) = first {
            self.cache_index.remove(frame);
        }
    }

    /// Corruption hook for sanitizer self-tests: unlinks the first
    /// cached frame from the page LRU while the page stays cached.
    #[doc(hidden)]
    pub fn ksan_break_cache_lru(&mut self) {
        let frame = self.cache_index.iter().map(|(frame, _, _)| frame).next();
        if let Some(frame) = frame {
            self.cache_lru.remove(frame);
        }
    }
}

/// frame -> (inode, page index) reverse map for cached file pages,
/// direct-mapped by [`FrameId::slot`]. Entries store the full frame id
/// so a slot recycled by the frame table (fresh generation) misses
/// instead of aliasing; the kernel removes entries on page free, so
/// stale occupants only arise transiently and are overwritten on insert.
#[derive(Debug, Default)]
struct CacheIndex {
    slots: Vec<Option<(FrameId, InodeId, u64)>>,
}

impl CacheIndex {
    fn get(&self, frame: FrameId) -> Option<(InodeId, u64)> {
        match self.slots.get(frame.slot() as usize) {
            Some(&Some((f, ino, idx))) if f == frame => Some((ino, idx)),
            _ => None,
        }
    }

    fn insert(&mut self, frame: FrameId, ino: InodeId, idx: u64) {
        let i = frame.slot() as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        self.slots[i] = Some((frame, ino, idx));
    }

    /// Removes `frame`'s entry; returns whether it was present.
    fn remove(&mut self, frame: FrameId) -> bool {
        match self.slots.get_mut(frame.slot() as usize) {
            Some(slot @ &mut Some((f, _, _))) if f == frame => {
                *slot = None;
                true
            }
            _ => false,
        }
    }

    /// Iterates entries in ascending slot order.
    fn iter(&self) -> impl Iterator<Item = (FrameId, InodeId, u64)> + '_ {
        self.slots.iter().filter_map(|e| *e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NullHooks;
    use kloc_mem::{MemorySystem, Nanos, TierId};

    fn setup() -> (MemorySystem, NullHooks, Kernel) {
        (
            MemorySystem::two_tier(1024 * kloc_mem::PAGE_SIZE, 8),
            NullHooks::fast_first(),
            Kernel::new(KernelParams::default()),
        )
    }

    #[test]
    fn create_allocates_fig3b_objects() {
        let (mut mem, mut hooks, mut k) = setup();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        k.create(&mut ctx, "/f").unwrap();
        let s = k.stats();
        assert_eq!(s.ty(KernelObjectType::Inode).allocated, 1);
        assert_eq!(s.ty(KernelObjectType::Dentry).allocated, 1);
        assert_eq!(s.ty(KernelObjectType::JournalHead).allocated, 1);
        assert_eq!(s.ty(KernelObjectType::FileHandle).allocated, 1);
        assert_eq!(k.vfs().inode_count(), 1);
        assert_eq!(k.vfs().open_fds(), 1);
    }

    #[test]
    fn create_existing_path_fails() {
        let (mut mem, mut hooks, mut k) = setup();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        k.create(&mut ctx, "/f").unwrap();
        assert!(matches!(
            k.create(&mut ctx, "/f"),
            Err(KernelError::Exists(_))
        ));
    }

    #[test]
    fn write_populates_page_cache_and_extents() {
        let (mut mem, mut hooks, mut k) = setup();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let fd = k.create(&mut ctx, "/f").unwrap();
        k.write(&mut ctx, fd, 0, 3 * 4096).unwrap();
        assert_eq!(k.cache_pages(), 3);
        assert_eq!(k.dirty_pages(), 3);
        assert_eq!(k.stats().ty(KernelObjectType::PageCache).allocated, 3);
        assert_eq!(k.stats().ty(KernelObjectType::RadixNode).allocated, 1);
        assert_eq!(k.stats().ty(KernelObjectType::Extent).allocated, 1);
        let ino = k.vfs().fd(fd).unwrap().inode;
        assert_eq!(k.vfs().inode(ino).unwrap().size, 3 * 4096);
    }

    #[test]
    fn rewrite_hits_cache() {
        let (mut mem, mut hooks, mut k) = setup();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let fd = k.create(&mut ctx, "/f").unwrap();
        k.write(&mut ctx, fd, 0, 4096).unwrap();
        let misses = k.stats().cache_misses;
        k.write(&mut ctx, fd, 0, 4096).unwrap();
        assert_eq!(k.stats().cache_misses, misses, "rewrite should hit");
        assert!(k.stats().cache_hits > 0);
        assert_eq!(k.cache_pages(), 1);
    }

    #[test]
    fn read_after_write_hits_cache_and_clamps() {
        let (mut mem, mut hooks, mut k) = setup();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let fd = k.create(&mut ctx, "/f").unwrap();
        k.write(&mut ctx, fd, 0, 8192).unwrap();
        let n = k.read(&mut ctx, fd, 0, 100_000).unwrap();
        assert_eq!(n, 8192, "read clamps to file size");
        assert_eq!(k.read(&mut ctx, fd, 9000, 10).unwrap(), 0);
    }

    #[test]
    fn fsync_cleans_dirty_pages_and_commits() {
        let (mut mem, mut hooks, mut k) = setup();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let fd = k.create(&mut ctx, "/f").unwrap();
        k.write(&mut ctx, fd, 0, 4 * 4096).unwrap();
        assert_eq!(k.dirty_pages(), 4);
        k.fsync(&mut ctx, fd).unwrap();
        assert_eq!(k.dirty_pages(), 0);
        assert_eq!(k.journal().pending(), 0);
        assert!(k.journal().commits() >= 1);
        assert!(k.stats().ty(KernelObjectType::Bio).allocated >= 1);
        assert!(k.stats().ty(KernelObjectType::JournalBlock).allocated >= 2);
        // Bios and journal blocks are short-lived.
        assert_eq!(k.stats().ty(KernelObjectType::Bio).live(), 0);
        assert_eq!(k.stats().ty(KernelObjectType::JournalBlock).live(), 0);
        // Device went idle.
        assert!(k.disk().busy_until() <= ctx.mem.now());
    }

    #[test]
    fn fsync_promise_counts_complete_records() {
        let (mut mem, mut hooks, mut k) = setup();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let recount = |k: &Kernel| {
            k.durable()
                .journal
                .iter()
                .filter(|r| r.is_complete())
                .count()
        };
        let fd = k.create(&mut ctx, "/f").unwrap();
        for n in 1..=20u64 {
            k.write(&mut ctx, fd, (n - 1) * 4096, 4096).unwrap();
            if n % 3 == 0 {
                // Commits without an fsync leave the promise behind.
                k.commit_journal(&mut ctx).unwrap();
            } else {
                k.fsync(&mut ctx, fd).unwrap();
                assert_eq!(k.promise().committed_records, recount(&k), "write {n}");
            }
        }
        assert!(k.durable().journal.len() >= 20);
    }

    #[test]
    fn close_fires_inactive_unlink_destroys() {
        let (mut mem, mut hooks, mut k) = setup();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let fd = k.create(&mut ctx, "/f").unwrap();
        k.write(&mut ctx, fd, 0, 4096).unwrap();
        k.close(&mut ctx, fd).unwrap();
        // Inode still cached after close.
        assert_eq!(k.vfs().inode_count(), 1);
        assert_eq!(k.stats().ty(KernelObjectType::Inode).live(), 1);
        k.unlink(&mut ctx, "/f").unwrap();
        assert_eq!(k.vfs().inode_count(), 0);
        assert_eq!(k.stats().ty(KernelObjectType::Inode).live(), 0);
        assert_eq!(k.stats().ty(KernelObjectType::PageCache).live(), 0);
        assert_eq!(k.stats().ty(KernelObjectType::Dentry).live(), 0);
        assert_eq!(k.cache_pages(), 0);
        // Only the uncommitted journal heads remain; after a commit the
        // system holds no frames at all.
        k.commit_journal(&mut ctx).unwrap();
        assert_eq!(ctx.mem.live_frames(), 0, "no leaked frames");
    }

    #[test]
    fn unlink_while_open_defers_destroy() {
        let (mut mem, mut hooks, mut k) = setup();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let fd = k.create(&mut ctx, "/f").unwrap();
        k.unlink(&mut ctx, "/f").unwrap();
        assert_eq!(k.vfs().inode_count(), 1, "still open");
        k.close(&mut ctx, fd).unwrap();
        assert_eq!(k.vfs().inode_count(), 0);
    }

    #[test]
    fn reopen_uses_dentry_cache() {
        let (mut mem, mut hooks, mut k) = setup();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let fd = k.create(&mut ctx, "/f").unwrap();
        k.close(&mut ctx, fd).unwrap();
        let fd2 = k.open(&mut ctx, "/f").unwrap();
        assert_eq!(k.stats().dentry_hits, 1);
        assert_eq!(k.stats().dentry_misses, 0);
        k.close(&mut ctx, fd2).unwrap();
    }

    #[test]
    fn sequential_reads_trigger_readahead() {
        let (mut mem, mut hooks, mut k) = setup();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let fd = k.create(&mut ctx, "/f").unwrap();
        k.write(&mut ctx, fd, 0, 64 * 4096).unwrap();
        k.fsync(&mut ctx, fd).unwrap();
        k.close(&mut ctx, fd).unwrap();
        // Drop the cache so reads must fault.
        let ino = k.vfs().lookup_path("/f").unwrap();
        let idxs: Vec<u64> = k
            .vfs()
            .inode(ino)
            .unwrap()
            .cache
            .iter()
            .map(|(i, _)| i)
            .collect();
        let fd = k.open(&mut ctx, "/f").unwrap();
        for idx in idxs {
            k.drop_cache_page(&mut ctx, ino, idx).unwrap();
        }
        for i in 0..8u64 {
            k.read(&mut ctx, fd, i * 4096, 4096).unwrap();
        }
        assert!(k.readahead().stats().issued > 0, "prefetch should fire");
        assert!(
            k.readahead().stats().useful > 0,
            "prefetched pages get used"
        );
        k.close(&mut ctx, fd).unwrap();
    }

    #[test]
    fn last_close_resets_the_readahead_stream() {
        let (mut mem, mut hooks, mut k) = setup();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let fd = k.create(&mut ctx, "/f").unwrap();
        k.write(&mut ctx, fd, 0, 64 * 4096).unwrap();
        k.fsync(&mut ctx, fd).unwrap();
        k.close(&mut ctx, fd).unwrap();
        let ino = k.vfs().lookup_path("/f").unwrap();
        let fd = k.open(&mut ctx, "/f").unwrap();
        for idx in 0..64 {
            k.drop_cache_page(&mut ctx, ino, idx).unwrap();
        }
        let issued = |k: &Kernel| k.readahead().stats().issued;
        // Pages 0..4 in order: the window grows 1, 2, 4, 8 and
        // prefetches pages 1..12.
        for idx in 0..4 {
            k.read(&mut ctx, fd, idx * 4096, 4096).unwrap();
        }
        assert_eq!(issued(&k), 11);
        // Closing a handle that is not the last keeps the stream: page 4
        // continues it, the window doubles to 16 and prefetches 12..21.
        let fd2 = k.open(&mut ctx, "/f").unwrap();
        k.close(&mut ctx, fd).unwrap();
        let before = issued(&k);
        k.read(&mut ctx, fd2, 4 * 4096, 4096).unwrap();
        assert_eq!(issued(&k) - before, 9);
        // The last close resets it: after a reopen, page 5 is a jump
        // from a fresh stream, so the window collapses and nothing is
        // prefetched (a kept stream would prefetch pages 21..38).
        k.close(&mut ctx, fd2).unwrap();
        let fd = k.open(&mut ctx, "/f").unwrap();
        let before = issued(&k);
        k.read(&mut ctx, fd, 5 * 4096, 4096).unwrap();
        assert_eq!(issued(&k) - before, 0);
        // Growth restarts from a one-page window: page 21 jumps again,
        // then page 22 continues with a window of one.
        k.read(&mut ctx, fd, 21 * 4096, 4096).unwrap();
        k.read(&mut ctx, fd, 22 * 4096, 4096).unwrap();
        assert_eq!(issued(&k) - before, 1, "page 22 prefetches page 23 only");
        k.close(&mut ctx, fd).unwrap();
    }

    #[test]
    fn cache_budget_reclaims() {
        let (mut mem, mut hooks, mut k) = setup();
        // Tiny budget: 8 pages.
        k.params.page_cache_budget = 8;
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let fd = k.create(&mut ctx, "/f").unwrap();
        k.write(&mut ctx, fd, 0, 32 * 4096).unwrap();
        assert!(
            k.cache_pages() <= 8,
            "budget enforced, got {}",
            k.cache_pages()
        );
        assert!(k.stats().reclaimed_pages > 0);
        k.close(&mut ctx, fd).unwrap();
    }

    #[test]
    fn socket_send_recv_round_trip() {
        let (mut mem, mut hooks, mut k) = setup();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let fd = k.socket(&mut ctx).unwrap();
        assert_eq!(k.stats().ty(KernelObjectType::Sock).allocated, 1);
        k.send(&mut ctx, fd, 3000).unwrap();
        assert_eq!(
            k.net_stats().tx_packets,
            3,
            "3000B at 1448B MTU = 3 packets"
        );
        assert_eq!(
            k.stats().ty(KernelObjectType::SkBuff).live(),
            0,
            "egress skbs freed"
        );

        assert!(matches!(
            k.recv(&mut ctx, fd, 100),
            Err(KernelError::WouldBlock(_))
        ));
        k.deliver(&mut ctx, fd, 3000).unwrap();
        assert_eq!(k.stats().ty(KernelObjectType::RxBuf).live(), 3);
        let got = k.recv(&mut ctx, fd, 10_000).unwrap();
        assert_eq!(got, 3000);
        assert_eq!(k.stats().ty(KernelObjectType::RxBuf).live(), 0);
        k.close(&mut ctx, fd).unwrap();
        assert_eq!(k.stats().ty(KernelObjectType::Sock).live(), 0);
        assert_eq!(k.vfs().inode_count(), 0, "sockets destroyed on close");
    }

    #[test]
    fn socket_close_frees_queued_packets() {
        let (mut mem, mut hooks, mut k) = setup();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let fd = k.socket(&mut ctx).unwrap();
        k.deliver(&mut ctx, fd, 5000).unwrap();
        k.close(&mut ctx, fd).unwrap();
        assert_eq!(k.stats().ty(KernelObjectType::SkBuff).live(), 0);
        assert_eq!(k.stats().ty(KernelObjectType::RxBuf).live(), 0);
        assert_eq!(ctx.mem.live_frames(), 0);
    }

    #[test]
    fn file_ops_on_socket_rejected() {
        let (mut mem, mut hooks, mut k) = setup();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let fd = k.socket(&mut ctx).unwrap();
        assert!(matches!(
            k.write(&mut ctx, fd, 0, 10),
            Err(KernelError::WrongKind(_))
        ));
        let ffd = k.create(&mut ctx, "/f").unwrap();
        assert!(matches!(
            k.send(&mut ctx, ffd, 10),
            Err(KernelError::WrongKind(_))
        ));
    }

    #[test]
    fn mkdir_and_readdir_allocate_dir_buffers() {
        let (mut mem, mut hooks, mut k) = setup();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let ino = k.mkdir(&mut ctx, "/dir").unwrap();
        assert_eq!(k.vfs().inode(ino).unwrap().kind, InodeKind::Directory);
        assert!(matches!(
            k.mkdir(&mut ctx, "/dir"),
            Err(KernelError::Exists(_))
        ));
        let n = k.readdir(&mut ctx, "/dir", 20).unwrap();
        assert_eq!(n, 20);
        let t = k.stats().ty(KernelObjectType::DirBuffer);
        assert_eq!(t.allocated, 4, "ceil(20/6) = 4 buffers");
        assert_eq!(t.live(), 0, "dir buffers are transient");
        // Directories reject file I/O.
        assert!(matches!(
            k.readdir(&mut ctx, "/nope", 5),
            Err(KernelError::NoEntry(_))
        ));
        let fd = k.create(&mut ctx, "/f").unwrap();
        k.close(&mut ctx, fd).unwrap();
        assert!(matches!(
            k.readdir(&mut ctx, "/f", 5),
            Err(KernelError::WrongKind(_))
        ));
    }

    #[test]
    fn app_pages_counted() {
        let (mut mem, mut hooks, mut k) = setup();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let f = k.alloc_app_page(&mut ctx).unwrap();
        k.app_access(&mut ctx, f, 4096, true);
        assert_eq!(k.stats().app_pages_allocated, 1);
        assert_eq!(ctx.mem.tier_of(f), TierId::FAST);
        k.free_app_page(&mut ctx, f).unwrap();
        assert_eq!(k.stats().app_pages_freed, 1);
    }

    #[test]
    fn slab_objects_have_short_lifetimes_vs_files() {
        // Reproduces the shape of paper Fig. 2d at micro scale: bio and
        // journal objects die in microseconds while inodes live on.
        let (mut mem, mut hooks, mut k) = setup();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let fd = k.create(&mut ctx, "/f").unwrap();
        k.write(&mut ctx, fd, 0, 16 * 4096).unwrap();
        k.fsync(&mut ctx, fd).unwrap();
        let bio_life = k.stats().ty(KernelObjectType::Bio).mean_lifetime();
        assert!(bio_life < Nanos::from_millis(1));
        assert_eq!(k.stats().ty(KernelObjectType::Inode).freed, 0);
        k.close(&mut ctx, fd).unwrap();
    }

    #[test]
    fn early_demux_saves_tcp_cpu() {
        struct EarlyHooks;
        impl crate::hooks::KernelHooks for EarlyHooks {
            fn place_page(
                &mut self,
                _req: &PageRequest,
                _mem: &MemorySystem,
            ) -> crate::hooks::Placement {
                crate::hooks::Placement::fast_then_slow()
            }
            fn early_socket_demux(&self) -> bool {
                true
            }
        }
        // Early demux path.
        let mut mem1 = MemorySystem::two_tier(1024 * 4096, 8);
        let mut h1 = EarlyHooks;
        let mut k1 = Kernel::new(KernelParams::default());
        let mut ctx1 = Ctx::new(&mut mem1, &mut h1);
        let fd1 = k1.socket(&mut ctx1).unwrap();
        let t0 = ctx1.mem.now();
        k1.deliver(&mut ctx1, fd1, 1448).unwrap();
        let early_cost = ctx1.mem.now() - t0;

        // Late demux path.
        let (mut mem2, mut h2, mut k2) = setup();
        let mut ctx2 = Ctx::new(&mut mem2, &mut h2);
        let fd2 = k2.socket(&mut ctx2).unwrap();
        let t0 = ctx2.mem.now();
        k2.deliver(&mut ctx2, fd2, 1448).unwrap();
        let late_cost = ctx2.mem.now() - t0;

        assert!(early_cost < late_cost, "early demux must be cheaper");
        assert_eq!(k1.net_stats().early_demuxed, 1);
        assert_eq!(k2.net_stats().early_demuxed, 0);
    }

    fn tenant_spec(id: u16, pc_budget: Option<u64>) -> crate::tenant::TenantSpec {
        crate::tenant::TenantSpec {
            id: TenantId(id),
            name: format!("t{id}"),
            qos: crate::tenant::QosClass::Burstable,
            fast_budget_frames: None,
            pc_budget,
        }
    }

    #[test]
    fn tenant_pc_cap_self_evicts() {
        let (mut mem, mut hooks, mut k) = setup();
        k.register_tenant(tenant_spec(1, Some(4)));
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        ctx.tenant = TenantId(1);
        let fd = k.create(&mut ctx, "/f").unwrap();
        k.write(&mut ctx, fd, 0, 16 * 4096).unwrap();
        let s = k.tenant_stats(TenantId(1));
        assert_eq!(s.pc_inserted, 16);
        assert!(s.pc_resident <= 4, "cap enforced, got {}", s.pc_resident);
        assert!(s.pc_self_evicted >= 12);
        assert_eq!(
            k.tenant_stats(TenantId::DEFAULT).pc_resident,
            0,
            "nothing charged to the shared kernel"
        );
        assert_eq!(s.cross_evictions_caused, 0);
        assert_eq!(s.cross_evictions_suffered, 0);
    }

    #[test]
    fn cross_tenant_evictions_are_attributed() {
        let (mut mem, mut hooks, mut k) = setup();
        // Small global budget, no per-tenant caps: the churner spills
        // into the shared shrinker and evicts the neighbour's pages.
        k.params.page_cache_budget = 8;
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        ctx.tenant = TenantId(1);
        let hot = k.create(&mut ctx, "/hot").unwrap();
        k.write(&mut ctx, hot, 0, 6 * 4096).unwrap();
        ctx.tenant = TenantId(2);
        let churn = k.create(&mut ctx, "/churn").unwrap();
        k.write(&mut ctx, churn, 0, 32 * 4096).unwrap();
        let t2 = k.tenant_stats(TenantId(2));
        assert!(t2.cross_evictions_caused > 0, "churn evicted the neighbour");
        assert_eq!(
            k.tenant_stats(TenantId(1)).cross_evictions_suffered,
            t2.cross_evictions_caused
        );
    }

    #[test]
    fn tenant_budgets_prevent_cross_eviction() {
        let (mut mem, mut hooks, mut k) = setup();
        // Per-tenant caps sum (12) below the global budget (16): the
        // global shrinker never runs, so the churner can only reclaim
        // from itself and the hot set stays intact.
        k.params.page_cache_budget = 16;
        k.register_tenant(tenant_spec(1, Some(6)));
        k.register_tenant(tenant_spec(2, Some(6)));
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        ctx.tenant = TenantId(1);
        let hot = k.create(&mut ctx, "/hot").unwrap();
        k.write(&mut ctx, hot, 0, 6 * 4096).unwrap();
        ctx.tenant = TenantId(2);
        let churn = k.create(&mut ctx, "/churn").unwrap();
        k.write(&mut ctx, churn, 0, 64 * 4096).unwrap();
        let t1 = k.tenant_stats(TenantId(1));
        let t2 = k.tenant_stats(TenantId(2));
        assert_eq!(t2.cross_evictions_caused, 0);
        assert_eq!(t1.cross_evictions_suffered, 0);
        assert_eq!(t1.pc_resident, 6, "hot set intact");
        assert_eq!(t1.pc_self_evicted, 0);
        assert!(t2.pc_self_evicted >= 58);
        assert!(k.cache_pages() <= 16);
    }

    #[test]
    fn socket_bytes_are_attributed_to_tenants() {
        let (mut mem, mut hooks, mut k) = setup();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        ctx.tenant = TenantId(3);
        let fd = k.socket(&mut ctx).unwrap();
        k.send(&mut ctx, fd, 3000).unwrap();
        k.deliver(&mut ctx, fd, 2000).unwrap();
        // A different tenant drains the shared socket: rx lands on the
        // reader, not the socket's owner.
        ctx.tenant = TenantId(4);
        k.recv(&mut ctx, fd, 10_000).unwrap();
        assert_eq!(k.tenant_stats(TenantId(3)).tx_bytes, 3000);
        assert_eq!(k.tenant_stats(TenantId(3)).rx_bytes, 0);
        assert_eq!(k.tenant_stats(TenantId(4)).rx_bytes, 2000);
        assert_eq!(
            k.vfs().inode(k.vfs().fd(fd).unwrap().inode).unwrap().owner,
            TenantId(3)
        );
    }

    #[test]
    fn deliver_then_objects_carry_socket_inode() {
        let (mut mem, mut hooks, mut k) = setup();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let fd = k.socket(&mut ctx).unwrap();
        let ino = k.vfs().fd(fd).unwrap().inode;
        k.deliver(&mut ctx, fd, 100).unwrap();
        // After late demux, the queued objects are associated.
        let assoc = k
            .objects()
            .iter()
            .filter(|o| o.info.inode == Some(ino))
            .count();
        assert!(assoc >= 3, "sock + skb + rxbuf associated, got {assoc}");
    }
}
