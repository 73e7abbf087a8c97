//! Slab-style packed object allocation.
//!
//! Small kernel objects are packed many-per-frame. Two instances exist in
//! the kernel:
//!
//! * the **slab allocator** proper — frames of [`PageKind::Slab`], fast
//!   but pinned (non-relocatable), shared across all inodes, exactly like
//!   `kmem_cache_alloc` (paper §3.3); and
//! * the **KLOC relocatable interface** — frames of
//!   [`PageKind::KernelVma`], slightly slower to allocate but migratable,
//!   with objects grouped into inode-sharded arenas so related contexts
//!   co-locate (the paper's new allocation interface, §4.4, that 400+
//!   allocation sites are redirected to).
//!
//! The allocator only manages frames and slot counts; CPU cost charging
//! and object-table bookkeeping are done by the [`crate::Kernel`] facade.

use kloc_mem::{FrameId, PageKind};

use crate::error::KernelError;
use crate::hooks::{Ctx, PageRequest};
use crate::obj::KernelObjectType;
use crate::vfs::InodeId;

/// Per-frame occupancy plus the cache the frame belongs to, stored in a
/// slot-direct table (see [`FrameMap`]).
#[derive(Debug, Clone, Copy)]
struct FrameUse {
    /// Full frame id occupying this slot, [`FrameMap::VACANT`] if none.
    id: u64,
    used_bytes: u64,
    live_objects: u32,
    /// Dense cache index (see [`PackedAllocator::cache_index`]).
    cache: u32,
}

/// Frame occupancy table, direct-mapped by [`FrameId::slot`]. Frame
/// slots are dense and at most one live frame occupies a slot, so
/// lookup is one array read against the stored full id — stale
/// generations miss, which is what makes lazily popped `partial`
/// entries safe.
#[derive(Debug, Default)]
struct FrameMap {
    slots: Vec<FrameUse>,
    len: usize,
}

impl FrameMap {
    /// Vacant-slot sentinel (no real id carries generation *and* slot
    /// `u32::MAX`).
    const VACANT: u64 = u64::MAX;

    fn get_mut(&mut self, frame: FrameId) -> Option<&mut FrameUse> {
        self.slots
            .get_mut(frame.slot() as usize)
            .filter(|u| u.id == frame.0)
    }

    fn insert(&mut self, frame: FrameId, used_bytes: u64, cache: u32) {
        let slot = frame.slot() as usize;
        if slot >= self.slots.len() {
            self.slots.resize(
                slot + 1,
                FrameUse {
                    id: Self::VACANT,
                    used_bytes: 0,
                    live_objects: 0,
                    cache: 0,
                },
            );
        }
        debug_assert_eq!(self.slots[slot].id, Self::VACANT, "slot {slot} occupied");
        self.slots[slot] = FrameUse {
            id: frame.0,
            used_bytes,
            live_objects: 1,
            cache,
        };
        self.len += 1;
    }

    fn remove(&mut self, frame: FrameId) {
        if let Some(u) = self.get_mut(frame) {
            u.id = Self::VACANT;
            self.len -= 1;
        }
    }

    /// Occupied entries in slot order.
    fn iter(&self) -> impl Iterator<Item = (FrameId, &FrameUse)> {
        self.slots
            .iter()
            .filter(|u| u.id != Self::VACANT)
            .map(|u| (FrameId(u.id), u))
    }
}

/// Frames of one cache with at least one free slot.
#[derive(Debug, Default)]
struct Cache {
    partial: Vec<FrameId>,
}

/// A packed (slab-like) allocator over one [`PageKind`].
///
/// Caches are keyed densely: shared (slab) mode packs by object type —
/// classic `kmem_cache` behaviour where objects of many files pack
/// together — while sharded (KLOC kvma) mode packs by `inode % shards`,
/// so one context's small objects share an arena of frames with at most
/// a shard's worth of co-residents: en-masse migration mostly moves
/// related objects and internal fragmentation stays bounded by the
/// shard count. Both keyings map to a small dense index, so the per
/// alloc/free cache lookup is an array access, not a map search.
#[derive(Debug)]
pub struct PackedAllocator {
    kind: PageKind,
    /// Inode sharding: objects of inodes in the same shard share arena
    /// frames. `None` = classic type-keyed slab packing; `Some(1)` =
    /// one global arena; a moderate shard count groups related contexts
    /// while bounding internal fragmentation to one partial frame per
    /// shard.
    inode_shards: Option<u64>,
    /// Dense cache table: indexes `0..shards` are inode shards, the
    /// tail indexes are per-type caches (for sharded allocators serving
    /// inode-less allocations, and for classic slab mode throughout).
    caches: Vec<Cache>,
    /// Frame -> (occupancy, owning cache), slot-direct.
    frames: FrameMap,
    frames_allocated: u64,
    frames_freed: u64,
}

impl PackedAllocator {
    /// Creates an allocator handing out frames of `kind`. With
    /// `inode_shards = Some(n)`, objects are grouped into `n` arenas by
    /// inode; with `None`, classic per-type slab packing is used.
    pub fn new(kind: PageKind, inode_shards: Option<u64>) -> Self {
        PackedAllocator {
            kind,
            inode_shards,
            caches: Vec::new(),
            frames: FrameMap::default(),
            frames_allocated: 0,
            frames_freed: 0,
        }
    }

    /// Page kind of frames handed out by this allocator.
    pub fn kind(&self) -> PageKind {
        self.kind
    }

    /// Number of live frames currently owned.
    pub fn live_frames(&self) -> usize {
        self.frames.len
    }

    /// Cumulative frames ever allocated.
    pub fn frames_allocated(&self) -> u64 {
        self.frames_allocated
    }

    /// Dense cache index: inode shard when sharding applies, else the
    /// per-type cache past the shard range.
    fn cache_index(&self, ty: KernelObjectType, inode: Option<InodeId>) -> usize {
        let shard_base = match self.inode_shards {
            Some(shards) => {
                let shards = shards.max(1);
                if let Some(i) = inode {
                    return (i.0 % shards) as usize;
                }
                shards as usize
            }
            None => 0,
        };
        shard_base + ty as usize
    }

    /// Allocates one slot for an object of `ty` (owned by `inode`),
    /// returning the frame the object lives on. Allocates a new frame via
    /// the placement hooks when no partial frame has room.
    ///
    /// # Errors
    /// Propagates allocation failure from the memory system (only
    /// possible if every tier in the placement preference is full).
    pub fn alloc(
        &mut self,
        ctx: &mut Ctx<'_>,
        ty: KernelObjectType,
        inode: Option<InodeId>,
        readahead: bool,
    ) -> Result<FrameId, KernelError> {
        let ci = self.cache_index(ty, inode);
        let size = ty.size().min(kloc_mem::PAGE_SIZE);
        if ci >= self.caches.len() {
            self.caches.resize_with(ci + 1, Cache::default);
        }
        let cache = &mut self.caches[ci];

        // Reuse a partial frame if one has room.
        while let Some(&frame) = cache.partial.last() {
            let Some(u) = self.frames.get_mut(frame) else {
                // Stale entry (frame emptied and freed).
                cache.partial.pop();
                continue;
            };
            if u.used_bytes + size <= kloc_mem::PAGE_SIZE {
                u.used_bytes += size;
                u.live_objects += 1;
                if u.used_bytes + size > kloc_mem::PAGE_SIZE {
                    cache.partial.pop();
                }
                return Ok(frame);
            }
            cache.partial.pop();
        }

        // Grab a new frame, placed by the policy. Slab frames are shared
        // infrastructure — one packed page can host many tenants'
        // objects — so the request (and the frame) stays on
        // `TenantId::DEFAULT` and per-tenant fast budgets do not apply.
        let req = PageRequest {
            kind: self.kind,
            ty: Some(ty),
            inode,
            readahead,
            cpu: ctx.cpu,
            tenant: kloc_mem::TenantId::DEFAULT,
        };
        let placement = ctx.hooks.place_page(&req, ctx.mem);
        let frame = ctx.mem.allocate_preferring(&placement, self.kind)?;
        self.frames_allocated += 1;
        // lint: truncation-ok — cache indexes are small (shards + types)
        self.frames.insert(frame, size, ci as u32);
        if size * 2 <= kloc_mem::PAGE_SIZE {
            self.caches[ci].partial.push(frame);
        }
        Ok(frame)
    }

    /// Releases one slot on `frame` for an object of `ty`/`inode`. When
    /// the frame becomes empty it is returned to the memory system (and
    /// the policy is notified via `on_page_free`).
    ///
    /// # Errors
    /// [`KernelError::Mem`] if the frame is unknown to the memory system
    /// (indicates a double free).
    pub fn free(
        &mut self,
        ctx: &mut Ctx<'_>,
        ty: KernelObjectType,
        inode: Option<InodeId>,
        frame: FrameId,
    ) -> Result<(), KernelError> {
        let ci = self.cache_index(ty, inode);
        let size = ty.size().min(kloc_mem::PAGE_SIZE);
        // A frame freed under the wrong type/inode would resolve to a
        // different cache: reject it like the unknown-frame case.
        let u = self
            .frames
            .get_mut(frame)
            .filter(|u| u.cache as usize == ci)
            .ok_or(KernelError::Mem(kloc_mem::MemError::BadFrame(frame)))?;
        let was_full = u.used_bytes + size > kloc_mem::PAGE_SIZE;
        debug_assert!(u.live_objects > 0, "slot underflow on {frame}");
        u.live_objects -= 1;
        u.used_bytes = u.used_bytes.saturating_sub(size);
        let cache = &mut self.caches[ci];
        if u.live_objects == 0 {
            self.frames.remove(frame);
            if let Some(pos) = cache.partial.iter().position(|&f| f == frame) {
                cache.partial.swap_remove(pos);
            }
            self.frames_freed += 1;
            ctx.hooks.on_page_free(frame, ctx.mem);
            ctx.mem.free(frame)?;
        } else if was_full && !cache.partial.contains(&frame) {
            cache.partial.push(frame);
        }
        Ok(())
    }

    /// Iterates the live frames owned by this allocator, in frame-slot
    /// order.
    pub fn frames(&self) -> impl Iterator<Item = FrameId> + '_ {
        self.frames.iter().map(|(f, _)| f)
    }
}

#[cfg(feature = "ksan")]
impl PackedAllocator {
    /// Cross-checks the frame table: every frame's cache association
    /// names an existing cache, per-frame occupancy (the structured
    /// form of the `slot underflow` debug assertion), packing bounds,
    /// the partial lists, and liveness of every owned frame in `mem`.
    /// Observation only.
    pub fn ksan_audit(
        &self,
        mem: &kloc_mem::MemorySystem,
        out: &mut Vec<kloc_mem::ksan::Violation>,
    ) {
        use kloc_mem::ksan::Violation;
        for (frame, u) in self.frames.iter() {
            if u.cache as usize >= self.caches.len() {
                out.push(Violation::new(
                    "PackedAllocator.frames <-> PackedAllocator.caches",
                    format!("frame {frame}"),
                    "the frame's cache association names an existing cache",
                    format!("cache < {}", self.caches.len()),
                    format!("cache {}", u.cache),
                ));
            }
            if u.live_objects == 0 {
                out.push(Violation::new(
                    "PackedAllocator FrameUse.live_objects",
                    format!("frame {frame}"),
                    "a tracked frame holds at least one live object",
                    "> 0 live objects".to_owned(),
                    "0 live objects".to_owned(),
                ));
            }
            if u.used_bytes > kloc_mem::PAGE_SIZE {
                out.push(Violation::new(
                    "PackedAllocator FrameUse.used_bytes",
                    format!("frame {frame}"),
                    "packed objects fit in one page",
                    format!("<= {} bytes", kloc_mem::PAGE_SIZE),
                    format!("{} bytes", u.used_bytes),
                ));
            }
            if !mem.is_live(frame) {
                out.push(Violation::new(
                    "PackedAllocator.frames <-> FrameTable",
                    format!("frame {frame}"),
                    "every owned frame is live in the memory system",
                    "live".to_owned(),
                    "freed".to_owned(),
                ));
            }
        }
        // Partial lists may hold stale ids of frames that emptied (they
        // are popped lazily), but a *live* entry must belong to the
        // cache whose list names it.
        for (ci, cache) in self.caches.iter().enumerate() {
            for &frame in &cache.partial {
                let slot = frame.slot() as usize;
                let Some(u) = self.frames.slots.get(slot).filter(|u| u.id == frame.0) else {
                    continue;
                };
                if u.cache as usize != ci {
                    out.push(Violation::new(
                        "PackedAllocator Cache.partial <-> PackedAllocator.frames",
                        format!("frame {frame}"),
                        "partial-list frames belong to the cache listing them",
                        format!("cache {ci}"),
                        format!("cache {}", u.cache),
                    ));
                }
            }
        }
    }

    /// Corruption hook for sanitizer self-tests: points the first owned
    /// frame's cache association at a cache that does not exist.
    #[doc(hidden)]
    pub fn ksan_break_frame_key(&mut self) {
        if let Some(u) = self
            .frames
            .slots
            .iter_mut()
            .find(|u| u.id != FrameMap::VACANT)
        {
            u.cache = u32::MAX;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NullHooks;
    use kloc_mem::{MemorySystem, TierId};

    fn ctx_parts() -> (MemorySystem, NullHooks) {
        (
            MemorySystem::two_tier(64 * kloc_mem::PAGE_SIZE, 8),
            NullHooks::fast_first(),
        )
    }

    #[test]
    fn objects_pack_into_one_frame() {
        let (mut mem, mut hooks) = ctx_parts();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let mut slab = PackedAllocator::new(PageKind::Slab, None);
        // Dentries are 192 B -> 21 per frame.
        let allocated: Vec<_> = (0..21)
            .map(|_| {
                slab.alloc(&mut ctx, KernelObjectType::Dentry, None, false)
                    .unwrap()
            })
            .collect();
        assert!(
            allocated.iter().all(|&f| f == allocated[0]),
            "all in one frame"
        );
        let next = slab
            .alloc(&mut ctx, KernelObjectType::Dentry, None, false)
            .unwrap();
        assert_ne!(next, allocated[0], "22nd dentry needs a second frame");
        assert_eq!(slab.live_frames(), 2);
    }

    #[test]
    fn page_sized_objects_get_own_frame() {
        let (mut mem, mut hooks) = ctx_parts();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let mut slab = PackedAllocator::new(PageKind::PageCache, None);
        let a = slab
            .alloc(&mut ctx, KernelObjectType::PageCache, None, false)
            .unwrap();
        let b = slab
            .alloc(&mut ctx, KernelObjectType::PageCache, None, false)
            .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn frame_freed_when_empty() {
        let (mut mem, mut hooks) = ctx_parts();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let mut slab = PackedAllocator::new(PageKind::Slab, None);
        let f1 = slab
            .alloc(&mut ctx, KernelObjectType::Extent, None, false)
            .unwrap();
        let f2 = slab
            .alloc(&mut ctx, KernelObjectType::Extent, None, false)
            .unwrap();
        assert_eq!(f1, f2);
        slab.free(&mut ctx, KernelObjectType::Extent, None, f1)
            .unwrap();
        assert!(ctx.mem.is_live(f1), "frame still has one object");
        slab.free(&mut ctx, KernelObjectType::Extent, None, f1)
            .unwrap();
        assert!(!ctx.mem.is_live(f1), "empty frame returned to the system");
        assert_eq!(slab.live_frames(), 0);
    }

    #[test]
    fn freed_slots_are_reused() {
        let (mut mem, mut hooks) = ctx_parts();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let mut slab = PackedAllocator::new(PageKind::Slab, None);
        // Fill a frame of inodes (1080 B -> 3 per frame).
        let f = slab
            .alloc(&mut ctx, KernelObjectType::Inode, None, false)
            .unwrap();
        slab.alloc(&mut ctx, KernelObjectType::Inode, None, false)
            .unwrap();
        slab.alloc(&mut ctx, KernelObjectType::Inode, None, false)
            .unwrap();
        // Frame is full; free one slot and the next alloc reuses it.
        slab.free(&mut ctx, KernelObjectType::Inode, None, f)
            .unwrap();
        let again = slab
            .alloc(&mut ctx, KernelObjectType::Inode, None, false)
            .unwrap();
        assert_eq!(again, f);
    }

    #[test]
    fn per_inode_mode_segregates_inodes() {
        let (mut mem, mut hooks) = ctx_parts();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let mut kvma = PackedAllocator::new(PageKind::KernelVma, Some(1024));
        let a = kvma
            .alloc(&mut ctx, KernelObjectType::Dentry, Some(InodeId(1)), false)
            .unwrap();
        let b = kvma
            .alloc(&mut ctx, KernelObjectType::Dentry, Some(InodeId(2)), false)
            .unwrap();
        assert_ne!(a, b, "different inodes must not share a kvma frame");
        // Same inode co-locates.
        let a2 = kvma
            .alloc(&mut ctx, KernelObjectType::Dentry, Some(InodeId(1)), false)
            .unwrap();
        assert_eq!(a, a2);
    }

    #[test]
    fn shared_mode_ignores_inode() {
        let (mut mem, mut hooks) = ctx_parts();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let mut slab = PackedAllocator::new(PageKind::Slab, None);
        let a = slab
            .alloc(&mut ctx, KernelObjectType::Dentry, Some(InodeId(1)), false)
            .unwrap();
        let b = slab
            .alloc(&mut ctx, KernelObjectType::Dentry, Some(InodeId(2)), false)
            .unwrap();
        assert_eq!(a, b, "vanilla slab packs across inodes");
    }

    #[test]
    fn kvma_frames_are_relocatable_slab_frames_are_not() {
        let (mut mem, mut hooks) = ctx_parts();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let mut slab = PackedAllocator::new(PageKind::Slab, None);
        let mut kvma = PackedAllocator::new(PageKind::KernelVma, Some(1024));
        let fs = slab
            .alloc(&mut ctx, KernelObjectType::Dentry, None, false)
            .unwrap();
        let fk = kvma
            .alloc(&mut ctx, KernelObjectType::Dentry, None, false)
            .unwrap();
        assert!(ctx.mem.frame(fs).unwrap().pinned());
        assert!(!ctx.mem.frame(fk).unwrap().pinned());
        assert!(ctx.mem.migrate(fk, TierId::SLOW).is_ok());
        assert!(ctx.mem.migrate(fs, TierId::SLOW).is_err());
    }

    #[test]
    fn double_free_detected() {
        let (mut mem, mut hooks) = ctx_parts();
        let mut ctx = Ctx::new(&mut mem, &mut hooks);
        let mut slab = PackedAllocator::new(PageKind::Slab, None);
        let f = slab
            .alloc(&mut ctx, KernelObjectType::Bio, None, false)
            .unwrap();
        slab.free(&mut ctx, KernelObjectType::Bio, None, f).unwrap();
        // Frame is gone; a second free must error, not panic.
        assert!(slab.free(&mut ctx, KernelObjectType::Bio, None, f).is_err());
    }
}
