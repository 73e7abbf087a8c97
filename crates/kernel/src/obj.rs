//! Kernel object model.
//!
//! Paper Table 1 lists the kernel objects that form the basis of KLOCs:
//! inodes, block I/O structures, journal buffers, page-cache pages,
//! dentries, extents, blk-mq requests, socks, skbuffs, skbuff data
//! buffers, and driver RX buffers. [`KernelObjectType`] enumerates them
//! (plus the radix-tree nodes and file handles that the paper's text
//! discusses), with canonical Linux sizes and the allocation backing each
//! uses — the backing determines relocatability (§3.3).

use std::fmt;

use kloc_mem::{FrameId, Nanos, PageKind};

use crate::vfs::InodeId;

/// Identifier of a kernel object: `generation << 32 | slot`, in the
/// [`FrameId`] style. The [`ObjectTable`] recycles the slots of freed
/// objects and bumps the slot's generation on each reuse, so an id is
/// unique for the life of a [`crate::Kernel`] while its slot half is
/// not: a stale id names a slot that now holds another object (or
/// none), and the table's lookups miss on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// The object-table slot (low id bits). Slots are dense — the table
    /// recycles freed ones before growing — so they suit direct-mapped
    /// side tables; compare the full id to tell a slot's occupants
    /// apart.
    #[inline]
    pub fn slot(self) -> u32 {
        // The low 32 bits *are* the slot.
        self.0 as u32
    }

    /// The generation half of the id.
    #[inline]
    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The id for `slot` at `generation`.
    #[inline]
    fn pack(generation: u32, slot: u32) -> Self {
        ObjectId(u64::from(generation) << 32 | u64::from(slot))
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kobj{}", self.0)
    }
}

/// How a kernel object's memory is obtained (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backing {
    /// Small object from a slab cache: fast, physically addressed,
    /// **not relocatable**.
    Slab,
    /// Whole page(s) from the page allocator: relocatable.
    Page(PageKind),
}

/// The kernel object types tiered by KLOCs (paper Table 1 + §4.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum KernelObjectType {
    /// Per-file/per-socket inode (`inode_struct`).
    Inode,
    /// Name-resolution entry for a file (`dentry`).
    Dentry,
    /// Page-cache radix-tree node.
    RadixNode,
    /// Extent-status structure grouping contiguous disk blocks.
    Extent,
    /// Journal head (jbd2 bookkeeping for a journaled buffer).
    JournalHead,
    /// Journal descriptor/data block written to the journal area.
    JournalBlock,
    /// Block I/O structure (`bio`).
    Bio,
    /// Block-layer multi-queue request (`blk_mq`).
    BlkMqRequest,
    /// Per-open file handle (`struct file`).
    FileHandle,
    /// Socket object holding packet-buffer queues (`sock`).
    Sock,
    /// Packet buffer header (`skbuff`).
    SkBuff,
    /// Packet data buffer (`skbuff->data`).
    SkBuffData,
    /// Network receive driver ring buffer.
    RxBuf,
    /// Buffer-cache page for file data.
    PageCache,
    /// Directory block buffer (readdir; §3.3 lists "dir buffers" among
    /// the short-lived slab-class kernel objects).
    DirBuffer,
}

impl KernelObjectType {
    /// All object types, for iteration in reports (paper Fig. 2a / 5c).
    pub const ALL: [KernelObjectType; 15] = [
        KernelObjectType::Inode,
        KernelObjectType::Dentry,
        KernelObjectType::RadixNode,
        KernelObjectType::Extent,
        KernelObjectType::JournalHead,
        KernelObjectType::JournalBlock,
        KernelObjectType::Bio,
        KernelObjectType::BlkMqRequest,
        KernelObjectType::FileHandle,
        KernelObjectType::Sock,
        KernelObjectType::SkBuff,
        KernelObjectType::SkBuffData,
        KernelObjectType::RxBuf,
        KernelObjectType::PageCache,
        KernelObjectType::DirBuffer,
    ];

    /// Canonical object size in bytes (Linux slab-cache sizes for the
    /// slab-backed types; one page for page-backed types).
    pub fn size(self) -> u64 {
        match self {
            KernelObjectType::Inode => 1080,
            KernelObjectType::Dentry => 192,
            KernelObjectType::RadixNode => 576,
            KernelObjectType::Extent => 40,
            KernelObjectType::JournalHead => 120,
            KernelObjectType::JournalBlock => 4096,
            KernelObjectType::Bio => 200,
            KernelObjectType::BlkMqRequest => 384,
            KernelObjectType::FileHandle => 256,
            KernelObjectType::Sock => 760,
            KernelObjectType::SkBuff => 232,
            KernelObjectType::SkBuffData => 4096,
            KernelObjectType::RxBuf => 4096,
            KernelObjectType::PageCache => 4096,
            KernelObjectType::DirBuffer => 680,
        }
    }

    /// How objects of this type are allocated.
    pub fn backing(self) -> Backing {
        match self {
            KernelObjectType::PageCache => Backing::Page(PageKind::PageCache),
            // Journal blocks live their few microseconds on vmalloc'd
            // pages: keeping them out of PageKind::PageCache keeps the
            // buffer-cache lifetime statistics clean (Fig. 2d).
            KernelObjectType::JournalBlock | KernelObjectType::SkBuffData => {
                Backing::Page(PageKind::Vmalloc)
            }
            KernelObjectType::RxBuf => Backing::Page(PageKind::RxRing),
            _ => Backing::Slab,
        }
    }

    /// Whether this is a filesystem-side object (vs networking).
    /// Inodes serve both (every socket has one); they count as FS here,
    /// matching paper Table 1's "FS/Network" row collapsing into FS
    /// accounting.
    pub fn is_network(self) -> bool {
        matches!(
            self,
            KernelObjectType::Sock
                | KernelObjectType::SkBuff
                | KernelObjectType::SkBuffData
                | KernelObjectType::RxBuf
        )
    }

    /// Coarse category used by the paper's Fig. 2a breakdown.
    pub fn category(self) -> ObjectCategory {
        match self {
            KernelObjectType::PageCache => ObjectCategory::PageCache,
            KernelObjectType::JournalHead | KernelObjectType::JournalBlock => {
                ObjectCategory::Journal
            }
            t if t.is_network() => ObjectCategory::Network,
            _ => ObjectCategory::FsSlab,
        }
    }
}

impl kloc_mem::DenseKey for KernelObjectType {
    const ALL: &'static [Self] = &KernelObjectType::ALL;

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for KernelObjectType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            KernelObjectType::Inode => "inode",
            KernelObjectType::Dentry => "dentry",
            KernelObjectType::RadixNode => "radix-node",
            KernelObjectType::Extent => "extent",
            KernelObjectType::JournalHead => "journal-head",
            KernelObjectType::JournalBlock => "journal-block",
            KernelObjectType::Bio => "bio",
            KernelObjectType::BlkMqRequest => "blk-mq",
            KernelObjectType::FileHandle => "file",
            KernelObjectType::Sock => "sock",
            KernelObjectType::SkBuff => "skbuff",
            KernelObjectType::SkBuffData => "skbuff-data",
            KernelObjectType::RxBuf => "rx-buf",
            KernelObjectType::PageCache => "page-cache",
            KernelObjectType::DirBuffer => "dir-buffer",
        };
        f.write_str(s)
    }
}

/// Coarse categories for the footprint breakdown (paper Fig. 2a bars:
/// application, page cache, journal, other FS slab, network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObjectCategory {
    /// Buffer-cache pages.
    PageCache,
    /// Journal heads and blocks.
    Journal,
    /// Other filesystem slab objects (inode, dentry, radix, extent, bio…).
    FsSlab,
    /// Networking objects (sock, skbuff, data, RX rings).
    Network,
}

impl ObjectCategory {
    /// All categories in display order.
    pub const ALL: [ObjectCategory; 4] = [
        ObjectCategory::PageCache,
        ObjectCategory::Journal,
        ObjectCategory::FsSlab,
        ObjectCategory::Network,
    ];
}

impl fmt::Display for ObjectCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ObjectCategory::PageCache => "page-cache",
            ObjectCategory::Journal => "journal",
            ObjectCategory::FsSlab => "fs-slab",
            ObjectCategory::Network => "network",
        };
        f.write_str(s)
    }
}

/// Immutable description of a live kernel object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectInfo {
    /// Object type.
    pub ty: KernelObjectType,
    /// Size in bytes.
    pub size: u64,
    /// The file/socket inode this object belongs to, when known. This is
    /// exactly the association KLOCs group by (paper §4.2.3).
    pub inode: Option<InodeId>,
}

/// A live kernel object: its description plus where it lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KObject {
    /// Object id.
    pub id: ObjectId,
    /// Description.
    pub info: ObjectInfo,
    /// Backing frame (slab objects share frames; page objects own one).
    pub frame: FrameId,
    /// Allocation timestamp.
    pub allocated_at: Nanos,
}

/// Table of live kernel objects: a slab of 32-byte slots whose size
/// follows the peak number of live objects, as the kernel's slab caches
/// do for the objects themselves.
///
/// Lookup on the object-access hot path is one bounds-checked array
/// read and one compare of the id's generation against the slot's tag,
/// no hashing. A freed slot goes on a LIFO free list threaded through
/// the dead slots themselves (no side vector), and the next insertion
/// reuses it under the next generation, so stale ids miss. Each slot is
/// kept to 32 bytes: the slot half of the id is the index and the size
/// follows from the type, so neither is stored.
#[derive(Debug, Default, Clone)]
pub struct ObjectTable {
    slots: Vec<Slot>,
    /// Head of the free list, the most recently freed slot.
    free: Option<u32>,
    live: usize,
}

/// Raw inode id of a slot whose object has no inode.
const NO_INODE: u64 = u64::MAX;

/// Free-list link that ends the list.
const NIL: u64 = u64::MAX;

/// Tag bit of a free slot. Live generations stay below it, so a free
/// slot's tag never equals the generation of an id the table handed
/// out.
const FREE: u32 = 1 << 31;

/// One [`ObjectTable`] entry. A free slot keeps its last generation in
/// `tag` (with [`FREE`] set) and the free-list link in `inode`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    frame: FrameId,
    allocated_at: Nanos,
    /// Live: the raw inode id, or [`NO_INODE`]. Free: the next free
    /// slot, or [`NIL`].
    inode: u64,
    /// Live: the generation half of the object's id. Free: the last
    /// live generation with [`FREE`] set.
    tag: u32,
    ty: KernelObjectType,
}

impl Slot {
    fn object(&self, id: ObjectId) -> KObject {
        KObject {
            id,
            info: ObjectInfo {
                ty: self.ty,
                size: self.ty.size(),
                inode: (self.inode != NO_INODE).then_some(InodeId(self.inode)),
            },
            frame: self.frame,
            allocated_at: self.allocated_at,
        }
    }

    fn is_free(&self) -> bool {
        self.tag & FREE != 0
    }
}

impl ObjectTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ObjectTable::default()
    }

    /// Registers a new object and returns its id: the most recently
    /// freed slot under its next generation, or a new slot when none is
    /// free. `info.size` must be `info.ty.size()`: the table derives it
    /// from the type.
    pub fn insert(&mut self, info: ObjectInfo, frame: FrameId, now: Nanos) -> ObjectId {
        debug_assert_eq!(info.size, info.ty.size(), "object size follows its type");
        let mut slot = Slot {
            frame,
            allocated_at: now,
            inode: info.inode.map_or(NO_INODE, |i| i.0),
            tag: 0,
            ty: info.ty,
        };
        self.live += 1;
        let Some(index) = self.free else {
            // A table of 2^32 slots (128 GiB) is far beyond any
            // simulation.
            let index = self.slots.len() as u32;
            self.slots.push(slot);
            return ObjectId::pack(0, index);
        };
        let dead = &mut self.slots[index as usize];
        debug_assert!(dead.is_free(), "free list names a live slot");
        self.free = u32::try_from(dead.inode).ok();
        // Clearing FREE after the increment wraps the generation within
        // 31 bits; after 2^31 reuses of one slot an id would repeat,
        // which no simulation length approaches.
        slot.tag = dead.tag.wrapping_add(1) & !FREE;
        *dead = slot;
        ObjectId::pack(slot.tag, index)
    }

    /// The slot `id` names, if it still holds that object.
    #[inline]
    fn live_slot(&self, id: ObjectId) -> Option<&Slot> {
        self.slots
            .get(id.slot() as usize)
            .filter(|s| s.tag == id.generation())
    }

    /// [`ObjectTable::live_slot`], mutably.
    #[inline]
    fn live_slot_mut(&mut self, id: ObjectId) -> Option<&mut Slot> {
        self.slots
            .get_mut(id.slot() as usize)
            .filter(|s| s.tag == id.generation())
    }

    /// Removes an object, returning its record and pushing its slot on
    /// the free list. Misses on a stale id.
    pub fn remove(&mut self, id: ObjectId) -> Option<KObject> {
        let next = self.free.map_or(NIL, u64::from);
        let slot = self.live_slot_mut(id)?;
        let obj = slot.object(id);
        slot.tag |= FREE;
        slot.inode = next;
        self.free = Some(id.slot());
        self.live -= 1;
        Some(obj)
    }

    /// Re-associates an object with an inode (late socket demux on the
    /// ingress path, paper §4.2.3). Returns the updated record; misses
    /// on a stale id.
    pub fn set_inode(&mut self, id: ObjectId, inode: InodeId) -> Option<KObject> {
        let slot = self.live_slot_mut(id)?;
        slot.inode = inode.0;
        Some(slot.object(id))
    }

    /// Looks up an object; misses on a stale id.
    #[inline]
    pub fn get(&self, id: ObjectId) -> Option<KObject> {
        self.live_slot(id).map(|s| s.object(id))
    }

    /// The id of the object living in `slot`, if any.
    pub fn id_in_slot(&self, slot: u32) -> Option<ObjectId> {
        let s = self.slots.get(slot as usize)?;
        (!s.is_free()).then(|| ObjectId::pack(s.tag, slot))
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots held, live plus free: the high-water mark of concurrently
    /// live objects.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Iterates over all live objects in slot order.
    pub fn iter(&self) -> impl Iterator<Item = KObject> + '_ {
        (0u32..)
            .zip(&self.slots)
            .filter(|(_, s)| !s.is_free())
            .map(|(i, s)| s.object(ObjectId::pack(s.tag, i)))
    }
}

impl ObjectTable {
    /// Cross-checks the table's internal invariants: the live counter
    /// against the occupied slots, and the free list against the empty
    /// slots (each entry names an empty slot, none twice, and free +
    /// live partition the slots). Observation only.
    pub fn ksan_audit(&self, out: &mut Vec<kloc_mem::ksan::Violation>) {
        use kloc_mem::ksan::Violation;
        let slots = self.slots.len();
        let occupied = self.slots.iter().filter(|s| !s.is_free()).count();
        if occupied != self.live {
            out.push(Violation::new(
                "ObjectTable.live <-> ObjectTable.slots",
                "object table",
                "the live counter equals the occupied slots",
                format!("{occupied} occupied"),
                format!("len = {}", self.live),
            ));
        }
        let mut seen = vec![false; slots];
        let mut listed = 0usize;
        let mut next = self.free;
        while let Some(index) = next {
            let Some(slot) = self.slots.get(index as usize) else {
                out.push(Violation::new(
                    "ObjectTable.free <-> ObjectTable.slots",
                    format!("slot {index}"),
                    "free-list entries name real slots",
                    format!("slot < {slots}"),
                    format!("slot {index}"),
                ));
                break;
            };
            if std::mem::replace(&mut seen[index as usize], true) {
                out.push(Violation::new(
                    "ObjectTable.free distinctness",
                    format!("slot {index}"),
                    "a free slot appears on the free list once",
                    "one entry".to_owned(),
                    "listed again".to_owned(),
                ));
                break;
            }
            listed += 1;
            if !slot.is_free() {
                out.push(Violation::new(
                    "ObjectTable.free <-> ObjectTable.slots",
                    format!("slot {index}"),
                    "free-list entries name empty slots",
                    "free tag".to_owned(),
                    format!("live {}", slot.ty),
                ));
                break;
            }
            next = u32::try_from(slot.inode).ok();
        }
        if listed + self.live != slots {
            out.push(Violation::new(
                "ObjectTable.free <-> ObjectTable.slots",
                "object table",
                "free + live partition the slots",
                format!("{slots} slots"),
                format!("{listed} free + {} live", self.live),
            ));
        }
    }

    /// Corruption hook for sanitizer self-tests: kills `id`'s slot
    /// without putting it on the free list or updating the live
    /// counter.
    #[doc(hidden)]
    pub fn ksan_clear_slot(&mut self, id: ObjectId) {
        if let Some(slot) = self.slots.get_mut(id.slot() as usize) {
            slot.tag |= FREE;
        }
    }

    /// Corruption hook for sanitizer self-tests: pushes the top
    /// free-list entry a second time, so its slot could be handed out
    /// twice. Returns whether there was one to push.
    #[doc(hidden)]
    pub fn ksan_push_free_twice(&mut self) -> bool {
        let Some(index) = self.free else { return false };
        self.slots[index as usize].inode = u64::from(index);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_index_covers_every_type_in_ord_order() {
        kloc_mem::dense::assert_dense_key::<KernelObjectType>();
        // No wildcard arm: a new variant stops this compiling until it
        // is added here and to `KernelObjectType::ALL`, in declaration
        // order.
        for ty in KernelObjectType::ALL {
            match ty {
                KernelObjectType::Inode
                | KernelObjectType::Dentry
                | KernelObjectType::RadixNode
                | KernelObjectType::Extent
                | KernelObjectType::JournalHead
                | KernelObjectType::JournalBlock
                | KernelObjectType::Bio
                | KernelObjectType::BlkMqRequest
                | KernelObjectType::FileHandle
                | KernelObjectType::Sock
                | KernelObjectType::SkBuff
                | KernelObjectType::SkBuffData
                | KernelObjectType::RxBuf
                | KernelObjectType::PageCache
                | KernelObjectType::DirBuffer => {}
            }
        }
        assert_eq!(
            KernelObjectType::ALL.len(),
            KernelObjectType::DirBuffer as usize + 1
        );
    }

    #[test]
    fn sizes_are_positive_and_page_types_are_page_sized() {
        for ty in KernelObjectType::ALL {
            assert!(ty.size() > 0);
            if let Backing::Page(_) = ty.backing() {
                assert_eq!(ty.size(), 4096, "{ty} should be page-sized");
            } else {
                assert!(ty.size() < 4096, "{ty} slab object should fit in a page");
            }
        }
    }

    #[test]
    fn network_types_classified() {
        assert!(KernelObjectType::SkBuff.is_network());
        assert!(!KernelObjectType::Dentry.is_network());
        assert_eq!(KernelObjectType::Sock.category(), ObjectCategory::Network);
        assert_eq!(
            KernelObjectType::JournalBlock.category(),
            ObjectCategory::Journal
        );
        assert_eq!(
            KernelObjectType::PageCache.category(),
            ObjectCategory::PageCache
        );
        assert_eq!(KernelObjectType::Inode.category(), ObjectCategory::FsSlab);
    }

    #[test]
    fn rx_rings_are_pinned_pages() {
        // RX rings are DMA targets: page-backed but non-relocatable.
        match KernelObjectType::RxBuf.backing() {
            Backing::Page(kind) => assert!(!kind.relocatable()),
            Backing::Slab => panic!("rx-buf should be page-backed"),
        }
    }

    #[test]
    fn object_table_slot_fits_half_a_cache_line() {
        assert!(std::mem::size_of::<Slot>() <= 32);
    }

    #[test]
    fn object_table_round_trip() {
        let mut t = ObjectTable::new();
        let dentry = ObjectInfo {
            ty: KernelObjectType::Dentry,
            size: KernelObjectType::Dentry.size(),
            inode: Some(InodeId(7)),
        };
        let bio = ObjectInfo {
            ty: KernelObjectType::Bio,
            size: KernelObjectType::Bio.size(),
            inode: None,
        };
        let a = t.insert(dentry, FrameId(3), Nanos::new(5));
        let b = t.insert(bio, FrameId(4), Nanos::new(6));
        assert_eq!(t.len(), 2);
        let obj = t.get(a).unwrap();
        assert_eq!(obj.id, a);
        assert_eq!(obj.info, dentry);
        assert_eq!(obj.frame, FrameId(3));
        assert_eq!(obj.allocated_at, Nanos::new(5));
        assert_eq!(t.get(b).unwrap().info, bio);

        // Late association keeps everything but the inode.
        let moved = t.set_inode(b, InodeId(9)).unwrap();
        assert_eq!(moved.info.inode, Some(InodeId(9)));
        assert_eq!(moved.info.ty, KernelObjectType::Bio);
        assert_eq!(moved.frame, FrameId(4));
        assert_eq!(t.get(b), Some(moved));

        let ids: Vec<ObjectId> = t.iter().map(|o| o.id).collect();
        assert_eq!(ids, vec![a, b]);
        let removed = t.remove(a).unwrap();
        assert_eq!(removed.id, a);
        assert_eq!(removed.info, dentry);
        assert_eq!(t.len(), 1);
        assert!(t.get(a).is_none());
        assert!(t.remove(a).is_none());
        assert!(t.set_inode(a, InodeId(1)).is_none(), "dead slots stay dead");
        assert_eq!(t.iter().map(|o| o.id).collect::<Vec<_>>(), vec![b]);
        t.remove(b).unwrap();
        assert!(t.is_empty());
        assert!(t.get(ObjectId(99)).is_none());
    }

    #[test]
    fn object_ids_are_unique() {
        let mut t = ObjectTable::new();
        let info = ObjectInfo {
            ty: KernelObjectType::Bio,
            size: 200,
            inode: None,
        };
        let a = t.insert(info, FrameId(0), Nanos::ZERO);
        t.remove(a);
        let b = t.insert(info, FrameId(0), Nanos::ZERO);
        assert_ne!(a, b, "ids must never be reused");
        assert_eq!(a.slot(), b.slot(), "the freed slot is recycled");
        assert_eq!(t.slot_count(), 1);
        assert!(t.get(a).is_none(), "a stale id misses");
        assert!(t.set_inode(a, InodeId(1)).is_none());
        assert!(t.remove(a).is_none());
        assert_eq!(t.get(b).map(|o| o.id), Some(b));
        assert_eq!(t.id_in_slot(b.slot()), Some(b));
    }

    #[test]
    fn free_list_is_lifo_and_generations_wrap_below_the_free_bit() {
        let mut t = ObjectTable::new();
        let info = ObjectInfo {
            ty: KernelObjectType::Extent,
            size: KernelObjectType::Extent.size(),
            inode: None,
        };
        let ids: Vec<ObjectId> = (0..3)
            .map(|_| t.insert(info, FrameId(0), Nanos::ZERO))
            .collect();
        t.remove(ids[0]);
        t.remove(ids[2]);
        assert_eq!(t.id_in_slot(ids[2].slot()), None);
        // The most recently freed slot comes back first.
        let c = t.insert(info, FrameId(0), Nanos::ZERO);
        let d = t.insert(info, FrameId(0), Nanos::ZERO);
        assert_eq!((c.slot(), d.slot()), (2, 0));
        assert_eq!(t.slot_count(), 3);
        assert_eq!(t.len(), 3);
        // A slot at the last generation wraps to 0, never onto the tag.
        t.slots[1].tag = FREE - 1;
        let old = ObjectId::pack(FREE - 1, 1);
        t.remove(old).unwrap();
        let e = t.insert(info, FrameId(0), Nanos::ZERO);
        assert_eq!(e, ObjectId::pack(0, 1));
        assert!(t.get(old).is_none());
    }
}
