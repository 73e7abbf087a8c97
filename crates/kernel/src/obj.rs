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

/// Identifier of a live kernel object. Never reused within a [`crate::Kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ObjectId(pub u64);

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

/// Table of live kernel objects.
///
/// Ids are assigned sequentially and never reused, so the table is a
/// plain id-indexed vector: lookup on the object-access hot path is one
/// bounds-checked array read, no hashing. Dead slots stay `None`; the
/// simulator's live population is bounded, so slot memory is dominated
/// by the live high-water mark plus already-freed prefix.
#[derive(Debug, Default, Clone)]
pub struct ObjectTable {
    slots: Vec<Option<KObject>>,
    live: usize,
}

impl ObjectTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ObjectTable::default()
    }

    /// Registers a new object and returns its id.
    pub fn insert(&mut self, info: ObjectInfo, frame: FrameId, now: Nanos) -> ObjectId {
        let id = ObjectId(self.slots.len() as u64);
        self.slots.push(Some(KObject {
            id,
            info,
            frame,
            allocated_at: now,
        }));
        self.live += 1;
        id
    }

    /// Removes an object, returning its record.
    pub fn remove(&mut self, id: ObjectId) -> Option<KObject> {
        let obj = self.slots.get_mut(id.0 as usize)?.take();
        if obj.is_some() {
            self.live -= 1;
        }
        obj
    }

    /// Re-associates an object with an inode (late socket demux on the
    /// ingress path, paper §4.2.3). Returns the updated record.
    pub fn set_inode(&mut self, id: ObjectId, inode: InodeId) -> Option<&KObject> {
        let obj = self.slots.get_mut(id.0 as usize)?.as_mut()?;
        obj.info.inode = Some(inode);
        Some(obj)
    }

    /// Looks up an object.
    pub fn get(&self, id: ObjectId) -> Option<&KObject> {
        self.slots.get(id.0 as usize)?.as_ref()
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates over all live objects in id order.
    pub fn iter(&self) -> impl Iterator<Item = &KObject> {
        self.slots.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn object_table_round_trip() {
        let mut t = ObjectTable::new();
        let info = ObjectInfo {
            ty: KernelObjectType::Dentry,
            size: KernelObjectType::Dentry.size(),
            inode: Some(InodeId(7)),
        };
        let id = t.insert(info, FrameId(3), Nanos::ZERO);
        assert_eq!(t.len(), 1);
        let obj = t.get(id).unwrap();
        assert_eq!(obj.frame, FrameId(3));
        assert_eq!(obj.info.inode, Some(InodeId(7)));
        let removed = t.remove(id).unwrap();
        assert_eq!(removed.id, id);
        assert!(t.is_empty());
        assert!(t.remove(id).is_none());
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
    }
}
