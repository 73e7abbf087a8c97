//! Virtual filesystem layer: inodes, paths, dentries, file descriptors.
//!
//! In Unix "everything is a file": both regular files and sockets get an
//! inode, which is exactly why the paper anchors KLOCs to inodes — one
//! KLOC per inode groups all related kernel objects (§1, Fig. 1).
//!
//! This module holds the naming and lifetime bookkeeping; object
//! allocation and cost charging happen in the [`crate::Kernel`] facade.

use std::collections::HashMap;
use std::fmt;

use kloc_mem::{Nanos, TenantId};

use crate::extent::ExtentTree;
use crate::net::RxQueue;
use crate::obj::ObjectId;
use crate::pagecache::PageCache;

/// Identifier of an inode (file or socket). Never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct InodeId(pub u64);

impl fmt::Display for InodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inode{}", self.0)
    }
}

/// A file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fd(pub u64);

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fd{}", self.0)
    }
}

/// What an inode names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InodeKind {
    /// A regular file on the filesystem.
    RegularFile,
    /// A directory.
    Directory,
    /// A network socket.
    Socket,
}

/// One inode and all per-inode kernel state.
#[derive(Debug)]
pub struct Inode {
    /// Inode id.
    pub id: InodeId,
    /// File or socket.
    pub kind: InodeKind,
    /// Tenant that created the inode — the attribution anchor for the
    /// knode's page-cache residency and cross-tenant eviction accounting
    /// ([`TenantId::DEFAULT`] in single-tenant runs).
    pub owner: TenantId,
    /// File size in bytes (0 for sockets).
    pub size: u64,
    /// Link count; 0 means unlinked (destroyed when last handle closes).
    pub nlink: u32,
    /// Open file handles.
    pub open_count: u32,
    /// The inode slab object.
    pub inode_obj: ObjectId,
    /// The dentry slab object (files only; evictable).
    pub dentry_obj: Option<ObjectId>,
    /// The sock object (sockets only).
    pub sock_obj: Option<ObjectId>,
    /// Page cache of this inode.
    pub cache: PageCache,
    /// Extent map (files only).
    pub extents: ExtentTree,
    /// Receive queue (sockets only).
    pub rx: RxQueue,
    /// Creation time.
    pub created_at: Nanos,
    /// Last syscall activity on this inode.
    pub last_activity: Nanos,
}

impl Inode {
    /// Whether any process holds the inode open.
    pub fn is_open(&self) -> bool {
        self.open_count > 0
    }
}

/// An open file description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenFile {
    /// Inode this handle points at.
    pub inode: InodeId,
    /// The `struct file` slab object.
    pub file_obj: ObjectId,
}

/// The VFS tables: path namespace, inode table, fd table.
///
/// Inode and fd ids are sequential and never reused, so both tables are
/// id-indexed vectors (destroyed entries leave `None` holes) rather than
/// hash maps: fd resolution and inode lookup happen on every simulated
/// syscall, and an array index beats hashing there.
#[derive(Debug, Default)]
pub struct Vfs {
    inodes: Vec<Option<Inode>>,
    live_inodes: usize,
    paths: HashMap<String, InodeId>,
    fds: Vec<Option<OpenFile>>,
    live_fds: usize,
    next_inode: u64,
}

impl Vfs {
    /// Creates empty tables.
    pub fn new() -> Self {
        Vfs::default()
    }

    /// Number of live inodes (open, cached, or unlinked-but-open).
    pub fn inode_count(&self) -> usize {
        self.live_inodes
    }

    /// Number of open file descriptors.
    pub fn open_fds(&self) -> usize {
        self.live_fds
    }

    /// Allocates the next inode id.
    pub fn next_inode_id(&mut self) -> InodeId {
        let id = InodeId(self.next_inode);
        self.next_inode += 1;
        id
    }

    /// Registers a new inode.
    ///
    /// # Panics
    /// Panics if the id is already present.
    pub fn insert_inode(&mut self, inode: Inode) {
        let id = inode.id;
        let i = id.0 as usize;
        if i >= self.inodes.len() {
            self.inodes.resize_with(i + 1, || None);
        }
        assert!(self.inodes[i].is_none(), "{id} already registered");
        self.inodes[i] = Some(inode);
        self.live_inodes += 1;
    }

    /// Removes an inode record.
    pub fn remove_inode(&mut self, id: InodeId) -> Option<Inode> {
        let inode = self.inodes.get_mut(id.0 as usize)?.take();
        if inode.is_some() {
            self.live_inodes -= 1;
        }
        inode
    }

    /// Looks up an inode.
    pub fn inode(&self, id: InodeId) -> Option<&Inode> {
        self.inodes.get(id.0 as usize)?.as_ref()
    }

    /// Looks up an inode mutably.
    pub fn inode_mut(&mut self, id: InodeId) -> Option<&mut Inode> {
        self.inodes.get_mut(id.0 as usize)?.as_mut()
    }

    /// Iterates all live inodes in id order.
    pub fn inodes(&self) -> impl Iterator<Item = &Inode> {
        self.inodes.iter().flatten()
    }

    /// Resolves a path.
    pub fn lookup_path(&self, path: &str) -> Option<InodeId> {
        self.paths.get(path).copied()
    }

    /// Binds a path to an inode.
    ///
    /// # Panics
    /// Panics if the path is already bound.
    pub fn bind_path(&mut self, path: &str, inode: InodeId) {
        let prev = self.paths.insert(path.to_owned(), inode);
        assert!(prev.is_none(), "path {path} already bound");
    }

    /// Unbinds a path, returning the inode it named.
    pub fn unbind_path(&mut self, path: &str) -> Option<InodeId> {
        self.paths.remove(path)
    }

    /// Opens a new descriptor on `inode` backed by `file_obj`.
    pub fn open_fd(&mut self, inode: InodeId, file_obj: ObjectId) -> Fd {
        let fd = Fd(self.fds.len() as u64);
        self.fds.push(Some(OpenFile { inode, file_obj }));
        self.live_fds += 1;
        fd
    }

    /// Resolves a descriptor.
    pub fn fd(&self, fd: Fd) -> Option<&OpenFile> {
        self.fds.get(fd.0 as usize)?.as_ref()
    }

    /// Closes a descriptor, returning its description.
    pub fn close_fd(&mut self, fd: Fd) -> Option<OpenFile> {
        let of = self.fds.get_mut(fd.0 as usize)?.take();
        if of.is_some() {
            self.live_fds -= 1;
        }
        of
    }
}

#[cfg(feature = "ksan")]
impl Vfs {
    /// Cross-checks the VFS tables: the live counters against the inode
    /// and fd tables, every bound path against a live inode, and every
    /// open descriptor against a live inode. Observation only.
    pub fn ksan_audit(&self, out: &mut Vec<kloc_mem::ksan::Violation>) {
        use kloc_mem::ksan::Violation;
        let live = self.inodes.iter().filter(|i| i.is_some()).count();
        if live != self.live_inodes {
            out.push(Violation::new(
                "Vfs.live_inodes <-> Vfs.inodes",
                "inode table",
                "the live counter equals the occupied inode slots",
                format!("{live} occupied"),
                format!("live_inodes = {}", self.live_inodes),
            ));
        }
        let open = self.fds.iter().filter(|f| f.is_some()).count();
        if open != self.live_fds {
            out.push(Violation::new(
                "Vfs.live_fds <-> Vfs.fds",
                "fd table",
                "the fd counter equals the occupied fd slots",
                format!("{open} occupied"),
                format!("live_fds = {}", self.live_fds),
            ));
        }
        // Sorted for deterministic reports; the path map itself is only
        // iterated here, inside the audit.
        let mut dangling: Vec<&str> = self
            .paths
            .iter() // lint: ordered-ok — violations are sorted below.
            .filter(|(_, &ino)| self.inode(ino).is_none())
            .map(|(p, _)| p.as_str())
            .collect();
        dangling.sort_unstable();
        for path in dangling {
            out.push(Violation::new(
                "Vfs.paths <-> Vfs.inodes",
                format!("path {path:?}"),
                "every bound path names a live inode",
                "live inode".to_owned(),
                "dangling".to_owned(),
            ));
        }
        for of in self.fds.iter().flatten() {
            if self.inode(of.inode).is_none() {
                out.push(Violation::new(
                    "Vfs.fds <-> Vfs.inodes",
                    format!("{}", of.inode),
                    "every open descriptor names a live inode",
                    "live inode".to_owned(),
                    "destroyed".to_owned(),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obj::ObjectId;

    fn mk_inode(id: InodeId, kind: InodeKind) -> Inode {
        Inode {
            id,
            kind,
            owner: TenantId::DEFAULT,
            size: 0,
            nlink: 1,
            open_count: 0,
            inode_obj: ObjectId(0),
            dentry_obj: None,
            sock_obj: None,
            cache: PageCache::new(64),
            extents: ExtentTree::new(1 << 20),
            rx: RxQueue::new(),
            created_at: Nanos::ZERO,
            last_activity: Nanos::ZERO,
        }
    }

    #[test]
    fn inode_registration_round_trip() {
        let mut vfs = Vfs::new();
        let id = vfs.next_inode_id();
        let id2 = vfs.next_inode_id();
        assert_ne!(id, id2);
        vfs.insert_inode(mk_inode(id, InodeKind::RegularFile));
        assert_eq!(vfs.inode_count(), 1);
        assert!(vfs.inode(id).is_some());
        let inode = vfs.remove_inode(id).unwrap();
        assert_eq!(inode.id, id);
        assert!(vfs.inode(id).is_none());
    }

    #[test]
    fn path_binding() {
        let mut vfs = Vfs::new();
        let id = vfs.next_inode_id();
        vfs.bind_path("/a/b", id);
        assert_eq!(vfs.lookup_path("/a/b"), Some(id));
        assert_eq!(vfs.lookup_path("/a/c"), None);
        assert_eq!(vfs.unbind_path("/a/b"), Some(id));
        assert_eq!(vfs.lookup_path("/a/b"), None);
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn double_bind_panics() {
        let mut vfs = Vfs::new();
        let id = vfs.next_inode_id();
        vfs.bind_path("/x", id);
        vfs.bind_path("/x", id);
    }

    #[test]
    fn fd_lifecycle() {
        let mut vfs = Vfs::new();
        let ino = vfs.next_inode_id();
        let fd = vfs.open_fd(ino, ObjectId(5));
        assert_eq!(vfs.open_fds(), 1);
        let of = vfs.fd(fd).copied().unwrap();
        assert_eq!(of.inode, ino);
        assert_eq!(of.file_obj, ObjectId(5));
        assert!(vfs.close_fd(fd).is_some());
        assert!(vfs.close_fd(fd).is_none());
        assert_eq!(vfs.open_fds(), 0);
    }

    #[test]
    fn is_open_tracks_count() {
        let mut i = mk_inode(InodeId(1), InodeKind::Socket);
        assert!(!i.is_open());
        i.open_count = 2;
        assert!(i.is_open());
    }
}
