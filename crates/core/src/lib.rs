//! # kloc-core — the KLOC abstraction
//!
//! This crate is the paper's primary contribution: **kernel-level object
//! contexts**. A KLOC is the logical grouping of all kernel objects
//! associated with one OS entity (a file or socket inode). Grouping makes
//! cold-object identification O(1): when the OS learns an inode is cold
//! (e.g. its file was closed), the KLOC directly names every associated
//! object for en-masse migration — no page-table or LRU-list scans whose
//! latency exceeds kernel object lifetimes (paper §3.3).
//!
//! Mirroring paper Figs. 1 and 3(a):
//!
//! * [`Knode`] — per-inode "table of contents": its member counts in
//!   two trees (`rbtree-cache` for page-backed objects, `rbtree-slab`
//!   for slab-class objects, §4.2.3), the sorted frame set the
//!   migration walks read (see [`members`]), and `inuse` and `age`
//!   tracking. Which objects are members is one bit per object id in
//!   the [`KlocRegistry`]; their inode, type and frame live in the
//!   kernel's object table.
//! * [`Kmap`] — the global registry of all knodes.
//! * [`PerCpuKnodeLists`] — the per-CPU fast-path cache of recently used
//!   knodes (§4.3; reduces rbtree accesses by ~54 % in the paper).
//! * [`KlocRegistry`] — the engine reacting to kernel events (via the
//!   hook methods its owner forwards) and providing en-masse member
//!   migration; this is what `kloc-policy`'s KLOC policies wrap.
//! * [`overhead`] — KLOC metadata memory accounting (paper Table 6).
//!
//! The Table 2 API surface maps onto this crate as follows:
//!
//! | Paper API | Here |
//! |---|---|
//! | `sys_enable_kloc()` | [`KlocRegistry::new`] / [`KlocConfig::enabled`] |
//! | `map_knode(knode, inode)` | [`Kmap::map_knode`] |
//! | `knode_add_obj(knode, obj)` | [`KlocRegistry::object_allocated`] (sets the membership bit, then [`Knode::add_obj`]) |
//! | `itr_knode_slab(knode)` | [`ObjectTable::iter`] filtered by inode, slab backing and [`KlocRegistry::is_member`] |
//! | `itr_knode_cache(knode)` | [`ObjectTable::iter`] filtered by inode, page backing and [`KlocRegistry::is_member`] |
//! | `add_to_kmap(knode)` | [`Kmap::map_knode`] |
//! | `get_LRU_knodes(kmap)` | [`Kmap::lru_knodes`] |
//! | `find_cpu(knode)` | [`Knode::last_cpu`] |
//! | `sys_kloc_memsize(..)` | [`KlocConfig::fast_budget_frames`] |
//!
//! [`ObjectTable::iter`]: kloc_kernel::obj::ObjectTable::iter

#![warn(missing_docs)]
// A panic mid-run loses the whole sweep: justify each provably-present
// value with `#[expect(clippy::expect_used, reason = "...")]`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod kmap;
pub mod knode;
pub mod members;
pub mod overhead;
pub mod percpu;
pub mod registry;

pub use kmap::Kmap;
pub use knode::Knode;
pub use overhead::OverheadReport;
pub use percpu::PerCpuKnodeLists;
pub use registry::{KlocConfig, KlocRegistry, KlocStats};
