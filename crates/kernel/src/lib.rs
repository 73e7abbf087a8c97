//! # kloc-kernel — simulated kernel substrate
//!
//! The KLOCs paper modifies a real Linux 4.17 kernel; this crate is the
//! substitute: a deterministic, discrete-time model of the kernel
//! subsystems whose *objects* the paper tiers (Table 1 of the paper):
//!
//! * **VFS** — inodes, dentry cache, file handles ([`vfs`])
//! * **page cache** — per-inode radix trees with radix-node slab objects
//!   ([`pagecache`]), plus global reclaim and writeback
//! * **journal** — jbd2-style transactions with journal heads and journal
//!   blocks ([`journal`])
//! * **extents / block layer / disk** — extent trees, bio + blk-mq request
//!   objects, an NVMe model ([`extent`], [`block`], [`disk`])
//! * **network stack** — sockets, skbuffs, skbuff data pages, driver RX
//!   rings, layered delivery with optional early socket demux ([`net`])
//! * **LRU + readahead** — active/inactive page lists with a calibrated
//!   scan cost, and an adaptive readahead prefetcher ([`lru`],
//!   [`readahead`])
//!
//! Memory placement decisions are *not* made here: every page allocation
//! asks a [`hooks::KernelHooks`] implementation (a tiering policy from
//! `kloc-policy`, possibly wrapping the KLOC registry from `kloc-core`)
//! for a tier preference, and every object/inode lifecycle event is
//! reported back through the same trait. This mirrors the paper's design,
//! where KLOCs hook the existing syscall paths (§4.1).
//!
//! The facade type is [`Kernel`]; workloads drive it through the
//! syscall-like API (`create`/`open`/`read`/`write`/`fsync`/`close`/
//! `unlink`, `socket`/`send`/`deliver`/`recv`), always passing a
//! [`hooks::Ctx`] that bundles the memory system and the policy hooks.
//!
//! ```
//! use kloc_kernel::{Kernel, hooks::{Ctx, NullHooks}};
//! use kloc_mem::MemorySystem;
//!
//! # fn main() -> Result<(), kloc_kernel::KernelError> {
//! let mut mem = MemorySystem::two_tier(8 << 20, 8);
//! let mut hooks = NullHooks::fast_first();
//! let mut kernel = Kernel::new(Default::default());
//! let mut ctx = Ctx::new(&mut mem, &mut hooks);
//!
//! let fd = kernel.create(&mut ctx, "/data/f0")?;
//! kernel.write(&mut ctx, fd, 0, 8192)?;   // two page-cache pages
//! kernel.fsync(&mut ctx, fd)?;            // journal commit + writeback
//! kernel.close(&mut ctx, fd)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// A panic mid-run loses the whole sweep: justify each provably-present
// value with `#[expect(clippy::expect_used, reason = "...")]`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod block;
pub mod disk;
pub mod error;
pub mod extent;
pub mod hooks;
pub mod journal;
pub mod kernel;
pub mod lru;
pub mod net;
pub mod obj;
pub mod pagecache;
pub mod params;
pub mod readahead;
pub mod recovery;
pub mod slab;
pub mod stats;
pub mod tenant;
pub mod vfs;

pub use error::KernelError;
pub use journal::MetaUpdate;
pub use kernel::Kernel;
pub use obj::{Backing, KernelObjectType, ObjectId, ObjectInfo};
pub use params::KernelParams;
pub use recovery::{
    check, recover, CrashViolation, DurableStore, PageVersions, Promise, RecoveredState,
};
pub use stats::KernelStats;
pub use tenant::{QosClass, TenantSpec, TenantStats, TenantTable};
pub use vfs::{Fd, InodeId, InodeKind};
