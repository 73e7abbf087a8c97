//! # kloc-mem — tiered heterogeneous memory substrate
//!
//! This crate models the memory hardware underneath the KLOCs reproduction:
//! a set of memory *tiers* (fast DRAM, slow/throttled DRAM, persistent
//! memory, remote NUMA sockets), a table of 4 KB page *frames*, a virtual
//! nanosecond *clock*, and a *migration* engine with a calibrated cost
//! model.
//!
//! The paper (ASPLOS '21) evaluates KLOCs on two platforms:
//!
//! * a **two-tier** system — one socket's DRAM bandwidth-throttled to act
//!   as slow memory (fast tier: 8 GB @ 30 GB/s), and
//! * an **Intel Optane DC Memory Mode** system — per-socket DRAM acting as
//!   a hardware-managed L4 cache in front of persistent memory.
//!
//! Both are expressible with [`MemorySystem`] topology builders; see
//! [`MemorySystem::two_tier`] and [`MemorySystem::optane_memory_mode`].
//!
//! All timing in the simulation flows through this crate: each page or
//! object access is charged `latency + bytes / bandwidth` against the tier
//! it resides on, and migrations are charged a read + write + remap cost
//! (optionally divided by a parallel-copy factor, modeling Nimble's
//! parallelized page copies).
//!
//! ```
//! use kloc_mem::{MemorySystem, PageKind, TierId};
//!
//! # fn main() -> Result<(), kloc_mem::MemError> {
//! // 4 MB fast tier over an (effectively) unbounded slow tier, 1:8 bandwidth.
//! let mut mem = MemorySystem::two_tier(4 << 20, 8);
//! let frame = mem.allocate(TierId::FAST, PageKind::AppData)?;
//! mem.read(frame, 4096); // charges fast-tier latency + bandwidth
//! mem.migrate(frame, TierId::SLOW)?; // demote to slow memory
//! assert_eq!(mem.tier_of(frame), TierId::SLOW);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// A panic mid-run loses the whole sweep: justify each provably-present
// value with `#[expect(clippy::expect_used, reason = "...")]`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod allocator;
pub mod clock;
pub mod dense;
pub mod error;
pub mod fault;
pub mod frame;
pub mod frametable;
pub mod ksan;
pub mod l4cache;
pub mod migrate;
pub mod rng;
pub mod stats;
pub mod system;
pub mod tenant;
pub mod tier;

pub use clock::{Clock, Nanos};
pub use dense::{DenseKey, DenseMap};
pub use error::MemError;
pub use fault::{CrashPoint, DiskOp, FaultPlan, TierFaultKind};
pub use frame::{FrameId, FrameSet, PageKind, PAGE_SIZE};
pub use frametable::{FrameMeta, FrameTable};
pub use migrate::{MigrationCost, MigrationStats};
pub use rng::SplitMix64;
pub use stats::{MemStats, TierStats};
pub use system::{AccessOp, DrainStats, MemorySystem, ShardConfig};
pub use tenant::TenantId;
pub use tier::{TierId, TierKind, TierSpec};
