//! # kloc-policy — tiering policies
//!
//! Implementations of every memory-management strategy the paper
//! evaluates (Table 5), all speaking the
//! [`kloc_kernel::hooks::KernelHooks`] interface plus a periodic
//! [`Policy::tick`]:
//!
//! **Two-tier platform**
//! * [`AllFast`] / [`AllSlow`] — the ideal and pessimistic bounds.
//! * [`Naive`] — greedy first-come-first-served into fast memory; no
//!   migration.
//! * [`Nimble`] — prior-art application-page tiering (ASPLOS '19):
//!   LRU-scan hotness detection with parallelized page copy; kernel
//!   objects pinned to slow memory (what prior work does for two-tier
//!   systems, §3.2).
//! * [`NimblePlusPlus`] — our extension of Nimble that also scan-tracks
//!   relocatable kernel pages, but *without* the KLOC abstraction: its
//!   detection latency exceeds kernel object lifetimes, so evicted
//!   objects rarely return (§6.2).
//! * [`KlocPolicy`] — the paper's system: Nimble mechanisms for app
//!   pages + the KLOC registry for kernel objects, with direct fast
//!   allocation for active knodes and en-masse demotion on close;
//!   [`KlocPolicy::without_migration`] gives the `KLOCs-nomigration`
//!   variant of Fig. 4.
//!
//! **Optane Memory Mode platform**
//! * [`AutoNuma`] — socket-affinity page migration for app pages only.
//! * [`AutoNumaKloc`] — AutoNUMA extended to migrate the kernel objects
//!   of active KLOCs to the task's socket (§4.5).

#![warn(missing_docs)]
// A panic mid-run loses the whole sweep: justify each provably-present
// value with `#[expect(clippy::expect_used, reason = "...")]`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod apptier;
pub mod autonuma;
pub mod kloc;
pub mod nimble;
pub mod simple;
pub mod traits;

pub use apptier::AppTier;
pub use autonuma::{AutoNuma, AutoNumaKloc};
pub use kloc::KlocPolicy;
pub use nimble::{Nimble, NimblePlusPlus};
pub use simple::{AllFast, AllSlow, Naive};
pub use traits::{Policy, PolicyKind};
