//! # kloc-workloads — workload models
//!
//! Deterministic models of the paper's evaluation workloads (Table 3),
//! driving the simulated kernel through its syscall interface. Each model
//! reproduces the *kernel object mix* and access pattern the paper
//! attributes to its real counterpart:
//!
//! * [`RocksDb`] — LSM key-value store: memtable in app memory, WAL
//!   appends, flushes to hundreds of small SSTable files, leveled
//!   compaction that creates and deletes file churn; dbbench-style 50/50
//!   random/sequential reads and writes. Page-cache dominated (Fig. 2a).
//! * [`Redis`] — 16 instances serving 75 % sets / 25 % gets over
//!   sockets, periodically checkpointing the in-memory store to a dump
//!   file. Mix of socket buffers and page cache.
//! * [`Filebench`] — 16 threads doing 4 KB reads (half sequential, half
//!   random) and writes against a large file set; 86 % of time in the
//!   kernel.
//! * [`Cassandra`] — YCSB 50/50 with a large application-level cache
//!   that absorbs most reads (why KLOCs gain least here, §7.1),
//!   commitlog appends, SSTable flushes, client sockets, and Java-ish
//!   per-op overhead.
//! * [`Spark`] — TeraSort: generate input files, shuffle write/read,
//!   sorted output; streaming file I/O.
//! * [`Interference`] — the memory-streaming antagonist used in the
//!   Optane/AutoNUMA experiment (§6.2).
//! * [`MultiTenant`] — three consolidated-server tenants (frontend,
//!   analytics, file churn) multiplexed over one kernel with optional
//!   per-tenant KLOC budgets (DESIGN.md §12); driven by `repro tenants`
//!   rather than the paper-figure experiments.
//!
//! All models implement [`Workload`] and are sized by a [`Scale`]
//! (the paper's 10 GB/40 GB inputs scaled down ~1024x; shapes are
//! scale-invariant in the model).

#![warn(missing_docs)]
// A panic mid-run loses the whole sweep: justify each provably-present
// value with `#[expect(clippy::expect_used, reason = "...")]`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod cassandra;
pub mod filebench;
pub mod interference;
pub mod keygen;
pub mod redis;
pub mod rng;
pub mod rocksdb;
pub mod scale;
pub mod spark;
pub mod spec;
pub mod tenants;

pub use cassandra::Cassandra;
pub use filebench::Filebench;
pub use interference::Interference;
pub use keygen::{KeyDist, Zipfian};
pub use redis::Redis;
pub use rocksdb::RocksDb;
pub use scale::Scale;
pub use spark::Spark;
pub use spec::{Workload, WorkloadKind};
pub use tenants::MultiTenant;
