//! # kloc-sim — experiment harness
//!
//! Couples the tiered memory substrate, the simulated kernel, a tiering
//! policy, and a workload into one deterministic run ([`engine`]), and
//! packages the paper's evaluation as runnable experiments
//! ([`experiments`]): one module per figure/table that returns
//! structured rows and can print the paper-style output.
//!
//! The `repro` binary drives it:
//!
//! ```text
//! repro fig4            # two-tier speedups (paper Fig. 4)
//! repro fig2a --scale small
//! repro all             # every experiment
//! ```
//!
//! ```no_run
//! use kloc_sim::engine::RunConfig;
//! use kloc_policy::PolicyKind;
//! use kloc_workloads::{Scale, WorkloadKind};
//!
//! let config = RunConfig::two_tier(WorkloadKind::RocksDb, PolicyKind::Kloc, Scale::large());
//! let report = kloc_sim::engine::run(&config).unwrap();
//! println!("{:.0} ops/s", report.throughput());
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod crashsweep;
pub mod engine;
pub mod experiments;
pub mod ktrace;
pub mod report;
pub mod runner;

pub use engine::{Platform, RunConfig, RunReport, TenantReport};
pub use report::Table;
pub use runner::{Job, Runner};
