//! `klocbench` — the repository benchmark for the KLOCs simulator.
//!
//! It drives the simulator from outside, through the layers' public
//! functions only: [`replay::run`] replays the engine's run loop phase
//! by phase on the host clock, and [`timed::Timed`] wraps a policy to
//! time each kernel hook. [`bench::measure`] runs one workload and
//! computes its end-to-end metrics (untraced pass) or per-layer metrics
//! (traced pass); [`yardstick::sample_ns`] samples the host's speed
//! between reps. Every timed run is compared with the reference
//! `engine::run` report of its config. See `README.md` for the
//! workloads, the metric glossary and how to run it.

pub mod bench;
pub mod replay;
pub mod stats;
pub mod timed;
pub mod yardstick;
