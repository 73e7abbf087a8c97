//! `kloc-trace`: deterministic trace/metrics layer for the KLOCs
//! reproduction.
//!
//! The crate has two halves:
//!
//! * **Schema + codec** ([`Event`], [`SCHEMA`], the JSONL writer and
//!   parser) — always compiled, dependency-free, used by the `ktrace`
//!   analyzer and by tests regardless of features.
//! * **Recorder** (session sink, per-run buffers, scope-stack
//!   attribution, counter rollups) — compiled into every build and
//!   switched on at run time by [`session_begin`]. Until a session
//!   opens, every entry point below is one relaxed load of a
//!   process-wide flag and a not-taken branch, so model crates emit
//!   unconditionally and reports are byte-identical with or without a
//!   session.
//!
//! Determinism rules (enforced by clippy through `crates/clippy.toml`,
//! which bans wall-clock types here, and by `kloc-lint`'s KL001):
//! timestamps are virtual nanoseconds supplied by the caller, never
//! wall clock; all iteration is over ordered
//! collections; per-run buffers are assembled into the session in run
//! input order, so trace bytes are identical across `--jobs 1/2/8`.
//!
//! Emission API sketch (all no-ops unless a session is active *and*
//! the engine installed a run recorder on this thread):
//!
//! ```
//! let _guard = kloc_trace::scope("write");      // attribution stack
//! kloc_trace::charge(640);                      // ns under that stack
//! kloc_trace::emit(|| kloc_trace::Event::Writeback { t: 0, ino: 1, pages: 8 });
//! // At a phase boundary: attribution, plus the counter delta since the
//! // last flush, computed from run totals the caller reads off its stats.
//! kloc_trace::flush(0, kloc_trace::Counters::default);
//! ```
//!
//! The recorder counts nothing itself: every [`Counters`] field is a
//! layer statistic the model already keeps, so the caller of [`flush`]
//! passes run totals and the recorder emits the difference from the
//! totals it last flushed.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// A panic mid-run loses the whole sweep: justify each provably-present
// value with `#[expect(clippy::expect_used, reason = "...")]`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod event;

pub use event::{Counters, Event, EventSpec, ParseError, COUNTER_FIELDS, SCHEMA};

mod recorder;

pub use recorder::{
    charge, emit, flush, run_active, run_begin, run_take, scope, session_active, session_append,
    session_begin, session_take, Scope,
};
