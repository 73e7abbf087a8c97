//! `kloc-trace`: deterministic trace/metrics layer for the KLOCs
//! reproduction.
//!
//! The crate has two halves:
//!
//! * **Schema + codec** ([`Event`], [`SCHEMA`], the JSONL writer and
//!   parser) — always compiled, dependency-free, used by the `ktrace`
//!   analyzer and by tests regardless of features.
//! * **Recorder** (session sink, per-run buffers, scope-stack
//!   attribution, counter rollups) — compiled only with the `trace`
//!   feature. Without it every entry point below is an inline no-op
//!   with the same signature, so model crates emit unconditionally at
//!   zero cost and reports stay byte-identical either way.
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
//! kloc_trace::with_counters(|c| c.pc_hits += 1);
//! kloc_trace::emit(|| kloc_trace::Event::Writeback { t: 0, ino: 1, pages: 8 });
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// A panic mid-run loses the whole sweep: justify each provably-present
// value with `#[expect(clippy::expect_used, reason = "...")]`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod event;

pub use event::{Counters, Event, EventSpec, ParseError, COUNTER_FIELDS, SCHEMA};

#[cfg(feature = "trace")]
mod recorder;

#[cfg(feature = "trace")]
pub use recorder::{
    charge, emit, flush, run_active, run_begin, run_take, scope, session_active, session_append,
    session_begin, session_take, with_counters, Scope,
};

/// Inline no-op shims used when the `trace` feature is off. Signatures
/// mirror `recorder` exactly so call sites compile unchanged.
#[cfg(not(feature = "trace"))]
mod noop {
    use crate::event::{Counters, Event};

    /// No-op: the `trace` feature is off, no session can start.
    #[inline(always)]
    pub fn session_begin() {}

    /// Always false without the `trace` feature.
    #[inline(always)]
    pub fn session_active() -> bool {
        false
    }

    /// No-op without the `trace` feature.
    #[inline(always)]
    pub fn session_append(_jsonl: &str) {}

    /// Always empty without the `trace` feature.
    #[inline(always)]
    pub fn session_take() -> String {
        String::new()
    }

    /// No-op without the `trace` feature.
    #[inline(always)]
    pub fn run_begin() {}

    /// Always empty without the `trace` feature.
    #[inline(always)]
    pub fn run_take() -> String {
        String::new()
    }

    /// Always false without the `trace` feature.
    #[inline(always)]
    pub fn run_active() -> bool {
        false
    }

    /// No-op: `f` is never called without the `trace` feature.
    #[inline(always)]
    pub fn emit<F: FnOnce() -> Event>(_f: F) {}

    /// No-op without the `trace` feature.
    #[inline(always)]
    pub fn charge(_ns: u64) {}

    /// No-op: `f` is never called without the `trace` feature.
    #[inline(always)]
    pub fn with_counters<F: FnOnce(&mut Counters)>(_f: F) {}

    /// No-op without the `trace` feature.
    #[inline(always)]
    pub fn flush(_t: u64) {}

    /// Inert guard; see `recorder::Scope` for the real one.
    #[must_use = "a scope guard attributes nothing unless held"]
    pub struct Scope {
        _private: (),
    }

    /// Returns an inert guard without the `trace` feature.
    #[inline(always)]
    pub fn scope(_name: &'static str) -> Scope {
        Scope { _private: () }
    }
}

#[cfg(not(feature = "trace"))]
pub use noop::{
    charge, emit, flush, run_active, run_begin, run_take, scope, session_active, session_append,
    session_begin, session_take, with_counters, Scope,
};
