//! KSAN: the kernel-state invariant sanitizer.
//!
//! The simulator maintains several pairs of structures that must agree
//! at every operation boundary — the frame table and the per-tier
//! capacity accounting, the page-cache reverse map and the page LRU, the
//! kmap's knode slots and its activation indexes. Each of those pairs is
//! kept consistent *incrementally* (no structure is ever rebuilt from
//! another), which is exactly the kind of bookkeeping that rots silently
//! when an edge case forgets one side of an update.
//!
//! Every audited structure exposes a `ksan_audit` method that
//! cross-checks its invariants and reports disagreements as structured
//! [`Violation`]s; the sim engine runs the full audit at a fixed
//! operation interval and panics via [`enforce`] on the first
//! violation, and the KLOC member walks re-probe their memos, chunk
//! bounds and parked members in place. Audits are **observation only**:
//! they never mutate simulation state (not even diagnostic counters), so
//! an audited run is byte-identical to an unaudited one.
//!
//! The code is compiled into every build; [`armed`] decides whether it
//! runs. A debug build (every `cargo test`) always audits. A release
//! build audits only after the harness calls [`arm`], which `kloc-sim`
//! does when `KLOC_KSAN_INTERVAL` is set; unarmed, a release build pays
//! one relaxed load per member walk.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::clock::Nanos;

static ARMED: AtomicBool = AtomicBool::new(false);

/// Whether the sanitizer runs: always in a debug build, and in a release
/// build once [`arm`] was called.
#[inline]
pub fn armed() -> bool {
    cfg!(debug_assertions) || ARMED.load(Ordering::Relaxed)
}

/// Arms the sanitizer for the rest of the process.
pub fn arm() {
    ARMED.store(true, Ordering::Relaxed);
}

/// One detected invariant violation: which structures disagree, about
/// which object, and what each side believes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The structure pair (or single structure) that disagrees, e.g.
    /// `"FrameTable.live <-> FrameTable.slots"`.
    pub structures: String,
    /// The object the disagreement is about, e.g. `"frame f3"` or
    /// `"inode ino7"`.
    pub object: String,
    /// The invariant that failed, in words.
    pub invariant: String,
    /// What the authoritative side records.
    pub expected: String,
    /// What the other side records.
    pub actual: String,
}

impl Violation {
    /// Builds a violation; arguments mirror the field order.
    pub fn new(
        structures: impl Into<String>,
        object: impl Into<String>,
        invariant: impl Into<String>,
        expected: impl Into<String>,
        actual: impl Into<String>,
    ) -> Self {
        Violation {
            structures: structures.into(),
            object: object.into(),
            invariant: invariant.into(),
            expected: expected.into(),
            actual: actual.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ksan: {structures}\n  object:    {object}\n  invariant: {invariant}\n  expected:  {expected}\n  actual:    {actual}",
            structures = self.structures,
            object = self.object,
            invariant = self.invariant,
            expected = self.expected,
            actual = self.actual,
        )
    }
}

/// Panics with a structured report if `violations` is non-empty. The
/// report lists every violation found in this audit pass, not just the
/// first, so a cascading desync is visible in one failure.
///
/// # Panics
/// Panics when any violation is present — that is the point.
pub fn enforce(context: &str, violations: &[Violation]) {
    if violations.is_empty() {
        return;
    }
    let mut report = format!(
        "ksan audit failed ({context}): {n} violation(s)\n",
        n = violations.len()
    );
    for v in violations {
        report.push_str(&format!("{v}\n"));
    }
    panic!("{report}");
}

/// Watches the virtual clock for monotonicity. The simulation's clock
/// only ever advances; a regression means some component restored or
/// rebuilt clock state it should not own.
#[derive(Debug, Default)]
pub struct ClockMonitor {
    last: Option<Nanos>,
}

impl ClockMonitor {
    /// Creates a monitor that accepts any first observation.
    pub fn new() -> Self {
        ClockMonitor::default()
    }

    /// Records `now`, reporting a violation if the clock went backwards.
    pub fn observe(&mut self, now: Nanos, out: &mut Vec<Violation>) {
        if let Some(last) = self.last {
            if now < last {
                out.push(Violation::new(
                    "Clock",
                    "virtual clock",
                    "virtual time is monotonically non-decreasing",
                    format!(">= {last}"),
                    format!("{now}"),
                ));
            }
        }
        self.last = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enforce_passes_empty() {
        enforce("test", &[]);
    }

    #[test]
    #[should_panic(expected = "ksan audit failed (test): 1 violation(s)")]
    fn enforce_panics_with_report() {
        let v = Violation::new("A <-> B", "frame f1", "agreement", "1", "2");
        enforce("test", &[v]);
    }

    #[test]
    fn violation_renders_all_fields() {
        let v = Violation::new("A <-> B", "frame f1", "agreement", "1", "2");
        let s = v.to_string();
        for needle in ["A <-> B", "frame f1", "agreement"] {
            assert!(s.contains(needle), "{s}");
        }
    }

    #[test]
    fn clock_monitor_flags_regression_only() {
        let mut mon = ClockMonitor::new();
        let mut out = Vec::new();
        mon.observe(Nanos::new(5), &mut out);
        mon.observe(Nanos::new(5), &mut out);
        mon.observe(Nanos::new(9), &mut out);
        assert!(out.is_empty());
        mon.observe(Nanos::new(8), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].structures, "Clock");
    }
}
