//! The trace recorder: thread-local per-run event buffers, scope-stack
//! virtual-time attribution, counter rollups, and the process-global
//! session sink. Compiled only with the `trace` feature; `lib.rs`
//! provides inline no-op shims with identical signatures otherwise.
//!
//! Determinism contract: the recorder never reads wall-clock time,
//! randomness, or the environment. Timestamps come from the caller's
//! virtual clock, attribution keys live in a `BTreeMap` so flush order
//! is the key order, and each run records into a buffer local to the
//! worker thread executing it — the session assembles per-run buffers
//! in input order, so trace bytes are independent of worker count.

use crate::event::{Counters, Event};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Global session sink. `None` means no session is active and per-run
/// recording is skipped entirely.
static SESSION: Mutex<Option<String>> = Mutex::new(None);

thread_local! {
    /// The run recorder for the worker thread currently executing a
    /// simulation run, if any.
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Per-run recording state.
struct Recorder {
    /// Serialized JSONL for this run so far.
    out: String,
    /// Active scope stack (static names pushed by [`scope`]).
    stack: Vec<&'static str>,
    /// Cached `;`-join of `stack`, rebuilt on push/pop.
    key: String,
    /// Nanoseconds charged to `key` since the last scope transition or
    /// flush. [`charge`] fires on every page touch, so it only bumps
    /// this counter; the map entry is settled once per syscall burst
    /// (scope transition), not per touch.
    pending: u64,
    /// Virtual nanoseconds charged per scope stack since the last flush.
    attrib: BTreeMap<String, u64>,
    /// Counter deltas since the last flush.
    counters: Counters,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            out: String::new(),
            stack: Vec::new(),
            key: "-".to_owned(),
            pending: 0,
            attrib: BTreeMap::new(),
            counters: Counters::default(),
        }
    }

    fn rebuild_key(&mut self) {
        self.key = if self.stack.is_empty() {
            "-".to_owned()
        } else {
            self.stack.join(";")
        };
    }

    /// Folds the pending burst into the attribution map. Must run
    /// before `key` changes or `attrib` is read; the per-key sums are
    /// then exactly what per-touch bumping would have produced.
    fn settle(&mut self) {
        if self.pending > 0 {
            *self.attrib.entry(self.key.clone()).or_insert(0) += self.pending;
            self.pending = 0;
        }
    }
}

/// Starts a trace session: clears the global sink and makes
/// [`session_active`] true so the engine installs per-run recorders.
#[expect(
    clippy::unwrap_used,
    reason = "a poisoned lock means a run already panicked"
)]
pub fn session_begin() {
    *SESSION.lock().unwrap() = Some(String::new());
}

/// Whether a trace session is collecting.
#[expect(
    clippy::unwrap_used,
    reason = "a poisoned lock means a run already panicked"
)]
pub fn session_active() -> bool {
    SESSION.lock().unwrap().is_some()
}

/// Appends one run's serialized JSONL to the session sink. The caller
/// (the sweep runner) appends runs in input order, which is what makes
/// session bytes independent of `--jobs`.
pub fn session_append(jsonl: &str) {
    #[expect(
        clippy::unwrap_used,
        reason = "a poisoned lock means a run already panicked"
    )]
    if let Some(buf) = SESSION.lock().unwrap().as_mut() {
        buf.push_str(jsonl);
    }
}

/// Ends the session and returns everything appended so far.
#[expect(
    clippy::unwrap_used,
    reason = "a poisoned lock means a run already panicked"
)]
pub fn session_take() -> String {
    SESSION.lock().unwrap().take().unwrap_or_default()
}

/// Installs a fresh run recorder on the calling thread. Call once at
/// run start (the engine does this when a session is active).
pub fn run_begin() {
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder::new()));
}

/// Removes the calling thread's run recorder and returns its JSONL.
pub fn run_take() -> String {
    RECORDER
        .with(|r| r.borrow_mut().take())
        .map(|rec| rec.out)
        .unwrap_or_default()
}

/// Whether the calling thread has an active run recorder. Emission
/// helpers check this themselves; this is for callers that want to
/// skip building expensive event inputs.
pub fn run_active() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// Serializes the event produced by `f` into the current run buffer.
/// `f` is not called when no recorder is active, so event construction
/// costs nothing outside trace collection.
pub fn emit<F: FnOnce() -> Event>(f: F) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            f().write_jsonl(&mut rec.out);
        }
    });
}

/// Charges `ns` virtual nanoseconds to the current scope stack.
///
/// Batched: the charge lands in a plain per-burst counter; the map
/// entry for the scope key is only touched when the scope changes or a
/// flush happens (see [`Recorder::settle`]).
pub fn charge(ns: u64) {
    if ns == 0 {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.pending += ns;
        }
    });
}

/// Applies `f` to the current run's counter deltas.
pub fn with_counters<F: FnOnce(&mut Counters)>(f: F) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            f(&mut rec.counters);
        }
    });
}

/// Flushes attribution and counter deltas accumulated since the last
/// flush as `attrib` events (one per scope stack, in key order) and one
/// `counters` event, all stamped `t`. The engine calls this at phase
/// boundaries.
pub fn flush(t: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.settle();
            let attrib = std::mem::take(&mut rec.attrib);
            for (stack, ns) in attrib {
                Event::Attrib { t, stack, ns }.write_jsonl(&mut rec.out);
            }
            let c = std::mem::take(&mut rec.counters);
            if !c.is_zero() {
                Event::Counters { t, c }.write_jsonl(&mut rec.out);
            }
        }
    });
}

/// RAII guard returned by [`scope`]; pops its name on drop.
#[must_use = "a scope guard attributes nothing unless held"]
pub struct Scope {
    pushed: bool,
}

/// Pushes `name` onto the calling thread's scope stack for virtual-time
/// attribution. Charges recorded while the guard lives are keyed by the
/// full `;`-joined stack, flamegraph-fold style.
pub fn scope(name: &'static str) -> Scope {
    let pushed = RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.settle();
            rec.stack.push(name);
            rec.rebuild_key();
            true
        } else {
            false
        }
    });
    Scope { pushed }
}

impl Drop for Scope {
    fn drop(&mut self) {
        if self.pushed {
            RECORDER.with(|r| {
                if let Some(rec) = r.borrow_mut().as_mut() {
                    rec.settle();
                    rec.stack.pop();
                    rec.rebuild_key();
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recorder state is thread-local and the session is process-global;
    /// running these tests serially on one thread keeps them independent.
    #[test]
    fn recorder_end_to_end() {
        // No recorder: everything is a cheap no-op and closures never run.
        let _ = run_take();
        emit(|| unreachable!("emit closure must not run without a recorder"));
        charge(5);
        with_counters(|_| unreachable!("counter closure must not run without a recorder"));
        assert!(!run_active());
        assert_eq!(run_take(), "");

        // Scoped charges fold into `;`-joined stacks.
        run_begin();
        assert!(run_active());
        charge(7); // before any scope: keyed "-"
        {
            let _outer = scope("measured");
            charge(10);
            {
                let _inner = scope("write");
                charge(32);
                with_counters(|c| c.syscalls += 1);
            }
            charge(100);
        }
        flush(40);
        emit(|| Event::RunEnd { t: 41, ops: 1 });
        let out = run_take();
        assert!(!run_active());
        let events = Event::parse_all(&out).unwrap();
        assert_eq!(
            events[..3],
            [
                Event::Attrib {
                    t: 40,
                    stack: "-".to_owned(),
                    ns: 7
                },
                Event::Attrib {
                    t: 40,
                    stack: "measured".to_owned(),
                    ns: 110
                },
                Event::Attrib {
                    t: 40,
                    stack: "measured;write".to_owned(),
                    ns: 32
                },
            ]
        );
        match &events[3] {
            Event::Counters { t: 40, c } => assert_eq!(c.syscalls, 1),
            other => panic!("expected counters, got {other:?}"),
        }
        assert_eq!(events[4], Event::RunEnd { t: 41, ops: 1 });

        // Flushing again with nothing accumulated emits nothing.
        flush(50);
        run_begin();
        flush(50);
        assert_eq!(run_take(), "");

        // Session sink concatenates in append order.
        assert!(!session_active());
        session_append("dropped\n"); // inactive: ignored
        session_begin();
        assert!(session_active());
        session_append("a\n");
        session_append("b\n");
        assert_eq!(session_take(), "a\nb\n");
        assert!(!session_active());
        assert_eq!(session_take(), "");
    }

    /// Burst batching must be invisible: re-entering a scope merges its
    /// bursts into one attribution line, and a flush in the middle of a
    /// scope settles the open burst under the right key.
    #[test]
    fn burst_batching_matches_per_touch_sums() {
        run_begin();
        {
            let _s = scope("read");
            charge(3);
            charge(4);
        }
        {
            let _s = scope("read");
            charge(5);
            flush(9); // mid-scope flush: the open burst settles first
            charge(1);
        }
        flush(20);
        let events = Event::parse_all(&run_take()).unwrap();
        assert_eq!(
            events,
            [
                Event::Attrib {
                    t: 9,
                    stack: "read".to_owned(),
                    ns: 12
                },
                Event::Attrib {
                    t: 20,
                    stack: "read".to_owned(),
                    ns: 1
                },
            ]
        );
    }
}
