//! The trace recorder: thread-local per-run event buffers, scope-stack
//! virtual-time attribution, counter rollups, and the process-global
//! session sink.
//!
//! Compiled into every build; [`session_begin`] is the only switch.
//! Each entry point tests one process-wide flag inline and keeps its
//! work in a `#[cold]` body, so a run without a session pays one
//! relaxed load and a not-taken branch per call and never reaches the
//! thread-local recorder.
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Global session sink. `None` means no session is active and per-run
/// recording is skipped entirely.
static SESSION: Mutex<Option<String>> = Mutex::new(None);

/// Whether a session is open: set by [`session_begin`], cleared by
/// [`session_take`]. `Relaxed` suffices because the flag publishes no
/// data: the sink is read and written under `SESSION`'s lock, each
/// recorder is local to its thread, and the sweep runner spawns its
/// workers after `session_begin` returns, so they see the flag set.
static ACTIVE: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// The run recorder for the worker thread currently executing a
    /// simulation run, if any.
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

#[inline(always)]
fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
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
    /// Run totals passed to the last flush; the next flush emits the
    /// difference.
    flushed: Counters,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            out: String::new(),
            stack: Vec::new(),
            key: "-".to_owned(),
            pending: 0,
            attrib: BTreeMap::new(),
            flushed: Counters::default(),
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

/// Runs `f` on the calling thread's recorder, if it has one.
fn with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    RECORDER.with(|r| r.borrow_mut().as_mut().map(f))
}

/// Starts a trace session: clears the global sink and makes
/// [`session_active`] true so the engine installs per-run recorders.
#[expect(
    clippy::unwrap_used,
    reason = "a poisoned lock means a run already panicked"
)]
pub fn session_begin() {
    *SESSION.lock().unwrap() = Some(String::new());
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Whether a trace session is collecting.
#[inline]
pub fn session_active() -> bool {
    active()
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
    ACTIVE.store(false, Ordering::Relaxed);
    SESSION.lock().unwrap().take().unwrap_or_default()
}

/// Installs a fresh run recorder on the calling thread while a session
/// is active. Call once at run start.
#[inline]
pub fn run_begin() {
    if active() {
        install();
    }
}

#[cold]
#[inline(never)]
fn install() {
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder::new()));
}

/// Removes the calling thread's run recorder and returns its JSONL
/// (empty when no session is active).
#[inline]
pub fn run_take() -> String {
    if active() {
        take()
    } else {
        String::new()
    }
}

#[cold]
#[inline(never)]
fn take() -> String {
    RECORDER
        .with(|r| r.borrow_mut().take())
        .map(|rec| rec.out)
        .unwrap_or_default()
}

/// Whether the calling thread has an active run recorder. Emission
/// helpers check this themselves; this is for callers that want to
/// skip building expensive event inputs.
pub fn run_active() -> bool {
    active() && RECORDER.with(|r| r.borrow().is_some())
}

/// Serializes the event produced by `f` into the current run buffer.
/// `f` is not called when no recorder is active, so event construction
/// costs nothing outside trace collection.
#[inline]
pub fn emit<F: FnOnce() -> Event>(f: F) {
    if active() {
        emit_cold(f);
    }
}

#[cold]
#[inline(never)]
fn emit_cold<F: FnOnce() -> Event>(f: F) {
    with_recorder(|rec| f().write_jsonl(&mut rec.out));
}

/// Charges `ns` virtual nanoseconds to the current scope stack.
///
/// Batched: the charge lands in a plain per-burst counter; the map
/// entry for the scope key is only touched when the scope changes or a
/// flush happens (see `Recorder::settle`).
#[inline]
pub fn charge(ns: u64) {
    if active() {
        charge_cold(ns);
    }
}

#[cold]
#[inline(never)]
fn charge_cold(ns: u64) {
    if ns > 0 {
        with_recorder(|rec| rec.pending += ns);
    }
}

/// Flushes attribution accumulated since the last flush as `attrib`
/// events (one per scope stack, in key order) and the counter delta as
/// one `counters` event, all stamped `t`. `totals` returns the run's
/// counter totals so far, read off the layer statistics; it is called
/// only while a recorder is installed, and the event carries the
/// difference from the totals of the previous flush. The engine calls
/// this at phase boundaries.
#[inline]
pub fn flush<F: FnOnce() -> Counters>(t: u64, totals: F) {
    if active() {
        flush_cold(t, totals);
    }
}

#[cold]
#[inline(never)]
fn flush_cold<F: FnOnce() -> Counters>(t: u64, totals: F) {
    with_recorder(|rec| {
        rec.settle();
        let attrib = std::mem::take(&mut rec.attrib);
        for (stack, ns) in attrib {
            Event::Attrib { t, stack, ns }.write_jsonl(&mut rec.out);
        }
        let now = totals();
        let mut c = now.clone();
        for (delta, before) in c.values_mut().into_iter().zip(rec.flushed.values()) {
            *delta -= before;
        }
        rec.flushed = now;
        if !c.is_zero() {
            Event::Counters { t, c }.write_jsonl(&mut rec.out);
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
#[inline]
pub fn scope(name: &'static str) -> Scope {
    Scope {
        pushed: active() && push(name),
    }
}

#[cold]
#[inline(never)]
fn push(name: &'static str) -> bool {
    with_recorder(|rec| {
        rec.settle();
        rec.stack.push(name);
        rec.rebuild_key();
    })
    .is_some()
}

impl Drop for Scope {
    #[inline]
    fn drop(&mut self) {
        if self.pushed {
            pop();
        }
    }
}

#[cold]
#[inline(never)]
fn pop() {
    with_recorder(|rec| {
        rec.settle();
        rec.stack.pop();
        rec.rebuild_key();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The session flag is process-global and tests run on parallel
    /// threads, so every test that opens a session holds this lock.
    static LOCK: Mutex<()> = Mutex::new(());

    fn syscalls(n: u64) -> Counters {
        Counters {
            syscalls: n,
            ..Counters::default()
        }
    }

    #[test]
    fn recorder_end_to_end() {
        let _lock = LOCK.lock().unwrap();
        // No session: every entry point is a no-op, closures never run,
        // and no recorder is installed.
        run_begin();
        emit(|| unreachable!("emit closure must not run without a session"));
        charge(5);
        flush(1, || {
            unreachable!("totals must not be read without a session")
        });
        assert!(!run_active());
        assert_eq!(run_take(), "");

        // Scoped charges fold into `;`-joined stacks.
        session_begin();
        emit(|| unreachable!("emit closure must not run without a recorder"));
        run_begin();
        assert!(run_active());
        charge(7); // before any scope: keyed "-"
        {
            let _outer = scope("measured");
            charge(10);
            {
                let _inner = scope("write");
                charge(32);
            }
            charge(100);
        }
        flush(40, || syscalls(3));
        emit(|| Event::RunEnd { t: 41, ops: 1 });
        // Counters are deltas between the totals of consecutive flushes.
        flush(45, || syscalls(5));
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
        assert_eq!(
            events[3..],
            [
                Event::Counters {
                    t: 40,
                    c: syscalls(3)
                },
                Event::RunEnd { t: 41, ops: 1 },
                Event::Counters {
                    t: 45,
                    c: syscalls(2)
                },
            ]
        );

        // Flushing unchanged totals emits nothing; a new run starts
        // from zero totals.
        run_begin();
        flush(50, Counters::default);
        assert_eq!(run_take(), "");

        // Session sink concatenates in append order.
        session_append("a\n");
        session_append("b\n");
        assert_eq!(session_take(), "a\nb\n");
        assert!(!session_active());
        session_append("dropped\n"); // inactive: ignored
        assert_eq!(session_take(), "");
    }

    /// Burst batching must be invisible: re-entering a scope merges its
    /// bursts into one attribution line, and a flush in the middle of a
    /// scope settles the open burst under the right key.
    #[test]
    fn burst_batching_matches_per_touch_sums() {
        let _lock = LOCK.lock().unwrap();
        session_begin();
        run_begin();
        {
            let _s = scope("read");
            charge(3);
            charge(4);
        }
        {
            let _s = scope("read");
            charge(5);
            flush(9, Counters::default); // mid-scope flush: the open burst settles first
            charge(1);
        }
        flush(20, Counters::default);
        let events = Event::parse_all(&run_take()).unwrap();
        session_take();
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
