//! `ktrace` analysis: deterministic aggregation over `kloc-trace` JSONL
//! documents.
//!
//! The `ktrace` binary is a thin CLI over this module; everything here
//! is pure (events in, text out) so the aggregation math is unit
//! testable and reusable. All intermediate state lives in `BTreeMap`s,
//! so rendered output is a deterministic function of the trace bytes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use kloc_trace::{Counters, Event, SCHEMA};

/// Splits a session trace into per-run slices at `run_begin` markers.
/// Events before the first marker (a headerless fragment) form their own
/// leading run.
pub fn split_runs(events: &[Event]) -> Vec<&[Event]> {
    let mut starts: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, Event::RunBegin { .. }))
        .map(|(i, _)| i)
        .collect();
    if events.is_empty() {
        return Vec::new();
    }
    if starts.first() != Some(&0) {
        starts.insert(0, 0);
    }
    starts
        .iter()
        .enumerate()
        .map(|(i, &lo)| {
            let hi = starts.get(i + 1).copied().unwrap_or(events.len());
            &events[lo..hi]
        })
        .collect()
}

/// Headline facts about one run's slice of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Workload label from `run_begin` (`?` if the slice is headerless).
    pub workload: String,
    /// Policy label from `run_begin`.
    pub policy: String,
    /// Platform descriptor from `run_begin`.
    pub platform: String,
    /// Measured operations (from `run_end`, falling back to `run_begin`).
    pub ops: u64,
    /// Final virtual clock of the run in nanoseconds.
    pub end_t: u64,
    /// Event count per kind.
    pub by_kind: BTreeMap<&'static str, u64>,
}

/// Summarizes one run slice.
pub fn summarize(run: &[Event]) -> RunSummary {
    let mut s = RunSummary {
        workload: "?".to_owned(),
        policy: "?".to_owned(),
        platform: "?".to_owned(),
        ops: 0,
        end_t: run.last().map_or(0, Event::t),
        by_kind: BTreeMap::new(),
    };
    for ev in run {
        *s.by_kind.entry(ev.kind()).or_default() += 1;
        match ev {
            Event::RunBegin {
                workload,
                policy,
                platform,
                ops,
                ..
            } => {
                s.workload.clone_from(workload);
                s.policy.clone_from(policy);
                s.platform.clone_from(platform);
                if s.ops == 0 {
                    s.ops = *ops;
                }
            }
            Event::RunEnd { t, ops } => {
                s.ops = *ops;
                s.end_t = (*t).max(s.end_t);
            }
            _ => {}
        }
    }
    s
}

/// Folds `attrib` events into total nanoseconds per scope stack —
/// flamegraph-fold format: each entry renders as one `stack ns` line.
pub fn fold_attrib(events: &[Event]) -> BTreeMap<String, u64> {
    let mut fold: BTreeMap<String, u64> = BTreeMap::new();
    for ev in events {
        if let Event::Attrib { stack, ns, .. } = ev {
            *fold.entry(stack.clone()).or_default() += ns;
        }
    }
    fold
}

/// Sums every `counters` event into run/session totals.
pub fn counter_totals(events: &[Event]) -> Counters {
    let mut total = Counters::default();
    for ev in events {
        if let Event::Counters { c, .. } = ev {
            total.add(c);
        }
    }
    total
}

/// The log2 histogram bucket of a value: bucket 0 holds only 0, bucket
/// `b >= 1` holds `[2^(b-1), 2^b)`.
pub fn log2_bucket(v: u64) -> u32 {
    match v {
        0 => 0,
        _ => v.ilog2() + 1,
    }
}

/// Human label for a [`log2_bucket`] index.
pub fn bucket_label(b: u32) -> String {
    match b {
        0 => "0".to_owned(),
        _ => format!("{}..{}", 1u64 << (b - 1), (1u64 << b) - 1),
    }
}

/// Builds a log2 histogram (bucket index -> count) over `values`.
pub fn log2_hist(values: impl IntoIterator<Item = u64>) -> BTreeMap<u32, u64> {
    let mut hist: BTreeMap<u32, u64> = BTreeMap::new();
    for v in values {
        *hist.entry(log2_bucket(v)).or_default() += 1;
    }
    hist
}

/// One entry of a per-KLOC timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEntry {
    /// Virtual nanoseconds since run start.
    pub t: u64,
    /// What happened, rendered (`created`, `promote/enmasse moved=…`).
    pub what: String,
}

/// Builds per-KLOC (per-inode) tier-residency timelines from `knode`
/// lifecycle events and `kloc_migrate` decisions.
pub fn timelines(events: &[Event]) -> BTreeMap<u64, Vec<TimelineEntry>> {
    let mut out: BTreeMap<u64, Vec<TimelineEntry>> = BTreeMap::new();
    for ev in events {
        match ev {
            Event::Knode { t, ino, state } => {
                out.entry(*ino).or_default().push(TimelineEntry {
                    t: *t,
                    what: state.clone(),
                });
            }
            Event::KlocMigrate {
                t,
                ino,
                dir,
                how,
                epoch,
                age,
                moved,
                fast,
                slow,
            } => {
                out.entry(*ino).or_default().push(TimelineEntry {
                    t: *t,
                    what: format!(
                        "{dir}/{how} moved={moved} epoch={epoch} age={age} -> fast={fast} slow={slow}"
                    ),
                });
            }
            _ => {}
        }
    }
    out
}

/// Renders the per-run summary of a whole session trace.
pub fn render_summary(events: &[Event]) -> String {
    let mut out = String::new();
    let runs = split_runs(events);
    let _ = writeln!(out, "{} event(s), {} run(s)", events.len(), runs.len());
    for (i, run) in runs.iter().enumerate() {
        let s = summarize(run);
        let _ = writeln!(
            out,
            "\nrun {i}: {} / {} on {} ({} ops, {} ns virtual)",
            s.workload, s.policy, s.platform, s.ops, s.end_t
        );
        for (kind, count) in &s.by_kind {
            let _ = writeln!(out, "  {kind:<16} {count:>8}");
        }
    }
    out
}

/// Renders per-KLOC timelines, optionally restricted to one inode.
pub fn render_timeline(events: &[Event], only_ino: Option<u64>) -> String {
    let mut out = String::new();
    for (i, run) in split_runs(events).iter().enumerate() {
        let s = summarize(run);
        let _ = writeln!(out, "run {i}: {} / {}", s.workload, s.policy);
        let lines = timelines(run);
        let mut shown = 0usize;
        for (ino, entries) in &lines {
            if only_ino.is_some_and(|want| want != *ino) {
                continue;
            }
            shown += 1;
            let _ = writeln!(out, "  kloc ino={ino}");
            for e in entries {
                let _ = writeln!(out, "    t={:<14} {}", e.t, e.what);
            }
        }
        if shown == 0 {
            let _ = writeln!(out, "  (no knode events)");
        }
    }
    out
}

/// Renders the session-wide virtual-time attribution in flamegraph fold
/// format (`stack ns`, one line per scope stack, sorted by stack).
pub fn render_attrib(events: &[Event]) -> String {
    let mut out = String::new();
    for (stack, ns) in fold_attrib(events) {
        let _ = writeln!(out, "{stack} {ns}");
    }
    out
}

/// Renders session-wide counter totals plus log2 histograms of per-event
/// migration costs and writeback batch sizes.
pub fn render_rollup(events: &[Event]) -> String {
    let mut out = String::new();
    let totals = counter_totals(events);
    let _ = writeln!(out, "counter totals:");
    for ((name, _), value) in kloc_trace::COUNTER_FIELDS.iter().zip(totals.values()) {
        let _ = writeln!(out, "  {name:<16} {value:>10}");
    }
    let costs = events.iter().filter_map(|e| match e {
        Event::Migrate { cost, .. } => Some(*cost),
        _ => None,
    });
    render_hist(&mut out, "migrate cost (ns)", &log2_hist(costs));
    let batches = events.iter().filter_map(|e| match e {
        Event::Writeback { pages, .. } => Some(*pages),
        _ => None,
    });
    render_hist(&mut out, "writeback batch (pages)", &log2_hist(batches));
    out.push_str(&render_faults(events));
    out.push_str(&render_degradation(events));
    out
}

/// Renders the fault-injection rollup (kfault runs): injected faults
/// by class, blk-mq retries with a backoff histogram, and crash
/// recoveries with replay totals. Empty for fault-free traces, so the
/// rollup of an ordinary run carries no fault section.
pub fn render_faults(events: &[Event]) -> String {
    let mut out = String::new();
    let mut faults: BTreeMap<&str, u64> = BTreeMap::new();
    let mut retries = 0u64;
    let mut backoffs = Vec::new();
    let (mut recoveries, mut replayed, mut torn) = (0u64, 0u64, 0u64);
    for ev in events {
        match ev {
            Event::Fault { kind, .. } => *faults.entry(kind.as_str()).or_default() += 1,
            Event::Retry { backoff, .. } => {
                retries += 1;
                backoffs.push(*backoff);
            }
            Event::Recovery {
                replayed: r,
                torn: tn,
                ..
            } => {
                recoveries += 1;
                replayed += r;
                torn += tn;
            }
            _ => {}
        }
    }
    if faults.is_empty() && retries == 0 && recoveries == 0 {
        return out;
    }
    let _ = writeln!(out, "\nfault injection:");
    for (kind, count) in &faults {
        let label = format!("fault/{kind}");
        let _ = writeln!(out, "  {label:<16} {count:>10}");
    }
    let _ = writeln!(out, "  {:<16} {retries:>10}", "retries");
    if recoveries > 0 {
        let _ = writeln!(
            out,
            "  {:<16} {recoveries:>10} (replayed {replayed}, torn {torn})",
            "recoveries"
        );
    }
    if retries > 0 {
        render_hist(&mut out, "retry backoff (ns)", &log2_hist(backoffs));
    }
    out
}

/// Renders the graceful-degradation rollup (DESIGN.md §13): tier-drain
/// volume per tier, QoS preemptions per class and action, and the
/// budget-resize timeline. Empty when the trace carries none of the
/// three event kinds, so faultless resize-free rollups are unchanged.
pub fn render_degradation(events: &[Event]) -> String {
    let mut out = String::new();
    // tier -> (passes, moved, retries, cost ns).
    let mut drains: BTreeMap<u64, (u64, u64, u64, u64)> = BTreeMap::new();
    // (qos, action) -> (events, pages).
    let mut preempts: BTreeMap<(&str, &str), (u64, u64)> = BTreeMap::new();
    let mut resizes: Vec<String> = Vec::new();
    for ev in events {
        match ev {
            Event::Drain {
                tier,
                moved,
                retries,
                cost,
                ..
            } => {
                let e = drains.entry(*tier).or_default();
                e.0 += 1;
                e.1 += moved;
                e.2 += retries;
                e.3 += cost;
            }
            Event::Degrade {
                qos, action, pages, ..
            } => {
                let e = preempts.entry((qos.as_str(), action.as_str())).or_default();
                e.0 += 1;
                e.1 += pages;
            }
            Event::BudgetResize {
                t,
                tenant,
                kind,
                from,
                to,
            } => {
                let cap = |v: u64| match v {
                    0 => "uncapped".to_owned(),
                    _ => v.to_string(),
                };
                resizes.push(format!(
                    "  t={t:<14} tenant {tenant} {kind}: {} -> {}",
                    cap(*from),
                    cap(*to)
                ));
            }
            _ => {}
        }
    }
    if drains.is_empty() && preempts.is_empty() && resizes.is_empty() {
        return out;
    }
    let _ = writeln!(out, "\ngraceful degradation:");
    for (tier, (passes, moved, retries, cost)) in &drains {
        let label = format!("drain/tier{tier}");
        let _ = writeln!(
            out,
            "  {label:<16} {moved:>10} frame(s) in {passes} pass(es), {retries} retries, {cost} ns"
        );
    }
    for ((qos, action), (events, pages)) in &preempts {
        let label = format!("{qos}/{action}");
        let _ = writeln!(
            out,
            "  {label:<22} {events:>6} preemption(s), {pages} page(s)"
        );
    }
    if !resizes.is_empty() {
        let _ = writeln!(out, "  budget resizes:");
        for line in &resizes {
            let _ = writeln!(out, "  {line}");
        }
    }
    out
}

fn render_hist(out: &mut String, title: &str, hist: &BTreeMap<u32, u64>) {
    let _ = writeln!(out, "\n{title}:");
    if hist.is_empty() {
        let _ = writeln!(out, "  (no samples)");
        return;
    }
    let max = hist.values().copied().max().unwrap_or(1).max(1);
    for (&bucket, &count) in hist {
        let bar = "#".repeat(((count * 40).div_ceil(max)) as usize);
        let _ = writeln!(out, "  {:>24} {count:>8} {bar}", bucket_label(bucket));
    }
}

/// Renders the event schema reference (the same table DESIGN.md §7
/// carries) from [`kloc_trace::SCHEMA`].
pub fn render_schema() -> String {
    let mut out = String::new();
    for spec in SCHEMA {
        let _ = writeln!(out, "{}  ({})", spec.kind, spec.site);
        for (name, units) in spec.fields {
            let _ = writeln!(out, "  {name:<16} {units}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Event> {
        vec![
            Event::RunBegin {
                t: 0,
                workload: "RocksDB".to_owned(),
                policy: "KLOCs".to_owned(),
                platform: "two_tier:fast=1:bw=8".to_owned(),
                seed: 1,
                ops: 10,
            },
            Event::Attrib {
                t: 5,
                stack: "measured;write".to_owned(),
                ns: 100,
            },
            Event::Counters {
                t: 5,
                c: Counters {
                    syscalls: 4,
                    pc_hits: 2,
                    ..Counters::default()
                },
            },
            Event::Knode {
                t: 6,
                ino: 3,
                state: "created".to_owned(),
            },
            Event::KlocMigrate {
                t: 7,
                ino: 3,
                dir: "demote".to_owned(),
                how: "enmasse".to_owned(),
                epoch: 2,
                age: 1,
                moved: 5,
                fast: 0,
                slow: 5,
            },
            Event::Migrate {
                t: 7,
                frame: 9,
                from: 0,
                to: 1,
                kind: "page-cache".to_owned(),
                cost: 640,
            },
            Event::RunEnd { t: 9, ops: 10 },
            Event::RunBegin {
                t: 0,
                workload: "Redis".to_owned(),
                policy: "Naive".to_owned(),
                platform: "two_tier:fast=1:bw=8".to_owned(),
                seed: 1,
                ops: 20,
            },
            Event::Attrib {
                t: 3,
                stack: "measured;write".to_owned(),
                ns: 50,
            },
            Event::Counters {
                t: 3,
                c: Counters {
                    syscalls: 6,
                    ..Counters::default()
                },
            },
            Event::RunEnd { t: 4, ops: 20 },
        ]
    }

    #[test]
    fn splits_runs_on_markers() {
        let events = sample();
        let runs = split_runs(&events);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].len(), 7);
        assert_eq!(runs[1].len(), 4);
        assert!(split_runs(&[]).is_empty());
        // A headerless fragment still forms a run.
        let frag = vec![Event::RunEnd { t: 1, ops: 1 }];
        assert_eq!(split_runs(&frag).len(), 1);
    }

    #[test]
    fn summary_reads_header_and_footer() {
        let events = sample();
        let s = summarize(split_runs(&events)[0]);
        assert_eq!(s.workload, "RocksDB");
        assert_eq!(s.policy, "KLOCs");
        assert_eq!(s.ops, 10);
        assert_eq!(s.end_t, 9);
        assert_eq!(s.by_kind["knode"], 1);
        assert_eq!(s.by_kind["run_begin"], 1);
    }

    #[test]
    fn attrib_folds_across_runs() {
        let fold = fold_attrib(&sample());
        assert_eq!(fold.len(), 1);
        assert_eq!(fold["measured;write"], 150);
    }

    #[test]
    fn counters_sum_across_runs() {
        let t = counter_totals(&sample());
        assert_eq!(t.syscalls, 10);
        assert_eq!(t.pc_hits, 2);
        assert_eq!(t.frame_allocs, 0);
    }

    #[test]
    fn log2_buckets_partition_the_range() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(u64::MAX), 64);
        assert_eq!(bucket_label(0), "0");
        assert_eq!(bucket_label(1), "1..1");
        assert_eq!(bucket_label(3), "4..7");
        let hist = log2_hist([0, 1, 2, 3, 4]);
        assert_eq!(hist[&0], 1);
        assert_eq!(hist[&1], 1);
        assert_eq!(hist[&2], 2);
        assert_eq!(hist[&3], 1);
    }

    #[test]
    fn timeline_merges_lifecycle_and_migrations() {
        let tl = timelines(split_runs(&sample())[0]);
        assert_eq!(tl.len(), 1);
        let entries = &tl[&3];
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].what, "created");
        assert!(entries[1].what.starts_with("demote/enmasse moved=5"));
        assert!(entries[1].what.ends_with("fast=0 slow=5"));
    }

    #[test]
    fn renderers_are_deterministic_and_nonempty() {
        let events = sample();
        let a = render_summary(&events);
        assert_eq!(a, render_summary(&events));
        assert!(a.contains("RocksDB"));
        assert!(render_attrib(&events).contains("measured;write 150"));
        let rollup = render_rollup(&events);
        assert!(rollup.contains("syscalls"));
        assert!(rollup.contains("migrate cost"));
        let schema = render_schema();
        for kind in Event::ALL_KINDS {
            assert!(schema.contains(kind), "schema output missing {kind}");
        }
        assert!(render_timeline(&events, Some(3)).contains("kloc ino=3"));
        assert!(render_timeline(&events, Some(99)).contains("no knode events"));
    }

    #[test]
    fn fault_rollup_appears_only_with_fault_events() {
        // Fault-free traces render no fault section at all.
        assert!(render_faults(&sample()).is_empty());
        assert!(!render_rollup(&sample()).contains("fault injection"));
        let events = vec![
            Event::Fault {
                t: 1,
                kind: "disk".to_owned(),
                info: "write".to_owned(),
            },
            Event::Fault {
                t: 2,
                kind: "disk".to_owned(),
                info: "fsync".to_owned(),
            },
            Event::Retry {
                t: 3,
                op: "write".to_owned(),
                attempt: 1,
                backoff: 50_000,
            },
            Event::Recovery {
                t: 4,
                replayed: 4,
                torn: 1,
                pages: 9,
            },
        ];
        let r = render_faults(&events);
        assert!(r.contains("fault/disk"));
        assert!(r.contains("retries"));
        assert!(r.contains("(replayed 4, torn 1)"));
        assert!(r.contains("retry backoff (ns)"));
        assert!(render_rollup(&events).contains("fault injection:"));
    }

    #[test]
    fn degradation_rollup_appears_only_with_degradation_events() {
        // Faultless resize-free traces render no degradation section.
        assert!(render_degradation(&sample()).is_empty());
        assert!(!render_rollup(&sample()).contains("graceful degradation"));
        let events = vec![
            Event::Drain {
                t: 10,
                tier: 0,
                moved: 5,
                left: 2,
                retries: 1,
                cost: 3200,
            },
            Event::Drain {
                t: 20,
                tier: 0,
                moved: 2,
                left: 0,
                retries: 0,
                cost: 1280,
            },
            Event::Degrade {
                t: 12,
                tenant: 3,
                qos: "best-effort".to_owned(),
                action: "reclaim".to_owned(),
                pages: 1,
            },
            Event::Degrade {
                t: 14,
                tenant: 3,
                qos: "best-effort".to_owned(),
                action: "resize".to_owned(),
                pages: 1,
            },
            Event::BudgetResize {
                t: 11,
                tenant: 3,
                kind: "pc".to_owned(),
                from: 64,
                to: 32,
            },
            Event::BudgetResize {
                t: 30,
                tenant: 3,
                kind: "pc".to_owned(),
                from: 32,
                to: 0,
            },
        ];
        let r = render_degradation(&events);
        // Drain volume accumulates per tier across passes.
        assert!(r.contains("drain/tier0"), "{r}");
        assert!(r.contains("7 frame(s) in 2 pass(es), 1 retries"), "{r}");
        // Preemptions split by (class, action).
        assert!(r.contains("best-effort/reclaim"), "{r}");
        assert!(r.contains("best-effort/resize"), "{r}");
        // The resize timeline is chronological and renders 0 as uncapped.
        assert!(r.contains("tenant 3 pc: 64 -> 32"), "{r}");
        assert!(r.contains("tenant 3 pc: 32 -> uncapped"), "{r}");
        assert!(render_rollup(&events).contains("graceful degradation:"));
        // Deterministic: same events, same bytes.
        assert_eq!(r, render_degradation(&events));
    }
}
