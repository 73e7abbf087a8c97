//! The trace event schema and its JSONL codec.
//!
//! Every event serializes to one JSON object per line with a fixed key
//! order: `t` (virtual nanoseconds since run start), `k` (the event
//! kind), then the kind's own fields in the order [`SCHEMA`] declares
//! them. The writer is hand-rolled so the workspace stays free of
//! registry dependencies, and the fixed order makes trace files
//! byte-comparable: two runs are identical iff their JSONL is.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Counter rollup flushed as one [`Event::Counters`] line at every phase
/// boundary. All fields are deltas since the previous flush, so summing
/// a run's `counters` events yields run totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Syscalls entered (all kinds).
    pub syscalls: u64,
    /// Page-cache lookups that hit a resident page.
    pub pc_hits: u64,
    /// Page-cache lookups that missed and went to backing storage.
    pub pc_misses: u64,
    /// Frames allocated (any tier).
    pub frame_allocs: u64,
    /// Frames allocated in the fastest tier (tier index 0).
    pub fast_allocs: u64,
    /// Frames freed.
    pub frame_frees: u64,
    /// Slab objects allocated.
    pub slab_allocs: u64,
    /// Slab objects freed.
    pub slab_frees: u64,
    /// Objects that joined a knode's member set.
    pub member_adds: u64,
    /// Objects that left a knode's member set.
    pub member_dels: u64,
    /// Allocations the KLOC placement policy diverted to slow memory.
    pub slow_diverts: u64,
    /// Pages issued by readahead.
    pub readahead_pages: u64,
}

impl Counters {
    /// True when every counter is zero (nothing to report).
    pub fn is_zero(&self) -> bool {
        *self == Counters::default()
    }
}

/// One structured trace event. See [`SCHEMA`] for the per-kind field
/// reference (names, units, emission sites) that DESIGN.md §7 mirrors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A simulation run started.
    RunBegin {
        /// Virtual nanoseconds since run start (always 0 here).
        t: u64,
        /// Workload label, e.g. `RocksDB`.
        workload: String,
        /// Policy label, e.g. `KLOCs`.
        policy: String,
        /// Compact platform descriptor, e.g. `two_tier:fast=1048576:bw=8`.
        platform: String,
        /// Workload RNG seed.
        seed: u64,
        /// Measured operations the run will execute.
        ops: u64,
    },
    /// A run phase (`setup`, `measured`, `teardown`) started.
    PhaseBegin {
        /// Virtual nanoseconds since run start.
        t: u64,
        /// Phase name.
        phase: String,
    },
    /// The run finished; `t` is the final virtual clock.
    RunEnd {
        /// Virtual nanoseconds since run start.
        t: u64,
        /// Measured operations completed.
        ops: u64,
    },
    /// Virtual time charged under one scope stack since the last flush.
    Attrib {
        /// Virtual nanoseconds since run start (flush time).
        t: u64,
        /// `;`-joined scope stack, flamegraph-fold style, e.g.
        /// `measured;write;journal`.
        stack: String,
        /// Virtual nanoseconds charged under this stack since the last
        /// flush.
        ns: u64,
    },
    /// Counter deltas since the last flush (see [`Counters`]).
    Counters {
        /// Virtual nanoseconds since run start (flush time).
        t: u64,
        /// The counter deltas.
        c: Counters,
    },
    /// One frame migrated between tiers.
    Migrate {
        /// Virtual nanoseconds since run start.
        t: u64,
        /// Frame id.
        frame: u64,
        /// Source tier index.
        from: u64,
        /// Destination tier index.
        to: u64,
        /// Page kind label, e.g. `page-cache`.
        kind: String,
        /// Foreground virtual-time cost of the move, nanoseconds.
        cost: u64,
    },
    /// The page-cache shrinker evicted one page.
    PcEvict {
        /// Virtual nanoseconds since run start.
        t: u64,
        /// Owning inode number.
        ino: u64,
        /// Page index within the file.
        idx: u64,
        /// 1 if the page was dirty (forced a writeback), else 0.
        dirty: u64,
    },
    /// The page-cache shrinker evicted a page across a tenant boundary:
    /// the tenant running the allocation that triggered reclaim is not
    /// the tenant owning the evicted page's inode. Never emitted in
    /// single-tenant runs, so existing traces are unaffected.
    TenantEvict {
        /// Virtual nanoseconds since run start.
        t: u64,
        /// Tenant whose allocation triggered the eviction.
        evictor: u64,
        /// Tenant owning the evicted page's inode.
        victim: u64,
        /// Owning inode number.
        ino: u64,
        /// Page index within the file.
        idx: u64,
    },
    /// Writeback flushed dirty pages of one inode.
    Writeback {
        /// Virtual nanoseconds since run start.
        t: u64,
        /// Inode whose pages were flushed.
        ino: u64,
        /// Pages written back in this batch.
        pages: u64,
    },
    /// The journal committed.
    JournalCommit {
        /// Virtual nanoseconds since run start.
        t: u64,
        /// Transaction heads folded into the commit.
        heads: u64,
        /// Metadata blocks written.
        blocks: u64,
    },
    /// A knode changed lifecycle state.
    Knode {
        /// Virtual nanoseconds since run start.
        t: u64,
        /// Inode number keying the knode.
        ino: u64,
        /// New state: `created`, `active`, `inactive`, or `destroyed`.
        state: String,
    },
    /// A KLOC-level migration decision executed, with the evidence that
    /// justified it and the knode's post-move tier residency.
    KlocMigrate {
        /// Virtual nanoseconds since run start.
        t: u64,
        /// Inode number keying the knode.
        ino: u64,
        /// Direction: `promote` or `demote`.
        dir: String,
        /// Mechanism: `enmasse` (whole knode) or `members` (granular).
        how: String,
        /// Global kmap epoch when the decision was taken.
        epoch: u64,
        /// Knode age in epochs at decision time (epoch - last touch).
        age: u64,
        /// Pages actually moved.
        moved: u64,
        /// Member frames resident in the fast tier after the move.
        fast: u64,
        /// Member frames resident in slow tiers after the move.
        slow: u64,
    },
    /// A tier's effective bandwidth changed (Optane interference model).
    Contention {
        /// Virtual nanoseconds since run start.
        t: u64,
        /// Tier index whose bandwidth changed.
        tier: u64,
        /// New bandwidth multiplier in thousandths (1000 = nominal).
        milli: u64,
    },
    /// An injected fault fired (kfault plan).
    Fault {
        /// Virtual nanoseconds since run start.
        t: u64,
        /// Fault class: `disk`, `tier`, `migrate`, or `crash`.
        kind: String,
        /// Detail: the disk op, tier fault kind and index, etc.
        info: String,
    },
    /// The blk-mq layer retried a failed I/O after backoff.
    Retry {
        /// Virtual nanoseconds since run start.
        t: u64,
        /// Disk operation being retried: `read`, `write`, or `fsync`.
        op: String,
        /// Retry attempt number (1-based).
        attempt: u64,
        /// Backoff charged to the virtual clock before this attempt.
        backoff: u64,
    },
    /// Journal recovery ran after a (simulated) crash.
    Recovery {
        /// Virtual nanoseconds since run start (crash instant).
        t: u64,
        /// Committed journal records replayed.
        replayed: u64,
        /// Torn or uncommitted records discarded.
        torn: u64,
        /// Durable data pages surviving recovery.
        pages: u64,
    },
    /// One tier-drain pass live-migrated resident frames off an
    /// offlining tier (kfault plan).
    Drain {
        /// Virtual nanoseconds since run start (end of the pass).
        t: u64,
        /// Tier index being drained.
        tier: u64,
        /// Frames migrated off the tier in this pass.
        moved: u64,
        /// Frames still resident on the tier after the pass.
        left: u64,
        /// Migration-fault retries absorbed during the pass.
        retries: u64,
        /// Foreground virtual-time cost charged by the pass, ns.
        cost: u64,
    },
    /// A QoS-ordered degradation action hit one tenant: the reclaim or
    /// resize machinery preempted this tenant because its class was the
    /// lowest-priority class still holding pages.
    Degrade {
        /// Virtual nanoseconds since run start.
        t: u64,
        /// Tenant that was degraded.
        tenant: u64,
        /// The tenant's QoS class (`guaranteed`/`burstable`/`best-effort`).
        qos: String,
        /// What happened: `reclaim` (QoS-ordered shrinker eviction) or
        /// `resize` (gradual self-eviction after a budget shrink).
        action: String,
        /// Pages taken from the tenant by this action.
        pages: u64,
    },
    /// A tenant budget was resized mid-run (`sys_kloc_memsize` analog).
    BudgetResize {
        /// Virtual nanoseconds since run start.
        t: u64,
        /// Tenant whose budget changed.
        tenant: u64,
        /// Which budget: `pc` (page-cache pages) or `fast` (fast-tier
        /// kernel frames).
        kind: String,
        /// Previous cap (0 = uncapped).
        from: u64,
        /// New cap (0 = uncapped).
        to: u64,
    },
}

/// Schema entry for one event kind: the `k` value, the field list in
/// serialization order as `(name, units)` pairs (excluding the common
/// `t`/`k` prefix), and the source file that emits it.
#[derive(Debug, Clone, Copy)]
pub struct EventSpec {
    /// The `k` field value.
    pub kind: &'static str,
    /// Fields after `t` and `k`, in serialization order, as
    /// `(name, units)` pairs. Units vocabulary: `ns`, `id`, `idx`,
    /// `count`, `pages`, `blocks`, `epochs`, `milli`, `bool`, `str`.
    pub fields: &'static [(&'static str, &'static str)],
    /// Workspace-relative source file that constructs the event.
    pub site: &'static str,
}

/// Field list shared by [`Event::Counters`] and the schema table.
pub const COUNTER_FIELDS: &[(&str, &str)] = &[
    ("syscalls", "count"),
    ("pc_hits", "count"),
    ("pc_misses", "count"),
    ("frame_allocs", "count"),
    ("fast_allocs", "count"),
    ("frame_frees", "count"),
    ("slab_allocs", "count"),
    ("slab_frees", "count"),
    ("member_adds", "count"),
    ("member_dels", "count"),
    ("slow_diverts", "count"),
    ("readahead_pages", "count"),
];

/// The full event schema, one entry per [`Event`] variant. DESIGN.md §7
/// renders this table and a test diffs the two, so runtime emission,
/// rustdoc, and the prose reference cannot drift apart.
pub const SCHEMA: &[EventSpec] = &[
    EventSpec {
        kind: "run_begin",
        fields: &[
            ("workload", "str"),
            ("policy", "str"),
            ("platform", "str"),
            ("seed", "id"),
            ("ops", "count"),
        ],
        site: "crates/sim/src/engine.rs",
    },
    EventSpec {
        kind: "phase_begin",
        fields: &[("phase", "str")],
        site: "crates/sim/src/engine.rs",
    },
    EventSpec {
        kind: "run_end",
        fields: &[("ops", "count")],
        site: "crates/sim/src/engine.rs",
    },
    EventSpec {
        kind: "attrib",
        fields: &[("stack", "str"), ("ns", "ns")],
        site: "crates/trace/src/recorder.rs",
    },
    EventSpec {
        kind: "counters",
        fields: COUNTER_FIELDS,
        site: "crates/trace/src/recorder.rs",
    },
    EventSpec {
        kind: "migrate",
        fields: &[
            ("frame", "id"),
            ("from", "idx"),
            ("to", "idx"),
            ("kind", "str"),
            ("cost", "ns"),
        ],
        site: "crates/mem/src/system.rs",
    },
    EventSpec {
        kind: "pc_evict",
        fields: &[("ino", "id"), ("idx", "idx"), ("dirty", "bool")],
        site: "crates/kernel/src/kernel.rs",
    },
    EventSpec {
        kind: "tenant_evict",
        fields: &[
            ("evictor", "id"),
            ("victim", "id"),
            ("ino", "id"),
            ("idx", "idx"),
        ],
        site: "crates/kernel/src/kernel.rs",
    },
    EventSpec {
        kind: "writeback",
        fields: &[("ino", "id"), ("pages", "pages")],
        site: "crates/kernel/src/kernel.rs",
    },
    EventSpec {
        kind: "journal_commit",
        fields: &[("heads", "count"), ("blocks", "blocks")],
        site: "crates/kernel/src/kernel.rs",
    },
    EventSpec {
        kind: "knode",
        fields: &[("ino", "id"), ("state", "str")],
        site: "crates/core/src/registry.rs",
    },
    EventSpec {
        kind: "kloc_migrate",
        fields: &[
            ("ino", "id"),
            ("dir", "str"),
            ("how", "str"),
            ("epoch", "epochs"),
            ("age", "epochs"),
            ("moved", "pages"),
            ("fast", "pages"),
            ("slow", "pages"),
        ],
        site: "crates/core/src/registry.rs",
    },
    EventSpec {
        kind: "contention",
        fields: &[("tier", "idx"), ("milli", "milli")],
        site: "crates/sim/src/engine.rs",
    },
    EventSpec {
        kind: "fault",
        fields: &[("kind", "str"), ("info", "str")],
        site: "crates/mem/src/system.rs",
    },
    EventSpec {
        kind: "retry",
        fields: &[("op", "str"), ("attempt", "count"), ("backoff", "ns")],
        site: "crates/kernel/src/kernel.rs",
    },
    EventSpec {
        kind: "recovery",
        fields: &[("replayed", "count"), ("torn", "count"), ("pages", "pages")],
        site: "crates/sim/src/crashsweep.rs",
    },
    EventSpec {
        kind: "drain",
        fields: &[
            ("tier", "idx"),
            ("moved", "pages"),
            ("left", "pages"),
            ("retries", "count"),
            ("cost", "ns"),
        ],
        site: "crates/mem/src/system.rs",
    },
    EventSpec {
        kind: "degrade",
        fields: &[
            ("tenant", "id"),
            ("qos", "str"),
            ("action", "str"),
            ("pages", "pages"),
        ],
        site: "crates/kernel/src/kernel.rs",
    },
    EventSpec {
        kind: "budget_resize",
        fields: &[
            ("tenant", "id"),
            ("kind", "str"),
            ("from", "count"),
            ("to", "count"),
        ],
        site: "crates/sim/src/engine.rs",
    },
];

impl Event {
    /// Every event kind string, in [`SCHEMA`] order.
    pub const ALL_KINDS: &'static [&'static str] = &[
        "run_begin",
        "phase_begin",
        "run_end",
        "attrib",
        "counters",
        "migrate",
        "pc_evict",
        "tenant_evict",
        "writeback",
        "journal_commit",
        "knode",
        "kloc_migrate",
        "contention",
        "fault",
        "retry",
        "recovery",
        "drain",
        "degrade",
        "budget_resize",
    ];

    /// The `k` field value for this event.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RunBegin { .. } => "run_begin",
            Event::PhaseBegin { .. } => "phase_begin",
            Event::RunEnd { .. } => "run_end",
            Event::Attrib { .. } => "attrib",
            Event::Counters { .. } => "counters",
            Event::Migrate { .. } => "migrate",
            Event::PcEvict { .. } => "pc_evict",
            Event::TenantEvict { .. } => "tenant_evict",
            Event::Writeback { .. } => "writeback",
            Event::JournalCommit { .. } => "journal_commit",
            Event::Knode { .. } => "knode",
            Event::KlocMigrate { .. } => "kloc_migrate",
            Event::Contention { .. } => "contention",
            Event::Fault { .. } => "fault",
            Event::Retry { .. } => "retry",
            Event::Recovery { .. } => "recovery",
            Event::Drain { .. } => "drain",
            Event::Degrade { .. } => "degrade",
            Event::BudgetResize { .. } => "budget_resize",
        }
    }

    /// The virtual timestamp (`t` field) of this event.
    pub fn t(&self) -> u64 {
        match self {
            Event::RunBegin { t, .. }
            | Event::PhaseBegin { t, .. }
            | Event::RunEnd { t, .. }
            | Event::Attrib { t, .. }
            | Event::Counters { t, .. }
            | Event::Migrate { t, .. }
            | Event::PcEvict { t, .. }
            | Event::TenantEvict { t, .. }
            | Event::Writeback { t, .. }
            | Event::JournalCommit { t, .. }
            | Event::Knode { t, .. }
            | Event::KlocMigrate { t, .. }
            | Event::Contention { t, .. }
            | Event::Fault { t, .. }
            | Event::Retry { t, .. }
            | Event::Recovery { t, .. }
            | Event::Drain { t, .. }
            | Event::Degrade { t, .. }
            | Event::BudgetResize { t, .. } => *t,
        }
    }

    /// Appends this event as one JSONL line (including the trailing
    /// newline) to `out`, with the fixed key order the schema defines.
    pub fn write_jsonl(&self, out: &mut String) {
        let mut w = LineWriter::begin(out, self.t(), self.kind());
        match self {
            Event::RunBegin {
                workload,
                policy,
                platform,
                seed,
                ops,
                ..
            } => {
                w.str("workload", workload);
                w.str("policy", policy);
                w.str("platform", platform);
                w.num("seed", *seed);
                w.num("ops", *ops);
            }
            Event::PhaseBegin { phase, .. } => {
                w.str("phase", phase);
            }
            Event::RunEnd { ops, .. } => {
                w.num("ops", *ops);
            }
            Event::Attrib { stack, ns, .. } => {
                w.str("stack", stack);
                w.num("ns", *ns);
            }
            Event::Counters { c, .. } => {
                for (name, value) in COUNTER_FIELDS.iter().zip(c.values()) {
                    w.num(name.0, value);
                }
            }
            Event::Migrate {
                frame,
                from,
                to,
                kind,
                cost,
                ..
            } => {
                w.num("frame", *frame);
                w.num("from", *from);
                w.num("to", *to);
                w.str("kind", kind);
                w.num("cost", *cost);
            }
            Event::PcEvict {
                ino, idx, dirty, ..
            } => {
                w.num("ino", *ino);
                w.num("idx", *idx);
                w.num("dirty", *dirty);
            }
            Event::TenantEvict {
                evictor,
                victim,
                ino,
                idx,
                ..
            } => {
                w.num("evictor", *evictor);
                w.num("victim", *victim);
                w.num("ino", *ino);
                w.num("idx", *idx);
            }
            Event::Writeback { ino, pages, .. } => {
                w.num("ino", *ino);
                w.num("pages", *pages);
            }
            Event::JournalCommit { heads, blocks, .. } => {
                w.num("heads", *heads);
                w.num("blocks", *blocks);
            }
            Event::Knode { ino, state, .. } => {
                w.num("ino", *ino);
                w.str("state", state);
            }
            Event::KlocMigrate {
                ino,
                dir,
                how,
                epoch,
                age,
                moved,
                fast,
                slow,
                ..
            } => {
                w.num("ino", *ino);
                w.str("dir", dir);
                w.str("how", how);
                w.num("epoch", *epoch);
                w.num("age", *age);
                w.num("moved", *moved);
                w.num("fast", *fast);
                w.num("slow", *slow);
            }
            Event::Contention { tier, milli, .. } => {
                w.num("tier", *tier);
                w.num("milli", *milli);
            }
            Event::Fault { kind, info, .. } => {
                w.str("kind", kind);
                w.str("info", info);
            }
            Event::Retry {
                op,
                attempt,
                backoff,
                ..
            } => {
                w.str("op", op);
                w.num("attempt", *attempt);
                w.num("backoff", *backoff);
            }
            Event::Recovery {
                replayed,
                torn,
                pages,
                ..
            } => {
                w.num("replayed", *replayed);
                w.num("torn", *torn);
                w.num("pages", *pages);
            }
            Event::Drain {
                tier,
                moved,
                left,
                retries,
                cost,
                ..
            } => {
                w.num("tier", *tier);
                w.num("moved", *moved);
                w.num("left", *left);
                w.num("retries", *retries);
                w.num("cost", *cost);
            }
            Event::Degrade {
                tenant,
                qos,
                action,
                pages,
                ..
            } => {
                w.num("tenant", *tenant);
                w.str("qos", qos);
                w.str("action", action);
                w.num("pages", *pages);
            }
            Event::BudgetResize {
                tenant,
                kind,
                from,
                to,
                ..
            } => {
                w.num("tenant", *tenant);
                w.str("kind", kind);
                w.num("from", *from);
                w.num("to", *to);
            }
        }
        w.end();
    }

    /// Serializes this event to one owned JSONL line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.write_jsonl(&mut out);
        out
    }

    /// Parses one JSONL line back into an [`Event`]. Tolerates any key
    /// order so hand-edited fixtures still load; unknown kinds and
    /// missing fields are errors.
    pub fn parse_line(line: &str) -> Result<Event, ParseError> {
        let fields = parse_flat_object(line)?;
        let num = |key: &str| -> Result<u64, ParseError> {
            match fields.get(key) {
                Some(Val::Num(n)) => Ok(*n),
                Some(Val::Str(_)) => Err(ParseError::new(format!("field `{key}` is not a number"))),
                None => Err(ParseError::new(format!("missing field `{key}`"))),
            }
        };
        let string = |key: &str| -> Result<String, ParseError> {
            match fields.get(key) {
                Some(Val::Str(s)) => Ok(s.clone()),
                Some(Val::Num(_)) => Err(ParseError::new(format!("field `{key}` is not a string"))),
                None => Err(ParseError::new(format!("missing field `{key}`"))),
            }
        };
        let t = num("t")?;
        let kind = string("k")?;
        Ok(match kind.as_str() {
            "run_begin" => Event::RunBegin {
                t,
                workload: string("workload")?,
                policy: string("policy")?,
                platform: string("platform")?,
                seed: num("seed")?,
                ops: num("ops")?,
            },
            "phase_begin" => Event::PhaseBegin {
                t,
                phase: string("phase")?,
            },
            "run_end" => Event::RunEnd {
                t,
                ops: num("ops")?,
            },
            "attrib" => Event::Attrib {
                t,
                stack: string("stack")?,
                ns: num("ns")?,
            },
            "counters" => {
                let mut c = Counters::default();
                for (slot, (name, _)) in c.values_mut().into_iter().zip(COUNTER_FIELDS) {
                    *slot = num(name)?;
                }
                Event::Counters { t, c }
            }
            "migrate" => Event::Migrate {
                t,
                frame: num("frame")?,
                from: num("from")?,
                to: num("to")?,
                kind: string("kind")?,
                cost: num("cost")?,
            },
            "pc_evict" => Event::PcEvict {
                t,
                ino: num("ino")?,
                idx: num("idx")?,
                dirty: num("dirty")?,
            },
            "tenant_evict" => Event::TenantEvict {
                t,
                evictor: num("evictor")?,
                victim: num("victim")?,
                ino: num("ino")?,
                idx: num("idx")?,
            },
            "writeback" => Event::Writeback {
                t,
                ino: num("ino")?,
                pages: num("pages")?,
            },
            "journal_commit" => Event::JournalCommit {
                t,
                heads: num("heads")?,
                blocks: num("blocks")?,
            },
            "knode" => Event::Knode {
                t,
                ino: num("ino")?,
                state: string("state")?,
            },
            "kloc_migrate" => Event::KlocMigrate {
                t,
                ino: num("ino")?,
                dir: string("dir")?,
                how: string("how")?,
                epoch: num("epoch")?,
                age: num("age")?,
                moved: num("moved")?,
                fast: num("fast")?,
                slow: num("slow")?,
            },
            "contention" => Event::Contention {
                t,
                tier: num("tier")?,
                milli: num("milli")?,
            },
            "fault" => Event::Fault {
                t,
                kind: string("kind")?,
                info: string("info")?,
            },
            "retry" => Event::Retry {
                t,
                op: string("op")?,
                attempt: num("attempt")?,
                backoff: num("backoff")?,
            },
            "recovery" => Event::Recovery {
                t,
                replayed: num("replayed")?,
                torn: num("torn")?,
                pages: num("pages")?,
            },
            "drain" => Event::Drain {
                t,
                tier: num("tier")?,
                moved: num("moved")?,
                left: num("left")?,
                retries: num("retries")?,
                cost: num("cost")?,
            },
            "degrade" => Event::Degrade {
                t,
                tenant: num("tenant")?,
                qos: string("qos")?,
                action: string("action")?,
                pages: num("pages")?,
            },
            "budget_resize" => Event::BudgetResize {
                t,
                tenant: num("tenant")?,
                kind: string("kind")?,
                from: num("from")?,
                to: num("to")?,
            },
            other => return Err(ParseError::new(format!("unknown event kind `{other}`"))),
        })
    }

    /// Parses a whole JSONL document, skipping blank lines. The error
    /// carries the 1-based line number of the first bad line.
    pub fn parse_all(text: &str) -> Result<Vec<Event>, ParseError> {
        let mut out = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match Event::parse_line(line) {
                Ok(ev) => out.push(ev),
                Err(e) => {
                    return Err(ParseError::new(format!("line {}: {}", idx + 1, e.message)));
                }
            }
        }
        Ok(out)
    }
}

impl Counters {
    /// Counter values in [`COUNTER_FIELDS`] order.
    pub fn values(&self) -> [u64; 12] {
        [
            self.syscalls,
            self.pc_hits,
            self.pc_misses,
            self.frame_allocs,
            self.fast_allocs,
            self.frame_frees,
            self.slab_allocs,
            self.slab_frees,
            self.member_adds,
            self.member_dels,
            self.slow_diverts,
            self.readahead_pages,
        ]
    }

    /// Mutable counter slots in [`COUNTER_FIELDS`] order.
    pub fn values_mut(&mut self) -> [&mut u64; 12] {
        [
            &mut self.syscalls,
            &mut self.pc_hits,
            &mut self.pc_misses,
            &mut self.frame_allocs,
            &mut self.fast_allocs,
            &mut self.frame_frees,
            &mut self.slab_allocs,
            &mut self.slab_frees,
            &mut self.member_adds,
            &mut self.member_dels,
            &mut self.slow_diverts,
            &mut self.readahead_pages,
        ]
    }

    /// Adds every counter of `other` into `self`.
    pub fn add(&mut self, other: &Counters) {
        for (slot, v) in self.values_mut().into_iter().zip(other.values()) {
            *slot += v;
        }
    }
}

/// Error from [`Event::parse_line`] / [`Event::parse_all`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of what failed to parse.
    pub message: String,
}

impl ParseError {
    fn new(message: String) -> Self {
        ParseError { message }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ParseError {}

/// A parsed flat JSON value: this codec only supports one level of
/// string/number fields, which is all the schema uses.
enum Val {
    Num(u64),
    Str(String),
}

/// Parses `{"key":value,...}` with string/u64 values only.
fn parse_flat_object(line: &str) -> Result<BTreeMap<String, Val>, ParseError> {
    let mut fields = BTreeMap::new();
    let bytes: Vec<char> = line.trim().chars().collect();
    let n = bytes.len();
    if n < 2 || bytes[0] != '{' || bytes[n - 1] != '}' {
        return Err(ParseError::new("not a JSON object".to_owned()));
    }
    let mut i = 1;
    let skip_ws = |i: &mut usize| {
        while *i < n - 1 && bytes[*i].is_whitespace() {
            *i += 1;
        }
    };
    let parse_string = |i: &mut usize| -> Result<String, ParseError> {
        if bytes[*i] != '"' {
            return Err(ParseError::new(format!(
                "expected `\"` at column {}",
                *i + 1
            )));
        }
        *i += 1;
        let mut s = String::new();
        while *i < n - 1 {
            match bytes[*i] {
                '"' => {
                    *i += 1;
                    return Ok(s);
                }
                '\\' => {
                    *i += 1;
                    let esc = *bytes
                        .get(*i)
                        .ok_or_else(|| ParseError::new("truncated escape".to_owned()))?;
                    match esc {
                        '"' => s.push('"'),
                        '\\' => s.push('\\'),
                        '/' => s.push('/'),
                        'n' => s.push('\n'),
                        't' => s.push('\t'),
                        'r' => s.push('\r'),
                        'u' => {
                            let hex: String = bytes
                                .get(*i + 1..*i + 5)
                                .ok_or_else(|| ParseError::new("truncated \\u escape".to_owned()))?
                                .iter()
                                .collect();
                            let code = u32::from_str_radix(&hex, 16)
                                .map_err(|_| ParseError::new(format!("bad \\u escape `{hex}`")))?;
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| ParseError::new("bad codepoint".to_owned()))?,
                            );
                            *i += 4;
                        }
                        other => {
                            return Err(ParseError::new(format!("unsupported escape `\\{other}`")))
                        }
                    }
                    *i += 1;
                }
                c => {
                    s.push(c);
                    *i += 1;
                }
            }
        }
        Err(ParseError::new("unterminated string".to_owned()))
    };
    loop {
        skip_ws(&mut i);
        if i >= n - 1 {
            break;
        }
        let key = parse_string(&mut i)?;
        skip_ws(&mut i);
        if i >= n - 1 || bytes[i] != ':' {
            return Err(ParseError::new(format!("expected `:` after key `{key}`")));
        }
        i += 1;
        skip_ws(&mut i);
        if i >= n - 1 {
            return Err(ParseError::new(format!("missing value for key `{key}`")));
        }
        let val = if bytes[i] == '"' {
            Val::Str(parse_string(&mut i)?)
        } else {
            let start = i;
            while i < n - 1 && bytes[i].is_ascii_digit() {
                i += 1;
            }
            let digits: String = bytes[start..i].iter().collect();
            Val::Num(
                digits
                    .parse::<u64>()
                    .map_err(|_| ParseError::new(format!("bad number for key `{key}`")))?,
            )
        };
        fields.insert(key, val);
        skip_ws(&mut i);
        if i < n - 1 {
            if bytes[i] != ',' {
                return Err(ParseError::new(format!("expected `,` at column {}", i + 1)));
            }
            i += 1;
        }
    }
    Ok(fields)
}

/// Incremental writer for one JSONL line with the fixed key order.
struct LineWriter<'a> {
    out: &'a mut String,
}

impl<'a> LineWriter<'a> {
    fn begin(out: &'a mut String, t: u64, kind: &str) -> Self {
        let _ = write!(out, "{{\"t\":{t},\"k\":\"{kind}\"");
        LineWriter { out }
    }

    fn num(&mut self, key: &str, value: u64) {
        let _ = write!(self.out, ",\"{key}\":{value}");
    }

    fn str(&mut self, key: &str, value: &str) {
        let _ = write!(self.out, ",\"{key}\":\"");
        for c in value.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\t' => self.out.push_str("\\t"),
                '\r' => self.out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    fn end(self) {
        self.out.push_str("}\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::RunBegin {
                t: 0,
                workload: "RocksDB".to_owned(),
                policy: "KLOCs".to_owned(),
                platform: "two_tier:fast=1048576:bw=8".to_owned(),
                seed: 0x51_0C5,
                ops: 1500,
            },
            Event::PhaseBegin {
                t: 0,
                phase: "setup".to_owned(),
            },
            Event::Attrib {
                t: 10,
                stack: "setup;write;journal".to_owned(),
                ns: 1234,
            },
            Event::Counters {
                t: 10,
                c: Counters {
                    syscalls: 3,
                    pc_hits: 2,
                    ..Counters::default()
                },
            },
            Event::Migrate {
                t: 20,
                frame: 7,
                from: 1,
                to: 0,
                kind: "page-cache".to_owned(),
                cost: 640,
            },
            Event::PcEvict {
                t: 21,
                ino: 4,
                idx: 9,
                dirty: 1,
            },
            Event::TenantEvict {
                t: 21,
                evictor: 2,
                victim: 0,
                ino: 4,
                idx: 9,
            },
            Event::Writeback {
                t: 22,
                ino: 4,
                pages: 32,
            },
            Event::JournalCommit {
                t: 23,
                heads: 2,
                blocks: 5,
            },
            Event::Knode {
                t: 24,
                ino: 4,
                state: "inactive".to_owned(),
            },
            Event::KlocMigrate {
                t: 25,
                ino: 4,
                dir: "demote".to_owned(),
                how: "enmasse".to_owned(),
                epoch: 12,
                age: 3,
                moved: 17,
                fast: 0,
                slow: 17,
            },
            Event::Contention {
                t: 26,
                tier: 1,
                milli: 400,
            },
            Event::Fault {
                t: 27,
                kind: "disk".to_owned(),
                info: "write".to_owned(),
            },
            Event::Retry {
                t: 28,
                op: "write".to_owned(),
                attempt: 1,
                backoff: 50_000,
            },
            Event::Recovery {
                t: 29,
                replayed: 6,
                torn: 1,
                pages: 40,
            },
            Event::Drain {
                t: 30,
                tier: 0,
                moved: 48,
                left: 16,
                retries: 2,
                cost: 96_000,
            },
            Event::Degrade {
                t: 31,
                tenant: 3,
                qos: "best-effort".to_owned(),
                action: "reclaim".to_owned(),
                pages: 1,
            },
            Event::BudgetResize {
                t: 32,
                tenant: 3,
                kind: "pc".to_owned(),
                from: 64,
                to: 32,
            },
            Event::RunEnd { t: 33, ops: 1500 },
        ]
    }

    #[test]
    fn roundtrip_every_kind() {
        let events = sample_events();
        assert_eq!(events.len(), Event::ALL_KINDS.len());
        for ev in &events {
            let line = ev.to_jsonl();
            assert!(line.ends_with('\n'));
            let back = Event::parse_line(line.trim_end()).expect("parse");
            assert_eq!(&back, ev, "roundtrip failed for {line}");
        }
    }

    #[test]
    fn parse_all_reports_line_numbers() {
        let mut doc = String::new();
        for ev in sample_events() {
            ev.write_jsonl(&mut doc);
        }
        let parsed = Event::parse_all(&doc).expect("parse_all");
        assert_eq!(parsed, sample_events());
        let bad = format!("{doc}{{\"t\":1,\"k\":\"nope\"}}\n");
        let err = Event::parse_all(&bad).unwrap_err();
        assert!(err.message.contains("line 20"), "{}", err.message);
        assert!(err.message.contains("nope"), "{}", err.message);
    }

    #[test]
    fn string_escaping_roundtrips() {
        let ev = Event::Knode {
            t: 1,
            ino: 2,
            state: "we\"ird\\st\nate\u{1}".to_owned(),
        };
        let line = ev.to_jsonl();
        assert_eq!(Event::parse_line(line.trim_end()).unwrap(), ev);
    }

    #[test]
    fn schema_covers_every_kind_in_order() {
        let schema_kinds: Vec<&str> = SCHEMA.iter().map(|s| s.kind).collect();
        assert_eq!(schema_kinds, Event::ALL_KINDS);
        for ev in sample_events() {
            let spec = SCHEMA.iter().find(|s| s.kind == ev.kind()).unwrap();
            // Serialized key order must match the schema's field order.
            let line = ev.to_jsonl();
            let mut last = 0;
            for key in ["t", "k"]
                .into_iter()
                .chain(spec.fields.iter().map(|(n, _)| *n))
            {
                let marker = format!("\"{key}\":");
                let pos = line
                    .find(&marker)
                    .unwrap_or_else(|| panic!("missing key `{key}` in {line}"));
                assert!(pos >= last, "key `{key}` out of order in {line}");
                last = pos;
            }
        }
    }

    #[test]
    fn tolerates_reordered_keys_and_blank_lines() {
        let doc = "\n{\"k\":\"run_end\",\"ops\":5,\"t\":9}\n\n";
        let parsed = Event::parse_all(doc).unwrap();
        assert_eq!(parsed, vec![Event::RunEnd { t: 9, ops: 5 }]);
    }
}
