//! Tenant model: cgroup-style principals with per-tenant KLOC budgets.
//!
//! The paper evaluates KLOCs on consolidated servers where several
//! applications share one kernel (§5, Fig. 4): one tenant's kernel-object
//! churn can evict another's hot objects from fast memory. This module
//! supplies the kernel-side bookkeeping for that scenario:
//!
//! * [`TenantSpec`] — a registered tenant: identity, QoS class, an
//!   optional fast-tier budget for its kernel pages (the simulator's
//!   analog of the paper's `sys_kloc_memsize`), and an optional
//!   page-cache cap.
//! * [`TenantStats`] — per-tenant counters (page-cache residency,
//!   self-evictions, cross-tenant evictions caused/suffered, socket
//!   bytes) reported per run.
//! * [`TenantTable`] — dense, [`TenantId::index`]-keyed storage plus a
//!   per-tenant FIFO ledger of cached pages that backs self-eviction.
//!
//! Attribution rules (documented in DESIGN.md §12): an inode is owned by
//! the tenant that created it; page-cache residency is charged to the
//! inode's owner regardless of who faulted the page in; slab pages are
//! shared infrastructure and stay owned by [`TenantId::DEFAULT`];
//! relocatable (page-backed) kernel frames are stamped with the
//! allocating tenant.

use std::collections::VecDeque;

use kloc_mem::TenantId;

use crate::vfs::InodeId;

/// Quality-of-service class of a tenant, in descending strictness.
///
/// The class is descriptive metadata carried into reports; enforcement
/// comes from the numeric budgets on [`TenantSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QosClass {
    /// Latency-critical: budgets sized to hold the whole hot set.
    Guaranteed,
    /// Throughput-oriented: budgeted, but sized for the average case.
    Burstable,
    /// Scavenger: runs in whatever is left over.
    BestEffort,
}

impl std::fmt::Display for QosClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QosClass::Guaranteed => write!(f, "guaranteed"),
            QosClass::Burstable => write!(f, "burstable"),
            QosClass::BestEffort => write!(f, "best-effort"),
        }
    }
}

/// A registered tenant: identity plus its resource envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Tenant identity ([`TenantId::DEFAULT`] is the shared kernel).
    pub id: TenantId,
    /// Human-readable label used in reports and tables.
    pub name: String,
    /// QoS class (descriptive; see [`QosClass`]).
    pub qos: QosClass,
    /// Cap on the tenant's *kernel* pages resident on the fast tier
    /// (frames, i.e. the `sys_kloc_memsize` analog). `None` = uncapped.
    /// Enforced by budget-aware policies at placement time.
    pub fast_budget_frames: Option<u64>,
    /// Cap on the tenant's page-cache pages (across all inodes it
    /// owns). `None` = uncapped. Enforced by the kernel at insert time
    /// through self-eviction: an over-cap tenant reclaims its own
    /// oldest page, never a neighbour's.
    pub pc_budget: Option<u64>,
}

/// Per-tenant counters, all monotonic except [`TenantStats::pc_resident`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Page-cache pages ever inserted for inodes this tenant owns.
    pub pc_inserted: u64,
    /// Page-cache pages currently resident for inodes this tenant owns.
    pub pc_resident: u64,
    /// Pages this tenant reclaimed from itself to honor its own
    /// [`TenantSpec::pc_budget`].
    pub pc_self_evicted: u64,
    /// Global-shrinker evictions where this tenant's allocation evicted
    /// a page owned by a *different* tenant.
    pub cross_evictions_caused: u64,
    /// Global-shrinker evictions where a *different* tenant's allocation
    /// evicted a page this tenant owned.
    pub cross_evictions_suffered: u64,
    /// Bytes this tenant sent on sockets.
    pub tx_bytes: u64,
    /// Bytes this tenant received from sockets.
    pub rx_bytes: u64,
    /// Pages evicted from this tenant by QoS-aware degradation: either
    /// preempted by QoS-ordered reclaim (lower classes pay first while
    /// a tier fault is active, DESIGN.md §13) or self-evicted to honor
    /// a mid-run budget shrink. Stays 0 outside degraded operation.
    pub preempted: u64,
}

/// Dense tenant registry: specs, stats, and the per-tenant page FIFO.
///
/// Everything is keyed by [`TenantId::index`] and grown on demand, so
/// single-tenant runs pay one lazily-grown slot for
/// [`TenantId::DEFAULT`] and nothing else. Iteration orders are vector
/// orders — deterministic by construction.
#[derive(Debug, Default)]
pub struct TenantTable {
    specs: Vec<Option<TenantSpec>>,
    stats: Vec<TenantStats>,
    /// Per-tenant FIFO of (inode, page index) insertions, used to pick
    /// self-eviction victims. Entries go stale when the global shrinker
    /// or an unlink removes the page first; stale entries are skipped
    /// lazily at pop time.
    ledgers: Vec<VecDeque<(InodeId, u64)>>,
}

impl TenantTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        TenantTable::default()
    }

    /// Registers (or replaces) a tenant spec.
    pub fn register(&mut self, spec: TenantSpec) {
        let i = spec.id.index();
        if i >= self.specs.len() {
            self.specs.resize(i + 1, None);
        }
        self.specs[i] = Some(spec);
    }

    /// The spec registered for `id`, if any.
    pub fn spec(&self, id: TenantId) -> Option<&TenantSpec> {
        self.specs.get(id.index())?.as_ref()
    }

    /// Registered specs in [`TenantId`] order.
    pub fn specs(&self) -> impl Iterator<Item = &TenantSpec> {
        self.specs.iter().flatten()
    }

    /// Number of registered tenants.
    pub fn registered(&self) -> usize {
        self.specs.iter().flatten().count()
    }

    /// The page-cache cap for `id` (`None` when unregistered or
    /// uncapped).
    pub fn pc_budget(&self, id: TenantId) -> Option<u64> {
        self.spec(id)?.pc_budget
    }

    /// A copy of `id`'s counters (zeros when the tenant never acted).
    pub fn stats(&self, id: TenantId) -> TenantStats {
        self.stats.get(id.index()).copied().unwrap_or_default()
    }

    /// Number of allocated stats slots (a dense upper bound on the
    /// tenant ids seen so far; used by the ksan recount).
    pub fn stats_len(&self) -> usize {
        self.stats.len()
    }

    /// Mutable counters for `id`, grown on demand.
    pub fn stats_mut(&mut self, id: TenantId) -> &mut TenantStats {
        let i = id.index();
        if i >= self.stats.len() {
            self.stats.resize(i + 1, TenantStats::default());
        }
        &mut self.stats[i]
    }

    /// Ids with any recorded activity, in [`TenantId`] order.
    pub fn active_ids(&self) -> impl Iterator<Item = TenantId> + '_ {
        let n = self.specs.len().max(self.stats.len());
        (0..n).filter_map(move |i| {
            let id = TenantId(i as u16);
            let used = self.specs.get(i).is_some_and(Option::is_some)
                || self
                    .stats
                    .get(i)
                    .is_some_and(|s| *s != TenantStats::default());
            used.then_some(id)
        })
    }

    /// Records a page-cache insertion for `owner` at (`ino`, `idx`).
    /// The FIFO ledger is only maintained for tenants with a
    /// [`TenantSpec::pc_budget`] — uncapped tenants (and single-tenant
    /// runs) never self-evict, so tracking their insert order would
    /// only grow memory.
    pub fn note_pc_insert(&mut self, owner: TenantId, ino: InodeId, idx: u64) {
        let capped = self.pc_budget(owner).is_some();
        let s = self.stats_mut(owner);
        s.pc_inserted += 1;
        s.pc_resident += 1;
        if capped {
            let i = owner.index();
            if i >= self.ledgers.len() {
                self.ledgers.resize_with(i + 1, VecDeque::new);
            }
            self.ledgers[i].push_back((ino, idx));
        }
    }

    /// Records `count` page-cache removals for `owner`.
    pub fn note_pc_removed(&mut self, owner: TenantId, count: u64) {
        let s = self.stats_mut(owner);
        debug_assert!(s.pc_resident >= count, "pc_resident underflow");
        s.pc_resident = s.pc_resident.saturating_sub(count);
    }

    /// Pops `owner`'s oldest ledger entry. The caller skips entries
    /// whose page is no longer cached (the ledger is append-only and
    /// not purged on removal).
    pub fn pop_oldest(&mut self, owner: TenantId) -> Option<(InodeId, u64)> {
        self.ledgers.get_mut(owner.index())?.pop_front()
    }

    /// Applies a `sys_kloc_memsize`-style mid-run resize to `id`'s
    /// budgets (`None` = uncapped). Returns `false` when `id` was never
    /// registered — resizing an unknown tenant is a configuration
    /// error, not a registration.
    ///
    /// Only the caps change here; enforcement is the caller's job
    /// (the kernel self-evicts gradually, DESIGN.md §13). One
    /// consequence of the capped-only ledger: a tenant resized from
    /// uncapped to capped has no insert history, so its pre-resize
    /// pages can only leave through the global shrinker or unlink —
    /// inserts from the resize onward are ledgered and enforced.
    pub fn resize_budget(
        &mut self,
        id: TenantId,
        pc_budget: Option<u64>,
        fast_budget_frames: Option<u64>,
    ) -> bool {
        let Some(spec) = self.specs.get_mut(id.index()).and_then(Option::as_mut) else {
            return false;
        };
        spec.pc_budget = pc_budget;
        spec.fast_budget_frames = fast_budget_frames;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u16, pc: Option<u64>) -> TenantSpec {
        TenantSpec {
            id: TenantId(id),
            name: format!("t{id}"),
            qos: QosClass::Burstable,
            fast_budget_frames: None,
            pc_budget: pc,
        }
    }

    #[test]
    fn register_and_lookup() {
        let mut t = TenantTable::new();
        t.register(spec(2, Some(8)));
        assert_eq!(t.registered(), 1);
        assert_eq!(t.spec(TenantId(2)).unwrap().name, "t2");
        assert_eq!(t.pc_budget(TenantId(2)), Some(8));
        assert_eq!(t.pc_budget(TenantId(0)), None);
        assert_eq!(t.spec(TenantId(9)), None);
    }

    #[test]
    fn stats_grow_on_demand_and_ledger_is_fifo() {
        let mut t = TenantTable::new();
        let id = TenantId(3);
        t.register(spec(3, Some(4)));
        assert_eq!(t.stats(id), TenantStats::default());
        t.note_pc_insert(id, InodeId(7), 0);
        t.note_pc_insert(id, InodeId(7), 1);
        assert_eq!(t.stats(id).pc_inserted, 2);
        assert_eq!(t.stats(id).pc_resident, 2);
        assert_eq!(t.pop_oldest(id), Some((InodeId(7), 0)));
        assert_eq!(t.pop_oldest(id), Some((InodeId(7), 1)));
        assert_eq!(t.pop_oldest(id), None);
        t.note_pc_removed(id, 2);
        assert_eq!(t.stats(id).pc_resident, 0);
    }

    #[test]
    fn uncapped_tenants_have_no_ledger() {
        let mut t = TenantTable::new();
        let id = TenantId(1);
        t.register(spec(1, None));
        t.note_pc_insert(id, InodeId(2), 0);
        assert_eq!(t.stats(id).pc_resident, 1);
        assert_eq!(t.pop_oldest(id), None, "no cap, no FIFO tracking");
    }

    #[test]
    fn active_ids_cover_specs_and_stats() {
        let mut t = TenantTable::new();
        t.register(spec(1, None));
        t.stats_mut(TenantId(4)).tx_bytes = 10;
        let ids: Vec<TenantId> = t.active_ids().collect();
        assert_eq!(ids, vec![TenantId(1), TenantId(4)]);
    }

    #[test]
    fn qos_display() {
        assert_eq!(QosClass::Guaranteed.to_string(), "guaranteed");
        assert_eq!(QosClass::BestEffort.to_string(), "best-effort");
    }

    #[test]
    fn resize_budget_updates_caps_and_rejects_unknown() {
        let mut t = TenantTable::new();
        t.register(spec(2, Some(8)));
        assert!(t.resize_budget(TenantId(2), Some(4), Some(16)));
        assert_eq!(t.pc_budget(TenantId(2)), Some(4));
        assert_eq!(t.spec(TenantId(2)).unwrap().fast_budget_frames, Some(16));
        // Growing back to uncapped.
        assert!(t.resize_budget(TenantId(2), None, None));
        assert_eq!(t.pc_budget(TenantId(2)), None);
        // Unknown tenants are a configuration error, not a registration.
        assert!(!t.resize_budget(TenantId(5), Some(1), None));
        assert_eq!(t.spec(TenantId(5)), None);
    }

    #[test]
    fn uncapped_to_capped_resize_ledgers_only_new_inserts() {
        let mut t = TenantTable::new();
        let id = TenantId(1);
        t.register(spec(1, None));
        t.note_pc_insert(id, InodeId(2), 0);
        assert!(t.resize_budget(id, Some(1), None));
        assert_eq!(t.pop_oldest(id), None, "pre-resize pages unledgered");
        t.note_pc_insert(id, InodeId(2), 1);
        assert_eq!(t.pop_oldest(id), Some((InodeId(2), 1)));
    }
}
