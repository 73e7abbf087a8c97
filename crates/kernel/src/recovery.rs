//! Journal crash recovery and the crash-consistency checker.
//!
//! The simulated machine can crash at an arbitrary virtual instant or at
//! a chosen journal commit (kfault, see [`kloc_mem::fault`]). Everything
//! volatile — the page cache, the running transaction, every kernel
//! object — is lost; what survives is the [`DurableStore`]: data pages
//! the kernel had submitted to the disk, and journal records with
//! however many of their blocks reached the journal area. [`recover`]
//! replays the store the way jbd2 does — committed records in order,
//! stopping at the first torn (incomplete) record — and [`check`]
//! compares the result against the [`Promise`], the oracle of everything
//! a successful `fsync` guaranteed: no promised page may be lost, no
//! committed record skipped, and nothing from a torn record may survive
//! replay.
//!
//! The bookkeeping is maintained unconditionally, so the recovery path
//! is testable without any fault plan; only crash *injection* needs one
//! installed. It charges no virtual time, and its host cost is a dense
//! [`PageVersions`] store per flushed page (O(1) amortised) and, per
//! successful `fsync`, an element-wise max over that inode's versions.
//! The ordered `(inode, page)` view is built only by [`recover`].

use std::collections::BTreeMap;
use std::fmt;

use crate::journal::MetaUpdate;
use crate::vfs::InodeId;

/// One journal record as it reached the disk: the metadata effects of
/// one committed transaction plus how many of its blocks were written
/// before the machine (possibly) died.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Metadata effects of the transaction, in journaling order.
    pub updates: Vec<(InodeId, MetaUpdate)>,
    /// Journal blocks the commit needed (descriptor + data + commit).
    pub blocks_total: u32,
    /// Journal blocks durably written; `< blocks_total` means the
    /// record is torn and must not be replayed.
    pub blocks_written: u32,
}

impl JournalRecord {
    /// Whether every block of the record reached the disk.
    pub fn is_complete(&self) -> bool {
        self.blocks_written >= self.blocks_total
    }
}

/// A version per `(inode, page index)`, kept as one vector of page
/// versions per inode number. Inode numbers are handed out
/// sequentially and file pages are written from offset 0 up, so both
/// levels stay dense.
///
/// Version 0 marks an absent page: every stored version is at least 1
/// (a page is dirtied, which makes its version at least 1, before
/// writeback submits it), and [`PageVersions::raise`] asserts so.
/// Iteration runs in `(inode, page index)` order, the order of the
/// `BTreeMap` that [`PageVersions::to_map`] builds.
#[derive(Clone, Default)]
pub struct PageVersions {
    /// `by_inode[ino][idx]`: version of page `idx` of inode `ino`.
    by_inode: Vec<Vec<u64>>,
}

impl PageVersions {
    /// Number of present pages.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether no page is present.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// One inode's versions, indexed by page (0 = absent).
    pub fn inode(&self, ino: InodeId) -> &[u64] {
        self.by_inode.get(ino.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// The version vector of `ino`, grown to at least `pages` entries.
    fn inode_mut(&mut self, ino: InodeId, pages: usize) -> &mut Vec<u64> {
        let i = ino.0 as usize;
        if self.by_inode.len() <= i {
            self.by_inode.resize_with(i + 1, Vec::new);
        }
        let versions = &mut self.by_inode[i];
        if versions.len() < pages {
            versions.resize(pages, 0);
        }
        versions
    }

    /// Raises `(ino, idx)` to at least `version`, inserting it if
    /// absent.
    ///
    /// # Panics
    /// Panics if `version` is 0, which would not mark the page present.
    pub fn raise(&mut self, ino: InodeId, idx: u64, version: u64) {
        assert!(version >= 1, "page versions start at 1");
        let idx = idx as usize;
        let slot = &mut self.inode_mut(ino, idx + 1)[idx];
        *slot = (*slot).max(version);
    }

    /// Raises every page of `ino` to at least its version in
    /// `versions` (indexed by page, 0 = absent): an element-wise max.
    pub fn raise_inode(&mut self, ino: InodeId, versions: &[u64]) {
        if versions.is_empty() {
            return;
        }
        for (slot, &v) in self.inode_mut(ino, versions.len()).iter_mut().zip(versions) {
            *slot = (*slot).max(v);
        }
    }

    /// Present entries, in `(inode, page index)` order.
    pub fn iter(&self) -> impl Iterator<Item = ((InodeId, u64), u64)> + '_ {
        self.by_inode
            .iter()
            .enumerate()
            .flat_map(|(ino, versions)| {
                versions
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != 0)
                    .map(move |(idx, &v)| ((InodeId(ino as u64), idx as u64), v))
            })
    }

    /// The ordered map view: `(inode, page index) -> version`.
    pub fn to_map(&self) -> BTreeMap<(InodeId, u64), u64> {
        self.iter().collect()
    }
}

impl fmt::Debug for PageVersions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl FromIterator<((InodeId, u64), u64)> for PageVersions {
    fn from_iter<I: IntoIterator<Item = ((InodeId, u64), u64)>>(iter: I) -> Self {
        let mut pages = PageVersions::default();
        for ((ino, idx), version) in iter {
            pages.raise(ino, idx, version);
        }
        pages
    }
}

/// What survives a crash: data pages by submission version, and the
/// journal area. Data pages are durable once writeback *submits* them
/// (the device queue drains in bounded time and the simulation has no
/// device-cache loss model); only journal commits can tear.
#[derive(Debug, Clone, Default)]
pub struct DurableStore {
    /// `(inode, page index) ->` highest content version submitted to
    /// the disk.
    pub pages: PageVersions,
    /// Journal records in commit order.
    pub journal: Vec<JournalRecord>,
}

impl DurableStore {
    /// Records a data page submitted to the disk at `version` (at
    /// least 1; see [`PageVersions`]).
    pub fn record_page(&mut self, ino: InodeId, idx: u64, version: u64) {
        self.pages.raise(ino, idx, version);
    }
}

/// The fsync oracle: everything a successfully returned `fsync`
/// guaranteed durable. Grows monotonically; entries survive unlink
/// (conservative — a checker that forgets promises can miss losses).
#[derive(Debug, Clone, Default)]
pub struct Promise {
    /// Promised `(inode, page index) ->` minimum durable version.
    pub pages: PageVersions,
    /// Complete journal records at the last successful fsync; recovery
    /// must replay at least this many.
    pub committed_records: usize,
}

impl Promise {
    /// Records a successful `fsync` of `ino`: every page of `ino` on
    /// the disk is promised at its durable version, and the
    /// `complete_records` complete journal records must replay.
    pub fn record_fsync(&mut self, durable: &DurableStore, ino: InodeId, complete_records: usize) {
        self.pages.raise_inode(ino, durable.pages.inode(ino));
        self.committed_records = complete_records;
    }
}

/// Per-inode metadata reconstructed by journal replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InodeMeta {
    /// Size in bytes from the last replayed `Size` update.
    pub size: u64,
}

/// Filesystem state after crash recovery.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveredState {
    /// Metadata of inodes that exist after replay.
    pub meta: BTreeMap<InodeId, InodeMeta>,
    /// Recovered data pages by version (the durable pages).
    pub pages: BTreeMap<(InodeId, u64), u64>,
    /// Journal records replayed.
    pub replayed: usize,
    /// Torn records discarded (0 or 1: replay stops at the first).
    pub torn: usize,
}

/// One crash-consistency violation found by [`check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashViolation {
    /// A page a successful fsync promised durable is missing or stale.
    LostPage {
        /// Owning inode.
        ino: InodeId,
        /// Page index.
        idx: u64,
        /// Version the fsync promised.
        promised: u64,
        /// Version actually recovered (`None` = page gone).
        recovered: Option<u64>,
    },
    /// Recovery replayed fewer complete records than fsync promised.
    LostCommit {
        /// Records the last successful fsync had committed.
        promised: usize,
        /// Records recovery actually replayed.
        replayed: usize,
    },
    /// Recovered metadata contains effects replay should not have
    /// applied (a torn record leaked through).
    TornApplied {
        /// Inode with unexpected metadata.
        ino: InodeId,
    },
    /// Recovered metadata misses or mangles a committed effect.
    StaleMeta {
        /// Affected inode.
        ino: InodeId,
        /// Metadata replaying the committed records yields.
        expected: Option<InodeMeta>,
        /// Metadata recovery produced.
        actual: Option<InodeMeta>,
    },
}

impl fmt::Display for CrashViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrashViolation::LostPage {
                ino,
                idx,
                promised,
                recovered,
            } => write!(
                f,
                "lost fsync'd page: {ino} page {idx} promised v{promised}, recovered {recovered:?}"
            ),
            CrashViolation::LostCommit { promised, replayed } => write!(
                f,
                "lost commit: fsync promised {promised} records, replay applied {replayed}"
            ),
            CrashViolation::TornApplied { ino } => {
                write!(
                    f,
                    "torn commit applied: {ino} has metadata replay never committed"
                )
            }
            CrashViolation::StaleMeta {
                ino,
                expected,
                actual,
            } => write!(
                f,
                "stale metadata after replay: {ino} expected {expected:?}, got {actual:?}"
            ),
        }
    }
}

/// Replays one record's updates into a metadata map.
fn apply(meta: &mut BTreeMap<InodeId, InodeMeta>, updates: &[(InodeId, MetaUpdate)]) {
    for &(ino, update) in updates {
        match update {
            MetaUpdate::Create => {
                meta.insert(ino, InodeMeta { size: 0 });
            }
            MetaUpdate::Size(bytes) => {
                meta.entry(ino).or_insert(InodeMeta { size: 0 }).size = bytes;
            }
            MetaUpdate::Unlink => {
                meta.remove(&ino);
            }
            MetaUpdate::Touch => {}
        }
    }
}

/// Recovers a crashed machine from its durable store: data pages carry
/// over, and journal records replay in commit order until the first
/// torn record (jbd2 semantics — a torn record and everything after it
/// is discarded).
pub fn recover(durable: &DurableStore) -> RecoveredState {
    let mut state = RecoveredState {
        pages: durable.pages.to_map(),
        ..RecoveredState::default()
    };
    for record in &durable.journal {
        if !record.is_complete() {
            state.torn = 1;
            break;
        }
        apply(&mut state.meta, &record.updates);
        state.replayed += 1;
    }
    state
}

/// Verifies a recovered state against the durable store and the fsync
/// promise. Returns every violation found (empty = consistent).
///
/// The checker is an independent oracle: it re-derives the expected
/// metadata from the durable journal itself rather than trusting
/// [`recover`]'s output, so a recovery bug (applying a torn record,
/// skipping a committed one) is caught even though both read the same
/// store.
pub fn check(
    durable: &DurableStore,
    promise: &Promise,
    recovered: &RecoveredState,
) -> Vec<CrashViolation> {
    let mut out = Vec::new();

    // 1. No fsync'd data lost: every promised page recovered at >= the
    //    promised version.
    for ((ino, idx), promised) in promise.pages.iter() {
        let got = recovered.pages.get(&(ino, idx)).copied();
        if got.is_none_or(|v| v < promised) {
            out.push(CrashViolation::LostPage {
                ino,
                idx,
                promised,
                recovered: got,
            });
        }
    }

    // 2. No committed metadata lost: at least the promised record count
    //    replayed. (Records an fsync returned for are complete by
    //    construction, so replay cannot legitimately stop short.)
    if recovered.replayed < promise.committed_records {
        out.push(CrashViolation::LostCommit {
            promised: promise.committed_records,
            replayed: recovered.replayed,
        });
    }

    // 3. Nothing torn survives and nothing committed is mangled:
    //    independently replay the complete prefix of the journal and
    //    diff against the recovered metadata.
    let mut expected: BTreeMap<InodeId, InodeMeta> = BTreeMap::new();
    for record in &durable.journal {
        if !record.is_complete() {
            break;
        }
        apply(&mut expected, &record.updates);
    }
    for (&ino, &meta) in &recovered.meta {
        if !expected.contains_key(&ino) {
            out.push(CrashViolation::TornApplied { ino });
        } else if expected[&ino] != meta {
            out.push(CrashViolation::StaleMeta {
                ino,
                expected: Some(expected[&ino]),
                actual: Some(meta),
            });
        }
    }
    for (&ino, &meta) in &expected {
        if !recovered.meta.contains_key(&ino) {
            out.push(CrashViolation::StaleMeta {
                ino,
                expected: Some(meta),
                actual: None,
            });
        }
    }
    out
}

/// Ways [`recover_breaking`] corrupts the recovery process, for checker
/// self-tests (the `ksan_break_*` pattern: prove each violation class
/// is actually detected).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakMode {
    /// Drop one fsync-promised page from the recovered data.
    LosePromisedPage,
    /// Replay a torn record as if it were complete.
    ApplyTorn,
    /// Skip the last committed record during replay.
    SkipLastCommitted,
}

/// Corruption hook for checker self-tests: recovers wrongly on purpose.
/// Mirrors `ksan_break_*` — the store is never corrupted (the checker
/// replays the same store, so store corruption would be invisible);
/// instead the *recovery process* misbehaves in a controlled way.
#[doc(hidden)]
pub fn recover_breaking(durable: &DurableStore, mode: BreakMode) -> RecoveredState {
    let mut state = RecoveredState {
        pages: durable.pages.to_map(),
        ..RecoveredState::default()
    };
    let complete = durable.journal.iter().filter(|r| r.is_complete()).count();
    for record in &durable.journal {
        if !record.is_complete() {
            if mode == BreakMode::ApplyTorn {
                apply(&mut state.meta, &record.updates);
            }
            state.torn = 1;
            break;
        }
        if mode == BreakMode::SkipLastCommitted && state.replayed == complete - 1 {
            state.replayed += 1; // pretend it was applied
            continue;
        }
        apply(&mut state.meta, &record.updates);
        state.replayed += 1;
    }
    if mode == BreakMode::LosePromisedPage {
        if let Some((&k, _)) = state.pages.iter().next() {
            state.pages.remove(&k);
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ino(n: u64) -> InodeId {
        InodeId(n)
    }

    fn complete(updates: Vec<(InodeId, MetaUpdate)>, blocks: u32) -> JournalRecord {
        JournalRecord {
            updates,
            blocks_total: blocks,
            blocks_written: blocks,
        }
    }

    #[test]
    fn replay_applies_committed_records_in_order() {
        let mut d = DurableStore::default();
        d.journal.push(complete(
            vec![
                (ino(1), MetaUpdate::Create),
                (ino(1), MetaUpdate::Size(4096)),
            ],
            2,
        ));
        d.journal
            .push(complete(vec![(ino(1), MetaUpdate::Size(8192))], 2));
        d.record_page(ino(1), 0, 3);
        let r = recover(&d);
        assert_eq!(r.replayed, 2);
        assert_eq!(r.torn, 0);
        assert_eq!(r.meta[&ino(1)].size, 8192, "later size wins");
        assert_eq!(r.pages[&(ino(1), 0)], 3);
    }

    #[test]
    fn replay_stops_at_first_torn_record() {
        let mut d = DurableStore::default();
        d.journal
            .push(complete(vec![(ino(1), MetaUpdate::Create)], 2));
        d.journal.push(JournalRecord {
            updates: vec![(ino(2), MetaUpdate::Create)],
            blocks_total: 2,
            blocks_written: 1,
        });
        d.journal
            .push(complete(vec![(ino(3), MetaUpdate::Create)], 2));
        let r = recover(&d);
        assert_eq!(r.replayed, 1);
        assert_eq!(r.torn, 1);
        assert!(r.meta.contains_key(&ino(1)));
        assert!(!r.meta.contains_key(&ino(2)), "torn record discarded");
        assert!(
            !r.meta.contains_key(&ino(3)),
            "nothing after the tear replays"
        );
    }

    #[test]
    fn unlink_removes_recovered_inode() {
        let mut d = DurableStore::default();
        d.journal.push(complete(
            vec![(ino(1), MetaUpdate::Create), (ino(1), MetaUpdate::Unlink)],
            2,
        ));
        let r = recover(&d);
        assert!(r.meta.is_empty());
    }

    #[test]
    fn consistent_recovery_passes_check() {
        let mut d = DurableStore::default();
        d.journal.push(complete(
            vec![
                (ino(1), MetaUpdate::Create),
                (ino(1), MetaUpdate::Size(4096)),
            ],
            2,
        ));
        d.record_page(ino(1), 0, 2);
        let promise = Promise {
            pages: [((ino(1), 0), 2)].into_iter().collect(),
            committed_records: 1,
        };
        let r = recover(&d);
        assert_eq!(check(&d, &promise, &r), Vec::new());
    }

    #[test]
    fn check_flags_lost_page_and_stale_version() {
        let mut d = DurableStore::default();
        d.record_page(ino(1), 0, 1); // disk has v1 ...
        let promise = Promise {
            pages: [((ino(1), 0), 2), ((ino(1), 7), 1)].into_iter().collect(),
            committed_records: 0,
        };
        let r = recover(&d);
        let violations = check(&d, &promise, &r);
        assert_eq!(violations.len(), 2);
        assert!(violations.iter().any(|v| matches!(
            v,
            CrashViolation::LostPage {
                idx: 0,
                promised: 2,
                recovered: Some(1),
                ..
            }
        )));
        assert!(violations.iter().any(|v| matches!(
            v,
            CrashViolation::LostPage {
                idx: 7,
                recovered: None,
                ..
            }
        )));
    }

    #[test]
    fn check_flags_lost_commit() {
        let mut d = DurableStore::default();
        d.journal.push(JournalRecord {
            updates: vec![(ino(1), MetaUpdate::Create)],
            blocks_total: 2,
            blocks_written: 0,
        });
        let promise = Promise {
            pages: PageVersions::default(),
            // A buggy fsync promised a record that never became durable.
            committed_records: 1,
        };
        let r = recover(&d);
        let violations = check(&d, &promise, &r);
        assert!(violations.iter().any(|v| matches!(
            v,
            CrashViolation::LostCommit {
                promised: 1,
                replayed: 0
            }
        )));
    }
}
