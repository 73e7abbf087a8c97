//! Seeded model test of the crash model: the dense per-inode
//! [`PageVersions`] store must read exactly as the ordered
//! `BTreeMap<(InodeId, u64), u64>` ledgers it replaced. A reference
//! copy of that map-based model runs beside the real one through random
//! page flushes, successful and failed `fsync`s, unlinks and
//! re-creates; the durable and promise views, `recover` and `check`
//! must agree after every sequence, and every `recover_breaking` mode
//! must still be caught.
//!
//! Sequences come from the in-tree seeded [`SplitMix64`], so failures
//! reproduce exactly.

use std::collections::BTreeMap;

use kloc_kernel::recovery::{recover_breaking, BreakMode, InodeMeta, JournalRecord, PageVersions};
use kloc_kernel::{
    check, recover, CrashViolation, DurableStore, InodeId, MetaUpdate, Promise, RecoveredState,
};
use kloc_mem::SplitMix64;

type PageMap = BTreeMap<(InodeId, u64), u64>;

/// The map-based crash model, as it stood before the dense store.
#[derive(Default)]
struct Reference {
    durable: PageMap,
    promise: PageMap,
    journal: Vec<JournalRecord>,
    committed_records: usize,
}

impl Reference {
    fn record_page(&mut self, ino: InodeId, idx: u64, version: u64) {
        let slot = self.durable.entry((ino, idx)).or_insert(0);
        *slot = (*slot).max(version);
    }

    fn fsync(&mut self, ino: InodeId, complete_records: usize) {
        for (&key, &version) in self.durable.range((ino, 0)..=(ino, u64::MAX)) {
            let slot = self.promise.entry(key).or_insert(0);
            *slot = (*slot).max(version);
        }
        self.committed_records = complete_records;
    }

    fn recover(&self) -> RecoveredState {
        let mut state = RecoveredState {
            pages: self.durable.clone(),
            ..RecoveredState::default()
        };
        for record in &self.journal {
            if !record.is_complete() {
                state.torn = 1;
                break;
            }
            apply(&mut state.meta, &record.updates);
            state.replayed += 1;
        }
        state
    }

    fn check(&self, recovered: &RecoveredState) -> Vec<CrashViolation> {
        let mut out = Vec::new();
        for (&(ino, idx), &promised) in &self.promise {
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
        if recovered.replayed < self.committed_records {
            out.push(CrashViolation::LostCommit {
                promised: self.committed_records,
                replayed: recovered.replayed,
            });
        }
        let mut expected = BTreeMap::new();
        for record in &self.journal {
            if !record.is_complete() {
                break;
            }
            apply(&mut expected, &record.updates);
        }
        for (&ino, &meta) in &recovered.meta {
            match expected.get(&ino) {
                None => out.push(CrashViolation::TornApplied { ino }),
                Some(&want) if want != meta => out.push(CrashViolation::StaleMeta {
                    ino,
                    expected: Some(want),
                    actual: Some(meta),
                }),
                Some(_) => {}
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
}

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

/// The real and the reference model, driven in lockstep.
#[derive(Default)]
struct Models {
    durable: DurableStore,
    promise: Promise,
    complete_records: usize,
    reference: Reference,
    /// Live inodes and the next inode number to hand out.
    live: Vec<InodeId>,
    next_ino: u64,
    /// Page-cache content version per `(inode, page)`.
    cached: BTreeMap<(InodeId, u64), u64>,
}

impl Models {
    fn commit(&mut self, updates: Vec<(InodeId, MetaUpdate)>) {
        let blocks = 2 + updates.len() as u32;
        let record = JournalRecord {
            updates,
            blocks_total: blocks,
            blocks_written: blocks,
        };
        self.complete_records += 1;
        self.reference.journal.push(record.clone());
        self.durable.journal.push(record);
    }

    fn create(&mut self) {
        let ino = InodeId(self.next_ino);
        self.next_ino += 1;
        self.live.push(ino);
        self.commit(vec![(ino, MetaUpdate::Create)]);
    }

    /// Writeback of `pages` random pages of `ino`: each is dirtied
    /// (version up by one; a page evicted while clean restarts at 1)
    /// and submitted.
    fn flush(&mut self, rng: &mut SplitMix64, ino: InodeId, pages: u64) {
        for _ in 0..pages {
            let idx = rng.gen_below(24);
            let version = self.cached.entry((ino, idx)).or_insert(0);
            *version = if rng.gen_below(8) == 0 {
                1
            } else {
                *version + 1
            };
            let version = *version;
            self.durable.record_page(ino, idx, version);
            self.reference.record_page(ino, idx, version);
        }
    }

    fn step(&mut self, rng: &mut SplitMix64) {
        if self.live.is_empty() || rng.gen_below(8) == 0 {
            // Sockets and directories take inode numbers too, so file
            // inode numbers have gaps.
            self.next_ino += rng.gen_below(3);
            self.create();
            return;
        }
        let ino = self.live[rng.gen_below(self.live.len() as u64) as usize];
        match rng.gen_below(6) {
            // Background writeback.
            0 | 1 => {
                let pages = rng.gen_range(1..6);
                self.flush(rng, ino, pages);
            }
            // Successful fsync: flush, commit, promise.
            2 => {
                let pages = rng.gen_below(4);
                self.flush(rng, ino, pages);
                self.commit(vec![(ino, MetaUpdate::Size(rng.gen_below(1 << 20)))]);
                self.promise
                    .record_fsync(&self.durable, ino, self.complete_records);
                self.reference.fsync(ino, self.complete_records);
            }
            // Failed fsync: the pages reached the disk and the commit
            // may have, but the device drain failed, so nothing is
            // promised.
            3 => {
                let pages = rng.gen_range(1..4);
                self.flush(rng, ino, pages);
                if rng.gen_bool() {
                    self.commit(vec![(ino, MetaUpdate::Touch)]);
                }
            }
            // Unlink: the inode goes, its durable and promised pages
            // stay.
            4 => {
                self.live.retain(|&i| i != ino);
                self.commit(vec![(ino, MetaUpdate::Unlink)]);
            }
            // Re-create under the same path: a fresh inode number.
            _ => {
                self.live.retain(|&i| i != ino);
                self.commit(vec![(ino, MetaUpdate::Unlink)]);
                self.create();
            }
        }
    }

    /// Ends the run with a crash that tears the last commit.
    fn tear(&mut self, rng: &mut SplitMix64) {
        let ino = InodeId(self.next_ino);
        let record = JournalRecord {
            updates: vec![(ino, MetaUpdate::Create), (ino, MetaUpdate::Size(4096))],
            blocks_total: 4,
            blocks_written: rng.gen_below(4) as u32,
        };
        self.reference.journal.push(record.clone());
        self.durable.journal.push(record);
    }
}

fn assert_same_view(case: u64, what: &str, dense: &PageVersions, map: &PageMap) {
    assert_eq!(dense.len(), map.len(), "case {case}: {what} len");
    assert_eq!(dense.is_empty(), map.is_empty(), "case {case}: {what}");
    assert!(
        dense.iter().eq(map.iter().map(|(&k, &v)| (k, v))),
        "case {case}: {what} entries in key order"
    );
    assert_eq!(&dense.to_map(), map, "case {case}: {what} map view");
    assert_eq!(
        format!("{dense:?}"),
        format!("{map:?}"),
        "case {case}: {what}"
    );
}

#[test]
fn dense_crash_model_matches_btreemap_reference() {
    let modes = [
        BreakMode::LosePromisedPage,
        BreakMode::ApplyTorn,
        BreakMode::SkipLastCommitted,
    ];
    let mut caught = [0usize; 3];
    for case in 0..256u64 {
        let mut rng = SplitMix64::seed_from_u64(0x0C8A_5400_0000 + case);
        let mut m = Models::default();
        for _ in 0..rng.gen_range(1..80) {
            m.step(&mut rng);
        }
        if rng.gen_bool() {
            m.tear(&mut rng);
        }

        assert_same_view(case, "durable", &m.durable.pages, &m.reference.durable);
        assert_same_view(case, "promise", &m.promise.pages, &m.reference.promise);
        assert_eq!(m.promise.committed_records, m.reference.committed_records);

        let recovered = recover(&m.durable);
        assert_eq!(recovered, m.reference.recover(), "case {case}: recover");
        let violations = check(&m.durable, &m.promise, &recovered);
        assert_eq!(violations, Vec::new(), "case {case}: faithful recovery");
        assert_eq!(violations, m.reference.check(&recovered), "case {case}");

        for (mode, caught) in modes.into_iter().zip(&mut caught) {
            let broken = recover_breaking(&m.durable, mode);
            let found = check(&m.durable, &m.promise, &broken);
            assert_eq!(found, m.reference.check(&broken), "case {case}: {mode:?}");
            *caught += usize::from(!found.is_empty());
        }
    }
    for (mode, caught) in modes.iter().zip(caught) {
        assert!(caught > 0, "{mode:?} was never caught");
    }
}
