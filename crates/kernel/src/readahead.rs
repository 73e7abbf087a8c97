//! Adaptive readahead.
//!
//! Models Linux's adaptive readahead (paper §4.4 cites Wu et al.): when a
//! file is read sequentially the window doubles up to a maximum; a random
//! access collapses it. The paper augments the prefetcher to *also*
//! prefetch the kernel objects associated with the inode via the KLOC
//! abstraction — in this model that happens naturally because prefetched
//! pages are allocated with `readahead = true` in their
//! [`crate::hooks::PageRequest`] and flow through the same KLOC hooks.

use std::collections::HashMap;

use crate::vfs::InodeId;

#[derive(Debug, Clone, Copy, Default)]
struct RaState {
    next_expected: u64,
    window: u64,
}

/// Readahead statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadaheadStats {
    /// Pages prefetched.
    pub issued: u64,
    /// Prefetched pages that were later actually read (hits).
    pub useful: u64,
}

/// Per-inode adaptive readahead state.
#[derive(Debug, Clone, Default)]
pub struct Readahead {
    max_window: u64,
    files: HashMap<InodeId, RaState>,
    stats: ReadaheadStats,
}

impl Readahead {
    /// Creates a prefetcher with the given maximum window (pages).
    pub fn new(max_window: u64) -> Self {
        Readahead {
            max_window,
            ..Readahead::default()
        }
    }

    /// Statistics.
    pub fn stats(&self) -> &ReadaheadStats {
        &self.stats
    }

    /// Observes a read of page `idx` on `inode`; returns how many pages
    /// beyond `idx` to prefetch (0 when the pattern is random).
    pub fn on_read(&mut self, inode: InodeId, idx: u64) -> u64 {
        if self.max_window == 0 {
            return 0; // readahead disabled
        }
        let st = self.files.entry(inode).or_default();
        if idx == st.next_expected && st.next_expected != 0 || (idx == 0 && st.window == 0) {
            // Sequential continuation (or a fresh file starting at 0):
            // grow the window.
            st.window = (st.window * 2).clamp(1, self.max_window);
        } else if idx != st.next_expected {
            // Random jump: collapse.
            st.window = 0;
        }
        st.next_expected = idx + 1;
        st.window
    }

    /// Records that `n` pages were actually prefetched.
    pub fn record_issued(&mut self, n: u64) {
        self.stats.issued += n;
    }

    /// Records a read that hit a previously prefetched page.
    pub fn record_useful(&mut self) {
        self.stats.useful += 1;
    }

    /// Drops per-file state (file closed/unlinked).
    pub fn forget(&mut self, inode: InodeId) {
        self.files.remove(&inode);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_stream_grows_window() {
        let mut ra = Readahead::new(32);
        let w0 = ra.on_read(InodeId(1), 0);
        assert_eq!(w0, 1);
        let w1 = ra.on_read(InodeId(1), 1);
        assert_eq!(w1, 2);
        let w2 = ra.on_read(InodeId(1), 2);
        assert_eq!(w2, 4);
        // Window saturates at max.
        let mut w = w2;
        for i in 3..20 {
            w = ra.on_read(InodeId(1), i);
        }
        assert_eq!(w, 32);
    }

    #[test]
    fn random_access_collapses_window() {
        let mut ra = Readahead::new(32);
        ra.on_read(InodeId(1), 0);
        ra.on_read(InodeId(1), 1);
        let w = ra.on_read(InodeId(1), 100);
        assert_eq!(w, 0, "random jump disables prefetch");
        // Resuming sequentially from the new position restarts growth.
        let w = ra.on_read(InodeId(1), 101);
        assert_eq!(w, 1);
    }

    #[test]
    fn files_are_independent() {
        let mut ra = Readahead::new(8);
        ra.on_read(InodeId(1), 0);
        ra.on_read(InodeId(1), 1);
        let w_other = ra.on_read(InodeId(2), 0);
        assert_eq!(w_other, 1, "second file starts fresh");
    }

    #[test]
    fn stats_track_usefulness() {
        let mut ra = Readahead::new(8);
        ra.record_issued(4);
        ra.record_useful();
        assert_eq!(ra.stats().issued, 4);
        assert_eq!(ra.stats().useful, 1);
    }

    #[test]
    fn forget_resets_state() {
        let mut ra = Readahead::new(8);
        ra.on_read(InodeId(1), 0);
        ra.on_read(InodeId(1), 1);
        ra.forget(InodeId(1));
        assert_eq!(
            ra.on_read(InodeId(1), 2),
            0,
            "state gone; jump to 2 is random"
        );
    }
}
