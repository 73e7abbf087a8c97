//! Per-tier frame capacity accounting.
//!
//! [`TierAllocator`] tracks how many frames of a tier's capacity are in
//! use and enforces the capacity limit. The actual frame records live in
//! the [`crate::MemorySystem`] frame table; this type only answers "is
//! there room" and keeps watermark statistics used by policies (e.g. the
//! Naive policy spills to slow memory exactly when the fast tier's
//! allocator reports it is full).

use crate::error::MemError;
use crate::tier::{TierId, TierSpec};

/// Capacity accountant for one tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierAllocator {
    id: TierId,
    spec: TierSpec,
    used_frames: u64,
    peak_frames: u64,
}

impl TierAllocator {
    /// Creates an allocator for `id` described by `spec`.
    pub fn new(id: TierId, spec: TierSpec) -> Self {
        TierAllocator {
            id,
            spec,
            used_frames: 0,
            peak_frames: 0,
        }
    }

    /// The tier this allocator manages.
    pub fn id(&self) -> TierId {
        self.id
    }

    /// The hardware description of this tier.
    pub fn spec(&self) -> &TierSpec {
        &self.spec
    }

    /// Frames currently in use.
    pub fn used_frames(&self) -> u64 {
        self.used_frames
    }

    /// High-water mark of frames in use.
    pub fn peak_frames(&self) -> u64 {
        self.peak_frames
    }

    /// Total frame capacity (`u64::MAX` when unbounded).
    pub fn frame_capacity(&self) -> u64 {
        self.spec.frame_capacity()
    }

    /// Frames still available.
    pub fn free_frames(&self) -> u64 {
        self.frame_capacity().saturating_sub(self.used_frames)
    }

    /// Whether at least `frames` more frames fit.
    pub fn has_room(&self, frames: u64) -> bool {
        self.free_frames() >= frames
    }

    /// Fraction of capacity in use (0.0 for unbounded tiers).
    pub fn utilization(&self) -> f64 {
        let cap = self.frame_capacity();
        if cap == u64::MAX || cap == 0 {
            0.0
        } else {
            self.used_frames as f64 / cap as f64
        }
    }

    /// Reserves one frame.
    ///
    /// # Errors
    /// Returns [`MemError::TierFull`] when the tier is at capacity.
    pub fn reserve(&mut self) -> Result<(), MemError> {
        if !self.has_room(1) {
            return Err(MemError::TierFull(self.id));
        }
        self.used_frames += 1;
        self.peak_frames = self.peak_frames.max(self.used_frames);
        Ok(())
    }

    /// Releases one previously reserved frame.
    ///
    /// # Panics
    /// Panics (debug builds) if no frames are reserved — that indicates a
    /// double free in the frame table.
    pub fn release(&mut self) {
        debug_assert!(
            self.used_frames > 0,
            "release without reserve on {}",
            self.id
        );
        self.used_frames = self.used_frames.saturating_sub(1);
    }
}

#[cfg(feature = "ksan")]
impl TierAllocator {
    /// Corruption hook for sanitizer self-tests: leaks one reservation,
    /// desyncing this accountant from the frame table.
    #[doc(hidden)]
    pub fn ksan_break_accounting(&mut self) {
        self.used_frames += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::PAGE_SIZE;

    fn tiny(frames: u64) -> TierAllocator {
        TierAllocator::new(TierId::FAST, TierSpec::fast_dram(frames * PAGE_SIZE))
    }

    #[test]
    fn reserve_until_full() {
        let mut a = tiny(2);
        assert!(a.reserve().is_ok());
        assert!(a.reserve().is_ok());
        assert_eq!(a.reserve(), Err(MemError::TierFull(TierId::FAST)));
        assert_eq!(a.used_frames(), 2);
        assert_eq!(a.free_frames(), 0);
    }

    #[test]
    fn release_makes_room_again() {
        let mut a = tiny(1);
        a.reserve().unwrap();
        a.release();
        assert!(a.reserve().is_ok());
        assert_eq!(a.peak_frames(), 1);
    }

    #[test]
    fn unbounded_tier_never_fills() {
        let mut a = TierAllocator::new(TierId::SLOW, TierSpec::fast_dram(1 << 20).slow_variant(8));
        for _ in 0..10_000 {
            a.reserve().unwrap();
        }
        assert_eq!(a.utilization(), 0.0);
        assert!(a.has_room(u64::MAX / 2));
    }

    #[test]
    fn utilization_tracks_usage() {
        let mut a = tiny(4);
        a.reserve().unwrap();
        a.reserve().unwrap();
        assert!((a.utilization() - 0.5).abs() < 1e-12);
    }
}
