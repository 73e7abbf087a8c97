//! Memory tier descriptions.
//!
//! A tier is one device class in the heterogeneous memory system: fast
//! DRAM, bandwidth-throttled "slow" DRAM, byte-addressable persistent
//! memory, or the remote socket of a NUMA pair. A [`TierSpec`] carries the
//! capacity / latency / bandwidth parameters the cost model charges.

use std::fmt;

use crate::clock::Nanos;

/// Identifier of a memory tier within a [`crate::MemorySystem`].
///
/// Tier ids are dense indices assigned in topology order; the conventional
/// two-tier topology uses [`TierId::FAST`] and [`TierId::SLOW`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TierId(pub u8);

impl TierId {
    /// The fast tier in the standard two-tier topology.
    pub const FAST: TierId = TierId(0);
    /// The slow tier in the standard two-tier topology.
    pub const SLOW: TierId = TierId(1);

    /// Index into the tier table.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TierId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tier{}", self.0)
    }
}

/// Technology class of a tier, used for reporting and topology queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TierKind {
    /// Conventional DRAM (or the fast, unthrottled socket).
    Dram,
    /// Bandwidth-throttled DRAM emulating a slower device (paper §6.2).
    ThrottledDram,
    /// Byte-addressable persistent memory (Optane DC PMEM).
    Pmem,
    /// DRAM on a remote NUMA socket.
    RemoteDram,
}

impl fmt::Display for TierKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TierKind::Dram => "dram",
            TierKind::ThrottledDram => "throttled-dram",
            TierKind::Pmem => "pmem",
            TierKind::RemoteDram => "remote-dram",
        };
        f.write_str(s)
    }
}

/// Hardware parameters of one memory tier.
///
/// Defaults mirror the paper's two-tier platform (Table 4): the fast tier
/// is 30 GB/s DRAM with ~80 ns load latency. Use the builder-style `with_*`
/// methods to derive variants.
///
/// ```
/// use kloc_mem::{TierSpec, TierKind};
/// let fast = TierSpec::fast_dram(8 << 20);
/// let slow = fast.slow_variant(8); // 1:8 bandwidth differential
/// assert_eq!(slow.read_bw_bps, fast.read_bw_bps / 8);
/// assert!(slow.read_latency > fast.read_latency);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierSpec {
    /// Technology class.
    pub kind: TierKind,
    /// Usable capacity in bytes. `u64::MAX` means effectively unbounded.
    pub capacity: u64,
    /// Read (load) latency per access.
    pub read_latency: Nanos,
    /// Write (store) latency per access.
    pub write_latency: Nanos,
    /// Read bandwidth in bytes/second (0 = don't charge bandwidth).
    pub read_bw_bps: u64,
    /// Write bandwidth in bytes/second (0 = don't charge bandwidth).
    pub write_bw_bps: u64,
}

impl TierSpec {
    /// Fast DRAM at the paper's two-tier platform parameters
    /// (30 GB/s, 80 ns) with the given capacity in bytes.
    pub fn fast_dram(capacity: u64) -> Self {
        TierSpec {
            kind: TierKind::Dram,
            capacity,
            read_latency: Nanos::new(80),
            write_latency: Nanos::new(80),
            read_bw_bps: 30_000_000_000,
            write_bw_bps: 30_000_000_000,
        }
    }

    /// A slow variant of `self`: bandwidth divided by `ratio`, latency
    /// doubled, unbounded capacity. This mirrors the paper's
    /// thermal-throttling emulation of a slow tier (§6.2). A zero ratio
    /// (division by zero) is clamped to the documented minimum of 1,
    /// i.e. a slow tier with the fast tier's bandwidth.
    pub fn slow_variant(&self, ratio: u64) -> Self {
        let ratio = ratio.max(1);
        TierSpec {
            kind: TierKind::ThrottledDram,
            capacity: u64::MAX,
            read_latency: self.read_latency * 2,
            write_latency: self.write_latency * 2,
            read_bw_bps: self.read_bw_bps / ratio,
            write_bw_bps: self.write_bw_bps / ratio,
        }
    }

    /// Die-stacked / high-bandwidth memory: the paper's §2 cites 2-10x
    /// higher bandwidth and ~1.5x lower latency than conventional DRAM,
    /// at 8-16x lower capacity.
    pub fn hbm(capacity: u64) -> Self {
        TierSpec {
            kind: TierKind::Dram,
            capacity,
            read_latency: Nanos::new(56),
            write_latency: Nanos::new(56),
            read_bw_bps: 120_000_000_000,
            write_bw_bps: 120_000_000_000,
        }
    }

    /// Optane-style persistent memory: 2-3x read latency, ~5x write
    /// latency, and 3-5x lower bandwidth than DRAM (paper §2).
    pub fn pmem(capacity: u64) -> Self {
        TierSpec {
            kind: TierKind::Pmem,
            capacity,
            read_latency: Nanos::new(300),
            write_latency: Nanos::new(400),
            read_bw_bps: 8_000_000_000,
            write_bw_bps: 3_000_000_000,
        }
    }

    /// DRAM on a remote NUMA socket: same bandwidth class, higher latency.
    pub fn remote_dram(capacity: u64) -> Self {
        TierSpec {
            kind: TierKind::RemoteDram,
            capacity,
            read_latency: Nanos::new(140),
            write_latency: Nanos::new(140),
            read_bw_bps: 20_000_000_000,
            write_bw_bps: 20_000_000_000,
        }
    }

    /// Returns a copy with the given capacity.
    pub fn with_capacity(mut self, capacity: u64) -> Self {
        self.capacity = capacity;
        self
    }

    /// Returns a copy with read/write latency set to `latency`.
    pub fn with_latency(mut self, latency: Nanos) -> Self {
        self.read_latency = latency;
        self.write_latency = latency;
        self
    }

    /// Returns a copy with read/write bandwidth set to `bps`.
    pub fn with_bandwidth(mut self, bps: u64) -> Self {
        self.read_bw_bps = bps;
        self.write_bw_bps = bps;
        self
    }

    /// Time to read `bytes` from this tier (latency + bandwidth term).
    pub fn read_cost(&self, bytes: u64) -> Nanos {
        self.read_latency + Nanos::for_transfer(bytes, self.read_bw_bps)
    }

    /// Time to write `bytes` to this tier (latency + bandwidth term).
    pub fn write_cost(&self, bytes: u64) -> Nanos {
        self.write_latency + Nanos::for_transfer(bytes, self.write_bw_bps)
    }

    /// Number of whole 4 KB frames this tier can hold.
    pub fn frame_capacity(&self) -> u64 {
        if self.capacity == u64::MAX {
            u64::MAX
        } else {
            self.capacity / crate::frame::PAGE_SIZE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_dram_matches_paper_parameters() {
        let spec = TierSpec::fast_dram(8 << 30);
        assert_eq!(spec.read_bw_bps, 30_000_000_000);
        assert_eq!(spec.read_latency, Nanos::new(80));
        assert_eq!(spec.frame_capacity(), (8 << 30) / 4096);
    }

    #[test]
    fn slow_variant_scales_bandwidth() {
        let fast = TierSpec::fast_dram(8 << 30);
        for ratio in [2, 4, 8] {
            let slow = fast.slow_variant(ratio);
            assert_eq!(slow.read_bw_bps, fast.read_bw_bps / ratio);
            assert_eq!(slow.kind, TierKind::ThrottledDram);
            assert_eq!(slow.frame_capacity(), u64::MAX);
        }
    }

    #[test]
    fn slow_variant_clamps_zero_ratio_to_one() {
        let fast = TierSpec::fast_dram(1 << 20);
        let slow = fast.slow_variant(0);
        assert_eq!(slow.read_bw_bps, fast.read_bw_bps, "clamped to ratio 1");
        assert_eq!(slow.kind, TierKind::ThrottledDram);
    }

    #[test]
    fn pmem_is_slower_than_dram() {
        let dram = TierSpec::fast_dram(1 << 30);
        let pmem = TierSpec::pmem(1 << 30);
        assert!(pmem.read_cost(4096) > dram.read_cost(4096));
        assert!(pmem.write_cost(4096) > pmem.read_cost(4096));
    }

    #[test]
    fn read_cost_includes_latency_and_bandwidth() {
        let spec = TierSpec::fast_dram(1 << 30);
        let cost = spec.read_cost(4096);
        // 80ns latency + 136ns transfer.
        assert_eq!(cost, Nanos::new(216));
    }

    #[test]
    fn builder_methods_override_fields() {
        let spec = TierSpec::fast_dram(1 << 20)
            .with_latency(Nanos::new(10))
            .with_bandwidth(1_000_000_000)
            .with_capacity(4096 * 4);
        assert_eq!(spec.read_latency, Nanos::new(10));
        assert_eq!(spec.write_bw_bps, 1_000_000_000);
        assert_eq!(spec.frame_capacity(), 4);
    }

    #[test]
    fn tier_id_display() {
        assert_eq!(TierId::FAST.to_string(), "tier0");
        assert_eq!(TierKind::Pmem.to_string(), "pmem");
    }
}
