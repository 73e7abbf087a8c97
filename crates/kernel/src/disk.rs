//! NVMe storage model.
//!
//! Models the paper's 512 GB NVMe device (Table 4: 1.2 GB/s sequential,
//! 412 MB/s random). Writes are asynchronous — submission queues the
//! transfer and the device drains in the background (`busy_until`) —
//! while reads are synchronous and also wait behind queued writes.
//! `fsync` waits for the device to go idle.

use kloc_mem::Nanos;

/// Whether an I/O is sequential or random, selecting the bandwidth used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoPattern {
    /// Sequential access (journal, writeback streams).
    Sequential,
    /// Random access (point reads).
    Random,
}

/// Cumulative disk activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Read operations completed.
    pub reads: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Write submissions.
    pub writes: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Total time read callers stalled on the device.
    pub read_stall: Nanos,
    /// Total time `fsync` callers waited for the queue to drain.
    pub sync_stall: Nanos,
    /// I/O operations that failed (kfault injection); zero on faultless
    /// runs.
    pub io_errors: u64,
    /// Retries issued by the blk-mq layer after failed operations.
    pub retries: u64,
}

/// The storage device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Disk {
    seq_bw_bps: u64,
    rand_bw_bps: u64,
    latency: Nanos,
    busy_until: Nanos,
    stats: DiskStats,
}

impl Default for Disk {
    fn default() -> Self {
        Disk::nvme()
    }
}

impl Disk {
    /// The paper's NVMe device: 1.2 GB/s sequential, 412 MB/s random,
    /// 20 µs access latency.
    pub fn nvme() -> Self {
        Disk {
            seq_bw_bps: 1_200_000_000,
            rand_bw_bps: 412_000_000,
            latency: Nanos::from_micros(20),
            busy_until: Nanos::ZERO,
            stats: DiskStats::default(),
        }
    }

    /// A custom device.
    pub fn new(seq_bw_bps: u64, rand_bw_bps: u64, latency: Nanos) -> Self {
        Disk {
            seq_bw_bps,
            rand_bw_bps,
            latency,
            busy_until: Nanos::ZERO,
            stats: DiskStats::default(),
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Records a failed I/O operation (kfault injection).
    pub fn record_io_error(&mut self) {
        self.stats.io_errors += 1;
    }

    /// Records a blk-mq retry after a failed operation.
    pub fn record_retry(&mut self) {
        self.stats.retries += 1;
    }

    /// Virtual time at which all queued writes complete.
    pub fn busy_until(&self) -> Nanos {
        self.busy_until
    }

    fn bw(&self, pattern: IoPattern) -> u64 {
        match pattern {
            IoPattern::Sequential => self.seq_bw_bps,
            IoPattern::Random => self.rand_bw_bps,
        }
    }

    /// Submits an asynchronous write of `bytes` at time `now`. The device
    /// queue extends; the caller is not stalled (writeback model).
    pub fn submit_write(&mut self, now: Nanos, bytes: u64, pattern: IoPattern) {
        let start = self.busy_until.max(now);
        self.busy_until = start + self.latency + Nanos::for_transfer(bytes, self.bw(pattern));
        self.stats.writes += 1;
        self.stats.bytes_written += bytes;
    }

    /// Performs a synchronous read of `bytes` at time `now`, waiting for
    /// queued writes first. Returns the total stall the caller must
    /// charge to its clock.
    pub fn read_sync(&mut self, now: Nanos, bytes: u64, pattern: IoPattern) -> Nanos {
        let start = self.busy_until.max(now);
        let done = start + self.latency + Nanos::for_transfer(bytes, self.bw(pattern));
        self.busy_until = done;
        let stall = done - now;
        self.stats.reads += 1;
        self.stats.bytes_read += bytes;
        self.stats.read_stall += stall;
        stall
    }

    /// Submits an asynchronous read of `bytes` (readahead): the device
    /// queue extends but the caller is not stalled.
    pub fn submit_read(&mut self, now: Nanos, bytes: u64, pattern: IoPattern) {
        let start = self.busy_until.max(now);
        self.busy_until = start + self.latency + Nanos::for_transfer(bytes, self.bw(pattern));
        self.stats.reads += 1;
        self.stats.bytes_read += bytes;
    }

    /// Waits for the device to go idle (fsync). Returns the stall.
    pub fn drain(&mut self, now: Nanos) -> Nanos {
        let stall = self.busy_until.saturating_sub(now);
        self.stats.sync_stall += stall;
        stall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn async_write_does_not_stall_but_drain_does() {
        let mut d = Disk::nvme();
        let now = Nanos::ZERO;
        d.submit_write(now, 1_200_000_000, IoPattern::Sequential); // ~1s of work
        assert!(d.busy_until() > Nanos::from_millis(900));
        let stall = d.drain(now);
        assert_eq!(stall, d.busy_until());
        // After draining at a later time, nothing left.
        assert_eq!(d.drain(d.busy_until()), Nanos::ZERO);
    }

    #[test]
    fn read_waits_behind_queued_writes() {
        let mut d = Disk::nvme();
        d.submit_write(Nanos::ZERO, 120_000_000, IoPattern::Sequential); // 100ms
        let stall = d.read_sync(Nanos::ZERO, 4096, IoPattern::Random);
        assert!(stall > Nanos::from_millis(100), "read queued behind write");
    }

    #[test]
    fn random_reads_are_slower_than_sequential() {
        let mut a = Disk::nvme();
        let mut b = Disk::nvme();
        let r = a.read_sync(Nanos::ZERO, 1 << 20, IoPattern::Random);
        let s = b.read_sync(Nanos::ZERO, 1 << 20, IoPattern::Sequential);
        assert!(r > s);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = Disk::nvme();
        d.submit_write(Nanos::ZERO, 4096, IoPattern::Sequential);
        d.read_sync(Nanos::from_secs(1), 8192, IoPattern::Random);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().bytes_written, 4096);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().bytes_read, 8192);
        assert!(d.stats().read_stall > Nanos::ZERO);
    }

    #[test]
    fn idle_disk_read_cost_is_latency_plus_transfer() {
        let mut d = Disk::nvme();
        let stall = d.read_sync(Nanos::ZERO, 4096, IoPattern::Random);
        let expect = Nanos::from_micros(20) + Nanos::for_transfer(4096, 412_000_000);
        assert_eq!(stall, expect);
    }
}
