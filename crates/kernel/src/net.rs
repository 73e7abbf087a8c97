//! Network stack data structures.
//!
//! The ingress path is the interesting one for KLOCs (paper §4.2.3):
//! packets arrive asynchronously, the driver allocates a generic RX
//! buffer and skbuff *before the owning socket is known*, and vanilla
//! kernels only discover the socket several layers up the TCP stack.
//! The paper adds an 8-byte socket field filled in by the driver (early
//! demux), enabling immediate knode association and eliding redundant
//! demux work at the TCP layer.
//!
//! The structures here are owned by socket inodes in the VFS; the
//! protocol behaviour (layer costs, demux) lives in the kernel facade.

use std::collections::VecDeque;

use crate::obj::ObjectId;

/// A packet queued on a socket's receive queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// The skbuff header object.
    pub skb: ObjectId,
    /// The data buffer object (an RX ring page on ingress).
    pub data: ObjectId,
    /// Payload bytes.
    pub bytes: u64,
}

/// Per-socket receive queue.
#[derive(Debug, Clone, Default)]
pub struct RxQueue {
    packets: VecDeque<Packet>,
    queued_bytes: u64,
}

impl RxQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        RxQueue::default()
    }

    /// Packets waiting.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Whether no packets wait.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Bytes waiting.
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Enqueues a delivered packet.
    pub fn push(&mut self, packet: Packet) {
        self.queued_bytes += packet.bytes;
        self.packets.push_back(packet);
    }

    /// Dequeues the oldest packet.
    pub fn pop(&mut self) -> Option<Packet> {
        let p = self.packets.pop_front()?;
        self.queued_bytes -= p.bytes;
        Some(p)
    }

    /// Removes and returns everything (socket teardown).
    pub fn drain(&mut self) -> Vec<Packet> {
        self.queued_bytes = 0;
        self.packets.drain(..).collect()
    }
}

/// Network stack statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets sent (egress).
    pub tx_packets: u64,
    /// Bytes sent.
    pub tx_bytes: u64,
    /// Packets delivered (ingress).
    pub rx_packets: u64,
    /// Bytes delivered.
    pub rx_bytes: u64,
    /// Ingress packets whose socket was identified in the driver
    /// (early demux).
    pub early_demuxed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(n: u64, bytes: u64) -> Packet {
        Packet {
            skb: ObjectId(n),
            data: ObjectId(n + 100),
            bytes,
        }
    }

    #[test]
    fn fifo_order_and_byte_accounting() {
        let mut q = RxQueue::new();
        q.push(pkt(1, 100));
        q.push(pkt(2, 200));
        assert_eq!(q.len(), 2);
        assert_eq!(q.queued_bytes(), 300);
        let first = q.pop().unwrap();
        assert_eq!(first.skb, ObjectId(1));
        assert_eq!(q.queued_bytes(), 200);
    }

    #[test]
    fn drain_empties_queue() {
        let mut q = RxQueue::new();
        q.push(pkt(1, 10));
        q.push(pkt(2, 20));
        let all = q.drain();
        assert_eq!(all.len(), 2);
        assert!(q.is_empty());
        assert_eq!(q.queued_bytes(), 0);
        assert!(q.pop().is_none());
    }
}
