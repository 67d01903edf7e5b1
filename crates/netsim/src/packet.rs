//! Packets and frames carried by the simulated fabric.

use crate::{FlowId, Nanos, NodeId};

/// Traffic class indices: RoCEv2 data rides the lossless (PFC-protected)
/// class; ACKs and CNPs ride a strict-priority control class, mirroring
/// real deployments where CNPs must not be blocked by data congestion.
pub const CLASS_DATA: usize = 0;
/// Control traffic class (ACK/CNP).
pub const CLASS_CTRL: usize = 1;
/// Number of traffic classes per port.
pub const N_CLASSES: usize = 2;

/// Per-packet header overhead on the wire (Eth+IP+UDP+BTH ≈ 48 B).
pub(crate) const HEADER_BYTES: u32 = 48;
/// Control frame wire size (ACK/CNP).
pub(crate) const CTRL_BYTES: u32 = 64;

/// Discriminates the payload of a [`Packet`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PacketKind {
    /// RDMA data segment: `seq` is the byte offset of this payload within
    /// the flow, `flow_bytes` the flow's total size (so the receiver can
    /// detect the final segment without out-of-band state).
    Data {
        /// Byte offset of this segment within the flow.
        seq: u64,
        /// Total flow size in bytes.
        flow_bytes: u64,
    },
    /// Cumulative acknowledgment from receiver to sender.
    Ack {
        /// Cumulative bytes received in order.
        acked_bytes: u64,
        /// Echo of the triggering data packet's send timestamp (RTT).
        echo: Nanos,
    },
    /// Congestion Notification Packet (NP → RP).
    Cnp {
        /// DCQCN+ only: CNP interval (µs) the NP advertises.
        advertised_interval_us: Option<f64>,
    },
}

/// A packet in flight or queued.
///
/// Kept to 72 bytes: endpoints are `u32` (fabrics beyond 4 G nodes are
/// out of scope) and per-hop scratch lives in the egress-queue entries,
/// not here. Packets are copied into the arena once at creation and out
/// once at consumption; in between everything moves 4-byte `PacketId`
/// handles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Payload discriminator.
    pub kind: PacketKind,
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// The QP (measurement identity) this packet belongs to. Collectives
    /// reuse QPs across rounds, so sketches see one long-lived entity
    /// per (src, dst) pair — the "per-QP size statistics" of the paper.
    pub qp: FlowId,
    /// When the packet left its source NIC (RTT echo base).
    pub sent_at: Nanos,
    /// Source host.
    pub src: u32,
    /// Destination host.
    pub dst: u32,
    /// Bytes on the wire (payload + headers).
    pub wire_bytes: u32,
    /// Payload bytes (0 for control frames).
    pub payload_bytes: u32,
    /// Traffic class (`CLASS_DATA` or `CLASS_CTRL`).
    pub class: u8,
    /// ECN Congestion Experienced mark (set by switches).
    pub ecn: bool,
    /// Keypoint 1's TOS bit: set once the packet has been inserted into a
    /// measurement sketch, so no later switch double-counts it.
    pub sketched: bool,
}

impl Packet {
    /// Build a data segment.
    #[allow(clippy::too_many_arguments)]
    pub fn data(
        flow: FlowId,
        qp: FlowId,
        src: NodeId,
        dst: NodeId,
        seq: u64,
        flow_bytes: u64,
        payload: u32,
        now: Nanos,
    ) -> Self {
        Self {
            kind: PacketKind::Data { seq, flow_bytes },
            flow,
            qp,
            src: src as u32,
            dst: dst as u32,
            wire_bytes: payload + HEADER_BYTES,
            payload_bytes: payload,
            sent_at: now,
            ecn: false,
            sketched: false,
            class: CLASS_DATA as u8,
        }
    }

    /// Build a cumulative ACK (receiver → sender: src/dst are the ACK's
    /// own endpoints, i.e. swapped relative to the data flow).
    pub fn ack(
        flow: FlowId,
        from: NodeId,
        to: NodeId,
        acked_bytes: u64,
        echo: Nanos,
        now: Nanos,
    ) -> Self {
        Self {
            kind: PacketKind::Ack { acked_bytes, echo },
            flow,
            qp: flow,
            src: from as u32,
            dst: to as u32,
            wire_bytes: CTRL_BYTES,
            payload_bytes: 0,
            sent_at: now,
            ecn: false,
            sketched: true, // control frames are never sketched
            class: CLASS_CTRL as u8,
        }
    }

    /// Build a CNP (NP → RP).
    pub fn cnp(
        flow: FlowId,
        from: NodeId,
        to: NodeId,
        advertised_interval_us: Option<f64>,
        now: Nanos,
    ) -> Self {
        Self {
            kind: PacketKind::Cnp {
                advertised_interval_us,
            },
            flow,
            qp: flow,
            src: from as u32,
            dst: to as u32,
            wire_bytes: CTRL_BYTES,
            payload_bytes: 0,
            sent_at: now,
            ecn: false,
            sketched: true,
            class: CLASS_CTRL as u8,
        }
    }
}

/// Handle of a packet parked in a [`PacketPool`] while it is "on the
/// wire" (scheduled as an `Arrive` event). Events carry this 4-byte id
/// through the scheduler instead of the 72-byte [`Packet`] itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketId(u32);

/// A slab arena for live packets.
///
/// A packet enters the arena once, when its source NIC builds it, and
/// leaves once, when its destination host consumes it (or a switch drops
/// it). In between, NIC queues, switch queues and `Arrive` events all
/// carry the 4-byte `PacketId` — enqueueing, dequeueing and hopping
/// never copy the 72-byte [`Packet`]. Freed slots are recycled LIFO, so
/// the pool's footprint is bounded by the peak number of simultaneously
/// live packets (not by the run length), and slot assignment is a pure
/// function of the insert/take sequence — replays allocate identical
/// ids, preserving determinism trivially.
#[derive(Debug, Default)]
pub struct PacketPool {
    slots: Vec<Packet>,
    free: Vec<u32>,
    /// Per-flow conservation tallies (ZST unless the `audit` feature is
    /// on): insert = injected, take = delivered, discard = dropped.
    audit: paraleon_audit::ConservationAudit,
}

impl PacketPool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Park `pkt` and return its handle.
    #[inline]
    pub fn insert(&mut self, pkt: Packet) -> PacketId {
        self.audit.injected(pkt.flow);
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = pkt;
                PacketId(i)
            }
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(pkt);
                PacketId(i)
            }
        }
    }

    /// Remove and return the packet behind `id`. The handle is dead
    /// afterwards; its slot is recycled by a later `insert`.
    #[inline]
    pub fn take(&mut self, id: PacketId) -> Packet {
        debug_assert!(!self.free.contains(&id.0), "PacketId {} taken twice", id.0);
        self.audit.delivered(self.slots[id.0 as usize].flow);
        self.free.push(id.0);
        self.slots[id.0 as usize]
    }

    /// Drop the packet behind `id` (a switch drop / fault loss): frees
    /// the slot without copying the packet out.
    #[inline]
    pub fn discard(&mut self, id: PacketId) {
        debug_assert!(
            !self.free.contains(&id.0),
            "PacketId {} discarded twice",
            id.0
        );
        self.audit.dropped(self.slots[id.0 as usize].flow);
        self.free.push(id.0);
    }

    /// Number of packets currently parked.
    pub fn in_flight(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Borrow the packet behind `id`.
    #[inline]
    pub fn get(&self, id: PacketId) -> &Packet {
        &self.slots[id.0 as usize]
    }

    /// Mutably borrow the packet behind `id` (per-hop header rewrites:
    /// ECN mark, TOS sketched bit).
    #[inline]
    pub fn get_mut(&mut self, id: PacketId) -> &mut Packet {
        &mut self.slots[id.0 as usize]
    }

    /// Cross-check the conservation tallies against the arena's live
    /// count: Σ per-flow (injected − delivered − dropped) must equal
    /// `in_flight()`. No-op unless the `audit` feature is on.
    #[inline]
    pub fn audit_check(&self) {
        self.audit.check_pool(self.in_flight() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_packet_shape() {
        let p = Packet::data(7, 7, 0, 1, 4096, 1 << 20, 1000, 99);
        assert!(matches!(p.kind, PacketKind::Data { .. }));
        assert_eq!(p.wire_bytes, 1048);
        assert_eq!(p.payload_bytes, 1000);
        assert_eq!(p.class as usize, CLASS_DATA);
        assert!(!p.ecn && !p.sketched);
    }

    #[test]
    fn control_frames_ride_the_control_class_pre_sketched() {
        let a = Packet::ack(7, 1, 0, 123, 5, 10);
        let c = Packet::cnp(7, 1, 0, Some(16.0), 10);
        for p in [a, c] {
            assert_eq!(p.class as usize, CLASS_CTRL);
            assert!(p.sketched, "control frames must never enter sketches");
            assert!(!matches!(p.kind, PacketKind::Data { .. }));
            assert_eq!(p.payload_bytes, 0);
        }
    }

    #[test]
    fn pool_recycles_slots_and_tracks_in_flight() {
        let mut pool = PacketPool::new();
        let a = pool.insert(Packet::data(1, 1, 0, 1, 0, 1 << 20, 1000, 0));
        let b = pool.insert(Packet::ack(2, 1, 0, 99, 5, 10));
        assert_eq!(pool.in_flight(), 2);
        let pa = pool.take(a);
        assert_eq!(pa.flow, 1);
        assert_eq!(pool.in_flight(), 1);
        // Freed slot is reused (LIFO), keeping the arena compact.
        let c = pool.insert(Packet::cnp(3, 1, 0, None, 20));
        assert_eq!(c, a);
        assert_eq!(pool.slots.len(), 2);
        assert_eq!(pool.take(b).flow, 2);
        assert_eq!(pool.take(c).flow, 3);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn ack_carries_cumulative_bytes_and_echo() {
        let a = Packet::ack(7, 1, 0, 4096, 77, 100);
        match a.kind {
            PacketKind::Ack { acked_bytes, echo } => {
                assert_eq!(acked_bytes, 4096);
                assert_eq!(echo, 77);
            }
            _ => panic!("not an ack"),
        }
    }
}
