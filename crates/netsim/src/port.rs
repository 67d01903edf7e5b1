//! The egress-port and link layer: one strict-priority, PFC-pausable
//! serializer model for a host's NIC port and every switch port alike,
//! and the wire behind it (serialization time, fault loss).
//!
//! A node enqueues into an [`EgressPort`]; [`Simulator::try_tx`] is the
//! one function that takes a packet off any port and puts it on the
//! link: dequeue → owner accounting (host uplink bytes, or the switch's
//! shared-buffer release and XON) → `Arrive` at the peer → `PortFree`
//! here.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use paraleon_audit as audit;
use paraleon_telemetry as tel;

use crate::config::SimConfig;
use crate::core::Owned;
use crate::event::Event;
use crate::fasthash::mix64;
use crate::fault::LinkState;
use crate::packet::{PacketId, CLASS_CTRL, CLASS_DATA, CTRL_BYTES, N_CLASSES};
use crate::sim::Simulator;
use crate::topology::Topology;
use crate::{Nanos, NodeId};

/// An egress-queue entry: the packet's arena handle plus the two header
/// fields the egress path needs, cached inline so dequeueing and
/// serialization never have to chase the (usually cache-cold) arena slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedPkt {
    /// Arena handle.
    pub id: PacketId,
    /// Wire bytes (byte accounting + serialization time).
    pub wire: u32,
    /// Ingress port the packet entered through (switch PFC accounting;
    /// 0 in host egress queues, which have no ingress side).
    pub in_port: u16,
}

/// One egress port — a host's NIC port or a switch port: per-class FIFO
/// queues served control-first, a serializer that is busy or free, and
/// the PFC pause state of the lossless class.
#[derive(Debug, Default)]
pub(crate) struct EgressPort {
    /// Per-class FIFO queues (slim handle entries, not packets).
    queues: [VecDeque<QueuedPkt>; N_CLASSES],
    /// Queued wire bytes per class.
    qbytes: [u64; N_CLASSES],
    /// Whether the port is mid-serialization.
    busy: bool,
    /// PFC: lossless-class egress paused by the downstream device.
    data_paused: bool,
    /// When the current pause began, or the last collection instant it
    /// was charged up to.
    pause_started: Option<Nanos>,
}

impl EgressPort {
    /// Queue `q` behind its class.
    #[inline]
    pub(crate) fn enqueue(&mut self, class: usize, q: QueuedPkt) {
        self.qbytes[class] += q.wire as u64;
        self.queues[class].push_back(q);
    }

    /// Pick the next packet to serialize: control strictly first, data
    /// only when not paused. Returns the entry and its class. Byte
    /// accounting uses the wire size cached in the entry — the packet
    /// arena is never touched on the egress path.
    #[inline]
    pub(crate) fn dequeue(&mut self) -> Option<(QueuedPkt, usize)> {
        let class = if !self.queues[CLASS_CTRL].is_empty() {
            CLASS_CTRL
        } else if !self.data_paused {
            CLASS_DATA
        } else {
            return None;
        };
        let q = self.queues[class].pop_front()?;
        self.qbytes[class] -= q.wire as u64;
        Some((q, class))
    }

    /// Packets queued in `class`.
    #[inline]
    pub(crate) fn depth(&self, class: usize) -> usize {
        self.queues[class].len()
    }

    /// Wire bytes queued in `class`.
    #[inline]
    pub(crate) fn qbytes(&self, class: usize) -> u64 {
        self.qbytes[class]
    }

    /// Apply a PFC frame at `now`. XOFF opens a pause (a repeated XOFF
    /// keeps the first start); XON closes it and returns the part of it
    /// that falls in the interval that began at `interval_start` — the
    /// earlier part was charged when that interval was collected.
    pub(crate) fn set_paused(&mut self, paused: bool, now: Nanos, interval_start: Nanos) -> Nanos {
        self.data_paused = paused;
        if paused {
            self.pause_started.get_or_insert(now);
            return 0;
        }
        let started = self.pause_started.take();
        started.map_or(0, |st| now.saturating_sub(st.max(interval_start)))
    }

    /// Charge a pause that spans the collection instant `now` to the
    /// interval being collected and restart it there, so the next
    /// interval is charged exactly the remainder.
    pub(crate) fn close_pause(&mut self, now: Nanos, interval_start: Nanos) -> Nanos {
        let Some(st) = self.pause_started else {
            return 0;
        };
        self.pause_started = Some(now);
        now.saturating_sub(st.max(interval_start))
    }

    /// Per-class byte counters == wire bytes actually sitting in the
    /// queues. `node` is the owner — a switch or a host.
    pub(crate) fn audit(&self, node: u32, port: u32) {
        for (class, queue) in self.queues.iter().enumerate() {
            let queued: u64 = queue.iter().map(|q| q.wire as u64).sum();
            audit::check(self.qbytes[class] == queued, || {
                audit::AuditViolation::QueueAccounting {
                    switch: node,
                    port,
                    class: class as u32,
                    qbytes: self.qbytes[class],
                    queued,
                }
            });
        }
    }
}

/// Runtime state of every directed link leaving a node this shard owns:
/// fault state, the corruption RNGs that decide fault loss, and the
/// serialization-time cache. Rows are addressed by the node's *slot*
/// (`EventCore::slot`), so a shard holds rows for its own nodes only.
pub(crate) struct Links {
    /// Per-node, per-port link state (mutated by fault events; all-clean
    /// unless a fault plan is installed).
    state: Vec<Vec<LinkState>>,
    /// Directed links currently down. Zero in the common fault-free
    /// case, which lets routing skip the per-port liveness mask entirely.
    down: u32,
    /// Dedicated per-node RNGs for corruption draws, so fault injection
    /// never perturbs the switches' own random streams (ECN coin flips)
    /// — and so each node's draw sequence depends only on the packets it
    /// transmitted, which makes the draws shard-independent.
    fault_rngs: Vec<StdRng>,
    /// Per-`(node, port)` serialization time of (one full MTU, one
    /// control frame) at clean link rate — the two wire sizes virtually
    /// every packet has, precomputed to keep `f64` ceil-division off the
    /// per-hop path.
    ser_cache: Vec<Vec<(Nanos, Nanos)>>,
    mtu_wire: u32,
}

/// Node `node`'s corruption stream under seed `base`.
fn fault_rng(base: u64, node: NodeId) -> StdRng {
    StdRng::seed_from_u64(mix64(base ^ node as u64))
}

impl Links {
    /// Rows for `nodes` of `topo`, which become slots `0..` in that order.
    pub(crate) fn new(
        topo: &Topology,
        cfg: &SimConfig,
        nodes: impl Iterator<Item = NodeId> + Clone,
    ) -> Self {
        let mtu_wire = cfg.mtu_wire();
        let seed = cfg.seed ^ 0xFA11_FA11_FA11_FA11;
        let ser = |bytes: u32, bw: f64| (bytes as f64 / bw).ceil() as Nanos;
        Self {
            fault_rngs: nodes.clone().map(|n| fault_rng(seed, n)).collect(),
            state: nodes
                .clone()
                .map(|n| vec![LinkState::default(); topo.ports(n).len()])
                .collect(),
            down: 0,
            ser_cache: nodes
                .map(|n| {
                    let ports = topo.ports(n).iter();
                    ports
                        .map(|p| (ser(mtu_wire, p.bw), ser(CTRL_BYTES, p.bw)))
                        .collect()
                })
                .collect(),
            mtu_wire,
        }
    }

    /// Restart every node's corruption stream from a fault plan's seed;
    /// `nodes` are the ones the rows were built for.
    pub(crate) fn reseed(&mut self, base: u64, nodes: impl Iterator<Item = NodeId>) {
        for (rng, n) in self.fault_rngs.iter_mut().zip(nodes) {
            *rng = fault_rng(base, n);
        }
    }

    /// Runtime state of the directed link at port `port` of slot `slot`.
    pub(crate) fn state(&self, slot: usize, port: usize) -> LinkState {
        self.state[slot][port]
    }

    /// Whether the node at `slot` still has at least one live link.
    pub(crate) fn any_up(&self, slot: usize) -> bool {
        self.state[slot].iter().any(|l| l.up)
    }

    /// Whether no link is down — routing then needs no liveness mask.
    #[inline]
    pub(crate) fn all_up(&self) -> bool {
        self.down == 0
    }

    /// Mutate one directed link's state, keeping the down-link count.
    /// Comparing the link before and after (not counting `LinkDown`s)
    /// keeps idempotent re-application from miscounting.
    pub(crate) fn update(&mut self, slot: usize, port: usize, f: impl FnOnce(&mut LinkState)) {
        let link = &mut self.state[slot][port];
        let was_up = link.up;
        f(link);
        self.down = self.down + was_up as u32 - link.up as u32;
    }

    /// Serialization time of a `wire`-byte packet leaving port `port` of
    /// slot `slot`, a link of nominal rate `bw` bytes/ns. Clean links hit
    /// the precomputed MTU/control-frame entries; odd sizes (a flow's
    /// final partial segment) and degraded links pay the ceil-division.
    #[inline]
    fn ser_time(&self, slot: usize, port: usize, wire: u32, bw: f64) -> Nanos {
        let rf = self.state[slot][port].rate_factor;
        if rf == 1.0 {
            let (ser_mtu, ser_ctrl) = self.ser_cache[slot][port];
            if wire == self.mtu_wire {
                return ser_mtu;
            }
            if wire == CTRL_BYTES {
                return ser_ctrl;
            }
        }
        ((wire as f64) / (bw * rf)).ceil() as Nanos
    }

    /// A packet leaves port `port` of slot `slot`: `false` when an
    /// injected fault eats it on the wire (dead link, or a corruption
    /// draw from the plan's dedicated RNG stream).
    #[inline]
    fn delivers(&mut self, slot: usize, port: usize) -> bool {
        let ls = self.state[slot][port];
        ls.is_clean()
            || (ls.up
                && (ls.drop_prob <= 0.0 || self.fault_rngs[slot].gen::<f64>() >= ls.drop_prob))
    }
}

impl Simulator {
    /// The egress port `port` of the node at `slot` and, for a switch's,
    /// its index in `switches`. Besides the `Arrive` dispatch this is the
    /// only place the event path asks what kind of node it is standing
    /// on: hosts take the slots below the switches'.
    #[inline]
    fn egress(&mut self, slot: usize, port: usize) -> (&mut EgressPort, Option<usize>) {
        match slot.checked_sub(self.hosts.len()) {
            None => (&mut self.hosts[slot].port, None),
            Some(sw) => (&mut self.switches[sw].ports[port], Some(sw)),
        }
    }

    /// Start serializing the next packet on port `port` of `at` unless
    /// the port is busy, empty, or holds only paused data.
    pub(crate) fn try_tx(&mut self, at: Owned, port: usize) {
        let Owned { node, slot } = at;
        let (p, sw) = self.egress(slot, port);
        if p.busy {
            return;
        }
        let Some((q, class)) = p.dequeue() else {
            return;
        };
        p.busy = true;
        audit::check(!(class == CLASS_DATA && p.data_paused), || {
            audit::AuditViolation::PfcPausedDequeue {
                node: node as u32,
                port: port as u32,
            }
        });
        if class == CLASS_DATA {
            match sw {
                None => self.accum.host_up_bytes[slot] += q.wire as u64,
                Some(sw) => self.switch_release(at, sw, &q),
            }
        }
        let link = self.topo.ports(node)[port];
        let now = self.core.now();
        let ser = self.links.ser_time(slot, port, q.wire, link.bw);
        if self.links.delivers(slot, port) {
            let arrives = now + ser + link.delay;
            self.core
                .deliver(at, link.peer, link.peer_port, arrives, q.id);
        } else {
            self.fault_drop(q.id);
        }
        let free = Event::PortFree {
            node: node as u32,
            port: port as u16,
        };
        self.core.local(at, now + ser, free);
    }

    /// `(node, port)` finished serializing; it may send again. A NIC
    /// first lets QPs that were blocked on its queue depth back in.
    pub(crate) fn on_port_free(&mut self, node: NodeId, port: usize) {
        let at = self.core.own(node);
        let (p, sw) = self.egress(at.slot, port);
        p.busy = false;
        if sw.is_none() {
            self.unblock_host_flows(at);
        }
        self.try_tx(at, port);
    }

    /// A PFC pause/resume frame takes effect at `(node, port)`.
    pub(crate) fn on_pfc_set(&mut self, node: NodeId, port: usize, paused: bool) {
        let (now, start) = (self.core.now(), self.interval_start);
        let at = self.core.own(node);
        let charged = self.egress(at.slot, port).0.set_paused(paused, now, start);
        self.accum.pause_ns[at.slot] += charged;
        if !paused {
            self.try_tx(at, port);
        }
    }

    /// An injected fault ate packet `id` (dead or corrupting link, or no
    /// live route): go-back-N recovers once a path returns.
    pub(crate) fn fault_drop(&mut self, id: PacketId) {
        self.accum.fault_drops += 1;
        self.total_fault_drops += 1;
        tel::count(tel::Ctr::FaultDrops);
        self.core.packets.discard(id);
    }

    /// Charge pauses that span the collection instant to the interval
    /// being closed.
    pub(crate) fn close_pauses(&mut self) {
        let (now, start) = (self.core.now(), self.interval_start);
        let hosts = self
            .hosts
            .iter_mut()
            .map(|h| std::slice::from_mut(&mut h.port));
        let switches = self.switches.iter_mut().map(|s| &mut s.ports[..]);
        for (ports, pause_ns) in hosts.chain(switches).zip(&mut self.accum.pause_ns) {
            for p in ports {
                *pause_ns += p.close_pause(now, start);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketPool, HEADER_BYTES};

    /// A port plus the arena its entries point into.
    struct Rig {
        port: EgressPort,
        pool: PacketPool,
    }

    impl Rig {
        fn new() -> Self {
            Self {
                port: EgressPort::default(),
                pool: PacketPool::new(),
            }
        }

        fn push(&mut self, class: usize, wire: u32) {
            let pkt = Packet::data(1, 1, 0, 1, 0, 1 << 20, wire - HEADER_BYTES, 0);
            let id = self.pool.insert(pkt);
            let q = QueuedPkt {
                id,
                wire,
                in_port: 0,
            };
            self.port.enqueue(class, q);
        }

        /// Σ wire bytes actually sitting in `class`'s queue.
        fn queued(&self, class: usize) -> u64 {
            self.port.queues[class].iter().map(|q| q.wire as u64).sum()
        }
    }

    #[test]
    fn control_is_served_strictly_before_data() {
        let mut r = Rig::new();
        r.push(CLASS_DATA, 1048);
        r.push(CLASS_CTRL, 64);
        r.push(CLASS_DATA, 1048);
        r.push(CLASS_CTRL, 64);
        let classes: Vec<usize> = std::iter::from_fn(|| r.port.dequeue().map(|(_, c)| c)).collect();
        assert_eq!(classes, [CLASS_CTRL, CLASS_CTRL, CLASS_DATA, CLASS_DATA]);
    }

    #[test]
    fn paused_data_waits_while_control_still_flows() {
        let mut r = Rig::new();
        r.push(CLASS_DATA, 1048);
        r.push(CLASS_CTRL, 64);
        assert_eq!(r.port.set_paused(true, 100, 0), 0);
        assert_eq!(r.port.dequeue().map(|(_, c)| c), Some(CLASS_CTRL));
        assert!(r.port.dequeue().is_none(), "paused data must stay queued");
        assert_eq!(r.port.depth(CLASS_DATA), 1);
        r.push(CLASS_CTRL, 64);
        assert_eq!(r.port.dequeue().map(|(_, c)| c), Some(CLASS_CTRL));
        r.port.set_paused(false, 200, 0);
        assert_eq!(r.port.dequeue().map(|(_, c)| c), Some(CLASS_DATA));
    }

    #[test]
    fn qbytes_tracks_the_queued_wire_bytes() {
        let mut r = Rig::new();
        // A fixed pseudo-random walk of enqueues, dequeues and pauses.
        let mut x = 0x9E37_79B9u32;
        for step in 0..400 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            match x >> 29 {
                0..=2 => r.push(CLASS_DATA, 49 + (x >> 8) % 1000),
                3 | 4 => r.push(CLASS_CTRL, 64),
                5 => {
                    r.port.set_paused(x & 1 == 0, step, 0);
                }
                _ => {
                    r.port.dequeue();
                }
            }
            for class in [CLASS_DATA, CLASS_CTRL] {
                assert_eq!(r.port.qbytes(class), r.queued(class), "step {step}");
            }
        }
    }

    #[test]
    fn a_pause_spanning_a_collection_is_charged_to_both_intervals_once() {
        let mut p = EgressPort::default();
        // Interval [0, 1000): paused from 300 on.
        assert_eq!(p.set_paused(true, 300, 0), 0);
        assert_eq!(
            p.set_paused(true, 500, 0),
            0,
            "repeated XOFF keeps the start"
        );
        assert_eq!(p.close_pause(1_000, 0), 700);
        // Interval [1000, 2000): resumed at 1400 — only the remainder.
        assert_eq!(p.set_paused(false, 1_400, 1_000), 400);
        assert_eq!(p.close_pause(2_000, 1_000), 0, "no pause is open any more");
        // A pause that outlives a whole interval is charged all of it.
        p.set_paused(true, 2_100, 2_000);
        assert_eq!(p.close_pause(3_000, 2_000), 900);
        assert_eq!(p.close_pause(4_000, 3_000), 1_000);
        assert_eq!(p.set_paused(false, 4_250, 4_000), 250);
    }
}
