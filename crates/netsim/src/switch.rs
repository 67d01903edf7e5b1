//! The switch layer: shared-buffer admission, dynamic-threshold PFC
//! XOFF/XON, RED/ECN marking, ECMP forwarding and the ToR measurement
//! sketch. Table I's CP parameters (`K_min`, `K_max`, `P_max`) act here,
//! in [`SwitchState::ecn`], and nowhere else.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use paraleon_audit as audit;
use paraleon_dcqcn::{DcqcnParams, EcnMarker};
use paraleon_sketch::hash::hash64;
use paraleon_sketch::{ElasticSketch, SketchConfig};
use paraleon_telemetry as tel;

use crate::config::SimConfig;
use crate::core::Owned;
use crate::event::Event;
use crate::fasthash::mix64;
use crate::metrics::IntervalRaw;
use crate::packet::{PacketId, CLASS_DATA};
use crate::port::{EgressPort, QueuedPkt};
use crate::sim::Simulator;
use crate::topology::{NodeKind, Topology};
use crate::{FlowId, NodeId};

/// Resume (XON) once ingress occupancy falls below this fraction of
/// the pause threshold.
const PFC_XON_FRAC: f64 = 0.8;

/// A switch: shared-buffer output-queued, with PFC and ECN, and (on ToRs)
/// an Elastic Sketch measurement point.
pub(crate) struct SwitchState {
    /// Egress ports (parallel to the topology's port list).
    pub(crate) ports: Vec<EgressPort>,
    /// Total data bytes resident in the shared buffer.
    buffer_used: u64,
    /// Data bytes resident per ingress port (PFC accounting).
    ingress_bytes: Vec<u64>,
    /// Whether we have an outstanding XOFF toward each ingress port's
    /// upstream device.
    sent_xoff: Vec<bool>,
    /// ECN marker (shared thresholds across ports, like homogeneous
    /// switch configs in the paper).
    marker: EcnMarker,
    /// The switch's own RED coin-flip stream, seeded from
    /// `mix64(cfg.seed ^ node)`. Per-switch (not one simulator-wide RNG)
    /// so a switch's draw sequence depends only on the packets *it*
    /// examined — the property that lets the sharded parallel engine
    /// reproduce serial marking decisions exactly.
    ecn_rng: StdRng,
    /// ToR-only measurement sketch.
    sketch: Option<ElasticSketch>,
    /// Marker counter snapshots at the last interval collection (for
    /// per-interval marking-rate computation).
    prev_seen: u64,
    /// See [`SwitchState::prev_seen`].
    prev_marked: u64,
}

/// Per-ToR sketch seed: the default base seed decorrelated by switch
/// id through a full-avalanche mix. The derivation must not leave
/// related switches' seeds a small XOR apart: the sketch keys its
/// count-min rows as `seed ^ (row constant)`, so a low-weight difference
/// between two switches' seeds can make a row on one switch hash every
/// flow identically to a row on another — correlated estimation errors
/// that the controller's merge (which assumes independent per-switch
/// error) cannot average away.
fn tor_sketch_seed(base: u64, node: usize) -> u64 {
    mix64(base ^ node as u64)
}

impl SwitchState {
    /// The state of switch `node` of `topo`: distinct sketch hash seeds
    /// and RED coin-flip streams per switch, like distinct hardware.
    pub(crate) fn new(topo: &Topology, node: NodeId, cfg: &SimConfig) -> Self {
        let n_ports = topo.ports(node).len();
        let sketch = (topo.kind(node) == NodeKind::Tor).then(|| {
            let base = SketchConfig::default();
            ElasticSketch::new(SketchConfig {
                seed: tor_sketch_seed(base.seed, node),
                ..base
            })
        });
        Self {
            ports: (0..n_ports).map(|_| EgressPort::default()).collect(),
            buffer_used: 0,
            ingress_bytes: vec![0; n_ports],
            sent_xoff: vec![false; n_ports],
            marker: EcnMarker::from_params(&cfg.dcqcn),
            ecn_rng: StdRng::seed_from_u64(mix64(cfg.seed ^ node as u64)),
            sketch,
            prev_seen: 0,
            prev_marked: 0,
        }
    }

    /// Install new ECN thresholds.
    pub(crate) fn set_ecn(&mut self, params: &DcqcnParams) {
        self.marker.set_params(params);
    }

    /// Dynamic PFC pause threshold for one ingress queue:
    /// α × (remaining shared buffer).
    fn pause_threshold(&self, cfg: &SimConfig) -> f64 {
        cfg.pfc_alpha * (cfg.switch_buffer_bytes.saturating_sub(self.buffer_used)) as f64
    }

    /// Shared-buffer admission of `wire` data bytes entering through
    /// `in_port`: `None` when the buffer is full (the packet drops),
    /// otherwise whether this ingress queue just crossed the dynamic
    /// threshold and its upstream must be sent XOFF.
    fn admit(&mut self, in_port: usize, wire: u64, cfg: &SimConfig) -> Option<bool> {
        if self.buffer_used + wire > cfg.switch_buffer_bytes {
            return None;
        }
        self.buffer_used += wire;
        self.ingress_bytes[in_port] += wire;
        let over = self.ingress_bytes[in_port] as f64 > self.pause_threshold(cfg);
        let xoff = over && !self.sent_xoff[in_port];
        if xoff {
            self.sent_xoff[in_port] = true;
        }
        Some(xoff)
    }

    /// Take `wire` admitted data bytes back out of the shared buffer.
    fn unadmit(&mut self, in_port: usize, wire: u64) {
        self.buffer_used -= wire;
        self.ingress_bytes[in_port] -= wire;
    }

    /// `wire` admitted data bytes were transmitted: whether the ingress
    /// queue they came through has drained below the XON hysteresis and
    /// its upstream must be resumed.
    fn release(&mut self, in_port: usize, wire: u64, cfg: &SimConfig) -> bool {
        self.unadmit(in_port, wire);
        let xon = self.sent_xoff[in_port]
            && self.ingress_bytes[in_port] as f64 <= self.pause_threshold(cfg) * PFC_XON_FRAC;
        if xon {
            self.sent_xoff[in_port] = false;
        }
        xon
    }

    /// RED/ECN on enqueue toward `out`: the instantaneous data-queue
    /// bytes and whether to mark. The coin comes from *this switch's*
    /// stream: the draw sequence depends only on the data packets this
    /// switch examined, in its own event order — identical under the
    /// sharded engine.
    fn ecn(&mut self, out: usize) -> (u64, bool) {
        let qb = self.ports[out].qbytes(CLASS_DATA);
        let u: f64 = self.ecn_rng.gen();
        (qb, self.marker.should_mark(qb as f64, u))
    }

    /// This switch's (`node`'s) share of an interval collection, into
    /// entry `i` of `raw`'s per-switch tables: marking deltas (snapshots
    /// advance even when the switch is unreachable — the delta is simply
    /// not uploaded, matching a dead management channel), buffer
    /// occupancy, and the drained ToR sketch (control-plane
    /// read-and-reset). A ToR that is not `reachable` cannot answer the
    /// read: its sketch keeps accumulating and is delivered after
    /// connectivity returns.
    pub(crate) fn collect(
        &mut self,
        i: usize,
        node: NodeId,
        reachable: bool,
        raw: &mut IntervalRaw,
    ) {
        raw.sw_seen[i] = self.marker.seen - self.prev_seen;
        raw.sw_marked[i] = self.marker.marked - self.prev_marked;
        self.prev_seen = self.marker.seen;
        self.prev_marked = self.marker.marked;
        raw.sw_buffer[i] = self.buffer_used;
        if reachable {
            if let Some(sk) = self.sketch.as_mut() {
                let entries: Vec<(FlowId, u64)> =
                    sk.drain().into_iter().map(|e| (e.flow, e.bytes)).collect();
                raw.sketches.push((node, entries));
            }
        }
    }

    /// Shared-buffer occupancy == Σ lossless queued bytes == Σ
    /// per-ingress accounting, never above capacity; and every port's
    /// byte counters match its queues.
    pub(crate) fn audit(&self, node: u32, buffer_total: u64) {
        let queued: u64 = self.ports.iter().map(|p| p.qbytes(CLASS_DATA)).sum();
        let ingress: u64 = self.ingress_bytes.iter().sum();
        let buffer_used = self.buffer_used;
        audit::check(buffer_used == queued && buffer_used == ingress, || {
            audit::AuditViolation::BufferAccounting {
                switch: node,
                buffer_used,
                queued,
                ingress,
            }
        });
        audit::check(buffer_used <= buffer_total, || {
            audit::AuditViolation::BufferOverflow {
                switch: node,
                buffer_used,
                buffer_total,
            }
        });
        for (pi, p) in self.ports.iter().enumerate() {
            p.audit(node, pi as u32);
        }
    }
}

impl Simulator {
    /// Switch `node`'s fabric-wide index (ToRs first, then each tier
    /// above them) — what telemetry and audit records name it by,
    /// whichever shard's `switches` holds it.
    fn switch_index(&self, node: NodeId) -> u32 {
        (node - self.topo.n_hosts()) as u32
    }

    /// A packet finished arriving at switch `node` through `in_port`:
    /// admit it (data only — control rides outside the lossless pool),
    /// route it, mark it, queue it.
    pub(crate) fn switch_receive(&mut self, node: NodeId, in_port: usize, id: PacketId) {
        let at = self.core.own(node);
        let sw = at.slot - self.hosts.len();
        let (wire, class, qp, dst, payload, sketched) = {
            let pkt = self.core.packets.get(id);
            (
                pkt.wire_bytes as u64,
                pkt.class as usize,
                pkt.qp,
                pkt.dst as NodeId,
                pkt.payload_bytes as u64,
                pkt.sketched,
            )
        };
        let data = class == CLASS_DATA;
        if data {
            // One bounds-checked index into the switch table for the
            // admission + sketch block (this runs per data packet per
            // hop); the XOFF frame is sent after the borrow ends.
            let s = &mut self.switches[sw];
            let Some(xoff) = s.admit(in_port, wire, &self.cfg) else {
                self.accum.drops += 1;
                self.total_drops += 1;
                tel::count(tel::Ctr::Drops);
                self.core.packets.discard(id);
                return;
            };
            // ToR measurement point (Keypoint 1: insert once, mark TOS).
            let dedup = self.cfg.tos_dedup;
            if let Some(sk) = s.sketch.as_mut() {
                if !dedup || !sketched {
                    sk.insert(qp, payload);
                    if dedup {
                        self.core.packets.get_mut(id).sketched = true;
                    }
                }
            }
            if xoff {
                self.pfc_audit.xoff(self.switch_index(node), in_port as u32);
                self.accum.pfc_events += 1;
                self.total_pfc_events += 1;
                self.send_pfc(at, in_port, true);
            }
        }
        let Some(out) = self.route(at, dst, qp) else {
            // No live egress toward the destination: the packet is lost
            // to the fault.
            if data {
                self.switches[sw].unadmit(in_port, wire);
            }
            self.fault_drop(id);
            return;
        };
        if data {
            self.mark_ecn(node, sw, out, id);
        }
        let q = QueuedPkt {
            id,
            wire: wire as u32,
            in_port: in_port as u16,
        };
        self.switches[sw].ports[out].enqueue(class, q);
        self.try_tx(at, out);
    }

    /// Egress port at switch `at` toward host `dst`. ECMP pins the QP, so
    /// round after round of a collective follows one path — unless a
    /// fault killed it, in which case the flow rehashes over the
    /// surviving uplinks.
    fn route(&self, at: Owned, dst: NodeId, qp: FlowId) -> Option<usize> {
        let hash = hash64(qp, 0x5EED_0F10);
        if self.links.all_up() {
            // With every link up the liveness mask is vacuous (the
            // masked ECMP picks the k-th *live* uplink, which is exactly
            // the k-th uplink when none are down), so skip the per-port
            // link-state lookups; `next_port` still runs the same masked
            // walk with an always-true mask.
            Some(self.topo.next_port(at.node, dst, hash))
        } else {
            let links = &self.links;
            self.topo
                .next_port_masked(at.node, dst, hash, |_, p| links.state(at.slot, p).up)
        }
    }

    /// RED/ECN on enqueue of data packet `id` toward port `out` of
    /// switch `node`, the `sw`-th of this shard's.
    fn mark_ecn(&mut self, node: NodeId, sw: usize, out: usize, id: PacketId) {
        let (qb, mark) = self.switches[sw].ecn(out);
        tel::observe(tel::Hist::QueueBytes, qb);
        if mark {
            self.core.packets.get_mut(id).ecn = true;
            self.accum.ecn_marks += 1;
            tel::event_at(
                self.core.now(),
                tel::Event::EcnMark {
                    switch: self.switch_index(node),
                    queue_bytes: qb,
                },
            );
        }
    }

    /// Dequeue-side accounting of data entry `q` leaving switch `at`
    /// (the `sw`-th of this shard's): shared-buffer release, transmit bytes, and PFC XON
    /// once the ingress queue it came through drains below hysteresis.
    pub(crate) fn switch_release(&mut self, at: Owned, sw: usize, q: &QueuedPkt) {
        let (wire, in_port) = (q.wire as u64, q.in_port as usize);
        let xon = self.switches[sw].release(in_port, wire, &self.cfg);
        self.accum.switch_tx_bytes[sw] += wire;
        if xon {
            self.pfc_audit
                .xon(self.switch_index(at.node), in_port as u32);
            self.send_pfc(at, in_port, false);
        }
    }

    /// Record an XOFF (`paused`) or XON on switch `at`'s ingress
    /// `in_port` and send the frame to the upstream device's egress port.
    fn send_pfc(&mut self, at: Owned, in_port: usize, paused: bool) {
        let (switch, port) = (self.switch_index(at.node), in_port as u32);
        let now = self.core.now();
        let frame = if paused {
            tel::Event::PfcXoff { switch, port }
        } else {
            tel::Event::PfcXon { switch, port }
        };
        tel::event_at(now, frame);
        let up = self.topo.ports(at.node)[in_port];
        let set = Event::PfcSet {
            node: up.peer as u32,
            port: up.peer_port as u16,
            paused,
        };
        self.core.cross(at, up.peer, now + up.delay, set);
    }
}

/// Per-switch sketch seeds must be pairwise decorrelated.
///
/// The previous derivation, `base + node`, left adjacent ToRs' seeds a
/// tiny XOR apart — and the Elastic light part keys its count-min row
/// `r` as `seed ^ (row constant + r)`, so a small seed delta can equal a
/// row-constant delta. Concretely, with the default base seed on the
/// 128-host CLOS, ToR 128's row 1 and ToR 129's row 0 hashed every flow
/// identically: their estimation errors were perfectly correlated, and
/// the controller merge (which assumes independent per-switch error)
/// preserved the shared error instead of averaging it away. Both tests
/// fail against the additive derivation.
#[cfg(test)]
mod sketch_seed_tests {
    use super::tor_sketch_seed;

    /// Base seeds to exercise: the sketch default, the degenerate zero,
    /// and two arbitrary extremes. All fixed — the tests are deterministic.
    const BASES: [u64; 4] = [0xE1A5_71C5, 0, 0xDEAD_BEEF, u64::MAX];

    /// Node-id range covering every switch id any supported topology
    /// produces (hosts come first, so ToR ids start in the hundreds).
    const NODES: std::ops::Range<usize> = 0..512;

    /// The smallest XOR distance and Hamming distance between any two
    /// seeds derived from `base`.
    fn closest_pair(base: u64) -> (u64, u32) {
        let seeds: Vec<u64> = NODES.map(|n| tor_sketch_seed(base, n)).collect();
        let pairs = seeds
            .iter()
            .enumerate()
            .flat_map(|(i, &a)| seeds[i + 1..].iter().map(move |&b| a ^ b));
        pairs.fold((u64::MAX, u32::MAX), |(x, h), d| {
            (x.min(d), h.min(d.count_ones()))
        })
    }

    /// Seeds derived from related inputs must avalanche: any two switches'
    /// seeds should differ like independent random words (~32 bits), never
    /// by a handful of bits as `base + node` produces for neighbours.
    #[test]
    fn derived_seeds_avalanche() {
        for base in BASES {
            let (_, min_dist) = closest_pair(base);
            assert!(
                min_dist >= 8,
                "base {base:#x}: two derived seeds differ by only {min_dist} bits"
            );
        }
    }

    /// No two derived seeds may sit within a row-constant-sized XOR delta
    /// of each other — that is exactly the distance at which the sketch's
    /// XOR-keyed row family collapses two switches' rows into the same
    /// hash function.
    #[test]
    fn derived_seeds_never_differ_by_a_row_constant_delta() {
        for base in BASES {
            let (min_delta, _) = closest_pair(base);
            assert!(
                min_delta > 0xFFFF,
                "base {base:#x}: two derived seeds differ by a small delta ({min_delta:#x})"
            );
        }
    }
}
