//! The NIC layer: per-QP pacing under the DCQCN reaction point, ACK and
//! CNP generation at the notification point, DCQCN+ incast scaling and
//! go-back-N loss recovery. Table I's RP and NP parameters act here —
//! through `RpState` / `NpState` — and nowhere else.

use paraleon_dcqcn::{DcqcnParams, IncastScaler, NpState, RpState};
use paraleon_telemetry as tel;

use crate::core::{Owned, FLOW_NS};
use crate::error::SimError;
use crate::event::Event;
use crate::fasthash::FastMap;
use crate::metrics::FlowRecord;
use crate::packet::{
    Packet, PacketId, PacketKind, CLASS_CTRL, CLASS_DATA, CTRL_BYTES, HEADER_BYTES,
};
use crate::port::{EgressPort, QueuedPkt};
use crate::sim::Simulator;
use crate::{FlowId, Nanos, NodeId, MICRO};

/// Generate one cumulative ACK per this many data packets (the final
/// segment is always acknowledged immediately).
const ACK_EVERY: u32 = 4;
/// Host NIC egress queue cap in packets: QP pacing blocks when the
/// data queue is this deep (models the RNIC's internal scheduler).
const NIC_QUEUE_PKTS: usize = 8;
/// DCQCN+ window during which a flow counts as congested.
const INCAST_WINDOW: Nanos = 100 * MICRO;

/// Static description of one admitted flow.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlowMeta {
    src: NodeId,
    dst: NodeId,
    bytes: u64,
    start: Nanos,
    qp: FlowId,
}

/// Sender-side per-flow (per-QP) state on a host.
#[derive(Debug)]
struct SenderFlow {
    /// Destination host.
    dst: NodeId,
    /// Total flow bytes.
    bytes: u64,
    /// Bytes handed to the NIC so far (rewound on retransmission).
    sent: u64,
    /// Cumulatively acknowledged bytes.
    acked: u64,
    /// DCQCN reaction point for this QP.
    rp: RpState,
    /// Whether a QpSend event is already scheduled.
    send_scheduled: bool,
    /// When the previous segment was handed to the NIC (pacing base).
    last_send: Option<Nanos>,
    /// Whether the flow is blocked on NIC queue space.
    blocked: bool,
    /// Last time `acked` advanced (loss-recovery timer base).
    last_progress: Nanos,
    /// Whether a RetxCheck timer is live.
    retx_armed: bool,
}

/// Receiver-side per-flow state on a host.
#[derive(Debug)]
struct RecvFlow {
    /// Payload bytes received.
    received: u64,
    /// DCQCN notification point for this QP.
    np: NpState,
    /// Data packets since the last ACK (for coalescing).
    pkts_since_ack: u32,
}

/// A host with one RNIC port.
#[derive(Debug)]
pub(crate) struct HostState {
    /// The NIC's egress port; packets stay in the simulator's arena,
    /// its queues move slim handle entries.
    pub(crate) port: EgressPort,
    /// Active sender QPs (hot per-packet lookups: deterministic fast map).
    senders: FastMap<FlowId, SenderFlow>,
    /// Active receiver QPs.
    receivers: FastMap<FlowId, RecvFlow>,
    /// DCQCN+ incast scaler (receiver side, shared across QPs).
    incast: IncastScaler,
    /// Flows waiting for NIC queue space.
    blocked: Vec<FlowId>,
}

impl HostState {
    pub(crate) fn new(base_cnp_interval_us: f64) -> Self {
        Self {
            port: EgressPort::default(),
            senders: FastMap::default(),
            receivers: FastMap::default(),
            incast: IncastScaler::new(base_cnp_interval_us, INCAST_WINDOW),
            blocked: Vec::new(),
        }
    }

    /// Apply a new parameter setting to every live QP.
    pub(crate) fn set_params(&mut self, params: &DcqcnParams) {
        for s in self.senders.values_mut() {
            s.rp.set_params(*params);
        }
        for r in self.receivers.values_mut() {
            r.np.set_params(*params);
        }
    }
}

impl Simulator {
    /// Number of flows ever admitted (the next flow id / default QP).
    pub(crate) fn flow_count(&self) -> FlowId {
        self.flows.len() as FlowId
    }

    /// Drain the flows this shard completed since the last call, in
    /// processing order; `Engine::take_completions` sorts the shards'
    /// lists into the canonical `(finish, flow)` order.
    pub(crate) fn take_completions(&mut self) -> Vec<FlowRecord> {
        std::mem::take(&mut self.completions)
    }

    /// Base RTT between two hosts (cached; used for RTT normalisation).
    pub(crate) fn base_rtt(&mut self, a: NodeId, b: NodeId) -> Nanos {
        let key = (a.min(b), a.max(b));
        if let Some(&v) = self.base_rtt_cache.get(&key) {
            return v;
        }
        let v = self
            .topo
            .base_rtt(key.0, key.1, self.cfg.mtu_wire(), CTRL_BYTES);
        self.base_rtt_cache.insert(key, v);
        v
    }

    /// Validate and admit a flow on QP identity `qp` (the checks behind
    /// `Engine::try_add_flow_on_qp`, which also says what this costs).
    /// Every shard registers every flow — flow ids are indices into
    /// `flows`, so the table must stay globally aligned — but only the
    /// source owner schedules it and counts it as active.
    pub(crate) fn try_add_flow_on_qp(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        start: Nanos,
        qp: FlowId,
    ) -> Result<FlowId, SimError> {
        let n_hosts = self.topo.n_hosts();
        if src >= n_hosts || dst >= n_hosts || src == dst {
            return Err(SimError::BadEndpoints { src, dst, n_hosts });
        }
        if bytes == 0 {
            return Err(SimError::EmptyFlow);
        }
        let now = self.core.now();
        if start < now {
            return Err(SimError::TimeInPast { at: start, now });
        }
        let id = self.flow_count();
        self.flows.push(FlowMeta {
            src,
            dst,
            bytes,
            start,
            qp,
        });
        if self.core.owns(src) {
            self.active_flows += 1;
            self.core.external(FLOW_NS, id, start, Event::FlowStart(id));
        }
        Ok(id)
    }

    /// Queue `pkt` on host `h`'s NIC port.
    fn nic_enqueue(&mut self, h: Owned, pkt: Packet) {
        let (class, wire) = (pkt.class as usize, pkt.wire_bytes);
        let id = self.core.packets.insert(pkt);
        let q = QueuedPkt {
            id,
            wire,
            in_port: 0,
        };
        self.hosts[h.slot].port.enqueue(class, q);
    }

    pub(crate) fn on_flow_start(&mut self, f: FlowId) {
        let meta = self.flows[f as usize];
        let now = self.core.now();
        let line_rate = self.topo.ports(meta.src)[0].bw * 1e9; // bytes/ns -> bytes/sec
        let sender = SenderFlow {
            dst: meta.dst,
            bytes: meta.bytes,
            sent: 0,
            acked: 0,
            rp: RpState::new(line_rate, self.cfg.dcqcn, now),
            send_scheduled: true,
            last_send: None,
            blocked: false,
            last_progress: now,
            retx_armed: false,
        };
        let h = self.core.own(meta.src);
        self.hosts[h.slot].senders.insert(f, sender);
        self.core.local(h, now, Event::QpSend(f));
    }

    /// A QP pacing tick. The pacing gap after a segment is
    /// `wire_bytes / R_C`, but `R_C` keeps moving (DCQCN timer increases),
    /// so a tick that fires before the gap has elapsed *re-evaluates* at
    /// the earlier of the remaining gap or one increase-timer period —
    /// this is what lets a min-rate QP recover at timer speed instead of
    /// once per (possibly huge) pacing gap.
    pub(crate) fn on_qp_send(&mut self, f: FlowId) {
        /// Upper bound between pacing re-evaluations for throttled QPs.
        const RECHECK: Nanos = 50 * MICRO;
        let meta = self.flows[f as usize];
        let h = self.core.own(meta.src);
        let now = self.core.now();
        let host = &mut self.hosts[h.slot];
        let data_depth = host.port.depth(CLASS_DATA);
        // A completed flow's sender is gone; its stale ticks end here.
        let Some(s) = host.senders.get_mut(&f) else {
            return;
        };
        s.send_scheduled = false;
        if s.sent >= s.bytes {
            return;
        }
        if data_depth >= NIC_QUEUE_PKTS {
            if !s.blocked {
                s.blocked = true;
                host.blocked.push(f);
            }
            return;
        }
        s.rp.advance(now);
        let payload = (self.cfg.mtu_payload as u64).min(s.bytes - s.sent) as u32;
        let wire = payload + HEADER_BYTES;
        // Pacing: may we transmit yet at the *current* rate?
        let rate = s.rp.rate().max(1.0); // bytes/sec
        if let Some(last) = s.last_send {
            let gap = ((wire as f64) * 1e9 / rate).ceil() as Nanos;
            let allowed = last.saturating_add(gap);
            if allowed > now {
                // Too early; re-check when the gap (at today's rate)
                // elapses, or sooner so rate recovery shortens it.
                s.send_scheduled = true;
                let recheck = allowed.min(now + RECHECK).max(now + 1);
                self.core.local(h, recheck, Event::QpSend(f));
                return;
            }
        }
        let seq = s.sent;
        s.sent += payload as u64;
        s.last_send = Some(now);
        let all_sent = s.sent >= s.bytes;
        s.rp.on_send(now, wire as u64);
        let rate = s.rp.rate().max(1.0);
        let next_gap = ((wire as f64) * 1e9 / rate).ceil() as Nanos;
        let arm_retx = all_sent && !s.retx_armed;
        s.retx_armed |= arm_retx;
        s.send_scheduled = !all_sent;
        let pkt = Packet::data(f, meta.qp, h.node, s.dst, seq, s.bytes, payload, now);
        self.nic_enqueue(h, pkt);
        if self.cfg.track_ground_truth {
            *self.accum.truth_flow_bytes.entry(meta.qp).or_insert(0) += payload as u64;
        }
        if !all_sent {
            let next = now + next_gap.clamp(1, RECHECK);
            self.core.local(h, next, Event::QpSend(f));
        }
        if arm_retx {
            self.core.local(h, now + self.cfg.rto, Event::RetxCheck(f));
        }
        self.try_tx(h, 0);
    }

    /// Let QPs that blocked on host `h`'s NIC queue depth pace again.
    pub(crate) fn unblock_host_flows(&mut self, h: Owned) {
        let host = &mut self.hosts[h.slot];
        if host.blocked.is_empty() || host.port.depth(CLASS_DATA) >= NIC_QUEUE_PKTS {
            return;
        }
        let now = self.core.now();
        for f in std::mem::take(&mut host.blocked) {
            if let Some(s) = host.senders.get_mut(&f) {
                s.blocked = false;
                if !s.send_scheduled && s.sent < s.bytes {
                    s.send_scheduled = true;
                    self.core.local(h, now, Event::QpSend(f));
                }
            }
        }
    }

    /// A packet finished arriving at host `h`: final consumption, the
    /// packet leaves the arena here.
    pub(crate) fn host_receive(&mut self, h: NodeId, id: PacketId) {
        let h = self.core.own(h);
        let pkt = self.core.packets.take(id);
        match pkt.kind {
            PacketKind::Data { seq, flow_bytes } => self.on_data(h, &pkt, seq, flow_bytes),
            PacketKind::Ack { acked_bytes, echo } => self.on_ack(h, pkt.flow, acked_bytes, echo),
            PacketKind::Cnp {
                advertised_interval_us,
            } => self.on_cnp(h, pkt.flow, advertised_interval_us),
        }
    }

    /// Receiver side: count the segment, let the notification point
    /// decide on a CNP, coalesce ACKs. At most one CNP and one ACK per
    /// arrival; stack slots keep this per-packet path allocation-free.
    fn on_data(&mut self, h: Owned, pkt: &Packet, seq: u64, flow_bytes: u64) {
        let now = self.core.now();
        self.accum.host_down_bytes[h.slot] += pkt.wire_bytes as u64;
        self.accum.bytes_delivered += pkt.payload_bytes as u64;
        let params = self.cfg.dcqcn;
        let src = pkt.src as NodeId;
        let host = &mut self.hosts[h.slot];
        let iv = (pkt.ecn && self.cfg.dcqcn_plus).then(|| host.incast.on_mark(pkt.flow, now));
        let r = host.receivers.entry(pkt.flow).or_insert_with(|| RecvFlow {
            received: 0,
            np: NpState::new(params),
            pkts_since_ack: 0,
        });
        r.received = (r.received + pkt.payload_bytes as u64).min(flow_bytes);
        let mut cnp: Option<Packet> = None;
        let mut ack: Option<Packet> = None;
        if pkt.ecn {
            if let Some(sig) = r.np.on_packet(now, true, iv) {
                let iv = sig.advertised_interval_us;
                cnp = Some(Packet::cnp(pkt.flow, h.node, src, iv, now));
            }
        }
        r.pkts_since_ack += 1;
        let last = seq + pkt.payload_bytes as u64 >= flow_bytes;
        if last || r.pkts_since_ack >= ACK_EVERY {
            let echo = pkt.sent_at;
            ack = Some(Packet::ack(pkt.flow, h.node, src, r.received, echo, now));
            r.pkts_since_ack = 0;
        }
        if r.received >= flow_bytes && last {
            host.receivers.remove(&pkt.flow);
        }
        if cnp.is_some() {
            let (host, flow) = (h.node as u32, pkt.flow);
            tel::event_at(now, tel::Event::CnpSent { host, flow });
        }
        for p in [cnp, ack].into_iter().flatten() {
            debug_assert_eq!(p.class as usize, CLASS_CTRL);
            self.nic_enqueue(h, p);
        }
        self.try_tx(h, 0);
    }

    /// Sender side: an RTT sample, cumulative progress, and — on the last
    /// byte — the flow's completion record.
    fn on_ack(&mut self, h: Owned, flow: FlowId, acked_bytes: u64, echo: Nanos) {
        let now = self.core.now();
        let meta = self.flows[flow as usize];
        let rtt = now.saturating_sub(echo).max(1);
        tel::observe(tel::Hist::RttNs, rtt);
        let base = self.base_rtt(meta.src, meta.dst);
        // Per-sender-host sums: the interval fold over hosts is in fixed
        // id order, so the f64 sums are bit-identical no matter which
        // shard (or order) the ACKs landed in.
        self.accum.gamma_sum[h.slot] += (base as f64 / rtt as f64).min(1.0);
        self.accum.rtt_sum[h.slot] += rtt as f64;
        self.accum.rtt_count[h.slot] += 1;
        let Some(s) = self.hosts[h.slot].senders.get_mut(&flow) else {
            return;
        };
        if acked_bytes > s.acked {
            s.acked = acked_bytes;
            s.last_progress = now;
        }
        if s.acked < s.bytes {
            return;
        }
        self.hosts[h.slot].senders.remove(&flow);
        self.active_flows -= 1;
        tel::observe(tel::Hist::FctNs, now.saturating_sub(meta.start).max(1));
        self.completions.push(FlowRecord {
            flow,
            src: meta.src,
            dst: meta.dst,
            bytes: meta.bytes,
            start: meta.start,
            finish: now,
        });
    }

    /// Sender side: the reaction point cuts its rate; under DCQCN+ the
    /// advertised interval scales rate-increase aggressiveness down with
    /// the incast degree.
    fn on_cnp(&mut self, h: Owned, flow: FlowId, advertised_interval_us: Option<f64>) {
        self.accum.cnps += 1;
        tel::count(tel::Ctr::CnpReceived);
        let base_iv = self.cfg.dcqcn.min_time_between_cnps.max(1.0);
        if let Some(s) = self.hosts[h.slot].senders.get_mut(&flow) {
            s.rp.on_cnp(self.core.now());
            if let (true, Some(iv)) = (self.cfg.dcqcn_plus, advertised_interval_us) {
                s.rp.set_increase_scale((base_iv / iv).clamp(0.01, 1.0));
            }
        }
    }

    /// Go-back-N: a flow whose every byte was sent but whose cumulative
    /// ACK has not moved for one RTO rewinds to the ACK point.
    pub(crate) fn on_retx_check(&mut self, f: FlowId) {
        let (now, rto) = (self.core.now(), self.cfg.rto);
        let src = self.core.own(self.flows[f as usize].src);
        let Some(s) = self.hosts[src.slot].senders.get_mut(&f) else {
            return; // completed: the timer dies with the flow
        };
        if now.saturating_sub(s.last_progress) >= rto && s.sent >= s.bytes {
            s.sent = s.acked;
            s.last_progress = now;
            if !s.send_scheduled {
                s.send_scheduled = true;
                self.core.local(src, now, Event::QpSend(f));
            }
        }
        self.core.local(src, now + rto, Event::RetxCheck(f));
    }
}
