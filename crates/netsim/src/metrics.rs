//! Per-interval metric accounting: the raw feed for PARALEON's Runtime
//! Metric Monitor.
//!
//! The simulator accumulates counters between calls to
//! `Engine::collect_interval`, which snapshots them into an
//! [`IntervalMetrics`] — the in-simulation equivalent of the switch/RNIC
//! agents uploading throughput, RTT and PFC statistics to the centralized
//! controller once per monitor interval λ_MI. Each shard snapshots the
//! entities it owns into an `IntervalRaw` of its own size; the snapshots
//! are placed into one fabric-wide snapshot and folded in global node
//! order, so the floating-point results are bit-identical at every shard
//! count.

use crate::config::SimConfig;
use crate::fasthash::FastMap;
use crate::topology::Topology;
use crate::{FlowId, Nanos, NodeId};

/// Raw per-interval counters kept by one shard (reset every collect).
/// Per-host tables are indexed by the host's slot, `pause_ns` by node
/// slot, `switch_tx_bytes` by the switch's position among the shard's
/// switches — on the only shard of an engine: host id, node id, switch
/// index.
#[derive(Debug, Default)]
pub(crate) struct IntervalAccum {
    /// Bytes sent upward on each host's uplink (host → ToR).
    pub host_up_bytes: Vec<u64>,
    /// Bytes received by each host (ToR → host direction).
    pub host_down_bytes: Vec<u64>,
    /// Per-sender-host sum of normalized RTT samples (base_rtt / sample).
    /// Kept per host (not as one running scalar) so the fold order of the
    /// floating-point sums is fixed by host id — the parallel engine then
    /// reproduces the serial totals bit-exactly regardless of which shard
    /// observed which ACK first.
    pub gamma_sum: Vec<f64>,
    /// Per-sender-host sum of raw RTT samples, ns.
    pub rtt_sum: Vec<f64>,
    /// Per-sender-host number of RTT samples.
    pub rtt_count: Vec<u64>,
    /// Per-device accumulated PFC pause duration this interval, ns,
    /// summed over the device's ports (so at most `dt × radix`; the fold
    /// clamps each device to `dt`).
    pub pause_ns: Vec<Nanos>,
    /// CNPs delivered to senders.
    pub cnps: u64,
    /// ECN marks applied by switches.
    pub ecn_marks: u64,
    /// Data packets dropped at full buffers.
    pub drops: u64,
    /// Packets lost to injected faults (dead links, corruption).
    pub fault_drops: u64,
    /// Payload bytes delivered to receivers.
    pub bytes_delivered: u64,
    /// PFC pause frames emitted.
    pub pfc_events: u64,
    /// Data bytes transmitted by each switch this interval.
    pub switch_tx_bytes: Vec<u64>,
    /// Ground-truth bytes injected per flow this interval (optional).
    pub truth_flow_bytes: FastMap<FlowId, u64>,
}

impl IntervalAccum {
    pub(crate) fn new(n_nodes: usize, n_hosts: usize) -> Self {
        Self {
            host_up_bytes: vec![0; n_hosts],
            host_down_bytes: vec![0; n_hosts],
            gamma_sum: vec![0.0; n_hosts],
            rtt_sum: vec![0.0; n_hosts],
            rtt_count: vec![0; n_hosts],
            pause_ns: vec![0; n_nodes],
            switch_tx_bytes: vec![0; n_nodes - n_hosts],
            ..Default::default()
        }
    }
}

/// One shard's snapshot of an interval: its counters plus what it read
/// off the entities it owns, indexed like [`IntervalAccum`]. The only
/// shard's snapshot is the fabric's; several are put together by
/// [`IntervalRaw::place`].
#[derive(Debug)]
pub(crate) struct IntervalRaw {
    /// Interval start.
    pub start: Nanos,
    /// Interval end (collection instant).
    pub end: Nanos,
    /// The shard's accumulated counters.
    pub accum: IntervalAccum,
    /// Per-node reachability.
    pub reachable: Vec<bool>,
    /// Per-switch marker `seen` delta this interval.
    pub sw_seen: Vec<u64>,
    /// Per-switch marker `marked` delta this interval.
    pub sw_marked: Vec<u64>,
    /// Per-switch shared-buffer occupancy at collection.
    pub sw_buffer: Vec<u64>,
    /// Drained ToR sketches for reachable ToRs, by node id.
    pub sketches: Vec<(NodeId, Vec<(FlowId, u64)>)>,
}

impl IntervalRaw {
    /// An all-zero snapshot of `[start, end]` over `n_nodes` nodes, the
    /// first `n_hosts` of them hosts.
    pub(crate) fn new(start: Nanos, end: Nanos, n_nodes: usize, n_hosts: usize) -> Self {
        let n_sw = n_nodes - n_hosts;
        Self {
            start,
            end,
            accum: IntervalAccum::new(n_nodes, n_hosts),
            reachable: vec![true; n_nodes],
            sw_seen: vec![0; n_sw],
            sw_marked: vec![0; n_sw],
            sw_buffer: vec![0; n_sw],
            sketches: Vec::new(),
        }
    }

    /// Put shard snapshot `r` of the same interval into this fabric-wide
    /// one: `nodes` are the node ids `r`'s slots stand for. Every
    /// entity's data lives on exactly one shard, so each per-entity entry
    /// is written once — for `f64` that is selection, not reassociation.
    pub(crate) fn place(&mut self, r: IntervalRaw, nodes: impl Iterator<Item = NodeId>) {
        debug_assert_eq!((self.start, self.end), (r.start, r.end));
        let (n_hosts, r_hosts) = (self.accum.rtt_count.len(), r.accum.rtt_count.len());
        let (a, b) = (&mut self.accum, r.accum);
        for (slot, node) in nodes.enumerate() {
            self.reachable[node] = r.reachable[slot];
            a.pause_ns[node] = b.pause_ns[slot];
            if node < n_hosts {
                a.host_up_bytes[node] = b.host_up_bytes[slot];
                a.host_down_bytes[node] = b.host_down_bytes[slot];
                a.gamma_sum[node] = b.gamma_sum[slot];
                a.rtt_sum[node] = b.rtt_sum[slot];
                a.rtt_count[node] = b.rtt_count[slot];
            } else {
                let (sw, r_sw) = (node - n_hosts, slot - r_hosts);
                a.switch_tx_bytes[sw] = b.switch_tx_bytes[r_sw];
                self.sw_seen[sw] = r.sw_seen[r_sw];
                self.sw_marked[sw] = r.sw_marked[r_sw];
                self.sw_buffer[sw] = r.sw_buffer[r_sw];
            }
        }
        a.cnps += b.cnps;
        a.ecn_marks += b.ecn_marks;
        a.drops += b.drops;
        a.fault_drops += b.fault_drops;
        a.bytes_delivered += b.bytes_delivered;
        a.pfc_events += b.pfc_events;
        for (flow, bytes) in b.truth_flow_bytes {
            *a.truth_flow_bytes.entry(flow).or_insert(0) += bytes;
        }
        self.sketches.extend(r.sketches);
    }

    /// Compute the uploaded metrics from the fabric-wide snapshot,
    /// folding in global node order.
    pub(crate) fn fold(mut self, topo: &Topology, cfg: &SimConfig) -> IntervalMetrics {
        self.sketches.sort_unstable_by_key(|&(n, _)| n);
        let dt = self.end.saturating_sub(self.start);
        let dt_f = dt.max(1) as f64;
        let (gamma, avg_rtt_ns) = self.rtt();
        let mut truth: Vec<(FlowId, u64)> = self.accum.truth_flow_bytes.drain().collect();
        truth.sort_unstable();
        IntervalMetrics {
            start: self.start,
            end: self.end,
            avg_uplink_utilization: self.uplink_utilization(topo, dt_f),
            avg_normalized_rtt: gamma.min(1.0),
            avg_rtt_ns,
            pfc_pause_ratio: self.pause_ratio(dt, dt_f).min(1.0),
            cnps: self.accum.cnps,
            ecn_marks: self.accum.ecn_marks,
            drops: self.accum.drops,
            fault_drops: self.accum.fault_drops,
            pfc_events: self.accum.pfc_events,
            bytes_delivered: self.accum.bytes_delivered,
            switch_obs: self.switch_obs(topo, cfg, dt_f),
            tor_sketches: self.sketches,
            truth_flow_bytes: truth,
        }
    }

    /// O_TP over active host<->ToR uplinks.
    fn uplink_utilization(&self, topo: &Topology, dt_f: f64) -> f64 {
        let mut util_sum = 0.0;
        let mut util_n = 0u32;
        for h in 0..topo.n_hosts() {
            let bw = topo.ports(h)[0].bw; // bytes/ns
            for bytes in [self.accum.host_up_bytes[h], self.accum.host_down_bytes[h]] {
                if bytes > 0 {
                    util_sum += (bytes as f64 / (bw * dt_f)).min(1.0);
                    util_n += 1;
                }
            }
        }
        if util_n == 0 {
            0.0
        } else {
            util_sum / util_n as f64
        }
    }

    /// O_RTT: per-host partial sums folded in host order — mean
    /// normalized RTT (1 when idle) and mean raw RTT in ns.
    fn rtt(&self) -> (f64, f64) {
        let a = &self.accum;
        let (mut gamma_sum, mut rtt_sum, mut rtt_count) = (0.0, 0.0, 0u64);
        for h in 0..a.rtt_count.len() {
            gamma_sum += a.gamma_sum[h];
            rtt_sum += a.rtt_sum[h];
            rtt_count += a.rtt_count[h];
        }
        if rtt_count == 0 {
            (1.0, 0.0)
        } else {
            (gamma_sum / rtt_count as f64, rtt_sum / rtt_count as f64)
        }
    }

    /// O_PFC over devices the controller can still hear from — a fully
    /// cut-off node cannot upload pause statistics, and must not be
    /// averaged in as a silent zero.
    fn pause_ratio(&self, dt: Nanos, dt_f: f64) -> f64 {
        let mut pause_sum = 0.0;
        let mut present = 0u32;
        for (node, &p) in self.accum.pause_ns.iter().enumerate() {
            if self.reachable[node] {
                present += 1;
                pause_sum += (p.min(dt) as f64) / dt_f;
            }
        }
        pause_sum / present.max(1) as f64
    }

    /// Per-switch local observations (the ACC agents' inputs). A switch
    /// with every link dead stops uploading: it is simply absent from
    /// this interval's `switch_obs`.
    fn switch_obs(&self, topo: &Topology, cfg: &SimConfig, dt_f: f64) -> Vec<SwitchObs> {
        let mut obs = Vec::with_capacity(self.sw_seen.len());
        for (i, (&seen, &marked)) in self.sw_seen.iter().zip(&self.sw_marked).enumerate() {
            let node = topo.n_hosts() + i;
            if !self.reachable[node] {
                continue;
            }
            let total_bw: f64 = topo.ports(node).iter().map(|p| p.bw).sum();
            let tx = self.accum.switch_tx_bytes[i] as f64;
            obs.push(SwitchObs {
                node,
                tx_utilization: (tx / (total_bw * dt_f)).min(1.0),
                marking_rate: if seen == 0 {
                    0.0
                } else {
                    marked as f64 / seen as f64
                },
                queue_frac: self.sw_buffer[i] as f64 / cfg.switch_buffer_bytes.max(1) as f64,
            });
        }
        obs
    }
}

/// One monitor interval's network-wide metrics, as the controller sees
/// them (the inputs to Equation (1)'s utility terms).
///
/// `PartialEq` is exact (bitwise on the `f64` fields): the parallel
/// engine's differential tests assert byte-identity against the serial
/// engine, not approximate agreement.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalMetrics {
    /// Interval start time.
    pub start: Nanos,
    /// Interval end time (collection instant).
    pub end: Nanos,
    /// O_TP: mean utilization of active host↔ToR uplinks, `[0, 1]`.
    pub avg_uplink_utilization: f64,
    /// O_RTT: mean of `base_path_delay / runtime_RTT` over samples,
    /// `(0, 1]`; 1.0 when no sample was taken (an idle network).
    pub avg_normalized_rtt: f64,
    /// Mean raw RTT over the interval, ns (0 when no samples).
    pub avg_rtt_ns: f64,
    /// `λ̄_xoff / λ_MI`: mean per-device PFC pause fraction, `[0, 1]`.
    pub pfc_pause_ratio: f64,
    /// CNPs delivered to senders this interval.
    pub cnps: u64,
    /// ECN marks applied this interval.
    pub ecn_marks: u64,
    /// Packets dropped (should stay 0 under functioning PFC).
    pub drops: u64,
    /// Packets lost to injected faults this interval (dead links and
    /// random corruption; 0 unless a fault plan is active).
    pub fault_drops: u64,
    /// PFC pause frames emitted this interval.
    pub pfc_events: u64,
    /// Payload bytes delivered to receivers this interval.
    pub bytes_delivered: u64,
    /// Per-switch local observations (what an ACC-style per-switch agent
    /// can see), in switch order: ToRs, then each tier above them.
    pub switch_obs: Vec<SwitchObs>,
    /// Per-ToR drained sketch readings: `(tor_node, [(flow, bytes)])`.
    /// Feed these to the control-plane classifier.
    pub tor_sketches: Vec<(NodeId, Vec<(FlowId, u64)>)>,
    /// Exact per-flow injected bytes (present only when ground-truth
    /// tracking is enabled).
    pub truth_flow_bytes: Vec<(FlowId, u64)>,
}

impl IntervalMetrics {
    /// Interval length in nanoseconds.
    pub fn duration(&self) -> Nanos {
        self.end.saturating_sub(self.start)
    }

    /// Aggregate delivered goodput over the interval, bytes/sec.
    pub fn goodput_bytes_per_sec(&self) -> f64 {
        let d = self.duration();
        if d == 0 {
            0.0
        } else {
            self.bytes_delivered as f64 * 1e9 / d as f64
        }
    }
}

/// One switch's locally observable state for an interval — exactly the
/// inputs ACC's per-switch agents consume (port rate, ECN marking rate,
/// queue length).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchObs {
    /// The switch node id.
    pub node: NodeId,
    /// Mean egress utilization across ports this interval, `[0, 1]`.
    pub tx_utilization: f64,
    /// Fraction of examined packets that were ECN-marked this interval.
    pub marking_rate: f64,
    /// Shared-buffer occupancy at collection time as a fraction of the
    /// buffer size.
    pub queue_frac: f64,
}

/// A completed flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRecord {
    /// Flow id.
    pub flow: FlowId,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Flow size, bytes.
    pub bytes: u64,
    /// Start time (when the flow was admitted).
    pub start: Nanos,
    /// Completion time (last byte acknowledged at the sender).
    pub finish: Nanos,
}

impl FlowRecord {
    /// Flow completion time.
    pub fn fct(&self) -> Nanos {
        self.finish.saturating_sub(self.start)
    }

    /// FCT slowdown relative to an ideal transfer at `ref_bw` bytes/sec
    /// plus `base_rtt` of unloaded latency — the y-axis of Figure 7(a,b).
    pub fn slowdown(&self, ref_bw_bytes_per_sec: f64, base_rtt: Nanos) -> f64 {
        let ideal = self.bytes as f64 / ref_bw_bytes_per_sec * 1e9 + base_rtt as f64;
        (self.fct() as f64 / ideal).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fct_and_slowdown() {
        let r = FlowRecord {
            flow: 1,
            src: 0,
            dst: 1,
            bytes: 1_250_000, // takes 100 µs at 100 Gbps
            start: 1_000,
            finish: 401_000,
        };
        assert_eq!(r.fct(), 400_000);
        // Ideal = 100 µs + 10 µs base = 110 µs; slowdown ≈ 3.64.
        let s = r.slowdown(12.5e9, 10_000);
        assert!((s - 400.0 / 110.0).abs() < 1e-9);
    }

    #[test]
    fn slowdown_is_at_least_one() {
        let r = FlowRecord {
            flow: 1,
            src: 0,
            dst: 1,
            bytes: 1000,
            start: 0,
            finish: 1,
        };
        assert_eq!(r.slowdown(12.5e9, 10_000), 1.0);
    }

    #[test]
    fn goodput_computation() {
        let m = IntervalMetrics {
            start: 0,
            end: 1_000_000,
            avg_uplink_utilization: 0.5,
            avg_normalized_rtt: 0.9,
            avg_rtt_ns: 20_000.0,
            pfc_pause_ratio: 0.0,
            cnps: 0,
            ecn_marks: 0,
            drops: 0,
            fault_drops: 0,
            pfc_events: 0,
            bytes_delivered: 1_250_000,
            switch_obs: Vec::new(),
            tor_sketches: Vec::new(),
            truth_flow_bytes: Vec::new(),
        };
        assert_eq!(m.duration(), 1_000_000);
        // 1.25 MB over 1 ms = 1.25 GB/s.
        assert!((m.goodput_bytes_per_sec() - 1.25e9).abs() < 1.0);
    }
}
