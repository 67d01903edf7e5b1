//! Per-interval metric accounting: the raw feed for PARALEON's Runtime
//! Metric Monitor.
//!
//! The simulator accumulates counters between calls to
//! `Engine::collect_interval`, which snapshots them into an
//! [`IntervalMetrics`] — the in-simulation equivalent of the switch/RNIC
//! agents uploading throughput, RTT and PFC statistics to the centralized
//! controller once per monitor interval λ_MI.

use crate::fasthash::FastMap;
use crate::{FlowId, Nanos, NodeId};

/// Raw per-interval counters kept by the simulator (reset every collect).
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
    /// Per-device accumulated PFC pause duration this interval, ns
    /// (indexed by node id; for multi-port devices the worst port counts).
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
    /// Data bytes transmitted by each switch this interval (indexed by
    /// switch order).
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
    /// can see): indexed by switch order (ToRs first, then leaves).
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
