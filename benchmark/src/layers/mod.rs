//! Isolated drivers for the layers `Engine::run_until` and
//! `TunerCell::process_interval` hide: each times one layer's public
//! functions on inputs *derived from the benchmark's workloads* — the
//! packetised `clos128_hadoop` flow stream, a recorded interval tape —
//! so working sets match what the layer sees inside a run (a sketch's
//! heavy part under ~3000 live flows, not a `0..1000` loop).
//!
//! The drivers do not depend on which workload the traced run measured;
//! only the `est_share` figures combine their ns/op with that run's
//! exact operation counts.

mod controller;
mod dataplane;
mod misc;

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

use paraleon::prelude::FlowRequest;

use crate::spec;
use crate::workloads::clos::hadoop_flows;
use crate::workloads::ctrl::{record_tape, Tape};

/// ns/op (or µs, ms — the metric's unit) per per-layer metric name.
pub type LayerNumbers = BTreeMap<&'static str, f64>;

/// Wire bytes of a full data packet (1000 B payload + 48 B headers).
const WIRE_BYTES: u64 = 1048;
const PAYLOAD_BYTES: u64 = 1000;
/// Serialisation time of one full packet at 100 Gbit/s, ns.
const PKT_NS: u64 = 84;
/// Packets of the stream the data-plane drivers replay (~4 ms of the
/// hadoop load: four sketch drains per ToR).
const STREAM_PACKETS: usize = 2_000_000;
/// Intervals of tape the controller drivers cycle.
const DRIVER_TAPE_INTERVALS: u64 = 6;

/// One data packet of the derived stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pkt {
    /// Send time, ns.
    pub t: u64,
    /// Index of its flow in the generated schedule (= its flow id).
    pub flow: u32,
    /// Source ToR: the one sketch the packet enters (TOS dedup).
    pub tor: u8,
    /// Payload bytes (the last packet of a flow may be short).
    pub bytes: u16,
}

/// Packetise a start-sorted flow schedule: every flow sends full
/// packets back to back at line rate from its start time; the merged
/// stream is in time order and cut at `limit` packets.
pub fn packetize(flows: &[FlowRequest], hosts_per_tor: usize, limit: usize) -> Vec<Pkt> {
    // (next send time, flow index, payload bytes left)
    let mut live: BinaryHeap<Reverse<(u64, u32, u64)>> = BinaryHeap::new();
    let mut next_flow = 0;
    let mut out = Vec::with_capacity(limit.min(1 << 22));
    while out.len() < limit {
        let heap_t = live.peek().map(|Reverse((t, _, _))| *t);
        let flow_t = flows.get(next_flow).map(|f| f.start);
        match (heap_t, flow_t) {
            (None, None) => break,
            (h, Some(ft)) if h.is_none_or(|ht| ft <= ht) => {
                live.push(Reverse((ft, next_flow as u32, flows[next_flow].bytes)));
                next_flow += 1;
            }
            _ => {
                let Reverse((t, flow, left)) = live.pop().expect("peeked");
                let bytes = left.min(PAYLOAD_BYTES);
                out.push(Pkt {
                    t,
                    flow,
                    tor: (flows[flow as usize].src / hosts_per_tor) as u8,
                    bytes: bytes as u16,
                });
                if left > bytes {
                    live.push(Reverse((t + PKT_NS, flow, left - bytes)));
                }
            }
        }
    }
    out
}

/// Nanoseconds per operation of `f`, which performs `ops` operations.
fn ns_per_op(ops: usize, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Running total for operations timed in many short phases.
#[derive(Default)]
struct Phase {
    ns: u128,
    ops: u64,
}

impl Phase {
    fn time<T>(&mut self, ops: usize, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos();
        self.ops += ops as u64;
        r
    }

    fn ns_per_op(&self) -> f64 {
        self.ns as f64 / self.ops.max(1) as f64
    }
}

/// Inputs every driver shares, derived from `--seed`.
pub struct Inputs {
    pub seed: u64,
    pub flows: Vec<FlowRequest>,
    pub stream: Vec<Pkt>,
    pub tape: Tape,
}

impl Inputs {
    pub fn derive(seed: u64) -> Self {
        let flows = hadoop_flows(seed, spec::HADOOP_LOAD_MS);
        let stream = packetize(&flows, 16, STREAM_PACKETS);
        Self {
            seed,
            flows,
            stream,
            tape: record_tape(seed, DRIVER_TAPE_INTERVALS),
        }
    }
}

/// Run every isolated driver once.
pub fn run_all(seed: u64) -> LayerNumbers {
    let inputs = Inputs::derive(seed);
    let mut out = LayerNumbers::new();
    dataplane::run(&inputs, &mut out);
    controller::run(&inputs, &mut out);
    misc::run(&inputs, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(src: usize, bytes: u64, start: u64) -> FlowRequest {
        FlowRequest {
            src,
            dst: 0,
            bytes,
            start,
        }
    }

    #[test]
    fn packetize_interleaves_flows_in_time_order() {
        let flows = [flow(3, 2_500, 0), flow(20, 1_000, 50)];
        let s = packetize(&flows, 16, 100);
        let brief: Vec<(u64, u32, u8, u16)> =
            s.iter().map(|p| (p.t, p.flow, p.tor, p.bytes)).collect();
        assert_eq!(
            brief,
            vec![
                (0, 0, 0, 1000),
                (50, 1, 1, 1000),
                (84, 0, 0, 1000),
                (168, 0, 0, 500)
            ]
        );
    }

    #[test]
    fn packetize_conserves_bytes_and_honours_the_limit() {
        let flows = [flow(0, 10_300, 0), flow(1, 999, 10)];
        let all = packetize(&flows, 16, usize::MAX);
        assert_eq!(all.iter().map(|p| u64::from(p.bytes)).sum::<u64>(), 11_299);
        assert!(all.windows(2).all(|w| w[0].t <= w[1].t));
        assert_eq!(packetize(&flows, 16, 3).len(), 3);
    }
}
