//! Per-packet layers: the DCQCN rate machines and the Elastic Sketch
//! data plane, replaying the packetised hadoop stream.

use paraleon_dcqcn::{DcqcnParams, EcnMarker, NpState, RpState};
use paraleon_sketch::{ElasticSketch, SketchConfig};

use super::{Inputs, LayerNumbers, Phase, WIRE_BYTES};
use crate::workloads::clos::HOST_BW;

/// Packets replayed between two clock reads: long enough that reading
/// the clock costs nothing, short enough that CNPs, sends and timer
/// catch-ups stay interleaved as in a run.
const BLOCK: usize = 4096;
/// One CNP per this many data packets, and all but one in this many
/// ECN-marked: the ratios two rounds of `clos128_alltoall` show at seed 5
/// (260k CNPs and 1.50M marks over 2.08M data packets).
const CNP_EVERY: usize = 8;
const UNMARKED_EVERY: usize = 4;
/// Monitor interval: sketches drain on these boundaries.
const INTERVAL_NS: u64 = 1_000_000;

fn dcqcn(inp: &Inputs, out: &mut LayerNumbers) {
    let params = DcqcnParams::nvidia_default();
    let mut rps: Vec<RpState> = inp
        .flows
        .iter()
        .map(|f| RpState::new(HOST_BW, params, f.start))
        .collect();
    let mut nps: Vec<NpState> = inp.flows.iter().map(|_| NpState::new(params)).collect();
    let mut markers: Vec<EcnMarker> = (0..8).map(|_| EcnMarker::from_params(&params)).collect();
    let (mut send, mut cnp, mut adv, mut np, mut cp) = (
        Phase::default(),
        Phase::default(),
        Phase::default(),
        Phase::default(),
        Phase::default(),
    );
    let mut sink = 0u64;
    for (b, block) in inp.stream.chunks(BLOCK).enumerate() {
        let base = b * BLOCK;
        let cnps = block
            .iter()
            .enumerate()
            .filter(|(i, _)| (base + i).is_multiple_of(CNP_EVERY));
        let n_cnps = cnps.clone().count();
        cnp.time(n_cnps, || {
            cnps.for_each(|(_, p)| rps[p.flow as usize].on_cnp(p.t))
        });
        send.time(block.len(), || {
            for p in block {
                rps[p.flow as usize].on_send(p.t, WIRE_BYTES);
            }
        });
        // Pacing reads the rate right after a send: a timer catch-up.
        adv.time(block.len(), || {
            for p in block {
                let rp = &mut rps[p.flow as usize];
                rp.advance(p.t + 40);
                sink = sink.wrapping_add(rp.rate() as u64);
            }
        });
        np.time(block.len(), || {
            for (i, p) in block.iter().enumerate() {
                let marked = !(base + i).is_multiple_of(UNMARKED_EVERY);
                sink += u64::from(nps[p.flow as usize].on_packet(p.t, marked, None).is_some());
            }
        });
        cp.time(block.len(), || {
            for (i, p) in block.iter().enumerate() {
                // Queue depth walks 0..1.2 MB; the coin is a cheap hash.
                let x = ((base + i) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let q = (x >> 44) as f64 * 1.2;
                let u = (x & 0xFFFF_FFFF) as f64 / 4_294_967_296.0;
                sink += u64::from(markers[p.tor as usize].should_mark(q, u));
            }
        });
    }
    std::hint::black_box(sink);
    out.insert("dcqcn.rp_on_send_ns", send.ns_per_op());
    out.insert("dcqcn.rp_on_cnp_ns", cnp.ns_per_op());
    out.insert("dcqcn.rp_advance_ns", adv.ns_per_op());
    out.insert("dcqcn.np_on_packet_ns", np.ns_per_op());
    out.insert("dcqcn.cp_should_mark_ns", cp.ns_per_op());
}

fn sketch(inp: &Inputs, out: &mut LayerNumbers) {
    let mut sketches: Vec<ElasticSketch> = (0..8u64)
        .map(|t| {
            ElasticSketch::new(SketchConfig {
                seed: SketchConfig::default().seed ^ t,
                ..SketchConfig::default()
            })
        })
        .collect();
    let (mut insert, mut drain) = (Phase::default(), Phase::default());
    let mut boundary = INTERVAL_NS;
    let mut drained = 0usize;
    for block in inp.stream.chunks(BLOCK) {
        if block[0].t >= boundary {
            boundary += INTERVAL_NS;
            for s in &mut sketches {
                drained += drain.time(1, || s.drain()).len();
            }
        }
        insert.time(block.len(), || {
            for p in block {
                sketches[p.tor as usize].insert(u64::from(p.flow), u64::from(p.bytes));
            }
        });
    }
    for s in &mut sketches {
        drained += drain.time(1, || s.drain()).len();
    }
    std::hint::black_box(drained);
    out.insert("sketch.insert_ns", insert.ns_per_op());
    out.insert("sketch.drain_us", drain.ns_per_op() / 1e3);
}

pub fn run(inp: &Inputs, out: &mut LayerNumbers) {
    dcqcn(inp, out);
    sketch(inp, out);
}
