//! The remaining layers' public entry points: telemetry probes and
//! capture/replay, workload generators, `hunt::evaluate` over the
//! committed corpus, and fabric/engine construction.

use std::time::Instant;

use paraleon::prelude::*;
use paraleon_hunt::corpus::load_dir;
use paraleon_hunt::evaluate;
use paraleon_netsim::Engine;
use paraleon_telemetry as tel;
use paraleon_workloads::Collective;

use super::{ns_per_op, Inputs, LayerNumbers};
use crate::host::repo_root;
use crate::spec;
use crate::stats::median;
use crate::workloads::clos::{alltoall_collective, hadoop_flows, paper_fabric};

const PROBES: usize = 5_000_000;
const CAPTURED: usize = 200_000;
/// Evaluations per corpus case.
const HUNT_ROUNDS: usize = 3;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn telemetry(out: &mut LayerNumbers) {
    let count_many =
        || (0..PROBES).for_each(|_| tel::count(std::hint::black_box(tel::Ctr::EcnMarks)));
    tel::set_enabled(false);
    out.insert("telemetry.count_disabled_ns", ns_per_op(PROBES, count_many));
    tel::reset();
    tel::set_enabled(true);
    out.insert("telemetry.count_enabled_ns", ns_per_op(PROBES, count_many));
    tel::set_enabled(false);
    tel::reset();
    // What a fleet tenant's phase A pays per emission: divert into the
    // capture buffer, then replay on the coordinator (registry off).
    let t = Instant::now();
    tel::capture_begin();
    for i in 0..CAPTURED as u64 {
        tel::capture_stamp(i, i);
        match i % 3 {
            0 => tel::count(tel::Ctr::CnpGenerated),
            1 => tel::observe(tel::Hist::RttNs, 10_000 + i),
            _ => tel::gauge_set(tel::Gauge::ActiveFlows, i as f64),
        }
    }
    let items = tel::capture_take();
    tel::capture_replay(&items);
    out.insert(
        "telemetry.capture_replay_ns_per_event",
        t.elapsed().as_nanos() as f64 / items.len().max(1) as f64,
    );
    tel::reset();
}

fn generators(inp: &Inputs, out: &mut LayerNumbers) {
    let t = Instant::now();
    let flows = hadoop_flows(inp.seed, spec::HADOOP_LOAD_MS);
    out.insert(
        "workloads.poisson_flows_per_s",
        flows.len() as f64 / t.elapsed().as_secs_f64(),
    );
    let rounds: Vec<f64> = (0..51)
        .map(|_| {
            let mut a2a = alltoall_collective(inp.seed);
            let t = Instant::now();
            let n = Collective::start_round(&mut a2a, 0).map_or(0, |f| f.len());
            std::hint::black_box(n);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.insert(
        "workloads.alltoall_round_us",
        median(&rounds).unwrap_or(0.0),
    );
}

fn hunt(out: &mut LayerNumbers) {
    let t = Instant::now();
    let cases = load_dir(&repo_root().join("corpus")).unwrap_or_default();
    out.insert("hunt.corpus_load_ms", ms_since(t));
    let mut ms = Vec::new();
    for _ in 0..HUNT_ROUNDS {
        for c in &cases {
            let t = Instant::now();
            // A corpus case that no longer evaluates is the corpus
            // gate's finding, not a timing sample.
            if evaluate(&c.eval, &c.oracles, &c.point).is_ok() {
                ms.push(ms_since(t));
            }
        }
    }
    let total_s: f64 = ms.iter().sum::<f64>() / 1e3;
    out.insert("hunt.evaluate_ms_p50", median(&ms).unwrap_or(0.0));
    out.insert(
        "hunt.evals_per_s",
        if total_s > 0.0 {
            ms.len() as f64 / total_s
        } else {
            0.0
        },
    );
}

fn construction(out: &mut LayerNumbers) {
    let build: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            let topo = paper_fabric();
            let ms = ms_since(t);
            drop(topo);
            ms
        })
        .collect();
    out.insert("netsim.topology_build_ms", median(&build).unwrap_or(0.0));
    let new: Vec<f64> = (0..11)
        .map(|_| {
            let topo = paper_fabric();
            let t = Instant::now();
            let engine = Engine::new(topo, SimConfig::default(), 1);
            let ms = ms_since(t);
            drop(engine);
            ms
        })
        .collect();
    out.insert("netsim.engine_new_ms", median(&new).unwrap_or(0.0));
}

pub fn run(inp: &Inputs, out: &mut LayerNumbers) {
    telemetry(out);
    generators(inp, out);
    hunt(out);
    construction(out);
}
