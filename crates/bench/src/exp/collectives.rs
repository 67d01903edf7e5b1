//! Collective/topology scenario sweep: three collective kinds the
//! workloads crate generates (ring allreduce, alltoall, pipeline bursts)
//! crossed with every topology family the netsim crate builds (two-tier
//! Clos, oversubscribed three-tier Clos, rail-optimized) under Default,
//! Expert and PARALEON tuning.
//!
//! The paper's testbed evaluation (Figure 13) is a single collective on
//! a single fabric; this harness opens the rest of the scenario space
//! the poster gestures at — "tuning must adapt across workloads and
//! topologies" — and reports NCCL-style algorithm bandwidth per cell.
//!
//! Under `--check` every cell is also re-run on the 2-way sharded engine
//! and must produce byte-identical flow records and interval history —
//! the collective driver's barrier admission depends only on the
//! completion-record stream, so any engine divergence surfaces here.

use paraleon::prelude::*;
use serde::Serialize;

use crate::{grid, steady_algbw_gbps, Ctx, Scale};

#[derive(Serialize)]
struct Row {
    collective: String,
    topology: String,
    scheme: String,
    algbw_gbps: f64,
    mean_round_ms: f64,
    rounds_done: u32,
}

/// The three topology families of the sweep, dimensioned so every family
/// carries the same host count at a given scale. The three-tier fabric
/// is 2:1 oversubscribed at the ToR→agg boundary; the rail fabric stripes
/// host incidence across rails (the layout most hostile to locality
/// assumptions in partitioning).
fn topologies(scale: Scale) -> [(&'static str, TopoSpec); 3] {
    let (pods, tors, hpt, rails, servers) = match scale {
        Scale::Paper => (2, 4, 8, 8, 8), // 64 hosts everywhere
        _ => (2, 2, 4, 4, 4),            // 16 hosts everywhere
    };
    [
        (
            "two_tier",
            TopoSpec::TwoTier(ClosSpec {
                n_tor: pods * tors,
                hosts_per_tor: hpt,
                n_leaf: 2,
                host_gbps: 100.0,
                uplink_gbps: 100.0,
                delay_ns: 5_000,
            }),
        ),
        (
            "three_tier_oversub",
            TopoSpec::ThreeTier(ThreeTierSpec {
                n_pod: pods,
                tors_per_pod: tors,
                hosts_per_tor: hpt,
                aggs_per_pod: 2,
                spines_per_agg: 1,
                host_gbps: 100.0,
                agg_gbps: 100.0,
                spine_gbps: 100.0,
                delay_ns: 5_000,
            }),
        ),
        (
            "rail_optimized",
            TopoSpec::Rail(RailSpec {
                n_rail: rails,
                n_server: servers,
                n_spine: 2,
                host_gbps: 100.0,
                uplink_gbps: 100.0,
                delay_ns: 5_000,
            }),
        ),
    ]
}

const COLLECTIVES: [CollectiveKind; 3] = [
    CollectiveKind::RingAllreduce,
    CollectiveKind::Alltoall,
    CollectiveKind::PipelineBurst,
];

/// Run one (collective, topology, scheme) cell on `threads` engine
/// shards; returns the finished collective and everything a differential
/// check compares.
fn run_cell(
    kind: CollectiveKind,
    spec: &TopoSpec,
    scheme: &SchemeKind,
    scale: Scale,
    threads: usize,
) -> (Collective, Vec<FlowRecord>, Vec<IntervalRecord>) {
    let mut cl = ClosedLoop::builder(spec.build())
        .scheme(scheme.clone())
        .parallel(threads)
        .loop_config(LoopConfig {
            force_tuning: true,
            weights: UtilityWeights::throughput_sensitive(),
            ..LoopConfig::default()
        })
        .build();
    let rounds = match scale {
        Scale::Paper => 6,
        _ => 4,
    };
    let mut coll = Collective::new(CollectiveSpec {
        kind,
        workers: (0..spec.n_hosts()).collect(),
        message_bytes: scale.llm_message(),
        microbatches: 4,
        rounds: Some(rounds),
        off_time: MILLI,
    });
    let records = drivers::run_collective(&mut cl, &mut coll, 0, 30 * SEC);
    (coll, records, cl.cell.history)
}

pub(crate) fn run(ctx: &Ctx) {
    let scale = ctx.scale;
    let schemes = [SchemeKind::Default, SchemeKind::Expert, scale.paraleon()];
    let topologies = topologies(scale);
    let cells = grid(&grid(&COLLECTIVES, &topologies), &schemes);
    let out = ctx.sweep(cells, |((kind, (topo, spec)), scheme)| {
        let (coll, records, history) = run_cell(kind, &spec, &scheme, scale, 1);
        if ctx.check {
            let (_, par_records, par_history) = run_cell(kind, &spec, &scheme, scale, 2);
            ctx.gate(
                par_records == records && par_history == history,
                format!(
                    "{} on {topo} under {}: 2-way sharded run is not byte-identical to serial",
                    kind.name(),
                    scheme.name()
                ),
            );
        }
        let round_ms: Vec<f64> = coll
            .round_durations()
            .iter()
            .map(|&d| d as f64 / 1e6)
            .collect();
        Row {
            collective: kind.name().to_string(),
            topology: topo.to_string(),
            scheme: scheme.name().to_string(),
            algbw_gbps: steady_algbw_gbps(&coll),
            mean_round_ms: stats::mean(&round_ms),
            rounds_done: coll.rounds_done(),
        }
    });
    ctx.write(&out);
}
