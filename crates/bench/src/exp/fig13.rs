//! Figure 13: testbed-style alltoall bandwidth across collective scales,
//! default vs expert vs PARALEON.
//!
//! The paper runs NCCL alltoall on 8..32 H100 nodes at 400 G and finds
//! PARALEON up to 19.5% above the static settings. Our substitute (see
//! DESIGN.md §4) sweeps the worker count on the simulated fabric and
//! reports the steady-state algorithm bandwidth; PARALEON tunes online
//! (forced trigger, throughput-sensitive weights, as an LLM cluster
//! operator would configure).

use paraleon::prelude::*;
use serde::Serialize;

use crate::{alltoall, grid, steady_algbw_gbps, Ctx, Scale};

#[derive(Serialize)]
struct Row {
    scheme: String,
    workers: usize,
    algbw_gbps: f64,
}

pub(crate) fn run(ctx: &Ctx) {
    let scale = ctx.scale;
    let (worker_counts, rounds): (&[usize], u32) = match scale {
        Scale::Paper => (&[8, 16, 32, 64], 6),
        _ => (&[8, 16, 32], 8),
    };
    let schemes = [SchemeKind::Default, SchemeKind::Expert, scale.paraleon()];
    let out = ctx.sweep(grid(worker_counts, &schemes), |(workers, scheme)| {
        let name = scheme.name().to_string();
        let mut cl = ClosedLoop::builder(scale.clos())
            .scheme(scheme)
            .loop_config(LoopConfig {
                force_tuning: true,
                weights: UtilityWeights::throughput_sensitive(),
                ..LoopConfig::default()
            })
            .build();
        let stride = (scale.hosts() / workers).max(1);
        let mut a2a = alltoall(workers, stride, scale.llm_message(), MILLI, Some(rounds));
        drivers::run_collective(&mut cl, &mut a2a, 0, 30 * SEC);
        Row {
            scheme: name,
            workers,
            algbw_gbps: steady_algbw_gbps(&a2a),
        }
    });
    ctx.write(&out);
}
