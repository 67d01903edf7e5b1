//! Figure 7: overall performance on the two workloads, all five tuning
//! schemes.
//!
//! * `fig7_fb` (a, b) — FB_Hadoop at 30% load: mean and 99.9th-percentile
//!   FCT slowdown per flow-size bin.
//! * `fig7_llm` (c, d) — LLM ON-OFF alltoall: CDF of flow completion
//!   times at two collective scales.

use paraleon::prelude::*;
use paraleon::stats::FIG7_BINS;
use serde::Serialize;

use crate::{alltoall, grid, Ctx, Scale};

#[derive(Serialize)]
struct FbRow {
    scheme: String,
    bin_lo: u64,
    bin_hi: u64,
    count: usize,
    avg_slowdown: f64,
    p999_slowdown: f64,
}

#[derive(Serialize)]
struct LlmRow {
    scheme: String,
    workers: usize,
    fct_cdf_ms: Vec<(f64, f64)>,
    p50_ms: f64,
    p99_ms: f64,
    max_ms: f64,
}

pub(crate) fn fb(ctx: &Ctx) {
    let scale = ctx.scale;
    let window = scale.fb_window();
    let flows = scale.poisson(FlowSizeDist::fb_hadoop(), 0.3, 0..window, 13);
    let runs = ctx.sweep(scale.all_schemes(), |scheme| {
        let mut cl = ClosedLoop::builder(scale.clos())
            .scheme(scheme.clone())
            .loop_config(LoopConfig {
                force_tuning: scheme.is_adaptive(),
                ..LoopConfig::default()
            })
            .build();
        drivers::run_schedule(&mut cl, &flows, window);
        // Drain the tail: let remaining flows finish.
        cl.run_to_completion(window + 300 * MILLI);
        let base_rtt = cl.sim.base_rtt(0, scale.hosts() - 1);
        let bins = stats::slowdown_bins(&cl.completions, 12.5e9, base_rtt, &FIG7_BINS);
        let name = scheme.name();
        bins.into_iter().map(move |b| FbRow {
            scheme: name.to_string(),
            bin_lo: b.lo,
            bin_hi: b.hi,
            count: b.count,
            avg_slowdown: b.avg,
            p999_slowdown: b.p999,
        })
    });
    let out: Vec<FbRow> = runs.into_iter().flatten().collect();
    ctx.write(&out);
}

pub(crate) fn llm(ctx: &Ctx) {
    let scale = ctx.scale;
    let worker_counts = match scale {
        Scale::Paper => [10, 20],
        _ => [8, 16],
    };
    let cells = grid(&worker_counts, &scale.all_schemes());
    let out = ctx.sweep(cells, |(n, scheme)| {
        let mut cl = ClosedLoop::builder(scale.clos())
            .scheme(scheme.clone())
            .loop_config(LoopConfig {
                force_tuning: scheme.is_adaptive(),
                weights: UtilityWeights::throughput_sensitive(),
                ..LoopConfig::default()
            })
            .build();
        // Enough rounds that PARALEON's SA episode (≈60 monitor
        // intervals) converges within the first third of the run.
        let mut a2a = alltoall(
            n,
            scale.hosts() / n,
            scale.llm_message(),
            5 * MILLI,
            Some(24),
        );
        let records = drivers::run_collective(&mut cl, &mut a2a, 0, 20 * SEC);
        // Steady-state measurement: discard the warm-up third of the
        // run (covers the adaptive schemes' tuning transient) for
        // every scheme alike.
        let t_end = records.iter().map(|r| r.finish).max().unwrap_or(0);
        let fcts_ms: Vec<f64> = records
            .iter()
            .filter(|r| r.start >= t_end / 3)
            .map(|r| r.fct() as f64 / 1e6)
            .collect();
        let mut sorted = fcts_ms.clone();
        LlmRow {
            scheme: scheme.name().to_string(),
            workers: n,
            fct_cdf_ms: stats::cdf(&fcts_ms, 20),
            p50_ms: stats::percentile(&mut sorted, 50.0),
            p99_ms: stats::percentile(&mut sorted, 99.0),
            max_ms: sorted.last().copied().unwrap_or(0.0),
        }
    });
    ctx.write(&out);
}
