//! Figure 12: ablation of the SA optimizations — utility convergence of
//! PARALEON's guided/relaxed SA vs naive SA, on both workloads.
//!
//! Both tuners run a forced episode from t = 0; the series of utility
//! values per monitor interval shows convergence speed. The paper's
//! claim to reproduce: PARALEON reaches high utility within dozens of
//! intervals, naive SA needs many more.

use paraleon::prelude::*;
use serde::Serialize;

use crate::{alltoall, grid, Ctx};

#[derive(Serialize)]
struct Series {
    scheme: String,
    workload: String,
    utility: Vec<f64>,
    best_so_far: Vec<f64>,
    mean_utility: f64,
    /// Mean over the last third of the intervals.
    final_utility: f64,
    /// [`convergence_round`] with a 10-interval window and 0.08
    /// tolerance.
    converged_at: usize,
}

/// Run one (workload, tuner) cell; the convergence series is rebuilt
/// from the run's exported telemetry — the per-interval `utility` series
/// the closed loop recorded.
fn run_one(ctx: &Ctx, llm: bool, scheme: SchemeKind) -> Series {
    let scale = ctx.scale;
    let workload = if llm { "LLM alltoall" } else { "FB_Hadoop" };
    let mut cfg = LoopConfig {
        force_tuning: true,
        ..LoopConfig::default()
    };
    if llm {
        cfg.weights = UtilityWeights::throughput_sensitive();
    }
    ctx.telemetry_begin();
    let mut cl = ClosedLoop::builder(scale.clos())
        .scheme(scheme.clone())
        .loop_config(cfg)
        .build();
    let window = 2 * scale.fb_window();
    if llm {
        let mut a2a = alltoall(scale.hosts() / 4, 2, scale.llm_message(), MILLI, None);
        drivers::run_collective(&mut cl, &mut a2a, 0, window);
    } else {
        let flows = scale.poisson(FlowSizeDist::fb_hadoop(), 0.3, 0..window, 23);
        drivers::run_schedule(&mut cl, &flows, window);
    }
    let dump = ctx.telemetry_dump(&format!("{workload}_{}", scheme.name()));
    let utility: Vec<f64> = dump
        .series_get("utility", 0)
        .iter()
        .map(|&(_, v)| v)
        .collect();
    let mut best = f64::NEG_INFINITY;
    let best_so_far = utility
        .iter()
        .map(|&u| {
            best = best.max(u);
            best
        })
        .collect();
    let n = utility.len();
    Series {
        scheme: scheme.name().to_string(),
        workload: workload.to_string(),
        mean_utility: stats::mean(&utility),
        final_utility: stats::mean(&utility[n - n / 3..]),
        converged_at: convergence_round(&utility, 10, 0.08),
        utility,
        best_so_far,
    }
}

/// Convergence time: the first interval after which the `w`-interval
/// moving average of utility stays within `tol` of the final-third mean.
/// (Raw best-so-far is too noisy: workload stochasticity produces early
/// lucky peaks; what matters is when the *deployed* quality stabilizes.)
fn convergence_round(u: &[f64], w: usize, tol: f64) -> usize {
    if u.len() < 3 * w {
        return u.len();
    }
    let final_mean = stats::mean(&u[u.len() - u.len() / 3..]);
    // Last window whose moving average deviates beyond tolerance.
    u.windows(w)
        .rposition(|win| (win.iter().sum::<f64>() / w as f64 - final_mean).abs() > tol)
        .map_or(0, |i| (i + w).min(u.len()))
}

pub(crate) fn run(ctx: &Ctx) {
    let tuners = [ctx.scale.paraleon(), SchemeKind::ParaleonNaiveSa];
    let cells = grid(&[false, true], &tuners);
    let all = ctx.sweep(cells, |(llm, scheme)| run_one(ctx, llm, scheme));
    ctx.write(&all);
}
