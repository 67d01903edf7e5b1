//! Figures 10 & 11: monitoring-scheme comparison — FSD accuracy and the
//! FCT it buys.
//!
//! Every variant drives the same PARALEON SA tuner on FB_Hadoop; only
//! the quality of the flow-size distribution it is fed differs. Accuracy
//! is the similarity of each interval's estimated network-wide FSD to
//! the ground truth computed from exact per-flow byte counts.
//!
//! * `fig10` — No-FSD (SA unguided), NetFlow (1:100 sampling, 1 s
//!   export), naive Elastic Sketch (single-interval classification, no
//!   TOS dedup) and PARALEON (windowed ternary states over deduped
//!   sketches) at several loads.
//! * `fig11` — naive Elastic Sketch vs PARALEON across monitor intervals
//!   λ_MI (NetFlow is an O(seconds) scheme and excluded, as in the
//!   paper). Expectation: PARALEON stays near-perfect at every
//!   millisecond-scale interval, naive Elastic Sketch improves with
//!   longer intervals yet remains behind; smaller intervals help
//!   PARALEON's FCT by making the tuner more responsive.

use paraleon::prelude::*;
use serde::Serialize;

use crate::{fct_mean_p99, grid, Ctx, Scale};

struct Run {
    fsd_accuracy: f64,
    avg_fct_ms: f64,
    p99_fct_ms: f64,
    flows: usize,
}

/// FB_Hadoop at `load` under `monitor` with monitor interval `lambda_mi`.
fn run_one(scale: Scale, monitor: MonitorKind, load: f64, lambda_mi: u64, seed: u64) -> Run {
    let sim_cfg = SimConfig {
        track_ground_truth: true,
        ..SimConfig::default()
    };
    let mut cl = ClosedLoop::builder(scale.clos())
        .scheme(scale.paraleon())
        .monitor(monitor)
        .sim_config(sim_cfg)
        .loop_config(LoopConfig {
            lambda_mi,
            force_tuning: true, // every variant tunes, FSD quality differs
            ..LoopConfig::default()
        })
        .build();
    let window = scale.monitor_window();
    let flows = scale.poisson(FlowSizeDist::fb_hadoop(), load, 0..window, seed);
    drivers::run_schedule(&mut cl, &flows, window);
    cl.run_to_completion(window + 200 * MILLI);
    let acc: Vec<f64> = cl
        .cell
        .history
        .iter()
        .filter_map(|r| r.fsd_accuracy)
        .collect();
    let (avg_fct_ms, p99_fct_ms) = fct_mean_p99(cl.completions.iter(), 1e6);
    Run {
        fsd_accuracy: stats::mean(&acc),
        avg_fct_ms,
        p99_fct_ms,
        flows: cl.completions.len(),
    }
}

#[derive(Serialize)]
struct LoadRow {
    monitor: String,
    load: f64,
    fsd_accuracy: f64,
    avg_fct_ms: f64,
    p99_fct_ms: f64,
    flows: usize,
}

pub(crate) fn fig10(ctx: &Ctx) {
    let scale = ctx.scale;
    let monitors = [
        MonitorKind::NoFsd,
        MonitorKind::NetFlow,
        MonitorKind::NaiveSketch,
        MonitorKind::Paraleon,
    ];
    let out = ctx.sweep(grid(&[0.3, 0.5, 0.7], &monitors), |(load, m)| {
        let monitor = m.name().to_string();
        let r = run_one(scale, m, load, LoopConfig::default().lambda_mi, 17);
        LoadRow {
            monitor,
            load,
            fsd_accuracy: r.fsd_accuracy,
            avg_fct_ms: r.avg_fct_ms,
            p99_fct_ms: r.p99_fct_ms,
            flows: r.flows,
        }
    });
    ctx.write(&out);
}

#[derive(Serialize)]
struct IntervalRow {
    monitor: String,
    lambda_mi_ms: f64,
    fsd_accuracy: f64,
    avg_fct_ms: f64,
    flows: usize,
}

pub(crate) fn fig11(ctx: &Ctx) {
    let scale = ctx.scale;
    let intervals = [MILLI, 2 * MILLI, 4 * MILLI, 8 * MILLI];
    let monitors = [MonitorKind::NaiveSketch, MonitorKind::Paraleon];
    let out = ctx.sweep(grid(&monitors, &intervals), |(m, mi)| {
        let monitor = m.name().to_string();
        let r = run_one(scale, m, 0.3, mi, 19);
        IntervalRow {
            monitor,
            lambda_mi_ms: mi as f64 / 1e6,
            fsd_accuracy: r.fsd_accuracy,
            avg_fct_ms: r.avg_fct_ms,
            flows: r.flows,
        }
    });
    ctx.write(&out);
}
