//! Figure 5: single-parameter impacts on throughput and RTT.
//!
//! Sweeps each of the paper's four representative parameters —
//! `hai_rate`, `rate_reduce_monitor_period`, `rpg_time_reset`, `K_max` —
//! one at a time (all others at NVIDIA defaults) under the
//! elephants-plus-incast load, and reports steady-state mean throughput
//! and RTT. The paper's observation to reproduce: each parameter has a
//! *throughput-friendly* and a *delay-friendly* direction.

use paraleon::prelude::*;
use serde::Serialize;

use crate::{elephants_plus_incast, Ctx};

#[derive(Serialize)]
struct Point {
    param: String,
    value: f64,
    goodput_gbps: f64,
    rtt_us: f64,
}

const SWEEPS: [(ParamId, [f64; 5]); 4] = [
    (ParamId::HaiRate, [50.0, 150.0, 400.0, 800.0, 1600.0]),
    (
        ParamId::RateReduceMonitorPeriod,
        [4.0, 20.0, 80.0, 200.0, 400.0],
    ),
    (ParamId::RpgTimeReset, [20.0, 80.0, 300.0, 600.0, 1200.0]),
    (ParamId::KMax, [100.0, 400.0, 1600.0, 6400.0, 12800.0]),
];

pub(crate) fn run(ctx: &Ctx) {
    let scale = ctx.scale;
    let cells: Vec<(ParamId, f64)> = SWEEPS
        .iter()
        .flat_map(|(param, values)| values.iter().map(|&v| (*param, v)))
        .collect();
    let out = ctx.sweep(cells, |(param, v)| {
        let mut p = DcqcnParams::nvidia_default();
        p.set(param, v);
        if param == ParamId::KMax {
            // Keep the thresholds consistent like operators do.
            p.k_min = (v / 4.0).max(10.0);
        }
        let (tp, rtt) = elephants_plus_incast(scale, p);
        Point {
            param: param.name().to_string(),
            value: v,
            goodput_gbps: stats::gbps_of(tp),
            rtt_us: rtt,
        }
    });
    ctx.write(&out);
}
