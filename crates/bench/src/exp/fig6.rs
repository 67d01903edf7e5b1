//! Figure 6: inter-parameter impacts — a 2-D sweep of `rpg_time_reset` ×
//! `K_max` on throughput and RTT, under the same elephants-plus-incast
//! load as Figure 5.
//!
//! The paper's point: driving both parameters in the throughput-friendly
//! direction simultaneously (small `rpg_time_reset`, large `K_max`) does
//! **not** produce monotonically better throughput — over-aggressive
//! injection overshoots the equilibrium, triggers extra CNPs/PFCs and
//! hurts. Each cell's throughput and RTT is one row of the results.

use paraleon::prelude::*;
use serde::Serialize;

use crate::{elephants_plus_incast, grid, Ctx};

#[derive(Serialize)]
struct Cell {
    rpg_time_reset: f64,
    k_max: f64,
    goodput_gbps: f64,
    rtt_us: f64,
}

const TIMERS: [f64; 4] = [20.0, 80.0, 300.0, 900.0];
const KMAXES: [f64; 4] = [200.0, 800.0, 3200.0, 12800.0];

pub(crate) fn run(ctx: &Ctx) {
    let scale = ctx.scale;
    let cells = ctx.sweep(grid(&TIMERS, &KMAXES), |(rpg_time_reset, k_max)| {
        let mut p = DcqcnParams::nvidia_default();
        p.rpg_time_reset = rpg_time_reset;
        p.k_max = k_max;
        p.k_min = (k_max / 4.0).max(10.0);
        let (tp, rtt) = elephants_plus_incast(scale, p);
        Cell {
            rpg_time_reset,
            k_max,
            goodput_gbps: stats::gbps_of(tp),
            rtt_us: rtt,
        }
    });
    ctx.write(&cells);
}
