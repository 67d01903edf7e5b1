//! Figure 6: inter-parameter impacts — a 2-D sweep of `rpg_time_reset` ×
//! `K_max` on throughput and RTT, under the same elephants-plus-incast
//! load as Figure 5.
//!
//! The paper's point: driving both parameters in the throughput-friendly
//! direction simultaneously (small `rpg_time_reset`, large `K_max`) does
//! **not** produce monotonically better throughput — over-aggressive
//! injection overshoots the equilibrium, triggers extra CNPs/PFCs and
//! hurts. The harness prints both metric grids and flags the
//! non-monotonicity.

use paraleon::prelude::*;
use serde::Serialize;

use crate::{elephants_plus_incast, gbps_of, grid, Ctx};

#[derive(Serialize)]
struct Cell {
    rpg_time_reset: f64,
    k_max: f64,
    goodput_gbps: f64,
    rtt_us: f64,
}

const TIMERS: [f64; 4] = [20.0, 80.0, 300.0, 900.0];
const KMAXES: [f64; 4] = [200.0, 800.0, 3200.0, 12800.0];

pub fn run(ctx: &Ctx) {
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
            goodput_gbps: gbps_of(tp),
            rtt_us: rtt,
        }
    });
    let header: Vec<String> = std::iter::once("timer\\Kmax".to_string())
        .chain(KMAXES.iter().map(|k| format!("{k}KB")))
        .collect();
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    let grid_of = |metric: fn(&Cell) -> f64| -> Vec<Vec<String>> {
        cells
            .chunks(KMAXES.len())
            .map(|row| {
                std::iter::once(format!("{}", row[0].rpg_time_reset))
                    .chain(row.iter().map(|c| format!("{:.1}", metric(c))))
                    .collect()
            })
            .collect()
    };
    ctx.table(
        "Fig 6(a): throughput (Gbps)",
        &header,
        &grid_of(|c| c.goodput_gbps),
    );
    ctx.table("Fig 6(b): RTT (us)", &header, &grid_of(|c| c.rtt_us));

    // Non-monotonicity check along the "both throughput-friendly"
    // diagonal: smaller timer + larger Kmax should NOT be uniformly
    // better.
    let n = KMAXES.len();
    let diag: Vec<f64> = (0..n)
        .map(|i| cells[(n - 1 - i) * n + i].goodput_gbps)
        .collect();
    let monotonic = diag.windows(2).all(|w| w[1] >= w[0] - 1e-9);
    println!(
        "\nthroughput along the aggressive diagonal: {:?}\nmonotonic: {} (paper observes convex/concave points, i.e. NOT monotonic)",
        diag.iter().map(|v| format!("{v:.1}")).collect::<Vec<_>>(),
        monotonic
    );
    ctx.write(&cells);
}
