//! Table II: NCCL-Tests-style alltoall algorithm bandwidth under the
//! NVIDIA default vs. the expert DCQCN setting, for growing message
//! sizes.
//!
//! The paper measures a 128×128 alltoall on 16 H100 nodes at 400 G and
//! sees the expert setting win by 3–6× with the gap growing with message
//! size. We reproduce the *shape* on the simulated 100 G fabric: a
//! synchronized alltoall per message size, algbw = per-rank payload /
//! round time (NCCL's definition).

use paraleon::prelude::*;
use serde::Serialize;

use crate::{alltoall, gbps_of, grid, Ctx, Scale};

#[derive(Serialize)]
struct Row {
    scheme: String,
    message_mb: f64,
    algbw_gbps: f64,
    round_ms: f64,
}

pub fn run(ctx: &Ctx) {
    let scale = ctx.scale;
    // Ranks spread evenly over the fabric.
    let (ranks, messages): (usize, &[u64]) = match scale {
        Scale::Paper => (32, &[1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20]),
        _ => (16, &[128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20]),
    };
    let cells = grid(&[SchemeKind::Default, SchemeKind::Expert], messages);
    let out = ctx.sweep(cells, |(scheme, msg)| {
        let name = scheme.name().to_string();
        let mut cl = ClosedLoop::builder(scale.clos()).scheme(scheme).build();
        let mut a2a = alltoall(ranks, scale.hosts() / ranks, msg, 0, Some(1));
        drivers::run_collective(&mut cl, &mut a2a, 0, 20 * SEC);
        Row {
            scheme: name,
            message_mb: msg as f64 / (1 << 20) as f64,
            algbw_gbps: gbps_of(a2a.algbw_bytes_per_sec(0).unwrap_or(0.0)),
            round_ms: a2a.round_durations().first().copied().unwrap_or(0) as f64 / 1e6,
        }
    });
    let rows: Vec<Vec<String>> = out
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                format!("{:.2}", r.message_mb),
                format!("{:.2}", r.algbw_gbps / 8.0), // GB/s like the paper
                format!("{:.2}", r.round_ms),
            ]
        })
        .collect();
    ctx.table(
        &format!("Table II: {ranks}x{ranks} alltoall out-of-place algbw (GB/s) vs per-pair message size (MB)"),
        &["setting", "msg (MB)", "algbw (GB/s)", "round (ms)"],
        &rows,
    );
    // Headline check mirroring the paper's conclusion.
    let avg = |name: &str| {
        let v: Vec<f64> = out
            .iter()
            .filter(|r| r.scheme == name)
            .map(|r| r.algbw_gbps)
            .collect();
        stats::mean(&v)
    };
    println!(
        "\nexpert/default mean algbw ratio: {:.2}x (paper: 2.0-5.7x)",
        avg("Expert") / avg("Default").max(1e-9)
    );
    ctx.write(&out);
}
