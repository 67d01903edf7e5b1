//! Table II: NCCL-Tests-style alltoall algorithm bandwidth under the
//! NVIDIA default vs. the expert DCQCN setting, for growing message
//! sizes.
//!
//! The paper measures a 128×128 alltoall on 16 H100 nodes at 400 G and
//! sees the expert setting win by 3–6× with the gap growing with message
//! size. We reproduce the *shape* on the simulated 100 G fabric: a
//! synchronized alltoall per message size, algbw = per-rank payload /
//! round time (NCCL's definition).
//!
//! Run: `cargo run --release -p paraleon-bench --bin exp_table2 [--paper]`

use paraleon::prelude::*;
use paraleon_bench::{gbps_of, print_table, write_json, Scale};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    scheme: String,
    message_mb: f64,
    algbw_gbps: f64,
    round_ms: f64,
}

fn main() {
    let scale = Scale::from_args();
    let workers: Vec<usize> = match scale {
        Scale::Reduced => (0..16).map(|i| i * 2).collect(), // 16 ranks spread
        Scale::Paper => (0..32).map(|i| i * 4).collect(),
    };
    let messages: &[u64] = match scale {
        Scale::Reduced => &[128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20],
        Scale::Paper => &[1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20],
    };
    println!(
        "Table II reproduction ({} scale): {}x{} alltoall, default vs expert",
        scale.label(),
        workers.len(),
        workers.len()
    );

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for scheme in [SchemeKind::Default, SchemeKind::Expert] {
        for &msg in messages {
            let mut cl = ClosedLoop::builder(scale.clos())
                .scheme(scheme.clone())
                .build();
            let mut a2a = AllToAll::new(AllToAllConfig {
                workers: workers.clone(),
                message_bytes: msg,
                off_time: 0,
                rounds: Some(1),
            });
            drivers::run_collective(&mut cl, &mut a2a, 0, 20 * SEC);
            let algbw = a2a.algbw_bytes_per_sec(0).unwrap_or(0.0);
            let round_ms = a2a.round_durations.first().copied().unwrap_or(0) as f64 / 1e6;
            rows.push(vec![
                scheme.name().to_string(),
                format!("{:.2}", msg as f64 / (1 << 20) as f64),
                format!("{:.2}", gbps_of(algbw) / 8.0), // GB/s like the paper
                format!("{round_ms:.2}"),
            ]);
            out.push(Row {
                scheme: scheme.name().to_string(),
                message_mb: msg as f64 / (1 << 20) as f64,
                algbw_gbps: gbps_of(algbw),
                round_ms,
            });
        }
    }
    print_table(
        "Table II: alltoall out-of-place algbw (GB/s) vs per-pair message size (MB)",
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
        paraleon::stats::mean(&v)
    };
    println!(
        "\nexpert/default mean algbw ratio: {:.2}x (paper: 2.0-5.7x)",
        avg("Expert") / avg("Default").max(1e-9)
    );
    write_json("table2", &out);
}
