//! Figure 13: testbed-style alltoall bandwidth across collective scales,
//! default vs expert vs PARALEON.
//!
//! The paper runs NCCL alltoall on 8..32 H100 nodes at 400 G and finds
//! PARALEON up to 19.5% above the static settings. Our substitute (see
//! DESIGN.md §4) sweeps the worker count on the simulated fabric and
//! reports the steady-state algorithm bandwidth; PARALEON tunes online
//! (forced trigger, throughput-sensitive weights, as an LLM cluster
//! operator would configure).
//!
//! Run: `cargo run --release -p paraleon-bench --bin exp_fig13 [--paper]`

use paraleon::prelude::*;
use paraleon_bench::{print_table, write_json, Scale};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    scheme: String,
    workers: usize,
    algbw_gbps: f64,
}

fn run_one(scale: Scale, scheme: SchemeKind, workers: usize) -> f64 {
    let mut cl = ClosedLoop::builder(scale.clos())
        .scheme(scheme)
        .loop_config(LoopConfig {
            force_tuning: true,
            weights: UtilityWeights::throughput_sensitive(),
            ..LoopConfig::default()
        })
        .build();
    let stride = (scale.hosts() / workers).max(1);
    let rounds = match scale {
        Scale::Reduced => 8,
        Scale::Paper => 6,
    };
    let mut a2a = AllToAll::new(AllToAllConfig {
        workers: (0..workers).map(|i| i * stride).collect(),
        message_bytes: scale.llm_message(),
        off_time: MILLI,
        rounds: Some(rounds),
    });
    drivers::run_collective(&mut cl, &mut a2a, 0, 30 * SEC);
    // Steady state: mean algbw over the last half of the rounds (the
    // early rounds include PARALEON's search transient).
    let done = a2a.round_durations.len();
    let take = (done / 2).max(1);
    let vals: Vec<f64> = (done - take..done)
        .filter_map(|i| a2a.algbw_bytes_per_sec(i))
        .map(|b| b * 8.0 / 1e9)
        .collect();
    paraleon::stats::mean(&vals)
}

fn main() {
    let scale = Scale::from_args();
    println!("Figure 13 reproduction ({} scale)", scale.label());
    let worker_counts: Vec<usize> = match scale {
        Scale::Reduced => vec![8, 16, 32],
        Scale::Paper => vec![8, 16, 32, 64],
    };
    let schemes = [SchemeKind::Default, SchemeKind::Expert, scale.paraleon()];
    let mut out = Vec::new();
    let mut rows = Vec::new();
    for &w in &worker_counts {
        let mut row = vec![format!("{w}")];
        for scheme in &schemes {
            let bw = run_one(scale, scheme.clone(), w);
            row.push(format!("{bw:.1}"));
            out.push(Row {
                scheme: scheme.name().to_string(),
                workers: w,
                algbw_gbps: bw,
            });
        }
        rows.push(row);
    }
    print_table(
        "Fig 13: alltoall algbw (Gbps) vs collective scale",
        &["workers", "Default", "Expert", "PARALEON"],
        &rows,
    );
    // PARALEON's headline advantage.
    for &w in &worker_counts {
        let get = |n: &str| {
            out.iter()
                .find(|r| r.workers == w && r.scheme == n)
                .map(|r| r.algbw_gbps)
                .unwrap_or(0.0)
        };
        let best_static = get("Default").max(get("Expert"));
        println!(
            "workers={w}: PARALEON vs best static = {:+.1}% (paper: up to +19.5%)",
            (get("PARALEON") / best_static.max(1e-9) - 1.0) * 100.0
        );
    }
    write_json("fig13", &out);
}
