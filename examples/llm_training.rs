//! LLM-training scenario: an ON-OFF alltoall collective (the paper's
//! most incast-prone workload) under three tuning schemes.
//!
//! ```sh
//! cargo run --release --example llm_training
//! ```
//!
//! Each "training iteration" is one synchronized alltoall (every worker
//! sends the same message to every other worker) followed by a compute
//! (OFF) phase. The collective finishes when its straggler finishes, so
//! tail FCT directly bounds training throughput — which is why the
//! paper's testbed result (Fig. 13) measures algorithm bandwidth across
//! settings. This example prints per-round algbw for the NVIDIA default,
//! the expert setting, and PARALEON tuning live.

use paraleon::prelude::*;

fn run(scheme: SchemeKind) -> (String, Vec<f64>) {
    let topo = Topology::two_tier_clos(4, 8, 2, 100.0, 100.0, 5_000);
    let name = scheme.name().to_string();
    let mut cl = ClosedLoop::builder(topo)
        .scheme(scheme)
        .loop_config(LoopConfig {
            force_tuning: true, // tune from t=0, like a fresh cluster
            weights: UtilityWeights::throughput_sensitive(),
            ..LoopConfig::default()
        })
        .build();
    // 16 workers spread across all four racks.
    let mut a2a = AllToAll::new(AllToAllConfig {
        workers: (0..16).map(|i| i * 2).collect(),
        message_bytes: 1 << 20, // 1 MB per peer per round
        off_time: 2 * MILLI,    // "compute" phase
        rounds: Some(6),
    });
    drivers::run_collective(&mut cl, &mut a2a, 0, 10 * SEC);
    let algbw: Vec<f64> = (0..a2a.round_durations().len())
        .filter_map(|i| a2a.algbw_bytes_per_sec(i))
        .map(|b| b * 8.0 / 1e9)
        .collect();
    (name, algbw)
}

fn main() {
    println!("16-worker alltoall, 1 MB messages, 6 training iterations\n");
    println!("{:<10} per-round algbw (Gbps)", "scheme");
    let mut results = Vec::new();
    for scheme in [
        SchemeKind::Default,
        SchemeKind::Expert,
        SchemeKind::Paraleon,
    ] {
        let (name, algbw) = run(scheme);
        println!(
            "{:<10} {}",
            name,
            algbw
                .iter()
                .map(|b| format!("{b:>6.1}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        results.push((name, algbw));
    }
    println!(
        "\nNote how PARALEON's later rounds improve as its SA episode converges,\n\
         while the static settings stay where they booted."
    );
    let last = |name: &str| {
        results
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.last().copied())
            .unwrap_or(0.0)
    };
    println!(
        "final-round algbw: default {:.1} Gbps, expert {:.1} Gbps, PARALEON {:.1} Gbps",
        last("Default"),
        last("Expert"),
        last("PARALEON")
    );
}
