//! Figure 7: overall performance on the two workloads.
//!
//! * (a, b) FB_Hadoop at 30% load: mean and 99.9th-percentile FCT
//!   slowdown per flow-size bin, for all five tuning schemes.
//! * (c, d) LLM ON-OFF alltoall: CDF of flow completion times at two
//!   collective scales (pass `--llm` for this half only, default runs
//!   both).
//!
//! Run: `cargo run --release -p paraleon-bench --bin exp_fig7 [--paper] [--llm|--fb]`

use paraleon::prelude::*;
use paraleon::stats::{self, FIG7_BINS};
use paraleon_bench::{all_schemes, print_table, write_json, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

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

fn fb_hadoop(scale: Scale) -> Vec<FbRow> {
    println!("\n--- Fig 7(a,b): FB_Hadoop 30% load ---");
    let wl = PoissonWorkload::new(
        PoissonConfig {
            hosts: scale.hosts(),
            host_bw_bytes_per_sec: 12.5e9,
            load: 0.3,
            start: 0,
            end: scale.fb_window(),
        },
        FlowSizeDist::fb_hadoop(),
    );
    let mut out = Vec::new();
    for scheme in all_schemes(scale) {
        let mut rng = StdRng::seed_from_u64(13);
        let flows = wl.generate(&mut rng);
        let mut cl = ClosedLoop::builder(scale.clos())
            .scheme(scheme.clone())
            .loop_config(LoopConfig {
                force_tuning: scheme.is_adaptive(),
                ..LoopConfig::default()
            })
            .build();
        drivers::run_schedule(&mut cl, &flows, scale.fb_window());
        // Drain the tail: let remaining flows finish.
        cl.run_to_completion(scale.fb_window() + 300 * MILLI);
        let base_rtt = cl.sim.base_rtt(0, scale.hosts() - 1);
        let bins = stats::slowdown_bins(&cl.completions, 12.5e9, base_rtt, &FIG7_BINS);
        let mut rows = Vec::new();
        for b in &bins {
            rows.push(vec![
                format!("{}-{}", stats::fmt_size(b.lo), stats::fmt_size(b.hi)),
                format!("{}", b.count),
                format!("{:.2}", b.avg),
                format!("{:.2}", b.p999),
            ]);
            out.push(FbRow {
                scheme: scheme.name().to_string(),
                bin_lo: b.lo,
                bin_hi: b.hi,
                count: b.count,
                avg_slowdown: b.avg,
                p999_slowdown: b.p999,
            });
        }
        print_table(
            &format!(
                "{}: FCT slowdown by flow size ({} flows done)",
                scheme.name(),
                cl.completions.len()
            ),
            &["size bin", "flows", "avg", "p99.9"],
            &rows,
        );
    }
    out
}

fn llm(scale: Scale) -> Vec<LlmRow> {
    println!("\n--- Fig 7(c,d): LLM alltoall FCT CDF ---");
    let worker_counts: Vec<usize> = match scale {
        Scale::Reduced => vec![8, 16],
        Scale::Paper => vec![10, 20],
    };
    let mut out = Vec::new();
    for &n in &worker_counts {
        let mut rows = Vec::new();
        for scheme in all_schemes(scale) {
            let mut cl = ClosedLoop::builder(scale.clos())
                .scheme(scheme.clone())
                .loop_config(LoopConfig {
                    force_tuning: scheme.is_adaptive(),
                    weights: UtilityWeights::throughput_sensitive(),
                    ..LoopConfig::default()
                })
                .build();
            let stride = scale.hosts() / n;
            let mut a2a = AllToAll::new(AllToAllConfig {
                workers: (0..n).map(|i| i * stride).collect(),
                message_bytes: scale.llm_message(),
                off_time: 5 * MILLI,
                // Enough rounds that PARALEON's SA episode (≈60 monitor
                // intervals) converges within the first third of the run.
                rounds: Some(24),
            });
            let records = drivers::run_collective(&mut cl, &mut a2a, 0, 20 * SEC);
            // Steady-state measurement: discard the warm-up third of the
            // run (covers the adaptive schemes' tuning transient) for
            // every scheme alike.
            let t_end = records.iter().map(|r| r.finish).max().unwrap_or(0);
            let warmup = t_end / 3;
            let fcts_ms: Vec<f64> = records
                .iter()
                .filter(|r| r.start >= warmup)
                .map(|r| r.fct() as f64 / 1e6)
                .collect();
            let mut sorted = fcts_ms.clone();
            let p50 = stats::percentile(&mut sorted, 50.0);
            let p99 = stats::percentile(&mut sorted, 99.0);
            let max = sorted.last().copied().unwrap_or(0.0);
            rows.push(vec![
                scheme.name().to_string(),
                format!("{}", records.len()),
                format!("{p50:.2}"),
                format!("{p99:.2}"),
                format!("{max:.2}"),
            ]);
            out.push(LlmRow {
                scheme: scheme.name().to_string(),
                workers: n,
                fct_cdf_ms: stats::cdf(&fcts_ms, 20),
                p50_ms: p50,
                p99_ms: p99,
                max_ms: max,
            });
        }
        print_table(
            &format!("{n}x{n} alltoall flow FCTs (ms)"),
            &["scheme", "flows", "p50", "p99", "max"],
            &rows,
        );
    }
    out
}

fn main() {
    let scale = Scale::from_args();
    let args: Vec<String> = std::env::args().collect();
    let only_llm = args.iter().any(|a| a == "--llm");
    let only_fb = args.iter().any(|a| a == "--fb");
    println!("Figure 7 reproduction ({} scale)", scale.label());
    if !only_llm {
        let fb = fb_hadoop(scale);
        write_json("fig7_fb", &fb);
    }
    if !only_fb {
        let llm_rows = llm(scale);
        write_json("fig7_llm", &llm_rows);
    }
}
