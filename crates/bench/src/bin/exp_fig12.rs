//! Figure 12: ablation of the SA optimizations — utility convergence of
//! PARALEON's guided/relaxed SA vs naive SA, on both workloads.
//!
//! Both tuners run a forced episode from t = 0; the series of utility
//! values per monitor interval shows convergence speed. The paper's
//! claim to reproduce: PARALEON reaches high utility within dozens of
//! intervals, naive SA needs many more.
//!
//! Run: `cargo run --release -p paraleon-bench --bin exp_fig12 [--paper]`

use paraleon::prelude::*;
use paraleon_bench::{print_table, telemetry_begin, telemetry_dump, write_json, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct Series {
    scheme: String,
    workload: String,
    utility: Vec<f64>,
    best_so_far: Vec<f64>,
}

fn run_fb(scale: Scale, scheme: SchemeKind) -> Series {
    telemetry_begin();
    let mut cl = ClosedLoop::builder(scale.clos())
        .scheme(scheme.clone())
        .loop_config(LoopConfig {
            force_tuning: true,
            ..LoopConfig::default()
        })
        .build();
    let window = 2 * scale.fb_window();
    let wl = PoissonWorkload::new(
        PoissonConfig {
            hosts: scale.hosts(),
            host_bw_bytes_per_sec: 12.5e9,
            load: 0.3,
            start: 0,
            end: window,
        },
        FlowSizeDist::fb_hadoop(),
    );
    let mut rng = StdRng::seed_from_u64(23);
    let flows = wl.generate(&mut rng);
    drivers::run_schedule(&mut cl, &flows, window);
    to_series(scheme.name(), "FB_Hadoop")
}

fn run_llm(scale: Scale, scheme: SchemeKind) -> Series {
    telemetry_begin();
    let mut cl = ClosedLoop::builder(scale.clos())
        .scheme(scheme.clone())
        .loop_config(LoopConfig {
            force_tuning: true,
            weights: UtilityWeights::throughput_sensitive(),
            ..LoopConfig::default()
        })
        .build();
    let n = scale.hosts() / 4;
    let mut a2a = AllToAll::new(AllToAllConfig {
        workers: (0..n).map(|i| i * 2).collect(),
        message_bytes: scale.llm_message(),
        off_time: MILLI,
        rounds: None,
    });
    let until = 2 * scale.fb_window();
    drivers::run_collective(&mut cl, &mut a2a, 0, until);
    to_series(scheme.name(), "LLM alltoall")
}

/// Build the convergence series from the run's exported telemetry: the
/// per-interval `utility` series the closed loop recorded.
fn to_series(scheme: &str, workload: &str) -> Series {
    let dump = telemetry_dump(&format!("fig12_{workload}_{scheme}"));
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
    Series {
        scheme: scheme.to_string(),
        workload: workload.to_string(),
        utility,
        best_so_far,
    }
}

/// Convergence time: the first interval after which the `w`-interval
/// moving average of utility stays within `tol` of the final-third mean.
/// (Raw best-so-far is too noisy: workload stochasticity produces early
/// lucky peaks; what matters is when the *deployed* quality stabilizes.)
fn convergence_round(series: &Series, w: usize, tol: f64) -> usize {
    let u = &series.utility;
    if u.len() < 3 * w {
        return u.len();
    }
    let final_mean = paraleon::stats::mean(&u[u.len() - u.len() / 3..]);
    let ma: Vec<f64> = u
        .windows(w)
        .map(|win| win.iter().sum::<f64>() / w as f64)
        .collect();
    // Last index where the moving average deviates beyond tolerance.
    let last_bad = ma
        .iter()
        .rposition(|&m| (m - final_mean).abs() > tol)
        .map(|i| i + w)
        .unwrap_or(0);
    last_bad.min(u.len())
}

fn main() {
    let scale = Scale::from_args();
    println!("Figure 12 reproduction ({} scale)", scale.label());
    let mut all = Vec::new();
    let mut rows = Vec::new();
    for (label, runner) in [
        ("FB_Hadoop", run_fb as fn(Scale, SchemeKind) -> Series),
        ("LLM alltoall", run_llm),
    ] {
        for scheme in [scale.paraleon(), SchemeKind::ParaleonNaiveSa] {
            let s = runner(scale, scheme);
            let n = s.utility.len();
            let final_third = paraleon::stats::mean(&s.utility[n - n / 3..]);
            let mean_u = paraleon::stats::mean(&s.utility);
            rows.push(vec![
                label.to_string(),
                s.scheme.clone(),
                format!("{:.3}", mean_u),
                format!("{:.3}", final_third),
                format!("{}", convergence_round(&s, 10, 0.08)),
            ]);
            all.push(s);
        }
    }
    print_table(
        "Fig 12: SA ablation (rounds-to-95% = intervals until 95% of final best utility)",
        &["workload", "scheme", "mean U", "final U", "converged @"],
        &rows,
    );
    write_json("fig12", &all);
}
