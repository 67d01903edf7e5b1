//! Figures 8 & 9: traffic dynamics under a workload "influx".
//!
//! An LLM alltoall runs as background traffic; mid-run, a burst of
//! FB_Hadoop traffic arrives for a short window and competes. The
//! harness prints the runtime throughput / RTT time series per scheme
//! (Figure 8) and, with `--pretrained`, compares PARALEON against two
//! static settings pretrained offline by PARALEON itself on each
//! workload in isolation (Figure 9).
//!
//! Run: `cargo run --release -p paraleon-bench --bin exp_fig8_9 [--paper] [--pretrained]`

use paraleon::prelude::*;
use paraleon_bench::{
    all_schemes, gbps_of, print_table, telemetry_begin, telemetry_dump, write_json, Scale,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct Series {
    scheme: String,
    t_ms: Vec<f64>,
    goodput_gbps: Vec<f64>,
    rtt_us: Vec<f64>,
    mu_mice: Vec<f64>,
    trigger_times_ms: Vec<f64>,
    influx_start_ms: f64,
    influx_end_ms: f64,
}

/// Run one scheme through the influx scenario; returns the time series.
/// The series are rebuilt from the exported telemetry dump (under
/// `results/telemetry/`), not from in-memory accumulators.
fn run_influx(scale: Scale, scheme: SchemeKind, seed: u64, fig: &str) -> Series {
    telemetry_begin();
    let mut cl = ClosedLoop::builder(scale.clos())
        .scheme(scheme.clone())
        .loop_config(LoopConfig {
            force_tuning: scheme.is_adaptive(),
            // React within a few ms of the influx (the trigger is checked
            // once per window).
            trigger_window: 4,
            ..LoopConfig::default()
        })
        .seed(seed)
        .build();
    // Background: ON-OFF alltoall across half the hosts.
    let n = scale.hosts() / 4;
    let mut a2a = AllToAll::new(AllToAllConfig {
        workers: (0..n).map(|i| i * 2).collect(),
        message_bytes: scale.llm_message(),
        off_time: 3 * MILLI,
        rounds: None,
    });
    // Influx: FB_Hadoop burst in the middle of the run.
    let total = match scale {
        Scale::Reduced => 120 * MILLI,
        Scale::Paper => 300 * MILLI,
    };
    let influx_start = total / 3;
    // The paper's influx lasts 30 ms at both scales.
    let influx_len = 30 * MILLI;
    let wl = PoissonWorkload::new(
        PoissonConfig {
            hosts: scale.hosts(),
            host_bw_bytes_per_sec: 12.5e9,
            load: 0.5,
            start: influx_start,
            end: influx_start + influx_len,
        },
        FlowSizeDist::fb_hadoop(),
    );
    let mut rng = StdRng::seed_from_u64(21);
    let influx_flows = wl.generate(&mut rng);

    let mut stepper = drivers::Stepper::new(&influx_flows).collective(&mut a2a, 0);
    while cl.sim.now() < total {
        stepper.step(&mut cl);
    }
    let dump = telemetry_dump(&format!("{}_{}", fig, scheme.name()));
    let goodput = dump.series_get("goodput_bytes_per_sec", 0);
    Series {
        scheme: scheme.name().to_string(),
        t_ms: goodput.iter().map(|&(t, _)| t as f64 / 1e6).collect(),
        goodput_gbps: goodput.iter().map(|&(_, v)| gbps_of(v)).collect(),
        rtt_us: dump
            .series_get("avg_rtt_ns", 0)
            .iter()
            .map(|&(_, v)| v / 1e3)
            .collect(),
        mu_mice: dump
            .series_get("mu_mice", 0)
            .iter()
            .map(|&(_, v)| v)
            .collect(),
        trigger_times_ms: dump
            .series_get("triggered", 0)
            .iter()
            .filter(|&&(_, v)| v > 0.5)
            .map(|&(t, _)| t as f64 / 1e6)
            .collect(),
        influx_start_ms: influx_start as f64 / 1e6,
        influx_end_ms: (influx_start + influx_len) as f64 / 1e6,
    }
}

/// Offline-pretrain PARALEON on a pure workload and snapshot its best
/// parameters (the Figure 9 "Pretrained" baselines).
fn pretrain_alltoall(scale: Scale) -> DcqcnParams {
    let mut cl = ClosedLoop::builder(scale.clos())
        .scheme(scale.paraleon())
        .loop_config(LoopConfig {
            force_tuning: true,
            ..LoopConfig::default()
        })
        .build();
    let n = scale.hosts() / 4;
    let mut a2a = AllToAll::new(AllToAllConfig {
        workers: (0..n).map(|i| i * 2).collect(),
        message_bytes: scale.llm_message(),
        off_time: 3 * MILLI,
        rounds: Some(12),
    });
    drivers::run_collective(&mut cl, &mut a2a, 0, 2 * SEC);
    cl.cell.last_params
}

fn pretrain_fb(scale: Scale) -> DcqcnParams {
    let mut cl = ClosedLoop::builder(scale.clos())
        .scheme(scale.paraleon())
        .loop_config(LoopConfig {
            force_tuning: true,
            ..LoopConfig::default()
        })
        .build();
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
    let mut rng = StdRng::seed_from_u64(31);
    let flows = wl.generate(&mut rng);
    drivers::run_schedule(&mut cl, &flows, scale.fb_window());
    cl.cell.last_params
}

fn summarize(series: &[Series]) {
    let mut rows = Vec::new();
    for s in series {
        let influx: Vec<usize> = s
            .t_ms
            .iter()
            .enumerate()
            .filter(|(_, &t)| t > s.influx_start_ms && t <= s.influx_end_ms)
            .map(|(i, _)| i)
            .collect();
        let after: Vec<usize> = s
            .t_ms
            .iter()
            .enumerate()
            .filter(|(_, &t)| t > s.influx_end_ms)
            .map(|(i, _)| i)
            .collect();
        let mean_of = |idx: &[usize], v: &[f64]| {
            let vals: Vec<f64> = idx.iter().map(|&i| v[i]).filter(|x| *x > 0.0).collect();
            paraleon::stats::mean(&vals)
        };
        rows.push(vec![
            s.scheme.clone(),
            format!("{:.1}", mean_of(&influx, &s.rtt_us)),
            format!("{:.1}", mean_of(&influx, &s.goodput_gbps)),
            format!("{:.1}", mean_of(&after, &s.goodput_gbps)),
        ]);
    }
    print_table(
        "influx summary (lower influx-RTT and higher post-influx throughput are better)",
        &[
            "scheme",
            "influx RTT (us)",
            "influx TP (Gbps)",
            "post TP (Gbps)",
        ],
        &rows,
    );
}

fn main() {
    let scale = Scale::from_args();
    let pretrained_mode = std::env::args().any(|a| a == "--pretrained");
    if pretrained_mode {
        println!("Figure 9 reproduction ({} scale)", scale.label());
        println!("pretraining PARALEON offline on each pure workload...");
        let p1 = pretrain_alltoall(scale);
        let p2 = pretrain_fb(scale);
        let schemes = vec![
            SchemeKind::Static(p1, "Pretrained1"),
            SchemeKind::Static(p2, "Pretrained2"),
            scale.paraleon(),
        ];
        let series: Vec<Series> = schemes
            .into_iter()
            .map(|s| run_influx(scale, s, 7, "fig9"))
            .collect();
        summarize(&series);
        write_json("fig9", &series);
    } else {
        println!("Figure 8 reproduction ({} scale)", scale.label());
        let series: Vec<Series> = all_schemes(scale)
            .into_iter()
            .map(|s| run_influx(scale, s, 7, "fig8"))
            .collect();
        summarize(&series);
        write_json("fig8", &series);
    }
}
