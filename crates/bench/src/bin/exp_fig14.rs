//! Figure 14: testbed-style runtime bandwidth and latency with a
//! SolarRPC influx into an alltoall background.
//!
//! An alltoall collective runs continuously; a SolarRPC burst (all mice,
//! Poisson arrivals) lands mid-run. Expectation (paper §IV-C1): PARALEON
//! drives the parameters latency-friendly during the burst (lower RPC
//! latency than static settings) and recovers throughput afterwards.
//!
//! Run: `cargo run --release -p paraleon-bench --bin exp_fig14 [--paper]`

use paraleon::prelude::*;
use paraleon_bench::{gbps_of, print_table, telemetry_begin, telemetry_dump, write_json, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct Series {
    scheme: String,
    t_ms: Vec<f64>,
    goodput_gbps: Vec<f64>,
    rtt_us: Vec<f64>,
    rpc_avg_fct_us: f64,
    rpc_p99_fct_us: f64,
    /// p99 FCT over *all* flows (collective + RPC), from the telemetry
    /// histogram — the fabric-wide view next to the RPC-only numbers.
    fabric_p99_fct_us: f64,
    post_tp_gbps: f64,
    burst_start_ms: f64,
    burst_end_ms: f64,
}

fn run_one(scale: Scale, scheme: SchemeKind) -> Series {
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
        .build();
    let n = scale.hosts() / 4;
    let mut a2a = AllToAll::new(AllToAllConfig {
        workers: (0..n).map(|i| i * 2).collect(),
        message_bytes: scale.llm_message(),
        off_time: MILLI,
        rounds: None,
    });
    let total = match scale {
        Scale::Reduced => 60 * MILLI,
        Scale::Paper => 150 * MILLI,
    };
    let burst_start = total / 3;
    let burst_len = total / 4;
    let rpc = PoissonWorkload::new(
        PoissonConfig {
            hosts: scale.hosts(),
            host_bw_bytes_per_sec: 12.5e9,
            load: 0.2,
            start: burst_start,
            end: burst_start + burst_len,
        },
        FlowSizeDist::solar_rpc(),
    );
    let mut rng = StdRng::seed_from_u64(41);
    let rpc_flows = rpc.generate(&mut rng);

    let mut stepper = drivers::Stepper::new(&rpc_flows).collective(&mut a2a, 0);
    while cl.sim.now() < total {
        stepper.step(&mut cl);
    }
    // Everything that completed and was not the collective's is an RPC.
    let collective: std::collections::HashSet<u64> =
        stepper.records.iter().map(|r| r.flow).collect();
    let rpc_fcts_us: Vec<f64> = cl
        .completions
        .iter()
        .filter(|r| !collective.contains(&r.flow))
        .map(|r| r.fct() as f64 / 1e3)
        .collect();
    let burst_end = burst_start + burst_len;
    // Time series come from the run's exported telemetry; RPC-only FCTs
    // still need the per-flow completion records (the histogram
    // aggregates all flows).
    let dump = telemetry_dump(&format!("fig14_{}", scheme.name()));
    let goodput = dump.series_get("goodput_bytes_per_sec", 0);
    let post: Vec<f64> = goodput
        .iter()
        .filter(|&&(t, _)| t > burst_end)
        .map(|&(_, v)| gbps_of(v))
        .collect();
    let mut fcts = rpc_fcts_us.clone();
    Series {
        scheme: scheme.name().to_string(),
        t_ms: goodput.iter().map(|&(t, _)| t as f64 / 1e6).collect(),
        goodput_gbps: goodput.iter().map(|&(_, v)| gbps_of(v)).collect(),
        rtt_us: dump
            .series_get("avg_rtt_ns", 0)
            .iter()
            .map(|&(_, v)| v / 1e3)
            .collect(),
        rpc_avg_fct_us: paraleon::stats::mean(&rpc_fcts_us),
        rpc_p99_fct_us: paraleon::stats::percentile(&mut fcts, 99.0),
        fabric_p99_fct_us: dump
            .hist("fct_ns")
            .map(|h| h.p99 as f64 / 1e3)
            .unwrap_or(0.0),
        post_tp_gbps: paraleon::stats::mean(&post),
        burst_start_ms: burst_start as f64 / 1e6,
        burst_end_ms: burst_end as f64 / 1e6,
    }
}

fn main() {
    let scale = Scale::from_args();
    println!("Figure 14 reproduction ({} scale)", scale.label());
    let schemes = [SchemeKind::Default, SchemeKind::Expert, scale.paraleon()];
    let mut out = Vec::new();
    let mut rows = Vec::new();
    for scheme in schemes {
        let s = run_one(scale, scheme);
        rows.push(vec![
            s.scheme.clone(),
            format!("{:.0}", s.rpc_avg_fct_us),
            format!("{:.0}", s.rpc_p99_fct_us),
            format!("{:.0}", s.fabric_p99_fct_us),
            format!("{:.1}", s.post_tp_gbps),
        ]);
        out.push(s);
    }
    print_table(
        "Fig 14: SolarRPC burst into alltoall background",
        &[
            "scheme",
            "RPC avg FCT (us)",
            "RPC p99 FCT (us)",
            "all-flow p99 FCT (us)",
            "post-burst TP (Gbps)",
        ],
        &rows,
    );
    write_json("fig14", &out);
}
