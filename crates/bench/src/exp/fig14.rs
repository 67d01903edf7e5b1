//! Figure 14: testbed-style runtime bandwidth and latency with a
//! SolarRPC influx into an alltoall background.
//!
//! An alltoall collective runs continuously; a SolarRPC burst (all mice,
//! Poisson arrivals) lands mid-run. Expectation (paper §IV-C1): PARALEON
//! drives the parameters latency-friendly during the burst (lower RPC
//! latency than static settings) and recovers throughput afterwards.

use std::collections::HashSet;

use paraleon::prelude::*;
use serde::Serialize;

use crate::{alltoall, fct_mean_p99, influx_series, Ctx, Scale};

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

fn run_one(ctx: &Ctx, scheme: SchemeKind) -> Series {
    let scale = ctx.scale;
    ctx.telemetry_begin();
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
    let mut a2a = alltoall(scale.hosts() / 4, 2, scale.llm_message(), MILLI, None);
    let total = match scale {
        Scale::Paper => 150 * MILLI,
        _ => 60 * MILLI,
    };
    let burst = total / 3..total / 3 + total / 4;
    let rpc_flows = scale.poisson(FlowSizeDist::solar_rpc(), 0.2, burst.clone(), 41);
    let mut stepper = drivers::Stepper::new(&rpc_flows).collective(&mut a2a, 0);
    while cl.sim.now() < total {
        stepper.step(&mut cl);
    }
    // Everything that completed and was not the collective's is an RPC.
    let collective: HashSet<u64> = stepper.records.iter().map(|r| r.flow).collect();
    let rpcs = cl
        .completions
        .iter()
        .filter(|r| !collective.contains(&r.flow));
    let (rpc_avg_fct_us, rpc_p99_fct_us) = fct_mean_p99(rpcs, 1e3);
    // Time series come from the run's exported telemetry; RPC-only FCTs
    // still need the per-flow completion records (the histogram
    // aggregates all flows).
    let dump = ctx.telemetry_dump(scheme.name());
    let (t_ms, goodput_gbps, rtt_us) = influx_series(&dump);
    let burst_end_ms = burst.end as f64 / 1e6;
    let post: Vec<f64> = t_ms
        .iter()
        .zip(&goodput_gbps)
        .filter(|&(&t, _)| t > burst_end_ms)
        .map(|(_, &v)| v)
        .collect();
    Series {
        scheme: scheme.name().to_string(),
        t_ms,
        goodput_gbps,
        rtt_us,
        rpc_avg_fct_us,
        rpc_p99_fct_us,
        fabric_p99_fct_us: dump
            .hist("fct_ns")
            .map(|h| h.p99 as f64 / 1e3)
            .unwrap_or(0.0),
        post_tp_gbps: stats::mean(&post),
        burst_start_ms: burst.start as f64 / 1e6,
        burst_end_ms,
    }
}

pub(crate) fn run(ctx: &Ctx) {
    let schemes = vec![
        SchemeKind::Default,
        SchemeKind::Expert,
        ctx.scale.paraleon(),
    ];
    let out = ctx.sweep(schemes, |s| run_one(ctx, s));
    ctx.write(&out);
}
