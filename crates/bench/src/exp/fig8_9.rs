//! Figures 8 & 9: traffic dynamics under a workload "influx".
//!
//! An LLM alltoall runs as background traffic; mid-run, a burst of
//! FB_Hadoop traffic arrives for a short window and competes. `fig8`
//! records the runtime throughput / RTT time series of the five schemes;
//! `fig9` compares PARALEON against two static settings pretrained
//! offline by PARALEON itself on each workload in isolation.

use paraleon::prelude::*;
use serde::Serialize;

use crate::{alltoall, influx_series, Ctx, Scale};

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
    /// Means of the positive samples during the influx and after it.
    influx_rtt_us: f64,
    influx_goodput_gbps: f64,
    post_goodput_gbps: f64,
}

/// The background collective: ON-OFF alltoall across half the hosts.
fn background(scale: Scale, rounds: Option<u32>) -> Collective {
    alltoall(scale.hosts() / 4, 2, scale.llm_message(), 3 * MILLI, rounds)
}

/// Run one scheme through the influx scenario; returns the time series,
/// rebuilt from the exported telemetry dump (under `results/telemetry/`),
/// not from in-memory accumulators.
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
        .seed(7)
        .build();
    let mut a2a = background(scale, None);
    // Influx: FB_Hadoop burst in the middle of the run; the paper's
    // influx lasts 30 ms at both scales.
    let total = match scale {
        Scale::Paper => 300 * MILLI,
        _ => 120 * MILLI,
    };
    let influx = total / 3..total / 3 + 30 * MILLI;
    let flows = scale.poisson(FlowSizeDist::fb_hadoop(), 0.5, influx.clone(), 21);
    let mut stepper = drivers::Stepper::new(&flows).collective(&mut a2a, 0);
    while cl.sim.now() < total {
        stepper.step(&mut cl);
    }
    let dump = ctx.telemetry_dump(scheme.name());
    let (t_ms, goodput_gbps, rtt_us) = influx_series(&dump);
    let (start_ms, end_ms) = (influx.start as f64 / 1e6, influx.end as f64 / 1e6);
    // Mean of the positive samples of `v` whose time is in `when`.
    let mean_of = |v: &[f64], when: &dyn Fn(f64) -> bool| {
        let samples = t_ms.iter().zip(v).filter(|&(&t, &x)| when(t) && x > 0.0);
        stats::mean(&samples.map(|(_, &x)| x).collect::<Vec<f64>>())
    };
    let during = |t: f64| t > start_ms && t <= end_ms;
    let after = |t: f64| t > end_ms;
    Series {
        scheme: scheme.name().to_string(),
        influx_rtt_us: mean_of(&rtt_us, &during),
        influx_goodput_gbps: mean_of(&goodput_gbps, &during),
        post_goodput_gbps: mean_of(&goodput_gbps, &after),
        t_ms,
        goodput_gbps,
        rtt_us,
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
        influx_start_ms: start_ms,
        influx_end_ms: end_ms,
    }
}

/// Offline-pretrain PARALEON on one pure workload (the alltoall or
/// FB_Hadoop) and snapshot its best parameters — the Figure 9
/// "Pretrained" baselines.
fn pretrain(scale: Scale, on_alltoall: bool) -> DcqcnParams {
    let mut cl = ClosedLoop::builder(scale.clos())
        .scheme(scale.paraleon())
        .loop_config(LoopConfig {
            force_tuning: true,
            ..LoopConfig::default()
        })
        .build();
    if on_alltoall {
        let mut a2a = background(scale, Some(12));
        drivers::run_collective(&mut cl, &mut a2a, 0, 2 * SEC);
    } else {
        let window = scale.fb_window();
        let flows = scale.poisson(FlowSizeDist::fb_hadoop(), 0.3, 0..window, 31);
        drivers::run_schedule(&mut cl, &flows, window);
    }
    cl.cell.last_params
}

pub(crate) fn fig8(ctx: &Ctx) {
    influx(ctx, ctx.scale.all_schemes());
}

pub(crate) fn fig9(ctx: &Ctx) {
    let scale = ctx.scale;
    println!("pretraining PARALEON offline on each pure workload...");
    let p = ctx.sweep(vec![true, false], |on_alltoall| {
        pretrain(scale, on_alltoall)
    });
    let schemes = vec![
        SchemeKind::Static(p[0], "Pretrained1"),
        SchemeKind::Static(p[1], "Pretrained2"),
        scale.paraleon(),
    ];
    influx(ctx, schemes);
}

fn influx(ctx: &Ctx, schemes: Vec<SchemeKind>) {
    ctx.write(&ctx.sweep(schemes, |s| run_one(ctx, s)));
}
