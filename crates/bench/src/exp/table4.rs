//! Table IV: system overheads — controller/control-plane CPU, memory,
//! and per-interval control-channel data transfer.
//!
//! The paper reports (testbed, λ_MI = 30 ms): switch control plane 20.3%
//! CPU, centralized controller 3.2% CPU, 9.5 MB control-plane memory,
//! and per-interval transfers of 520 B (switches→controller), 12 B
//! (RNICs→controller) and 76 B (controller→devices). We measure the same
//! quantities on our implementation while it runs the FB_Hadoop workload
//! with active tuning. One serial run: the CPU shares are wall-clock
//! ratios, so the JSON is not pinned.

use std::time::Instant;

use paraleon::prelude::*;
use paraleon_monitor::{FsdMonitor, ParaleonMonitor};
use paraleon_sketch::{ElasticSketch, SketchConfig, SlidingWindowClassifier};
use paraleon_telemetry::export::TelemetryDump;
use paraleon_telemetry::MemoryFootprint;
use serde::Serialize;

use crate::Ctx;

#[derive(Serialize)]
struct Overheads {
    monitor_cpu_pct_of_interval: f64,
    tuner_cpu_pct_of_interval: f64,
    control_plane_memory_bytes: usize,
    sketch_memory_bytes: usize,
    switch_to_controller_bytes_per_interval: f64,
    rnic_to_controller_bytes_per_interval: f64,
    controller_to_devices_bytes_per_interval: f64,
    intervals: u64,
    telemetry: TelemetryFootprint,
}

/// The observability subsystem's own memory cost while the run was
/// fully instrumented (counters, gauges, histograms, time series,
/// flight recorder).
#[derive(Serialize)]
struct TelemetryFootprint {
    total_bytes: usize,
    counters_bytes: usize,
    histograms_bytes: usize,
    series_bytes: usize,
    flight_bytes: usize,
    bytes_per_counter: usize,
    bytes_per_histogram: usize,
    bytes_per_event_slot: usize,
    bytes_per_series_point: usize,
    series_points_recorded: usize,
    flight_events_retained: usize,
    flight_events_evicted: u64,
}

fn telemetry_footprint(fp: &MemoryFootprint, dump: &TelemetryDump) -> TelemetryFootprint {
    TelemetryFootprint {
        total_bytes: fp.total(),
        counters_bytes: fp.counters_bytes + fp.gauges_bytes,
        histograms_bytes: fp.histograms_bytes,
        series_bytes: fp.series_bytes,
        flight_bytes: fp.flight_bytes,
        bytes_per_counter: fp.bytes_per_counter(),
        bytes_per_histogram: fp.bytes_per_histogram(),
        bytes_per_event_slot: fp.bytes_per_event(),
        bytes_per_series_point: fp.bytes_per_series_point(),
        series_points_recorded: dump.series.len(),
        flight_events_retained: dump.events.len(),
        flight_events_evicted: dump.flight_dropped,
    }
}

/// Control-plane memory: a standalone classifier and monitor fed the
/// same load measure the flow-tracking footprint.
fn control_plane_memory(flows: &[FlowRequest]) -> usize {
    let batch: Vec<(u64, u64)> = flows
        .iter()
        .take(2000)
        .map(|f| (f.src as u64 ^ (f.dst as u64) << 16, f.bytes.min(1 << 20)))
        .collect();
    let mut classifier = SlidingWindowClassifier::new(WindowConfig::default());
    classifier.end_interval(batch.iter().copied());
    let mut monitor = ParaleonMonitor::default();
    monitor.on_interval(&[(0, batch)], 0);
    monitor.control_plane_memory_bytes() + classifier.memory_bytes()
}

fn measure(ctx: &Ctx) -> Overheads {
    let scale = ctx.scale;
    ctx.telemetry_begin();
    let mut cl = ClosedLoop::builder(scale.clos())
        .scheme(scale.paraleon())
        .loop_config(LoopConfig {
            force_tuning: true,
            ..LoopConfig::default()
        })
        .build();
    let window = scale.fb_window();
    let flows = scale.poisson(FlowSizeDist::fb_hadoop(), 0.3, 0..window, 29);
    let t0 = Instant::now();
    drivers::run_schedule(&mut cl, &flows, window);
    let wall = t0.elapsed().as_secs_f64();

    // Measure the telemetry registry while it still holds the run's
    // data, then export + clear it.
    let fp = paraleon_telemetry::memory_footprint();
    let dump = ctx.telemetry_dump("run");

    // CPU percentages: controller work per interval relative to λ_MI of
    // wall time would overstate (the simulator compresses time), so we
    // report controller work relative to total harness wall-clock — the
    // honest analogue of "% of one core while the system runs".
    let (sw_b, rnic_b, disp_b) = cl.cell.ledger.per_interval();
    Overheads {
        monitor_cpu_pct_of_interval: cl.cell.monitor_cpu.as_secs_f64() / wall * 100.0,
        tuner_cpu_pct_of_interval: cl.cell.tuner_cpu.as_secs_f64() / wall * 100.0,
        control_plane_memory_bytes: control_plane_memory(&flows),
        // The data-plane sketch size comes from its configuration.
        sketch_memory_bytes: ElasticSketch::new(SketchConfig::default()).memory_bytes(),
        switch_to_controller_bytes_per_interval: sw_b,
        rnic_to_controller_bytes_per_interval: rnic_b,
        controller_to_devices_bytes_per_interval: disp_b,
        intervals: cl.cell.ledger.intervals,
        telemetry: telemetry_footprint(&fp, &dump),
    }
}

pub(crate) fn run(ctx: &Ctx) {
    let o = measure(ctx);
    ctx.write(&o);
}
