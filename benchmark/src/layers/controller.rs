//! Per-interval layers: sketch control plane (sliding window, FSD, KL),
//! monitor merge and trigger, SA / ACC steps, guardrail — all fed by a
//! recorded interval tape, cycled with fresh flow ids per cycle.

use std::time::Instant;

use paraleon::prelude::*;
use paraleon_monitor::{ChangeDetector, MetricSample, StalenessMerger};
use paraleon_sketch::{Fsd, SlidingWindowClassifier};
use paraleon_tuner::{
    AccConfig, AccScheme, Observation, SaTuner, SwitchLocalObs, TuningAction, TuningScheme,
};

use super::{ns_per_op, Inputs, LayerNumbers, Phase};
use crate::workloads::clos::HOSTS;
use crate::workloads::ctrl::restamp;

/// Tape cycles the monitor-side drivers replay (6 intervals each).
const CYCLES: u64 = 20;
const TUNER_STEPS: usize = 20_000;
const ACC_STEPS: usize = 2_000;

fn monitor_side(inp: &Inputs, out: &mut LayerNumbers) {
    let mut tape = inp.tape.intervals.clone();
    let len = tape.len() as u64;
    let lambda = MILLI;
    let mut central = MonitorKind::Paraleon.build();
    let mut layered = MonitorKind::Paraleon.build();
    let mut merger = StalenessMerger::default();
    let mut detector = ChangeDetector::new(0.01);
    let mut windows: Vec<SlidingWindowClassifier> = Vec::new();
    let (mut on_interval, mut observe, mut ingest, mut network) = (
        Phase::default(),
        Phase::default(),
        Phase::default(),
        Phase::default(),
    );
    let (mut end_interval, mut local_fsd, mut kl) =
        (Phase::default(), Phase::default(), Phase::default());
    let mut prev: Option<Fsd> = None;
    let mut sink = 0.0;
    for cycle in 0..CYCLES {
        for j in 0..len {
            let g = cycle * len + j;
            let m = &mut tape[j as usize];
            restamp(m, g, lambda, cycle > 0);
            let fsd = on_interval
                .time(1, || central.on_interval(&m.tor_sketches, m.end))
                .unwrap_or_else(Fsd::empty);
            sink += f64::from(u8::from(observe.time(1, || detector.observe(&fsd))));
            let ups = layered.uploads(&m.tor_sketches, m.end, g);
            let n = ups.len();
            sink += ingest.time(n, || {
                ups.into_iter()
                    .map(|u| f64::from(u8::from(merger.ingest(u))))
                    .sum::<f64>()
            });
            let merged = network.time(1, || merger.network_fsd(g));
            if let Some(p) = &prev {
                sink += kl.time(1, || merged.kl_divergence(p));
            }
            prev = Some(merged);
            windows.resize_with(m.tor_sketches.len(), || {
                SlidingWindowClassifier::new(WindowConfig::default())
            });
            for (w, (_, readings)) in windows.iter_mut().zip(&m.tor_sketches) {
                end_interval.time(1, || w.end_interval(readings.iter().copied()));
                sink += local_fsd.time(1, || w.local_fsd()).total_bytes();
            }
        }
    }
    std::hint::black_box(sink);
    out.insert("monitor.on_interval_us", on_interval.ns_per_op() / 1e3);
    out.insert("monitor.trigger_observe_ns", observe.ns_per_op());
    out.insert("monitor.merger_ingest_ns", ingest.ns_per_op());
    out.insert("monitor.network_fsd_us", network.ns_per_op() / 1e3);
    out.insert(
        "sketch.window_end_interval_us",
        end_interval.ns_per_op() / 1e3,
    );
    out.insert("sketch.local_fsd_us", local_fsd.ns_per_op() / 1e3);
    out.insert("sketch.kl_ns", kl.ns_per_op());
}

fn tuner_side(inp: &Inputs, out: &mut LayerNumbers) {
    let records = &inp.tape.records;
    let initial = DcqcnParams::nvidia_default();
    // Never cool: every step is a full mutate-and-judge round.
    let mut sa = SaTuner::new(
        ParamSpace::standard(),
        SaConfig {
            total_iter_num: u32::MAX,
            ..SaConfig::paper_default()
        },
        initial,
        inp.seed,
    );
    let mut candidates: Vec<DcqcnParams> = Vec::new();
    let sa_ns = ns_per_op(TUNER_STEPS, || {
        for r in records.iter().cycle().take(TUNER_STEPS) {
            candidates.extend(sa.step(r.utility, r.dominant, r.mu));
        }
    });
    out.insert("tuner.sa_step_ns", sa_ns);

    let mut acc = AccScheme::new(
        AccConfig {
            seed: inp.seed,
            ..AccConfig::default()
        },
        initial,
    );
    let observations: Vec<Observation> = inp
        .tape
        .intervals
        .iter()
        .zip(records)
        .map(|(m, r)| Observation {
            now: m.end,
            utility: r.utility,
            sample: MetricSample::new(r.o_tp, r.o_rtt, r.o_pfc),
            dominant: r.dominant,
            mu: r.mu,
            tuning_triggered: r.triggered,
            switch_obs: m
                .switch_obs
                .iter()
                .map(|s| SwitchLocalObs {
                    switch_index: s.node - HOSTS,
                    tx_utilization: s.tx_utilization,
                    marking_rate: s.marking_rate,
                    queue_frac: s.queue_frac,
                })
                .collect(),
        })
        .collect();
    let mut actions = 0usize;
    let acc_ns = ns_per_op(ACC_STEPS, || {
        for o in observations.iter().cycle().take(ACC_STEPS) {
            actions += usize::from(acc.on_interval(o).is_some());
        }
    });
    std::hint::black_box(actions);
    out.insert("tuner.acc_step_us", acc_ns / 1e3);

    let mut guard = Guardrail::new(GuardrailConfig::default(), initial);
    let reporting: Vec<usize> = (0..12).collect();
    let mut acted = 0usize;
    let observe_ns = ns_per_op(TUNER_STEPS, || {
        for r in records.iter().cycle().take(TUNER_STEPS) {
            acted += usize::from(
                guard
                    .observe(r.utility, r.goodput, r.pause_ratio(), &reporting)
                    .is_some(),
            );
        }
    });
    out.insert("core.guard_observe_ns", observe_ns);
    // Screening consumes its action; build them outside the clock.
    let todo: Vec<TuningAction> = candidates
        .iter()
        .map(|p| TuningAction::Global(*p))
        .collect();
    let n = todo.len();
    let t = Instant::now();
    for a in todo {
        acted += usize::from(matches!(guard.screen(a, 12), ScreenOutcome::Dispatch(_)));
    }
    out.insert(
        "core.guard_screen_ns",
        t.elapsed().as_nanos() as f64 / n.max(1) as f64,
    );
    std::hint::black_box(acted);
}

pub fn run(inp: &Inputs, out: &mut LayerNumbers) {
    monitor_side(inp, out);
    tuner_side(inp, out);
}
