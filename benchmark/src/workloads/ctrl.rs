//! `ctrl_replay`: what a deployed controller does — telemetry in,
//! parameters out — with no simulation in the measured phase.
//!
//! Set-up runs one `clos128_hadoop` repetition and keeps its interval
//! metrics as a tape. The measured phase cycles the tape through eight
//! `TunerCell`s against idle engines; the job is one controller
//! interval: `deliver_due_dispatches` + `process_interval`.

use paraleon::prelude::*;
use paraleon::Nanos;
use paraleon_netsim::IntervalMetrics;

use super::clos::{
    self, hadoop_setup, paper_fabric, prefix_fingerprint, run_schedule_unrolled, Counts,
};
use super::{summarise_cells, timed_setups, JobLog, RepOutput};
use crate::fingerprint::Fingerprint;
use crate::spec;
use crate::trace::Tracer;

/// Each tape cycle presents fresh flows: ids move up by this much.
const CYCLE_FLOW_STRIDE: u64 = 1 << 40;

pub struct Tape {
    pub intervals: Vec<IntervalMetrics>,
    /// The interval records the recording loop's own controller wrote —
    /// inputs for the tuner and guardrail drivers.
    pub records: Vec<IntervalRecord>,
    /// Fingerprint of the recording run's reference prefix.
    pub source_prefix: String,
}

/// Record the tape: the first `intervals` intervals of an untraced
/// `clos128_hadoop` repetition.
pub fn record_tape(seed: u64, intervals: u64) -> Tape {
    let mut ep = hadoop_setup(seed, false);
    ep.horizon = intervals * MILLI;
    let mut tape = Vec::new();
    let mut counts = Counts::default();
    run_schedule_unrolled(
        &mut ep,
        &mut Tracer::new(false),
        &mut JobLog::new(),
        &mut counts,
        |m| tape.push(m),
    );
    let p = spec::REFERENCE_PREFIX_INTERVALS;
    Tape {
        intervals: tape,
        source_prefix: prefix_fingerprint(&ep.cl, p, counts.events_after(p)).hex(),
        records: ep.cl.cell.history,
    }
}

/// Move tape entry `m` onto global interval `g`: consecutive λ_MI
/// boundaries (`process_interval` audits exactly that), and — from the
/// second cycle on — flow ids one stride up, in place.
pub fn restamp(m: &mut IntervalMetrics, g: u64, lambda: Nanos, new_cycle: bool) {
    m.start = g * lambda;
    m.end = (g + 1) * lambda;
    if new_cycle {
        for (_, flows) in &mut m.tor_sketches {
            for (flow, _) in flows {
                *flow += CYCLE_FLOW_STRIDE;
            }
        }
    }
}

/// Cell `i` of the controller fleet: `exp_fleet`'s scheme/monitor
/// rotation at paper scale, odd cells guardrail-armed, every fourth on
/// the hardened control plane (clean channel). Tuning is forced on the
/// first interval: a 9-interval tape cycled through the 8-interval
/// trigger window shows the KL detector nearly the same window every
/// time, so without it the PARALEON cells would never leave idle and the
/// SA step, the guardrail's screening and the dispatch path would sit
/// out the very workload meant to exercise them. Forced, each runs one
/// paper-schedule episode (≈280 intervals) per repetition.
fn cell_loop(i: usize, seed: u64) -> ClosedLoop {
    let mut b = ClosedLoop::builder(paper_fabric())
        .scheme(match i % 4 {
            1 => SchemeKind::Expert,
            2 => SchemeKind::Default,
            _ => SchemeKind::Paraleon,
        })
        .monitor(if i % 4 == 2 {
            MonitorKind::NaiveSketch
        } else {
            MonitorKind::Paraleon
        })
        .loop_config(LoopConfig {
            force_tuning: true,
            ..LoopConfig::default()
        })
        .seed(seed.wrapping_mul(1_000).wrapping_add(i as u64));
    if i % 2 == 1 {
        b = b.guardrail(GuardrailConfig::default());
    }
    if i % 4 == 3 {
        b = b.ctrl_plane(CtrlPlaneConfig::default());
    }
    b.build()
}

/// One repetition of `ctrl_replay`.
pub fn rep(seed: u64, setups: usize, tr: &mut Tracer, out: &mut RepOutput) {
    let (mut tape, mut cells) = timed_setups(setups, out, || {
        let cells: Vec<ClosedLoop> = (0..spec::CTRL_CELLS).map(|i| cell_loop(i, seed)).collect();
        (record_tape(seed, spec::HADOOP_HORIZON_MS), cells)
    });
    let lambda = cells[0].cell.cfg.lambda_mi;
    let len = tape.intervals.len() as u64;
    let mut log = JobLog::new();
    let mut job = 0u64;
    for cycle in 0..spec::CTRL_CYCLES {
        for j in 0..len {
            let m = &mut tape.intervals[j as usize];
            restamp(m, cycle * len + j, lambda, cycle > 0);
            for cl in &mut cells {
                log.begin();
                let span = tr.begin("job", job);
                let k = cl.cell.interval_index();
                let s = tr.begin("core.deliver_dispatches", job);
                cl.cell.deliver_due_dispatches(&mut cl.sim, k);
                tr.end(s);
                let s = tr.begin("core.process_interval", job);
                let utility = cl.cell.process_interval(&mut cl.sim, m).utility;
                tr.end(s);
                tr.end(span);
                log.end(utility);
                job += 1;
            }
        }
    }
    out.attempted = job;
    out.failed = log.failed;
    out.num("jobs_per_rep", job as f64);
    // A controller's unit of work is the interval: its cost is mostly
    // per interval, not per flow reading (readings/s spreads 17% across
    // seeds, intervals/s 7%).
    out.num("work_units", job as f64);
    log.export(out);

    summarise_cells(&cells.iter().map(|c| &c.cell).collect::<Vec<_>>(), out);
    let records = || cells.iter().flat_map(|c| c.cell.history.iter());
    // What the controllers were shown, not what a fabric did.
    out.num(
        "sim_goodput_gbps",
        records().map(|r| r.goodput).sum::<f64>() / records().count().max(1) as f64 * 8.0 / 1e9,
    );
    let events: u64 = cells.iter().map(|c| c.sim.events_processed()).sum();
    out.num("netsim.events", events as f64);
    out.num("netsim.par_shards", 1.0);
    out.num("threads_effective", 1.0);

    let mut fp = Fingerprint::default();
    for c in &cells {
        fp.add(&c.cell.history);
        fp.add(&c.cell.last_params);
    }
    out.fingerprint = fp.hex();
    out.reference_fingerprint = tape.source_prefix.clone();
    out.check("engines_stayed_idle", events == 0);
    out.check("tape_recorded", len == spec::HADOOP_HORIZON_MS);
    // More dispatches than the static schemes' one each: SA episodes ran.
    let dispatches = records().filter(|r| r.dispatched).count();
    out.check("sa_episodes_ran", dispatches > 10 * spec::CTRL_CELLS);
}

/// The tape's source run, through the library's `run_schedule`.
pub fn reference(seed: u64) -> (String, f64) {
    clos::hadoop_reference(seed, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real interval's metrics from a small fabric, so the test names
    /// no field the library might grow.
    fn entry() -> IntervalMetrics {
        let topo = Topology::two_tier_clos(2, 4, 2, 100.0, 100.0, 1_000);
        let mut cl = ClosedLoop::builder(topo).build();
        cl.sim.add_flow(0, 5, 400_000, 0);
        cl.sim.add_flow(1, 6, 400_000, 0);
        cl.sim.run_until(MILLI);
        let m = cl.sim.collect_interval();
        assert!(m.tor_sketches.iter().any(|(_, flows)| !flows.is_empty()));
        m
    }

    #[test]
    fn restamped_entries_sit_on_consecutive_lambda_boundaries() {
        let lambda = MILLI;
        let mut m = entry();
        for g in [0u64, 1, 12, 3599] {
            restamp(&mut m, g, lambda, false);
            // The `MiBoundary` audit in `process_interval`.
            assert_eq!(m.end, m.start + lambda);
            assert_eq!(m.end % lambda, 0);
            assert_eq!(m.end, (g + 1) * lambda);
        }
    }

    #[test]
    fn each_new_cycle_presents_fresh_flow_ids() {
        let original = entry();
        let mut m = original.clone();
        restamp(&mut m, 0, MILLI, false);
        assert_eq!(m.tor_sketches, original.tor_sketches);
        restamp(&mut m, 12, MILLI, true);
        restamp(&mut m, 24, MILLI, true);
        for ((_, now), (_, was)) in m.tor_sketches.iter().zip(&original.tor_sketches) {
            for ((flow, bytes), (flow0, bytes0)) in now.iter().zip(was) {
                assert_eq!(*flow, flow0 + 2 * CYCLE_FLOW_STRIDE);
                assert_eq!(bytes, bytes0);
            }
        }
    }

    #[test]
    fn a_restamped_tape_satisfies_the_cell() {
        // Two cycles of a one-entry tape through a real cell: every
        // interval is accepted and scored.
        let mut m = entry();
        let mut cl = cell_loop(3, 5);
        for g in 0..2 {
            restamp(&mut m, g, MILLI, g > 0);
            let k = cl.cell.interval_index();
            cl.cell.deliver_due_dispatches(&mut cl.sim, k);
            let u = cl.cell.process_interval(&mut cl.sim, &m).utility;
            assert!((0.0..=1.0).contains(&u));
        }
        assert_eq!(cl.cell.history.len(), 2);
        assert_eq!(cl.sim.events_processed(), 0);
    }
}
