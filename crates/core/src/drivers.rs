//! Workload drivers: feed workload-crate generators into a closed loop.
//!
//! The generators in `paraleon-workloads` are pure; this module is the
//! one piece of glue between them and the fabric, shared by the
//! examples, the experiment harness, the fleet and the hunt:
//!
//! * [`admit_due`] — the admission rule for a pre-generated schedule
//!   (lazy, inside a horizon of two of the loop's own λ_MI);
//! * [`Barrier`] — one [`Collective`] round machine (any
//!   [`CollectiveKind`](paraleon_workloads::CollectiveKind)) driven at
//!   interval granularity against a bare [`Engine`];
//! * [`Stepper`] — one loop step with both attached:
//!   `[start round if due] → [admit schedule flows] → cl.step() →
//!   [feed completions to the collective]`.
//!
//! [`run_schedule`] and [`run_collective`] are `while now < until
//! { stepper.step(cl) }`.

use std::collections::HashSet;

use paraleon_netsim::{Engine, FlowId, FlowRecord};
use paraleon_workloads::{Collective, FlowRequest, Progress};

use crate::Nanos;
use crate::{ClosedLoop, IntervalRecord};

/// Admit every flow of a sorted-by-start `schedule` whose start falls
/// inside `now + 2·lambda`, advancing the cursor `next` past them.
///
/// Flows are admitted lazily so the simulator's event queue stays
/// proportional to in-flight work. `lambda` must be the loop's own
/// λ_MI: each step advances exactly one λ_MI, so a flow starting later
/// than the horizon is still ahead of the clock on the next pass. A
/// flow whose start is already behind the clock is admitted *now*, not
/// dropped — offered load never disappears without a trace.
pub fn admit_due(sim: &mut Engine, schedule: &[FlowRequest], next: &mut usize, lambda: Nanos) {
    let horizon = sim.now() + 2 * lambda;
    while *next < schedule.len() && schedule[*next].start <= horizon {
        let f = schedule[*next];
        sim.add_flow(f.src, f.dst, f.bytes, f.start.max(sim.now()));
        *next += 1;
    }
}

/// Stable QP identity for a (src, dst) pair (collectives reuse QPs).
pub fn qp_id(src: usize, dst: usize) -> u64 {
    0x5150_0000_0000_0000 | ((src as u64) << 24) | dst as u64
}

/// The barrier of one synchronized [`Collective`], driven against a
/// bare engine at whatever granularity the caller steps it.
///
/// Barrier semantics: completions are observed at the caller's control
/// interval (λ_MI), so wave releases and round starts quantize to
/// interval boundaries. The quantization is identical under every
/// tuning scheme and engine, so collective round times stay directly
/// comparable — and serial/parallel byte-identity is preserved because
/// admission depends only on the completion-record stream, which the
/// conservative engine reproduces exactly.
pub struct Barrier {
    next_round: Option<Nanos>,
    in_flight: HashSet<FlowId>,
}

impl Barrier {
    /// A barrier whose first round starts at `start` (or at the first
    /// [`Barrier::start_due`] after it).
    pub fn new(start: Nanos) -> Self {
        Self {
            next_round: Some(start),
            in_flight: HashSet::new(),
        }
    }

    /// Admit one wave at the engine's current time with stable per-pair
    /// QP identity: the monitor sees one long-lived QP per (src, dst),
    /// as NCCL reuses QPs across rounds and waves.
    fn admit_wave(&mut self, sim: &mut Engine, wave: &[FlowRequest]) -> Result<(), String> {
        for f in wave {
            let id = sim
                .try_add_flow_on_qp(f.src, f.dst, f.bytes, sim.now(), qp_id(f.src, f.dst))
                .map_err(|e| format!("collective flow {}->{}: {e}", f.src, f.dst))?;
            self.in_flight.insert(id);
        }
        Ok(())
    }

    /// Start the next round if its time has come. Errors only on a
    /// collective whose flows the fabric refuses.
    pub fn start_due(&mut self, sim: &mut Engine, coll: &mut Collective) -> Result<(), String> {
        if self.next_round.is_some_and(|t| sim.now() >= t) && !coll.finished() {
            let wave = coll
                .start_round(sim.now())
                .map_err(|e| format!("collective round: {e}"))?;
            self.admit_wave(sim, &wave)?;
            self.next_round = None;
        }
        Ok(())
    }

    /// Feed one completion into the round state machine, releasing the
    /// next wave when it drains the current one. Returns whether the
    /// flow belonged to this collective.
    pub fn on_done(
        &mut self,
        sim: &mut Engine,
        coll: &mut Collective,
        done: &FlowRecord,
    ) -> Result<bool, String> {
        if !self.in_flight.remove(&done.flow) {
            return Ok(false);
        }
        match coll
            .on_flow_done(done.finish)
            .map_err(|e| format!("collective completion: {e}"))?
        {
            Progress::Pending => {}
            Progress::NextWave(wave) => self.admit_wave(sim, &wave)?,
            // No round is pending while one is in flight, so this only
            // ever replaces `None`.
            Progress::RoundDone { next_round } => self.next_round = next_round,
        }
        Ok(true)
    }
}

/// The one workload driver: steps a [`ClosedLoop`] with a flow schedule
/// and, optionally, a synchronized collective attached. Anything a
/// harness wants per step (printing, FCT bookkeeping) it reads from the
/// returned record and `cl.completions`.
pub struct Stepper<'a> {
    schedule: &'a [FlowRequest],
    /// Schedule flows admitted so far (the schedule cursor).
    pub admitted: usize,
    collective: Option<(&'a mut Collective, Barrier)>,
    /// `cl.completions` already fed to the collective.
    seen: usize,
    /// Completed flows that belonged to the collective.
    pub records: Vec<FlowRecord>,
}

impl<'a> Stepper<'a> {
    /// Drive a sorted-by-start flow schedule (possibly empty).
    pub fn new(schedule: &'a [FlowRequest]) -> Self {
        Self {
            schedule,
            admitted: 0,
            collective: None,
            seen: 0,
            records: Vec::new(),
        }
    }

    /// Also drive `coll`, its first round starting at `start`.
    pub fn collective(mut self, coll: &'a mut Collective, start: Nanos) -> Self {
        self.collective = Some((coll, Barrier::new(start)));
        self
    }

    /// Whether an attached collective has completed all its rounds.
    fn collective_finished(&self) -> bool {
        self.collective.as_ref().is_some_and(|(c, _)| c.finished())
    }

    /// One monitor interval: start the collective's round if due, admit
    /// the schedule flows inside the horizon, step the loop, and feed
    /// the new completions back to the collective.
    pub fn step<'c>(&mut self, cl: &'c mut ClosedLoop) -> &'c IntervalRecord {
        if let Some((coll, barrier)) = self.collective.as_mut() {
            barrier
                .start_due(&mut cl.sim, coll)
                .expect("driver starts rounds only when the collective is idle");
        }
        let lambda = cl.cell.cfg.lambda_mi;
        admit_due(&mut cl.sim, self.schedule, &mut self.admitted, lambda);
        cl.step();
        if let Some((coll, barrier)) = self.collective.as_mut() {
            for i in self.seen..cl.completions.len() {
                let done = cl.completions[i];
                let ours = barrier
                    .on_done(&mut cl.sim, coll, &done)
                    .expect("driver only feeds completions it admitted");
                if ours {
                    self.records.push(done);
                }
            }
        }
        self.seen = cl.completions.len();
        cl.cell.history.last().expect("just stepped")
    }
}

/// Admit a pre-generated (sorted-by-start) flow schedule and run the loop
/// until `until`. Returns the number of flows admitted.
pub fn run_schedule(cl: &mut ClosedLoop, flows: &[FlowRequest], until: Nanos) -> usize {
    let mut stepper = Stepper::new(flows);
    while cl.sim.now() < until {
        stepper.step(cl);
    }
    stepper.admitted
}

/// Run a synchronized [`Collective`] of any kind inside the loop until `until` or until the
/// configured number of rounds completes. Returns the flow records of
/// all completed flows belonging to the collective.
pub fn run_collective(
    cl: &mut ClosedLoop,
    coll: &mut Collective,
    start: Nanos,
    until: Nanos,
) -> Vec<FlowRecord> {
    let mut stepper = Stepper::new(&[]).collective(coll, start);
    while cl.sim.now() < until && !stepper.collective_finished() {
        stepper.step(cl);
    }
    stepper.records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchemeKind;
    use paraleon_netsim::{Topology, MILLI};
    use paraleon_workloads::{CollectiveKind, CollectiveSpec};

    fn topo() -> Topology {
        Topology::two_tier_clos(2, 4, 2, 100.0, 100.0, 1_000)
    }

    #[test]
    fn schedule_driver_admits_and_completes() {
        let mut cl = ClosedLoop::builder(topo())
            .scheme(SchemeKind::Expert)
            .build();
        let flows: Vec<FlowRequest> = (0..20)
            .map(|i| FlowRequest {
                src: i % 8,
                dst: (i + 1) % 8,
                bytes: 50_000,
                start: i as Nanos * 100_000,
            })
            .collect();
        let n = run_schedule(&mut cl, &flows, 20 * MILLI);
        assert_eq!(n, 20);
        assert_eq!(cl.completions.len(), 20);
    }

    /// The admission horizon follows the loop's own λ_MI: guessing it
    /// (1 ms before the first step) left flows starting in (2 ms, λ)
    /// behind the clock after the first step, and they were skipped.
    #[test]
    fn schedule_driver_admits_every_flow_at_any_lambda() {
        let flows: Vec<FlowRequest> = (0..40)
            .map(|i| FlowRequest {
                src: i % 8,
                dst: (i + 1) % 8,
                bytes: 20_000,
                start: i as Nanos * 250_000,
            })
            .collect();
        for lambda_ms in [1, 2, 4, 8] {
            let mut cl = ClosedLoop::builder(topo())
                .scheme(SchemeKind::Expert)
                .loop_config(crate::LoopConfig {
                    lambda_mi: lambda_ms * MILLI,
                    ..Default::default()
                })
                .build();
            let n = run_schedule(&mut cl, &flows, 16 * MILLI);
            assert_eq!(n, flows.len(), "λ_MI = {lambda_ms} ms");
        }
    }

    /// The same rule with a collective attached: the stepper reads the
    /// horizon off the loop it steps, so there is no λ_MI to guess.
    #[test]
    fn mixed_driver_admits_every_flow_at_any_lambda() {
        let flows: Vec<FlowRequest> = (0..40)
            .map(|i| FlowRequest {
                src: i % 8,
                dst: (i + 1) % 8,
                bytes: 20_000,
                start: i as Nanos * 250_000,
            })
            .collect();
        for lambda_ms in [1, 2, 4, 8] {
            let mut cl = ClosedLoop::builder(topo())
                .scheme(SchemeKind::Expert)
                .loop_config(crate::LoopConfig {
                    lambda_mi: lambda_ms * MILLI,
                    ..Default::default()
                })
                .build();
            let mut a2a = Collective::new(CollectiveSpec {
                kind: CollectiveKind::Alltoall,
                workers: (0..4).collect(),
                message_bytes: 100_000,
                microbatches: 1,
                rounds: Some(2),
                off_time: MILLI,
            });
            let mut stepper = Stepper::new(&flows).collective(&mut a2a, 0);
            while cl.sim.now() < 64 * MILLI {
                stepper.step(&mut cl);
            }
            assert_eq!(stepper.admitted, flows.len(), "λ_MI = {lambda_ms} ms");
            assert_eq!(stepper.records.len(), 2 * 4 * 3, "λ_MI = {lambda_ms} ms");
            assert!(a2a.finished(), "λ_MI = {lambda_ms} ms");
            assert_eq!(
                cl.completions.len(),
                flows.len() + 2 * 4 * 3,
                "λ_MI = {lambda_ms} ms: every admitted flow completes"
            );
        }
    }

    /// A flow whose start is already behind the clock is admitted at
    /// the clock, not dropped.
    #[test]
    fn past_start_flows_are_admitted_now() {
        let mut cl = ClosedLoop::builder(topo())
            .scheme(SchemeKind::Expert)
            .build();
        cl.run_until(3 * MILLI);
        let flows = [FlowRequest {
            src: 0,
            dst: 5,
            bytes: 50_000,
            start: MILLI,
        }];
        let mut next = 0;
        admit_due(&mut cl.sim, &flows, &mut next, cl.cell.cfg.lambda_mi);
        assert_eq!(next, 1);
        assert!(cl.run_to_completion(20 * MILLI));
        assert_eq!(cl.completions.len(), 1);
        assert_eq!(cl.completions[0].start, 3 * MILLI);
    }

    #[test]
    fn collective_driver_runs_ring_allreduce_end_to_end() {
        let mut cl = ClosedLoop::builder(topo())
            .scheme(SchemeKind::Expert)
            .build();
        let mut ring = Collective::new(CollectiveSpec {
            kind: CollectiveKind::RingAllreduce,
            workers: (0..4).collect(),
            message_bytes: 400_000,
            microbatches: 1,
            rounds: Some(2),
            off_time: MILLI,
        });
        let records = run_collective(&mut cl, &mut ring, 0, 500 * MILLI);
        assert!(ring.finished(), "2 rounds should finish well within 500 ms");
        // 2 rounds × 2(n−1)=6 waves × n=4 chunk flows.
        assert_eq!(records.len(), 2 * 6 * 4);
        assert_eq!(ring.round_durations().len(), 2);
        assert!(ring.algbw_bytes_per_sec(0).unwrap() > 0.0);
    }

    #[test]
    fn collective_driver_is_byte_identical_serial_vs_parallel() {
        use paraleon_netsim::ThreeTierSpec;
        // A three-tier fabric exercises the Spine tier in both engines.
        let spec = ThreeTierSpec {
            n_pod: 2,
            tors_per_pod: 2,
            hosts_per_tor: 2,
            aggs_per_pod: 2,
            spines_per_agg: 1,
            host_gbps: 100.0,
            agg_gbps: 100.0,
            spine_gbps: 100.0,
            delay_ns: 1_000,
        };
        let run = |threads: usize| {
            let mut cl = ClosedLoop::builder(spec.build())
                .scheme(SchemeKind::Paraleon)
                .parallel(threads)
                .build();
            let mut tree = Collective::new(CollectiveSpec {
                kind: CollectiveKind::TreeAllreduce,
                workers: (0..8).collect(),
                message_bytes: 300_000,
                microbatches: 1,
                rounds: Some(2),
                off_time: MILLI,
            });
            let recs = run_collective(&mut cl, &mut tree, 0, 500 * MILLI);
            assert!(tree.finished());
            (recs, cl.cell.history.clone())
        };
        let (serial, hist1) = run(1);
        let (par, hist2) = run(4);
        assert_eq!(serial, par, "flow records must be byte-identical");
        assert_eq!(hist1.len(), hist2.len());
    }

    #[test]
    fn alltoall_driver_runs_rounds_with_off_gaps() {
        let mut cl = ClosedLoop::builder(topo())
            .scheme(SchemeKind::Expert)
            .build();
        let mut a2a = Collective::new(CollectiveSpec {
            kind: CollectiveKind::Alltoall,
            workers: (0..4).collect(),
            message_bytes: 200_000,
            microbatches: 1,
            rounds: Some(3),
            off_time: 2 * MILLI,
        });
        let records = run_collective(&mut cl, &mut a2a, 0, 500 * MILLI);
        assert!(a2a.finished(), "3 rounds should finish well within 500 ms");
        assert_eq!(records.len(), 3 * 4 * 3);
        assert_eq!(a2a.round_durations().len(), 3);
        // OFF gaps: round k+1 starts ≥ 2 ms after round k ends.
        // (Verified indirectly: total duration exceeds 2 OFF periods.)
        let last_finish = records.iter().map(|r| r.finish).max().unwrap();
        assert!(last_finish >= 2 * 2 * MILLI);
    }
}
