//! Workload drivers: feed workload-crate generators into a closed loop.
//!
//! The generators in `paraleon-workloads` are pure; these helpers supply
//! the glue (flow admission, completion feedback for synchronized
//! collectives) that the examples and the experiment harness share.

use paraleon_netsim::{FlowId, FlowRecord};
use paraleon_workloads::{AllToAll, Collective, FlowRequest, Progress};

use crate::closed_loop::ClosedLoop;
use crate::Nanos;

/// Admit a pre-generated (sorted-by-start) flow schedule and run the loop
/// until `until`. Returns the number of flows admitted.
///
/// Flows are admitted lazily, inside a horizon of two λ_MI, so the
/// simulator's event queue stays proportional to in-flight work. Each
/// step advances exactly one λ_MI, so a flow starting later than the
/// horizon is always still ahead of the clock on a later pass.
pub fn run_schedule(cl: &mut ClosedLoop, flows: &[FlowRequest], until: Nanos) -> usize {
    let mut admitted = 0;
    let mut idx = 0;
    while cl.sim.now() < until {
        let horizon = cl.sim.now() + 2 * cl.cell.cfg.lambda_mi;
        while idx < flows.len() && flows[idx].start <= horizon {
            let f = flows[idx];
            if f.start >= cl.sim.now() {
                cl.sim.add_flow(f.src, f.dst, f.bytes, f.start);
                admitted += 1;
            }
            idx += 1;
        }
        cl.step();
    }
    admitted
}

/// Admit one wave of collective flows at the loop's current time with
/// stable per-pair QP identity: the monitor sees one long-lived QP per
/// (src, dst), as NCCL reuses QPs across rounds and waves.
fn admit_wave(
    cl: &mut ClosedLoop,
    flows: &[FlowRequest],
    flow_ids: &mut std::collections::HashSet<FlowId>,
) {
    for f in flows {
        let qp = qp_id(f.src, f.dst);
        let id = cl
            .sim
            .add_flow_on_qp(f.src, f.dst, f.bytes, cl.sim.now(), qp);
        flow_ids.insert(id);
    }
}

/// Run any synchronized [`Collective`] (alltoall, ring/tree allreduce,
/// pipeline bursts) inside the loop until `until` or until the
/// configured number of rounds completes. Returns the flow records of
/// all completed flows belonging to the collective.
///
/// Barrier semantics: completions are observed at the loop's control
/// interval (λ_MI), so wave releases and round starts quantize to
/// interval boundaries. The quantization is identical under every
/// tuning scheme and engine, so collective round times stay directly
/// comparable — and serial/parallel byte-identity is preserved because
/// admission depends only on the completion-record stream, which the
/// conservative engine reproduces exactly.
pub fn run_collective(
    cl: &mut ClosedLoop,
    coll: &mut dyn Collective,
    start: Nanos,
    until: Nanos,
) -> Vec<FlowRecord> {
    let mut records = Vec::new();
    let mut next_round: Option<Nanos> = Some(start.max(cl.sim.now()));
    let mut seen_completions = cl.completions.len();
    let mut flow_ids = std::collections::HashSet::new();
    while cl.sim.now() < until && !coll.finished() {
        if let Some(t) = next_round {
            if cl.sim.now() >= t {
                let flows = coll
                    .start_round(cl.sim.now())
                    .expect("driver starts rounds only when the collective is idle");
                admit_wave(cl, &flows, &mut flow_ids);
                next_round = None;
            }
        }
        cl.step();
        // Feed completions back into the round state machine.
        let new = cl.completions[seen_completions..].to_vec();
        seen_completions = cl.completions.len();
        for r in new {
            if flow_ids.remove(&r.flow) {
                records.push(r);
                let progress = coll
                    .on_flow_done(r.finish)
                    .expect("driver only feeds completions it admitted");
                match progress {
                    Progress::Pending => {}
                    Progress::NextWave(flows) => admit_wave(cl, &flows, &mut flow_ids),
                    Progress::RoundDone { next_round: nr } => {
                        if let Some(t) = nr {
                            next_round = Some(t);
                        }
                    }
                }
            }
        }
    }
    records
}

/// Run an ON-OFF alltoall collective inside the loop until `until` (or
/// until the configured number of rounds completes). Returns the flow
/// records of all completed flows belonging to the collective. Thin
/// wrapper over [`run_collective`].
pub fn run_alltoall(
    cl: &mut ClosedLoop,
    a2a: &mut AllToAll,
    start: Nanos,
    until: Nanos,
) -> Vec<FlowRecord> {
    run_collective(cl, a2a, start, until)
}

/// Stable QP identity for a (src, dst) pair (collectives reuse QPs).
pub fn qp_id(src: usize, dst: usize) -> u64 {
    0x5150_0000_0000_0000 | ((src as u64) << 24) | dst as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::SchemeKind;
    use paraleon_netsim::{Topology, MILLI};
    use paraleon_workloads::AllToAllConfig;

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
                .loop_config(crate::closed_loop::LoopConfig {
                    lambda_mi: lambda_ms * MILLI,
                    ..Default::default()
                })
                .build();
            let n = run_schedule(&mut cl, &flows, 16 * MILLI);
            assert_eq!(n, flows.len(), "λ_MI = {lambda_ms} ms");
        }
    }

    #[test]
    fn collective_driver_runs_ring_allreduce_end_to_end() {
        use paraleon_workloads::{Collective, RingAllreduce, RingConfig};
        let mut cl = ClosedLoop::builder(topo())
            .scheme(SchemeKind::Expert)
            .build();
        let mut ring = RingAllreduce::new(RingConfig {
            workers: (0..4).collect(),
            message_bytes: 400_000,
            off_time: MILLI,
            rounds: Some(2),
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
        use paraleon_workloads::{TreeAllreduce, TreeConfig};
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
            let mut tree = TreeAllreduce::new(TreeConfig {
                workers: (0..8).collect(),
                message_bytes: 300_000,
                off_time: MILLI,
                rounds: Some(2),
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
        let mut a2a = AllToAll::new(AllToAllConfig {
            workers: (0..4).collect(),
            message_bytes: 200_000,
            off_time: 2 * MILLI,
            rounds: Some(3),
        });
        let records = run_alltoall(&mut cl, &mut a2a, 0, 500 * MILLI);
        assert!(a2a.finished(), "3 rounds should finish well within 500 ms");
        assert_eq!(records.len(), 3 * 4 * 3);
        assert_eq!(a2a.round_durations.len(), 3);
        // OFF gaps: round k+1 starts ≥ 2 ms after round k ends.
        // (Verified indirectly: total duration exceeds 2 OFF periods.)
        let last_finish = records.iter().map(|r| r.finish).max().unwrap();
        assert!(last_finish >= 2 * 2 * MILLI);
    }
}
