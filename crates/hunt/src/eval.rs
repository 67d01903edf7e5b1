//! Candidate evaluation: run a [`HuntPoint`] and its fault-free twin
//! through the packet simulator and distill the per-interval signals the
//! oracle suite ([`crate::OracleKind`]) judges.
//!
//! Determinism contract: `evaluate` is a pure function of
//! `(EvalConfig, OracleConfig, HuntPoint)` — same inputs, same
//! [`OracleReport`], byte for byte. The search fans `evaluate` calls
//! across threads with [`paraleon::sweep`], which preserves job order, so
//! parallel hunts reproduce serial ones exactly. The only global state
//! touched is the thread-local audit registry, which is reset before and
//! drained after each run so back-to-back evaluations never leak
//! violations into each other.

use serde::{Deserialize, Serialize};

use paraleon::drivers::Barrier;
use paraleon::{ClosedLoop, CtrlPlaneConfig, LoopConfig, MonitorKind, SchemeKind};
use paraleon_dcqcn::DcqcnParams;
use paraleon_netsim::{Engine, FaultPlan, FlowId, FlowRecord, SimConfig, MILLI};
use paraleon_workloads::Collective;

use crate::genome::HuntPoint;
use crate::oracle::{judge, CtrlMeasure, OracleConfig, OracleReport};

/// How long and how hard to run each candidate.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EvalConfig {
    /// Measurement intervals to run.
    pub intervals: u64,
    /// Interval length, ns.
    pub lambda_mi: u64,
    /// Deterministic livelock budget: abort the run once the simulator
    /// has processed this many events. Event counts are a pure function
    /// of the inputs, unlike wall-clock time, so the abort itself
    /// replays identically.
    pub event_budget: u64,
    /// Tail window (intervals) the collapse/fairness/livelock oracles
    /// judge.
    pub tail: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            intervals: 20,
            lambda_mi: MILLI,
            event_budget: 20_000_000,
            tail: 5,
        }
    }
}

impl EvalConfig {
    /// Check that every run length is positive and that the run's end,
    /// `intervals × lambda_mi`, fits the `u64` clock (a case file may
    /// say otherwise).
    pub fn validate(&self) -> Result<(), String> {
        if self.intervals == 0 || self.lambda_mi == 0 || self.tail == 0 {
            return Err("EvalConfig: intervals, lambda_mi and tail must be positive".into());
        }
        if self.intervals.checked_mul(self.lambda_mi).is_none() {
            return Err("EvalConfig: intervals × lambda_mi overflows the u64 clock".into());
        }
        Ok(())
    }
}

/// Per-interval signals extracted from one simulator run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Delivered goodput per interval, bytes/sec.
    pub goodput: Vec<f64>,
    /// Mean per-device PFC pause fraction per interval, `[0, 1]`.
    pub pause_ratio: Vec<f64>,
    /// Payload bytes delivered per interval.
    pub bytes_delivered: Vec<u64>,
    /// CNPs delivered per interval.
    pub cnps: Vec<u64>,
    /// PFC pause frames per interval.
    pub pfc_events: Vec<u64>,
    /// `(flow, tail bytes)` for flows *eligible* in the tail window:
    /// admitted before it started and not already finished when it
    /// began. Zero-byte entries are flows that were live yet starved.
    pub eligible_tail_bytes: Vec<(FlowId, u64)>,
    /// Flows still unfinished when the run ended.
    pub active_flows_end: u64,
    /// Whether the event budget aborted the run before its scheduled
    /// end.
    pub aborted_early: bool,
    /// Events the simulator processed.
    pub events_processed: u64,
    /// Intervals actually completed (less than scheduled when aborted).
    pub intervals_run: u64,
    /// The tail window length this run was judged with.
    pub tail_len: usize,
}

/// Run one simulation of `point`'s topology/workload/seed under the
/// given fault plan and parameters.
fn run_one(
    cfg: &EvalConfig,
    point: &HuntPoint,
    faults: &FaultPlan,
    params: &DcqcnParams,
) -> Result<RunMetrics, String> {
    let sim_cfg = SimConfig {
        dcqcn: *params,
        track_ground_truth: true,
        seed: point.seed,
        ..SimConfig::default()
    };
    let mut sim = Engine::new(point.topo.build(), sim_cfg, 1);
    let flows = point.expand_flows();
    let mut starts = Vec::with_capacity(flows.len());
    for (src, dst, bytes, start) in flows {
        sim.try_add_flow(src, dst, bytes, start)
            .map_err(|e| format!("flow {src}->{dst}: {e}"))?;
        starts.push(start);
    }
    sim.install_fault_plan(faults)
        .map_err(|e| format!("fault plan: {e}"))?;

    let mut m = RunMetrics {
        goodput: Vec::new(),
        pause_ratio: Vec::new(),
        bytes_delivered: Vec::new(),
        cnps: Vec::new(),
        pfc_events: Vec::new(),
        eligible_tail_bytes: Vec::new(),
        active_flows_end: 0,
        aborted_early: false,
        events_processed: 0,
        intervals_run: 0,
        tail_len: cfg.tail,
    };
    // An attached collective is driven at interval granularity through
    // the same `paraleon::drivers::Barrier` the loop's stepper uses, so
    // the genome field changes nothing about how the plain workload path
    // executes. The mid-run completion drains only happen on this path —
    // fault-only genomes keep the byte-identical single-drain execution
    // the corpus was recorded under.
    let mut collective = match &point.collective {
        Some(c) => {
            c.validate()?;
            Some((Collective::new(c.clone()), Barrier::new(0)))
        }
        None => None,
    };
    let mut drained: Vec<FlowRecord> = Vec::new();
    // Exact per-flow bytes for every interval; the tail slice feeds the
    // fairness oracle after we know where the run actually ended.
    let mut truth: Vec<Vec<(FlowId, u64)>> = Vec::new();
    for i in 0..cfg.intervals {
        if let Some((coll, barrier)) = collective.as_mut() {
            barrier.start_due(&mut sim, coll)?;
        }
        sim.run_until((i + 1) * cfg.lambda_mi);
        if let Some((coll, barrier)) = collective.as_mut() {
            let recs = sim.take_completions();
            for r in &recs {
                barrier.on_done(&mut sim, coll, r)?;
            }
            drained.extend(recs);
        }
        let iv = sim.collect_interval();
        m.goodput.push(iv.goodput_bytes_per_sec());
        m.pause_ratio.push(iv.pfc_pause_ratio);
        m.bytes_delivered.push(iv.bytes_delivered);
        m.cnps.push(iv.cnps);
        m.pfc_events.push(iv.pfc_events);
        truth.push(iv.truth_flow_bytes);
        m.intervals_run += 1;
        if sim.events_processed() > cfg.event_budget {
            m.aborted_early = true;
            break;
        }
    }
    m.events_processed = sim.events_processed();
    m.active_flows_end = sim.active_flows() as u64;

    let tail_start_iv = (m.intervals_run as usize).saturating_sub(cfg.tail);
    let tail_start_t = tail_start_iv as u64 * cfg.lambda_mi;
    let finished: std::collections::HashMap<FlowId, u64> = drained
        .into_iter()
        .chain(sim.take_completions())
        .map(|r| (r.flow, r.finish))
        .collect();
    for (flow_idx, &start) in starts.iter().enumerate() {
        let flow = flow_idx as FlowId;
        if start >= tail_start_t {
            continue;
        }
        if let Some(&finish) = finished.get(&flow) {
            if finish < tail_start_t {
                continue;
            }
        }
        let bytes: u64 = truth[tail_start_iv..]
            .iter()
            .flat_map(|iv| iv.iter())
            .filter(|&&(f, _)| f == flow)
            .map(|&(_, b)| b)
            .sum();
        m.eligible_tail_bytes.push((flow, bytes));
    }
    Ok(m)
}

/// Extra quiescence intervals the control-plane probe grants after its
/// scheduled run. This must outlast a full SA episode (~280 monitor
/// intervals at the paper's Table III settings — the scheme dispatches
/// a candidate every interval until the episode cools) plus the retry
/// backoff cap, so a loop that has not settled by then genuinely
/// diverged.
const PROBE_SETTLE: u64 = 400;

/// The control-plane probe: drive the candidate's topology, workload,
/// seed and fault plan through the *full closed loop* twice — once with
/// the hardened epoch/retry/snapshot protocol, once with the naive
/// apply-everything fabric — and measure whether each reaches quiescent
/// agreement between the controller's believed parameters and what the
/// fabric actually runs. Returns `None` when the plan schedules no
/// control-plane events: the probe (and the CtrlDivergence outcome it
/// feeds) then never runs, which keeps ctrl-free reports — including
/// every corpus case committed before this oracle existed — byte-stable.
/// The probe drives only the plain flow workload: it judges protocol
/// convergence, not traffic shape, and the expanded specs already keep
/// dispatches flowing.
fn ctrl_probe(cfg: &EvalConfig, point: &HuntPoint) -> Result<Option<CtrlMeasure>, String> {
    if !point.faults.events().iter().any(|e| e.kind.is_ctrl()) {
        return Ok(None);
    }
    let run = |naive: bool| -> Result<(bool, u64, u64, u64, f64), String> {
        let mut cl = ClosedLoop::builder(point.topo.build())
            .scheme(SchemeKind::Paraleon)
            .monitor(MonitorKind::Paraleon)
            .loop_config(LoopConfig {
                lambda_mi: cfg.lambda_mi,
                // Tuning every interval keeps dispatches flowing, so the
                // protocol under test always has traffic to mishandle.
                force_tuning: true,
                ..LoopConfig::default()
            })
            .ctrl_plane(CtrlPlaneConfig { naive })
            .seed(point.seed)
            .build();
        for (src, dst, bytes, start) in point.expand_flows() {
            cl.sim
                .try_add_flow(src, dst, bytes, start)
                .map_err(|e| format!("probe flow {src}->{dst}: {e}"))?;
        }
        cl.install_fault_plan(&point.faults)
            .map_err(|e| format!("probe fault plan: {e}"))?;
        for _ in 0..cfg.intervals {
            cl.step();
            if cl.sim.events_processed() > cfg.event_budget {
                break;
            }
        }
        let converged = cl.ctrl_settle(PROBE_SETTLE) && !cl.cell.ctrl_diverged(&cl.sim);
        let stats = cl.cell.ctrl().stats();
        let sent = stats.up.sent + stats.down.sent;
        let lost = stats.up.lost + stats.down.lost;
        Ok((
            converged,
            lost,
            stats.retries,
            stats.crashes,
            lost as f64 / sent.max(1) as f64,
        ))
    };
    let (hardened_converged, msgs_lost, retries, crashes, loss_ratio) = run(false)?;
    let (naive_converged, ..) = run(true)?;
    Ok(Some(CtrlMeasure {
        hardened_converged,
        naive_converged,
        msgs_lost,
        retries,
        crashes,
        loss_ratio,
    }))
}

/// The result of judging one candidate: both runs' signals plus the
/// oracle verdicts.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Signals of the faulted/parameterized run.
    pub run: RunMetrics,
    /// Signals of the fault-free, default-parameter twin.
    pub twin: RunMetrics,
    /// The oracle verdicts over the pair.
    pub report: OracleReport,
}

/// Evaluate `point`: run it, run its fault-free twin (same topology,
/// workload and seed; empty fault plan; NVIDIA-default parameters), and
/// judge the pair with every oracle.
///
/// Fails only on inadmissible points (the search never generates those —
/// [`HuntPoint::validate`] mirrors the simulator's admission checks),
/// so corpus replays surface a `String` error instead of panicking.
pub fn evaluate(
    cfg: &EvalConfig,
    oracles: &OracleConfig,
    point: &HuntPoint,
) -> Result<Evaluation, String> {
    // Violations must be *counted*, not thrown: debug builds default to
    // panicking at the detection site, which would kill the hunt on the
    // very pathology it is hunting for.
    paraleon_audit::set_panic_on_violation(false);
    paraleon_audit::reset();
    let run = run_one(cfg, point, &point.faults, &point.params)?;
    let (violations, _) = paraleon_audit::drain();
    let twin = run_one(
        cfg,
        point,
        &FaultPlan::new(point.faults.seed),
        &DcqcnParams::nvidia_default(),
    )?;
    // Drop anything the twin tripped: its run is a baseline, not a
    // subject, and the next evaluation must start from a clean registry.
    let _ = paraleon_audit::drain();
    // The control-plane probe runs last for the same reason: its two
    // closed-loop runs are protocol subjects, not audit subjects.
    let ctrl = ctrl_probe(cfg, point)?;
    let _ = paraleon_audit::drain();
    let report = judge(oracles, &run, &twin, violations, ctrl);
    Ok(Evaluation { run, twin, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{FlowSpec, HuntPoint};
    use paraleon_netsim::{ClosSpec, TopoSpec};
    use paraleon_workloads::{CollectiveKind, CollectiveSpec};

    fn tiny_point() -> HuntPoint {
        HuntPoint {
            topo: TopoSpec::TwoTier(ClosSpec {
                n_tor: 2,
                hosts_per_tor: 2,
                n_leaf: 1,
                host_gbps: 100.0,
                uplink_gbps: 100.0,
                delay_ns: 1_000,
            }),
            workload: vec![FlowSpec {
                src: 0,
                dst: 2,
                bytes: 200_000,
                start: 0,
                count: 2,
                gap: 100_000,
            }],
            collective: None,
            faults: FaultPlan::new(7),
            params: DcqcnParams::nvidia_default(),
            seed: 7,
        }
    }

    #[test]
    fn healthy_point_fires_nothing() {
        let cfg = EvalConfig {
            intervals: 6,
            lambda_mi: MILLI,
            event_budget: 50_000_000,
            tail: 3,
        };
        let ev = evaluate(&cfg, &OracleConfig::default(), &tiny_point()).expect("evaluates");
        assert_eq!(ev.run.intervals_run, 6);
        assert!(!ev.run.aborted_early);
        let fired: Vec<_> = ev.report.outcomes.iter().filter(|o| o.fired).collect();
        assert!(fired.is_empty(), "healthy run fired {fired:?}");
    }

    #[test]
    fn collective_points_evaluate_deterministically() {
        let cfg = EvalConfig {
            intervals: 8,
            lambda_mi: MILLI,
            event_budget: 50_000_000,
            tail: 3,
        };
        let mut p = tiny_point();
        // A rail-optimized fabric plus a ring allreduce: the genome's two
        // new axes together, through the full evaluate path.
        p.topo = TopoSpec::Rail(paraleon_netsim::RailSpec {
            n_rail: 2,
            n_server: 2,
            n_spine: 1,
            host_gbps: 100.0,
            uplink_gbps: 100.0,
            delay_ns: 1_000,
        });
        p.collective = Some(CollectiveSpec {
            kind: CollectiveKind::RingAllreduce,
            workers: vec![0, 1, 2, 3],
            message_bytes: 200_000,
            microbatches: 2,
            rounds: Some(2),
            off_time: MILLI,
        });
        p.validate().expect("fixture valid");
        let a = evaluate(&cfg, &OracleConfig::default(), &p).expect("evaluates");
        let b = evaluate(&cfg, &OracleConfig::default(), &p).expect("evaluates");
        assert_eq!(a.run.bytes_delivered, b.run.bytes_delivered);
        assert_eq!(a.run.events_processed, b.run.events_processed);
        assert!(
            a.run.bytes_delivered.iter().sum::<u64>() > 0,
            "the collective must move bytes"
        );
    }

    #[test]
    fn twin_of_fault_free_point_matches_run() {
        // A point with no faults and default params IS its own twin, so
        // both runs must produce identical signals (determinism check).
        let cfg = EvalConfig {
            intervals: 4,
            lambda_mi: MILLI,
            event_budget: 50_000_000,
            tail: 2,
        };
        let ev = evaluate(&cfg, &OracleConfig::default(), &tiny_point()).expect("evaluates");
        assert_eq!(ev.run.goodput, ev.twin.goodput);
        assert_eq!(ev.run.bytes_delivered, ev.twin.bytes_delivered);
        assert_eq!(ev.run.events_processed, ev.twin.events_processed);
    }

    #[test]
    fn ctrl_probe_runs_only_for_ctrl_faulted_points() {
        let cfg = EvalConfig {
            intervals: 12,
            lambda_mi: MILLI,
            event_budget: 50_000_000,
            tail: 3,
        };
        let clean = tiny_point();
        assert!(ctrl_probe(&cfg, &clean).expect("probes").is_none());

        let mut sick = tiny_point();
        // Elephants to keep the tuner dispatching.
        sick.workload = vec![crate::genome::FlowSpec {
            src: 2,
            dst: 0,
            bytes: 4_000_000,
            start: 0,
            count: 8,
            gap: MILLI,
        }];
        sick.faults.ctrl_impair(2 * MILLI, false, true, 0.5, 3, 0.3);
        let mut outcomes = Vec::new();
        for seed in 0..16 {
            sick.seed = seed;
            let m = ctrl_probe(&cfg, &sick)
                .expect("probes")
                .expect("ctrl faults scheduled");
            outcomes.push(m);
        }
        eprintln!("probe outcomes: {outcomes:#?}");
        assert!(
            outcomes.iter().any(|m| m.msgs_lost > 0),
            "a 50% lossy lane must lose messages"
        );
        assert!(
            outcomes
                .iter()
                .any(|m| m.hardened_converged && !m.naive_converged),
            "some seed must strand the naive protocol while hardened recovers"
        );
    }

    #[test]
    fn event_budget_aborts_deterministically() {
        let cfg = EvalConfig {
            intervals: 6,
            lambda_mi: MILLI,
            event_budget: 10, // absurdly small: first interval blows it
            tail: 3,
        };
        let a = evaluate(&cfg, &OracleConfig::default(), &tiny_point()).expect("evaluates");
        let b = evaluate(&cfg, &OracleConfig::default(), &tiny_point()).expect("evaluates");
        assert!(a.run.aborted_early);
        assert!(a.report.fired(crate::oracle::OracleKind::Livelock));
        assert_eq!(a.run.intervals_run, b.run.intervals_run);
        assert_eq!(a.run.events_processed, b.run.events_processed);
    }
}
