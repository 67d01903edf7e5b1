//! One tenant's controller state, decoupled from the fabric it tunes.
//!
//! [`TunerCell`] owns everything the *controller process* holds for one
//! fabric: the monitoring scheme, the KL change detector, the tuning
//! scheme, the deployment guardrail, the control plane (both channel
//! lanes, epochs, retry machine, upload merger), the per-interval
//! history and the control-channel byte ledger. It deliberately does
//! **not** own the simulated fabric: every method that needs the fabric
//! takes the [`Engine`] as a parameter.
//!
//! There is one loop (Figure 2). Monitor uploads always ride the up
//! lane into the staleness merger, and every parameter change — a tuner
//! candidate, a guardrail correction, a post-crash resync — always
//! leaves as an epoch-stamped dispatch on the down lane.
//! [`TunerCell::deliver_due_dispatches`] is the only controller code
//! that writes parameters into the fabric, which is why
//! [`TunerCell::process_interval`] takes the engine by shared
//! reference. On a clean channel a dispatch sent while interval `k−1`
//! is processed lands at the start of interval `k`, before the fabric
//! advances, and the age-0 merge is the plain merge.
//!
//! [`crate::ClosedLoop`] is the 1-tenant special case — one `Engine`
//! plus one `TunerCell`, stepped in lockstep. The fleet service
//! (`paraleon-fleet`) holds N cells against N engines and interleaves
//! them under a cooperative scheduler; because all controller state
//! lives here and all randomness is seeded per cell, a cell's interval
//! trajectory is bit-identical whether it runs standalone or as one
//! tenant among many.

use std::time::{Duration, Instant};

use paraleon_dcqcn::DcqcnParams;
use paraleon_monitor::{
    ChangeDetector, FsdMonitor, FsdUpload, MetricSample, TransferLedger, UtilityWeights,
};
use paraleon_netsim::{
    CtrlImpairment, Engine, FaultEvent, FaultKind, FaultPlan, FlowRecord, IntervalMetrics, MILLI,
};
use paraleon_sketch::{FlowType, Fsd, SlidingWindowClassifier};
use paraleon_telemetry as tel;
use paraleon_tuner::{Observation, SwitchLocalObs, TuningAction, TuningFeedback, TuningScheme};

use crate::ctrl_plane::{CtrlPlane, CtrlPlaneConfig, CtrlState, UpMsg};
use crate::guardrail::{GuardAction, Guardrail, ScreenOutcome, SAFE_PARAMS};
use crate::Nanos;

/// KL trigger threshold θ (paper default: 0.01).
const THETA: f64 = 0.01;
/// Controller checkpoint cadence, in intervals. A warm restart resumes
/// from the latest checkpoint; everything since is lost.
const SNAPSHOT_EVERY_INTERVALS: u64 = 16;

/// Loop-level configuration.
#[derive(Debug, Clone)]
pub struct LoopConfig {
    /// Monitor interval λ_MI (paper NS3 default: 1 ms).
    pub lambda_mi: Nanos,
    /// Utility weights (paper NS3 default: 0.2 / 0.5 / 0.3).
    pub weights: UtilityWeights,
    /// Force a tuning trigger on the first interval (used by the
    /// monitoring-comparison experiments so every variant tunes even if
    /// its FSD scheme cannot detect change).
    pub force_tuning: bool,
    /// The change detector compares FSDs aggregated over this many
    /// monitor intervals (the paper checks the KL trigger at sub-second
    /// cadence, coarser than λ_MI; window-averaging also keeps per-
    /// interval sampling noise from re-triggering tuning forever).
    pub trigger_window: u32,
}

impl Default for LoopConfig {
    fn default() -> Self {
        Self {
            lambda_mi: MILLI,
            weights: UtilityWeights::paper_default(),
            force_tuning: false,
            trigger_window: 8,
        }
    }
}

/// What the controller logged for one monitor interval — the time series
/// behind Figures 8, 9, 12 and 14. `PartialEq` so harnesses can assert
/// byte-equivalence between loop variants.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalRecord {
    /// Interval end time (ns).
    pub t: Nanos,
    /// Delivered goodput, bytes/sec.
    pub goodput: f64,
    /// Mean RTT, ns (0 if no samples).
    pub avg_rtt_ns: f64,
    /// Utility function value.
    pub utility: f64,
    /// O_TP term.
    pub o_tp: f64,
    /// O_RTT term.
    pub o_rtt: f64,
    /// O_PFC term.
    pub o_pfc: f64,
    /// Dominant flow type this interval.
    pub dominant: FlowType,
    /// Its proportion µ.
    pub mu: f64,
    /// Whether the KL trigger fired.
    pub triggered: bool,
    /// Whether the tuner dispatched new parameters.
    pub dispatched: bool,
    /// Whether the guardrail refused the tuner's candidate this interval.
    pub rejected: bool,
    /// Whether the guardrail rolled the fabric back to the last-known-
    /// good setting this interval.
    pub rolled_back: bool,
    /// Whether the loop is in safe mode (tuning frozen) this interval.
    pub safe_mode: bool,
    /// CNPs this interval.
    pub cnps: u64,
    /// PFC pause frames this interval.
    pub pfc_events: u64,
    /// FSD accuracy (similarity to the ground-truth distribution); only
    /// present when the simulator tracks ground truth.
    pub fsd_accuracy: Option<f64>,
}

impl IntervalRecord {
    /// The interval's PFC pause fraction. `o_pfc` is defined as
    /// `1 − pause fraction` (see `MetricSample`), so this inverts it —
    /// the pause-storm detectors consume the fraction directly.
    pub fn pause_ratio(&self) -> f64 {
        1.0 - self.o_pfc
    }
}

/// The decision state a controller crash rewinds, checkpointed by
/// clone: tuning scheme, guardrail, KL detector and trigger window.
#[derive(Clone)]
struct Controller {
    scheme: Box<dyn TuningScheme>,
    /// Deployment guardrail, when armed (see [`crate::guardrail`]).
    guard: Option<Guardrail>,
    detector: ChangeDetector,
    first_interval: bool,
    /// FSD aggregated over the current trigger window.
    window_fsd: Fsd,
    /// Intervals accumulated into `window_fsd`.
    window_count: u32,
}

/// One controller checkpoint: everything the controller process owns,
/// for every scheme. The simulator, the monitor's device-side
/// classifiers and the channel lanes live outside the controller and
/// deliberately do not rewind.
#[derive(Clone)]
pub struct CellSnapshot {
    controller: Controller,
    ctrl: CtrlState,
    last_params: DcqcnParams,
}

/// The controller half of one tuned fabric: monitor merge, trigger,
/// tuning scheme, guardrail, dispatch protocol, history and ledger.
pub struct TunerCell {
    monitor: Box<dyn FsdMonitor>,
    controller: Controller,
    /// Loop-level configuration (public so harnesses can toggle
    /// `force_tuning` while settling).
    pub cfg: LoopConfig,
    /// Control-channel byte accounting (Table IV).
    pub ledger: TransferLedger,
    /// Per-interval time series.
    pub history: Vec<IntervalRecord>,
    /// Last globally dispatched parameter setting.
    pub last_params: DcqcnParams,
    /// Network-wide FSD estimate from the last interval.
    pub last_fsd: Fsd,
    /// Wall-clock spent in monitoring code (Table IV CPU accounting).
    pub monitor_cpu: Duration,
    /// Wall-clock spent in tuning code.
    pub tuner_cpu: Duration,
    prev_uploaded: u64,
    /// Ground-truth classifier (same ternary semantics, exact inputs);
    /// present when `SimConfig::track_ground_truth` is set.
    truth: Option<SlidingWindowClassifier>,
    /// The control plane between this controller and its fabric.
    ctrl: CtrlPlane,
    /// Control-plane fault events (impairments, crashes) consumed by
    /// the cell at their scheduled times, sorted by time.
    ctrl_events: Vec<FaultEvent>,
    ctrl_event_idx: usize,
    /// Latest periodic checkpoint — the warm-restart target.
    snapshot: CellSnapshot,
    /// Build-time checkpoint — the cold-restart target.
    initial_snapshot: CellSnapshot,
    /// Channel/merger counters at the end of the previous interval, for
    /// per-interval telemetry deltas.
    prev_lost: u64,
    prev_duplicated: u64,
    prev_stale_rejected: u64,
    /// The switch indexes that reported, rebuilt every interval for the
    /// guardrail; kept for its capacity.
    reporting: Vec<usize>,
    /// The scheme's per-switch observations, rebuilt every interval;
    /// kept for its capacity.
    switch_obs: Vec<SwitchLocalObs>,
}

/// What the monitoring stage concluded about one interval.
struct Monitored {
    /// Staleness-weighted network-wide FSD.
    fsd: Fsd,
    triggered: bool,
    dominant: FlowType,
    mu: f64,
    fsd_accuracy: Option<f64>,
}

/// The interval's utility-function terms and value.
struct Scored {
    sample: MetricSample,
    utility: f64,
}

/// What the guardrail did about the previous dispatch.
#[derive(Default)]
struct Verdict {
    /// The guard corrected the fabric this interval (rollback or
    /// safe-mode entry), so the scheme is not consulted: a fresh
    /// candidate would overwrite the correction at the same instant.
    acted: bool,
    rolled_back: bool,
    safe_mode: bool,
    /// Wire bytes of the guard's own correction.
    dispatch_bytes: u64,
}

impl TunerCell {
    /// Build a cell. `initial` is the parameter set the fabric boots
    /// with (the cell's initial believed parameters); `truth` carries
    /// the ground-truth classifier when the simulator tracks it; `ctrl`
    /// configures the control plane, whose RNG lanes derive from `seed`.
    /// The checkpoint taken here is the cold-restart target.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        monitor: Box<dyn FsdMonitor>,
        scheme: Box<dyn TuningScheme>,
        guard: Option<Guardrail>,
        cfg: LoopConfig,
        ctrl: CtrlPlaneConfig,
        initial: DcqcnParams,
        truth: Option<SlidingWindowClassifier>,
        seed: u64,
    ) -> Self {
        let controller = Controller {
            scheme,
            guard,
            detector: ChangeDetector::new(THETA),
            first_interval: true,
            window_fsd: Fsd::empty(),
            window_count: 0,
        };
        let ctrl = CtrlPlane::new(ctrl, seed);
        let boot = CellSnapshot {
            controller: controller.clone(),
            ctrl: ctrl.state.clone(),
            last_params: initial,
        };
        TunerCell {
            monitor,
            controller,
            cfg,
            ledger: TransferLedger::new(),
            history: Vec::new(),
            last_params: initial,
            last_fsd: Fsd::empty(),
            monitor_cpu: Duration::ZERO,
            tuner_cpu: Duration::ZERO,
            prev_uploaded: 0,
            truth,
            ctrl,
            ctrl_events: Vec::new(),
            ctrl_event_idx: 0,
            snapshot: boot.clone(),
            initial_snapshot: boot,
            prev_lost: 0,
            prev_duplicated: 0,
            prev_stale_rejected: 0,
            reporting: Vec::new(),
            switch_obs: Vec::new(),
        }
    }

    /// Index of the next interval to process (= intervals processed so
    /// far). Control-channel time is this index: coarse enough for the
    /// protocol, exact enough for determinism.
    pub fn interval_index(&self) -> u64 {
        self.history.len() as u64
    }

    /// The scheme's display name.
    pub fn scheme_name(&self) -> &'static str {
        self.controller.scheme.name()
    }

    /// The monitor's display name.
    pub fn monitor_name(&self) -> &'static str {
        self.monitor.name()
    }

    /// The guardrail, when armed.
    pub fn guard(&self) -> Option<&Guardrail> {
        self.controller.guard.as_ref()
    }

    /// The control plane (channel lanes, protocol state, counters).
    pub fn ctrl(&self) -> &CtrlPlane {
        &self.ctrl
    }

    /// Queue the control-plane half of a fault plan (impairments and
    /// crashes). Data-plane events go to the simulator separately.
    pub(crate) fn install_ctrl_events(&mut self, plan: &FaultPlan) {
        self.ctrl_events
            .extend(plan.events().iter().filter(|e| e.kind.is_ctrl()));
        self.ctrl_events.sort_by_key(|e| e.at);
    }

    /// Whether the fabric's applied global parameters differ from what
    /// the controller believes it deployed — the end-state the control
    /// plane must drive back to `false` after any fault.
    pub fn ctrl_diverged(&self, sim: &Engine) -> bool {
        *sim.dcqcn_params() != self.last_params
    }

    /// Whether the control-plane conversation is quiet: no dispatch
    /// awaits its ACK and nothing is in flight on either lane.
    pub fn ctrl_quiet(&self) -> bool {
        let c = &self.ctrl;
        !c.has_pending() && c.down.in_flight() == 0 && c.up.in_flight() == 0
    }

    /// Checkpoint the controller process (tuner, guardrail, detector,
    /// protocol state, believed parameters) by clone.
    pub fn checkpoint(&self) -> CellSnapshot {
        CellSnapshot {
            controller: self.controller.clone(),
            ctrl: self.ctrl.state.clone(),
            last_params: self.last_params,
        }
    }

    /// Restore the controller state from a checkpoint, with no crash
    /// side effects: channels, history and ledger are untouched.
    /// Restoring a checkpoint taken at the same instant is a no-op —
    /// the fleet snapshot round-trip property builds on this.
    pub fn restore(&mut self, snap: &CellSnapshot) {
        self.controller = snap.controller.clone();
        self.ctrl.state = snap.ctrl.clone();
        self.last_params = snap.last_params;
        // The monitor lives on the devices, not in the controller: its
        // upload accounting never rewinds. Re-anchor the per-interval
        // delta so the next ledger record starts from the live counter.
        self.prev_uploaded = self.monitor.uploaded_bytes();
    }

    /// Warm-restore from an external checkpoint with crash semantics:
    /// in-flight messages addressed to the controller die, the state
    /// rewinds to `snap`, and the believed parameters are re-asserted
    /// at a fresh epoch so fabric and controller re-converge. The fleet
    /// service uses this to restore a whole fleet mid-run.
    pub fn crash_restore(&mut self, snap: &CellSnapshot, k: u64) {
        self.die(true);
        self.restore(snap);
        self.resync(k);
    }

    /// The controller process dies. In-flight messages addressed to it
    /// die with it; dispatches already in the network keep flying.
    fn die(&mut self, warm: bool) {
        tel::event(tel::Event::CtrlCrash { warm });
        self.ctrl.crashes += 1;
        self.ctrl.up.clear_in_flight();
    }

    /// Re-assert the believed parameters toward the fabric at a fresh
    /// epoch (the post-restore convergence step).
    fn resync(&mut self, k: u64) {
        let believed = self.last_params;
        self.ctrl.resyncs += 1;
        self.ctrl.extra_dispatch_bytes += believed.wire_size_bytes() as u64;
        let epoch = self.ctrl.send_dispatch(k, TuningAction::Global(believed));
        tel::event(tel::Event::CtrlResync { epoch });
    }

    /// Deliver dispatches due at the start of interval `k` and apply
    /// them at the fabric — the one place the controller's decisions
    /// reach the simulator. A clean-channel dispatch sent during
    /// interval `k−1`'s controller phase lands here, before the fabric
    /// advances. Its flight event is stamped with the fabric's clock:
    /// this runs before [`TunerCell::process_interval`] moves the
    /// registry clock, which holds the same time only when nothing else
    /// (another fleet tenant, say) moved it since the previous interval.
    pub fn deliver_due_dispatches(&mut self, sim: &mut Engine, k: u64) {
        let ctrl = &mut self.ctrl;
        ctrl.down.deliver(k);
        while let Some(msg) = ctrl.down.take_delivered() {
            let (action, acked) = ctrl.fabric.on_dispatch(msg);
            ctrl.up.send(k, UpMsg::Ack { epoch: acked });
            match action {
                Some(TuningAction::Global(p)) => {
                    tel::event_at(
                        sim.now(),
                        tel::Event::Dispatch {
                            scope: tel::DispatchScope::Global,
                        },
                    );
                    sim.set_dcqcn_params(&p);
                }
                Some(TuningAction::PerSwitchEcn(updates)) => {
                    tel::event_at(
                        sim.now(),
                        tel::Event::Dispatch {
                            scope: tel::DispatchScope::PerSwitch,
                        },
                    );
                    for (idx, p) in updates {
                        // `set_switch_ecn` bounds-checks; an out-of-range
                        // index simply does not reach any switch.
                        let _ = sim.set_switch_ecn(idx, &p);
                    }
                }
                None => {}
            }
        }
    }

    /// The fabric half of one interval, shared by
    /// [`crate::ClosedLoop::step`] and the fleet's tenants: deliver the
    /// dispatches due now (control-channel time is
    /// [`TunerCell::interval_index`]), advance the fabric one λ_MI, collect
    /// the interval's metrics and move its completions into
    /// `completions`. On a clean channel the dispatches delivered are
    /// what the previous interval decided.
    pub fn advance_fabric(
        &mut self,
        sim: &mut Engine,
        completions: &mut Vec<FlowRecord>,
    ) -> IntervalMetrics {
        let k = self.interval_index();
        self.deliver_due_dispatches(sim, k);
        let target = sim.now() + self.cfg.lambda_mi;
        sim.run_until(target);
        let metrics = sim.collect_interval();
        completions.extend(sim.take_completions());
        metrics
    }

    /// Controller half of the monitoring lane: fold delivered uploads
    /// and ACKs in, emit retry events for epoch-behind re-sends, and
    /// return the staleness-weighted network-wide FSD. A clean channel
    /// delivers everything in send order with no delay, and the merger's
    /// zero-age merge is the plain in-process merge.
    fn ctrl_receive(&mut self, k: u64) -> Fsd {
        let ctrl = &mut self.ctrl;
        ctrl.up.deliver(k);
        let mut resent = Vec::new();
        while let Some(msg) = ctrl.up.take_delivered() {
            match msg {
                UpMsg::Fsd(u) => {
                    ctrl.state.merger.ingest(u);
                }
                UpMsg::Ack { epoch } => {
                    if let Some(e) = ctrl.on_ack(k, epoch) {
                        resent.push(e);
                    }
                }
            }
        }
        let fsd = ctrl.state.merger.network_fsd(k);
        for epoch in resent {
            tel::event(tel::Event::CtrlRetry { epoch });
        }
        fsd
    }

    /// Consume control-plane fault events scheduled at or before `upto`.
    fn process_ctrl_events(&mut self, upto: Nanos, k: u64) {
        while self.ctrl_event_idx < self.ctrl_events.len()
            && self.ctrl_events[self.ctrl_event_idx].at <= upto
        {
            let ev = self.ctrl_events[self.ctrl_event_idx];
            self.ctrl_event_idx += 1;
            match ev.kind {
                FaultKind::CtrlImpair {
                    up,
                    down,
                    loss,
                    delay_max,
                    dup,
                } => {
                    tel::event(tel::Event::CtrlImpair {
                        loss,
                        delay_max: delay_max as u32,
                        dup,
                    });
                    let imp = CtrlImpairment {
                        loss,
                        delay_max,
                        dup,
                    };
                    if up {
                        self.ctrl.up.set_impairment(imp);
                    }
                    if down {
                        self.ctrl.down.set_impairment(imp);
                    }
                }
                FaultKind::CtrlCrash { warm } => self.handle_crash(warm, k),
                _ => {}
            }
        }
    }

    /// Controller crash + restart. Warm restores the latest periodic
    /// checkpoint; cold restores the build-time checkpoint and (when a
    /// guardrail is armed) enters safe mode, since a from-scratch
    /// controller cannot vouch for the dead tuner's plans. Either way
    /// the believed parameters are re-asserted at a fresh epoch so the
    /// fabric and controller re-converge.
    fn handle_crash(&mut self, warm: bool, k: u64) {
        self.die(warm);
        let snap = if warm {
            self.snapshot.clone()
        } else {
            self.initial_snapshot.clone()
        };
        self.restore(&snap);
        if !warm {
            let c = &mut self.controller;
            if let Some(g) = c.guard.as_mut() {
                let backoff_intervals = g.force_safe_mode();
                tel::event(tel::Event::SafeModeEnter { backoff_intervals });
                c.scheme.on_feedback(&TuningFeedback::Frozen {
                    fallback: SAFE_PARAMS,
                });
                self.last_params = SAFE_PARAMS;
            }
        }
        self.resync(k);
    }

    /// Execute one monitor-tune-dispatch round over the metrics the
    /// fabric produced for one λ_MI. This is the controller's half of
    /// [`crate::ClosedLoop::step`]; the caller has already advanced the
    /// fabric and harvested completions. The fabric is read, never
    /// written: whatever this round decides leaves on the dispatch lane
    /// and lands through [`TunerCell::deliver_due_dispatches`]. Returns
    /// the interval's record.
    pub fn process_interval(&mut self, sim: &Engine, metrics: &IntervalMetrics) -> &IntervalRecord {
        let k = self.begin_interval(metrics);
        let seen = self.monitor_stage(k, metrics);
        let scored = self.score_stage(sim, metrics, &seen);
        let verdict = self.guard_stage(k, sim, metrics, scored.utility);
        let candidate = self.scheme_stage(sim, metrics, &seen, &scored, verdict.acted);
        let (action, rejected) = self.screen_stage(sim, candidate);
        let dispatched = action.is_some() || verdict.acted;
        self.dispatch_stage(k, sim, action, verdict.dispatch_bytes);
        self.record_stage(metrics, seen, scored, verdict, rejected, dispatched)
    }

    /// Begin: audit the interval's shape, stamp the telemetry clock and
    /// consume the control-plane fault events scheduled inside it.
    /// Returns the interval index.
    fn begin_interval(&mut self, metrics: &IntervalMetrics) -> u64 {
        let k = self.interval_index();
        // Audit: every monitor upload must cover exactly one λ_MI and end
        // on a λ_MI boundary (all sim advancement goes through the loop).
        paraleon_audit::check(
            metrics.end == metrics.start + self.cfg.lambda_mi
                && self.cfg.lambda_mi > 0
                && metrics.end.is_multiple_of(self.cfg.lambda_mi),
            || paraleon_audit::AuditViolation::MiBoundary {
                start: metrics.start,
                end: metrics.end,
                lambda_mi: self.cfg.lambda_mi,
            },
        );
        // Stamp the registry clock so everything recorded during this
        // round (trigger/SA events, series points) carries the interval
        // end time.
        tel::set_time(metrics.end);
        tel::count(tel::Ctr::Intervals);
        // Control-plane fault transitions scheduled inside this interval
        // take effect now, before this interval's uploads are sent: an
        // impairment degrades them, a crash loses what was in flight.
        self.process_ctrl_events(metrics.end, k);
        k
    }

    /// Monitor (switch CP agents + controller merge): uploads → up lane
    /// → merge → window/trigger → accuracy.
    fn monitor_stage(&mut self, k: u64, metrics: &IntervalMetrics) -> Monitored {
        let t0 = Instant::now();
        // Device side: sequence-numbered per-point uploads onto the
        // (possibly impaired) up lane.
        for u in self.monitor.uploads(&metrics.tor_sketches, metrics.end, k) {
            self.ctrl.up.send(k, UpMsg::Fsd(u));
        }
        let fsd = self.ctrl_receive(k);
        // Trigger check at window granularity over the aggregated FSD.
        let c = &mut self.controller;
        c.window_fsd.merge(&fsd);
        c.window_count += 1;
        let mut triggered = false;
        if c.window_count >= self.cfg.trigger_window.max(1) {
            let window = std::mem::take(&mut c.window_fsd);
            c.window_count = 0;
            if !window.is_empty() {
                triggered = c.detector.observe(&window);
            }
        }
        if c.first_interval && self.cfg.force_tuning {
            triggered = true;
        }
        c.first_interval = false;
        let (dominant, mu) = fsd.dominant();
        // FSD accuracy vs. the exact ground truth (Figures 10-11).
        let fsd_accuracy = self.truth.as_mut().map(|t| {
            t.end_interval(metrics.truth_flow_bytes.iter().copied());
            let truth_fsd = t.local_fsd();
            if truth_fsd.is_empty() && fsd.is_empty() {
                1.0
            } else {
                fsd.similarity(&truth_fsd)
            }
        });
        self.monitor_cpu += t0.elapsed();
        Monitored {
            fsd,
            triggered,
            dominant,
            mu,
            fsd_accuracy,
        }
    }

    /// Utility function (Eq. 1) plus the per-interval series behind
    /// Figures 8/9/12/14 (entity 0 = fabric-wide, switch series keyed by
    /// switch index).
    fn score_stage(&self, sim: &Engine, metrics: &IntervalMetrics, seen: &Monitored) -> Scored {
        let sample = MetricSample::new(
            metrics.avg_uplink_utilization,
            metrics.avg_normalized_rtt,
            1.0 - metrics.pfc_pause_ratio,
        );
        let utility = sample.utility(&self.cfg.weights);
        // Audit: with weights summing to 1 and terms in [0, 1], Eq. (1)
        // is a convex combination and must stay in [0, 1] itself.
        paraleon_audit::check(
            utility.is_finite() && (0.0..=1.0).contains(&utility),
            || paraleon_audit::AuditViolation::UtilityTermBounds {
                term: "U",
                value: utility,
            },
        );
        let mu = seen.mu;
        tel::gauge_set(tel::Gauge::LastUtility, utility);
        tel::gauge_set(tel::Gauge::Mu, mu);
        tel::gauge_set(tel::Gauge::ActiveFlows, sim.active_flows() as f64);
        tel::series("goodput_bytes_per_sec", 0, metrics.goodput_bytes_per_sec());
        tel::series("avg_rtt_ns", 0, metrics.avg_rtt_ns);
        tel::series("utility", 0, utility);
        tel::series("o_tp", 0, sample.o_tp);
        tel::series("o_rtt", 0, sample.o_rtt);
        tel::series("o_pfc", 0, sample.o_pfc);
        tel::series("mu", 0, mu);
        tel::series(
            "mu_mice",
            0,
            match seen.dominant {
                FlowType::Mice => mu,
                _ => 1.0 - mu,
            },
        );
        tel::series("triggered", 0, if seen.triggered { 1.0 } else { 0.0 });
        tel::series("cnps", 0, metrics.cnps as f64);
        tel::series("pfc_events", 0, metrics.pfc_events as f64);
        if let Some(acc) = seen.fsd_accuracy {
            tel::series("fsd_accuracy", 0, acc);
        }
        // Under fault injection unreachable switches are absent from
        // `switch_obs`, so series are keyed by the stable switch index,
        // not the position in the vector.
        let n_hosts = sim.topology().n_hosts();
        for s in &metrics.switch_obs {
            let idx = (s.node - n_hosts) as u32;
            tel::series("switch_tx_utilization", idx, s.tx_utilization);
            tel::series("switch_marking_rate", idx, s.marking_rate);
            tel::series("switch_queue_frac", idx, s.queue_frac);
        }
        Scored { sample, utility }
    }

    /// Guardrail: judge the previous dispatch on this interval's health
    /// before the tuner gets to emit a new candidate.
    fn guard_stage(
        &mut self,
        k: u64,
        sim: &Engine,
        metrics: &IntervalMetrics,
        utility: f64,
    ) -> Verdict {
        let n_hosts = sim.topology().n_hosts();
        let reporting = &mut self.reporting;
        reporting.clear();
        reporting.extend(metrics.switch_obs.iter().map(|s| s.node - n_hosts));
        let guard_action = self.controller.guard.as_mut().and_then(|guard| {
            guard.observe(
                utility,
                metrics.goodput_bytes_per_sec(),
                metrics.pfc_pause_ratio,
                reporting,
            )
        });
        let mut verdict = Verdict::default();
        let correction = match guard_action {
            Some(GuardAction::Rollback(p)) => {
                tel::event(tel::Event::GuardrailRollback);
                verdict.rolled_back = true;
                Some((p, TuningFeedback::RolledBack { restored: p }))
            }
            Some(GuardAction::EnterSafeMode {
                params,
                backoff_intervals,
            }) => {
                tel::event(tel::Event::SafeModeEnter { backoff_intervals });
                Some((params, TuningFeedback::Frozen { fallback: params }))
            }
            Some(GuardAction::ExitSafeMode) => {
                tel::event(tel::Event::SafeModeExit);
                self.controller
                    .scheme
                    .on_feedback(&TuningFeedback::Unfrozen);
                None
            }
            None => None,
        };
        if let Some((p, feedback)) = correction {
            self.send_dispatch(k, TuningAction::Global(p));
            self.controller.scheme.on_feedback(&feedback);
            verdict.dispatch_bytes = p.wire_size_bytes() as u64;
            verdict.acted = true;
        }
        verdict.safe_mode = self.guard().is_some_and(Guardrail::in_safe_mode);
        tel::series("safe_mode", 0, if verdict.safe_mode { 1.0 } else { 0.0 });
        verdict
    }

    /// Scheme step: hand the interval's observation to the tuner, unless
    /// the guard just corrected the fabric.
    fn scheme_stage(
        &mut self,
        sim: &Engine,
        metrics: &IntervalMetrics,
        seen: &Monitored,
        scored: &Scored,
        guard_acted: bool,
    ) -> Option<TuningAction> {
        if guard_acted {
            return None;
        }
        let n_hosts = sim.topology().n_hosts();
        let mut switch_obs = std::mem::take(&mut self.switch_obs);
        switch_obs.clear();
        switch_obs.extend(metrics.switch_obs.iter().map(|s| SwitchLocalObs {
            switch_index: s.node - n_hosts,
            tx_utilization: s.tx_utilization,
            marking_rate: s.marking_rate,
            queue_frac: s.queue_frac,
        }));
        let obs = Observation {
            now: metrics.end,
            utility: scored.utility,
            sample: scored.sample,
            dominant: seen.dominant,
            mu: seen.mu,
            tuning_triggered: seen.triggered,
            switch_obs,
        };
        let t1 = Instant::now();
        let action = self.controller.scheme.on_interval(&obs);
        self.tuner_cpu += t1.elapsed();
        self.switch_obs = obs.switch_obs;
        action
    }

    /// Screen the tuner's candidate through the guardrail. Returns what
    /// may be dispatched and whether the candidate was refused.
    fn screen_stage(
        &mut self,
        sim: &Engine,
        candidate: Option<TuningAction>,
    ) -> (Option<TuningAction>, bool) {
        let c = &mut self.controller;
        let Some(guard) = c.guard.as_mut() else {
            return (candidate, false);
        };
        let Some(candidate) = candidate else {
            return (None, false);
        };
        match guard.screen(candidate, sim.n_switches()) {
            ScreenOutcome::Dispatch(a) => (Some(a), false),
            ScreenOutcome::Rejected(_) => {
                // The reason is carried in the guard's own counters.
                tel::event(tel::Event::GuardrailReject);
                tel::series("guardrail_reject", 0, 1.0);
                c.scheme.on_feedback(&TuningFeedback::Rejected {
                    deployed: self.last_params,
                });
                (None, true)
            }
            ScreenOutcome::Suppressed => (None, false),
        }
    }

    /// Dispatch + control-channel accounting: send the screened action,
    /// re-send the in-flight dispatch when its ACK timed out, surface
    /// this interval's channel losses as counters, and record the
    /// interval's control traffic in the ledger (Table IV).
    fn dispatch_stage(
        &mut self,
        k: u64,
        sim: &Engine,
        action: Option<TuningAction>,
        guard_dispatch_bytes: u64,
    ) {
        let mut dispatch_bytes = guard_dispatch_bytes;
        if let Some(action) = action {
            dispatch_bytes += self.controller.scheme.dispatch_bytes(&action);
            self.send_dispatch(k, action);
        }
        let ctrl = &mut self.ctrl;
        if let Some(epoch) = ctrl.check_retry(k) {
            tel::event(tel::Event::CtrlRetry { epoch });
        }
        let lost = ctrl.up.stats.lost + ctrl.down.stats.lost;
        let duplicated = ctrl.up.stats.duplicated + ctrl.down.stats.duplicated;
        let stale = ctrl.state.merger.rejected;
        tel::count_n(tel::Ctr::CtrlMsgsLost, lost - self.prev_lost);
        tel::count_n(
            tel::Ctr::CtrlMsgsDuplicated,
            duplicated - self.prev_duplicated,
        );
        tel::count_n(
            tel::Ctr::CtrlStaleRejected,
            stale - self.prev_stale_rejected,
        );
        self.prev_lost = lost;
        self.prev_duplicated = duplicated;
        self.prev_stale_rejected = stale;
        let ctrl_extra = std::mem::take(&mut ctrl.extra_dispatch_bytes);

        let rnic_upload = sim.topology().n_hosts() as u64 * MetricSample::wire_size_bytes() as u64;
        let switch_metric_upload = sim.n_switches() as u64 * MetricSample::wire_size_bytes() as u64;
        let uploaded_total = self.monitor.uploaded_bytes();
        // Saturating: a controller restore re-anchors `prev_uploaded` to
        // the live counter, and the device-side counter never rewinds —
        // but the ledger must not be able to underflow regardless.
        let fsd_upload = uploaded_total.saturating_sub(self.prev_uploaded);
        self.prev_uploaded = uploaded_total;
        self.ledger.record_interval(
            fsd_upload + switch_metric_upload,
            rnic_upload,
            dispatch_bytes + ctrl_extra,
        );
    }

    /// Record the interval in the history and take the periodic
    /// controller checkpoint — the warm-restart target.
    fn record_stage(
        &mut self,
        metrics: &IntervalMetrics,
        seen: Monitored,
        scored: Scored,
        verdict: Verdict,
        rejected: bool,
        dispatched: bool,
    ) -> &IntervalRecord {
        self.last_fsd = seen.fsd;
        self.history.push(IntervalRecord {
            t: metrics.end,
            goodput: metrics.goodput_bytes_per_sec(),
            avg_rtt_ns: metrics.avg_rtt_ns,
            utility: scored.utility,
            o_tp: scored.sample.o_tp,
            o_rtt: scored.sample.o_rtt,
            o_pfc: scored.sample.o_pfc,
            dominant: seen.dominant,
            mu: seen.mu,
            triggered: seen.triggered,
            dispatched,
            rejected,
            rolled_back: verdict.rolled_back,
            safe_mode: verdict.safe_mode,
            cnps: metrics.cnps,
            pfc_events: metrics.pfc_events,
            fsd_accuracy: seen.fsd_accuracy,
        });
        if self
            .interval_index()
            .is_multiple_of(SNAPSHOT_EVERY_INTERVALS)
        {
            self.snapshot = self.checkpoint();
        }
        self.history.last().expect("just pushed")
    }

    /// Send one parameter change toward the fabric as an epoch-stamped
    /// dispatch. The believed parameters update at dispatch time — that
    /// is the controller's claim the fabric must converge to.
    fn send_dispatch(&mut self, k: u64, action: TuningAction) {
        if let TuningAction::Global(p) = &action {
            self.last_params = *p;
        }
        self.ctrl.send_dispatch(k, action);
    }

    /// Estimated controller-resident bytes for this cell: the struct
    /// itself (its FSDs' histograms are inline), the interval history,
    /// the per-interval buffers and the upload merger's retained
    /// per-point uploads. A capacity-based estimate for footprint tables
    /// (Table IV-style), not an allocator measurement.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut total = size_of::<Self>();
        total += self.history.capacity() * size_of::<IntervalRecord>();
        total += self.ctrl_events.capacity() * size_of::<FaultEvent>();
        total += self.reporting.capacity() * size_of::<usize>();
        total += self.switch_obs.capacity() * size_of::<SwitchLocalObs>();
        // Each retained merger point holds one upload (an FSD with its
        // 40 f64 bins inline, plus point, seq and interval) and its share
        // of a BTreeMap node.
        total += self.ctrl.state.merger.n_points() * (size_of::<FsdUpload>() + 64);
        total
    }
}
