//! The closed tuning loop: simulator ⇄ monitor ⇄ tuner, one monitor
//! interval at a time.
//!
//! [`ClosedLoop::step`] performs exactly what Figure 2 describes for one
//! λ_MI: run the fabric, read the switch/RNIC agents' uploads, update the
//! network-wide FSD and the KL trigger, evaluate the utility function,
//! hand everything to the tuning scheme, dispatch whatever it returns,
//! and account the control-channel traffic (Table IV).
//!
//! There is one loop: uploads and dispatches always cross the control
//! plane ([`crate::ctrl_plane`]). A dispatch decided while interval
//! `k−1` is processed is delivered at the top of step `k`, before the
//! fabric advances — on a clean channel, zero delay in send order.
//! [`ClosedLoopBuilder::ctrl_plane`] only selects the `naive` strawman;
//! fault plans impair the plane.
//!
//! The controller half lives in [`TunerCell`]; `ClosedLoop` is the
//! 1-tenant special case pairing one cell with one [`Engine`]. The
//! fleet service (`paraleon-fleet`) runs many cells against many
//! engines under one scheduler.

use paraleon_netsim::{Engine, FaultPlan, FlowRecord, SimConfig, SimError, Topology};
use paraleon_sketch::{SlidingWindowClassifier, WindowConfig};
use paraleon_tuner::TuningScheme;

use crate::ctrl_plane::CtrlPlaneConfig;
use crate::guardrail::{Guardrail, GuardrailConfig};
use crate::schemes::{MonitorKind, SchemeKind};
use crate::tuner_cell::{IntervalRecord, LoopConfig, TunerCell};
use crate::Nanos;

/// The full PARALEON closed loop over one simulated fabric.
pub struct ClosedLoop {
    /// The fabric. Exposed so harnesses can inject flows between steps.
    /// Serial by default; [`ClosedLoopBuilder::parallel`] swaps in the
    /// conservative parallel engine (byte-identical results).
    pub sim: Engine,
    /// The controller: monitor merge, KL trigger, tuning scheme,
    /// guardrail, dispatch protocol, history and ledger.
    pub cell: TunerCell,
    /// All flow completions observed so far.
    pub completions: Vec<FlowRecord>,
}

impl ClosedLoop {
    /// Start building a loop over `topo`.
    pub fn builder(topo: Topology) -> ClosedLoopBuilder {
        ClosedLoopBuilder::new(topo)
    }

    /// Install a fault plan: data-plane events go to the simulator,
    /// control-plane events are consumed by the controller cell at their
    /// scheduled times (the simulator ignores them).
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), SimError> {
        self.cell.install_ctrl_events(plan);
        self.sim.install_fault_plan(plan)
    }

    /// Run the fabric for one monitor interval and execute one
    /// monitor-tune-dispatch round. Returns the interval's record.
    pub fn step(&mut self) -> &IntervalRecord {
        let metrics = self
            .cell
            .advance_fabric(&mut self.sim, &mut self.completions);
        self.cell.process_interval(&self.sim, &metrics)
    }

    /// Step until the simulator clock reaches `t`.
    pub fn run_until(&mut self, t: Nanos) {
        while self.sim.now() < t {
            self.step();
        }
    }

    /// Step until all admitted flows complete (plus one final interval),
    /// or until `deadline`. Returns true if everything finished.
    pub fn run_to_completion(&mut self, deadline: Nanos) -> bool {
        while self.sim.now() < deadline {
            self.step();
            if self.sim.active_flows() == 0 {
                return true;
            }
        }
        self.sim.active_flows() == 0
    }

    /// Step until the control plane quiesces — the previous interval
    /// dispatched nothing, no dispatch awaits its ACK, and nothing is in
    /// flight on either lane — or `max_extra` intervals pass. Returns
    /// whether quiescence was reached. Divergence is only meaningful at
    /// quiescence: mid-conversation the fabric legitimately trails the
    /// controller's belief by one in-flight dispatch.
    ///
    /// Forced tuning ([`LoopConfig::force_tuning`]) is suspended while
    /// settling: it would dispatch on every extra step, making the quiet
    /// state unreachable by construction — and settling is precisely the
    /// act of letting the conversation drain.
    pub fn ctrl_settle(&mut self, max_extra: u64) -> bool {
        let forced = std::mem::replace(&mut self.cell.cfg.force_tuning, false);
        let mut settled = false;
        for _ in 0..max_extra {
            if self.cell.ctrl_quiet() && !self.cell.history.last().is_some_and(|r| r.dispatched) {
                settled = true;
                break;
            }
            self.step();
        }
        self.cell.cfg.force_tuning = forced;
        settled
    }
}

/// Builder for [`ClosedLoop`].
pub struct ClosedLoopBuilder {
    topo: Topology,
    sim_cfg: SimConfig,
    loop_cfg: LoopConfig,
    scheme: SchemeKind,
    custom_scheme: Option<Box<dyn TuningScheme>>,
    monitor: MonitorKind,
    guardrail: Option<GuardrailConfig>,
    ctrl: CtrlPlaneConfig,
    seed: u64,
    parallel: usize,
}

impl ClosedLoopBuilder {
    /// Defaults: PARALEON scheme + PARALEON monitor, paper settings.
    pub fn new(topo: Topology) -> Self {
        Self {
            topo,
            sim_cfg: SimConfig::default(),
            loop_cfg: LoopConfig::default(),
            scheme: SchemeKind::Paraleon,
            custom_scheme: None,
            monitor: MonitorKind::Paraleon,
            guardrail: None,
            ctrl: CtrlPlaneConfig::default(),
            seed: 1,
            parallel: 1,
        }
    }

    /// Run the fabric on `threads` sharded event cores (the conservative
    /// parallel engine). `<= 1` keeps the default serial engine. Results
    /// are byte-identical either way; the thread count only changes
    /// wall-clock time.
    pub fn parallel(mut self, threads: usize) -> Self {
        self.parallel = threads;
        self
    }

    /// Select the tuning scheme.
    pub fn scheme(mut self, s: SchemeKind) -> Self {
        self.scheme = s;
        self
    }

    /// Drive the loop with an arbitrary [`TuningScheme`] instance
    /// (harness hooks, e.g. the fault-experiment's rogue tuner). The
    /// simulator still boots with the [`SchemeKind`]'s initial
    /// parameters.
    pub fn scheme_boxed(mut self, s: Box<dyn TuningScheme>) -> Self {
        self.custom_scheme = Some(s);
        self
    }

    /// Select the monitoring scheme.
    pub fn monitor(mut self, m: MonitorKind) -> Self {
        self.monitor = m;
        self
    }

    /// Override the simulator configuration. The build replaces four of
    /// its fields: `dcqcn` and `dcqcn_plus` come from the scheme
    /// ([`ClosedLoopBuilder::scheme`]), `tos_dedup` from the monitor,
    /// and `seed` from [`ClosedLoopBuilder::seed`].
    pub fn sim_config(mut self, cfg: SimConfig) -> Self {
        self.sim_cfg = cfg;
        self
    }

    /// Override the loop configuration.
    pub fn loop_config(mut self, cfg: LoopConfig) -> Self {
        self.loop_cfg = cfg;
        self
    }

    /// Arm the deployment guardrail (validation, rollback, safe mode).
    pub fn guardrail(mut self, cfg: GuardrailConfig) -> Self {
        self.guardrail = Some(cfg);
        self
    }

    /// Configure the control plane (the `naive` strawman). Defaults to
    /// [`CtrlPlaneConfig::default`].
    pub fn ctrl_plane(mut self, cfg: CtrlPlaneConfig) -> Self {
        self.ctrl = cfg;
        self
    }

    /// Set the run seed (simulator + tuner randomness).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Build the loop.
    pub fn build(self) -> ClosedLoop {
        let mut sim_cfg = self.sim_cfg;
        sim_cfg.seed = self.seed;
        self.scheme.apply_sim_config(&mut sim_cfg);
        sim_cfg.tos_dedup = self.monitor.wants_tos_dedup();
        let initial = sim_cfg.dcqcn;
        let truth = sim_cfg
            .track_ground_truth
            .then(|| SlidingWindowClassifier::new(WindowConfig::default()));
        let sim = Engine::new(self.topo, sim_cfg, self.parallel);
        let scheme = self
            .custom_scheme
            .unwrap_or_else(|| self.scheme.build_tuner(self.seed));
        let guard = self.guardrail.map(|cfg| Guardrail::new(cfg, initial));
        let cell = TunerCell::new(
            self.monitor.build(),
            scheme,
            guard,
            self.loop_cfg,
            self.ctrl,
            initial,
            truth,
            self.seed,
        );
        ClosedLoop {
            sim,
            cell,
            completions: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraleon_dcqcn::DcqcnParams;
    use paraleon_netsim::MILLI;

    fn topo() -> Topology {
        Topology::two_tier_clos(2, 4, 2, 100.0, 100.0, 1_000)
    }

    #[test]
    fn steps_advance_one_interval_each() {
        let mut cl = ClosedLoop::builder(topo()).build();
        cl.step();
        assert_eq!(cl.sim.now(), MILLI);
        cl.step();
        assert_eq!(cl.sim.now(), 2 * MILLI);
        assert_eq!(cl.cell.history.len(), 2);
    }

    #[test]
    fn completions_are_gathered() {
        let mut cl = ClosedLoop::builder(topo()).build();
        cl.sim.add_flow(0, 5, 500_000, 0);
        assert!(cl.run_to_completion(100 * MILLI));
        assert_eq!(cl.completions.len(), 1);
    }

    #[test]
    fn default_scheme_dispatches_once_then_idles() {
        let mut cl = ClosedLoop::builder(topo())
            .scheme(SchemeKind::Default)
            .build();
        cl.step();
        assert!(cl.cell.history[0].dispatched);
        cl.step();
        assert!(!cl.cell.history[1].dispatched);
    }

    #[test]
    fn paraleon_tunes_when_traffic_shifts() {
        let mut cl = ClosedLoop::builder(topo())
            .scheme(SchemeKind::Paraleon)
            .build();
        // Elephant phase.
        for i in 0..8usize {
            cl.sim.add_flow(i % 4, 4 + i % 4, 8_000_000, cl.sim.now());
            cl.step();
        }
        // Mice influx.
        for _ in 0..4 {
            let now = cl.sim.now();
            for k in 0..60usize {
                cl.sim
                    .add_flow(k % 8, (k + 3) % 8, 4_000, now + k as u64 * 1_000);
            }
            cl.step();
        }
        for _ in 0..4 {
            cl.step();
        }
        let any_trigger = cl.cell.history.iter().any(|r| r.triggered);
        let any_dispatch = cl.cell.history.iter().any(|r| r.dispatched);
        assert!(any_trigger, "mice influx must fire the KL trigger");
        assert!(any_dispatch, "a trigger must start SA dispatches");
    }

    #[test]
    fn force_tuning_starts_sa_without_a_trigger() {
        let mut cl = ClosedLoop::builder(topo())
            .scheme(SchemeKind::Paraleon)
            .monitor(MonitorKind::NoFsd)
            .loop_config(LoopConfig {
                force_tuning: true,
                ..LoopConfig::default()
            })
            .build();
        cl.sim.add_flow(0, 5, 4_000_000, 0);
        cl.step();
        assert!(cl.cell.history[0].triggered);
        assert!(cl.cell.history[0].dispatched);
    }

    #[test]
    fn ledger_accumulates_every_interval() {
        let mut cl = ClosedLoop::builder(topo()).build();
        cl.sim.add_flow(0, 5, 2_000_000, 0);
        for _ in 0..5 {
            cl.step();
        }
        assert_eq!(cl.cell.ledger.intervals, 5);
        assert!(cl.cell.ledger.rnic_to_controller > 0);
        assert!(cl.cell.ledger.switch_to_controller > 0);
    }

    /// Drive one elephant-heavy interval.
    fn elephant_interval(cl: &mut ClosedLoop, i: usize) {
        cl.sim.add_flow(i % 4, 4 + i % 4, 8_000_000, cl.sim.now());
        cl.step();
    }

    /// Drive one mice-heavy interval.
    fn mice_interval(cl: &mut ClosedLoop) {
        let now = cl.sim.now();
        for k in 0..60usize {
            cl.sim
                .add_flow(k % 8, (k + 3) % 8, 4_000, now + k as u64 * 1_000);
        }
        cl.step();
    }

    #[test]
    fn kl_trigger_fires_on_a_real_shift_only_at_window_boundaries() {
        let window = 4u32;
        let mut cl = ClosedLoop::builder(topo())
            .loop_config(LoopConfig {
                trigger_window: window,
                ..LoopConfig::default()
            })
            .build();
        // Two full elephant windows establish the baseline FSD, then a
        // sustained mice influx shifts it.
        for i in 0..8usize {
            elephant_interval(&mut cl, i);
        }
        for _ in 0..8 {
            mice_interval(&mut cl);
        }
        assert!(
            cl.cell.history.iter().any(|r| r.triggered),
            "elephant→mice shift must fire the KL trigger"
        );
        // The detector only compares window-aggregated FSDs, so a trigger
        // can only ever land on a window-boundary interval.
        for (i, r) in cl.cell.history.iter().enumerate() {
            if r.triggered {
                assert_eq!(
                    (i + 1) % window as usize,
                    0,
                    "trigger at interval {i} is inside a window"
                );
            }
        }
    }

    #[test]
    fn kl_trigger_ignores_noise_under_a_stable_workload() {
        // The same elephant pattern every interval: per-interval sampling
        // noise must not re-fire the trigger once the baseline window is
        // established.
        let mut cl = ClosedLoop::builder(topo())
            .loop_config(LoopConfig {
                trigger_window: 4,
                ..LoopConfig::default()
            })
            .build();
        for i in 0..24usize {
            elephant_interval(&mut cl, i);
        }
        assert!(
            cl.cell.history.iter().all(|r| !r.triggered),
            "stable traffic re-fired the KL trigger"
        );
    }

    /// Elephant phase then mice influx: enough churn to trigger, tune
    /// and dispatch repeatedly.
    fn drive(cl: &mut ClosedLoop, intervals: usize) {
        for i in 0..intervals {
            if i < 8 {
                cl.sim.add_flow(i % 4, 4 + i % 4, 8_000_000, cl.sim.now());
            } else {
                let now = cl.sim.now();
                for k in 0..40usize {
                    cl.sim
                        .add_flow(k % 8, (k + 3) % 8, 4_000, now + k as u64 * 1_000);
                }
            }
            cl.step();
        }
    }

    #[test]
    fn clean_channel_never_loses_retries_or_diverges() {
        let mut cl = ClosedLoop::builder(topo())
            .scheme(SchemeKind::Paraleon)
            .guardrail(GuardrailConfig::default())
            .seed(5)
            .build();
        drive(&mut cl, 24);
        let stats = cl.cell.ctrl().stats();
        assert_eq!(stats.up.lost + stats.down.lost, 0);
        assert_eq!(stats.retries, 0);
        assert!(
            cl.cell.history.iter().any(|r| r.dispatched),
            "the check is vacuous unless something was dispatched"
        );
        assert!(cl.ctrl_settle(300), "loop failed to quiesce");
        assert!(!cl.cell.ctrl_diverged(&cl.sim));
    }

    #[test]
    fn lossy_dispatch_recovers_through_retry_and_converges() {
        let mut plan = FaultPlan::new(3);
        // Heavy loss + delay + duplication on both lanes, then a clean
        // channel again.
        plan.ctrl_impair(2 * MILLI, true, true, 0.5, 3, 0.3);
        plan.ctrl_impair(30 * MILLI, true, true, 0.0, 0, 0.0);
        let mut cl = ClosedLoop::builder(topo())
            .scheme(SchemeKind::Paraleon)
            .loop_config(LoopConfig {
                force_tuning: true,
                ..LoopConfig::default()
            })
            .seed(5)
            .build();
        cl.install_fault_plan(&plan).unwrap();
        drive(&mut cl, 48);
        let stats = cl.cell.ctrl().stats();
        assert!(
            stats.up.lost + stats.down.lost > 0,
            "the impairment must actually bite"
        );
        assert!(cl.ctrl_settle(300), "loop failed to quiesce");
        assert!(
            !cl.cell.ctrl_diverged(&cl.sim),
            "retries must re-converge the fabric"
        );
    }

    #[test]
    fn naive_protocol_diverges_under_the_same_faults() {
        // Same impairment; the epoch/retry machinery is what saves the
        // hardened loop, so the strawman must end divergent for at least
        // one seed in a small pool (loss of the last dispatch, or a
        // reordered stale one, is not guaranteed at every seed).
        let diverged = (0..8u64).any(|seed| {
            // Down lane lossy for the whole run: without ACK/retry, a
            // lost or reordered-stale final dispatch is never repaired.
            let mut plan = FaultPlan::new(3);
            plan.ctrl_impair(2 * MILLI, false, true, 0.5, 3, 0.3);
            let mut cl = ClosedLoop::builder(topo())
                .scheme(SchemeKind::Paraleon)
                .loop_config(LoopConfig {
                    force_tuning: true,
                    ..LoopConfig::default()
                })
                .seed(seed)
                .ctrl_plane(CtrlPlaneConfig { naive: true })
                .build();
            cl.install_fault_plan(&plan).unwrap();
            drive(&mut cl, 48);
            cl.ctrl_settle(300) && cl.cell.ctrl_diverged(&cl.sim)
        });
        assert!(
            diverged,
            "the naive protocol never diverged — gate is vacuous"
        );
    }

    #[test]
    fn warm_crash_restores_and_resyncs() {
        let mut plan = FaultPlan::new(3);
        plan.ctrl_crash(20 * MILLI, true);
        let mut cl = ClosedLoop::builder(topo())
            .scheme(SchemeKind::Paraleon)
            .guardrail(GuardrailConfig::default())
            .loop_config(LoopConfig {
                force_tuning: true,
                ..LoopConfig::default()
            })
            .seed(5)
            .build();
        cl.install_fault_plan(&plan).unwrap();
        drive(&mut cl, 40);
        let stats = cl.cell.ctrl().stats();
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.resyncs, 1);
        assert!(cl.ctrl_settle(300), "loop failed to quiesce");
        assert!(
            !cl.cell.ctrl_diverged(&cl.sim),
            "resync must re-converge the fabric"
        );
        assert!(
            !cl.cell.guard().unwrap().in_safe_mode(),
            "a warm restart resumes; it does not fall back to safe mode"
        );
    }

    #[test]
    fn cold_crash_enters_safe_mode_and_converges_on_safe_params() {
        let mut plan = FaultPlan::new(3);
        plan.ctrl_crash(20 * MILLI, false);
        let mut cl = ClosedLoop::builder(topo())
            .scheme(SchemeKind::Paraleon)
            .guardrail(GuardrailConfig::default())
            .loop_config(LoopConfig {
                force_tuning: true,
                ..LoopConfig::default()
            })
            .seed(5)
            .build();
        cl.install_fault_plan(&plan).unwrap();
        drive(&mut cl, 24);
        let stats = cl.cell.ctrl().stats();
        assert_eq!(stats.crashes, 1);
        assert!(
            cl.cell.guard().unwrap().in_safe_mode(),
            "a cold restart cannot vouch for the dead tuner: safe mode"
        );
        assert_eq!(cl.cell.last_params, crate::guardrail::SAFE_PARAMS);
        assert!(
            !cl.cell.ctrl_diverged(&cl.sim),
            "the fabric runs the safe fallback too"
        );
    }

    #[test]
    fn cold_crash_rewinds_a_static_scheme_which_redispatches() {
        // A restore rewinds every scheme: the build-time checkpoint of a
        // static scheme has not dispatched yet, so it sends its setting
        // once more in the crash interval.
        let mut plan = FaultPlan::new(3);
        plan.ctrl_crash(4 * MILLI, false);
        let mut cl = ClosedLoop::builder(topo())
            .scheme(SchemeKind::Default)
            .seed(5)
            .build();
        cl.install_fault_plan(&plan).unwrap();
        drive(&mut cl, 24);
        assert_eq!(cl.cell.ctrl().stats().crashes, 1);
        assert!(
            cl.cell.history[3].dispatched,
            "the rewound static scheme re-dispatches in the crash interval"
        );
        assert!(cl.ctrl_settle(300), "loop failed to quiesce");
        assert!(!cl.cell.ctrl_diverged(&cl.sim));
    }

    #[test]
    fn the_scheme_owns_the_boot_parameters() {
        let cl = ClosedLoop::builder(topo())
            .scheme(SchemeKind::Paraleon)
            .sim_config(SimConfig {
                dcqcn: DcqcnParams::expert(),
                ..SimConfig::default()
            })
            .build();
        assert_eq!(*cl.sim.dcqcn_params(), DcqcnParams::nvidia_default());
        assert_eq!(cl.cell.last_params, DcqcnParams::nvidia_default());
    }

    #[test]
    fn acc_only_touches_switch_ecn() {
        let mut cl = ClosedLoop::builder(topo()).scheme(SchemeKind::Acc).build();
        cl.sim.add_flow(0, 5, 4_000_000, 0);
        for _ in 0..10 {
            cl.step();
        }
        // RNIC-side parameters in the sim config stayed at default.
        assert_eq!(
            cl.sim.dcqcn_params().ai_rate,
            DcqcnParams::nvidia_default().ai_rate
        );
    }

    #[test]
    fn cell_checkpoint_restore_is_identity() {
        // Snapshot at a tick boundary, keep stepping, restore, re-step:
        // the trajectory after restore must equal the original — the
        // fleet snapshot round-trip property builds on this. Every
        // scheme checkpoints the same way, by clone.
        let schemes = [
            SchemeKind::Default,
            SchemeKind::Expert,
            SchemeKind::Static(DcqcnParams::expert(), "Pretrained"),
            SchemeKind::DcqcnPlus,
            SchemeKind::Acc,
            SchemeKind::Paraleon,
            SchemeKind::ParaleonSa(paraleon_tuner::SaConfig::paper_default(), 2),
            SchemeKind::ParaleonNaiveSa,
        ];
        for scheme in schemes {
            assert_restore_is_identity(scheme);
        }
    }

    fn assert_restore_is_identity(scheme: SchemeKind) {
        let build = || {
            ClosedLoop::builder(topo())
                .scheme(scheme.clone())
                .guardrail(GuardrailConfig::default())
                .seed(7)
                .build()
        };
        // One interval of the `drive` pattern at global index `i` (the
        // workload must not restart when driving resumes after restore).
        let drive_one = |cl: &mut ClosedLoop, i: usize| {
            if i < 8 {
                cl.sim.add_flow(i % 4, 4 + i % 4, 8_000_000, cl.sim.now());
            } else {
                let now = cl.sim.now();
                for k in 0..40usize {
                    cl.sim
                        .add_flow(k % 8, (k + 3) % 8, 4_000, now + k as u64 * 1_000);
                }
            }
            cl.step();
        };
        let mut a = build();
        let mut b = build();
        for i in 0..24 {
            drive_one(&mut a, i);
        }
        for i in 0..12 {
            drive_one(&mut b, i);
        }
        let snap = b.cell.checkpoint();
        b.cell.restore(&snap);
        for i in 12..24 {
            drive_one(&mut b, i);
        }
        let name = scheme.name();
        assert_eq!(a.cell.history.len(), b.cell.history.len(), "{name}");
        assert_eq!(a.cell.history, b.cell.history, "{name}");
        assert_eq!(a.cell.last_params, b.cell.last_params, "{name}");
    }
}
