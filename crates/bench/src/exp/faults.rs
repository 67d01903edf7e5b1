//! Fault-injection + guardrail experiment: the deployment-safety story.
//!
//! A steady cross-ToR workload runs while the fabric takes a scheduled
//! beating — a flapping ToR uplink plus a misbehaving host asserting a
//! sustained-XOFF PFC storm — and, mid-fault, the tuner goes rogue and
//! dispatches a collapsing (but bounds-valid) DCQCN parameter set.
//!
//! * **Unguarded** loop: the bad setting sticks; goodput stays on the
//!   floor after the faults clear.
//! * **Guardrailed** loop: the collapse is detected within the hold-down
//!   window (≤ 8 monitor intervals), the fabric rolls back to the
//!   last-known-good setting and recovers ≥ 90% of pre-fault goodput.
//!
//! A third scenario hammers the guardrail with repeated bad dispatches
//! plus one out-of-bounds candidate: the candidate is rejected outright,
//! the repeats escalate to safe mode (tuning frozen, paper-default
//! fallback deployed), and the freeze exits after the backoff.
//!
//! Every fault/rollback/safe-mode transition lands in the exported
//! telemetry JSONL (`results/telemetry/faults_<scale>_*.jsonl`, which
//! also carries the per-interval goodput/utility series); every
//! acceptance check is a gate, so CI runs `exp faults --smoke --check`
//! as a smoke job.

use paraleon::prelude::*;
use paraleon_hunt::oracle::{goodput_collapse, pfc_storm};
use paraleon_tuner::{Observation, TuningAction, TuningFeedback, TuningScheme};
use serde::Serialize;

use crate::{gbps_of, inject_interval, Ctx, Scale};

/// Interval the rogue tuner first dispatches the collapsing setting.
const BAD_DISPATCH_AT: u64 = 24;
/// The detection budget: rollback within this many intervals.
const DETECT_BUDGET: u64 = 8;
/// Storm-oracle sliding window (intervals) — mirrors the anomaly
/// hunter's default so both harnesses judge "sustained storm" the same
/// way.
const STORM_WINDOW: usize = 5;

/// A deliberately pathological — but bounds-valid — parameter set:
/// hair-trigger marking (K_min at the floor, P_max at 1), CNPs as fast
/// as they can be generated, rate cuts at every opportunity, and —
/// the real poison — `clamp_tgt_rate`, which ratchets the fast-recovery
/// target down with every cut so the RNICs death-spiral to the minimum
/// rate, with an additive increase too timid to ever climb back.
/// Every numeric knob is inside [`ParamSpace::standard`], so static
/// validation cannot catch this; only the behavioral guardrail can.
fn collapsing_params() -> DcqcnParams {
    let mut p = DcqcnParams::nvidia_default();
    p.ai_rate = 1.0;
    p.hai_rate = 10.0;
    p.rpg_time_reset = 1_500.0;
    p.rpg_byte_reset = 4_096.0;
    p.rpg_threshold = 10.0;
    p.rate_reduce_monitor_period = 2.0;
    p.min_rate = 1.0;
    p.alpha_g_exp = 4.0;
    p.alpha_timer = 500.0;
    p.min_time_between_cnps = 0.0;
    p.k_min = 5.0;
    p.k_max = 30.0;
    p.p_max = 1.0;
    p.clamp_tgt_rate = true;
    p
}

/// An out-of-bounds candidate (AI rate far past the 400 Mbps cap) that
/// validation must refuse before it reaches a single device.
fn out_of_bounds_params() -> DcqcnParams {
    let mut p = DcqcnParams::nvidia_default();
    p.ai_rate = 1e9;
    p
}

/// A misbehaving tuner: quiet until `bad_at`, then dispatches the
/// collapsing setting — and, if `persistent`, re-dispatches it two
/// intervals after every rollback it is told about (the repeated-offender
/// pattern that drives the guardrail into safe mode). Optionally emits
/// one out-of-bounds candidate first to exercise validation.
struct RogueScheme {
    interval: u64,
    bad_at: u64,
    persistent: bool,
    emit_out_of_bounds_at: Option<u64>,
    redispatch_at: Option<u64>,
    frozen: bool,
}

impl RogueScheme {
    fn boxed(bad_at: u64, persistent: bool, emit_out_of_bounds_at: Option<u64>) -> Box<Self> {
        Box::new(Self {
            interval: 0,
            bad_at,
            persistent,
            emit_out_of_bounds_at,
            redispatch_at: None,
            frozen: false,
        })
    }
}

impl TuningScheme for RogueScheme {
    fn on_interval(&mut self, _obs: &Observation) -> Option<TuningAction> {
        self.interval += 1;
        if self.frozen {
            return None;
        }
        if Some(self.interval) == self.emit_out_of_bounds_at {
            return Some(TuningAction::Global(out_of_bounds_params()));
        }
        let due = self.interval == self.bad_at || Some(self.interval) == self.redispatch_at;
        if due {
            self.redispatch_at = None;
            return Some(TuningAction::Global(collapsing_params()));
        }
        None
    }

    fn on_feedback(&mut self, feedback: &TuningFeedback) {
        match feedback {
            TuningFeedback::RolledBack { .. } if self.persistent => {
                self.redispatch_at = Some(self.interval + 2);
            }
            TuningFeedback::Frozen { .. } => self.frozen = true,
            TuningFeedback::Unfrozen => self.frozen = false,
            _ => {}
        }
    }

    fn name(&self) -> &'static str {
        "Rogue"
    }
}

/// `(per-host bytes injected per monitor interval (~80% uplink load),
/// intervals in the run)`.
fn load(scale: Scale) -> (u64, u64) {
    match scale {
        Scale::Smoke => (5_000_000, 60),
        _ => (2_500_000, 70),
    }
}

/// Step `cl` through `intervals` of the cross-ToR load, then export the
/// run's telemetry as `faults_<scale>_<tag>` and gate on the flight
/// recorder carrying every one of `events`.
fn drive(ctx: &Ctx, cl: &mut ClosedLoop, intervals: u64, tag: &str, events: &[&str]) {
    for _ in 0..intervals {
        inject_interval(cl, ctx.scale, load(ctx.scale).0);
        cl.step();
    }
    let dump = ctx.telemetry_dump(&format!("{}_{tag}", ctx.scale.label()));
    for ev in events {
        ctx.gate(
            !dump.events_named(ev).is_empty(),
            format!("{tag}: telemetry is missing {ev} events"),
        );
    }
}

#[derive(Serialize)]
struct LoopOutcome {
    guarded: bool,
    pre_fault_goodput: f64,
    tail_goodput: f64,
    recovery_ratio: f64,
    /// Peak sliding-window mean PFC pause ratio (the shared
    /// `hunt::oracle::pfc_storm` measure over the loop's history).
    peak_pause_window: f64,
    bad_dispatch_interval: Option<u64>,
    first_rollback_interval: Option<u64>,
    detect_latency: Option<u64>,
    rollbacks: u64,
    rejects: u64,
    safe_mode_entries: u64,
    fault_drops: u64,
}

/// Run the flap+storm scenario once, guarded or not: one ToR0 uplink
/// flaps three times and host 0 runs a sustained PFC storm, all inside
/// the fault window, and the rogue dispatch lands mid-fault.
fn run_scenario(ctx: &Ctx, guarded: bool) -> LoopOutcome {
    let scale = ctx.scale;
    ctx.telemetry_begin();
    let mut builder = ClosedLoop::builder(scale.clos())
        .scheme_boxed(RogueScheme::boxed(BAD_DISPATCH_AT, false, None))
        .seed(11);
    if guarded {
        builder = builder.guardrail(GuardrailConfig::default());
    }
    let mut cl = builder.build();
    let mut plan = FaultPlan::new(7);
    let (tor0, uplink) = (scale.hosts(), scale.hosts_per_tor());
    plan.link_flap(tor0, uplink, 20 * MILLI, 2 * MILLI, 5 * MILLI, 3);
    plan.pfc_storm(0, 22 * MILLI, 30 * MILLI);
    cl.sim.install_fault_plan(&plan).expect("plan");
    let tag = if guarded { "guarded" } else { "unguarded" };
    // The flight recorder must carry every fault transition.
    let events = [
        "fault_link_down",
        "fault_link_up",
        "pfc_storm_start",
        "pfc_storm_end",
    ];
    drive(ctx, &mut cl, load(scale).1, tag, &events);

    // Recovery and storm measures come from the shared oracle detectors
    // (crates/hunt), judged over the closed-loop history: baseline is
    // intervals 10..20 (faults start at 20 ms), tail is the last 10.
    let goodputs: Vec<f64> = cl.cell.history.iter().map(|r| r.goodput).collect();
    let collapse = goodput_collapse(&goodputs, 10..20, 10);
    let pauses: Vec<f64> = cl.cell.history.iter().map(|r| r.pause_ratio()).collect();
    let storm = pfc_storm(&pauses, STORM_WINDOW, 0.25);
    let first_rollback = cl
        .cell
        .history
        .iter()
        .position(|r| r.rolled_back)
        .map(|i| i as u64 + 1);
    let guard_stats = cl.guard().map(|g| g.stats()).unwrap_or_default();
    LoopOutcome {
        guarded,
        pre_fault_goodput: collapse.baseline,
        tail_goodput: collapse.tail,
        recovery_ratio: collapse.recovery_ratio,
        peak_pause_window: storm.peak_window_mean,
        bad_dispatch_interval: Some(BAD_DISPATCH_AT),
        first_rollback_interval: first_rollback,
        detect_latency: first_rollback.map(|r| r.saturating_sub(BAD_DISPATCH_AT)),
        rollbacks: guard_stats.rollbacks,
        rejects: guard_stats.rejects,
        safe_mode_entries: guard_stats.safe_mode_entries,
        fault_drops: cl.sim.total_fault_drops(),
    }
}

#[derive(Serialize)]
struct SafeModeOutcome {
    rejects: u64,
    rollbacks: u64,
    safe_mode_entries: u64,
    safe_mode_intervals: u64,
    exited_safe_mode: bool,
    rejected_interval_seen: bool,
}

/// No netsim faults — a persistent rogue re-dispatches the collapsing
/// setting after every rollback until the guardrail freezes tuning, then
/// the freeze expires and tuning unfreezes.
fn run_safe_mode(ctx: &Ctx) -> SafeModeOutcome {
    ctx.telemetry_begin();
    let mut cl = ClosedLoop::builder(ctx.scale.clos())
        .scheme_boxed(RogueScheme::boxed(12, true, Some(8)))
        .guardrail(GuardrailConfig {
            safe_mode_backoff_intervals: 10,
        })
        .seed(12)
        .build();
    let events = [
        "guardrail_reject",
        "guardrail_rollback",
        "safe_mode_enter",
        "safe_mode_exit",
    ];
    drive(ctx, &mut cl, load(ctx.scale).1 + 20, "safemode", &events);
    let guard = cl.guard().expect("guarded").stats();
    SafeModeOutcome {
        rejects: guard.rejects,
        rollbacks: guard.rollbacks,
        safe_mode_entries: guard.safe_mode_entries,
        safe_mode_intervals: cl.cell.history.iter().filter(|r| r.safe_mode).count() as u64,
        exited_safe_mode: !guard.in_safe_mode,
        rejected_interval_seen: cl.cell.history.iter().any(|r| r.rejected),
    }
}

/// One sweep cell's result: the three scenarios have two row shapes.
enum Outcome {
    Loop(LoopOutcome),
    SafeMode(SafeModeOutcome),
}

pub fn run(ctx: &Ctx) {
    let outcomes = ctx.sweep(
        vec![Some(false), Some(true), None],
        |guarded| match guarded {
            Some(g) => Outcome::Loop(run_scenario(ctx, g)),
            None => Outcome::SafeMode(run_safe_mode(ctx)),
        },
    );
    let [Outcome::Loop(unguarded), Outcome::Loop(guarded), Outcome::SafeMode(safe)] = &outcomes[..]
    else {
        unreachable!("three scenarios, in cell order");
    };

    let row = |o: &LoopOutcome| {
        vec![
            if o.guarded {
                "guardrailed"
            } else {
                "unguarded"
            }
            .to_string(),
            format!("{:.1}", gbps_of(o.pre_fault_goodput)),
            format!("{:.1}", gbps_of(o.tail_goodput)),
            format!("{:.2}", o.recovery_ratio),
            o.detect_latency
                .map(|d| format!("{d}"))
                .unwrap_or_else(|| "-".into()),
            format!("{}", o.rollbacks),
        ]
    };
    ctx.table(
        "Flap + PFC storm + rogue dispatch: recovery",
        &[
            "loop",
            "pre-fault Gbps",
            "tail Gbps",
            "recovery",
            "detect (MIs)",
            "rollbacks",
        ],
        &[row(unguarded), row(guarded)],
    );
    ctx.table(
        "Repeated bad dispatches: guardrail escalation",
        &[
            "rejects",
            "rollbacks",
            "safe-mode entries",
            "frozen MIs",
            "exited",
        ],
        &[vec![
            format!("{}", safe.rejects),
            format!("{}", safe.rollbacks),
            format!("{}", safe.safe_mode_entries),
            format!("{}", safe.safe_mode_intervals),
            format!("{}", safe.exited_safe_mode),
        ]],
    );
    ctx.write(&(unguarded, guarded, safe));
    accept(ctx, unguarded, guarded, safe);
}

/// The acceptance checks (CI smoke gate).
fn accept(ctx: &Ctx, unguarded: &LoopOutcome, guarded: &LoopOutcome, safe: &SafeModeOutcome) {
    ctx.gate(
        guarded.first_rollback_interval.is_some(),
        "guardrailed loop never rolled back",
    );
    if let Some(d) = guarded.detect_latency {
        ctx.gate(
            d <= DETECT_BUDGET,
            format!("detection took {d} intervals (budget {DETECT_BUDGET})"),
        );
    }
    ctx.gate(
        guarded.recovery_ratio >= 0.9,
        format!(
            "guardrailed loop recovered only {:.0}% of pre-fault goodput",
            guarded.recovery_ratio * 100.0
        ),
    );
    ctx.gate(
        guarded.recovery_ratio > unguarded.recovery_ratio,
        format!(
            "guardrail did not beat the unguarded loop ({:.2} vs {:.2})",
            guarded.recovery_ratio, unguarded.recovery_ratio
        ),
    );
    ctx.gate(unguarded.fault_drops > 0, "fault plan injected no drops");
    // The shared storm oracle must see the injected sustained-XOFF storm
    // in both loops (it runs 22–30 ms regardless of tuning).
    for o in [unguarded, guarded] {
        ctx.gate(
            o.peak_pause_window > 0.0,
            format!(
                "storm detector saw no pause pressure ({} loop)",
                if o.guarded { "guarded" } else { "unguarded" }
            ),
        );
    }
    ctx.gate(safe.rejects >= 1, "out-of-bounds candidate not rejected");
    ctx.gate(
        safe.safe_mode_entries >= 1,
        "repeated rollbacks never escalated to safe mode",
    );
    ctx.gate(safe.exited_safe_mode, "safe-mode backoff never expired");
    ctx.gate(
        safe.rejected_interval_seen,
        "no interval recorded the rejection",
    );
}
