//! Deployment safety for the closed loop: parameter validation,
//! post-dispatch collapse detection with rollback, and safe mode.
//!
//! The poster's pitch is *automatic* tuning of a production RoCEv2
//! fabric — which is only deployable if a bad candidate cannot take the
//! fabric down. One mis-set DCQCN vector (deep ECN thresholds, sparse
//! CNPs, aggressive increase) disables congestion control, fills shared
//! buffers, and turns PFC into a fabric-wide storm. The [`Guardrail`]
//! sits between the tuner and the dispatch path:
//!
//! 1. **Validation** — candidates outside the sane [`ParamSpace`]
//!    bounds (or non-finite, or with inverted ECN thresholds) are
//!    refused before they reach a single device.
//! 2. **Hold-down** — after every global dispatch the fabric is watched
//!    for `HOLD_DOWN_INTERVALS` (8) monitor intervals; a utility collapse,
//!    PFC pause-ratio spike or goodput floor-break rolls the fabric
//!    back to the last-known-good snapshot.
//! 3. **Safe mode** — after `ROLLBACKS_TO_SAFE_MODE` (3) consecutive
//!    rollbacks the guardrail deploys the paper-default fallback and
//!    freezes tuning, with exponential backoff on repeated entries.
//! 4. **Staleness** — switches that stop uploading are aged out of the
//!    health picture instead of silently skewing it.
//!
//! The state machine is pure (no simulator access): `ClosedLoop` calls
//! [`Guardrail::screen`] on every tuner action and
//! [`Guardrail::observe`] on every interval's health signals, and
//! applies whatever comes back.

use std::sync::OnceLock;

use paraleon_dcqcn::{DcqcnParams, ParamId, ParamSpace};
use paraleon_tuner::TuningAction;
use serde::Serialize;

/// Monitor intervals a dispatched candidate is watched before being
/// committed as the new last-known-good (the detection window: a
/// collapse inside it triggers rollback).
const HOLD_DOWN_INTERVALS: u32 = 8;
/// Collapse signal: utility below this fraction of the healthy baseline.
const UTILITY_COLLAPSE_FRAC: f64 = 0.6;
/// Collapse signal: goodput below this fraction of the healthy baseline.
const GOODPUT_FLOOR_FRAC: f64 = 0.5;
/// Collapse signal: absolute PFC pause ratio above this value.
const PFC_PAUSE_SPIKE: f64 = 0.25;
/// Healthy intervals required before collapse detection arms (the
/// baselines need warm-up).
const MIN_BASELINE_INTERVALS: u32 = 4;
/// Consecutive rollbacks that escalate to safe mode.
const ROLLBACKS_TO_SAFE_MODE: u32 = 3;
/// Safe-mode backoff ceiling, in monitor intervals.
const MAX_BACKOFF_INTERVALS: u32 = 256;
/// The fallback deployed on safe-mode entry (paper default).
pub(crate) const SAFE_PARAMS: DcqcnParams = DcqcnParams::nvidia_default();
/// Intervals a switch may stop uploading before it is aged out of the
/// health picture.
const STALE_AFTER_INTERVALS: u64 = 16;
/// EWMA weight for the healthy-baseline trackers.
const BASELINE_EWMA_ALPHA: f64 = 0.2;

/// Sane bounds candidates are validated against: built once, since
/// screening runs on every dispatch.
fn sane_space() -> &'static ParamSpace {
    static SPACE: OnceLock<ParamSpace> = OnceLock::new();
    SPACE.get_or_init(ParamSpace::standard)
}

/// One serializable snapshot of the guardrail's event counters — what a
/// harness (fault experiment, anomaly-hunter oracle) reads after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct GuardrailStats {
    /// Candidates refused by validation.
    pub rejects: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
    /// Safe-mode entries.
    pub safe_mode_entries: u64,
    /// Actions swallowed while frozen.
    pub suppressed: u64,
    /// Whether tuning is frozen right now.
    pub in_safe_mode: bool,
}

/// Why a candidate parameter set was refused.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RejectReason {
    /// A parameter is NaN or infinite.
    NonFinite(ParamId),
    /// A parameter violates its [`ParamSpace`] bounds.
    OutOfBounds {
        /// The offending parameter.
        id: ParamId,
        /// Its proposed value.
        value: f64,
        /// The sane lower bound.
        min: f64,
        /// The sane upper bound.
        max: f64,
    },
    /// `K_min > K_max`: the RED/ECN marking ramp is inverted.
    InvertedEcnThresholds {
        /// Proposed K_min (KB).
        k_min: f64,
        /// Proposed K_max (KB).
        k_max: f64,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            RejectReason::NonFinite(id) => write!(f, "{} is not finite", id.name()),
            RejectReason::OutOfBounds {
                id,
                value,
                min,
                max,
            } => write!(f, "{} = {value} outside [{min}, {max}]", id.name()),
            RejectReason::InvertedEcnThresholds { k_min, k_max } => {
                write!(f, "inverted ECN thresholds: K_min {k_min} > K_max {k_max}")
            }
        }
    }
}

/// Validate a candidate against the sane bounds: every parameter finite
/// and inside its [`ParamSpace`] interval, ECN ramp not inverted.
fn validate(p: &DcqcnParams, space: &ParamSpace) -> Result<(), RejectReason> {
    for s in space.iter() {
        let v = p.get(s.id);
        if !v.is_finite() {
            return Err(RejectReason::NonFinite(s.id));
        }
        if v < s.min || v > s.max {
            return Err(RejectReason::OutOfBounds {
                id: s.id,
                value: v,
                min: s.min,
                max: s.max,
            });
        }
    }
    if p.k_min > p.k_max {
        return Err(RejectReason::InvertedEcnThresholds {
            k_min: p.k_min,
            k_max: p.k_max,
        });
    }
    Ok(())
}

/// Guardrail configuration.
#[derive(Debug, Clone)]
pub struct GuardrailConfig {
    /// Initial safe-mode freeze length, in monitor intervals. Doubles on
    /// each re-entry (exponential backoff) up to a 256-interval ceiling.
    pub safe_mode_backoff_intervals: u32,
}

impl Default for GuardrailConfig {
    fn default() -> Self {
        Self {
            safe_mode_backoff_intervals: 16,
        }
    }
}

/// Result of screening one tuner action.
#[derive(Debug, Clone, PartialEq)]
pub enum ScreenOutcome {
    /// The action is safe to apply (per-switch actions may have been
    /// filtered down to the entries targeting live, in-range switches).
    Dispatch(TuningAction),
    /// The action was refused outright; nothing reaches the fabric.
    Rejected(RejectReason),
    /// The action was swallowed: tuning is frozen (safe mode), or
    /// filtering left nothing to apply.
    Suppressed,
}

/// A corrective action the guardrail asks the loop to perform after
/// observing one interval's health.
#[derive(Debug, Clone, PartialEq)]
pub enum GuardAction {
    /// Collapse detected inside the hold-down window: restore this
    /// last-known-good setting fabric-wide.
    Rollback(DcqcnParams),
    /// Too many consecutive rollbacks: deploy the fallback and freeze
    /// tuning for `backoff_intervals`.
    EnterSafeMode {
        /// The fallback to deploy.
        params: DcqcnParams,
        /// Freeze length, in monitor intervals.
        backoff_intervals: u32,
    },
    /// The safe-mode backoff expired; tuning may resume.
    ExitSafeMode,
}

#[derive(Debug, Clone, PartialEq)]
enum GuardState {
    /// No un-committed dispatch outstanding.
    Normal,
    /// Watching a freshly dispatched candidate.
    HoldDown {
        remaining: u32,
        candidate: DcqcnParams,
    },
    /// Tuning frozen; counting down the backoff.
    SafeMode { remaining: u32 },
}

/// The guardrail state machine (see the module docs).
///
/// `Clone` so a controller can checkpoint the whole guardrail (state,
/// baselines and backoff included) and restore it after a crash — a
/// restored clone replays byte-identically.
#[derive(Debug, Clone)]
pub struct Guardrail {
    cfg: GuardrailConfig,
    state: GuardState,
    last_good: DcqcnParams,
    /// EWMA of utility over healthy intervals.
    baseline_utility: f64,
    /// EWMA of goodput over healthy intervals (bytes/sec).
    baseline_goodput: f64,
    healthy_intervals: u32,
    consecutive_rollbacks: u32,
    next_backoff: u32,
    interval: u64,
    /// Interval each known switch index last uploaded at, sorted by
    /// index (a fabric has a dozen switches: a binary search beats a
    /// hash, and a steady interval inserts nothing).
    last_seen: Vec<(usize, u64)>,
    /// Candidates refused by validation.
    pub rejects: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
    /// Safe-mode entries.
    pub safe_mode_entries: u64,
    /// Actions swallowed while frozen.
    pub suppressed: u64,
    /// Switch uploads aged out after prolonged silence.
    pub stale_aged_out: u64,
}

impl Guardrail {
    /// Build over `cfg`, with `initial` as the first last-known-good.
    pub fn new(cfg: GuardrailConfig, initial: DcqcnParams) -> Self {
        let next_backoff = cfg.safe_mode_backoff_intervals.max(1);
        Self {
            cfg,
            state: GuardState::Normal,
            last_good: initial,
            baseline_utility: 0.0,
            baseline_goodput: 0.0,
            healthy_intervals: 0,
            consecutive_rollbacks: 0,
            next_backoff,
            interval: 0,
            last_seen: Vec::new(),
            rejects: 0,
            rollbacks: 0,
            safe_mode_entries: 0,
            suppressed: 0,
            stale_aged_out: 0,
        }
    }

    /// Whether tuning is currently frozen.
    pub fn in_safe_mode(&self) -> bool {
        matches!(self.state, GuardState::SafeMode { .. })
    }

    /// Whether switch `idx` uploaded within the staleness horizon.
    fn is_live(&self, idx: usize) -> bool {
        self.last_seen
            .binary_search_by_key(&idx, |&(i, _)| i)
            .is_ok()
    }

    /// Snapshot of the guardrail's event counters, in one serializable
    /// struct (harnesses and oracles consume this instead of reaching
    /// into the individual counter fields).
    pub fn stats(&self) -> GuardrailStats {
        GuardrailStats {
            rejects: self.rejects,
            rollbacks: self.rollbacks,
            safe_mode_entries: self.safe_mode_entries,
            suppressed: self.suppressed,
            in_safe_mode: self.in_safe_mode(),
        }
    }

    /// Screen one tuner action before it reaches the fabric.
    pub fn screen(&mut self, action: TuningAction, n_switches: usize) -> ScreenOutcome {
        if self.in_safe_mode() {
            self.suppressed += 1;
            return ScreenOutcome::Suppressed;
        }
        match action {
            TuningAction::Global(p) => match validate(&p, sane_space()) {
                Ok(()) => {
                    self.state = GuardState::HoldDown {
                        remaining: HOLD_DOWN_INTERVALS,
                        candidate: p,
                    };
                    ScreenOutcome::Dispatch(TuningAction::Global(p))
                }
                Err(r) => {
                    self.rejects += 1;
                    ScreenOutcome::Rejected(r)
                }
            },
            TuningAction::PerSwitchEcn(updates) => {
                // A corrupt batch is untrustworthy as a whole.
                for (_, p) in &updates {
                    if let Err(r) = validate(p, sane_space()) {
                        self.rejects += 1;
                        return ScreenOutcome::Rejected(r);
                    }
                }
                // Drop entries addressed at out-of-range or aged-out
                // switches (a dead switch cannot apply a threshold).
                let filtered: Vec<(usize, DcqcnParams)> = updates
                    .into_iter()
                    .filter(|(idx, _)| *idx < n_switches && self.is_live(*idx))
                    .collect();
                if filtered.is_empty() {
                    self.suppressed += 1;
                    ScreenOutcome::Suppressed
                } else {
                    ScreenOutcome::Dispatch(TuningAction::PerSwitchEcn(filtered))
                }
            }
        }
    }

    /// Feed one interval's health signals; returns a corrective action
    /// for the loop to apply, if any. `reporting` lists the switch
    /// indexes that uploaded observations this interval.
    pub fn observe(
        &mut self,
        utility: f64,
        goodput: f64,
        pause_ratio: f64,
        reporting: &[usize],
    ) -> Option<GuardAction> {
        self.interval += 1;
        for &idx in reporting {
            match self.last_seen.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(at) => self.last_seen[at].1 = self.interval,
                Err(at) => self.last_seen.insert(at, (idx, self.interval)),
            }
        }
        let horizon = self.interval.saturating_sub(STALE_AFTER_INTERVALS);
        let before = self.last_seen.len();
        self.last_seen.retain(|&(_, seen)| seen > horizon);
        self.stale_aged_out += (before - self.last_seen.len()) as u64;

        let collapsed = self.is_collapse(utility, goodput, pause_ratio);
        // Baselines track healthy intervals in the Normal state only.
        // During hold-down the candidate must be judged against the
        // pre-dispatch baseline — updating it here would let a slow
        // degradation walk the floor down and evade detection — and
        // safe-mode intervals describe the fallback, not the fabric the
        // next candidate should beat.
        if !collapsed && matches!(self.state, GuardState::Normal) {
            self.update_baselines(utility, goodput);
        }

        match std::mem::replace(&mut self.state, GuardState::Normal) {
            GuardState::Normal => None,
            GuardState::SafeMode { remaining } => {
                if remaining <= 1 {
                    self.consecutive_rollbacks = 0;
                    Some(GuardAction::ExitSafeMode)
                } else {
                    self.state = GuardState::SafeMode {
                        remaining: remaining - 1,
                    };
                    None
                }
            }
            GuardState::HoldDown {
                remaining,
                candidate,
            } => {
                if collapsed {
                    self.rollbacks += 1;
                    self.consecutive_rollbacks += 1;
                    if self.consecutive_rollbacks >= ROLLBACKS_TO_SAFE_MODE {
                        Some(GuardAction::EnterSafeMode {
                            params: SAFE_PARAMS,
                            backoff_intervals: self.enter_safe_mode(),
                        })
                    } else {
                        Some(GuardAction::Rollback(self.last_good))
                    }
                } else if remaining <= 1 {
                    // Survived the watch window: commit.
                    self.last_good = candidate;
                    self.consecutive_rollbacks = 0;
                    self.next_backoff = self.cfg.safe_mode_backoff_intervals.max(1);
                    None
                } else {
                    self.state = GuardState::HoldDown {
                        remaining: remaining - 1,
                        candidate,
                    };
                    None
                }
            }
        }
    }

    /// Deploy the fallback and freeze tuning: the common tail of the
    /// rollback-escalation path and [`Guardrail::force_safe_mode`]. The
    /// freeze lasts the current backoff, returned, which then doubles
    /// for the next entry.
    fn enter_safe_mode(&mut self) -> u32 {
        let backoff = self.next_backoff;
        self.next_backoff = (self.next_backoff.saturating_mul(2)).min(MAX_BACKOFF_INTERVALS);
        self.safe_mode_entries += 1;
        self.state = GuardState::SafeMode { remaining: backoff };
        // The fallback becomes the snapshot future rollbacks restore.
        self.last_good = SAFE_PARAMS;
        backoff
    }

    /// Unconditionally enter safe mode, outside the rollback-escalation
    /// path. A controller that cold-restarts without a usable snapshot
    /// calls this: it cannot vouch for whatever the tuner was doing
    /// before it died, so it deploys the fallback and freezes tuning for
    /// the current backoff (which doubles for the next entry, exactly
    /// like an escalation entry). Returns the freeze length, in monitor
    /// intervals; the fallback is always the paper default.
    pub(crate) fn force_safe_mode(&mut self) -> u32 {
        self.consecutive_rollbacks = 0;
        self.enter_safe_mode()
    }

    /// Whether the signals say the fabric collapsed (only meaningful
    /// once the baselines are warm).
    fn is_collapse(&self, utility: f64, goodput: f64, pause_ratio: f64) -> bool {
        if pause_ratio > PFC_PAUSE_SPIKE {
            return true;
        }
        if self.healthy_intervals < MIN_BASELINE_INTERVALS {
            return false;
        }
        if utility < UTILITY_COLLAPSE_FRAC * self.baseline_utility {
            return true;
        }
        self.baseline_goodput > 1.0 && goodput < GOODPUT_FLOOR_FRAC * self.baseline_goodput
    }

    fn update_baselines(&mut self, utility: f64, goodput: f64) {
        if !utility.is_finite() || !goodput.is_finite() {
            return;
        }
        let a = BASELINE_EWMA_ALPHA;
        if self.healthy_intervals == 0 {
            self.baseline_utility = utility;
            self.baseline_goodput = goodput;
        } else {
            self.baseline_utility = (1.0 - a) * self.baseline_utility + a * utility;
            self.baseline_goodput = (1.0 - a) * self.baseline_goodput + a * goodput;
        }
        self.healthy_intervals = self.healthy_intervals.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard() -> Guardrail {
        Guardrail::new(GuardrailConfig::default(), DcqcnParams::nvidia_default())
    }

    /// Whether a dispatched candidate is still under watch.
    fn in_hold_down(g: &Guardrail) -> bool {
        matches!(g.state, GuardState::HoldDown { .. })
    }

    /// Feed `n` healthy intervals (warm baselines).
    fn warm(g: &mut Guardrail, n: u32) {
        for _ in 0..n {
            assert_eq!(g.observe(0.8, 1e9, 0.0, &[0, 1]), None);
        }
    }

    fn bad_params() -> DcqcnParams {
        let mut p = DcqcnParams::nvidia_default();
        p.ai_rate = 1e9; // far beyond the 400 Mbps bound
        p
    }

    #[test]
    fn out_of_bounds_candidates_are_rejected() {
        let mut g = guard();
        let out = g.screen(TuningAction::Global(bad_params()), 4);
        assert!(matches!(
            out,
            ScreenOutcome::Rejected(RejectReason::OutOfBounds { .. })
        ));
        assert_eq!(g.rejects, 1);
        assert!(!in_hold_down(&g), "a rejected candidate is never watched");
    }

    #[test]
    fn non_finite_and_inverted_thresholds_are_rejected() {
        let mut g = guard();
        let mut nan = DcqcnParams::nvidia_default();
        nan.p_max = f64::NAN;
        assert!(matches!(
            g.screen(TuningAction::Global(nan), 4),
            ScreenOutcome::Rejected(RejectReason::NonFinite(ParamId::PMax))
        ));
        let mut inv = DcqcnParams::nvidia_default();
        inv.k_min = 2000.0;
        inv.k_max = 100.0;
        assert!(matches!(
            g.screen(TuningAction::Global(inv), 4),
            ScreenOutcome::Rejected(RejectReason::InvertedEcnThresholds { .. })
        ));
    }

    #[test]
    fn valid_candidate_dispatches_and_commits_after_quiet_hold_down() {
        let mut g = guard();
        warm(&mut g, 6);
        let cand = DcqcnParams::expert();
        let out = g.screen(TuningAction::Global(cand), 4);
        assert!(matches!(out, ScreenOutcome::Dispatch(_)));
        assert!(in_hold_down(&g));
        // Quiet hold-down: after the window the candidate is the new
        // last-known-good.
        for _ in 0..8 {
            assert_eq!(g.observe(0.8, 1e9, 0.0, &[0]), None);
        }
        assert!(!in_hold_down(&g));
        assert_eq!(g.last_good, cand);
    }

    #[test]
    fn utility_collapse_rolls_back_to_last_known_good() {
        let mut g = guard();
        warm(&mut g, 6);
        let good = g.last_good;
        g.screen(TuningAction::Global(DcqcnParams::expert()), 4);
        // Utility collapses to far below 0.6 × baseline.
        let act = g.observe(0.1, 1e9, 0.0, &[0]);
        assert_eq!(act, Some(GuardAction::Rollback(good)));
        assert_eq!(g.rollbacks, 1);
        assert_eq!(
            g.last_good, good,
            "a collapsed candidate is never committed"
        );
    }

    #[test]
    fn pause_spike_and_goodput_floor_also_trigger_rollback() {
        let mut g = guard();
        warm(&mut g, 6);
        g.screen(TuningAction::Global(DcqcnParams::expert()), 4);
        assert!(matches!(
            g.observe(0.8, 1e9, 0.5, &[0]),
            Some(GuardAction::Rollback(_))
        ));
        g.screen(TuningAction::Global(DcqcnParams::expert()), 4);
        assert!(matches!(
            g.observe(0.8, 1e8, 0.0, &[0]), // goodput at 10% of baseline
            Some(GuardAction::Rollback(_))
        ));
    }

    /// Collapse `n` freshly screened candidates in a row; the guard's
    /// answer to the last one.
    fn collapse(g: &mut Guardrail, n: u32) -> Option<GuardAction> {
        let mut act = None;
        for _ in 0..n {
            g.screen(TuningAction::Global(DcqcnParams::expert()), 4);
            act = g.observe(0.05, 1e9, 0.0, &[0]);
        }
        act
    }

    /// Count a freeze down through healthy intervals: `None` for all
    /// but the last, which exits safe mode.
    fn thaw(g: &mut Guardrail, backoff: u32) {
        for _ in 1..backoff {
            assert_eq!(g.observe(0.8, 1e9, 0.0, &[0]), None);
            assert!(g.in_safe_mode());
        }
        assert_eq!(
            g.observe(0.8, 1e9, 0.0, &[0]),
            Some(GuardAction::ExitSafeMode)
        );
        assert!(!g.in_safe_mode());
    }

    #[test]
    fn consecutive_rollbacks_escalate_to_safe_mode_with_backoff() {
        let cfg = GuardrailConfig {
            safe_mode_backoff_intervals: 4,
        };
        let mut g = Guardrail::new(cfg, DcqcnParams::nvidia_default());
        warm(&mut g, 6);
        for i in 0..ROLLBACKS_TO_SAFE_MODE - 1 {
            assert!(
                matches!(collapse(&mut g, 1), Some(GuardAction::Rollback(_))),
                "rollback {i}"
            );
        }
        assert_eq!(
            collapse(&mut g, 1),
            Some(GuardAction::EnterSafeMode {
                params: SAFE_PARAMS,
                backoff_intervals: 4,
            })
        );
        assert!(g.in_safe_mode());
        // Frozen: every action is suppressed.
        assert_eq!(
            g.screen(TuningAction::Global(DcqcnParams::expert()), 4),
            ScreenOutcome::Suppressed
        );
        thaw(&mut g, 4);
        // Each re-entry doubles the freeze up to the ceiling, and each
        // freeze lasts exactly that long.
        for backoff in [
            8,
            16,
            32,
            64,
            128,
            MAX_BACKOFF_INTERVALS,
            MAX_BACKOFF_INTERVALS,
        ] {
            warm(&mut g, 4);
            assert_eq!(
                collapse(&mut g, ROLLBACKS_TO_SAFE_MODE),
                Some(GuardAction::EnterSafeMode {
                    params: SAFE_PARAMS,
                    backoff_intervals: backoff,
                })
            );
            thaw(&mut g, backoff);
        }
        assert_eq!(g.safe_mode_entries, 8);
    }

    #[test]
    fn forced_safe_mode_deploys_fallback_and_doubles_backoff() {
        let cfg = GuardrailConfig {
            safe_mode_backoff_intervals: 4,
        };
        let mut g = Guardrail::new(cfg, DcqcnParams::nvidia_default());
        let cap = MAX_BACKOFF_INTERVALS;
        for (i, backoff) in [4, 8, 16, 32, 64, 128, cap, cap].into_iter().enumerate() {
            assert_eq!(g.force_safe_mode(), backoff);
            assert!(g.in_safe_mode());
            assert_eq!(g.safe_mode_entries, i as u64 + 1);
            assert_eq!(g.last_good, SAFE_PARAMS);
            // Backoff counts down, exits, and the next forced entry
            // doubles.
            thaw(&mut g, backoff);
        }
    }

    #[test]
    fn committed_candidate_resets_the_rollback_streak() {
        let mut g = guard();
        warm(&mut g, 6);
        g.screen(TuningAction::Global(DcqcnParams::expert()), 4);
        g.observe(0.05, 1e9, 0.0, &[0]); // rollback #1
        g.screen(TuningAction::Global(DcqcnParams::expert()), 4);
        g.observe(0.05, 1e9, 0.0, &[0]); // rollback #2
                                         // A candidate that survives its full hold-down clears the streak.
        g.screen(TuningAction::Global(DcqcnParams::expert()), 4);
        for _ in 0..8 {
            assert_eq!(g.observe(0.8, 1e9, 0.0, &[0]), None);
        }
        g.screen(TuningAction::Global(DcqcnParams::expert()), 4);
        let act = g.observe(0.05, 1e9, 0.0, &[0]);
        assert!(
            matches!(act, Some(GuardAction::Rollback(_))),
            "streak was reset: this is rollback #1 again, not safe mode"
        );
        assert!(!g.in_safe_mode());
    }

    #[test]
    fn silent_switches_age_out_of_the_health_picture() {
        let mut g = guard();
        g.observe(0.8, 1e9, 0.0, &[0, 1, 2]);
        assert_eq!(g.last_seen.len(), 3);
        // Switch 2 stops uploading: tracked until its silence reaches
        // the staleness horizon, aged out on that interval.
        for _ in 1..STALE_AFTER_INTERVALS {
            g.observe(0.8, 1e9, 0.0, &[0, 1]);
            assert_eq!(g.last_seen.len(), 3);
            assert_eq!(g.stale_aged_out, 0);
        }
        g.observe(0.8, 1e9, 0.0, &[0, 1]);
        assert_eq!(g.last_seen.len(), 2);
        assert_eq!(g.stale_aged_out, 1);
        // Per-switch actions addressed at the dead switch are filtered.
        let out = g.screen(
            TuningAction::PerSwitchEcn(vec![
                (0, DcqcnParams::nvidia_default()),
                (2, DcqcnParams::nvidia_default()),
            ]),
            4,
        );
        match out {
            ScreenOutcome::Dispatch(TuningAction::PerSwitchEcn(v)) => {
                assert_eq!(v.len(), 1);
                assert_eq!(v[0].0, 0);
            }
            other => panic!("expected filtered dispatch, got {other:?}"),
        }
        // Nothing live left: suppressed.
        let out = g.screen(
            TuningAction::PerSwitchEcn(vec![(2, DcqcnParams::nvidia_default())]),
            4,
        );
        assert_eq!(out, ScreenOutcome::Suppressed);
    }
}
