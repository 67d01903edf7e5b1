//! PARALEON's full closed-loop tuning scheme: KL-triggered SA episodes.
//!
//! Idle until the monitor's change detector fires; then runs one
//! interactive SA episode (one candidate per monitor interval), and when
//! the temperature bottoms out, dispatches the best setting found and
//! returns to idle. A new trigger during or after an episode restarts
//! the search from the best known setting.

use paraleon_dcqcn::{DcqcnParams, ParamSpace};

use crate::sa::{SaConfig, SaTuner};
use crate::{Observation, TuningAction, TuningFeedback, TuningScheme};

/// Configuration of the full scheme.
#[derive(Debug, Clone)]
pub struct ParaleonSchemeConfig {
    /// SA schedule/mutation settings.
    pub sa: SaConfig,
    /// RNG seed for the SA mutation stream.
    pub seed: u64,
    /// Monitor intervals each candidate is evaluated over before the SA
    /// accept/reject decision (utility is averaged across them). The
    /// paper uses 1 (one λ_MI per Algorithm-1 round); small fabrics
    /// benefit from >1 because per-interval utility is noisier with
    /// fewer flows.
    pub eval_intervals: u32,
}

impl Default for ParaleonSchemeConfig {
    fn default() -> Self {
        Self {
            sa: SaConfig::paper_default(),
            seed: 42,
            eval_intervals: 1,
        }
    }
}

#[derive(Clone, Copy)]
enum Phase {
    Idle,
    /// An SA episode is running; the utility arriving next interval
    /// belongs to the candidate we dispatched last interval.
    Tuning,
}

/// The event-driven PARALEON tuner.
#[derive(Clone)]
pub struct ParaleonScheme {
    tuner: SaTuner,
    phase: Phase,
    deployed: DcqcnParams,
    /// Dominant flow type when the running episode started.
    episode_dominant: Option<paraleon_sketch::FlowType>,
    /// Episodes completed (statistics).
    pub episodes: u64,
    eval_intervals: u32,
    /// Utility accumulator for the candidate under evaluation.
    eval_sum: f64,
    eval_count: u32,
    /// The candidate under evaluation was refused or rolled back by the
    /// guardrail: complete its SA round with zero utility so the search
    /// moves away from it instead of waiting out the evaluation window.
    penalty_pending: bool,
}

impl ParaleonScheme {
    /// Build the scheme, starting from the NVIDIA default setting (what
    /// every fabric deploys before the first dispatch).
    pub fn new(cfg: ParaleonSchemeConfig) -> Self {
        let initial = DcqcnParams::nvidia_default();
        let tuner = SaTuner::new(ParamSpace::standard(), cfg.sa, initial, cfg.seed);
        Self {
            tuner,
            phase: Phase::Idle,
            deployed: initial,
            episode_dominant: None,
            episodes: 0,
            eval_intervals: cfg.eval_intervals.max(1),
            eval_sum: 0.0,
            eval_count: 0,
            penalty_pending: false,
        }
    }

    /// The setting currently deployed in the fabric.
    pub fn deployed(&self) -> &DcqcnParams {
        &self.deployed
    }

    /// Whether an SA episode is in progress.
    pub fn tuning(&self) -> bool {
        matches!(self.phase, Phase::Tuning)
    }
}

impl TuningScheme for ParaleonScheme {
    fn on_interval(&mut self, obs: &Observation) -> Option<TuningAction> {
        match self.phase {
            Phase::Idle => {
                if obs.tuning_triggered {
                    self.tuner.restart(self.deployed);
                    self.phase = Phase::Tuning;
                    self.episode_dominant = Some(obs.dominant);
                    self.eval_sum = 0.0;
                    self.eval_count = 0;
                    self.penalty_pending = false;
                    // First candidate: mutate immediately using the fresh
                    // FSD; the measured utility of the *deployed* setting
                    // seeds the accept baseline.
                    match self.tuner.step(obs.utility, obs.dominant, obs.mu) {
                        Some(p) => {
                            self.deployed = p;
                            Some(TuningAction::Global(p))
                        }
                        None => None,
                    }
                } else {
                    None
                }
            }
            Phase::Tuning => {
                // A mid-episode trigger restarts the search immediately
                // (the paper's semantics: new parameters for the new
                // traffic pattern as soon as it is detected) — but only
                // when the dominant flow type actually changed, so
                // trigger-window boundary noise cannot keep resetting a
                // young episode that is already tuning for this pattern.
                if obs.tuning_triggered && self.episode_dominant != Some(obs.dominant) {
                    self.episodes += 1;
                    self.tuner.restart(self.deployed);
                    self.episode_dominant = Some(obs.dominant);
                    self.eval_sum = 0.0;
                    self.eval_count = 0;
                    self.penalty_pending = false;
                    match self.tuner.step(obs.utility, obs.dominant, obs.mu) {
                        Some(p) => {
                            self.deployed = p;
                            return Some(TuningAction::Global(p));
                        }
                        None => return None,
                    }
                }
                // Accumulate the candidate's utility; only complete an
                // Algorithm-1 round once it has been measured for
                // `eval_intervals` monitor intervals. A guardrail
                // rejection/rollback short-circuits the window: the
                // candidate scores zero and the search moves on now.
                let mean_util = if self.penalty_pending {
                    self.penalty_pending = false;
                    self.eval_sum = 0.0;
                    self.eval_count = 0;
                    0.0
                } else {
                    self.eval_sum += obs.utility;
                    self.eval_count += 1;
                    if self.eval_count < self.eval_intervals {
                        return None;
                    }
                    let m = self.eval_sum / self.eval_count as f64;
                    self.eval_sum = 0.0;
                    self.eval_count = 0;
                    m
                };
                match self.tuner.step(mean_util, obs.dominant, obs.mu) {
                    Some(p) => {
                        self.deployed = p;
                        Some(TuningAction::Global(p))
                    }
                    None => {
                        // Episode converged: deploy the best found.
                        self.episodes += 1;
                        let best = *self.tuner.best();
                        self.deployed = best;
                        self.phase = Phase::Idle;
                        Some(TuningAction::Global(best))
                    }
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "PARALEON"
    }

    fn on_feedback(&mut self, feedback: &TuningFeedback) {
        match feedback {
            TuningFeedback::Rejected { deployed } => {
                // The candidate never reached the fabric: what we thought
                // we deployed is wrong, and the candidate must score 0.
                self.deployed = *deployed;
                if self.tuning() {
                    self.penalty_pending = true;
                }
            }
            TuningFeedback::RolledBack { restored } => {
                self.deployed = *restored;
                if self.tuning() {
                    self.penalty_pending = true;
                }
            }
            TuningFeedback::Frozen { fallback } => {
                // Safe mode: abandon the episode entirely; a fresh KL
                // trigger after the freeze starts a new search from the
                // fallback setting.
                if self.tuning() {
                    self.episodes += 1;
                }
                self.phase = Phase::Idle;
                self.deployed = *fallback;
                self.episode_dominant = None;
                self.eval_sum = 0.0;
                self.eval_count = 0;
                self.penalty_pending = false;
            }
            TuningFeedback::Unfrozen => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraleon_monitor::MetricSample;
    use paraleon_sketch::FlowType;

    fn obs(utility: f64, triggered: bool) -> Observation {
        obs_with(utility, triggered, FlowType::Elephant)
    }

    fn obs_with(utility: f64, triggered: bool, dominant: FlowType) -> Observation {
        Observation {
            now: 0,
            utility,
            sample: MetricSample::new(utility, utility, 1.0),
            dominant,
            mu: 0.8,
            tuning_triggered: triggered,
            switch_obs: Vec::new(),
        }
    }

    #[test]
    fn idle_until_triggered() {
        let mut s = ParaleonScheme::new(ParaleonSchemeConfig::default());
        for _ in 0..10 {
            assert!(s.on_interval(&obs(0.5, false)).is_none());
        }
        assert!(!s.tuning());
        assert!(s.on_interval(&obs(0.5, true)).is_some());
        assert!(s.tuning());
    }

    #[test]
    fn episode_runs_then_returns_to_idle_with_best() {
        let mut s = ParaleonScheme::new(ParaleonSchemeConfig::default());
        s.on_interval(&obs(0.3, true));
        let mut rounds = 0;
        let budget = SaConfig::paper_default().episode_len() + 30;
        while s.tuning() {
            // Reward higher K_max-ish moves with a synthetic landscape:
            // simply feed the utility of the deployed candidate's K_max.
            let u = (s.deployed().k_max / 12800.0).clamp(0.0, 1.0);
            s.on_interval(&obs(u, false));
            rounds += 1;
            assert!(rounds < budget, "episode must converge");
        }
        assert_eq!(s.episodes, 1);
        // Deployed = best of the episode, which should have drifted to a
        // higher K_max than the NVIDIA default under this landscape.
        assert!(s.deployed().k_max >= DcqcnParams::nvidia_default().k_max);
    }

    #[test]
    fn retrigger_during_episode_restarts_immediately_on_pattern_flip() {
        let mut s = ParaleonScheme::new(ParaleonSchemeConfig::default());
        s.on_interval(&obs(0.3, true)); // episode starts elephant-dominant
        for _ in 0..5 {
            s.on_interval(&obs(0.4, false));
        }
        // Same-dominant trigger mid-episode: ignored (boundary noise).
        s.on_interval(&obs(0.4, true));
        assert_eq!(s.episodes, 0, "same-pattern trigger must not restart");
        // Dominant flips to mice: the search restarts at full temperature
        // right away (counted as closing one episode).
        assert!(s
            .on_interval(&obs_with(0.4, true, FlowType::Mice))
            .is_some());
        assert_eq!(s.episodes, 1);
        assert!(s.tuning());
        // And the new episode still terminates.
        let budget = SaConfig::paper_default().episode_len() + 30;
        let mut rounds = 0;
        while s.tuning() && rounds < budget {
            s.on_interval(&obs(0.4, false));
            rounds += 1;
        }
        assert!(!s.tuning(), "restarted episode must converge");
        assert_eq!(s.episodes, 2);
    }

    #[test]
    fn rollback_feedback_penalizes_candidate_and_resyncs_deployed() {
        let mut s = ParaleonScheme::new(ParaleonSchemeConfig {
            eval_intervals: 4,
            ..Default::default()
        });
        s.on_interval(&obs(0.5, true));
        let candidate = *s.deployed();
        let good = DcqcnParams::expert();
        s.on_feedback(&TuningFeedback::RolledBack { restored: good });
        assert_eq!(s.deployed(), &good, "deployed must track the rollback");
        // The next interval completes the round immediately (no waiting
        // out the 4-interval evaluation window) and moves to a new
        // candidate.
        let next = s.on_interval(&obs(0.9, false));
        assert!(next.is_some(), "penalized round must emit a new candidate");
        if let Some(TuningAction::Global(p)) = next {
            assert_ne!(p, candidate, "the collapsed candidate is abandoned");
        }
    }

    #[test]
    fn frozen_feedback_abandons_episode_until_next_trigger() {
        let mut s = ParaleonScheme::new(ParaleonSchemeConfig::default());
        s.on_interval(&obs(0.5, true));
        assert!(s.tuning());
        let fallback = DcqcnParams::nvidia_default();
        s.on_feedback(&TuningFeedback::Frozen { fallback });
        assert!(!s.tuning(), "freeze must end the episode");
        assert_eq!(s.deployed(), &fallback);
        assert_eq!(s.episodes, 1, "the aborted episode is accounted");
        // Quiet intervals keep it idle; a new trigger starts tuning again.
        assert!(s.on_interval(&obs(0.5, false)).is_none());
        s.on_feedback(&TuningFeedback::Unfrozen);
        assert!(s.on_interval(&obs(0.5, true)).is_some());
        assert!(s.tuning());
    }

    #[test]
    fn snapshot_restore_resumes_the_episode_byte_identically() {
        // Drive one scheme 5 intervals into an episode, snapshot it,
        // drive both the original and a restored copy through the same
        // observations: every subsequent action must be identical (the
        // snapshot captures the SA RNG stream position exactly).
        let mut a = ParaleonScheme::new(ParaleonSchemeConfig::default());
        a.on_interval(&obs(0.3, true));
        for i in 0..4 {
            a.on_interval(&obs(0.3 + 0.1 * i as f64, false));
        }
        let snap = a.clone();
        let mut b = ParaleonScheme::new(ParaleonSchemeConfig {
            seed: 999, // divergent until restored
            ..Default::default()
        });
        b.on_interval(&obs(0.9, true));
        b = snap;
        assert_eq!(a.deployed(), b.deployed());
        for i in 0..20 {
            let o = obs((i as f64 * 0.37) % 1.0, i == 10);
            assert_eq!(a.on_interval(&o), b.on_interval(&o), "interval {i}");
        }
    }

    #[test]
    fn every_candidate_is_dispatched() {
        let mut s = ParaleonScheme::new(ParaleonSchemeConfig::default());
        let first = s.on_interval(&obs(0.3, true)).unwrap();
        match first {
            TuningAction::Global(p) => assert_eq!(&p, s.deployed()),
            _ => panic!("paraleon dispatches globally"),
        }
        while s.tuning() {
            if let Some(TuningAction::Global(p)) = s.on_interval(&obs(0.5, false)) {
                assert_eq!(&p, s.deployed());
            }
        }
    }
}
