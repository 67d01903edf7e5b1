//! The improved simulated-annealing tuner (Algorithm 1 of the paper).
//!
//! SA runs *interactively*: each candidate parameter setting `P_m` is
//! dispatched to the fabric, the controller waits one monitor interval
//! λ_MI for the resulting metrics, and the measured utility drives the
//! accept/reject decision. [`SaTuner`] is therefore a state machine — the
//! closed loop calls [`SaTuner::step`] once per interval with the utility
//! measured *under the previously returned candidate*.
//!
//! PARALEON's two optimizations over naive SA (§III-C) are both
//! reproducible knobs so the Figure 12 ablation can toggle them:
//!
//! 1. **Guided randomness** (`guided = true`): each parameter moves in
//!    the dominant flow type's friendly direction with probability
//!    `min(µ, η)` (η = 0.8 caps exploitation) and in the anti-dominant
//!    direction otherwise, with a bounded random step
//!    `s'_p = s_p × rand(0.5, 1)`. Naive SA moves each parameter in a
//!    uniformly random direction.
//! 2. **Relaxed temperature** (`initial_temp`/`cooling_rate`/`final_temp`
//!    defaults 90 / 0.85 / 10): few temperature levels, so an episode
//!    finishes within dozens of monitor intervals. The naive preset uses
//!    a slow classical schedule.
//!
//! Utilities are in `[0, 1]`; the acceptance test treats them as
//! percentages (`Δ × 100`) so the paper's temperature range 90 → 10 spans
//! meaningful acceptance probabilities.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use paraleon_dcqcn::{DcqcnParams, Direction, ParamSpace};
use paraleon_sketch::FlowType;
use paraleon_telemetry as tel;

/// Maximum exploitation rate η of the guided step (Table III: 0.8).
const ETA: f64 = 0.8;

/// SA schedule and mutation configuration.
#[derive(Debug, Clone, Serialize)]
pub struct SaConfig {
    /// Iterations (monitor intervals) per temperature level.
    pub total_iter_num: u32,
    /// Geometric cooling factor.
    pub cooling_rate: f64,
    /// Starting temperature. Both presets start at 90; it stays settable
    /// because `worse_moves_accepted_more_at_high_temperature` holds a
    /// fixed temperature through it.
    pub initial_temp: f64,
    /// Episode ends when temperature drops below this.
    pub final_temp: f64,
    /// Optimization 1: guided randomness (false = naive mutation).
    pub guided: bool,
}

impl SaConfig {
    /// The paper's Table III settings (improved SA).
    pub fn paper_default() -> Self {
        Self {
            total_iter_num: 20,
            cooling_rate: 0.85,
            initial_temp: 90.0,
            final_temp: 10.0,
            guided: true,
        }
    }

    /// Naive SA for the Figure 12 ablation: unguided mutation and a slow
    /// classical cooling schedule.
    pub fn naive() -> Self {
        Self {
            guided: false,
            cooling_rate: 0.97,
            final_temp: 1.0,
            ..Self::paper_default()
        }
    }
}

/// The interactive SA state machine.
#[derive(Debug, Clone)]
pub struct SaTuner {
    space: ParamSpace,
    cfg: SaConfig,
    rng: StdRng,
    /// Accepted solution.
    current: DcqcnParams,
    current_util: f64,
    /// Best solution seen this episode.
    best: DcqcnParams,
    best_util: f64,
    /// Candidate currently dispatched and awaiting measurement.
    candidate: DcqcnParams,
    temp: f64,
    iter: u32,
    finished: bool,
    /// Total SA steps taken (statistics).
    pub steps: u64,
    /// Accepted moves (statistics).
    pub accepts: u64,
}

impl SaTuner {
    /// Start an episode from `initial` (typically the currently deployed
    /// setting).
    pub fn new(space: ParamSpace, cfg: SaConfig, initial: DcqcnParams, seed: u64) -> Self {
        let temp = cfg.initial_temp;
        Self {
            space,
            cfg,
            rng: StdRng::seed_from_u64(seed),
            current: initial,
            current_util: f64::NEG_INFINITY,
            best: initial,
            best_util: f64::NEG_INFINITY,
            candidate: initial,
            temp,
            iter: 0,
            finished: false,
            steps: 0,
            accepts: 0,
        }
    }

    /// Whether the episode has converged (temperature below final).
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Best setting found so far this episode.
    pub fn best(&self) -> &DcqcnParams {
        &self.best
    }

    /// Best utility observed this episode.
    pub fn best_util(&self) -> f64 {
        self.best_util
    }

    /// Restart the episode from `from` (a new tuning trigger): resets the
    /// temperature and statistics but keeps the RNG stream.
    pub fn restart(&mut self, from: DcqcnParams) {
        self.current = from;
        self.candidate = from;
        self.best = from;
        self.current_util = f64::NEG_INFINITY;
        self.best_util = f64::NEG_INFINITY;
        self.temp = self.cfg.initial_temp;
        self.iter = 0;
        self.finished = false;
    }

    /// One Algorithm-1 round: `measured_util` is the utility observed
    /// under the last returned candidate; `dominant`/`mu` come from the
    /// interval's FSD. Returns the next candidate to dispatch, or `None`
    /// once the episode has converged (caller should then dispatch
    /// [`SaTuner::best`]).
    pub fn step(&mut self, measured_util: f64, dominant: FlowType, mu: f64) -> Option<DcqcnParams> {
        if self.finished {
            return None;
        }
        self.steps += 1;
        // Accept/reject the measured candidate (lines 6-13).
        let delta = measured_util - self.current_util;
        let accept = delta > 0.0
            || (self.temp > 0.0 && ((delta * 100.0) / self.temp).exp() > self.rng.gen::<f64>());
        if accept {
            self.current = self.candidate;
            self.current_util = measured_util;
            self.accepts += 1;
            tel::event(tel::Event::SaAccept {
                temp: self.temp,
                utility: measured_util,
            });
        } else {
            tel::event(tel::Event::SaReject {
                temp: self.temp,
                utility: measured_util,
            });
        }
        tel::gauge_set(tel::Gauge::SaTemp, self.temp);
        if self.current_util > self.best_util {
            self.best = self.current;
            self.best_util = self.current_util;
        }
        // Mutate a new candidate from the accepted solution (lines 14-22).
        self.candidate = self.mutate(dominant, mu);
        // Temperature schedule (lines 3, 24-25).
        self.iter += 1;
        if self.iter >= self.cfg.total_iter_num {
            self.iter = 0;
            self.temp *= self.cfg.cooling_rate;
            if self.temp < self.cfg.final_temp {
                self.finished = true;
                tel::event(tel::Event::SaEpisodeEnd {
                    best_utility: self.best_util,
                });
                return None;
            }
        }
        Some(self.candidate)
    }

    fn mutate(&mut self, dominant: FlowType, mu: f64) -> DcqcnParams {
        let mut p = self.current;
        let exploit = mu.clamp(0.0, ETA);
        // High temperature explores "in more random directions and
        // steps" (paper §III-C): the step amplitude shrinks as the
        // system cools, so a fresh (or restarted) episode moves fast and
        // the end-game fine-tunes.
        let temp_boost = 1.0 + 3.0 * (self.temp / self.cfg.initial_temp.max(1e-9)).min(1.0);
        let Self { space, rng, .. } = self;
        for spec in space.iter() {
            let s = spec.step * temp_boost * rng.gen_range(0.5..1.0);
            let dominant_sign = match (dominant, spec.throughput_friendly) {
                (FlowType::Elephant, Direction::Increase) => 1.0,
                (FlowType::Elephant, Direction::Decrease) => -1.0,
                (FlowType::Mice, Direction::Increase) => -1.0,
                (FlowType::Mice, Direction::Decrease) => 1.0,
            };
            let sign = if self.cfg.guided {
                if rng.gen::<f64>() < exploit {
                    dominant_sign
                } else {
                    -dominant_sign
                }
            } else if rng.gen::<bool>() {
                1.0
            } else {
                -1.0
            };
            let v = spec.clamp(p.get(spec.id) + sign * s);
            p.set(spec.id, v);
        }
        p.normalize(space);
        p
    }
}

#[cfg(test)]
impl SaConfig {
    /// Approximate episode length in monitor intervals: temperature
    /// levels times iterations per level.
    pub(crate) fn episode_len(&self) -> u32 {
        let levels = ((self.final_temp / self.initial_temp).ln() / self.cooling_rate.ln())
            .ceil()
            .max(1.0) as u32;
        levels * self.total_iter_num
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraleon_dcqcn::ParamId;

    fn tuner(cfg: SaConfig) -> SaTuner {
        SaTuner::new(
            ParamSpace::standard(),
            cfg,
            DcqcnParams::nvidia_default(),
            7,
        )
    }

    /// A synthetic utility landscape: prefers large K_max and large
    /// rate_reduce_monitor_period (throughput-ish), quadratic peak.
    fn toy_utility(p: &DcqcnParams) -> f64 {
        let a = 1.0 - ((p.k_max - 6000.0) / 12800.0).powi(2);
        let b = 1.0 - ((p.rate_reduce_monitor_period - 300.0) / 500.0).powi(2);
        ((a + b) / 2.0).clamp(0.0, 1.0)
    }

    #[test]
    fn episode_terminates_within_configured_length() {
        let cfg = SaConfig::paper_default();
        let max_steps = cfg.episode_len() + cfg.total_iter_num;
        let mut t = tuner(cfg);
        let mut cand = DcqcnParams::nvidia_default();
        let mut steps = 0;
        while let Some(next) = t.step(toy_utility(&cand), FlowType::Elephant, 0.8) {
            cand = next;
            steps += 1;
            assert!(steps <= max_steps, "episode failed to terminate");
        }
        assert!(t.finished());
        assert!(steps > 10, "episode too short ({steps} steps)");
    }

    #[test]
    fn improves_utility_on_a_smooth_landscape() {
        let mut t = tuner(SaConfig::paper_default());
        let start = toy_utility(&DcqcnParams::nvidia_default());
        let mut cand = DcqcnParams::nvidia_default();
        while let Some(next) = t.step(toy_utility(&cand), FlowType::Elephant, 0.8) {
            cand = next;
        }
        assert!(
            t.best_util() > start + 0.05,
            "best {} should beat start {start}",
            t.best_util()
        );
    }

    #[test]
    fn guided_converges_faster_than_naive() {
        // Guided randomness helps when the dominant flow type's friendly
        // direction is actually the profitable one (the premise of
        // Optimization 1): use a landscape that rewards
        // throughput-friendly extremes under elephant dominance, and
        // compare how quickly each variant's best utility rises within a
        // small budget of 12 rounds.
        let aligned_utility = |p: &DcqcnParams| {
            let a = p.k_max / 12800.0;
            let b = p.rate_reduce_monitor_period / 500.0;
            ((a + b) / 2.0).clamp(0.0, 1.0)
        };
        let run = |cfg: SaConfig, seed: u64| {
            let mut t = SaTuner::new(
                ParamSpace::standard(),
                cfg,
                DcqcnParams::nvidia_default(),
                seed,
            );
            let mut cand = DcqcnParams::nvidia_default();
            for _ in 0..12 {
                match t.step(aligned_utility(&cand), FlowType::Elephant, 0.9) {
                    Some(next) => cand = next,
                    None => break,
                }
            }
            t.best_util()
        };
        let mut guided_wins = 0;
        for seed in 0..9u64 {
            let g = run(SaConfig::paper_default(), seed);
            let n = run(SaConfig::naive(), seed);
            if g >= n {
                guided_wins += 1;
            }
        }
        assert!(
            guided_wins >= 6,
            "guided should usually converge faster ({guided_wins}/9)"
        );
    }

    #[test]
    fn candidates_respect_bounds() {
        let space = ParamSpace::standard();
        let mut t = tuner(SaConfig::paper_default());
        for i in 0..100 {
            let Some(cand) = t.step((i % 10) as f64 / 10.0, FlowType::Mice, 0.7) else {
                break;
            };
            for spec in space.iter() {
                let v = cand.get(spec.id);
                assert!(
                    v >= spec.min && v <= spec.max,
                    "{} = {v} out of bounds",
                    spec.id.name()
                );
            }
            assert!(cand.k_min <= cand.k_max);
        }
    }

    #[test]
    fn mice_guidance_pushes_delay_friendly() {
        // With µ = 1.0 (η caps at 0.8) and mice dominant, the *first*
        // mutation from a mid-range start should move K_max down with
        // probability ≈ 0.8. Examine only the first move per seed so
        // boundary clamping and the k_min/k_max swap cannot bias the
        // statistic.
        let mut down = 0;
        let n = 200;
        for seed in 0..n {
            // Expert K_max = 6400: mid-range, no clamping on one step.
            let start = DcqcnParams::expert();
            let mut t = SaTuner::new(
                ParamSpace::standard(),
                SaConfig::paper_default(),
                start,
                seed,
            );
            let cand = t.step(0.5, FlowType::Mice, 1.0).expect("first move");
            if cand.get(ParamId::KMax) < start.k_max {
                down += 1;
            }
        }
        let frac = down as f64 / n as f64;
        assert!(
            (0.68..=0.92).contains(&frac),
            "P(delay-friendly K_max move) should be ≈0.8, got {frac}"
        );
    }

    #[test]
    fn restart_resets_the_schedule() {
        let mut t = tuner(SaConfig::paper_default());
        let mut cand = DcqcnParams::nvidia_default();
        while let Some(next) = t.step(0.5, FlowType::Elephant, 0.8) {
            cand = next;
        }
        assert!(t.finished());
        t.restart(cand);
        assert!(!t.finished());
        assert_eq!(t.temp, SaConfig::paper_default().initial_temp);
        assert!(t.step(0.4, FlowType::Elephant, 0.8).is_some());
    }

    #[test]
    fn better_utility_is_always_accepted() {
        let mut t = tuner(SaConfig::paper_default());
        t.step(0.1, FlowType::Elephant, 0.8);
        t.step(0.9, FlowType::Elephant, 0.8);
        assert_eq!(t.accepts, 2, "strictly improving moves always accept");
        assert_eq!(t.best_util(), 0.9);
    }

    #[test]
    fn worse_moves_accepted_more_at_high_temperature() {
        let accept_rate = |temp: f64| {
            let cfg = SaConfig {
                initial_temp: temp,
                final_temp: temp * 0.99,
                total_iter_num: 10_000,
                ..SaConfig::paper_default()
            };
            let mut t = tuner(cfg);
            // Alternate good/bad measurements so each bad move is judged
            // against a freshly re-established 0.9 baseline.
            let mut worse_accepts = 0;
            for _ in 0..200 {
                t.step(0.9, FlowType::Elephant, 0.8); // always accepted
                let before = t.accepts;
                t.step(0.5, FlowType::Elephant, 0.8); // much worse
                worse_accepts += t.accepts - before;
            }
            worse_accepts as f64 / 200.0
        };
        let hot = accept_rate(90.0);
        let cold = accept_rate(10.0);
        assert!(
            hot > cold + 0.2,
            "hot {hot} should accept far more worse moves than cold {cold}"
        );
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let run = || {
            let mut t = tuner(SaConfig::paper_default());
            let mut cand = DcqcnParams::nvidia_default();
            for i in 0..30 {
                if let Some(n) = t.step((i as f64 * 0.618) % 1.0, FlowType::Elephant, 0.8) {
                    cand = n;
                }
            }
            cand
        };
        assert_eq!(run(), run());
    }
}
