//! Property-based tests for the tuning schemes.

use proptest::prelude::*;

use paraleon_dcqcn::{DcqcnParams, ParamSpace};
use paraleon_monitor::MetricSample;
use paraleon_sketch::FlowType;
use paraleon_tuner::{
    AccConfig, AccScheme, Observation, ParaleonScheme, ParaleonSchemeConfig, SaConfig, SaTuner,
    SwitchLocalObs, TuningAction, TuningScheme,
};

/// Approximate SA episode length in monitor intervals: temperature
/// levels times iterations per level.
fn episode_len(sa: &SaConfig) -> u32 {
    let levels = ((sa.final_temp / sa.initial_temp).ln() / sa.cooling_rate.ln())
        .ceil()
        .max(1.0) as u32;
    levels * sa.total_iter_num
}

fn obs(utility: f64, mu: f64, elephant: bool, triggered: bool) -> Observation {
    Observation {
        now: 0,
        utility,
        sample: MetricSample::new(utility, utility, 1.0),
        dominant: if elephant {
            FlowType::Elephant
        } else {
            FlowType::Mice
        },
        mu,
        tuning_triggered: triggered,
        switch_obs: vec![SwitchLocalObs {
            switch_index: 0,
            tx_utilization: utility,
            marking_rate: 1.0 - utility,
            queue_frac: 0.5,
        }],
    }
}

proptest! {
    /// Every SA candidate stays inside the parameter space, for any
    /// utility stream and any guidance inputs.
    #[test]
    fn sa_candidates_always_in_bounds(
        utilities in prop::collection::vec(0.0f64..1.0, 1..120),
        mus in prop::collection::vec(0.0f64..1.0, 1..120),
        elephant in any::<bool>(),
        seed in 0u64..500,
    ) {
        let space = ParamSpace::standard();
        let mut t = SaTuner::new(
            space.clone(),
            SaConfig::paper_default(),
            DcqcnParams::nvidia_default(),
            seed,
        );
        let dom = if elephant { FlowType::Elephant } else { FlowType::Mice };
        for (u, mu) in utilities.iter().zip(mus.iter().cycle()) {
            match t.step(*u, dom, *mu) {
                Some(p) => {
                    for spec in space.iter() {
                        let v = p.get(spec.id);
                        prop_assert!(v >= spec.min && v <= spec.max);
                    }
                    prop_assert!(p.k_min <= p.k_max);
                }
                None => break,
            }
        }
        // best() is also a valid setting.
        let best = t.best();
        for spec in space.iter() {
            let v = best.get(spec.id);
            prop_assert!(v >= spec.min && v <= spec.max);
        }
    }

    /// The best utility recorded never decreases across an episode.
    #[test]
    fn sa_best_is_monotone(
        utilities in prop::collection::vec(0.0f64..1.0, 1..150),
        seed in 0u64..500,
    ) {
        let mut t = SaTuner::new(
            ParamSpace::standard(),
            SaConfig::paper_default(),
            DcqcnParams::nvidia_default(),
            seed,
        );
        let mut last_best = f64::NEG_INFINITY;
        for u in utilities {
            if t.step(u, FlowType::Elephant, 0.8).is_none() {
                break;
            }
            prop_assert!(t.best_util() >= last_best);
            prop_assert!(t.best_util() <= 1.0 + 1e-9);
            last_best = t.best_util();
        }
    }

    /// ParaleonScheme never dispatches while idle without a trigger, and
    /// episodes always terminate within the configured budget.
    #[test]
    fn scheme_episodes_terminate(
        utilities in prop::collection::vec(0.0f64..1.0, 1..50),
        seed in 0u64..200,
    ) {
        let cfg = ParaleonSchemeConfig {
            sa: SaConfig {
                total_iter_num: 4,
                cooling_rate: 0.5,
                ..SaConfig::paper_default()
            },
            seed,
            eval_intervals: 2,
        };
        let budget = 2 * (episode_len(&cfg.sa) + 4) * cfg.eval_intervals;
        let mut s = ParaleonScheme::new(cfg);
        // Idle phase: no dispatches without a trigger.
        for u in &utilities {
            prop_assert!(s.on_interval(&obs(*u, 0.7, true, false)).is_none());
        }
        // Trigger once; the episode must end within budget.
        s.on_interval(&obs(0.5, 0.7, true, true));
        let mut rounds = 0u32;
        while s.tuning() {
            s.on_interval(&obs(0.5, 0.7, true, false));
            rounds += 1;
            prop_assert!(rounds <= budget, "episode exceeded {budget} rounds");
        }
        prop_assert_eq!(s.episodes, 1);
    }

    /// ACC actions always address existing switches with in-bounds ECN
    /// settings and never touch RNIC parameters.
    #[test]
    fn acc_actions_are_well_formed(
        utils in prop::collection::vec(0.0f64..1.0, 1..60),
        n_switches in 1usize..6,
        seed in 0u64..200,
    ) {
        let space = ParamSpace::standard();
        let mut acc = AccScheme::new(
            AccConfig { seed },
            DcqcnParams::nvidia_default(),
        );
        for u in utils {
            let mut o = obs(u, 0.6, true, false);
            o.switch_obs = (0..n_switches)
                .map(|i| SwitchLocalObs {
                    switch_index: i,
                    tx_utilization: u,
                    marking_rate: (1.0 - u) / 2.0,
                    queue_frac: u / 2.0,
                })
                .collect();
            match acc.on_interval(&o) {
                Some(TuningAction::PerSwitchEcn(v)) => {
                    prop_assert_eq!(v.len(), n_switches);
                    let d = DcqcnParams::nvidia_default();
                    for (idx, p) in v {
                        prop_assert!(idx < n_switches);
                        prop_assert!(p.k_min <= p.k_max);
                        prop_assert!(p.k_min >= space.spec(paraleon_dcqcn::ParamId::KMin).min);
                        prop_assert!(p.k_max <= space.spec(paraleon_dcqcn::ParamId::KMax).max);
                        prop_assert_eq!(p.ai_rate, d.ai_rate);
                        prop_assert_eq!(p.hai_rate, d.hai_rate);
                        prop_assert_eq!(p.rate_reduce_monitor_period, d.rate_reduce_monitor_period);
                    }
                }
                Some(TuningAction::Global(_)) => prop_assert!(false, "ACC is per-switch only"),
                None => {}
            }
        }
    }
}
