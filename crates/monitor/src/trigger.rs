//! The tuning trigger: KL divergence between successive network-wide
//! flow size distributions.
//!
//! PARALEON computes `KL(R_t ‖ R_{t−1})` at sub-second cadence; when it
//! exceeds the operator threshold θ (paper default 0.01), the network-
//! wide traffic pattern has changed significantly and a tuning episode
//! starts (§III-A). Here `R` is the `[mice, elephant]` flow-mass share
//! of the FSD, not its byte shares or size histogram.

use paraleon_sketch::Fsd;

/// Detects significant traffic-pattern change.
///
/// `Clone` so a controller can checkpoint the detector alongside the
/// rest of its state and restore it after a crash.
#[derive(Debug, Clone)]
pub struct ChangeDetector {
    theta: f64,
    prev: Option<Fsd>,
    /// Number of observations so far.
    pub observations: u64,
    /// Number of triggers fired.
    pub triggers: u64,
}

impl ChangeDetector {
    /// Create with threshold θ.
    pub fn new(theta: f64) -> Self {
        assert!(theta >= 0.0);
        Self {
            theta,
            prev: None,
            observations: 0,
            triggers: 0,
        }
    }

    /// Observe the latest network-wide FSD; returns `true` when tuning
    /// should be (re)triggered. The first observation never triggers
    /// (there is no previous distribution to compare against).
    ///
    /// The divergence is computed over the `[mice, elephant]` flow-mass
    /// share distribution (`Fsd::kl_shares`): flow composition is the
    /// tuner's decision variable (`Fsd::dominant` counts flows), and
    /// unlike the raw size histogram it is stationary for a stable
    /// workload (long-lived flows crossing log-size bins would otherwise
    /// read as spurious change). Byte shares alone never fire it.
    pub fn observe(&mut self, fsd: &Fsd) -> bool {
        self.observations += 1;
        let fired = match &self.prev {
            None => false,
            Some(prev) => {
                let kl = fsd.kl_shares(prev);
                let fired = kl > self.theta;
                if fired {
                    paraleon_telemetry::event(paraleon_telemetry::Event::KlTrigger {
                        kl,
                        theta: self.theta,
                    });
                }
                fired
            }
        };
        self.prev = Some(fsd.clone());
        if fired {
            self.triggers += 1;
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraleon_sketch::FsdBuilder;

    const MB: u64 = 1 << 20;

    fn elephants() -> Fsd {
        let mut b = FsdBuilder::new();
        for _ in 0..10 {
            b.add_flow(20 * MB, 1.0);
        }
        b.build()
    }

    fn mice() -> Fsd {
        let mut b = FsdBuilder::new();
        for _ in 0..100 {
            b.add_flow(4_000, 0.0);
        }
        b.build()
    }

    #[test]
    fn first_observation_never_triggers() {
        let mut d = ChangeDetector::new(0.01);
        assert!(!d.observe(&elephants()));
        assert_eq!(d.triggers, 0);
    }

    #[test]
    fn stable_traffic_does_not_trigger() {
        let mut d = ChangeDetector::new(0.01);
        d.observe(&elephants());
        for _ in 0..10 {
            assert!(!d.observe(&elephants()));
        }
    }

    #[test]
    fn workload_shift_triggers() {
        let mut d = ChangeDetector::new(0.01);
        d.observe(&elephants());
        assert!(d.observe(&mice()), "elephant→mice shift must trigger");
        assert_eq!(d.triggers, 1);
        // And shifting back triggers again.
        assert!(d.observe(&elephants()));
    }

    #[test]
    fn byte_shift_without_composition_change_does_not_trigger() {
        // 10 elephants and 90 mice in both intervals, but the bytes move
        // from the elephants to the mice.
        let fsd = |elephant_bytes: u64, mouse_bytes: u64| {
            let mut b = FsdBuilder::new();
            (0..10).for_each(|_| b.add_flow(elephant_bytes, 1.0));
            (0..90).for_each(|_| b.add_flow(mouse_bytes, 0.0));
            b.build()
        };
        let (before, after) = (fsd(20 * MB, 4_000), fsd(2 * MB, 40_000));
        assert!(before.elephant_share() - after.elephant_share() > 0.1);
        assert_eq!(before.elephant_flow_share(), after.elephant_flow_share());
        let mut d = ChangeDetector::new(0.01);
        d.observe(&before);
        assert!(!d.observe(&after), "byte shares alone must not trigger");
        assert_eq!(d.triggers, 0);
    }

    #[test]
    fn threshold_gates_sensitivity() {
        // A slightly perturbed distribution (one extra mouse among 500
        // elephants): below a loose θ, above a strict θ = 0.
        let mut base = FsdBuilder::new();
        for _ in 0..500 {
            base.add_flow(20 << 20, 1.0);
        }
        let base = base.build();
        let mut slightly_different = base.clone();
        let mut b = FsdBuilder::new();
        b.add_flow(4_000, 0.0);
        slightly_different.merge(&b.build());

        let mut loose = ChangeDetector::new(0.5);
        loose.observe(&base);
        assert!(!loose.observe(&slightly_different));

        let mut strict = ChangeDetector::new(0.0);
        strict.observe(&base);
        assert!(strict.observe(&slightly_different));
    }
}
