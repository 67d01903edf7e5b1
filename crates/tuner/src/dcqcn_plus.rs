//! The DCQCN+ baseline (Gao et al., ICNP 2018).
//!
//! DCQCN+ is not a controller: it is a distributed NP/RP protocol change.
//! The NP stretches the CNP interval proportionally to the number of
//! concurrently congested flows and advertises that interval inside each
//! CNP; the RP scales its rate-increase steps and timers down by the
//! advertised factor. Both halves live in the data path:
//! `paraleon_dcqcn::IncastScaler` (NP side) and
//! `RpState::set_increase_scale` (RP side), wired together by the
//! simulator when `SimConfig::dcqcn_plus` is set.
//!
//! This scheme therefore never emits controller actions — which is
//! precisely the paper's point about why ACC and DCQCN+ cannot be
//! combined (incompatible monitoring/tuning loops) and why DCQCN+ leaves
//! switch-side ECN thresholds untuned.

use crate::{Observation, TuningAction, TuningScheme};

/// Marker scheme for DCQCN+ runs (adaptation happens in-network).
#[derive(Debug, Default, Clone)]
pub struct DcqcnPlusScheme;

impl DcqcnPlusScheme {
    /// Create the marker scheme. Remember to enable
    /// `SimConfig::dcqcn_plus` on the simulator side.
    pub fn new() -> Self {
        Self
    }
}

impl TuningScheme for DcqcnPlusScheme {
    fn on_interval(&mut self, _obs: &Observation) -> Option<TuningAction> {
        None
    }

    fn name(&self) -> &'static str {
        "DCQCN+"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraleon_monitor::MetricSample;
    use paraleon_sketch::FlowType;

    #[test]
    fn never_emits_controller_actions() {
        let mut s = DcqcnPlusScheme::new();
        let obs = Observation {
            now: 0,
            utility: 0.2,
            sample: MetricSample::new(0.2, 0.2, 0.2),
            dominant: FlowType::Mice,
            mu: 0.9,
            tuning_triggered: true,
            switch_obs: Vec::new(),
        };
        for _ in 0..5 {
            assert!(s.on_interval(&obs).is_none());
        }
    }
}
