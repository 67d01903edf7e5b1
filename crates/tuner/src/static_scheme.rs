//! Static parameter settings: the NVIDIA default, the expert Table I
//! values, or PARALEON-pretrained snapshots (the Figure 9 baselines).

use paraleon_dcqcn::DcqcnParams;

use crate::{Observation, TuningAction, TuningScheme};

/// A scheme that dispatches one fixed setting at startup and never
/// adapts.
#[derive(Clone)]
pub struct StaticScheme {
    params: DcqcnParams,
    label: &'static str,
    dispatched: bool,
}

impl StaticScheme {
    /// A fixed setting with a display label.
    pub fn new(params: DcqcnParams, label: &'static str) -> Self {
        Self {
            params,
            label,
            dispatched: false,
        }
    }

    /// The NVIDIA default setting.
    pub fn nvidia_default() -> Self {
        Self::new(DcqcnParams::nvidia_default(), "Default")
    }

    /// The expert setting from Table I.
    pub fn expert() -> Self {
        Self::new(DcqcnParams::expert(), "Expert")
    }

    /// The fixed setting.
    pub fn params(&self) -> &DcqcnParams {
        &self.params
    }
}

impl TuningScheme for StaticScheme {
    fn on_interval(&mut self, _obs: &Observation) -> Option<TuningAction> {
        if self.dispatched {
            None
        } else {
            self.dispatched = true;
            Some(TuningAction::Global(self.params))
        }
    }

    fn name(&self) -> &'static str {
        self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraleon_monitor::MetricSample;
    use paraleon_sketch::FlowType;

    #[test]
    fn dispatches_exactly_once() {
        let mut s = StaticScheme::expert();
        let obs = Observation {
            now: 0,
            utility: 0.1,
            sample: MetricSample::new(0.1, 0.1, 0.1),
            dominant: FlowType::Mice,
            mu: 0.9,
            tuning_triggered: true, // static schemes ignore triggers
            switch_obs: Vec::new(),
        };
        match s.on_interval(&obs) {
            Some(TuningAction::Global(p)) => assert_eq!(p, DcqcnParams::expert()),
            _ => panic!("first interval must dispatch"),
        }
        assert!(s.on_interval(&obs).is_none());
        assert_eq!(s.name(), "Expert");
    }
}
