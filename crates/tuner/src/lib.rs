//! Performance-oriented tuning (paper §III-C): the improved simulated-
//! annealing search over the full DCQCN parameter vector, plus every
//! tuning baseline the paper compares against.
//!
//! All tuners implement [`TuningScheme`]: once per monitor interval the
//! closed loop hands them an [`Observation`] (utility value, metric
//! sample, dominant flow type, per-switch local state, trigger flag) and
//! they may answer with a [`TuningAction`] to dispatch. Every scheme is
//! `Clone` (the [`CloneScheme`] supertrait makes a boxed one cloneable
//! too): a controller checkpoint is a clone of its scheme, whatever the
//! scheme keeps.
//!
//! * [`sa::SaTuner`] / [`paraleon_scheme::ParaleonScheme`] — PARALEON's
//!   own tuner: event-driven SA episodes with *guided randomness*
//!   (parameters steered toward the dominant flow type's friendly
//!   direction with probability `min(µ, η)`) and a *relaxed temperature*
//!   schedule for timely convergence.
//! * [`acc::AccScheme`] — the ACC baseline (SIGCOMM 2021): per-switch
//!   agents tuning **only** ECN thresholds from **local** observations,
//!   with the published DRL agent replaced by tabular double-Q-learning
//!   over a discretised action space (see DESIGN.md §4 for why this
//!   preserves the comparison).
//! * [`dcqcn_plus::DcqcnPlusScheme`] — the DCQCN+ baseline (ICNP 2018):
//!   the adaptation is a distributed NP/RP protocol implemented inside
//!   the simulator (`SimConfig::dcqcn_plus`); the scheme itself holds
//!   parameters static and documents that coupling.
//! * [`static_scheme::StaticScheme`] — fixed settings (NVIDIA default,
//!   expert Table I, or PARALEON-pretrained snapshots).

mod acc;
mod dcqcn_plus;
mod paraleon_scheme;
mod sa;
mod static_scheme;

pub use acc::{AccConfig, AccScheme};
pub use dcqcn_plus::DcqcnPlusScheme;
pub use paraleon_scheme::{ParaleonScheme, ParaleonSchemeConfig};
pub use sa::{SaConfig, SaTuner};
pub use static_scheme::StaticScheme;

use paraleon_dcqcn::DcqcnParams;
use paraleon_monitor::MetricSample;
use paraleon_sketch::FlowType;

/// Nanoseconds (simulator clock).
pub type Nanos = u64;

/// One switch's locally visible state (the ACC agent inputs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchLocalObs {
    /// Which switch this is (stable index, `0..n_switches`). Under fault
    /// injection `Observation::switch_obs` only carries the switches
    /// that are still reachable, so positions in the vector are *not* a
    /// stable identity — this field is.
    pub switch_index: usize,
    /// Mean egress utilization, `[0, 1]`.
    pub tx_utilization: f64,
    /// ECN marking rate, `[0, 1]`.
    pub marking_rate: f64,
    /// Buffer occupancy fraction, `[0, 1]`.
    pub queue_frac: f64,
}

/// Everything a tuner can see at the end of one monitor interval.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Interval end time.
    pub now: Nanos,
    /// Utility function value (Equation (1)) under the operator weights.
    pub utility: f64,
    /// The three normalized utility inputs.
    pub sample: MetricSample,
    /// Dominant flow type from the network-wide FSD.
    pub dominant: FlowType,
    /// Its proportion µ.
    pub mu: f64,
    /// Whether the KL change detector fired this interval.
    pub tuning_triggered: bool,
    /// Per-switch local observations.
    pub switch_obs: Vec<SwitchLocalObs>,
}

/// What a tuner asks the fabric to change.
#[derive(Debug, Clone, PartialEq)]
pub enum TuningAction {
    /// Dispatch one setting to every RNIC and switch (PARALEON's
    /// homogeneous centralized model).
    Global(DcqcnParams),
    /// Override only switch-side ECN thresholds, per switch (ACC's
    /// per-agent model): `(switch_index, params)`.
    PerSwitchEcn(Vec<(usize, DcqcnParams)>),
}

/// Control-plane feedback from the dispatch path (the guardrail in
/// `paraleon-core`) back into the tuner: candidates can be refused
/// before they reach the fabric, undone after they collapse it, or the
/// whole search can be frozen.
#[derive(Debug, Clone, PartialEq)]
pub enum TuningFeedback {
    /// The candidate failed validation and was never dispatched;
    /// `deployed` is what actually remains active in the fabric.
    Rejected {
        /// The setting still deployed.
        deployed: DcqcnParams,
    },
    /// A dispatched candidate collapsed the fabric; the guardrail
    /// restored `restored` (the last-known-good snapshot).
    RolledBack {
        /// The setting now deployed.
        restored: DcqcnParams,
    },
    /// Tuning is frozen (safe mode): `fallback` was deployed and any
    /// action the scheme emits will be suppressed until further notice.
    Frozen {
        /// The safe fallback setting now deployed.
        fallback: DcqcnParams,
    },
    /// Safe mode ended; the scheme may tune again.
    Unfrozen,
}

/// Object-safe cloning for boxed schemes, implemented for every
/// `Clone` scheme: a controller checkpoint clones its
/// `Box<dyn TuningScheme>` like any other field.
pub trait CloneScheme {
    /// A boxed deep copy (episode state, RNG stream position, tables).
    fn clone_box(&self) -> Box<dyn TuningScheme>;
}

impl<T: TuningScheme + Clone + 'static> CloneScheme for T {
    fn clone_box(&self) -> Box<dyn TuningScheme> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn TuningScheme> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A pluggable DCQCN tuning scheme driven once per monitor interval.
pub trait TuningScheme: CloneScheme + Send {
    /// Consume one interval's observation; optionally emit an action.
    fn on_interval(&mut self, obs: &Observation) -> Option<TuningAction>;

    /// Scheme name for experiment tables.
    fn name(&self) -> &'static str;

    /// Dispatch-path feedback (rejection, rollback, freeze). Default:
    /// ignored — schemes without episode state need nothing here.
    fn on_feedback(&mut self, _feedback: &TuningFeedback) {}

    /// Bytes the controller dispatches per action (Table IV accounting):
    /// default = one parameter vector.
    fn dispatch_bytes(&self, action: &TuningAction) -> u64 {
        match action {
            TuningAction::Global(p) => p.wire_size_bytes() as u64,
            TuningAction::PerSwitchEcn(v) => v.len() as u64 * 3 * 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_bytes_accounting() {
        #[derive(Clone)]
        struct Dummy;
        impl TuningScheme for Dummy {
            fn on_interval(&mut self, _o: &Observation) -> Option<TuningAction> {
                None
            }
            fn name(&self) -> &'static str {
                "dummy"
            }
        }
        let d = Dummy;
        let g = TuningAction::Global(DcqcnParams::nvidia_default());
        assert_eq!(d.dispatch_bytes(&g), 13 * 8);
        let p = TuningAction::PerSwitchEcn(vec![
            (0, DcqcnParams::nvidia_default()),
            (1, DcqcnParams::nvidia_default()),
        ]);
        assert_eq!(d.dispatch_bytes(&p), 48);
    }
}
