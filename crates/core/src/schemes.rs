//! Factories for every tuning scheme and monitoring scheme in the
//! paper's evaluation, so harness code can sweep them uniformly.

use paraleon_dcqcn::DcqcnParams;
use paraleon_monitor::{
    FsdMonitor, NaiveSketchMonitor, Nanos as MonNanos, NetFlowMonitor, ParaleonMonitor,
    SketchReadings,
};
use paraleon_netsim::SimConfig;
use paraleon_sketch::Fsd;
use paraleon_tuner::{
    AccConfig, AccScheme, DcqcnPlusScheme, ParaleonScheme, ParaleonSchemeConfig, SaConfig,
    StaticScheme, TuningScheme,
};

/// The tuning schemes compared throughout §IV.
#[derive(Debug, Clone)]
pub enum SchemeKind {
    /// Static NVIDIA default parameters.
    Default,
    /// Static expert parameters (Table I).
    Expert,
    /// Any fixed setting with a label (e.g. the Figure 9 pretrained
    /// snapshots).
    Static(DcqcnParams, &'static str),
    /// The DCQCN+ in-network baseline (enables `SimConfig::dcqcn_plus`).
    DcqcnPlus,
    /// The ACC per-switch ECN baseline.
    Acc,
    /// PARALEON with the paper's improved SA (Table III schedule).
    Paraleon,
    /// PARALEON with a custom SA schedule and per-candidate evaluation
    /// length (e.g. a shortened episode for reduced-scale experiment
    /// runs).
    ParaleonSa(SaConfig, u32),
    /// PARALEON driving *naive* SA (Figure 12 ablation).
    ParaleonNaiveSa,
}

impl SchemeKind {
    /// Display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            SchemeKind::Default => "Default",
            SchemeKind::Expert => "Expert",
            SchemeKind::Static(_, label) => label,
            SchemeKind::DcqcnPlus => "DCQCN+",
            SchemeKind::Acc => "ACC",
            SchemeKind::Paraleon | SchemeKind::ParaleonSa(..) => "PARALEON",
            SchemeKind::ParaleonNaiveSa => "naive_SA",
        }
    }

    /// The initial parameter setting the fabric boots with.
    pub(crate) fn initial_params(&self) -> DcqcnParams {
        match self {
            SchemeKind::Expert => DcqcnParams::expert(),
            SchemeKind::Static(p, _) => *p,
            _ => DcqcnParams::nvidia_default(),
        }
    }

    /// Adjust the simulator configuration (DCQCN+ flips its protocol
    /// flag; everyone gets their initial parameters installed).
    pub(crate) fn apply_sim_config(&self, cfg: &mut SimConfig) {
        cfg.dcqcn = self.initial_params();
        cfg.dcqcn_plus = matches!(self, SchemeKind::DcqcnPlus);
    }

    /// Build the controller-side tuner.
    pub(crate) fn build_tuner(&self, seed: u64) -> Box<dyn TuningScheme> {
        match self {
            SchemeKind::Default => Box::new(StaticScheme::nvidia_default()),
            SchemeKind::Expert => Box::new(StaticScheme::expert()),
            SchemeKind::Static(p, label) => Box::new(StaticScheme::new(*p, label)),
            SchemeKind::DcqcnPlus => Box::new(DcqcnPlusScheme::new()),
            SchemeKind::Acc => Box::new(AccScheme::new(
                AccConfig { seed },
                DcqcnParams::nvidia_default(),
            )),
            SchemeKind::Paraleon => Box::new(ParaleonScheme::new(ParaleonSchemeConfig {
                sa: SaConfig::paper_default(),
                seed,
                eval_intervals: 1,
            })),
            SchemeKind::ParaleonSa(sa, eval_intervals) => {
                Box::new(ParaleonScheme::new(ParaleonSchemeConfig {
                    sa: sa.clone(),
                    seed,
                    eval_intervals: *eval_intervals,
                }))
            }
            SchemeKind::ParaleonNaiveSa => Box::new(ParaleonScheme::new(ParaleonSchemeConfig {
                sa: SaConfig::naive(),
                seed,
                eval_intervals: 1,
            })),
        }
    }

    /// Whether this scheme adapts at runtime (for harness reporting).
    pub fn is_adaptive(&self) -> bool {
        matches!(
            self,
            SchemeKind::Acc
                | SchemeKind::Paraleon
                | SchemeKind::ParaleonSa(..)
                | SchemeKind::ParaleonNaiveSa
        )
    }
}

/// The monitoring schemes compared in Figures 10–11.
#[derive(Debug, Clone)]
pub enum MonitorKind {
    /// PARALEON: sliding-window ternary states over deduped sketches.
    Paraleon,
    /// Naive Elastic Sketch: single-interval binary classification.
    NaiveSketch,
    /// NetFlow: 1:100 packet sampling, 1 s export.
    NetFlow,
    /// No FSD available at all (SA runs unguided).
    NoFsd,
}

impl MonitorKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            MonitorKind::Paraleon => "PARALEON",
            MonitorKind::NaiveSketch => "ElasticSketch",
            MonitorKind::NetFlow => "NetFlow",
            MonitorKind::NoFsd => "No FSD",
        }
    }

    /// Build the controller-side FSD monitor.
    pub fn build(&self) -> Box<dyn FsdMonitor> {
        match self {
            MonitorKind::Paraleon => Box::new(ParaleonMonitor::default()),
            MonitorKind::NaiveSketch => Box::new(NaiveSketchMonitor::default()),
            MonitorKind::NetFlow => Box::new(NetFlowMonitor::default()),
            MonitorKind::NoFsd => Box::new(NoFsdMonitor),
        }
    }

    /// Whether the sim should disable TOS dedup (the naive Elastic Sketch
    /// baseline measures with overlapping sketches, Keypoint 1 off).
    pub(crate) fn wants_tos_dedup(&self) -> bool {
        !matches!(self, MonitorKind::NaiveSketch)
    }
}

/// The "No FSD" monitoring baseline: reports nothing, uploads nothing.
#[derive(Debug, Default)]
pub(crate) struct NoFsdMonitor;

impl FsdMonitor for NoFsdMonitor {
    fn on_interval(&mut self, _readings: &SketchReadings, _now: MonNanos) -> Option<Fsd> {
        None
    }

    fn uploaded_bytes(&self) -> u64 {
        0
    }

    fn name(&self) -> &'static str {
        "No FSD"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_names_are_distinct() {
        let kinds = [
            SchemeKind::Default,
            SchemeKind::Expert,
            SchemeKind::DcqcnPlus,
            SchemeKind::Acc,
            SchemeKind::Paraleon,
            SchemeKind::ParaleonNaiveSa,
        ];
        let mut names: Vec<_> = kinds.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len());
    }

    #[test]
    fn dcqcn_plus_flips_the_protocol_flag() {
        let mut cfg = SimConfig::default();
        SchemeKind::DcqcnPlus.apply_sim_config(&mut cfg);
        assert!(cfg.dcqcn_plus);
        SchemeKind::Paraleon.apply_sim_config(&mut cfg);
        assert!(!cfg.dcqcn_plus);
    }

    #[test]
    fn expert_scheme_boots_with_expert_params() {
        let mut cfg = SimConfig::default();
        SchemeKind::Expert.apply_sim_config(&mut cfg);
        assert_eq!(cfg.dcqcn, DcqcnParams::expert());
    }

    #[test]
    fn naive_sketch_monitor_disables_dedup() {
        assert!(!MonitorKind::NaiveSketch.wants_tos_dedup());
        assert!(MonitorKind::Paraleon.wants_tos_dedup());
        assert!(MonitorKind::NetFlow.wants_tos_dedup());
    }

    #[test]
    fn no_fsd_monitor_reports_nothing() {
        let mut m = NoFsdMonitor;
        assert!(m.on_interval(&[], 0).is_none());
        assert_eq!(m.uploaded_bytes(), 0);
    }

    #[test]
    fn adaptive_classification() {
        assert!(SchemeKind::Paraleon.is_adaptive());
        assert!(SchemeKind::Acc.is_adaptive());
        assert!(!SchemeKind::Expert.is_adaptive());
        assert!(!SchemeKind::DcqcnPlus.is_adaptive());
    }
}
