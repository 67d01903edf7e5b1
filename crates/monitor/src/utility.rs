//! The network-wide utility function (Equation (1) of the paper):
//!
//! ```text
//! U = ω_TP · O_TP + ω_RTT · O_RTT + ω_PFC · O_PFC
//! ```
//!
//! * `O_TP`  — mean bandwidth utilization of active RNIC↔ToR uplinks;
//! * `O_RTT` — mean Swift-style normalized RTT, `base_path_delay / RTT`;
//! * `O_PFC` — `1 − λ̄_xoff / λ_MI`, the complement of the mean per-device
//!   PFC pause fraction. PFC gets its own term because RTT alone cannot
//!   distinguish "long but tolerable queues" from "upstream paused by an
//!   incast switch" (§III-C).
//!
//! All three terms lie in `[0, 1]`, so `U ∈ [0, 1]` for normalized
//! weights. Operators pick weights per scenario; the paper's NS3 default
//! is `(0.2, 0.5, 0.3)` and a throughput-sensitive (LLM) profile is
//! `(0.5, 0.2, 0.3)`.

use serde::Serialize;

/// Performance weights `(ω_TP, ω_RTT, ω_PFC)`; must sum to 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct UtilityWeights {
    /// Throughput weight ω_TP.
    pub tp: f64,
    /// RTT weight ω_RTT.
    pub rtt: f64,
    /// PFC weight ω_PFC.
    pub pfc: f64,
}

impl UtilityWeights {
    /// Build weights; panics unless each is non-negative and they sum
    /// to 1 (±1e-6).
    pub fn new(tp: f64, rtt: f64, pfc: f64) -> Self {
        assert!(tp >= 0.0 && rtt >= 0.0 && pfc >= 0.0);
        assert!(
            ((tp + rtt + pfc) - 1.0).abs() < 1e-6,
            "weights must sum to 1, got {}",
            tp + rtt + pfc
        );
        Self { tp, rtt, pfc }
    }

    /// The paper's NS3 default: (0.2, 0.5, 0.3).
    pub fn paper_default() -> Self {
        Self::new(0.2, 0.5, 0.3)
    }

    /// Throughput-sensitive profile for LLM training: (0.5, 0.2, 0.3).
    pub fn throughput_sensitive() -> Self {
        Self::new(0.5, 0.2, 0.3)
    }
}

/// One interval's utility-function inputs, each already normalized to
/// `[0, 1]` by the metric collection layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MetricSample {
    /// O_TP: mean active-uplink utilization.
    pub o_tp: f64,
    /// O_RTT: mean normalized RTT (base / runtime).
    pub o_rtt: f64,
    /// O_PFC: `1 − pause fraction`.
    pub o_pfc: f64,
}

impl MetricSample {
    /// Build a sample, clamping each term into `[0, 1]`. The clamp is a
    /// safety net, not a license: the collection layer is supposed to
    /// deliver in-range terms, so the audit feature flags any raw input
    /// the clamp would silently repair.
    pub fn new(o_tp: f64, o_rtt: f64, o_pfc: f64) -> Self {
        if paraleon_audit::enabled() {
            for (term, value) in [("O_TP", o_tp), ("O_RTT", o_rtt), ("O_PFC", o_pfc)] {
                paraleon_audit::check(value.is_finite() && (0.0..=1.0).contains(&value), || {
                    paraleon_audit::AuditViolation::UtilityTermBounds { term, value }
                });
            }
        }
        Self {
            o_tp: o_tp.clamp(0.0, 1.0),
            o_rtt: o_rtt.clamp(0.0, 1.0),
            o_pfc: o_pfc.clamp(0.0, 1.0),
        }
    }

    /// Evaluate Equation (1) under `w`.
    pub fn utility(&self, w: &UtilityWeights) -> f64 {
        w.tp * self.o_tp + w.rtt * self.o_rtt + w.pfc * self.o_pfc
    }

    /// Wire size of one device's metric upload (Table IV: three f32
    /// metrics per device).
    pub fn wire_size_bytes() -> usize {
        3 * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_weights_sum_to_one() {
        let w = UtilityWeights::paper_default();
        assert!((w.tp + w.rtt + w.pfc - 1.0).abs() < 1e-12);
        assert_eq!(w.rtt, 0.5);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_unnormalized_weights() {
        UtilityWeights::new(0.5, 0.5, 0.5);
    }

    #[test]
    fn utility_is_bounded() {
        let w = UtilityWeights::paper_default();
        assert_eq!(MetricSample::new(1.0, 1.0, 1.0).utility(&w), 1.0);
        assert_eq!(MetricSample::new(0.0, 0.0, 0.0).utility(&w), 0.0);
        let mid = MetricSample::new(0.5, 0.5, 0.5).utility(&w);
        assert!((mid - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weights_steer_preferences() {
        // A high-throughput / bad-RTT state scores better under the
        // throughput-sensitive profile than the RTT-heavy paper default.
        let s = MetricSample::new(0.95, 0.3, 0.9);
        let tp = s.utility(&UtilityWeights::throughput_sensitive());
        let rtt = s.utility(&UtilityWeights::paper_default());
        assert!(tp > rtt);
    }

    #[test]
    fn inputs_are_clamped() {
        // Out-of-range inputs are exactly what the auditor flags; this
        // test exercises the clamp itself, so count instead of panicking.
        paraleon_audit::set_panic_on_violation(false);
        let audit_before = paraleon_audit::violation_count();
        let s = MetricSample::new(1.5, -0.2, 0.5);
        assert_eq!(s.o_tp, 1.0);
        assert_eq!(s.o_rtt, 0.0);
        if paraleon_audit::compiled_in() {
            assert_eq!(
                paraleon_audit::violation_count() - audit_before,
                2,
                "audit must flag both out-of-range terms"
            );
        }
    }

    #[test]
    fn pfc_term_distinguishes_pause_states() {
        // Same TP and RTT, different pause ratios: the PFC term must
        // separate them (the paper's motivation for a third term).
        let w = UtilityWeights::paper_default();
        let benign = MetricSample::new(0.8, 0.6, 1.0);
        let stormy = MetricSample::new(0.8, 0.6, 0.4);
        assert!(benign.utility(&w) > stormy.utility(&w));
    }
}
