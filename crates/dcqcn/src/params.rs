//! The DCQCN parameter space: every tunable knob at RNICs (RP/NP) and
//! switches (CP), their bounds, presets, and empirical tuning directions.
//!
//! The set mirrors the NVIDIA DCQCN parameter documentation the paper cites
//! (\[21\]) and Table I of the paper. Parameters fall into the paper's four
//! RNIC-side categories — *Rate Increase*, *Rate Decrease*, *Alpha Update*,
//! *Notification Point* — plus the switch-side ECN thresholds.
//!
//! For each parameter the paper's §III-C derives a **throughput-friendly**
//! direction (the sign in which moving the parameter tends to raise
//! throughput at the cost of queueing delay) and an empirical step size
//! `s_p`; both are encoded in [`ParamSpec`] and consumed by the guided
//! simulated-annealing tuner.

use serde::{Deserialize, Serialize};

/// Identifier for one tunable DCQCN parameter.
///
/// The order of variants defines the canonical layout of the parameter
/// vector used by tuners ([`DcqcnParams::to_vector`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ParamId {
    // --- RP: Rate Increase ---
    /// Additive-increase step (Mbps) applied to the target rate in the
    /// additive-increase stage.
    AiRate,
    /// Hyper-increase step (Mbps) applied in the hyper-increase stage.
    HaiRate,
    /// Rate-increase timer period (µs); each expiry advances the increase
    /// state machine (`rpg_time_reset` in NVIDIA terms).
    RpgTimeReset,
    /// Byte counter threshold (KB); every `rpg_byte_reset` bytes sent
    /// advances the increase state machine (`rpg_byte_reset`).
    RpgByteReset,
    /// Number of timer/byte-counter expirations spent in fast recovery
    /// before moving to additive increase (`rpg_threshold`).
    RpgThreshold,
    // --- RP: Rate Decrease ---
    /// Minimum time between consecutive multiplicative decreases (µs)
    /// (`rate_reduce_monitor_period`).
    RateReduceMonitorPeriod,
    /// Minimum sending rate (Mbps) the RP will not cut below
    /// (`rpg_min_rate`).
    MinRate,
    // --- RP: Alpha Update ---
    /// Gain `g` of the congestion-estimate EWMA, expressed as `1/2^k`
    /// exponent `k` (`dce_tcp_g`; larger k = smaller gain = gentler cuts).
    AlphaGExp,
    /// Alpha decay timer period (µs) (`dce_tcp_rtt`): without CNPs, alpha
    /// decays every period.
    AlphaTimer,
    // --- NP ---
    /// Minimum spacing between CNPs generated for one flow (µs)
    /// (`min_time_between_cnps`).
    MinTimeBetweenCnps,
    // --- CP: ECN thresholds ---
    /// ECN marking lower threshold (KB): below it nothing is marked.
    KMin,
    /// ECN marking upper threshold (KB): above it everything is marked.
    KMax,
    /// Marking probability at `K_max` (dimensionless, 0..=1).
    PMax,
}

/// All tunable parameters in canonical vector order.
pub const ALL_PARAMS: [ParamId; 13] = [
    ParamId::AiRate,
    ParamId::HaiRate,
    ParamId::RpgTimeReset,
    ParamId::RpgByteReset,
    ParamId::RpgThreshold,
    ParamId::RateReduceMonitorPeriod,
    ParamId::MinRate,
    ParamId::AlphaGExp,
    ParamId::AlphaTimer,
    ParamId::MinTimeBetweenCnps,
    ParamId::KMin,
    ParamId::KMax,
    ParamId::PMax,
];

impl ParamId {
    /// Index of this parameter in the canonical vector layout.
    pub fn index(self) -> usize {
        ALL_PARAMS.iter().position(|&p| p == self).expect("listed")
    }

    /// Human-readable name matching the paper / NVIDIA documentation.
    pub fn name(self) -> &'static str {
        match self {
            ParamId::AiRate => "ai_rate",
            ParamId::HaiRate => "hai_rate",
            ParamId::RpgTimeReset => "rpg_time_reset",
            ParamId::RpgByteReset => "rpg_byte_reset",
            ParamId::RpgThreshold => "rpg_threshold",
            ParamId::RateReduceMonitorPeriod => "rate_reduce_monitor_period",
            ParamId::MinRate => "rpg_min_rate",
            ParamId::AlphaGExp => "dce_tcp_g_exp",
            ParamId::AlphaTimer => "dce_tcp_rtt",
            ParamId::MinTimeBetweenCnps => "min_time_between_cnps",
            ParamId::KMin => "k_min",
            ParamId::KMax => "k_max",
            ParamId::PMax => "p_max",
        }
    }

    /// True for switch-side (CP) parameters, false for RNIC-side ones.
    pub fn is_switch_side(self) -> bool {
        matches!(self, ParamId::KMin | ParamId::KMax | ParamId::PMax)
    }

    /// The [`DcqcnParams`] struct field holding this parameter — the key
    /// the derived `Serialize` emits (differs from [`ParamId::name`] for
    /// the parameters whose NVIDIA doc name is not the field name).
    pub fn json_field(self) -> &'static str {
        match self {
            ParamId::MinRate => "min_rate",
            ParamId::AlphaGExp => "alpha_g_exp",
            ParamId::AlphaTimer => "alpha_timer",
            other => other.name(),
        }
    }
}

/// Direction in which moving a parameter favours throughput over delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Increasing the value is throughput-friendly (decreasing is
    /// delay-friendly).
    Increase,
    /// Decreasing the value is throughput-friendly.
    Decrease,
}

impl Direction {
    /// Signed unit step for the throughput-friendly direction.
    pub fn sign(self) -> f64 {
        match self {
            Direction::Increase => 1.0,
            Direction::Decrease => -1.0,
        }
    }
}

/// Static description of one tunable parameter: bounds, empirical step and
/// throughput-friendly direction (paper §III-C, "Observations on parameter
/// impacts").
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ParamSpec {
    /// Which parameter this describes.
    pub id: ParamId,
    /// Inclusive lower bound in the parameter's natural unit.
    pub min: f64,
    /// Inclusive upper bound in the parameter's natural unit.
    pub max: f64,
    /// Empirical step size `s_p` used by the guided SA mutation.
    pub step: f64,
    /// Direction in which the parameter is throughput-friendly.
    pub throughput_friendly: Direction,
    /// If true, the value is rounded to an integer after mutation.
    pub integer: bool,
}

impl ParamSpec {
    /// Clamp `v` into this parameter's bounds (and round if integral).
    pub fn clamp(&self, v: f64) -> f64 {
        let v = v.clamp(self.min, self.max);
        if self.integer {
            v.round()
        } else {
            v
        }
    }
}

/// The complete tunable parameter space: one [`ParamSpec`] per parameter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParamSpace {
    specs: Vec<ParamSpec>,
}

impl Default for ParamSpace {
    fn default() -> Self {
        Self::standard()
    }
}

impl ParamSpace {
    /// The standard space used throughout the reproduction. Bounds span the
    /// NVIDIA defaults and the expert values in Table I with generous
    /// headroom; steps are the empirical `s_p` values.
    pub fn standard() -> Self {
        use Direction::*;
        use ParamId::*;
        // Empirical steps s_p sized at roughly 1/16 of each parameter's
        // range so a guided episode can traverse the space within its
        // round budget (the temperature boost coarsens early steps
        // further).
        let specs = vec![
            // Larger AI step injects faster => throughput-friendly up.
            spec(AiRate, 1.0, 400.0, 25.0, Increase, false),
            spec(HaiRate, 10.0, 2000.0, 120.0, Increase, false),
            // Shorter increase timer recovers rate faster.
            spec(RpgTimeReset, 5.0, 1500.0, 90.0, Decrease, true),
            // Smaller byte counter advances the increase FSM sooner.
            spec(RpgByteReset, 16.0, 4096.0, 250.0, Decrease, true),
            // Fewer fast-recovery rounds reaches hyper-increase sooner.
            spec(RpgThreshold, 1.0, 10.0, 1.0, Decrease, true),
            // Longer decrease-monitor period means fewer rate cuts.
            spec(RateReduceMonitorPeriod, 2.0, 500.0, 30.0, Increase, true),
            spec(MinRate, 1.0, 1000.0, 60.0, Increase, false),
            // Bigger exponent = smaller alpha gain = gentler cuts.
            spec(AlphaGExp, 4.0, 12.0, 1.0, Increase, true),
            // Faster alpha decay forgets congestion sooner.
            spec(AlphaTimer, 1.0, 500.0, 30.0, Decrease, true),
            // Sparser CNPs cut rate less often.
            spec(MinTimeBetweenCnps, 0.0, 500.0, 30.0, Increase, true),
            // Higher ECN thresholds allow deeper queues before marking.
            spec(KMin, 5.0, 3200.0, 200.0, Increase, false),
            spec(KMax, 30.0, 12800.0, 800.0, Increase, false),
            // Lower marking ceiling marks less aggressively.
            spec(PMax, 0.01, 1.0, 0.06, Decrease, false),
        ];
        debug_assert_eq!(specs.len(), ALL_PARAMS.len());
        Self { specs }
    }

    /// The spec for a given parameter.
    pub fn spec(&self, id: ParamId) -> &ParamSpec {
        &self.specs[id.index()]
    }

    /// Iterate over all parameter specs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &ParamSpec> {
        self.specs.iter()
    }

    /// Number of tunable parameters.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the space is empty (never true for the standard space).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Clamp every component of `params` into its bounds in place.
    pub fn clamp(&self, params: &mut DcqcnParams) {
        for s in &self.specs {
            params.set(s.id, s.clamp(params.get(s.id)));
        }
    }
}

fn spec(
    id: ParamId,
    min: f64,
    max: f64,
    step: f64,
    throughput_friendly: Direction,
    integer: bool,
) -> ParamSpec {
    ParamSpec {
        id,
        min,
        max,
        step,
        throughput_friendly,
        integer,
    }
}

/// A complete DCQCN parameter setting for both RNICs and switches.
///
/// Units follow the NVIDIA documentation: rates in Mbps, times in µs,
/// byte counters and ECN thresholds in KB, probabilities dimensionless.
///
/// The struct is `Copy` (13 × f64 + bool, no heap): per-flow RP/NP state
/// embeds its own parameter block by plain bitwise copy, so admitting a
/// flow or dispatching a tuning round never allocates or clones.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DcqcnParams {
    /// Additive-increase step, Mbps.
    pub ai_rate: f64,
    /// Hyper-increase step, Mbps.
    pub hai_rate: f64,
    /// Rate-increase timer period, µs.
    pub rpg_time_reset: f64,
    /// Byte-counter threshold, KB.
    pub rpg_byte_reset: f64,
    /// Fast-recovery rounds before additive increase.
    pub rpg_threshold: f64,
    /// Minimum time between rate decreases, µs.
    pub rate_reduce_monitor_period: f64,
    /// Minimum rate, Mbps.
    pub min_rate: f64,
    /// Alpha EWMA gain exponent: g = 1 / 2^alpha_g_exp.
    pub alpha_g_exp: f64,
    /// Alpha decay timer, µs.
    pub alpha_timer: f64,
    /// Minimum time between CNPs per flow, µs.
    pub min_time_between_cnps: f64,
    /// ECN lower threshold, KB.
    pub k_min: f64,
    /// ECN upper threshold, KB.
    pub k_max: f64,
    /// Marking probability at `k_max`.
    pub p_max: f64,
    /// `clamp_tgt_rate`: if true, the target rate is clamped to the
    /// current rate on *every* decrease (pure SIGCOMM'15 DCQCN); if false
    /// (the NVIDIA firmware default) it is clamped only on the first CNP
    /// of a congestion episode, so fast recovery springs back toward the
    /// pre-congestion rate. Not part of the tuned vector.
    pub clamp_tgt_rate: bool,
}

impl Default for DcqcnParams {
    fn default() -> Self {
        Self::nvidia_default()
    }
}

impl DcqcnParams {
    /// The NVIDIA default setting the paper calls "default" (\[21\]),
    /// scaled for a 100 Gbps fabric.
    pub const fn nvidia_default() -> Self {
        Self {
            ai_rate: 5.0,
            hai_rate: 50.0,
            rpg_time_reset: 300.0,
            rpg_byte_reset: 32.0,
            rpg_threshold: 5.0,
            rate_reduce_monitor_period: 4.0,
            min_rate: 1.0,
            alpha_g_exp: 8.0, // g = 1/256, the DCQCN paper's setting
            alpha_timer: 55.0,
            min_time_between_cnps: 4.0,
            k_min: 100.0,
            k_max: 400.0,
            p_max: 0.2,
            clamp_tgt_rate: false,
        }
    }

    /// The expert-tuned setting from Table I of the paper (parameters not
    /// listed there remain at their defaults).
    pub fn expert() -> Self {
        Self {
            ai_rate: 50.0,
            hai_rate: 150.0,
            rate_reduce_monitor_period: 80.0,
            min_time_between_cnps: 96.0,
            k_min: 1600.0,
            k_max: 6400.0,
            p_max: 0.2,
            ..Self::nvidia_default()
        }
    }

    /// Read a parameter by id.
    pub fn get(&self, id: ParamId) -> f64 {
        match id {
            ParamId::AiRate => self.ai_rate,
            ParamId::HaiRate => self.hai_rate,
            ParamId::RpgTimeReset => self.rpg_time_reset,
            ParamId::RpgByteReset => self.rpg_byte_reset,
            ParamId::RpgThreshold => self.rpg_threshold,
            ParamId::RateReduceMonitorPeriod => self.rate_reduce_monitor_period,
            ParamId::MinRate => self.min_rate,
            ParamId::AlphaGExp => self.alpha_g_exp,
            ParamId::AlphaTimer => self.alpha_timer,
            ParamId::MinTimeBetweenCnps => self.min_time_between_cnps,
            ParamId::KMin => self.k_min,
            ParamId::KMax => self.k_max,
            ParamId::PMax => self.p_max,
        }
    }

    /// Write a parameter by id.
    pub fn set(&mut self, id: ParamId, v: f64) {
        match id {
            ParamId::AiRate => self.ai_rate = v,
            ParamId::HaiRate => self.hai_rate = v,
            ParamId::RpgTimeReset => self.rpg_time_reset = v,
            ParamId::RpgByteReset => self.rpg_byte_reset = v,
            ParamId::RpgThreshold => self.rpg_threshold = v,
            ParamId::RateReduceMonitorPeriod => self.rate_reduce_monitor_period = v,
            ParamId::MinRate => self.min_rate = v,
            ParamId::AlphaGExp => self.alpha_g_exp = v,
            ParamId::AlphaTimer => self.alpha_timer = v,
            ParamId::MinTimeBetweenCnps => self.min_time_between_cnps = v,
            ParamId::KMin => self.k_min = v,
            ParamId::KMax => self.k_max = v,
            ParamId::PMax => self.p_max = v,
        }
    }

    /// Serialize to the canonical vector layout (for tuners).
    pub fn to_vector(&self) -> Vec<f64> {
        ALL_PARAMS.iter().map(|&p| self.get(p)).collect()
    }

    /// Deserialize from the canonical vector layout.
    pub fn from_vector(v: &[f64]) -> Self {
        assert_eq!(v.len(), ALL_PARAMS.len(), "parameter vector length");
        let mut p = Self::nvidia_default();
        for (i, &id) in ALL_PARAMS.iter().enumerate() {
            p.set(id, v[i]);
        }
        p
    }

    /// Ensure internal consistency constraints that the raw bounds cannot
    /// express: `k_min <= k_max`, `rpg_min_rate <= line rates`, etc.
    /// Call after any mutation.
    pub fn normalize(&mut self, space: &ParamSpace) {
        space.clamp(self);
        if self.k_min > self.k_max {
            std::mem::swap(&mut self.k_min, &mut self.k_max);
        }
    }

    /// Reconstruct from the [`Serialize`] representation (the vendored
    /// serde has no derived deserialization, so readers are hand-rolled).
    pub fn from_value(v: &serde::Value) -> Result<Self, String> {
        let field = |name: &str| {
            v.get(name)
                .and_then(serde::Value::as_f64)
                .ok_or_else(|| format!("DcqcnParams: missing `{name}`"))
        };
        let mut p = Self::nvidia_default();
        for id in ALL_PARAMS {
            p.set(id, field(id.json_field())?);
        }
        p.clamp_tgt_rate = v
            .get("clamp_tgt_rate")
            .and_then(serde::Value::as_bool)
            .ok_or("DcqcnParams: missing `clamp_tgt_rate`")?;
        Ok(p)
    }

    /// Alpha EWMA gain `g` as a fraction.
    pub fn alpha_g(&self) -> f64 {
        1.0 / 2f64.powf(self.alpha_g_exp)
    }

    /// Wire-format size of a full parameter setting (f64 per parameter),
    /// used by the Table IV overhead accounting.
    pub fn wire_size_bytes(&self) -> usize {
        ALL_PARAMS.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_vector_round_trips() {
        let p = DcqcnParams::expert();
        let v = p.to_vector();
        assert_eq!(DcqcnParams::from_vector(&v), p);
    }

    #[test]
    fn all_params_indices_are_consistent() {
        for (i, &p) in ALL_PARAMS.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn expert_matches_table_one() {
        let e = DcqcnParams::expert();
        assert_eq!(e.ai_rate, 50.0);
        assert_eq!(e.hai_rate, 150.0);
        assert_eq!(e.rate_reduce_monitor_period, 80.0);
        assert_eq!(e.min_time_between_cnps, 96.0);
        assert_eq!(e.k_min, 1600.0);
        assert_eq!(e.k_max, 6400.0);
        assert_eq!(e.p_max, 0.2);
    }

    #[test]
    fn defaults_lie_within_standard_bounds() {
        let space = ParamSpace::standard();
        for preset in [DcqcnParams::nvidia_default(), DcqcnParams::expert()] {
            for s in space.iter() {
                let v = preset.get(s.id);
                assert!(
                    v >= s.min && v <= s.max,
                    "{} = {v} outside [{}, {}]",
                    s.id.name(),
                    s.min,
                    s.max
                );
            }
        }
    }

    #[test]
    fn clamp_respects_bounds_and_integrality() {
        let space = ParamSpace::standard();
        let s = space.spec(ParamId::RpgTimeReset);
        assert_eq!(s.clamp(-5.0), s.min);
        assert_eq!(s.clamp(1e9), s.max);
        assert_eq!(s.clamp(10.4), 10.0);
    }

    #[test]
    fn normalize_fixes_inverted_ecn_thresholds() {
        let space = ParamSpace::standard();
        let mut p = DcqcnParams::nvidia_default();
        p.k_min = 900.0;
        p.k_max = 100.0;
        p.normalize(&space);
        assert!(p.k_min <= p.k_max);
    }

    #[test]
    fn alpha_gain_matches_exponent() {
        let p = DcqcnParams::nvidia_default();
        assert!((p.alpha_g() - 1.0 / 256.0).abs() < 1e-12);
    }

    #[test]
    fn switch_side_classification() {
        assert!(ParamId::KMin.is_switch_side());
        assert!(ParamId::PMax.is_switch_side());
        assert!(!ParamId::AiRate.is_switch_side());
        let n_switch = ALL_PARAMS.iter().filter(|p| p.is_switch_side()).count();
        assert_eq!(n_switch, 3);
    }

    #[test]
    fn params_round_trip_through_value() {
        use serde::Serialize;
        let mut p = DcqcnParams::expert();
        p.clamp_tgt_rate = true;
        let back = DcqcnParams::from_value(&p.serialize_value()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn param_names_are_unique() {
        let mut names: Vec<_> = ALL_PARAMS.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL_PARAMS.len());
    }
}
