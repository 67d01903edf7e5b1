//! Keypoint 2: ternary flow states updated by a sliding window.
//!
//! Naive Elastic Sketch classifies a flow from a *single* monitor interval:
//! elephant if it moved ≥ τ bytes within the interval, else mice. At
//! millisecond intervals this misidentifies congested or late-arriving
//! elephants. PARALEON therefore keeps per-flow history in the switch
//! control plane and classifies with three states:
//!
//! * **Elephant (E)** — aggregated bytes `Φ(f) ≥ τ`.
//! * **Potential Elephant (PE)** — `Φ(f) < τ` but the flow has stayed
//!   active (positive bytes) for at least δ consecutive monitor intervals
//!   (δ = window size).
//! * **Mice (M)** — `Φ(f) < τ` and active for fewer than δ intervals.
//!
//! A PE flow contributes to the elephant side of the flow size
//! distribution proportionally to its likelihood of becoming an elephant;
//! we use `min(1, Φ/τ)`, which the paper's "refined as more monitor
//! intervals elapse" describes: Φ only grows while the flow lives, so the
//! estimate sharpens every interval.
//!
//! The unit tests reproduce the exact trace of Figure 4 of the paper
//! (δ = 3, τ = 1 MB, flows f₁/f₂/f₃ over eight monitor intervals).

use serde::{Deserialize, Serialize};

use crate::fsd::{Fsd, FsdBuilder};
use crate::hash::FlowMap;
use crate::FlowId;

/// Ternary classification of one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlowState {
    /// Aggregated bytes reached τ.
    Elephant,
    /// Under τ but persistently active: likely to become an elephant.
    PotentialElephant,
    /// Small and short-lived.
    Mice,
}

/// Classifier configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WindowConfig {
    /// Elephant byte threshold τ (paper default 1 MB, after DCTCP).
    pub tau_bytes: u64,
    /// Window size δ: consecutive active intervals required for PE.
    pub delta: usize,
    /// A flow idle for this many consecutive intervals is dropped
    /// (finished); bounds control-plane memory.
    pub expiry_intervals: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        Self {
            tau_bytes: 1 << 20,
            delta: 3,
            expiry_intervals: 8,
        }
    }
}

#[derive(Debug, Clone)]
struct FlowRecord {
    /// Aggregated bytes Φ(f) since the flow was first seen.
    cum_bytes: u64,
    /// Byte counts of the most recent δ intervals (ring; newest last).
    recent: std::collections::VecDeque<u64>,
    /// Consecutive just-ended intervals with positive bytes.
    active_run: usize,
    /// Consecutive just-ended intervals with zero bytes.
    idle_run: usize,
    state: FlowState,
}

/// The switch-control-plane flow state tracker (Keypoint 2).
#[derive(Debug, Clone)]
pub struct SlidingWindowClassifier {
    cfg: WindowConfig,
    /// Fixed-hasher map: `local_fsd` sums floats in its iteration order.
    flows: FlowMap<FlowRecord>,
    /// Number of `end_interval` calls so far.
    pub intervals_processed: u64,
}

impl SlidingWindowClassifier {
    /// Create a classifier with the given configuration.
    pub fn new(cfg: WindowConfig) -> Self {
        assert!(cfg.delta >= 1 && cfg.tau_bytes > 0);
        Self {
            cfg,
            flows: FlowMap::default(),
            intervals_processed: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &WindowConfig {
        &self.cfg
    }

    /// Close a monitor interval: feed the per-flow byte counts drained
    /// from the data-plane sketch, update every tracked flow's ternary
    /// state, and expire finished flows.
    pub fn end_interval<I>(&mut self, interval_bytes: I)
    where
        I: IntoIterator<Item = (FlowId, u64)>,
    {
        self.intervals_processed += 1;
        let mut seen: FlowMap<u64> = FlowMap::default();
        for (f, b) in interval_bytes {
            *seen.entry(f).or_insert(0) += b;
        }
        // Update existing flows (active or idle this interval).
        for (f, rec) in self.flows.iter_mut() {
            let bytes = seen.remove(f).unwrap_or(0);
            Self::update_record(&self.cfg, rec, bytes);
        }
        // Newly observed flows.
        for (f, bytes) in seen {
            let mut rec = FlowRecord {
                cum_bytes: 0,
                recent: std::collections::VecDeque::new(),
                active_run: 0,
                idle_run: 0,
                state: FlowState::Mice,
            };
            Self::update_record(&self.cfg, &mut rec, bytes);
            self.flows.insert(f, rec);
        }
        // Expire finished flows.
        let expiry = self.cfg.expiry_intervals.max(1);
        self.flows.retain(|_, r| r.idle_run < expiry);
    }

    fn update_record(cfg: &WindowConfig, rec: &mut FlowRecord, bytes: u64) {
        rec.cum_bytes += bytes;
        rec.recent.push_back(bytes);
        while rec.recent.len() > cfg.delta {
            rec.recent.pop_front();
        }
        if bytes > 0 {
            rec.active_run += 1;
            rec.idle_run = 0;
        } else {
            rec.active_run = 0;
            rec.idle_run += 1;
        }
        rec.state = if rec.cum_bytes >= cfg.tau_bytes {
            FlowState::Elephant
        } else if bytes > 0 && rec.active_run >= cfg.delta {
            FlowState::PotentialElephant
        } else if rec.state == FlowState::PotentialElephant && bytes > 0 {
            // Rule (2): a PE flow stays PE while it remains active.
            FlowState::PotentialElephant
        } else {
            FlowState::Mice
        };
    }

    /// Current state of `flow`, if tracked.
    pub fn state(&self, flow: FlowId) -> Option<FlowState> {
        self.flows.get(&flow).map(|r| r.state)
    }

    /// Aggregated bytes Φ(f), if tracked.
    pub fn cumulative_bytes(&self, flow: FlowId) -> Option<u64> {
        self.flows.get(&flow).map(|r| r.cum_bytes)
    }

    /// Number of flows currently tracked.
    pub fn tracked_flows(&self) -> usize {
        self.flows.len()
    }

    /// Likelihood weight with which a flow counts as elephant:
    /// E → 1, PE → min(1, Φ/τ), M → 0.
    pub fn elephant_weight(&self, flow: FlowId) -> f64 {
        match self.flows.get(&flow) {
            None => 0.0,
            Some(r) => match r.state {
                FlowState::Elephant => 1.0,
                FlowState::PotentialElephant => {
                    (r.cum_bytes as f64 / self.cfg.tau_bytes as f64).min(1.0)
                }
                FlowState::Mice => 0.0,
            },
        }
    }

    /// Build this switch's local flow size distribution snapshot from the
    /// tracked flow states (the per-interval upload to the controller).
    ///
    /// Size bins use the aggregated bytes Φ; byte shares use the recent
    /// δ-interval window, so the share distribution — which drives the KL
    /// trigger and the dominant-type µ — tracks *current* traffic instead
    /// of lifetime volume.
    pub fn local_fsd(&self) -> Fsd {
        let mut b = FsdBuilder::new();
        for (_, r) in self.flows.iter() {
            let w = match r.state {
                FlowState::Elephant => 1.0,
                FlowState::PotentialElephant => {
                    (r.cum_bytes as f64 / self.cfg.tau_bytes as f64).min(1.0)
                }
                FlowState::Mice => 0.0,
            };
            let recent: u64 = r.recent.iter().sum();
            b.add_flow_weighted(r.cum_bytes, recent, w);
        }
        b.build()
    }

    /// Approximate control-plane memory use in bytes (Table IV).
    pub fn memory_bytes(&self) -> usize {
        // id + record ≈ 8 + 32 bytes, plus map overhead factor.
        self.flows.len() * 48
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    fn classifier() -> SlidingWindowClassifier {
        SlidingWindowClassifier::new(WindowConfig::default())
    }

    /// The exact Figure 4 trace: δ = 3, τ = 1 MB.
    /// f₁ sends ≥ τ in MI₁ → E immediately.
    /// f₂ sends 0.15 MB per MI: M at MI₁–MI₂, PE at MI₃–MI₆, E at MI₇
    /// (cumulative 1.05 MB > τ).
    /// f₃ sends 0.1 MB per MI through MI₇, nothing at MI₈: M → PE at MI₃,
    /// stays PE, never becomes E, expires after going idle.
    #[test]
    fn figure_4_trace() {
        let mut c = classifier();
        let f2_per_mi = (0.15 * MB as f64) as u64;
        let f3_per_mi = MB / 10;

        for mi in 1..=8u32 {
            let mut batch: Vec<(FlowId, u64)> = Vec::new();
            if mi == 1 {
                batch.push((1, 2 * MB)); // f1: elephant from the start
            }
            if mi <= 7 {
                batch.push((2, f2_per_mi));
                batch.push((3, f3_per_mi));
            }
            c.end_interval(batch);

            if mi == 1 {
                assert_eq!(c.state(1), Some(FlowState::Elephant));
                assert_eq!(c.state(2), Some(FlowState::Mice));
                assert_eq!(c.state(3), Some(FlowState::Mice));
            }
            if mi == 2 {
                assert_eq!(c.state(2), Some(FlowState::Mice));
            }
            if (3..=6).contains(&mi) {
                assert_eq!(c.state(2), Some(FlowState::PotentialElephant), "MI{mi}");
                assert_eq!(c.state(3), Some(FlowState::PotentialElephant), "MI{mi}");
            }
            if mi == 7 {
                assert_eq!(c.state(2), Some(FlowState::Elephant));
            }
            if mi == 8 {
                // f3 idle: not elephant, and on its way out.
                assert_ne!(c.state(3), Some(FlowState::Elephant));
            }
        }
    }

    #[test]
    fn single_interval_elephant() {
        let mut c = classifier();
        c.end_interval([(9, 5 * MB)]);
        assert_eq!(c.state(9), Some(FlowState::Elephant));
        assert_eq!(c.elephant_weight(9), 1.0);
    }

    #[test]
    fn short_lived_small_flow_stays_mice() {
        let mut c = classifier();
        c.end_interval([(9, 1000)]);
        c.end_interval([(9, 1000)]);
        assert_eq!(c.state(9), Some(FlowState::Mice));
        assert_eq!(c.elephant_weight(9), 0.0);
    }

    #[test]
    fn pe_weight_grows_with_cumulative_bytes() {
        let mut c = classifier();
        let step = 200 * 1024; // 0.195 MB per interval
        c.end_interval([(9, step)]);
        c.end_interval([(9, step)]);
        c.end_interval([(9, step)]);
        assert_eq!(c.state(9), Some(FlowState::PotentialElephant));
        let w1 = c.elephant_weight(9);
        c.end_interval([(9, step)]);
        let w2 = c.elephant_weight(9);
        assert!(w2 > w1, "likelihood refines upward: {w1} -> {w2}");
        assert!(w2 < 1.0);
    }

    #[test]
    fn elephant_state_is_sticky_across_congestion() {
        // The misidentification naive ES suffers: an elephant throttled to
        // under τ per interval. With history, once E always E while alive.
        let mut c = classifier();
        c.end_interval([(9, 2 * MB)]);
        assert_eq!(c.state(9), Some(FlowState::Elephant));
        for _ in 0..5 {
            c.end_interval([(9, 10_000)]); // trickle under congestion
            assert_eq!(c.state(9), Some(FlowState::Elephant));
        }
    }

    #[test]
    fn idle_flows_expire() {
        let mut c = classifier();
        c.end_interval([(9, 1000)]);
        for _ in 0..WindowConfig::default().expiry_intervals {
            c.end_interval(std::iter::empty());
        }
        assert_eq!(c.state(9), None);
        assert_eq!(c.tracked_flows(), 0);
    }

    #[test]
    fn interrupted_activity_resets_the_window() {
        let mut c = classifier();
        let step = 100 * 1024;
        c.end_interval([(9, step)]);
        c.end_interval([(9, step)]);
        c.end_interval(std::iter::empty()); // gap resets active run
        c.end_interval([(9, step)]);
        c.end_interval([(9, step)]);
        // Only 2 consecutive active intervals since the gap: still mice.
        assert_eq!(c.state(9), Some(FlowState::Mice));
        c.end_interval([(9, step)]);
        assert_eq!(c.state(9), Some(FlowState::PotentialElephant));
    }

    #[test]
    fn duplicate_entries_in_one_interval_are_summed() {
        let mut c = classifier();
        c.end_interval([(9, MB / 2), (9, MB / 2)]);
        assert_eq!(c.state(9), Some(FlowState::Elephant));
    }

    #[test]
    fn local_fsd_reflects_states() {
        let mut c = classifier();
        c.end_interval([(1, 4 * MB), (2, 1000), (3, 2000)]);
        let fsd = c.local_fsd();
        // One elephant carrying almost all bytes.
        assert!(fsd.elephant_share() > 0.99);
    }

    /// With τ not a power of two the PE weights Φ/τ are not dyadic, so
    /// the float sums in `local_fsd` depend on the order flows are
    /// visited in; two identically fed classifiers must still agree.
    #[test]
    fn local_fsd_is_instance_independent_at_non_power_of_two_tau() {
        let cfg = WindowConfig {
            tau_bytes: 1_000_000,
            ..WindowConfig::default()
        };
        let fed = || {
            let mut c = SlidingWindowClassifier::new(cfg);
            for _ in 0..cfg.delta {
                c.end_interval((0..3_000u64).map(|f| (f, 1_000 + 37 * f)));
            }
            assert_eq!(c.state(2_999), Some(FlowState::PotentialElephant));
            c
        };
        assert_eq!(fed().local_fsd(), fed().local_fsd());
    }

    #[test]
    fn memory_grows_linearly_with_flows() {
        let mut c = classifier();
        c.end_interval((0..100u64).map(|f| (f, 1000u64)));
        assert_eq!(c.memory_bytes(), 100 * 48);
    }
}
