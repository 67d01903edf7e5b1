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

use std::collections::hash_map::Entry;

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
    flow: FlowId,
    /// Aggregated bytes Φ(f) since the flow was first seen.
    cum_bytes: u64,
    /// Sum of the flow's window row: bytes over the most recent δ intervals.
    recent_sum: u64,
    /// Bytes reported so far in the interval being closed.
    pending: u64,
    /// Consecutive just-ended intervals with positive bytes.
    active_run: usize,
    /// Consecutive just-ended intervals with zero bytes.
    idle_run: usize,
    state: FlowState,
}

impl FlowRecord {
    /// See [`SlidingWindowClassifier::elephant_weight`].
    fn elephant_weight(&self, tau_bytes: u64) -> f64 {
        match self.state {
            FlowState::Elephant => 1.0,
            FlowState::PotentialElephant => (self.cum_bytes as f64 / tau_bytes as f64).min(1.0),
            FlowState::Mice => 0.0,
        }
    }
}

/// The switch-control-plane flow state tracker (Keypoint 2).
///
/// Three flat pieces: `index` maps a flow to its slot, `records[slot]` is
/// the flow's state and `window[slot * δ..][..δ]` its per-interval byte
/// ring. Closing an interval costs one hash lookup per *reported* flow
/// and one sequential pass over `records`; idle flows waiting out
/// `expiry_intervals` are never hashed.
#[derive(Debug, Clone)]
pub struct SlidingWindowClassifier {
    cfg: WindowConfig,
    /// Flow → slot in `records`; looked up, never iterated.
    index: FlowMap<u32>,
    /// Dense, in first-report order except where an expiry moved the last
    /// record into the hole.
    records: Vec<FlowRecord>,
    /// `records.len() × δ` byte counts; the interval being closed writes
    /// column `intervals_processed % δ` of every row.
    window: Vec<u64>,
    /// Number of `end_interval` calls so far.
    pub intervals_processed: u64,
}

impl SlidingWindowClassifier {
    /// Create a classifier with the given configuration.
    pub fn new(cfg: WindowConfig) -> Self {
        assert!(cfg.delta >= 1 && cfg.tau_bytes > 0);
        Self {
            cfg,
            index: FlowMap::default(),
            records: Vec::new(),
            window: Vec::new(),
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
        let delta = self.cfg.delta;
        let column = (self.intervals_processed % delta as u64) as usize;
        self.intervals_processed += 1;
        for (flow, bytes) in interval_bytes {
            let slot = match self.index.entry(flow) {
                Entry::Occupied(e) => *e.get() as usize,
                Entry::Vacant(e) => {
                    let slot = self.records.len();
                    e.insert(u32::try_from(slot).expect("fewer than 2^32 tracked flows"));
                    self.records.push(FlowRecord {
                        flow,
                        cum_bytes: 0,
                        recent_sum: 0,
                        pending: 0,
                        active_run: 0,
                        idle_run: 0,
                        state: FlowState::Mice,
                    });
                    self.window.resize((slot + 1) * delta, 0);
                    slot
                }
            };
            self.records[slot].pending += bytes;
        }
        // Every tracked flow, reported or idle: slide its window, update
        // its state, expire it if finished. An expiry refills `slot` with
        // the last record, which this pass has not reached yet.
        let expiry = self.cfg.expiry_intervals.max(1);
        let mut slot = 0;
        while slot < self.records.len() {
            let rec = &mut self.records[slot];
            let bytes = std::mem::take(&mut rec.pending);
            let cell = &mut self.window[slot * delta + column];
            rec.recent_sum = rec.recent_sum - *cell + bytes;
            *cell = bytes;
            Self::update_record(&self.cfg, rec, bytes);
            if rec.idle_run < expiry {
                slot += 1;
            } else {
                self.expire(slot);
            }
        }
    }

    fn update_record(cfg: &WindowConfig, rec: &mut FlowRecord, bytes: u64) {
        rec.cum_bytes += bytes;
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

    /// Drop the record in `slot`; the last record and its window row move
    /// into the hole.
    fn expire(&mut self, slot: usize) {
        let delta = self.cfg.delta;
        let last = self.records.len() - 1;
        let gone = self.records.swap_remove(slot);
        self.index.remove(&gone.flow);
        if slot < last {
            self.window
                .copy_within(last * delta..(last + 1) * delta, slot * delta);
            let moved = self.records[slot].flow;
            *self.index.get_mut(&moved).expect("every record is indexed") = slot as u32;
        }
        self.window.truncate(last * delta);
    }

    fn record(&self, flow: FlowId) -> Option<&FlowRecord> {
        self.index
            .get(&flow)
            .map(|&slot| &self.records[slot as usize])
    }

    /// Current state of `flow`, if tracked.
    pub fn state(&self, flow: FlowId) -> Option<FlowState> {
        self.record(flow).map(|r| r.state)
    }

    /// Aggregated bytes Φ(f), if tracked.
    pub fn cumulative_bytes(&self, flow: FlowId) -> Option<u64> {
        self.record(flow).map(|r| r.cum_bytes)
    }

    /// Number of flows currently tracked.
    pub fn tracked_flows(&self) -> usize {
        self.records.len()
    }

    /// Likelihood weight with which a flow counts as elephant:
    /// E → 1, PE → min(1, Φ/τ), M → 0.
    pub fn elephant_weight(&self, flow: FlowId) -> f64 {
        self.record(flow)
            .map_or(0.0, |r| r.elephant_weight(self.cfg.tau_bytes))
    }

    /// Build this switch's local flow size distribution snapshot from the
    /// tracked flow states (the per-interval upload to the controller).
    ///
    /// Size bins use the aggregated bytes Φ; byte shares use the recent
    /// δ-interval window, so the share distribution — which drives the KL
    /// trigger and the dominant-type µ — tracks *current* traffic instead
    /// of lifetime volume.
    ///
    /// The float sums run in record order, which an expiry permutes (the
    /// previous layout summed in hash-bucket order). With τ = 2ᵏ — the
    /// default 2²⁰ is the only value anything constructs — no order can
    /// show: a weight `w` is 0, 1 or Φ/2ᵏ with Φ < 2ᵏ (a PE flow is under
    /// τ), a PE flow's window bytes are ≤ Φ, so every term added — `w`,
    /// `1 − w`, window bytes × either — is an exact multiple of 2⁻ᵏ, and
    /// so is every partial sum below 2⁵³⁻ᵏ (8 GiB of window bytes per
    /// switch at k = 20). Exact additions commute. At any other τ the
    /// result is run-independent (the order follows from the inputs alone)
    /// but moves in the last bits with the order.
    pub fn local_fsd(&self) -> Fsd {
        let mut b = FsdBuilder::new();
        for r in &self.records {
            let w = r.elephant_weight(self.cfg.tau_bytes);
            b.add_flow_weighted(r.cum_bytes, r.recent_sum, w);
        }
        b.build()
    }

    /// Control-plane memory use in bytes (Table IV): per tracked flow its
    /// record, its window row and its `index` entry (key, slot, hashbrown
    /// control byte). Length-based — spare `Vec`/map capacity is not
    /// counted — so the figure repeats exactly.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let row = self.cfg.delta * size_of::<u64>();
        self.records.len() * (size_of::<FlowRecord>() + row + size_of::<(FlowId, u32)>() + 1)
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
        // Record + δ = 3 window cells + index entry (key, slot, control byte).
        let per_flow = std::mem::size_of::<FlowRecord>() + 3 * 8 + 16 + 1;
        let mut c = classifier();
        c.end_interval((0..100u64).map(|f| (f, 1000u64)));
        assert_eq!(c.memory_bytes(), 100 * per_flow);
        c.end_interval((100..300u64).map(|f| (f, 1000u64)));
        assert_eq!(c.memory_bytes(), 300 * per_flow);
    }

    /// The layout invariants: every record is indexed at its own slot,
    /// owns one window row, and that row sums to its `recent_sum`.
    fn assert_consistent(c: &SlidingWindowClassifier) {
        let delta = c.cfg.delta;
        assert_eq!(c.index.len(), c.records.len());
        assert_eq!(c.window.len(), c.records.len() * delta);
        for (slot, r) in c.records.iter().enumerate() {
            assert_eq!(c.index.get(&r.flow), Some(&(slot as u32)), "{r:?}");
            let row = &c.window[slot * delta..][..delta];
            assert_eq!(row.iter().sum::<u64>(), r.recent_sum, "{r:?}");
            assert_eq!(r.pending, 0, "{r:?}");
        }
    }

    /// Distinct per flow and interval, so a row that ended up under the
    /// wrong flow cannot pass for the right one.
    fn bytes_of(flow: FlowId, mi: u64) -> u64 {
        flow * 1000 + mi
    }

    fn row_of(c: &SlidingWindowClassifier, flow: FlowId) -> &[u64] {
        let slot = c.index[&flow] as usize;
        &c.window[slot * c.cfg.delta..][..c.cfg.delta]
    }

    #[test]
    fn first_middle_and_last_record_expiring_together_keep_survivors_intact() {
        let mut c = SlidingWindowClassifier::new(WindowConfig {
            expiry_intervals: 2,
            ..WindowConfig::default()
        });
        let survivors = [11u64, 12, 14, 15];
        c.end_interval((10..=16u64).map(|f| (f, bytes_of(f, 0))));
        assert_consistent(&c);
        // Slots 0 (flow 10), 3 (flow 13) and 6 (flow 16) fall silent and
        // reach the expiry horizon in the same interval: the pass expires
        // slot 0, pulls flow 16 into it and expires that too.
        for mi in 1..=2 {
            c.end_interval(survivors.iter().map(|&f| (f, bytes_of(f, mi))));
            assert_consistent(&c);
        }
        assert_eq!(c.tracked_flows(), survivors.len());
        for gone in [10, 13, 16] {
            assert_eq!(c.state(gone), None);
        }
        for f in survivors {
            // δ = 3 and three intervals closed: column mi holds interval mi.
            let want: Vec<u64> = (0..3).map(|mi| bytes_of(f, mi)).collect();
            assert_eq!(row_of(&c, f), want, "flow {f}");
            assert_eq!(c.cumulative_bytes(f), Some(want.iter().sum()));
        }
        // A flow that returns after expiry starts from nothing, next to a
        // flow never seen before.
        c.end_interval([(10, 7), (20, 9)]);
        assert_consistent(&c);
        assert_eq!(c.cumulative_bytes(10), Some(7));
        assert_eq!(row_of(&c, 10), [7, 0, 0]);
        assert_eq!(row_of(&c, 20), [9, 0, 0]);
        assert_eq!(row_of(&c, 14), [0, bytes_of(14, 1), bytes_of(14, 2)]);
    }

    #[test]
    fn expiring_the_last_slot_and_the_only_record_moves_nothing() {
        let mut c = SlidingWindowClassifier::new(WindowConfig {
            expiry_intervals: 1,
            ..WindowConfig::default()
        });
        c.end_interval([(1, 100), (2, 200), (3, 300)]);
        c.end_interval([(1, 101), (2, 201)]); // slot 2 == last expires
        assert_consistent(&c);
        assert_eq!(c.tracked_flows(), 2);
        assert_eq!(row_of(&c, 1), [100, 101, 0]);
        assert_eq!(row_of(&c, 2), [200, 201, 0]);
        c.end_interval(std::iter::empty()); // both go; the second is alone
        assert_consistent(&c);
        assert_eq!(c.tracked_flows(), 0);
        assert!(c.local_fsd().is_empty());
    }

    /// `Clone` carries the whole layout: original and copy fed the same
    /// tail agree on every interval.
    #[test]
    fn a_clone_taken_mid_trace_continues_identically() {
        // Most flows fall silent two intervals in five, which at expiry 2
        // drops them; the `% 7` clause keeps some alive through the gap.
        let batch = |mi: u64| {
            (0..40u64)
                .filter(move |f| (f + mi) % 5 >= 2 || f % 7 == mi % 7)
                .map(move |f| (f, 40_000 * (1 + (f + mi) % 9)))
        };
        let mut a = SlidingWindowClassifier::new(WindowConfig {
            expiry_intervals: 2,
            ..WindowConfig::default()
        });
        for mi in 0..11 {
            a.end_interval(batch(mi));
        }
        let mut b = a.clone();
        for mi in 11..40 {
            a.end_interval(batch(mi));
            b.end_interval(batch(mi));
            assert_consistent(&b);
            assert_eq!(a.local_fsd(), b.local_fsd(), "interval {mi}");
            assert_eq!(a.tracked_flows(), b.tracked_flows());
            assert!(b.tracked_flows() < 40, "the tail exercises expiry");
            for f in 0..40 {
                assert_eq!(a.state(f), b.state(f), "flow {f} at {mi}");
                assert_eq!(a.cumulative_bytes(f), b.cumulative_bytes(f));
            }
        }
    }
}
