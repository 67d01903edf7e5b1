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

use serde::Serialize;

use crate::fsd::{size_bin, Fsd, FsdBuilder, FSD_BINS};
use crate::hash::FlowMap;
use crate::FlowId;

/// Ternary classification of one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum FlowState {
    /// Aggregated bytes reached τ.
    Elephant,
    /// Under τ but persistently active: likely to become an elephant.
    PotentialElephant,
    /// Small and short-lived.
    Mice,
}

/// Elephant byte threshold τ (paper default 1 MB, after DCTCP): the
/// classifier's default and the threshold of both monitoring baselines.
pub const TAU_BYTES: u64 = 1 << 20;

/// Classifier configuration. Settable because the window differential
/// (`tests/window_differential.rs`) sweeps δ and expiry against its
/// reference classifier, and the tests need τ = 10⁶ to reach the
/// non-dyadic PE weights that τ = 2²⁰ never produces.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct WindowConfig {
    /// Elephant byte threshold τ ([`TAU_BYTES`] by default).
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
            tau_bytes: TAU_BYTES,
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
    /// Sum of the flow's window row while it is active (stale while idle).
    recent_sum: u64,
    /// Bytes reported so far in the interval being closed.
    pending: u64,
    /// The `end_interval` call (0-based) that closed the first zero-byte
    /// interval of the current idle run; meaningless while active.
    idle_since: u64,
    /// Consecutive just-ended intervals with positive bytes.
    active_run: u32,
    state: FlowState,
    /// On the active list (else idle and counted in the tallies).
    active: bool,
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

    /// Tally class of an idle flow: 1 for E, 0 for M (never PE).
    fn class(&self) -> usize {
        usize::from(self.state == FlowState::Elephant)
    }
}

/// What the idle flows add to the local FSD, as integers per class
/// (`[mice, elephants]`).
#[derive(Debug, Clone)]
struct IdleTally {
    /// Idle flows per size bin of Φ.
    bins: [u64; FSD_BINS],
    /// Idle flows per class.
    flows: [u64; 2],
    /// Per window column, the idle flows' bytes still inside the window.
    columns: Vec<[u64; 2]>,
}

impl IdleTally {
    fn add_to(&self, b: &mut FsdBuilder) {
        let bytes = self
            .columns
            .iter()
            .fold([0; 2], |[m, e], c| [m + c[0], e + c[1]]);
        b.add_whole_flows(&self.bins, self.flows, bytes);
    }
}

/// The switch-control-plane flow state tracker (Keypoint 2).
///
/// Closing an interval touches only the flows that moved: those
/// reported with bytes now or in the last interval (the `active` list),
/// and those whose expiry falls due. A flow that reports nothing is E or
/// M and, until it moves or expires, contributes a fixed set of integers
/// to the local FSD — one flow in its size bin and class, plus the bytes
/// still inside its window — which `idle` keeps as tallies instead of
/// visiting the flow. Records live in a slab (`records[slot]`, window
/// row `window[slot * δ..][..δ]`); expired slots go on a free list.
#[derive(Debug, Clone)]
pub struct SlidingWindowClassifier {
    cfg: WindowConfig,
    /// Flow → slot in `records`; looked up, never iterated.
    index: FlowMap<u32>,
    /// Slab of records; the slots on `free` hold no flow.
    records: Vec<FlowRecord>,
    /// `records.len() × δ` byte counts; call `n` writes column `n % δ`
    /// of every active row. An idle row is not rewritten: its cells are
    /// live until their column comes round again.
    window: Vec<u64>,
    free: Vec<u32>,
    /// Slots of the flows the next close sweeps.
    active: Vec<u32>,
    idle: IdleTally,
    /// Idle slots by the call at which they expire, modulo the number of
    /// buckets (`expiry_intervals`); an entry whose flow woke since is
    /// stale and skipped.
    wheel: Vec<Vec<u32>>,
    /// The local FSD as of the last close.
    fsd: Fsd,
    /// Number of `end_interval` calls so far.
    intervals_processed: u64,
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
            free: Vec::new(),
            active: Vec::new(),
            idle: IdleTally {
                bins: [0; FSD_BINS],
                flows: [0; 2],
                columns: vec![[0; 2]; cfg.delta],
            },
            wheel: vec![Vec::new(); cfg.expiry_intervals.max(1)],
            fsd: Fsd::empty(),
            intervals_processed: 0,
        }
    }

    /// Close a monitor interval: feed the per-flow byte counts drained
    /// from the data-plane sketch, update every tracked flow's ternary
    /// state, expire finished flows and build the local FSD.
    pub fn end_interval<I>(&mut self, interval_bytes: I)
    where
        I: IntoIterator<Item = (FlowId, u64)>,
    {
        let delta = self.cfg.delta;
        let now = self.intervals_processed;
        let column = (now % delta as u64) as usize;
        self.intervals_processed += 1;
        // Every idle flow's oldest cell rolls out of the window.
        self.idle.columns[column] = [0; 2];
        for (flow, bytes) in interval_bytes {
            let slot = match self.index.entry(flow) {
                Entry::Occupied(e) => *e.get() as usize,
                Entry::Vacant(e) => {
                    let record = FlowRecord {
                        flow,
                        cum_bytes: 0,
                        recent_sum: 0,
                        pending: 0,
                        idle_since: 0,
                        active_run: 0,
                        state: FlowState::Mice,
                        active: true,
                    };
                    let slot = match self.free.pop() {
                        Some(slot) => {
                            let slot = slot as usize;
                            self.records[slot] = record;
                            self.window[slot * delta..][..delta].fill(0);
                            slot
                        }
                        None => {
                            self.records.push(record);
                            self.window.resize(self.records.len() * delta, 0);
                            self.records.len() - 1
                        }
                    };
                    let slot32 = u32::try_from(slot).expect("fewer than 2^32 tracked flows");
                    e.insert(slot32);
                    self.active.push(slot32);
                    slot
                }
            };
            if bytes > 0 && !self.records[slot].active {
                self.leave_idle(slot, now);
                self.records[slot].active = true;
                self.active.push(slot as u32);
            }
            self.records[slot].pending += bytes;
        }
        // The active list: slide each window, update the state, and
        // either keep the flow (positive bytes) or let it go idle — onto
        // the wheel bucket of the call its idle run reaches the expiry.
        let expiry = self.expiry();
        let due_bucket = ((now + expiry - 1) % expiry) as usize;
        let mut b = FsdBuilder::new();
        let mut kept = 0;
        for i in 0..self.active.len() {
            let slot = self.active[i] as usize;
            let rec = &mut self.records[slot];
            let bytes = std::mem::take(&mut rec.pending);
            let cell = &mut self.window[slot * delta + column];
            rec.recent_sum = rec.recent_sum - *cell + bytes;
            *cell = bytes;
            Self::update_record(&self.cfg, rec, bytes);
            if bytes > 0 {
                let w = rec.elephant_weight(self.cfg.tau_bytes);
                b.add_flow_weighted(rec.cum_bytes, rec.recent_sum, w);
                self.active[kept] = slot as u32;
                kept += 1;
            } else {
                self.go_idle(slot, now, due_bucket);
            }
        }
        self.active.truncate(kept);
        self.expire_due(now);
        self.idle.add_to(&mut b);
        self.fsd = b.build();
    }

    fn expiry(&self) -> u64 {
        self.cfg.expiry_intervals.max(1) as u64
    }

    fn update_record(cfg: &WindowConfig, rec: &mut FlowRecord, bytes: u64) {
        rec.cum_bytes += bytes;
        rec.active_run = if bytes > 0 { rec.active_run + 1 } else { 0 };
        rec.state = if rec.cum_bytes >= cfg.tau_bytes {
            FlowState::Elephant
        } else if bytes > 0 && rec.active_run as usize >= cfg.delta {
            FlowState::PotentialElephant
        } else if rec.state == FlowState::PotentialElephant && bytes > 0 {
            // Rule (2): a PE flow stays PE while it remains active.
            FlowState::PotentialElephant
        } else {
            FlowState::Mice
        };
    }

    /// The flow in `slot` went idle in call `now`: count it in the
    /// tallies, its whole row included (every cell is live), and put it
    /// on the wheel in `due_bucket`.
    fn go_idle(&mut self, slot: usize, now: u64, due_bucket: usize) {
        let delta = self.cfg.delta;
        self.wheel[due_bucket].push(slot as u32);
        let rec = &mut self.records[slot];
        rec.active = false;
        rec.idle_since = now;
        let class = rec.class();
        self.idle.bins[size_bin(rec.cum_bytes)] += 1;
        self.idle.flows[class] += 1;
        let row = &self.window[slot * delta..][..delta];
        for (column, &bytes) in self.idle.columns.iter_mut().zip(row) {
            column[class] += bytes;
        }
    }

    /// Take the idle flow in `slot` out of the tallies in call `now`
    /// (its column already cleared): the cells of calls after `now − δ`
    /// are still live and leave the tallies, the others rolled out and
    /// are zeroed, and `recent_sum` is the row's sum again.
    fn leave_idle(&mut self, slot: usize, now: u64) {
        let delta = self.cfg.delta;
        let rec = &mut self.records[slot];
        let class = rec.class();
        self.idle.bins[size_bin(rec.cum_bytes)] -= 1;
        self.idle.flows[class] -= 1;
        let live = (rec.idle_since + delta as u64).saturating_sub(now) as usize;
        let row = &mut self.window[slot * delta..][..delta];
        rec.recent_sum = 0;
        // Walk back from the newest cell, the one of call `idle_since`.
        let mut column = (rec.idle_since % delta as u64) as usize;
        for age in 0..delta {
            if age < live {
                self.idle.columns[column][class] -= row[column];
                rec.recent_sum += row[column];
            } else {
                row[column] = 0;
            }
            column = column.checked_sub(1).unwrap_or(delta - 1);
        }
    }

    /// Expire the idle flows whose idle run reaches `expiry_intervals`
    /// in call `now`. Runs after the sweep, so that at an expiry of 1 a
    /// flow goes in the call it falls idle.
    ///
    /// Once every cell of the row has rolled out (`idle_since + δ ≤
    /// now`, always the case when the expiry exceeds δ) the columns hold
    /// none of the flow's bytes: only its bin and class leave the
    /// tallies, and its cold row is left alone — a reused slot is zeroed.
    fn expire_due(&mut self, now: u64) {
        let (delta, expiry) = (self.cfg.delta as u64, self.expiry());
        let bucket = (now % expiry) as usize;
        let mut due = std::mem::take(&mut self.wheel[bucket]);
        for &slot in &due {
            let slot = slot as usize;
            let rec = &self.records[slot];
            if rec.active || rec.idle_since + expiry - 1 != now {
                continue;
            }
            let flow = rec.flow;
            if rec.idle_since + delta <= now {
                self.idle.bins[size_bin(rec.cum_bytes)] -= 1;
                self.idle.flows[rec.class()] -= 1;
            } else {
                self.leave_idle(slot, now);
            }
            self.index.remove(&flow);
            self.free.push(slot as u32);
        }
        due.clear();
        self.wheel[bucket] = due;
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
        self.index.len()
    }

    /// Likelihood weight with which a flow counts as elephant:
    /// E → 1, PE → min(1, Φ/τ), M → 0.
    pub fn elephant_weight(&self, flow: FlowId) -> f64 {
        self.record(flow)
            .map_or(0.0, |r| r.elephant_weight(self.cfg.tau_bytes))
    }

    /// This switch's local flow size distribution snapshot from the
    /// tracked flow states (the per-interval upload to the controller),
    /// as the last [`end_interval`](Self::end_interval) built it.
    ///
    /// Size bins use the aggregated bytes Φ; byte shares use the recent
    /// δ-interval window, so the share distribution — which drives the KL
    /// trigger and the dominant-type µ — tracks *current* traffic instead
    /// of lifetime volume.
    ///
    /// The active flows are summed in active-list order, then the idle
    /// tallies are added as whole numbers. With τ = 2ᵏ — the default 2²⁰
    /// is the only value anything constructs — neither the order nor the
    /// tallies can show: a weight `w` is 0, 1 or Φ/2ᵏ with Φ < 2ᵏ (a PE
    /// flow is under τ), a PE flow's window bytes are ≤ Φ, so every term
    /// — `w`, `1 − w`, window bytes × either — is an exact multiple of
    /// 2⁻ᵏ, and so is every partial sum below 2⁵³⁻ᵏ (8 GiB of window bytes
    /// per switch at k = 20). Exact additions commute. At any other τ the
    /// result is run-independent (the order follows from the inputs
    /// alone) but the PE terms move in the last bits with the order.
    pub fn local_fsd(&self) -> Fsd {
        self.fsd.clone()
    }

    /// Control-plane memory use in bytes (Table IV): per tracked flow its
    /// record, its window row, its `index` entry (key, slot, hashbrown
    /// control byte) and the slot that lists it on the active list or
    /// the expiry wheel. Length-based — spare capacity, free slots and
    /// the fixed-size tallies are not counted — so the figure repeats
    /// exactly.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let row = self.cfg.delta * size_of::<u64>();
        self.tracked_flows()
            * (size_of::<FlowRecord>() + row + size_of::<(FlowId, u32)>() + 1 + size_of::<u32>())
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
        // Record + δ = 3 window cells + index entry (key, slot, control
        // byte) + active-list/wheel slot.
        let per_flow = std::mem::size_of::<FlowRecord>() + 3 * 8 + 16 + 1 + 4;
        let mut c = classifier();
        c.end_interval((0..100u64).map(|f| (f, 1000u64)));
        assert_eq!(c.memory_bytes(), 100 * per_flow);
        c.end_interval((100..300u64).map(|f| (f, 1000u64)));
        assert_eq!(c.memory_bytes(), 300 * per_flow);
    }

    /// The flow's window as of the last close: its row, with the cells an
    /// idle flow has let roll out read as zero.
    fn row_of(c: &SlidingWindowClassifier, flow: FlowId) -> Vec<u64> {
        let delta = c.cfg.delta;
        let slot = c.index[&flow] as usize;
        let rec = &c.records[slot];
        let mut row = c.window[slot * delta..][..delta].to_vec();
        if !rec.active {
            // After call n = intervals_processed − 1 the window holds
            // calls n − δ + 1 ..= n; the idle row's newest is idle_since.
            let live = (rec.idle_since + delta as u64).saturating_sub(c.intervals_processed - 1);
            for age in live..delta as u64 {
                let call = rec.idle_since.wrapping_sub(age);
                row[(call % delta as u64) as usize] = 0;
            }
        }
        row
    }

    /// The layout invariants: every tracked flow is indexed at a live
    /// slot; the active list holds exactly the active flows, each row
    /// summing to its `recent_sum`; every idle flow is E or M and due on
    /// the wheel; and the idle tallies equal a recount over the idle
    /// flows.
    fn assert_consistent(c: &SlidingWindowClassifier) {
        let delta = c.cfg.delta;
        let expiry = c.expiry();
        assert_eq!(c.window.len(), c.records.len() * delta);
        assert_eq!(c.index.len() + c.free.len(), c.records.len());
        let mut active = c.active.clone();
        active.sort_unstable();
        active.dedup();
        assert_eq!(active.len(), c.active.len(), "active list repeats a slot");
        let (mut bins, mut flows, mut columns) =
            ([0u64; FSD_BINS], [0u64; 2], vec![[0u64; 2]; delta]);
        for (&flow, &slot) in &c.index {
            assert!(!c.free.contains(&slot), "flow {flow} on a free slot");
            let r = &c.records[slot as usize];
            assert_eq!(r.flow, flow, "{r:?}");
            assert_eq!(r.pending, 0, "{r:?}");
            assert_eq!(r.active, active.binary_search(&slot).is_ok(), "{r:?}");
            let row = row_of(c, flow);
            if r.active {
                assert_eq!(row.iter().sum::<u64>(), r.recent_sum, "{r:?}");
                continue;
            }
            assert_ne!(r.state, FlowState::PotentialElephant, "{r:?}");
            let due = r.idle_since + expiry - 1;
            assert!(due >= c.intervals_processed, "{r:?} overdue");
            assert!(c.wheel[(due % expiry) as usize].contains(&slot), "{r:?}");
            bins[size_bin(r.cum_bytes)] += 1;
            flows[r.class()] += 1;
            for (column, bytes) in columns.iter_mut().zip(row) {
                column[r.class()] += bytes;
            }
        }
        assert_eq!(
            active.len() + flows.iter().sum::<u64>() as usize,
            c.index.len()
        );
        assert_eq!(c.idle.bins, bins);
        assert_eq!(c.idle.flows, flows);
        assert_eq!(c.idle.columns, columns);
    }

    /// Distinct per flow and interval, so a row that ended up under the
    /// wrong flow cannot pass for the right one.
    fn bytes_of(flow: FlowId, mi: u64) -> u64 {
        flow * 1000 + mi
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
        // reach the expiry horizon in the same interval: one wheel bucket
        // frees all three, and no survivor moves.
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
        // flow never seen before; both take freed slots.
        c.end_interval([(10, 7), (20, 9)]);
        assert_consistent(&c);
        assert_eq!((c.records.len(), c.free.len()), (7, 1));
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
        c.end_interval([(1, 101), (2, 201)]); // the last slot expires
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
