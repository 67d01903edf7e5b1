//! Differential test of `SlidingWindowClassifier` (a slab swept only over
//! the flows that moved, with idle flows kept as integer tallies and an
//! expiry wheel) against the straightforward implementation: a map of
//! per-flow records, each holding its own `VecDeque` ring, every one
//! visited every interval around a fresh `seen` map.
//!
//! `reference` is that implementation as it stood, minus what no test
//! drives (`config`, `memory_bytes`, the interval counter) and with the
//! std `RandomState` map in place of the crate-private fixed hasher — so
//! its `local_fsd` sums in a different order on every run, which is the
//! order-independence the production comment claims for τ = 2ᵏ.

use proptest::prelude::*;

use paraleon_sketch::{FlowId, FlowState, Fsd, SlidingWindowClassifier, WindowConfig};

mod reference {
    use std::collections::HashMap;

    use paraleon_sketch::{FlowId, FlowState, Fsd, FsdBuilder, WindowConfig};

    type FlowMap<V> = HashMap<FlowId, V>;

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
    pub(crate) struct ReferenceClassifier {
        cfg: WindowConfig,
        /// `local_fsd` sums floats in this map's iteration order.
        flows: FlowMap<FlowRecord>,
    }

    impl ReferenceClassifier {
        /// Create a classifier with the given configuration.
        pub(crate) fn new(cfg: WindowConfig) -> Self {
            assert!(cfg.delta >= 1 && cfg.tau_bytes > 0);
            Self {
                cfg,
                flows: FlowMap::default(),
            }
        }

        /// Close a monitor interval: feed the per-flow byte counts drained
        /// from the data-plane sketch, update every tracked flow's ternary
        /// state, and expire finished flows.
        pub(crate) fn end_interval<I>(&mut self, interval_bytes: I)
        where
            I: IntoIterator<Item = (FlowId, u64)>,
        {
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
        pub(crate) fn state(&self, flow: FlowId) -> Option<FlowState> {
            self.flows.get(&flow).map(|r| r.state)
        }

        /// Aggregated bytes Φ(f), if tracked.
        pub(crate) fn cumulative_bytes(&self, flow: FlowId) -> Option<u64> {
            self.flows.get(&flow).map(|r| r.cum_bytes)
        }

        /// Number of flows currently tracked.
        pub(crate) fn tracked_flows(&self) -> usize {
            self.flows.len()
        }

        /// Likelihood weight with which a flow counts as elephant:
        /// E → 1, PE → min(1, Φ/τ), M → 0.
        pub(crate) fn elephant_weight(&self, flow: FlowId) -> f64 {
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
        pub(crate) fn local_fsd(&self) -> Fsd {
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
    }
}

use reference::ReferenceClassifier;

/// Flow ids the traces draw from. The low four are picked half the time,
/// so they stay active across intervals (PE, then E); the rest are
/// sparse: they fall idle, expire and come back.
const FLOWS: u64 = 24;

/// One interval's report: possibly empty (a gap for every flow), with
/// repeated flows, zero-byte entries, and sizes on both sides of τ.
fn interval() -> impl Strategy<Value = Vec<(FlowId, u64)>> {
    let flow = prop_oneof![0..4u64, 0..FLOWS];
    let bytes = prop_oneof![
        Just(0u64),
        1u64..3_000,
        50_000u64..400_000,
        Just(1u64 << 20),
    ];
    prop::collection::vec((flow, bytes), 0..10)
}

fn trace() -> impl Strategy<Value = Vec<Vec<(FlowId, u64)>>> {
    prop::collection::vec(interval(), 1..48)
}

fn config(tau_bytes: u64) -> impl Strategy<Value = WindowConfig> {
    (1usize..=5, 1usize..=10).prop_map(move |(delta, expiry_intervals)| WindowConfig {
        tau_bytes,
        delta,
        expiry_intervals,
    })
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// Feed `trace` to both classifiers; after every interval the per-flow
/// observables must be equal and `fsd_agrees` must hold of the two local
/// FSDs.
fn drive(cfg: WindowConfig, trace: &[Vec<(FlowId, u64)>], fsd_agrees: impl Fn(&Fsd, &Fsd) -> bool) {
    let mut new = SlidingWindowClassifier::new(cfg);
    let mut old = ReferenceClassifier::new(cfg);
    for (mi, batch) in trace.iter().enumerate() {
        new.end_interval(batch.iter().copied());
        old.end_interval(batch.iter().copied());
        assert_eq!(new.tracked_flows(), old.tracked_flows(), "MI{mi} {cfg:?}");
        for f in 0..FLOWS {
            assert_eq!(new.state(f), old.state(f), "flow {f} MI{mi} {cfg:?}");
            assert_eq!(new.cumulative_bytes(f), old.cumulative_bytes(f));
            assert_eq!(
                new.elephant_weight(f).to_bits(),
                old.elephant_weight(f).to_bits()
            );
        }
        let (got, want) = (new.local_fsd(), old.local_fsd());
        assert!(
            fsd_agrees(&got, &want),
            "MI{mi} {cfg:?}: {got:?} vs {want:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// τ = 2²⁰, the production value: every float term is dyadic, so the
    /// two summation orders give the same bits. (`Fsd: PartialEq`
    /// compares every field; for finite non-negative floats `==` is bit
    /// equality.)
    #[test]
    fn agrees_with_the_reference_bit_for_bit_at_power_of_two_tau(
        cfg in config(1 << 20),
        trace in trace(),
    ) {
        drive(cfg, &trace, |got, want| got == want);
    }

    /// τ = 10⁶: PE weights Φ/τ round, so the sums may differ in the last
    /// bits with the order — and by no more.
    #[test]
    fn agrees_with_the_reference_to_rounding_at_other_tau(
        cfg in config(1_000_000),
        trace in trace(),
    ) {
        drive(cfg, &trace, |got, want| {
            close(got.total_bytes(), want.total_bytes())
                && close(got.elephant_share(), want.elephant_share())
                && close(got.flow_mass(), want.flow_mass())
                && close(got.elephant_flow_share(), want.elephant_flow_share())
                && got.normalized_hist() == want.normalized_hist()
        });
    }
}

/// The generators above are only worth something if they reach the
/// states the layout could break: PE flows, expiries, flows that return
/// after expiring, and idle flows re-reported before they expire — with
/// window bytes still live, or after the window drained.
#[test]
fn traces_reach_pe_expiry_and_reappearance() {
    use rand::{rngs::StdRng, SeedableRng};
    let (mut pe, mut expired, mut returned) = (0, 0, 0);
    let (mut woke_live, mut woke_drained) = (0, 0);
    for case in 0..64 {
        let mut rng = StdRng::seed_from_u64(case);
        let cfg = config(1 << 20).sample(&mut rng);
        let mut c = SlidingWindowClassifier::new(cfg);
        let mut was_tracked = [false; FLOWS as usize];
        let mut has_expired = [false; FLOWS as usize];
        // The last interval each tracked flow reported positive bytes.
        let mut last_bytes: [Option<usize>; FLOWS as usize] = [None; FLOWS as usize];
        for (mi, batch) in trace().sample(&mut rng).into_iter().enumerate() {
            let mut moved = [false; FLOWS as usize];
            for &(f, b) in &batch {
                moved[f as usize] |= b > 0;
            }
            for i in (0..FLOWS as usize).filter(|&i| moved[i]) {
                // Idle since interval `p + 1`: the bytes of `p` are live
                // through interval `p + δ − 1`.
                match last_bytes[i] {
                    Some(p) if p + 1 < mi && p + cfg.delta > mi => woke_live += 1,
                    Some(p) if p + 1 < mi => woke_drained += 1,
                    _ => {}
                }
                last_bytes[i] = Some(mi);
            }
            c.end_interval(batch);
            for f in 0..FLOWS {
                let (i, state) = (f as usize, c.state(f));
                pe += usize::from(state == Some(FlowState::PotentialElephant));
                if was_tracked[i] && state.is_none() {
                    expired += 1;
                    has_expired[i] = true;
                    last_bytes[i] = None;
                }
                returned += usize::from(has_expired[i] && !was_tracked[i] && state.is_some());
                was_tracked[i] = state.is_some();
            }
        }
    }
    assert!(
        pe > 100 && expired > 100 && returned > 100 && woke_live > 100 && woke_drained > 100,
        "{pe} {expired} {returned} {woke_live} {woke_drained}"
    );
}
