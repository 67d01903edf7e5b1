//! Cross-module properties of the hunter: JSON round-trips over every
//! genome the search can reach, and minimizer idempotence under
//! synthetic oracles.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use paraleon_hunt::{minimize_with, mutate, seed_point, HuntPoint, ALL_ORACLES};
use paraleon_netsim::{Nanos, MILLI};

/// Mutation horizon of the generated points (ns).
const HORIZON: Nanos = 30 * MILLI;

/// Deterministically generate a point the way the search would: seed it,
/// then walk `steps` mutations cycling through the oracle palettes.
fn generated_point(seed: u64, steps: usize, kind_idx: usize) -> HuntPoint {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = seed_point(HORIZON, &mut rng);
    for i in 0..steps {
        let kind = ALL_ORACLES[(kind_idx + i) % ALL_ORACLES.len()];
        p = mutate(&p, kind, HORIZON, &mut rng);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any reachable genome survives both the `Value` round-trip and a
    /// full text round-trip byte-identically — the property the corpus
    /// replay gate stands on.
    #[test]
    fn hunt_point_json_round_trips(
        seed in 0u64..1 << 32,
        steps in 0usize..10,
        kind_idx in 0usize..5,
    ) {
        let p = generated_point(seed, steps, kind_idx);
        let back = HuntPoint::from_value(&p.serialize_value()).expect("from_value");
        prop_assert_eq!(&back, &p);

        let text = serde_json::to_string(&p).expect("to_string");
        let v = serde_json::from_str_value(&text).expect("parse");
        let reparsed = HuntPoint::from_value(&v).expect("from_value after parse");
        let text2 = serde_json::to_string(&reparsed).expect("to_string again");
        prop_assert_eq!(text2, text, "text round-trip must be byte-identical");
    }

    /// A converged minimization is a fixpoint: running the minimizer a
    /// second time accepts nothing and returns the point unchanged.
    #[test]
    fn minimizer_is_idempotent_on_synthetic_oracles(
        seed in 0u64..1 << 32,
        min_reps in 1u32..8,
        need_fault in 0u8..2,
    ) {
        let p = generated_point(seed, 6, 0);
        let fires = |q: &HuntPoint| {
            let reps: u32 = q.workload.iter().map(|f| f.count).sum();
            reps >= min_reps && (need_fault == 0 || !q.faults.is_empty())
        };
        let (once, s1) = minimize_with(&p, 20_000, fires);
        if fires(&p) {
            prop_assert!(fires(&once), "minimizer must preserve the predicate");
            prop_assert!(s1.converged, "20k trials is ample for this genome");
            let (twice, s2) = minimize_with(&once, 20_000, fires);
            prop_assert!(s2.converged);
            prop_assert_eq!(s2.accepted, 0, "second run must accept nothing");
            prop_assert_eq!(twice, once);
        } else {
            prop_assert_eq!(&once, &p, "non-firing input returns unchanged");
            prop_assert_eq!(s1.trials, 0);
        }
    }
}
