//! Property-based tests for the DCQCN state machines: invariants that
//! must hold under *any* event sequence.

use proptest::prelude::*;

use paraleon_dcqcn::{
    mbps_to_bytes_per_sec, DcqcnParams, EcnMarker, NpState, ParamSpace, RpState, ALL_PARAMS, MICRO,
};

const LINE: f64 = 12.5e9;

/// An arbitrary RP event: advance time, send bytes, or receive a CNP.
#[derive(Debug, Clone)]
enum RpEvent {
    Advance(u64),
    Send(u64),
    Cnp,
}

fn rp_events() -> impl Strategy<Value = Vec<RpEvent>> {
    prop::collection::vec(
        prop_oneof![
            (1u64..2_000_000).prop_map(RpEvent::Advance),
            (1u64..100_000).prop_map(RpEvent::Send),
            Just(RpEvent::Cnp),
        ],
        1..200,
    )
}

proptest! {
    /// Under any event sequence, the rate stays within
    /// [min_rate, line_rate] and alpha within [0, 1].
    #[test]
    fn rp_rate_and_alpha_stay_bounded(events in rp_events()) {
        let params = DcqcnParams::nvidia_default();
        let min = mbps_to_bytes_per_sec(params.min_rate);
        let mut rp = RpState::new(LINE, params, 0);
        let mut now = 0u64;
        for ev in events {
            match ev {
                RpEvent::Advance(dt) => {
                    now += dt;
                    rp.advance(now);
                }
                RpEvent::Send(b) => rp.on_send(now, b),
                RpEvent::Cnp => rp.on_cnp(now),
            }
            prop_assert!(rp.rate() >= min - 1e-6, "rate {} below min", rp.rate());
            prop_assert!(rp.rate() <= LINE + 1e-6, "rate {} above line", rp.rate());
            prop_assert!(rp.target_rate() <= LINE + 1e-6);
            prop_assert!((0.0..=1.0).contains(&rp.alpha()), "alpha {}", rp.alpha());
        }
    }

    /// advance() must be monotone-safe: calling it twice with the same
    /// timestamp changes nothing.
    #[test]
    fn rp_advance_is_idempotent(
        events in rp_events(),
        probe in 1u64..10_000_000,
    ) {
        let mut rp = RpState::new(LINE, DcqcnParams::nvidia_default(), 0);
        let mut now = 0u64;
        for ev in events {
            match ev {
                RpEvent::Advance(dt) => { now += dt; rp.advance(now); }
                RpEvent::Send(b) => rp.on_send(now, b),
                RpEvent::Cnp => rp.on_cnp(now),
            }
        }
        now += probe;
        rp.advance(now);
        let (r1, a1) = (rp.rate(), rp.alpha());
        rp.advance(now);
        prop_assert_eq!(r1, rp.rate());
        prop_assert_eq!(a1, rp.alpha());
    }

    /// A CNP can never *increase* the current rate.
    #[test]
    fn cnp_never_raises_rate(warmup in 0u64..5_000_000) {
        let mut rp = RpState::new(LINE, DcqcnParams::nvidia_default(), 0);
        rp.on_cnp(0);
        rp.advance(warmup);
        let before = rp.rate();
        rp.on_cnp(warmup);
        prop_assert!(rp.rate() <= before + 1e-6);
    }

    /// NP emits at most one CNP per min_time_between_cnps window,
    /// regardless of arrival pattern.
    #[test]
    fn np_respects_pacing(gaps in prop::collection::vec(0u64..20_000, 1..100)) {
        let params = DcqcnParams::nvidia_default();
        let window = (params.min_time_between_cnps * MICRO as f64) as u64;
        let mut np = NpState::new(params);
        let mut now = 0u64;
        let mut cnp_times = Vec::new();
        for g in gaps {
            now += g;
            if np.on_packet(now, true, None).is_some() {
                cnp_times.push(now);
            }
        }
        for w in cnp_times.windows(2) {
            prop_assert!(w[1] - w[0] >= window, "CNPs {} and {} too close", w[0], w[1]);
        }
    }

    /// The ECN marking probability is monotone in the queue length and
    /// bounded by [0, 1] for any thresholds.
    #[test]
    fn marker_probability_monotone(
        kmin in 0.0f64..1e7,
        span in 1.0f64..1e7,
        pmax in 0.0f64..1.0,
        q1 in 0.0f64..2e7,
        q2 in 0.0f64..2e7,
    ) {
        let m = EcnMarker::new(kmin, kmin + span, pmax);
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let (p_lo, p_hi) = (m.probability(lo), m.probability(hi));
        prop_assert!((0.0..=1.0).contains(&p_lo));
        prop_assert!((0.0..=1.0).contains(&p_hi));
        prop_assert!(p_lo <= p_hi + 1e-12);
    }

    /// Every parameter round-trips through `get`/`set` for any in-bounds
    /// values, and normalize() is idempotent.
    #[test]
    fn params_round_trip_through_get_set(seed_vals in prop::collection::vec(0.0f64..1.0, 13)) {
        let space = ParamSpace::standard();
        let mut p = DcqcnParams::nvidia_default();
        for (i, &id) in ALL_PARAMS.iter().enumerate() {
            let spec = space.spec(id);
            p.set(id, spec.min + seed_vals[i] * (spec.max - spec.min));
        }
        p.normalize(&space);
        let mut q = DcqcnParams::nvidia_default();
        for &id in &ALL_PARAMS {
            q.set(id, p.get(id));
        }
        prop_assert_eq!(p, q);
        let mut r = p;
        r.normalize(&space);
        prop_assert_eq!(p, r);
    }

    /// Clamp always lands inside the bounds.
    #[test]
    fn clamp_lands_in_bounds(v in -1e12f64..1e12, idx in 0usize..13) {
        let space = ParamSpace::standard();
        let spec = space.spec(ALL_PARAMS[idx]);
        let c = spec.clamp(v);
        prop_assert!(c >= spec.min && c <= spec.max);
    }
}
