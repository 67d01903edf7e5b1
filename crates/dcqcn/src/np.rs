//! Notification Point (NP): the receiver-side CNP generator.
//!
//! For each QP, the NP watches arriving data packets. When a packet
//! carries an ECN CE mark, the NP emits a Congestion Notification Packet
//! (CNP) back to the sender — but at most one per
//! `min_time_between_cnps` µs per flow, which is the NP-side tunable the
//! paper lists in Table I (expert value 96 µs vs. a 4 µs default).
//!
//! The module also implements the NP half of the **DCQCN+** baseline (Gao
//! et al., ICNP 2018): the NP counts how many distinct flows are currently
//! congested (received an ECN mark within a sliding window) and stretches
//! the advertised CNP interval proportionally, so that large incasts do
//! not drown the RP in CNPs. The advertised interval travels inside the
//! CNP ([`CnpSignal::advertised_interval_us`]) and the RP scales its rate
//! increase accordingly (see `tuner::dcqcn_plus`).

use std::collections::HashMap;

use crate::params::DcqcnParams;
use crate::{Nanos, MICRO};

/// What the NP tells the RP when it decides to emit a CNP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CnpSignal {
    /// When the CNP was generated.
    pub at: Nanos,
    /// DCQCN+ only: the CNP interval (µs) the NP is currently applying,
    /// carried in the CNP so the RP can scale its increase steps/timers.
    /// `None` under plain DCQCN.
    pub advertised_interval_us: Option<f64>,
}

/// Per-QP notification-point state.
#[derive(Debug, Clone)]
pub struct NpState {
    /// Last time a CNP was sent for this flow.
    last_cnp: Option<Nanos>,
    /// Active parameters (only `min_time_between_cnps` is read).
    params: DcqcnParams,
    /// Total ECN-marked packets observed (statistics).
    pub marked_seen: u64,
    /// Total CNPs emitted (statistics).
    pub cnps_sent: u64,
}

impl NpState {
    /// Fresh NP state for one QP.
    pub fn new(params: DcqcnParams) -> Self {
        Self {
            last_cnp: None,
            params,
            marked_seen: 0,
            cnps_sent: 0,
        }
    }

    /// Replace the active parameter set (live retuning).
    pub fn set_params(&mut self, params: DcqcnParams) {
        self.params = params;
    }

    /// Record the arrival of a data packet at `now`. Returns a
    /// [`CnpSignal`] if a CNP must be sent to the RP.
    ///
    /// `interval_override_us` replaces `min_time_between_cnps` when the
    /// DCQCN+ incast scaler is active; pass `None` for plain DCQCN.
    pub fn on_packet(
        &mut self,
        now: Nanos,
        ecn_marked: bool,
        interval_override_us: Option<f64>,
    ) -> Option<CnpSignal> {
        if !ecn_marked {
            return None;
        }
        self.marked_seen += 1;
        let interval_us = interval_override_us.unwrap_or(self.params.min_time_between_cnps);
        let gap = (interval_us * MICRO as f64) as Nanos;
        let due = match self.last_cnp {
            None => true,
            Some(last) => now >= last.saturating_add(gap),
        };
        if !due {
            return None;
        }
        self.last_cnp = Some(now);
        self.cnps_sent += 1;
        Some(CnpSignal {
            at: now,
            advertised_interval_us: interval_override_us,
        })
    }
}

/// DCQCN+'s incast-aware CNP interval scaler, shared by all QPs that
/// terminate on one RNIC (the NP observes congestion across flows).
///
/// The published scheme sets the CNP interval proportional to the number
/// of concurrently congested flows `n`: `interval = base · max(1, n)`,
/// so an `n`-way incast generates roughly the same aggregate CNP load as a
/// single congested flow. A flow counts as congested if it received an
/// ECN mark within the last `window`.
#[derive(Debug, Clone)]
pub struct IncastScaler {
    /// Base CNP interval, µs (the plain `min_time_between_cnps`).
    base_interval_us: f64,
    /// How long a flow stays "congested" after its last ECN mark.
    window: Nanos,
    /// flow id -> last ECN mark time.
    congested: HashMap<u64, Nanos>,
}

impl IncastScaler {
    /// Create a scaler with the given base interval (µs) and congestion
    /// window (ns). DCQCN+ uses a window of a few RTTs; 100 µs is a sound
    /// default for a 100 G fabric.
    pub fn new(base_interval_us: f64, window: Nanos) -> Self {
        Self {
            base_interval_us: base_interval_us.max(1.0),
            window,
            congested: HashMap::new(),
        }
    }

    /// Record that `flow` received an ECN mark at `now`, and return the CNP
    /// interval (µs) the NP should currently apply.
    pub fn on_mark(&mut self, flow: u64, now: Nanos) -> f64 {
        self.congested.insert(flow, now);
        self.interval_us(now)
    }

    /// Current advertised interval (µs) without recording a new mark.
    pub(crate) fn interval_us(&mut self, now: Nanos) -> f64 {
        let horizon = now.saturating_sub(self.window);
        self.congested.retain(|_, &mut t| t >= horizon);
        self.base_interval_us * self.congested.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn np() -> NpState {
        NpState::new(DcqcnParams::nvidia_default())
    }

    #[test]
    fn unmarked_packets_never_generate_cnps() {
        let mut n = np();
        for t in 0..100 {
            assert!(n.on_packet(t * 1000, false, None).is_none());
        }
        assert_eq!(n.cnps_sent, 0);
        assert_eq!(n.marked_seen, 0);
    }

    #[test]
    fn first_mark_generates_cnp_immediately() {
        let mut n = np();
        let sig = n.on_packet(5_000, true, None).expect("cnp");
        assert_eq!(sig.at, 5_000);
        assert_eq!(sig.advertised_interval_us, None);
    }

    #[test]
    fn cnps_are_paced_by_min_time_between_cnps() {
        let mut n = np();
        // default min_time_between_cnps = 4 µs
        assert!(n.on_packet(0, true, None).is_some());
        assert!(n.on_packet(MICRO, true, None).is_none());
        assert!(n.on_packet(3 * MICRO, true, None).is_none());
        assert!(n.on_packet(4 * MICRO, true, None).is_some());
        assert_eq!(n.marked_seen, 4);
        assert_eq!(n.cnps_sent, 2);
    }

    #[test]
    fn expert_interval_suppresses_more_cnps() {
        let mut d = NpState::new(DcqcnParams::nvidia_default());
        let mut e = NpState::new(DcqcnParams::expert());
        for t in 0..100u64 {
            d.on_packet(t * 4 * MICRO, true, None);
            e.on_packet(t * 4 * MICRO, true, None);
        }
        assert!(e.cnps_sent < d.cnps_sent);
    }

    #[test]
    fn override_interval_wins() {
        let mut n = np();
        assert!(n.on_packet(0, true, Some(50.0)).is_some());
        // Default 4 µs would allow this; the 50 µs override suppresses it.
        assert!(n.on_packet(10 * MICRO, true, Some(50.0)).is_none());
        let sig = n.on_packet(50 * MICRO, true, Some(50.0)).expect("cnp");
        assert_eq!(sig.advertised_interval_us, Some(50.0));
    }

    #[test]
    fn incast_scaler_grows_with_congested_flows() {
        let mut s = IncastScaler::new(4.0, 100 * MICRO);
        assert_eq!(s.on_mark(1, 0), 4.0);
        assert_eq!(s.on_mark(2, 10), 8.0);
        assert_eq!(s.on_mark(3, 20), 12.0);
        assert_eq!(s.congested.len(), 3);
    }

    #[test]
    fn incast_scaler_forgets_stale_flows() {
        let mut s = IncastScaler::new(4.0, 100 * MICRO);
        s.on_mark(1, 0);
        s.on_mark(2, 0);
        // After the window passes, both flows expire; floor is 1x base.
        assert_eq!(s.interval_us(200 * MICRO), 4.0);
        assert_eq!(s.congested.len(), 0);
    }

    #[test]
    fn set_params_changes_pacing() {
        let mut n = np();
        n.on_packet(0, true, None);
        let mut p = DcqcnParams::nvidia_default();
        p.min_time_between_cnps = 100.0;
        n.set_params(p);
        assert!(n.on_packet(50 * MICRO, true, None).is_none());
        assert!(n.on_packet(101 * MICRO, true, None).is_some());
    }
}
