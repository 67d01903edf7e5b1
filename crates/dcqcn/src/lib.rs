//! DCQCN congestion control for RoCEv2, plus its full tunable parameter
//! space.
//!
//! DCQCN (Data Center Quantized Congestion Notification, Zhu et al.,
//! SIGCOMM 2015) is the default congestion-control algorithm of NVIDIA
//! RNICs and the de-facto standard in large-scale RDMA deployments. It is
//! an AIMD scheme with three parties:
//!
//! * **CP (Congestion Point)** — the switch marks packets with ECN when the
//!   egress queue exceeds configurable thresholds
//!   ([`cp::EcnMarker`], parameters `K_min`, `K_max`, `P_max`).
//! * **NP (Notification Point)** — the receiver RNIC converts ECN-marked
//!   arrivals into Congestion Notification Packets (CNPs), rate-limited by
//!   `min_time_between_cnps` ([`np::NpState`]).
//! * **RP (Reaction Point)** — the sender RNIC cuts the sending rate
//!   multiplicatively on CNP arrival and otherwise increases it through
//!   fast-recovery / additive-increase / hyper-increase stages
//!   ([`rp::RpState`]).
//!
//! The PARALEON paper's core observation is that the 10+ parameters
//! governing this machinery (see [`params::DcqcnParams`]) dramatically
//! affect network performance and must be tuned per environment and per
//! workload. [`params::ParamSpace`] captures the tunable space: bounds,
//! empirical step sizes and the *throughput-friendly* direction of each
//! parameter (§III-C of the paper), which the tuner crate's guided
//! simulated annealing exploits.
//!
//! All state machines in this crate are pure and deterministic: they take
//! explicit timestamps (`u64` nanoseconds) and carry no global state, so
//! the simulator can drive thousands of independent QP instances.

mod cp;
mod np;
mod params;
mod rp;

pub use cp::EcnMarker;
pub use np::{CnpSignal, IncastScaler, NpState};
pub use params::{DcqcnParams, Direction, ParamId, ParamSpace, ParamSpec, ALL_PARAMS};
pub use rp::RpState;

/// Nanoseconds since simulation start. Mirrors `paraleon-netsim`'s clock.
pub type Nanos = u64;

/// One microsecond in [`Nanos`].
pub const MICRO: Nanos = 1_000;
/// One millisecond in [`Nanos`].
pub const MILLI: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SEC: Nanos = 1_000_000_000;

/// Convert a rate in megabits per second to bytes per second.
#[inline]
pub fn mbps_to_bytes_per_sec(mbps: f64) -> f64 {
    mbps * 1e6 / 8.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_unit_constants() {
        assert_eq!(MICRO * 1000, MILLI);
        assert_eq!(MILLI * 1000, SEC);
    }
}
