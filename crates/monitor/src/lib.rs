//! PARALEON's Runtime Metric Monitor (paper §III-B), plus the monitoring
//! baselines it is evaluated against.
//!
//! The monitor has two halves:
//!
//! * **Flow size distribution measurement** (continuous, layered): every
//!   monitor interval λ_MI each ToR control plane drains its data-plane
//!   Elastic Sketch, updates ternary flow states through the sliding
//!   window, and uploads a local FSD; the centralized controller merges
//!   the local FSDs into the network-wide distribution
//!   ([`paraleon::ParaleonMonitor`], [`resilient::StalenessMerger`]).
//! * **Runtime metric collection** (event-driven): when tuning is active,
//!   devices upload throughput / RTT / PFC once per interval and the
//!   controller evaluates the utility function
//!   ([`utility::UtilityWeights`], Equation (1)).
//!
//! Tuning is *triggered* when the KL divergence between successive
//! network-wide FSDs exceeds θ ([`trigger::ChangeDetector`]).
//!
//! Baselines for Figures 10–11 live here too: [`netflow::NetFlowMonitor`]
//! (1:100 packet sampling, O(seconds) interval) and
//! [`naive::NaiveSketchMonitor`] (per-interval binary classification
//! without history). All monitors implement [`FsdMonitor`] so the
//! harness can swap them.

pub mod naive;
pub mod netflow;
pub mod overhead;
pub mod paraleon;
pub mod resilient;
pub mod trigger;
pub mod utility;

pub use naive::NaiveSketchMonitor;
pub use netflow::{NetFlowConfig, NetFlowMonitor};
pub use overhead::TransferLedger;
pub use paraleon::ParaleonMonitor;
pub use resilient::{FsdUpload, StalenessMerger, DEFAULT_STALE_AFTER_INTERVALS};
pub use trigger::ChangeDetector;
pub use utility::{MetricSample, UtilityWeights};

use paraleon_sketch::{FlowId, Fsd};

/// Nanoseconds (matches the simulator clock).
pub type Nanos = u64;

/// Identifier of a measurement point (a ToR switch).
pub type PointId = usize;

/// One monitor interval's sketch readings: per measurement point, the
/// drained `(flow, bytes)` entries.
pub type SketchReadings = [(PointId, Vec<(FlowId, u64)>)];

/// A pluggable network-wide FSD estimation scheme.
///
/// Called once per monitor interval with the drained per-switch sketch
/// readings; returns the current network-wide FSD estimate when the
/// scheme has one (NetFlow, with its O(seconds) export period, returns
/// its previous export until a new one is due).
pub trait FsdMonitor: Send {
    /// Ingest one interval ending at `now`; return the scheme's current
    /// network-wide FSD estimate, if any.
    fn on_interval(&mut self, readings: &SketchReadings, now: Nanos) -> Option<Fsd>;

    /// Fabric-side half of one interval under an explicit (impairable)
    /// control plane: ingest the readings and emit sequence-numbered,
    /// λ_MI-stamped per-point uploads for the controller-side
    /// [`StalenessMerger`] instead of merging centrally. `interval` is
    /// the closed loop's monitor-interval index (the upload timestamp).
    ///
    /// The default wraps [`FsdMonitor::on_interval`]'s central estimate
    /// in a single point-0 upload stamped `seq = interval` — correct for
    /// schemes without a layered fabric half; layered schemes override
    /// this to ship genuine per-point uploads.
    fn uploads(&mut self, readings: &SketchReadings, now: Nanos, interval: u64) -> Vec<FsdUpload> {
        match self.on_interval(readings, now) {
            Some(fsd) => vec![FsdUpload {
                point: 0,
                seq: interval,
                interval,
                fsd,
            }],
            None => Vec::new(),
        }
    }

    /// Total bytes this scheme has uploaded to the controller so far
    /// (Table IV data-transfer accounting).
    fn uploaded_bytes(&self) -> u64;

    /// Human-readable scheme name.
    fn name(&self) -> &'static str;
}
