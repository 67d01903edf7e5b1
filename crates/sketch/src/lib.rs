//! Sketch-based flow measurement: Elastic Sketch plus PARALEON's
//! accuracy supplements.
//!
//! PARALEON's Runtime Metric Monitor measures the network-wide **flow size
//! distribution (FSD)** every millisecond-scale monitor interval. The data
//! plane runs an [Elastic Sketch](elastic::ElasticSketch) (Yang et al.,
//! SIGCOMM 2018) per measurement point: a *Heavy Part* of vote-based
//! buckets holding elephant flows, backed by a count-min *Light Part* for
//! mice, with the "ostracism" eviction rule keeping elephants resident.
//!
//! Naive per-interval sketch readings misclassify flows at millisecond
//! intervals (a congested elephant may move less than the elephant
//! threshold τ per interval), so the switch control plane adds the paper's
//! two keypoints:
//!
//! * **Keypoint 1** — each packet is inserted into exactly *one* sketch
//!   along its path, enforced by a TOS-bit marking (the simulator models it
//!   as a header flag; see `paraleon-netsim`). This crate stays agnostic:
//!   callers simply don't insert already-marked packets.
//! * **Keypoint 2** — [ternary flow states](window::FlowState)
//!   (elephant / potential-elephant / mice) updated by a
//!   [sliding window](window::SlidingWindowClassifier) over the last δ
//!   monitor intervals, so state transitions survive interval boundaries.
//!
//! The resulting per-switch [FSD](fsd::Fsd) snapshots are aggregated
//! network-wide by `paraleon-monitor`.

mod elastic;
mod fsd;
pub mod hash;
mod window;

pub use elastic::{ElasticSketch, SketchConfig};
pub use fsd::{FlowType, Fsd, FsdBuilder};
pub use window::{FlowState, SlidingWindowClassifier, WindowConfig, TAU_BYTES};

/// Flow identifier (the simulator uses a QP-pair id).
pub type FlowId = u64;
