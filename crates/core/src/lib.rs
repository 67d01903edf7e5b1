//! PARALEON: automatic and adaptive tuning for DCQCN parameters in RDMA
//! networks — a full reproduction of the paper's system in Rust.
//!
//! This crate is the public face of the reproduction. It wires the
//! substrate crates into the paper's closed loop (Figure 1):
//!
//! ```text
//!            ┌──────────────────────── controller ───────────────────────┐
//!            │  Runtime Metric Monitor          Performance-oriented     │
//!            │  (FSD aggregation, KL trigger)   Tuning (guided SA)       │
//!            └───────▲──────────────────────────────────┬────────────────┘
//!            sketches│ + throughput/RTT/PFC             │ DCQCN params
//!        ┌───────────┴───────────┐          ┌───────────▼───────────┐
//!        │ ToR switches (Elastic │          │  RNICs (per-QP DCQCN  │
//!        │ Sketch, ECN, PFC)     │          │  RP/NP state machines)│
//!        └───────────────────────┘          └───────────────────────┘
//! ```
//!
//! * [`ClosedLoop`] — drives one simulated fabric one monitor interval
//!   (λ_MI) at a time: collect metrics → estimate the network-wide FSD →
//!   KL trigger → tuning round → dispatch.
//! * [`schemes::SchemeKind`] / [`schemes::MonitorKind`] — factories for
//!   every tuning scheme and monitoring scheme the paper evaluates.
//! * [`drivers`] — the one workload driver (schedule admission plus the
//!   collective barrier, as [`drivers::Stepper`]) shared by the
//!   examples, the experiment harness, the fleet and the hunt.
//! * [`stats`] — FCT/percentile helpers used to regenerate the paper's
//!   tables and figures.
//! * [`sweep`] — the one job-level fan-out (work-conserving, results in
//!   job order) behind experiment grids, the hunt and the fleet's phase A.
//!
//! # Quickstart
//!
//! ```
//! use paraleon::prelude::*;
//!
//! // A small 2-ToR fabric running PARALEON with the paper's settings.
//! let topo = Topology::two_tier_clos(2, 4, 2, 100.0, 100.0, 1_000);
//! let mut cl = ClosedLoop::builder(topo)
//!     .scheme(SchemeKind::Paraleon)
//!     .monitor(MonitorKind::Paraleon)
//!     .build();
//! cl.sim.add_flow(0, 5, 2_000_000, 0);
//! cl.run_until(5 * MILLI);
//! assert_eq!(cl.completions.len(), 1);
//! ```

mod closed_loop;
mod ctrl_plane;
pub mod drivers;
mod guardrail;
mod schemes;
pub mod stats;
pub mod sweep;
mod tuner_cell;

pub use closed_loop::{ClosedLoop, ClosedLoopBuilder};
pub use ctrl_plane::{CtrlPlane, CtrlPlaneConfig, CtrlPlaneStats, DownMsg, UpMsg};
pub use guardrail::{
    GuardAction, Guardrail, GuardrailConfig, GuardrailStats, RejectReason, ScreenOutcome,
};
pub use schemes::{MonitorKind, SchemeKind};
pub use tuner_cell::{CellSnapshot, IntervalRecord, LoopConfig, TunerCell};

/// Re-exports for harness and example code.
pub mod prelude {
    pub use crate::{
        drivers, stats, CellSnapshot, ClosedLoop, CtrlPlaneConfig, CtrlPlaneStats, GuardAction,
        Guardrail, GuardrailConfig, GuardrailStats, IntervalRecord, LoopConfig, MonitorKind,
        SchemeKind, ScreenOutcome, TunerCell,
    };
    pub use paraleon_dcqcn::{DcqcnParams, ParamId, ParamSpace};
    pub use paraleon_monitor::UtilityWeights;
    pub use paraleon_netsim::{
        ClosSpec, FaultEvent, FaultKind, FaultPlan, FlowRecord, MixedRateSpec, RailSpec, SimConfig,
        SimError, ThreeTierSpec, TopoSpec, Topology, MICRO, MILLI, SEC,
    };
    pub use paraleon_sketch::{FlowType, Fsd, WindowConfig};
    pub use paraleon_tuner::SaConfig;
    pub use paraleon_workloads::{
        AllToAll, AllToAllConfig, Collective, CollectiveError, CollectiveKind, CollectiveSpec,
        FlowRequest, FlowSizeDist, PoissonConfig, PoissonWorkload, Progress,
    };
}

/// Nanoseconds (simulator clock).
pub type Nanos = u64;
