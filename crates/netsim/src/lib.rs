//! A deterministic packet-level simulator of a lossless RoCEv2 datacenter
//! fabric — the substrate the PARALEON reproduction runs on (standing in
//! for the paper's ns-3 setup and hardware testbed).
//!
//! [`Engine`] is the one entry point: every harness (closed loop, fleet
//! tenant, hunt evaluation, benchmark, this crate's own test suites)
//! builds `Engine::new(topo, cfg, threads)` and drives it with
//! `add_flow` / `run_until` / `collect_interval` / `set_dcqcn_params`.
//! `threads` only chooses how many shard threads run the events; one
//! shard is the serial engine, and every count gives byte-identical
//! results ([`par`]).
//!
//! What is modelled, at packet granularity:
//!
//! * **Topology** — two-tier CLOS (hosts / ToR / leaf), oversubscribed
//!   three-tier, rail-optimized and mixed-rate fabrics behind one tagged
//!   [`TopoSpec`], with per-link bandwidth and propagation delay and
//!   deterministic per-flow ECMP (see [`topology`]).
//! * **RNICs** — per-QP DCQCN reaction points pacing data segments, NIC
//!   port serialization, cumulative ACKs, CNP generation at notification
//!   points, PFC reaction, go-back-N loss recovery (the crate-private
//!   per-shard event core, `sim`).
//! * **Switches** — output-queued shared-buffer forwarding, RED/ECN
//!   marking between `K_min`/`K_max`, priority separation of control
//!   traffic, 802.1Qbb PFC with dynamic-threshold XOFF/XON, and Elastic
//!   Sketch measurement points on ToRs with TOS-bit single-insertion
//!   (Keypoint 1).
//! * **Faults** — seeded link flaps, rate degradation, corruption loss
//!   and PFC storms scheduled on the event queue ([`fault`]).
//! * **Metrics** — per-monitor-interval uplink utilization, normalized
//!   RTT, PFC pause ratios and drained sketch readings ([`metrics`]),
//!   exactly the feed PARALEON's Runtime Metric Monitor consumes.
//!
//! Everything is synchronous and seeded: same inputs, same packet trace.

pub(crate) mod barrier;
pub mod config;
pub mod ctrl;
pub mod event;
pub mod fasthash;
pub mod fault;
pub mod metrics;
pub(crate) mod node;
pub mod packet;
pub mod par;
pub(crate) mod sim;
pub mod topology;

pub use config::SimConfig;
pub use ctrl::{CtrlChannel, CtrlChannelStats, CtrlImpairment};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use metrics::{FlowRecord, IntervalMetrics, SwitchObs};
pub use packet::{Packet, PacketId, PacketKind, PacketPool};
pub use par::Engine;
pub use sim::SimError;
pub use topology::{
    gbps, ClosSpec, MixedRateSpec, NodeKind, Port, RailSpec, ShardSpec, ThreeTierSpec, TopoSpec,
    Topology,
};

/// Node identifier (index into the topology).
pub type NodeId = usize;

/// Flow identifier.
pub type FlowId = u64;

/// Nanoseconds since simulation start.
pub type Nanos = u64;

/// One microsecond in [`Nanos`].
pub const MICRO: Nanos = 1_000;
/// One millisecond in [`Nanos`].
pub const MILLI: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SEC: Nanos = 1_000_000_000;
