//! A deterministic packet-level simulator of a lossless RoCEv2 datacenter
//! fabric — the substrate the PARALEON reproduction runs on (standing in
//! for the paper's ns-3 setup and hardware testbed).
//!
//! [`Engine`] is the one entry point: every harness (closed loop, fleet
//! tenant, hunt evaluation, benchmark, this crate's own test suites)
//! builds `Engine::new(topo, cfg, threads)` and drives it with
//! `add_flow` / `run_until` / `collect_interval` / `set_dcqcn_params`.
//! `threads` only chooses how many worker threads run the events (and
//! through them how finely the fabric is cut into shards); one shard is
//! the serial engine, and every count gives byte-identical results
//! (`par`).
//!
//! What is modelled, at packet granularity, and the module that owns it:
//!
//! * **Topology** — two-tier CLOS (hosts / ToR / leaf), oversubscribed
//!   three-tier, rail-optimized and mixed-rate fabrics behind one tagged
//!   [`TopoSpec`], each built from its spec, with per-link bandwidth and
//!   propagation delay and deterministic per-flow ECMP ([`Topology`]).
//! * **Event core** — the calendar queue ([`event`]) under a clock,
//!   causal tie-break keys, the packet arena and the shard cut (`core`,
//!   crate-private like every layer below; it knows no networking).
//! * **Egress ports and links** — one strict-priority, PFC-pausable
//!   serializer model for a host's NIC port and every switch port, and
//!   the wire behind it: serialization time, fault loss (`port`).
//! * **Switches** — output-queued shared-buffer forwarding, RED/ECN
//!   marking between `K_min`/`K_max`, priority separation of control
//!   traffic, 802.1Qbb PFC with dynamic-threshold XOFF/XON, and Elastic
//!   Sketch measurement points on ToRs with TOS-bit single-insertion
//!   (Keypoint 1) (`switch`).
//! * **RNICs** — per-QP DCQCN reaction points pacing data segments,
//!   cumulative ACKs, CNP generation at notification points, go-back-N
//!   loss recovery (`nic`).
//! * **Faults** — seeded link flaps, rate degradation, corruption loss
//!   and PFC storms scheduled on the event queue, validated at install
//!   ([`FaultPlan`]).
//! * **Metrics** — per-monitor-interval uplink utilization, normalized
//!   RTT, PFC pause ratios and drained sketch readings ([`IntervalMetrics`]),
//!   exactly the feed PARALEON's Runtime Metric Monitor consumes.
//!
//! `sim` holds one shard's state and the single dispatch from a popped
//! event to its layer; `par` runs one or several shards as [`Engine`].
//!
//! Everything is synchronous and seeded: same inputs, same packet trace.

pub(crate) mod barrier;
mod config;
pub(crate) mod core;
mod ctrl;
pub(crate) mod error;
pub mod event;
pub mod fasthash;
mod fault;
mod metrics;
pub(crate) mod nic;
pub(crate) mod packet;
mod par;
pub(crate) mod port;
pub(crate) mod sim;
pub(crate) mod switch;
mod topology;

pub use config::SimConfig;
pub use ctrl::{CtrlChannel, CtrlChannelStats, CtrlImpairment};
pub use error::SimError;
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use metrics::{FlowRecord, IntervalMetrics, SwitchObs};
pub use packet::{Packet, PacketPool};
pub use par::Engine;
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
