//! The per-shard event core of the RoCEv2 fabric simulator.
//!
//! One `Simulator` owns a [`Topology`], the per-node state (host RNICs
//! with per-QP DCQCN reaction/notification points; shared-buffer switches
//! with RED/ECN marking, dynamic-threshold PFC and ToR measurement
//! sketches) and a deterministic event queue. It is crate-private:
//! harnesses drive the fabric through [`crate::Engine`], which holds one
//! core per shard and fans every call out to them:
//!
//! ```text
//! let mut eng = Engine::new(topo, cfg, threads);
//! eng.add_flow(src, dst, bytes, start);
//! loop {
//!     eng.run_until(next_monitor_interval_end);
//!     let metrics = eng.collect_interval();      // switch/RNIC agents upload
//!     if let Some(p) = controller(&metrics) {    // PARALEON tuning round
//!         eng.set_dcqcn_params(&p);              // dispatch to devices
//!     }
//! }
//! ```
//!
//! which mirrors the paper's closed loop: monitor λ_MI, upload, tune,
//! dispatch.
//!
//! # Sharded execution
//!
//! A core built by `Simulator::new` owns every node — that is the whole
//! engine when there is one shard. One built by `new_shard` holds the
//! full topology but *owns* only a subset of nodes (an ownership mask),
//! runs only events targeting owned nodes, and routes events aimed at
//! foreign nodes into per-destination-shard outboxes that the shard
//! workers swap into each other's mailboxes at epoch barriers.
//! Everything that makes every shard count bit-identical is centralized
//! here:
//!
//! * event tie-breaks are *causal keys* — `(source-node namespace <<
//!   KEY_SHIFT) | per-source counter` — which a shard can reproduce
//!   without seeing global push order;
//! * every random draw comes from a per-entity stream (per-switch ECN
//!   RNG, per-node fault-corruption RNG), so draw order depends only on
//!   that entity's own event sequence;
//! * interval metrics accumulate per entity and are folded in global
//!   node order by `Simulator::finalize_interval`, whatever the number
//!   of raw snapshots.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use paraleon_dcqcn::{DcqcnParams, EcnMarker, NpState, RpState};
use paraleon_sketch::hash::hash64;
use paraleon_sketch::ElasticSketch;
use paraleon_telemetry as tel;

use crate::config::SimConfig;
use crate::event::{Event, EventQueue};
use crate::fault::{FaultEvent, FaultKind, FaultPlan, LinkState};
use crate::metrics::{FlowRecord, IntervalAccum, IntervalMetrics, SwitchObs};
use crate::node::{HostState, QueuedPkt, RecvFlow, SenderFlow, SwitchState};
use crate::packet::{Packet, PacketId, PacketKind, PacketPool, CLASS_CTRL, CLASS_DATA, N_CLASSES};
use crate::topology::{NodeKind, Topology};
use crate::{FlowId, Nanos, NodeId, MICRO};

/// Why the simulator refused an API call (bounds-checked alternatives to
/// the panicking entry points).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// A switch index at or beyond the number of switches.
    SwitchIndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Switch count (ToRs + leaves).
        n_switches: usize,
    },
    /// A node id at or beyond the number of nodes.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// Node count.
        n_nodes: usize,
    },
    /// A port index at or beyond the node's radix.
    PortOutOfRange {
        /// The node addressed.
        node: usize,
        /// The offending port index.
        port: usize,
        /// The node's radix.
        n_ports: usize,
    },
    /// Flow endpoints must be two distinct hosts.
    BadEndpoints {
        /// Requested source.
        src: usize,
        /// Requested destination.
        dst: usize,
        /// Host count.
        n_hosts: usize,
    },
    /// Zero-byte flows are not admissible.
    EmptyFlow,
    /// Something was scheduled before the current simulation time.
    TimeInPast {
        /// Requested time.
        at: Nanos,
        /// Current simulation time.
        now: Nanos,
    },
    /// A host-only fault (PFC storm) targeted a non-host node.
    NotAHost {
        /// The offending node id.
        node: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SimError::SwitchIndexOutOfRange { index, n_switches } => {
                write!(f, "switch index {index} out of range (have {n_switches})")
            }
            SimError::NodeOutOfRange { node, n_nodes } => {
                write!(f, "node {node} out of range (have {n_nodes})")
            }
            SimError::PortOutOfRange {
                node,
                port,
                n_ports,
            } => write!(
                f,
                "port {port} out of range on node {node} (radix {n_ports})"
            ),
            SimError::BadEndpoints { src, dst, n_hosts } => write!(
                f,
                "flow endpoints {src}->{dst} must be distinct hosts (< {n_hosts})"
            ),
            SimError::EmptyFlow => write!(f, "zero-byte flow"),
            SimError::TimeInPast { at, now } => {
                write!(f, "time {at} is in the past (now {now})")
            }
            SimError::NotAHost { node } => write!(f, "node {node} is not a host"),
        }
    }
}

impl std::error::Error for SimError {}

/// Static description of one admitted flow.
#[derive(Debug, Clone, Copy)]
struct FlowMeta {
    src: NodeId,
    dst: NodeId,
    bytes: u64,
    start: Nanos,
    qp: FlowId,
    done: bool,
}

/// Bits reserved for the per-source event counter in a causal key; the
/// namespace (source node id offset by [`NODE_NS_BASE`], or one of the
/// external namespaces below it) lives above. 2^40 events per source
/// per run is far beyond any committed workload (whole runs process
/// ~10^7–10^8 events *total*).
pub(crate) const KEY_SHIFT: u32 = 40;

/// External namespace for flow-start events (counter = flow id).
const FLOW_NS: u64 = 0;
/// External namespace for fault-plan events (counter = plan index).
const FAULT_NS: u64 = 1;
/// Node `n`'s causal-key namespace is `n + NODE_NS_BASE`. The external
/// namespaces sort *below* every node namespace on purpose: an external
/// trigger (flow start, fault) pending at time `t` pops before any node
/// event at `t`, so its same-instant children — keyed by the node that
/// handles them — always carry *larger* keys than their parent, and a
/// fault at `t` applies before packets at `t` traverse the link. (The
/// popped key sequence is still not globally sorted within a timestamp:
/// mid-run API insertion at the current instant, e.g. `add_flow` at a
/// collection boundary, is legal and can follow a larger-key pop.)
const NODE_NS_BASE: u64 = 2;

/// Sharding context: which shard this simulator instance is, and who
/// owns each node. `None` (a one-shard engine) owns everything.
#[derive(Debug, Clone)]
pub(crate) struct ShardCtx {
    /// Owner shard of every node id.
    pub shard_of: Arc<Vec<u16>>,
    /// This shard's index.
    pub me: u16,
}

/// A cross-shard event handoff: the scheduled `(at, key, ev)` triple
/// plus, for `Arrive`, the packet itself moved out of the source shard's
/// arena (the destination shard re-inserts it into its own arena and
/// rewrites the id in the event).
#[derive(Debug)]
pub(crate) struct RemoteMsg {
    /// Absolute event time.
    pub at: Nanos,
    /// Causal key (assigned by the *sending* shard from the source
    /// node's counter — identical to the key one shard would assign).
    pub key: u64,
    /// The event (its `PacketId` is stale for `Arrive`; see `pkt`).
    pub ev: Event,
    /// The packet in flight across the shard cut, if any.
    pub pkt: Option<Packet>,
}

/// Per-interval raw data from one shard, merged across shards (trivially
/// for one) by [`Simulator::finalize_interval`].
#[derive(Debug)]
pub(crate) struct IntervalRaw {
    /// Interval start.
    pub start: Nanos,
    /// Interval end (collection instant).
    pub end: Nanos,
    /// The shard's accumulated counters (zero for non-owned entities).
    pub accum: IntervalAccum,
    /// Per-node reachability; meaningful only at owned nodes (non-owned
    /// entries stay `true`, so an AND-merge recovers the owner's value).
    pub reachable: Vec<bool>,
    /// Per-switch marker `seen` delta this interval (owned, else 0).
    pub sw_seen: Vec<u64>,
    /// Per-switch marker `marked` delta this interval (owned, else 0).
    pub sw_marked: Vec<u64>,
    /// Per-switch shared-buffer occupancy at collection (owned, else 0).
    pub sw_buffer: Vec<u64>,
    /// Drained ToR sketches for owned, reachable ToRs.
    pub sketches: Vec<(NodeId, Vec<(FlowId, u64)>)>,
}

/// The packet-level event core: one per [`crate::Engine`] shard.
pub(crate) struct Simulator {
    cfg: SimConfig,
    topo: Topology,
    hosts: Vec<HostState>,
    switches: Vec<SwitchState>,
    events: EventQueue,
    /// Arena for live packets: a packet enters at its source NIC, exits
    /// at its destination host (or on a drop); queues and `Arrive`
    /// events carry 4-byte handles in between.
    packets: PacketPool,
    /// Per-`(node, port)` serialization time of (one full MTU, one
    /// control frame) at clean link rate — the two wire sizes virtually
    /// every packet has, precomputed to keep `f64` ceil-division off the
    /// per-hop path.
    ser_cache: Vec<Vec<(Nanos, Nanos)>>,
    /// `cfg.mtu_wire()`, cached for the serialization fast path.
    mtu_wire: u32,
    now: Nanos,
    /// Per-source-node causal-key counters (tie-break assignment).
    key_seq: Vec<u64>,
    /// Sharding context; `None` = the only shard (owns every node).
    shard: Option<ShardCtx>,
    /// Cross-shard handoff outboxes, one per destination shard (empty
    /// vec for a one-shard engine).
    outboxes: Vec<Vec<RemoteMsg>>,
    /// When set, [`run_window`](Self::run_window) stamps each event's
    /// `(time, key)` onto the thread's telemetry capture (see
    /// `paraleon_telemetry::capture_stamp`) so emissions diverted on
    /// worker threads can be replayed in one-shard order. The
    /// engine sets it at the start of every sharded run, on exactly when
    /// its workers capture.
    pub(crate) tel_capture: bool,
    /// Telemetry captured on this shard's worker thread during a
    /// sharded run, parked here for the coordinator to replay.
    pub(crate) tel_carry: Vec<tel::Captured>,
    /// Audit tallies drained on the worker thread at the end of a
    /// sharded run, parked here for the coordinator to absorb.
    pub(crate) audit_carry: (u64, Vec<paraleon_audit::AuditReport>),
    flows: Vec<FlowMeta>,
    completions: Vec<FlowRecord>,
    accum: IntervalAccum,
    interval_start: Nanos,
    active_flows: usize,
    base_rtt_cache: crate::fasthash::FastMap<(NodeId, NodeId), Nanos>,
    /// Per-node, per-port runtime link state (mutated by fault events;
    /// all-clean unless a fault plan is installed).
    links: Vec<Vec<LinkState>>,
    /// Directed links currently down (recounted on LinkDown/LinkUp
    /// faults). Zero in the common fault-free case, which lets routing
    /// skip the per-port liveness mask entirely.
    links_down: u32,
    /// Installed fault transitions, addressed by `Event::Fault` index.
    fault_plan: Vec<FaultEvent>,
    /// Dedicated per-node RNGs for corruption draws, so fault injection
    /// never perturbs the switches' own random streams (ECN coin flips)
    /// — and so each node's draw sequence depends only on the packets it
    /// transmitted, which makes the draws shard-independent.
    fault_rngs: Vec<StdRng>,
    /// XOFF/XON pairing mirror (ZST unless the `audit` feature is on).
    pfc_audit: paraleon_audit::PfcPairAudit,
    /// Total data packets dropped over the whole run.
    pub total_drops: u64,
    /// Total packets lost to injected faults over the whole run.
    pub total_fault_drops: u64,
    /// Total PFC pause frames over the whole run.
    pub total_pfc_events: u64,
    /// Total events processed (performance accounting).
    pub events_processed: u64,
}

/// Per-ToR sketch seed: the configured base seed decorrelated by switch
/// id through a full-avalanche mix. The derivation must not leave
/// related switches' seeds a small XOR apart: the sketch keys its
/// count-min rows as `seed ^ (row constant)`, so a low-weight difference
/// between two switches' seeds can make a row on one switch hash every
/// flow identically to a row on another — correlated estimation errors
/// that the controller's merge (which assumes independent per-switch
/// error) cannot average away.
pub(crate) fn tor_sketch_seed(base: u64, node: usize) -> u64 {
    crate::fasthash::mix64(base ^ node as u64)
}

impl Simulator {
    /// Build a simulator over `topo` with configuration `cfg`.
    pub fn new(topo: Topology, cfg: SimConfig) -> Self {
        let n_hosts = topo.n_hosts();
        let n_nodes = topo.n_nodes();
        let hosts = (0..n_hosts)
            .map(|_| HostState::new(cfg.dcqcn.min_time_between_cnps, cfg.incast_window))
            .collect();
        let mut switches = Vec::new();
        for node in n_hosts..n_nodes {
            let n_ports = topo.ports(node).len();
            let marker = EcnMarker::from_params(&cfg.dcqcn);
            let sketch = if topo.kind(node) == NodeKind::Tor {
                let mut sk_cfg = cfg.sketch.clone();
                // Distinct hash seeds per switch, like distinct hardware.
                sk_cfg.seed = tor_sketch_seed(sk_cfg.seed, node);
                Some(ElasticSketch::new(sk_cfg))
            } else {
                None
            };
            // Distinct RED coin-flip streams per switch, same derivation
            // discipline as the sketch seeds.
            let ecn_seed = crate::fasthash::mix64(cfg.seed ^ node as u64);
            switches.push(SwitchState::new(n_ports, marker, ecn_seed, sketch));
        }
        let accum = IntervalAccum::new(n_nodes, n_hosts);
        let fault_rngs = (0..n_nodes)
            .map(|n| Self::fault_rng_for(cfg.seed ^ 0xFA11_FA11_FA11_FA11, n))
            .collect();
        let links = (0..n_nodes)
            .map(|n| vec![LinkState::default(); topo.ports(n).len()])
            .collect();
        let mtu_wire = cfg.mtu_wire();
        let ser_cache = (0..n_nodes)
            .map(|n| {
                topo.ports(n)
                    .iter()
                    .map(|p| {
                        (
                            ((mtu_wire as f64) / p.bw).ceil() as Nanos,
                            ((cfg.ctrl_bytes as f64) / p.bw).ceil() as Nanos,
                        )
                    })
                    .collect()
            })
            .collect();
        Self {
            cfg,
            topo,
            hosts,
            switches,
            events: EventQueue::new(),
            packets: PacketPool::new(),
            ser_cache,
            mtu_wire,
            now: 0,
            key_seq: vec![0; n_nodes],
            shard: None,
            outboxes: Vec::new(),
            tel_capture: false,
            tel_carry: Vec::new(),
            audit_carry: (0, Vec::new()),
            flows: Vec::new(),
            completions: Vec::new(),
            accum,
            interval_start: 0,
            active_flows: 0,
            base_rtt_cache: crate::fasthash::FastMap::default(),
            links,
            links_down: 0,
            fault_plan: Vec::new(),
            fault_rngs,
            pfc_audit: paraleon_audit::PfcPairAudit::default(),
            total_drops: 0,
            total_fault_drops: 0,
            total_pfc_events: 0,
            events_processed: 0,
        }
    }

    /// Build shard `me` of `n_shards`: a full-topology simulator that
    /// owns (runs events for) only the nodes `shard_of` maps to `me`, and
    /// routes events for foreign nodes into per-shard outboxes.
    pub(crate) fn new_shard(
        topo: Topology,
        cfg: SimConfig,
        shard_of: &Arc<Vec<u16>>,
        me: usize,
        n_shards: usize,
    ) -> Self {
        let mut s = Self::new(topo, cfg);
        debug_assert_eq!(shard_of.len(), s.topo.n_nodes());
        s.outboxes = (0..n_shards).map(|_| Vec::new()).collect();
        s.shard = Some(ShardCtx {
            shard_of: Arc::clone(shard_of),
            me: me as u16,
        });
        s
    }

    /// Per-node fault-corruption RNG derivation (shared by the
    /// constructor and `install_fault_plan`'s reseed).
    fn fault_rng_for(base: u64, node: usize) -> StdRng {
        StdRng::seed_from_u64(crate::fasthash::mix64(base ^ node as u64))
    }

    /// Whether this engine instance runs events targeting `node`.
    #[inline]
    fn owns(&self, node: NodeId) -> bool {
        match &self.shard {
            None => true,
            Some(s) => s.shard_of[node] as usize == s.me as usize,
        }
    }

    /// Next causal key for an event generated by `src`'s handler.
    #[inline]
    fn next_key(&mut self, src: NodeId) -> u64 {
        let k = ((src as u64 + NODE_NS_BASE) << KEY_SHIFT) | self.key_seq[src];
        self.key_seq[src] += 1;
        k
    }

    /// Schedule an event whose target is the generating node itself
    /// (pacing ticks, port-free, retransmission timers): always local.
    #[inline]
    fn sched_local(&mut self, src: NodeId, at: Nanos, ev: Event) {
        let key = self.next_key(src);
        self.events.push(at, key, ev);
    }

    /// Schedule an event generated by `src` but targeting `dst` (packet
    /// arrivals, PFC pause frames): runs locally when this shard owns
    /// `dst`, otherwise crosses the cut through an outbox — carrying the
    /// packet by value for `Arrive` so each arena's conservation tallies
    /// stay self-consistent.
    fn sched_cross(
        &mut self,
        src: NodeId,
        dst: NodeId,
        at: Nanos,
        ev: Event,
        pkt: Option<PacketId>,
    ) {
        let key = self.next_key(src);
        if let Some(ctx) = &self.shard {
            let dst_shard = ctx.shard_of[dst];
            if dst_shard != ctx.me {
                let pkt = pkt.map(|id| self.packets.take(id));
                self.outboxes[dst_shard as usize].push(RemoteMsg { at, key, ev, pkt });
                return;
            }
        }
        self.events.push(at, key, ev);
    }

    /// The outbox bound for shard `dst`, for the epoch exchange to swap
    /// against that shard's (empty) mailbox slot.
    pub(crate) fn outbox_mut(&mut self, dst: usize) -> &mut Vec<RemoteMsg> {
        &mut self.outboxes[dst]
    }

    /// How many cross-shard handoffs are waiting in outboxes.
    pub(crate) fn outboxes_pending(&self) -> usize {
        self.outboxes.iter().map(Vec::len).sum()
    }

    /// Number of flows ever admitted (the next flow id / default QP).
    pub(crate) fn flow_count(&self) -> FlowId {
        self.flows.len() as FlowId
    }

    /// Accept a cross-shard handoff: re-home the packet (if any) into
    /// this shard's arena and enqueue the event under its original
    /// `(at, key)` — the queue's total order does the rest.
    pub(crate) fn inject_remote(&mut self, msg: RemoteMsg) {
        let ev = match (msg.ev, msg.pkt) {
            (Event::Arrive { node, in_port, .. }, Some(p)) => {
                let pkt = self.packets.insert(p);
                Event::Arrive { node, in_port, pkt }
            }
            (ev, None) => ev,
            (ev, Some(_)) => unreachable!("packet attached to non-arrive event {ev:?}"),
        };
        self.events.push(msg.at, msg.key, ev);
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Number of admitted flows not yet completed.
    pub fn active_flows(&self) -> usize {
        self.active_flows
    }

    /// Validate and admit a flow on QP identity `qp` (the checks behind
    /// `Engine::try_add_flow_on_qp`). Every shard registers every flow —
    /// flow ids are indices into `flows`, so the table must stay globally
    /// aligned — but only the source owner schedules it and counts it as
    /// active.
    pub fn try_add_flow_on_qp(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        start: Nanos,
        qp: FlowId,
    ) -> Result<FlowId, SimError> {
        let n_hosts = self.topo.n_hosts();
        if src >= n_hosts || dst >= n_hosts || src == dst {
            return Err(SimError::BadEndpoints { src, dst, n_hosts });
        }
        if bytes == 0 {
            return Err(SimError::EmptyFlow);
        }
        if start < self.now {
            return Err(SimError::TimeInPast {
                at: start,
                now: self.now,
            });
        }
        let id = self.flows.len() as FlowId;
        self.flows.push(FlowMeta {
            src,
            dst,
            bytes,
            start,
            qp,
            done: false,
        });
        if self.owns(src) {
            self.active_flows += 1;
            // External namespace with the flow id as counter: identical
            // at every shard count without any shared counter state.
            let key = (FLOW_NS << KEY_SHIFT) | id;
            self.events.push(start, key, Event::FlowStart(id));
        }
        Ok(id)
    }

    /// Drain the flows this shard completed since the last call, in
    /// processing order; `Engine::take_completions` sorts the shards'
    /// lists into the canonical `(finish, flow)` order.
    pub fn take_completions(&mut self) -> Vec<FlowRecord> {
        std::mem::take(&mut self.completions)
    }

    /// Dispatch a parameter setting to every RNIC and switch.
    pub fn set_dcqcn_params(&mut self, params: &DcqcnParams) {
        self.cfg.dcqcn = *params;
        for h in &mut self.hosts {
            h.set_params(params);
        }
        for s in &mut self.switches {
            s.marker.set_params(params);
        }
    }

    /// The active parameter setting.
    pub fn dcqcn_params(&self) -> &DcqcnParams {
        &self.cfg.dcqcn
    }

    /// Override one switch's ECN thresholds (ToRs first, then leaves).
    pub fn set_switch_ecn(
        &mut self,
        switch_index: usize,
        params: &DcqcnParams,
    ) -> Result<(), SimError> {
        let n_switches = self.switches.len();
        let sw = self
            .switches
            .get_mut(switch_index)
            .ok_or(SimError::SwitchIndexOutOfRange {
                index: switch_index,
                n_switches,
            })?;
        sw.marker.set_params(params);
        Ok(())
    }

    /// Number of switches (ToRs + leaves).
    pub fn n_switches(&self) -> usize {
        self.switches.len()
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// One shard's share of `Engine::install_fault_plan`: validate and
    /// record every transition, reseed the corruption RNGs, and schedule
    /// one `Event::Fault` for each transition this shard must run.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), SimError> {
        let n_nodes = self.topo.n_nodes();
        let n_hosts = self.topo.n_hosts();
        for ev in plan.events() {
            if ev.at < self.now {
                return Err(SimError::TimeInPast {
                    at: ev.at,
                    now: self.now,
                });
            }
            // Control-plane transitions carry no link address; they are
            // consumed by the closed loop, not the data plane.
            if ev.kind.is_ctrl() {
                continue;
            }
            if ev.node >= n_nodes {
                return Err(SimError::NodeOutOfRange {
                    node: ev.node,
                    n_nodes,
                });
            }
            match ev.kind {
                FaultKind::PfcStormStart | FaultKind::PfcStormEnd => {
                    if ev.node >= n_hosts {
                        return Err(SimError::NotAHost { node: ev.node });
                    }
                }
                _ => {
                    let n_ports = self.topo.ports(ev.node).len();
                    if ev.port >= n_ports {
                        return Err(SimError::PortOutOfRange {
                            node: ev.node,
                            port: ev.port,
                            n_ports,
                        });
                    }
                }
            }
        }
        for n in 0..n_nodes {
            self.fault_rngs[n] = Self::fault_rng_for(plan.seed, n);
        }
        for ev in plan.events() {
            if ev.kind.is_ctrl() {
                continue;
            }
            // Every shard records every transition so `Event::Fault`
            // indices stay globally aligned; only shards owning one of
            // the affected link ends schedule it.
            let idx = self.fault_plan.len() as u32;
            self.fault_plan.push(*ev);
            if self.fault_relevant(ev) {
                // External namespace with the plan index as counter:
                // shared-state-free, identical across engines (replicas
                // on two shards carry the same key and run at the same
                // barrier-aligned instant).
                let key = (FAULT_NS << KEY_SHIFT) | idx as u64;
                self.events.push(ev.at, key, Event::Fault(idx));
            }
        }
        Ok(())
    }

    /// Whether this engine instance must run a fault transition: it owns
    /// the addressed node or the peer across the addressed link. The
    /// only shard of an uncut topology owns everything.
    fn fault_relevant(&self, ev: &FaultEvent) -> bool {
        if self.shard.is_none() {
            return true;
        }
        let peer = match ev.kind {
            FaultKind::PfcStormStart | FaultKind::PfcStormEnd => self.topo.ports(ev.node)[0].peer,
            _ => self.topo.ports(ev.node)[ev.port].peer,
        };
        self.owns(ev.node) || self.owns(peer)
    }

    /// Runtime state of the directed link at `(node, port)`.
    pub fn link_state(&self, node: NodeId, port: usize) -> LinkState {
        self.links[node][port]
    }

    /// Whether `node` still has at least one live link — a fully
    /// cut-off switch cannot upload observations or sketch readings.
    pub fn node_reachable(&self, node: NodeId) -> bool {
        self.links[node].iter().any(|l| l.up)
    }

    fn apply_fault(&mut self, idx: u32) {
        let ev = self.fault_plan[idx as usize];
        let FaultEvent {
            node, port, kind, ..
        } = ev;
        // A cross-cut fault is replicated onto both end shards; the shard
        // owning `ev.node` is the *primary* and performs the one-time
        // side effects (telemetry, global counters). The secondary only
        // updates its own side's link state — and un-counts the replica
        // so `events_processed` sums to the one-shard figure.
        let primary = self.owns(node);
        if !primary {
            self.events_processed -= 1;
        }
        match kind {
            FaultKind::LinkDown => {
                self.set_link_owned(node, port, |l| l.up = false);
                self.recount_links_down();
                if primary {
                    tel::event_at(
                        self.now,
                        tel::Event::FaultLinkDown {
                            node: node as u32,
                            port: port as u32,
                        },
                    );
                }
            }
            FaultKind::LinkUp => {
                self.set_link_owned(node, port, |l| l.up = true);
                self.recount_links_down();
                if primary {
                    tel::event_at(
                        self.now,
                        tel::Event::FaultLinkUp {
                            node: node as u32,
                            port: port as u32,
                        },
                    );
                }
                // Restart any idle port that queued packets while down —
                // each side's owner restarts its own end (the restart
                // only generates events sourced at that end, so causal
                // keys stay consistent with a one-shard run).
                if self.owns(node) {
                    self.kick_port(node, port);
                }
                let peer = self.topo.ports(node)[port];
                if self.owns(peer.peer) {
                    self.kick_port(peer.peer, peer.peer_port);
                }
            }
            FaultKind::Degrade { factor } => {
                self.set_link_owned(node, port, |l| l.rate_factor = factor);
                if primary {
                    tel::event_at(
                        self.now,
                        tel::Event::FaultDegrade {
                            node: node as u32,
                            port: port as u32,
                            factor,
                        },
                    );
                }
            }
            FaultKind::PktLoss { drop_prob } => {
                self.set_link_owned(node, port, |l| l.drop_prob = drop_prob);
                if primary {
                    tel::event_at(
                        self.now,
                        tel::Event::FaultPktLoss {
                            node: node as u32,
                            port: port as u32,
                            drop_prob,
                        },
                    );
                }
            }
            FaultKind::PfcStormStart => {
                // The misbehaving host asserts sustained XOFF: freeze its
                // ToR down-port. Congestion then spreads upstream through
                // the shared buffer exactly as a real storm would. The
                // partitioner co-locates a host with its ToR, so the
                // primary owner handles the whole transition.
                let up = self.topo.ports(node)[0];
                debug_assert!(
                    self.shard.is_none() || self.owns(node) == self.owns(up.peer),
                    "PFC storm across a shard cut: host and ToR must share a shard"
                );
                if primary {
                    self.accum.pfc_events += 1;
                    self.total_pfc_events += 1;
                    tel::event_at(self.now, tel::Event::PfcStormStart { host: node as u32 });
                    self.on_pfc_set(up.peer, up.peer_port, true);
                }
            }
            FaultKind::PfcStormEnd => {
                let up = self.topo.ports(node)[0];
                if primary {
                    tel::event_at(self.now, tel::Event::PfcStormEnd { host: node as u32 });
                    self.on_pfc_set(up.peer, up.peer_port, false);
                }
            }
            // Control-plane transitions never reach the event queue —
            // `install_fault_plan` filters them out.
            FaultKind::CtrlImpair { .. } | FaultKind::CtrlCrash { .. } => {
                unreachable!("ctrl fault scheduled on the data plane")
            }
        }
    }

    /// Apply `f` to the owned end(s) of the directed link pair at
    /// `(node, port)`. A lone shard owns both ends; one of several touches
    /// only its own rows (a foreign row would never be consulted here,
    /// but writing it would race under parallel execution).
    fn set_link_owned(&mut self, node: NodeId, port: usize, f: impl Fn(&mut LinkState)) {
        let peer = self.topo.ports(node)[port];
        if self.owns(node) {
            f(&mut self.links[node][port]);
        }
        if self.owns(peer.peer) {
            f(&mut self.links[peer.peer][peer.peer_port]);
        }
    }

    /// Recount [`Self::links_down`] after a liveness transition. O(links),
    /// but only runs on (rare) LinkDown/LinkUp fault events; counting
    /// transitions instead would miscount idempotent re-application.
    /// Counts owned rows only: routing from owned nodes consults owned
    /// rows exclusively, so the fast-path predicate stays sound per shard.
    fn recount_links_down(&mut self) {
        let mut down = 0u32;
        for (n, ls) in self.links.iter().enumerate() {
            if match &self.shard {
                None => true,
                Some(s) => s.shard_of[n] == s.me,
            } {
                down += ls.iter().filter(|l| !l.up).count() as u32;
            }
        }
        self.links_down = down;
    }

    fn kick_port(&mut self, node: NodeId, port: usize) {
        match self.topo.kind(node) {
            NodeKind::Host => {
                if !self.hosts[node].tx_busy {
                    self.host_try_tx(node);
                }
            }
            _ => {
                let sw = node - self.topo.n_hosts();
                if !self.switches[sw].ports[port].busy {
                    self.switch_try_tx(node, port);
                }
            }
        }
    }

    /// A packet leaves `(node, port)`: returns `false` when an injected
    /// fault eats it on the wire (dead link, or a corruption draw from
    /// the plan's dedicated RNG stream).
    fn link_delivers(&mut self, node: NodeId, port: usize) -> bool {
        let ls = self.links[node][port];
        if ls.is_clean() {
            return true;
        }
        let delivered =
            ls.up && (ls.drop_prob <= 0.0 || self.fault_rngs[node].gen::<f64>() >= ls.drop_prob);
        if !delivered {
            self.accum.fault_drops += 1;
            self.total_fault_drops += 1;
            tel::count(tel::Ctr::FaultDrops);
        }
        delivered
    }

    /// Run one execution window: all pending events with `ts <= end`
    /// (`inclusive`, a whole `Engine::run_until` on one shard) or
    /// `ts < end` (the half-open epoch windows of several — events at
    /// exactly the barrier must wait for the mailbox exchange so
    /// same-instant cross-shard events keep their key order). The clock
    /// is left at `end` either way; an exclusive window may be followed
    /// by an inclusive window at the same `end`.
    pub(crate) fn run_window(&mut self, end: Nanos, inclusive: bool) {
        if inclusive {
            while let Some((ts, key, ev)) = self.events.pop_before(end) {
                debug_assert!(ts >= self.now);
                self.now = ts;
                if self.tel_capture {
                    tel::capture_stamp(ts, key);
                }
                self.events_processed += 1;
                self.handle(ev);
            }
        } else {
            while let Some((ts, key, ev)) = self.events.pop_strictly_before(end) {
                debug_assert!(ts >= self.now);
                self.now = ts;
                if self.tel_capture {
                    tel::capture_stamp(ts, key);
                }
                self.events_processed += 1;
                self.handle(ev);
            }
        }
        self.now = end;
    }

    /// Whether any events remain scheduled.
    pub fn has_pending_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// Base RTT between two hosts (cached; used for RTT normalisation).
    pub fn base_rtt(&mut self, a: NodeId, b: NodeId) -> Nanos {
        let key = (a.min(b), a.max(b));
        if let Some(&v) = self.base_rtt_cache.get(&key) {
            return v;
        }
        let v = self
            .topo
            .base_rtt(key.0, key.1, self.cfg.mtu_wire(), self.cfg.ctrl_bytes);
        self.base_rtt_cache.insert(key, v);
        v
    }

    /// The per-shard half of interval collection: close pause intervals,
    /// take the accumulators, snapshot per-switch observables and drain
    /// sketches — for *owned* entities only — and run the audit sweep.
    pub(crate) fn interval_raw(&mut self) -> IntervalRaw {
        let dt = self.now.saturating_sub(self.interval_start);
        self.finalize_pause_accounting();
        let n_hosts = self.topo.n_hosts();
        let n_nodes = self.topo.n_nodes();
        // Reachability is computed from this shard's link rows; foreign
        // rows are never faulted here, so `true` placeholders AND-merge
        // into the owner's verdict.
        let reachable: Vec<bool> = (0..n_nodes)
            .map(|n| !self.owns(n) || self.node_reachable(n))
            .collect();
        let n_sw = self.switches.len();
        let mut sw_seen = vec![0u64; n_sw];
        let mut sw_marked = vec![0u64; n_sw];
        let mut sw_buffer = vec![0u64; n_sw];
        let mut sketches = Vec::new();
        for i in 0..n_sw {
            let node = n_hosts + i;
            if !self.owns(node) {
                continue;
            }
            let sw = &mut self.switches[i];
            // Per-interval marking deltas; snapshots advance even when
            // the switch is unreachable (the delta is simply not
            // uploaded, matching a dead management channel).
            sw_seen[i] = sw.marker.seen - sw.prev_seen;
            sw_marked[i] = sw.marker.marked - sw.prev_marked;
            sw.prev_seen = sw.marker.seen;
            sw.prev_marked = sw.marker.marked;
            sw_buffer[i] = sw.buffer_used;
            // Drain ToR sketches (control-plane read-and-reset). A
            // cut-off ToR cannot answer the read: its sketch keeps
            // accumulating and is delivered after connectivity returns.
            if reachable[node] {
                if let Some(sk) = sw.sketch.as_mut() {
                    let entries: Vec<(FlowId, u64)> =
                        sk.drain().into_iter().map(|e| (e.flow, e.bytes)).collect();
                    sketches.push((node, entries));
                }
            }
        }
        self.audit_sweep(dt);
        let accum = std::mem::replace(&mut self.accum, IntervalAccum::new(n_nodes, n_hosts));
        let raw = IntervalRaw {
            start: self.interval_start,
            end: self.now,
            accum,
            reachable,
            sw_seen,
            sw_marked,
            sw_buffer,
            sketches,
        };
        self.interval_start = self.now;
        raw
    }

    /// The engine-independent half of interval collection: merge one raw
    /// snapshot per shard (each entity's data lives in exactly one) and
    /// compute the uploaded metrics, folding in global node order so the
    /// floating-point results are bit-identical between engines.
    pub(crate) fn finalize_interval(
        topo: &Topology,
        cfg: &SimConfig,
        raws: Vec<IntervalRaw>,
    ) -> IntervalMetrics {
        let mut it = raws.into_iter();
        let mut base = it.next().expect("at least one shard");
        for r in it {
            debug_assert_eq!(base.start, r.start);
            debug_assert_eq!(base.end, r.end);
            let a = &mut base.accum;
            let b = r.accum;
            for (x, y) in a.host_up_bytes.iter_mut().zip(&b.host_up_bytes) {
                *x += y;
            }
            for (x, y) in a.host_down_bytes.iter_mut().zip(&b.host_down_bytes) {
                *x += y;
            }
            // Safe f64 merge: a host's samples accumulate on exactly one
            // shard, so this is selection, not reassociation.
            for (x, y) in a.gamma_sum.iter_mut().zip(&b.gamma_sum) {
                *x += y;
            }
            for (x, y) in a.rtt_sum.iter_mut().zip(&b.rtt_sum) {
                *x += y;
            }
            for (x, y) in a.rtt_count.iter_mut().zip(&b.rtt_count) {
                *x += y;
            }
            for (x, y) in a.pause_ns.iter_mut().zip(&b.pause_ns) {
                *x += y;
            }
            for (x, y) in a.switch_tx_bytes.iter_mut().zip(&b.switch_tx_bytes) {
                *x += y;
            }
            a.cnps += b.cnps;
            a.ecn_marks += b.ecn_marks;
            a.drops += b.drops;
            a.fault_drops += b.fault_drops;
            a.bytes_delivered += b.bytes_delivered;
            a.pfc_events += b.pfc_events;
            for (flow, bytes) in b.truth_flow_bytes {
                *a.truth_flow_bytes.entry(flow).or_insert(0) += bytes;
            }
            for (x, y) in base.reachable.iter_mut().zip(&r.reachable) {
                *x &= y;
            }
            for (x, y) in base.sw_seen.iter_mut().zip(&r.sw_seen) {
                *x += y;
            }
            for (x, y) in base.sw_marked.iter_mut().zip(&r.sw_marked) {
                *x += y;
            }
            for (x, y) in base.sw_buffer.iter_mut().zip(&r.sw_buffer) {
                *x += y;
            }
            base.sketches.extend(r.sketches);
        }
        base.sketches.sort_unstable_by_key(|&(n, _)| n);

        let accum = &base.accum;
        let reachable = &base.reachable;
        let dt = base.end.saturating_sub(base.start);
        let dt_f = dt.max(1) as f64;

        // O_TP over active host<->ToR uplinks.
        let mut util_sum = 0.0;
        let mut util_n = 0u32;
        for h in 0..topo.n_hosts() {
            let bw = topo.ports(h)[0].bw; // bytes/ns
            for bytes in [accum.host_up_bytes[h], accum.host_down_bytes[h]] {
                if bytes > 0 {
                    util_sum += (bytes as f64 / (bw * dt_f)).min(1.0);
                    util_n += 1;
                }
            }
        }
        let avg_util = if util_n == 0 {
            0.0
        } else {
            util_sum / util_n as f64
        };

        // O_RTT: fold per-host partial sums in host order.
        let mut gamma_sum = 0.0;
        let mut rtt_sum = 0.0;
        let mut rtt_count = 0u64;
        for h in 0..topo.n_hosts() {
            gamma_sum += accum.gamma_sum[h];
            rtt_sum += accum.rtt_sum[h];
            rtt_count += accum.rtt_count[h];
        }
        let (gamma, avg_rtt) = if rtt_count == 0 {
            (1.0, 0.0)
        } else {
            (gamma_sum / rtt_count as f64, rtt_sum / rtt_count as f64)
        };

        // O_PFC over devices the controller can still hear from — a
        // fully cut-off node cannot upload pause statistics, and must
        // not be averaged in as a silent zero.
        let mut pause_sum = 0.0;
        let mut present = 0u32;
        for (node, &p) in accum.pause_ns.iter().enumerate() {
            if !reachable[node] {
                continue;
            }
            present += 1;
            pause_sum += (p.min(dt) as f64) / dt_f;
        }
        let pause_ratio = pause_sum / present.max(1) as f64;

        // Per-switch local observations (the ACC agents' inputs). A
        // switch with every link dead stops uploading: it is simply
        // absent from this interval's `switch_obs`.
        let n_sw = base.sw_seen.len();
        let mut switch_obs = Vec::with_capacity(n_sw);
        for i in 0..n_sw {
            let node = topo.n_hosts() + i;
            if !reachable[node] {
                continue;
            }
            let seen = base.sw_seen[i];
            let marked = base.sw_marked[i];
            let total_bw: f64 = topo.ports(node).iter().map(|p| p.bw).sum();
            let tx_util = (accum.switch_tx_bytes[i] as f64 / (total_bw * dt_f)).min(1.0);
            let marking_rate = if seen == 0 {
                0.0
            } else {
                marked as f64 / seen as f64
            };
            let queue_frac = base.sw_buffer[i] as f64 / cfg.switch_buffer_bytes.max(1) as f64;
            switch_obs.push(SwitchObs {
                node,
                tx_utilization: tx_util,
                marking_rate,
                queue_frac,
            });
        }

        let mut truth: Vec<(FlowId, u64)> = base.accum.truth_flow_bytes.drain().collect();
        truth.sort_unstable();

        IntervalMetrics {
            start: base.start,
            end: base.end,
            avg_uplink_utilization: avg_util,
            avg_normalized_rtt: gamma.min(1.0),
            avg_rtt_ns: avg_rtt,
            pfc_pause_ratio: pause_ratio.min(1.0),
            cnps: base.accum.cnps,
            ecn_marks: base.accum.ecn_marks,
            drops: base.accum.drops,
            fault_drops: base.accum.fault_drops,
            pfc_events: base.accum.pfc_events,
            bytes_delivered: base.accum.bytes_delivered,
            switch_obs,
            tor_sketches: base.sketches,
            truth_flow_bytes: truth,
        }
    }

    /// Structural invariant sweep run at every interval collection (the
    /// natural event boundary where no packet is mid-function). Folds to
    /// nothing unless the `audit` feature is on.
    fn audit_sweep(&self, dt: Nanos) {
        use paraleon_audit as audit;
        if !audit::enabled() {
            return;
        }
        // Packet conservation: per-flow tallies must match the arena.
        self.packets.audit_check();
        let n_hosts = self.topo.n_hosts();
        for (i, s) in self.switches.iter().enumerate() {
            let node = (n_hosts + i) as u32;
            // Shared-buffer occupancy == Σ lossless queued bytes == Σ
            // per-ingress accounting, and never above capacity.
            let queued: u64 = s.ports.iter().map(|p| p.qbytes[CLASS_DATA]).sum();
            let ingress: u64 = s.ingress_bytes.iter().sum();
            audit::check(s.buffer_used == queued && s.buffer_used == ingress, || {
                audit::AuditViolation::BufferAccounting {
                    switch: node,
                    buffer_used: s.buffer_used,
                    queued,
                    ingress,
                }
            });
            audit::check(s.buffer_used <= self.cfg.switch_buffer_bytes, || {
                audit::AuditViolation::BufferOverflow {
                    switch: node,
                    buffer_used: s.buffer_used,
                    buffer_total: self.cfg.switch_buffer_bytes,
                }
            });
            // Per-(port, class) byte counters == wire bytes actually
            // sitting in the queues.
            for (pi, p) in s.ports.iter().enumerate() {
                for c in 0..N_CLASSES {
                    let sum: u64 = p.queues[c].iter().map(|q| q.wire as u64).sum();
                    audit::check(p.qbytes[c] == sum, || {
                        audit::AuditViolation::QueueAccounting {
                            switch: node,
                            port: pi as u32,
                            class: c as u32,
                            qbytes: p.qbytes[c],
                            queued: sum,
                        }
                    });
                }
            }
        }
        // Pause-time budgets: a host has one port, so its accumulated
        // pause cannot exceed the interval; a switch accumulates per
        // node, so its bound is dt × radix.
        for (node, &p) in self.accum.pause_ns.iter().enumerate() {
            let budget = if node < n_hosts {
                dt
            } else {
                dt * self.topo.ports(node).len() as u64
            };
            audit::check(p <= budget, || audit::AuditViolation::PfcPauseOverflow {
                node: node as u32,
                pause_ns: p,
                budget_ns: budget,
            });
        }
    }

    /// Close out pause intervals that span the collection instant.
    fn finalize_pause_accounting(&mut self) {
        let now = self.now;
        let istart = self.interval_start;
        for (h, host) in self.hosts.iter_mut().enumerate() {
            if let Some(st) = host.pause_started {
                self.accum.pause_ns[h] += now.saturating_sub(st.max(istart));
                host.pause_started = Some(now);
            }
        }
        let n_hosts = self.topo.n_hosts();
        for (i, sw) in self.switches.iter_mut().enumerate() {
            for p in &mut sw.ports {
                if let Some(st) = p.pause_started {
                    self.accum.pause_ns[n_hosts + i] += now.saturating_sub(st.max(istart));
                    p.pause_started = Some(now);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::FlowStart(f) => self.on_flow_start(f),
            Event::QpSend(f) => self.on_qp_send(f),
            Event::Arrive { node, in_port, pkt } => {
                let node = node as NodeId;
                match self.topo.kind(node) {
                    NodeKind::Host => self.host_receive(node, pkt),
                    _ => self.switch_receive(node, in_port as usize, pkt),
                }
            }
            Event::PortFree { node, port } => {
                let (node, port) = (node as NodeId, port as usize);
                match self.topo.kind(node) {
                    NodeKind::Host => {
                        self.hosts[node].tx_busy = false;
                        self.unblock_host_flows(node);
                        self.host_try_tx(node);
                    }
                    _ => {
                        let sw = node - self.topo.n_hosts();
                        self.switches[sw].ports[port].busy = false;
                        self.switch_try_tx(node, port);
                    }
                }
            }
            Event::PfcSet { node, port, paused } => {
                self.on_pfc_set(node as NodeId, port as usize, paused)
            }
            Event::RetxCheck(f) => self.on_retx_check(f),
            Event::Fault(idx) => self.apply_fault(idx),
        }
    }

    fn on_flow_start(&mut self, f: FlowId) {
        let meta = self.flows[f as usize];
        let port = self.topo.ports(meta.src)[0];
        let line_rate = port.bw * 1e9; // bytes/ns -> bytes/sec
        let rp = RpState::new(line_rate, self.cfg.dcqcn, self.now);
        self.hosts[meta.src].senders.insert(
            f,
            SenderFlow {
                dst: meta.dst,
                bytes: meta.bytes,
                sent: 0,
                acked: 0,
                rp,
                send_scheduled: true,
                last_send: None,
                blocked: false,
                last_progress: self.now,
                retx_armed: false,
                done: false,
            },
        );
        self.sched_local(meta.src, self.now, Event::QpSend(f));
    }

    /// A QP pacing tick. The pacing gap after a segment is
    /// `wire_bytes / R_C`, but `R_C` keeps moving (DCQCN timer increases),
    /// so a tick that fires before the gap has elapsed *re-evaluates* at
    /// the earlier of the remaining gap or one increase-timer period —
    /// this is what lets a min-rate QP recover at timer speed instead of
    /// once per (possibly huge) pacing gap.
    fn on_qp_send(&mut self, f: FlowId) {
        /// Upper bound between pacing re-evaluations for throttled QPs.
        const RECHECK: Nanos = 50 * MICRO;
        let meta = self.flows[f as usize];
        let h = meta.src;
        let (payload, wire, dst, next_gap, all_sent, arm_retx);
        {
            let nic_limit = self.cfg.nic_queue_pkts;
            let data_depth = self.hosts[h].tx_queues[CLASS_DATA].len();
            let Some(s) = self.hosts[h].senders.get_mut(&f) else {
                return; // completed
            };
            s.send_scheduled = false;
            if s.done || s.sent >= s.bytes {
                return;
            }
            if data_depth >= nic_limit {
                if !s.blocked {
                    s.blocked = true;
                    self.hosts[h].blocked.push(f);
                }
                return;
            }
            s.rp.advance(self.now);
            payload = (self.cfg.mtu_payload as u64).min(s.bytes - s.sent) as u32;
            wire = payload + self.cfg.header_bytes;
            dst = s.dst;
            // Pacing: may we transmit yet at the *current* rate?
            let rate = s.rp.rate().max(1.0); // bytes/sec
            if let Some(last) = s.last_send {
                let gap = ((wire as f64) * 1e9 / rate).ceil() as Nanos;
                let allowed = last.saturating_add(gap);
                if allowed > self.now {
                    // Too early; re-check when the gap (at today's rate)
                    // elapses, or sooner so rate recovery shortens it.
                    s.send_scheduled = true;
                    let recheck = allowed.min(self.now + RECHECK).max(self.now + 1);
                    self.sched_local(h, recheck, Event::QpSend(f));
                    return;
                }
            }
            let seq = s.sent;
            s.sent += payload as u64;
            s.last_send = Some(self.now);
            all_sent = s.sent >= s.bytes;
            s.rp.on_send(self.now, wire as u64);
            let rate = s.rp.rate().max(1.0);
            next_gap = ((wire as f64) * 1e9 / rate).ceil() as Nanos;
            arm_retx = all_sent && !s.retx_armed;
            if arm_retx {
                s.retx_armed = true;
            }
            if !all_sent {
                s.send_scheduled = true;
            }
            let pkt = Packet::data(
                f,
                meta.qp,
                h,
                dst,
                seq,
                s.bytes,
                payload,
                self.cfg.header_bytes,
                self.now,
            );
            let id = self.packets.insert(pkt);
            self.hosts[h].tx_queues[CLASS_DATA].push_back(QueuedPkt {
                id,
                wire,
                in_port: 0,
            });
        }
        if self.cfg.track_ground_truth {
            *self.accum.truth_flow_bytes.entry(meta.qp).or_insert(0) += payload as u64;
        }
        if !all_sent {
            let next = self.now + next_gap.clamp(1, RECHECK);
            self.sched_local(h, next, Event::QpSend(f));
        }
        if arm_retx {
            self.sched_local(h, self.now + self.cfg.rto, Event::RetxCheck(f));
        }
        self.host_try_tx(h);
    }

    /// Serialization time of a `wire`-byte packet leaving `(node, port)`.
    /// Clean links hit the precomputed MTU/control-frame entries; odd
    /// sizes (a flow's final partial segment) and degraded links pay the
    /// ceil-division.
    #[inline]
    fn ser_time(&self, node: NodeId, port: usize, wire: u32) -> Nanos {
        let rf = self.links[node][port].rate_factor;
        if rf == 1.0 {
            let (ser_mtu, ser_ctrl) = self.ser_cache[node][port];
            if wire == self.mtu_wire {
                return ser_mtu;
            }
            if wire == self.cfg.ctrl_bytes {
                return ser_ctrl;
            }
        }
        let rate = self.topo.ports(node)[port].bw * rf.max(f64::MIN_POSITIVE);
        ((wire as f64) / rate).ceil() as Nanos
    }

    fn unblock_host_flows(&mut self, h: NodeId) {
        if self.hosts[h].blocked.is_empty()
            || self.hosts[h].tx_queues[CLASS_DATA].len() >= self.cfg.nic_queue_pkts
        {
            return;
        }
        let blocked = std::mem::take(&mut self.hosts[h].blocked);
        for f in blocked {
            if let Some(s) = self.hosts[h].senders.get_mut(&f) {
                s.blocked = false;
                if !s.send_scheduled && !s.done && s.sent < s.bytes {
                    s.send_scheduled = true;
                    self.sched_local(h, self.now, Event::QpSend(f));
                }
            }
        }
    }

    fn host_try_tx(&mut self, h: NodeId) {
        if self.hosts[h].tx_busy {
            return;
        }
        let Some((q, class)) = self.hosts[h].dequeue() else {
            return;
        };
        paraleon_audit::check(!(class == CLASS_DATA && self.hosts[h].data_paused), || {
            paraleon_audit::AuditViolation::PfcPausedDequeue {
                node: h as u32,
                port: 0,
            }
        });
        self.hosts[h].tx_busy = true;
        if class == CLASS_DATA {
            self.accum.host_up_bytes[h] += q.wire as u64;
        }
        let port = self.topo.ports(h)[0];
        let ser = self.ser_time(h, 0, q.wire);
        if self.link_delivers(h, 0) {
            self.sched_cross(
                h,
                port.peer,
                self.now + ser + port.delay,
                Event::Arrive {
                    node: port.peer as u32,
                    in_port: port.peer_port as u16,
                    pkt: q.id,
                },
                Some(q.id),
            );
        } else {
            self.packets.discard(q.id);
        }
        self.sched_local(
            h,
            self.now + ser,
            Event::PortFree {
                node: h as u32,
                port: 0,
            },
        );
    }

    // ------------------------------------------------------------------
    // Switch path
    // ------------------------------------------------------------------

    fn switch_receive(&mut self, node: NodeId, in_port: usize, id: PacketId) {
        let n_hosts = self.topo.n_hosts();
        let sw = node - n_hosts;
        let (wire, class, qp, dst, payload, already_sketched) = {
            let pkt = self.packets.get(id);
            (
                pkt.wire_bytes as u64,
                pkt.class as usize,
                pkt.qp,
                pkt.dst as NodeId,
                pkt.payload_bytes as u64,
                pkt.sketched,
            )
        };
        if class == CLASS_DATA {
            // One bounds-checked index into the switch table for the whole
            // admission + PFC + sketch block (this runs per data packet
            // per hop; `accum`/`packets` are disjoint fields, so the
            // scoped borrow coexists with them; the XOFF frame itself is
            // scheduled after the borrow ends).
            let s = &mut self.switches[sw];
            // Shared-buffer admission.
            if s.buffer_used + wire > self.cfg.switch_buffer_bytes {
                s.drops += 1;
                self.accum.drops += 1;
                self.total_drops += 1;
                tel::count(tel::Ctr::Drops);
                self.packets.discard(id);
                return;
            }
            s.buffer_used += wire;
            s.ingress_bytes[in_port] += wire;
            // PFC XOFF on the upstream if this ingress queue exceeds the
            // dynamic threshold.
            let th = s.pause_threshold(self.cfg.pfc_alpha, self.cfg.switch_buffer_bytes);
            let xoff = s.ingress_bytes[in_port] as f64 > th && !s.sent_xoff[in_port];
            if xoff {
                s.sent_xoff[in_port] = true;
            }
            // ToR measurement point (Keypoint 1: insert once, mark TOS).
            let dedup = self.cfg.tos_dedup;
            if let Some(sk) = s.sketch.as_mut() {
                if !dedup || !already_sketched {
                    sk.insert(qp, payload);
                    if dedup {
                        self.packets.get_mut(id).sketched = true;
                    }
                }
            }
            if xoff {
                self.pfc_audit.xoff(sw as u32, in_port as u32);
                self.accum.pfc_events += 1;
                self.total_pfc_events += 1;
                tel::event_at(
                    self.now,
                    tel::Event::PfcXoff {
                        switch: sw as u32,
                        port: in_port as u32,
                    },
                );
                let up = self.topo.ports(node)[in_port];
                self.sched_cross(
                    node,
                    up.peer,
                    self.now + up.delay,
                    Event::PfcSet {
                        node: up.peer as u32,
                        port: up.peer_port as u16,
                        paused: true,
                    },
                    None,
                );
            }
        }
        // Route and (for data) ECN-mark on enqueue: ECMP pins the QP, so
        // round after round of a collective follows one path — unless a
        // fault killed it, in which case the flow rehashes over the
        // surviving uplinks.
        let hash = hash64(qp, 0x5EED_0F10);
        let out = if self.links_down == 0 {
            // Fault-free fast path: with every link up the liveness mask
            // is vacuous, so routing collapses to pure index arithmetic
            // (the masked ECMP picks the k-th *live* uplink, which is
            // exactly `next_port`'s k-th uplink when none are down).
            Some(self.topo.next_port(node, dst, hash))
        } else {
            let links = &self.links;
            self.topo
                .next_port_masked(node, dst, hash, |n, p| links[n][p].up)
        };
        let Some(out) = out else {
            // No live egress toward the destination: the packet is lost
            // to the fault (go-back-N recovers once a path returns).
            if class == CLASS_DATA {
                self.switches[sw].buffer_used -= wire;
                self.switches[sw].ingress_bytes[in_port] -= wire;
            }
            self.accum.fault_drops += 1;
            self.total_fault_drops += 1;
            tel::count(tel::Ctr::FaultDrops);
            self.packets.discard(id);
            return;
        };
        if class == CLASS_DATA {
            // The RED coin comes from *this switch's* stream: the draw
            // sequence depends only on the data packets this switch
            // examined, in its own event order — identical under the
            // sharded engine.
            let (qb, mark) = {
                let s = &mut self.switches[sw];
                let qb = s.ports[out].qbytes[CLASS_DATA];
                let u: f64 = s.ecn_rng.gen();
                (qb, s.marker.should_mark(qb as f64, u))
            };
            tel::observe(tel::Hist::QueueBytes, qb);
            if mark {
                self.packets.get_mut(id).ecn = true;
                self.accum.ecn_marks += 1;
                tel::event_at(
                    self.now,
                    tel::Event::EcnMark {
                        switch: sw as u32,
                        queue_bytes: qb,
                    },
                );
            }
        }
        {
            let p = &mut self.switches[sw].ports[out];
            p.qbytes[class] += wire;
            p.queues[class].push_back(QueuedPkt {
                id,
                wire: wire as u32,
                in_port: in_port as u16,
            });
        }
        self.switch_try_tx(node, out);
    }

    fn switch_try_tx(&mut self, node: NodeId, port: usize) {
        let n_hosts = self.topo.n_hosts();
        let sw = node - n_hosts;
        // Scoped borrow: one switch-table index for the dequeue + byte
        // accounting block (disjoint from `accum`/`events`/`topo`).
        let s = &mut self.switches[sw];
        if s.ports[port].busy {
            return;
        }
        let Some((q, class)) = s.dequeue(port) else {
            return;
        };
        paraleon_audit::check(!(class == CLASS_DATA && s.ports[port].data_paused), || {
            paraleon_audit::AuditViolation::PfcPausedDequeue {
                node: node as u32,
                port: port as u32,
            }
        });
        s.ports[port].busy = true;
        let id = q.id;
        let pin_port = q.in_port as usize;
        if class == CLASS_DATA {
            let wire = q.wire as u64;
            s.buffer_used -= wire;
            s.ingress_bytes[pin_port] -= wire;
            self.accum.switch_tx_bytes[sw] += wire;
            // PFC XON once the ingress queue drains below hysteresis.
            if s.sent_xoff[pin_port] {
                let th = s.pause_threshold(self.cfg.pfc_alpha, self.cfg.switch_buffer_bytes)
                    * self.cfg.pfc_xon_frac;
                if (s.ingress_bytes[pin_port] as f64) <= th {
                    s.sent_xoff[pin_port] = false;
                    self.pfc_audit.xon(sw as u32, pin_port as u32);
                    tel::event_at(
                        self.now,
                        tel::Event::PfcXon {
                            switch: sw as u32,
                            port: pin_port as u32,
                        },
                    );
                    let up = self.topo.ports(node)[pin_port];
                    self.sched_cross(
                        node,
                        up.peer,
                        self.now + up.delay,
                        Event::PfcSet {
                            node: up.peer as u32,
                            port: up.peer_port as u16,
                            paused: false,
                        },
                        None,
                    );
                }
            }
        }
        let link = self.topo.ports(node)[port];
        let ser = self.ser_time(node, port, q.wire);
        if self.link_delivers(node, port) {
            self.sched_cross(
                node,
                link.peer,
                self.now + ser + link.delay,
                Event::Arrive {
                    node: link.peer as u32,
                    in_port: link.peer_port as u16,
                    pkt: id,
                },
                Some(id),
            );
        } else {
            self.packets.discard(id);
        }
        self.sched_local(
            node,
            self.now + ser,
            Event::PortFree {
                node: node as u32,
                port: port as u16,
            },
        );
    }

    fn on_pfc_set(&mut self, node: NodeId, port: usize, paused: bool) {
        match self.topo.kind(node) {
            NodeKind::Host => {
                let host = &mut self.hosts[node];
                if paused {
                    if host.pause_started.is_none() {
                        host.pause_started = Some(self.now);
                    }
                    host.data_paused = true;
                } else {
                    if let Some(st) = host.pause_started.take() {
                        self.accum.pause_ns[node] +=
                            self.now.saturating_sub(st.max(self.interval_start));
                    }
                    host.data_paused = false;
                    self.host_try_tx(node);
                }
            }
            _ => {
                let n_hosts = self.topo.n_hosts();
                let sw = node - n_hosts;
                let p = &mut self.switches[sw].ports[port];
                if paused {
                    if p.pause_started.is_none() {
                        p.pause_started = Some(self.now);
                    }
                    p.data_paused = true;
                } else {
                    if let Some(st) = p.pause_started.take() {
                        self.accum.pause_ns[node] +=
                            self.now.saturating_sub(st.max(self.interval_start));
                    }
                    p.data_paused = false;
                    self.switch_try_tx(node, port);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Host receive path
    // ------------------------------------------------------------------

    fn host_receive(&mut self, h: NodeId, id: PacketId) {
        // Final consumption: the packet leaves the arena here.
        let pkt = self.packets.take(id);
        match pkt.kind {
            PacketKind::Data { seq, flow_bytes } => {
                self.accum.host_down_bytes[h] += pkt.wire_bytes as u64;
                self.accum.bytes_delivered += pkt.payload_bytes as u64;
                let dcqcn_plus = self.cfg.dcqcn_plus;
                let params = self.cfg.dcqcn;
                let ctrl = self.cfg.ctrl_bytes;
                let ack_every = self.cfg.ack_every;
                let host = &mut self.hosts[h];
                let iv = if pkt.ecn && dcqcn_plus {
                    Some(host.incast.on_mark(pkt.flow, self.now))
                } else {
                    None
                };
                let r = host.receivers.entry(pkt.flow).or_insert_with(|| RecvFlow {
                    received: 0,
                    np: NpState::new(params),
                    pkts_since_ack: 0,
                });
                r.received = (r.received + pkt.payload_bytes as u64).min(flow_bytes);
                // At most one CNP and one ACK per arrival; stack slots
                // keep this per-packet path allocation-free.
                let mut cnp: Option<Packet> = None;
                let mut ack: Option<Packet> = None;
                if pkt.ecn {
                    if let Some(sig) = r.np.on_packet(self.now, true, iv) {
                        cnp = Some(Packet::cnp(
                            pkt.flow,
                            h,
                            pkt.src as NodeId,
                            sig.advertised_interval_us,
                            ctrl,
                            self.now,
                        ));
                    }
                }
                r.pkts_since_ack += 1;
                let last = seq + pkt.payload_bytes as u64 >= flow_bytes;
                if last || r.pkts_since_ack >= ack_every {
                    ack = Some(Packet::ack(
                        pkt.flow,
                        h,
                        pkt.src as NodeId,
                        r.received,
                        pkt.sent_at,
                        ctrl,
                        self.now,
                    ));
                    r.pkts_since_ack = 0;
                }
                let finished = r.received >= flow_bytes && last;
                if finished {
                    host.receivers.remove(&pkt.flow);
                }
                if cnp.is_some() {
                    tel::event_at(
                        self.now,
                        tel::Event::CnpSent {
                            host: h as u32,
                            flow: pkt.flow,
                        },
                    );
                }
                for p in [cnp, ack].into_iter().flatten() {
                    let wire = p.wire_bytes;
                    let pid = self.packets.insert(p);
                    self.hosts[h].tx_queues[CLASS_CTRL].push_back(QueuedPkt {
                        id: pid,
                        wire,
                        in_port: 0,
                    });
                }
                self.host_try_tx(h);
            }
            PacketKind::Ack { acked_bytes, echo } => {
                let meta = self.flows[pkt.flow as usize];
                let rtt = self.now.saturating_sub(echo).max(1);
                tel::observe(tel::Hist::RttNs, rtt);
                let base = self.base_rtt(meta.src, meta.dst);
                // Per-sender-host slots: the interval fold over hosts is
                // in fixed id order, so the f64 sums are bit-identical no
                // matter which shard (or order) the ACKs landed in.
                self.accum.gamma_sum[h] += (base as f64 / rtt as f64).min(1.0);
                self.accum.rtt_sum[h] += rtt as f64;
                self.accum.rtt_count[h] += 1;
                let mut completed = false;
                if let Some(s) = self.hosts[h].senders.get_mut(&pkt.flow) {
                    if acked_bytes > s.acked {
                        s.acked = acked_bytes;
                        s.last_progress = self.now;
                    }
                    if s.acked >= s.bytes && !s.done {
                        s.done = true;
                        completed = true;
                    }
                }
                if completed {
                    self.hosts[h].senders.remove(&pkt.flow);
                    self.flows[pkt.flow as usize].done = true;
                    self.active_flows -= 1;
                    tel::observe(tel::Hist::FctNs, self.now.saturating_sub(meta.start).max(1));
                    self.completions.push(FlowRecord {
                        flow: pkt.flow,
                        src: meta.src,
                        dst: meta.dst,
                        bytes: meta.bytes,
                        start: meta.start,
                        finish: self.now,
                    });
                }
            }
            PacketKind::Cnp {
                advertised_interval_us,
            } => {
                self.accum.cnps += 1;
                tel::count(tel::Ctr::CnpReceived);
                let dcqcn_plus = self.cfg.dcqcn_plus;
                let base_iv = self.cfg.dcqcn.min_time_between_cnps.max(1.0);
                if let Some(s) = self.hosts[h].senders.get_mut(&pkt.flow) {
                    s.rp.on_cnp(self.now);
                    if dcqcn_plus {
                        if let Some(iv) = advertised_interval_us {
                            // DCQCN+: scale rate-increase aggressiveness
                            // down with the incast degree.
                            s.rp.set_increase_scale((base_iv / iv).clamp(0.01, 1.0));
                        }
                    }
                }
            }
        }
    }

    fn on_retx_check(&mut self, f: FlowId) {
        let rto = self.cfg.rto;
        let src = self.flows[f as usize].src;
        let mut reschedule = false;
        let mut resend = false;
        if let Some(s) = self.hosts[src].senders.get_mut(&f) {
            if !s.done {
                reschedule = true;
                if self.now.saturating_sub(s.last_progress) >= rto && s.sent >= s.bytes {
                    // Go-back-N: rewind to the cumulative ACK point.
                    s.sent = s.acked;
                    s.last_progress = self.now;
                    if !s.send_scheduled {
                        s.send_scheduled = true;
                        resend = true;
                    }
                }
            } else {
                s.retx_armed = false;
            }
        }
        if resend {
            self.sched_local(src, self.now, Event::QpSend(f));
        }
        if reschedule {
            self.sched_local(src, self.now + rto, Event::RetxCheck(f));
        }
    }
}

/// Per-switch sketch seeds must be pairwise decorrelated.
///
/// The previous derivation, `base + node`, left adjacent ToRs' seeds a
/// tiny XOR apart — and the Elastic light part keys its count-min row
/// `r` as `seed ^ (row constant + r)`, so a small seed delta can equal a
/// row-constant delta. Concretely, with the default base seed on the
/// 128-host CLOS, ToR 128's row 1 and ToR 129's row 0 hashed every flow
/// identically: their estimation errors were perfectly correlated, and
/// the controller merge (which assumes independent per-switch error)
/// preserved the shared error instead of averaging it away. Both tests
/// fail against the additive derivation.
#[cfg(test)]
mod sketch_seed_tests {
    use super::tor_sketch_seed;

    /// Base seeds to exercise: the sketch default, the degenerate zero,
    /// and two arbitrary extremes. All fixed — the tests are deterministic.
    const BASES: [u64; 4] = [0xE1A5_71C5, 0, 0xDEAD_BEEF, u64::MAX];

    /// Node-id range covering every switch id any supported topology
    /// produces (hosts come first, so ToR ids start in the hundreds).
    const NODES: std::ops::Range<usize> = 0..512;

    /// The smallest XOR distance and Hamming distance between any two
    /// seeds derived from `base`.
    fn closest_pair(base: u64) -> (u64, u32) {
        let seeds: Vec<u64> = NODES.map(|n| tor_sketch_seed(base, n)).collect();
        let pairs = seeds
            .iter()
            .enumerate()
            .flat_map(|(i, &a)| seeds[i + 1..].iter().map(move |&b| a ^ b));
        pairs.fold((u64::MAX, u32::MAX), |(x, h), d| {
            (x.min(d), h.min(d.count_ones()))
        })
    }

    /// Seeds derived from related inputs must avalanche: any two switches'
    /// seeds should differ like independent random words (~32 bits), never
    /// by a handful of bits as `base + node` produces for neighbours.
    #[test]
    fn derived_seeds_avalanche() {
        for base in BASES {
            let (_, min_dist) = closest_pair(base);
            assert!(
                min_dist >= 8,
                "base {base:#x}: two derived seeds differ by only {min_dist} bits"
            );
        }
    }

    /// No two derived seeds may sit within a row-constant-sized XOR delta
    /// of each other — that is exactly the distance at which the sketch's
    /// XOR-keyed row family collapses two switches' rows into the same
    /// hash function.
    #[test]
    fn derived_seeds_never_differ_by_a_row_constant_delta() {
        for base in BASES {
            let (min_delta, _) = closest_pair(base);
            assert!(
                min_delta > 0xFFFF,
                "base {base:#x}: two derived seeds differ by a small delta ({min_delta:#x})"
            );
        }
    }
}
