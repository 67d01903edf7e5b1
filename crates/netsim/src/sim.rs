//! The per-shard simulator: one fabric's state, its per-shard API, and
//! the single dispatch from a popped event to the layer that handles it.
//!
//! A `Simulator` is crate-private: harnesses drive the fabric through
//! [`crate::Engine`], which holds one per shard and fans every call out:
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
//! # Layers
//!
//! The state is grouped by the layer that owns it, and each layer's
//! handlers live with its state:
//!
//! * `crate::core` — event queue, clock, causal keys, packet arena, the
//!   shard cut (no networking);
//! * `crate::port` — the egress-port model shared by NICs and switches,
//!   link state, `try_tx`;
//! * `crate::switch` — admission, PFC, ECN, ECMP, ToR sketch;
//! * `crate::nic` — QP pacing, DCQCN RP/NP glue, ACK/CNP, go-back-N;
//! * `crate::fault` — fault plans and their application;
//! * `crate::metrics` — interval accumulation and the fold into
//!   `IntervalMetrics`.
//!
//! # Sharded execution
//!
//! A simulator built by [`Simulator::new`] owns every node — that is the
//! whole engine when there is one shard. One built by `new_shard` shares
//! the topology but *owns* only a subset of nodes: it holds per-node
//! state (RNICs, switches and their sketches, link rows, interval
//! counters, key counters) for those nodes alone, each at the node's
//! *slot* (`EventCore::own`, resolved once per handler), runs only
//! events targeting them, and routes events aimed at foreign nodes
//! through `crate::core`'s outboxes. Only the flow table is fabric-wide
//! on every shard: flow ids are indices into it, and keeping them so
//! costs a `FlowMeta` push per shard per flow
//! (`Engine::try_add_flow_on_qp`). Every shard count is bit-identical
//! because ties break on causal keys (`crate::core`), every random draw
//! comes from a per-entity stream (per-switch ECN RNG, per-node
//! fault-corruption RNG) whose order depends only on that entity's own
//! event sequence, and interval metrics accumulate per entity and are
//! folded in global node order (`crate::metrics`).

use std::sync::Arc;

use paraleon_audit as audit;
use paraleon_dcqcn::DcqcnParams;
use paraleon_telemetry as tel;

use crate::config::SimConfig;
use crate::core::EventCore;
use crate::error::SimError;
use crate::event::Event;
use crate::fasthash::FastMap;
use crate::fault::FaultEvent;
use crate::metrics::{FlowRecord, IntervalAccum, IntervalRaw};
use crate::nic::{FlowMeta, HostState};
use crate::port::Links;
use crate::switch::SwitchState;
use crate::topology::{NodeKind, Topology};
use crate::{Nanos, NodeId};

/// One shard of the packet-level fabric simulator.
pub(crate) struct Simulator {
    pub(crate) cfg: SimConfig,
    /// The fabric (its tables are shared by every shard's copy).
    pub(crate) topo: Topology,
    /// Event core: queue, clock, keys, packet arena, shard cut.
    pub(crate) core: EventCore,
    /// Link layer: per-link fault state, corruption RNGs, serialization.
    pub(crate) links: Links,
    /// Switch layer: the owned switches, in node order.
    pub(crate) switches: Vec<SwitchState>,
    /// XOFF/XON pairing mirror (ZST unless the `audit` feature is on).
    pub(crate) pfc_audit: audit::PfcPairAudit,
    /// NIC layer: one RNIC per owned host (in node order), the
    /// fabric-wide flow table and what completed here.
    pub(crate) hosts: Vec<HostState>,
    pub(crate) flows: Vec<FlowMeta>,
    pub(crate) completions: Vec<FlowRecord>,
    pub(crate) active_flows: usize,
    pub(crate) base_rtt_cache: FastMap<(NodeId, NodeId), Nanos>,
    /// Installed fault transitions, addressed by `Event::Fault` index.
    pub(crate) fault_plan: Vec<FaultEvent>,
    /// Interval layer: this interval's counters and where it began.
    pub(crate) accum: IntervalAccum,
    pub(crate) interval_start: Nanos,
    /// Total data packets dropped over the whole run.
    pub(crate) total_drops: u64,
    /// Total packets lost to injected faults over the whole run.
    pub(crate) total_fault_drops: u64,
    /// Total PFC pause frames over the whole run.
    pub(crate) total_pfc_events: u64,
    /// Telemetry captured while this shard's tasks ran in a sharded run,
    /// taken off whichever worker ran each and parked here for the
    /// coordinator to replay.
    pub(crate) tel_carry: Vec<tel::Captured>,
    /// Audit tallies of this shard's tasks, likewise, for the coordinator
    /// to absorb in shard order.
    pub(crate) audit_carry: (u64, Vec<audit::AuditReport>),
}

impl Simulator {
    /// Build a simulator over `topo` with configuration `cfg`.
    pub(crate) fn new(topo: Topology, cfg: SimConfig) -> Self {
        let core = EventCore::new(topo.n_nodes());
        Self::with_core(topo, cfg, core)
    }

    /// Build shard `me` of `n_shards`: a simulator that owns (holds
    /// state and runs events for) only the nodes `shard_of` maps to `me`.
    pub(crate) fn new_shard(
        topo: Topology,
        cfg: SimConfig,
        shard_of: &Arc<Vec<u16>>,
        me: usize,
        n_shards: usize,
    ) -> Self {
        debug_assert_eq!(shard_of.len(), topo.n_nodes());
        Self::with_core(topo, cfg, EventCore::new_shard(shard_of, me, n_shards))
    }

    fn with_core(topo: Topology, cfg: SimConfig, core: EventCore) -> Self {
        let host = || HostState::new(cfg.dcqcn.min_time_between_cnps, cfg.incast_window);
        let is_host = |&node: &NodeId| topo.kind(node) == NodeKind::Host;
        let hosts: Vec<HostState> = core.owned().take_while(is_host).map(|_| host()).collect();
        let switch = |node| SwitchState::new(&topo, node, &cfg);
        let switches: Vec<SwitchState> = core.owned().skip(hosts.len()).map(switch).collect();
        let accum = IntervalAccum::new(hosts.len() + switches.len(), hosts.len());
        let links = Links::new(&topo, &cfg, core.owned());
        Self {
            switches,
            accum,
            links,
            hosts,
            core,
            cfg,
            topo,
            pfc_audit: audit::PfcPairAudit::default(),
            flows: Vec::new(),
            completions: Vec::new(),
            active_flows: 0,
            base_rtt_cache: FastMap::default(),
            fault_plan: Vec::new(),
            interval_start: 0,
            total_drops: 0,
            total_fault_drops: 0,
            total_pfc_events: 0,
            tel_carry: Vec::new(),
            audit_carry: (0, Vec::new()),
        }
    }

    /// Dispatch a parameter setting to every RNIC and switch.
    pub(crate) fn set_dcqcn_params(&mut self, params: &DcqcnParams) {
        self.cfg.dcqcn = *params;
        for h in &mut self.hosts {
            h.set_params(params);
        }
        for s in &mut self.switches {
            s.set_ecn(params);
        }
    }

    /// Override one switch's ECN thresholds (fabric-wide switch order:
    /// ToRs, then each tier above them) — here, if this shard owns it.
    pub(crate) fn set_switch_ecn(
        &mut self,
        index: usize,
        params: &DcqcnParams,
    ) -> Result<(), SimError> {
        let (n_hosts, n_nodes) = (self.topo.n_hosts(), self.topo.n_nodes());
        let node = n_hosts + index;
        if node >= n_nodes {
            let n_switches = n_nodes - n_hosts;
            return Err(SimError::SwitchIndexOutOfRange { index, n_switches });
        }
        if self.core.owns(node) {
            let sw = self.core.own(node).slot - self.hosts.len();
            self.switches[sw].set_ecn(params);
        }
        Ok(())
    }

    /// Run one execution window (see `EventCore::next`): every pending
    /// event with `ts <= end`, or `ts < end` when not `inclusive`.
    pub(crate) fn run_window(&mut self, end: Nanos, inclusive: bool) {
        while let Some(ev) = self.core.next(end, inclusive) {
            self.handle(ev);
        }
    }

    /// The one dispatch from an event to the layer that handles it.
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
            Event::PortFree { node, port } => self.on_port_free(node as NodeId, port as usize),
            Event::PfcSet { node, port, paused } => {
                self.on_pfc_set(node as NodeId, port as usize, paused)
            }
            Event::RetxCheck(f) => self.on_retx_check(f),
            Event::Fault(idx) => self.apply_fault(idx),
        }
    }

    /// The per-shard half of interval collection, over the entities this
    /// shard owns: close pause intervals, take the accumulators, snapshot
    /// per-switch observables and drain sketches, and run the audit sweep.
    pub(crate) fn interval_raw(&mut self) -> IntervalRaw {
        let (start, end) = (self.interval_start, self.core.now());
        self.close_pauses();
        let n_hosts = self.hosts.len();
        let mut raw = IntervalRaw::new(start, end, n_hosts + self.switches.len(), n_hosts);
        for (slot, up) in raw.reachable.iter_mut().enumerate() {
            *up = self.links.any_up(slot);
        }
        let nodes = self.core.owned().skip(n_hosts);
        for (i, (sw, node)) in self.switches.iter_mut().zip(nodes).enumerate() {
            sw.collect(i, node, raw.reachable[n_hosts + i], &mut raw);
        }
        self.audit_sweep(end.saturating_sub(start));
        std::mem::swap(&mut raw.accum, &mut self.accum);
        self.interval_start = end;
        raw
    }

    /// Structural invariant sweep run at every interval collection (the
    /// natural event boundary where no packet is mid-function). Folds to
    /// nothing unless the `audit` feature is on.
    fn audit_sweep(&self, dt: Nanos) {
        if !audit::enabled() {
            return;
        }
        // Packet conservation: per-flow tallies must match the arena.
        self.core.packets.audit_check();
        for (host, node) in self.hosts.iter().zip(self.core.owned()) {
            host.port.audit(node as u32, 0);
        }
        let switches = self.core.owned().skip(self.hosts.len());
        for (s, node) in self.switches.iter().zip(switches) {
            s.audit(node as u32, self.cfg.switch_buffer_bytes);
        }
        // Pause-time budgets: every port can be paused for at most the
        // whole interval, and a device's pauses are summed over its ports.
        for (&pause_ns, node) in self.accum.pause_ns.iter().zip(self.core.owned()) {
            let budget_ns = dt * self.topo.ports(node).len() as u64;
            audit::check(pause_ns <= budget_ns, || {
                audit::AuditViolation::PfcPauseOverflow {
                    node: node as u32,
                    pause_ns,
                    budget_ns,
                }
            });
        }
    }
}
