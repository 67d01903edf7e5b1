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
//! whole engine when there is one shard. One built by `new_shard` holds
//! the full topology but *owns* only a subset of nodes, runs only events
//! targeting owned nodes, and routes events aimed at foreign nodes
//! through `crate::core`'s outboxes. Every shard count is bit-identical
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
    pub(crate) topo: Topology,
    /// Event core: queue, clock, keys, packet arena, shard cut.
    pub(crate) core: EventCore,
    /// Link layer: per-link fault state, corruption RNGs, serialization.
    pub(crate) links: Links,
    /// Switch layer, in node order after the hosts.
    pub(crate) switches: Vec<SwitchState>,
    /// XOFF/XON pairing mirror (ZST unless the `audit` feature is on).
    pub(crate) pfc_audit: audit::PfcPairAudit,
    /// NIC layer: one RNIC per host, the flow table and what completed.
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
    /// Telemetry captured on this shard's worker thread during a
    /// sharded run, parked here for the coordinator to replay.
    pub(crate) tel_carry: Vec<tel::Captured>,
    /// Audit tallies drained on the worker thread at the end of a
    /// sharded run, parked here for the coordinator to absorb.
    pub(crate) audit_carry: (u64, Vec<audit::AuditReport>),
}

impl Simulator {
    /// Build a simulator over `topo` with configuration `cfg`.
    pub(crate) fn new(topo: Topology, cfg: SimConfig) -> Self {
        let core = EventCore::new(topo.n_nodes());
        Self::with_core(topo, cfg, core)
    }

    /// Build shard `me` of `n_shards`: a full-topology simulator that
    /// owns (runs events for) only the nodes `shard_of` maps to `me`.
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
        let (n_hosts, n_nodes) = (topo.n_hosts(), topo.n_nodes());
        let host = || HostState::new(cfg.dcqcn.min_time_between_cnps, cfg.incast_window);
        Self {
            hosts: (0..n_hosts).map(|_| host()).collect(),
            switches: (n_hosts..n_nodes)
                .map(|node| SwitchState::new(&topo, node, &cfg))
                .collect(),
            accum: IntervalAccum::new(n_nodes, n_hosts),
            links: Links::new(&topo, &cfg),
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

    /// Override one switch's ECN thresholds (switch order: ToRs, then
    /// each tier above them).
    pub(crate) fn set_switch_ecn(
        &mut self,
        index: usize,
        params: &DcqcnParams,
    ) -> Result<(), SimError> {
        let n_switches = self.switches.len();
        let sw = self
            .switches
            .get_mut(index)
            .ok_or(SimError::SwitchIndexOutOfRange { index, n_switches })?;
        sw.set_ecn(params);
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

    /// The per-shard half of interval collection: close pause intervals,
    /// take the accumulators, snapshot per-switch observables and drain
    /// sketches — for *owned* entities only — and run the audit sweep.
    pub(crate) fn interval_raw(&mut self) -> IntervalRaw {
        let (start, end) = (self.interval_start, self.core.now());
        self.close_pauses();
        let (n_hosts, n_nodes) = (self.hosts.len(), self.topo.n_nodes());
        let n_sw = self.switches.len();
        let mut raw = IntervalRaw {
            start,
            end,
            accum: IntervalAccum::new(n_nodes, n_hosts),
            // Reachability is computed from this shard's link rows;
            // foreign rows are never faulted here, so `true` placeholders
            // AND-merge into the owner's verdict.
            reachable: (0..n_nodes)
                .map(|n| !self.core.owns(n) || self.links.any_up(n))
                .collect(),
            sw_seen: vec![0; n_sw],
            sw_marked: vec![0; n_sw],
            sw_buffer: vec![0; n_sw],
            sketches: Vec::new(),
        };
        for (i, sw) in self.switches.iter_mut().enumerate() {
            if self.core.owns(n_hosts + i) {
                sw.collect(i, n_hosts + i, &mut raw);
            }
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
        let n_hosts = self.hosts.len();
        for (h, host) in self.hosts.iter().enumerate() {
            host.port.audit(h as u32, 0);
        }
        for (i, s) in self.switches.iter().enumerate() {
            s.audit((n_hosts + i) as u32, self.cfg.switch_buffer_bytes);
        }
        // Pause-time budgets: every port can be paused for at most the
        // whole interval, and a device's pauses are summed over its ports.
        for (node, &pause_ns) in self.accum.pause_ns.iter().enumerate() {
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
