//! Conservative parallel execution of a single simulation.
//!
//! [`ParallelSim`] partitions the topology into shards — each a ToR
//! subtree slice plus its share of the leaf tier, from
//! [`Topology::partition`] — and runs one full
//! [`Simulator`] per shard, restricted by an ownership mask to the
//! events targeting its own nodes. Shards advance in *barrier epochs* of
//! the cut lookahead Δ (the minimum propagation delay across links whose
//! endpoints live on different shards): any event generated in epoch
//! `[cur, cur + Δ)` for a foreign node carries a timestamp `≥ cur + Δ`,
//! so exchanging the per-(src, dst)-shard mailboxes at each barrier
//! delivers every cross-cut event strictly before the window that could
//! run it. No shard ever sees an event out of `(time, key)` order.
//!
//! # Why the result is byte-identical to the serial engine
//!
//! Determinism does not come from the schedule — it comes from the
//! simulator core ([`crate::sim`]) being written so that *nothing
//! observable depends on global event interleaving*:
//!
//! * ties at one timestamp break on **causal keys** assigned from
//!   per-source-node counters, which advance identically in both
//!   engines;
//! * every random draw comes from a **per-entity stream** (per-switch
//!   ECN RNG, per-node corruption RNG) driven only by that entity's own
//!   event sequence;
//! * interval metrics accumulate **per entity** and are folded in global
//!   node order by `Simulator::finalize_interval`, shared verbatim with
//!   the serial engine — f64 merging is selection, never reassociation;
//! * telemetry is **captured** on worker threads tagged `(at, key)` and
//!   replayed on the coordinator in that order — the exact serial
//!   emission order. The coordinator's registry is sampled once per
//!   `run_until`: when nothing there would record the replay, workers
//!   capture nothing (their own registries are off, as the serial
//!   engine's would be).
//!
//! The differential proptest in `crates/hunt/tests/parallel_differential.rs`
//! enforces byte-identity (metrics, flight-recorder tail, audit state)
//! against the serial engine over search-reachable configurations.

use std::sync::{Arc, Mutex, MutexGuard};

use paraleon_telemetry as tel;

use crate::barrier::{run_shards, BarrierBroken, EpochBarrier};
use crate::config::SimConfig;
use crate::fault::FaultPlan;
use crate::metrics::{FlowRecord, IntervalMetrics};
use crate::sim::{RemoteMsg, SimError, Simulator};
use crate::topology::Topology;
use crate::{FlowId, Nanos, NodeId};

use paraleon_dcqcn::DcqcnParams;

/// Per-(source, destination) shard mailboxes for one barrier exchange.
/// Each slot has exactly one writer (the source shard, before the
/// barrier) and one reader (the destination, after it), so the mutexes
/// are never contended; they exist to share the slots safely.
type Mailboxes = Vec<Vec<Mutex<Vec<RemoteMsg>>>>;

fn mailboxes(n: usize) -> Mailboxes {
    (0..n)
        .map(|_| (0..n).map(|_| Mutex::new(Vec::new())).collect())
        .collect()
}

fn lock_slot(slot: &Mutex<Vec<RemoteMsg>>) -> MutexGuard<'_, Vec<RemoteMsg>> {
    // Only a worker panicking mid-drain can poison a slot, and that
    // breaks the barrier every peer must pass before touching it again.
    slot.lock()
        .expect("mailbox poisoned behind a broken barrier")
}

/// The conservative parallel engine: one event core per shard, barrier
/// epochs of the cut lookahead, byte-identical to [`Simulator`].
pub struct ParallelSim {
    /// One full-topology simulator per shard, ownership-masked.
    shards: Vec<Simulator>,
    /// Owner shard of every node (empty when running single-sharded).
    shard_of: Arc<Vec<u16>>,
    /// Epoch length: minimum propagation delay across cut links. Zero
    /// when single-sharded (no cut).
    lookahead: Nanos,
    now: Nanos,
    /// The workers' epoch barrier, reused by every `run_until`.
    barrier: EpochBarrier,
    /// Two mailbox matrices, indexed by epoch parity: epoch `k` posts
    /// into and drains from `mailboxes[k & 1]`, so a shard already
    /// posting epoch `k + 1` never touches a slot a slower shard is
    /// still draining, and one barrier per epoch suffices.
    mailboxes: [Mailboxes; 2],
}

impl ParallelSim {
    /// Build a parallel engine over `topo` with `n_shards` event cores.
    ///
    /// `n_shards` is clamped to the topology's ToR count; one shard (or
    /// a degenerate zero lookahead) degrades gracefully to the serial
    /// engine run in-place.
    pub fn new(topo: Topology, cfg: SimConfig, n_shards: usize) -> Self {
        let specs = topo.partition(n_shards);
        let n = specs.len();
        if n > 1 {
            let shard_of = Arc::new(topo.shard_map(&specs));
            if let Some(la) = topo.lookahead(&shard_of) {
                if la > 0 {
                    let shards = (0..n)
                        .map(|me| {
                            Simulator::new_shard(
                                topo.clone(),
                                cfg.clone(),
                                Arc::clone(&shard_of),
                                me as u16,
                                n,
                            )
                        })
                        .collect();
                    return Self {
                        shards,
                        shard_of,
                        lookahead: la,
                        now: 0,
                        barrier: EpochBarrier::new(n),
                        mailboxes: [mailboxes(n), mailboxes(n)],
                    };
                }
            }
        }
        Self {
            shards: vec![Simulator::new(topo, cfg)],
            shard_of: Arc::new(Vec::new()),
            lookahead: 0,
            now: 0,
            barrier: EpochBarrier::new(1),
            mailboxes: [Vec::new(), Vec::new()],
        }
    }

    /// Number of event cores actually running (after clamping).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The engine's epoch length (0 when running single-sharded).
    pub fn lookahead(&self) -> Nanos {
        self.lookahead
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        self.shards[0].topology()
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        self.shards[0].config()
    }

    /// Number of switches (ToRs + leaves).
    pub fn n_switches(&self) -> usize {
        self.shards[0].n_switches()
    }

    /// Number of admitted flows not yet completed.
    pub fn active_flows(&self) -> usize {
        self.shards.iter().map(Simulator::active_flows).sum()
    }

    /// Total events processed across shards (fault replicas un-count
    /// themselves, so this matches the serial engine's figure).
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_processed).sum()
    }

    /// Total data packets dropped over the whole run.
    pub fn total_drops(&self) -> u64 {
        self.shards.iter().map(|s| s.total_drops).sum()
    }

    /// Total packets lost to injected faults over the whole run.
    pub fn total_fault_drops(&self) -> u64 {
        self.shards.iter().map(|s| s.total_fault_drops).sum()
    }

    /// Total PFC pause frames over the whole run.
    pub fn total_pfc_events(&self) -> u64 {
        self.shards.iter().map(|s| s.total_pfc_events).sum()
    }

    /// Whether any events remain scheduled on any shard.
    pub fn has_pending_events(&self) -> bool {
        self.shards
            .iter()
            .any(|s| s.has_pending_events() || s.outboxes_pending() > 0)
    }

    /// Base RTT between two hosts.
    pub fn base_rtt(&mut self, a: NodeId, b: NodeId) -> Nanos {
        self.shards[0].base_rtt(a, b)
    }

    /// Whether `node` still has at least one live link, judged by the
    /// shard that owns it (foreign link rows are never faulted).
    pub fn node_reachable(&self, node: NodeId) -> bool {
        let owner = self
            .shard_of
            .get(node)
            .map_or(0, |&s| s as usize)
            .min(self.shards.len() - 1);
        self.shards[owner].node_reachable(node)
    }

    /// Admit a flow; see [`Simulator::add_flow`].
    pub fn add_flow(&mut self, src: NodeId, dst: NodeId, bytes: u64, start: Nanos) -> FlowId {
        let qp = self.shards[0].flow_count();
        self.add_flow_on_qp(src, dst, bytes, start, qp)
    }

    /// Admit a flow on an explicit QP; see [`Simulator::add_flow_on_qp`].
    pub fn add_flow_on_qp(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        start: Nanos,
        qp: FlowId,
    ) -> FlowId {
        match self.try_add_flow_on_qp(src, dst, bytes, start, qp) {
            Ok(id) => id,
            Err(e) => panic!("add_flow_on_qp: {e}"),
        }
    }

    /// Bounds-checked [`ParallelSim::add_flow`].
    pub fn try_add_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        start: Nanos,
    ) -> Result<FlowId, SimError> {
        let qp = self.shards[0].flow_count();
        self.try_add_flow_on_qp(src, dst, bytes, start, qp)
    }

    /// Bounds-checked [`ParallelSim::add_flow_on_qp`]. Every shard
    /// registers the flow (flow ids are global table indices); only the
    /// source owner schedules it.
    pub fn try_add_flow_on_qp(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        start: Nanos,
        qp: FlowId,
    ) -> Result<FlowId, SimError> {
        let mut id = 0;
        for s in &mut self.shards {
            // Validation is deterministic in (topology, clock), which
            // all shards share — one failing means all would.
            id = s.try_add_flow_on_qp(src, dst, bytes, start, qp)?;
        }
        Ok(id)
    }

    /// Install a fault plan on every shard; each schedules only the
    /// transitions touching links it owns an end of.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), SimError> {
        for s in &mut self.shards {
            s.install_fault_plan(plan)?;
        }
        Ok(())
    }

    /// Dispatch a parameter setting to every RNIC and switch.
    pub fn set_dcqcn_params(&mut self, params: &DcqcnParams) {
        for s in &mut self.shards {
            s.set_dcqcn_params(params);
        }
    }

    /// The active parameter setting.
    pub fn dcqcn_params(&self) -> &DcqcnParams {
        self.shards[0].dcqcn_params()
    }

    /// Override one switch's ECN thresholds; see
    /// [`Simulator::set_switch_ecn`].
    pub fn set_switch_ecn(
        &mut self,
        switch_index: usize,
        params: &DcqcnParams,
    ) -> Result<(), SimError> {
        for s in &mut self.shards {
            s.set_switch_ecn(switch_index, params)?;
        }
        Ok(())
    }

    /// Drain completed flows, in the canonical `(finish, flow)` order.
    pub fn take_completions(&mut self) -> Vec<FlowRecord> {
        let mut v: Vec<FlowRecord> = self
            .shards
            .iter_mut()
            .flat_map(Simulator::take_completions)
            .collect();
        v.sort_unstable_by_key(|r| (r.finish, r.flow));
        v
    }

    /// Process all events up to and including `t` on every shard, then
    /// set the clock to `t`.
    ///
    /// Epoch protocol (every worker computes the identical schedule, so
    /// no coordinator runs inside the thread scope):
    ///
    /// 1. while `cur < t`: run the half-open window `[cur, e)` with
    ///    `e = min(t, cur + Δ)`, post outboxes into this epoch's mailbox
    ///    matrix, barrier, drain inboxes in source-shard order;
    /// 2. run the inclusive window at `t` (events at exactly `t` run
    ///    only after the last exchange, preserving key order for
    ///    same-instant cross-shard arrivals);
    /// 3. one final exchange parks events generated at `t` (timestamps
    ///    `≥ t + Δ`) in their destination queues.
    ///
    /// A panic on a worker (an audit violation under `debug_assertions`)
    /// releases the others from the barrier and is re-raised here.
    pub fn run_until(&mut self, t: Nanos) {
        assert!(t >= self.now, "time cannot run backward");
        let n = self.shards.len();
        if n == 1 {
            self.shards[0].run_until(t);
            self.now = t;
            return;
        }
        assert!(
            !self.barrier.is_broken(),
            "a shard worker panicked in an earlier run; the engine's state is torn"
        );
        let lookahead = self.lookahead;
        let barrier = &self.barrier;
        let mailboxes = &self.mailboxes;
        // Worker threads have fresh thread-local registries. Audit:
        // propagate the coordinator's configuration out, drain tallies
        // back through each shard's carry slot. Telemetry: a worker's
        // emissions only matter if replaying them here would record (or,
        // under a fleet worker, re-capture) them, so sample that once and
        // let workers skip capture altogether when it would not.
        let audit_on = paraleon_audit::enabled();
        let audit_panic = paraleon_audit::panic_on_violation();
        let tel_on = tel::enabled() || tel::capture_active();
        run_shards(&mut self.shards, barrier, |me, shard| {
            paraleon_audit::set_enabled(audit_on);
            paraleon_audit::set_panic_on_violation(audit_panic);
            shard.tel_capture = tel_on;
            if tel_on {
                // Divert every telemetry emission on this thread — from
                // any crate, not just the simulator — into the capture
                // buffer; the shard stamps each event's (time, key) so
                // the coordinator can replay in serial order.
                tel::capture_begin();
            }
            let mut cur = shard.now();
            let mut epoch = 0usize;
            while cur < t {
                let e = t.min(cur + lookahead);
                shard.run_window(e, false);
                cur = e;
                exchange(shard, me, &mailboxes[epoch & 1], barrier)?;
                epoch += 1;
            }
            shard.run_window(t, true);
            exchange(shard, me, &mailboxes[epoch & 1], barrier)?;
            let (count, reports) = paraleon_audit::drain();
            shard.audit_carry.0 += count;
            shard.audit_carry.1.extend(reports);
            if tel_on {
                shard.tel_carry = tel::capture_take();
            }
            Ok(())
        });
        // Absorb worker audit tallies in shard order (deterministic).
        for shard in &mut self.shards {
            let (count, reports) = std::mem::take(&mut shard.audit_carry);
            paraleon_audit::absorb(count, reports);
        }
        if tel_on {
            // Replay captured telemetry in global (at, key) order — the
            // serial emission order. Each shard's buffer is already
            // sorted (events are handled in that order), so this is a
            // k-way merge; a stable sort over the concatenation keeps it
            // simple.
            let mut captured: Vec<tel::Captured> = self
                .shards
                .iter_mut()
                .flat_map(|s| std::mem::take(&mut s.tel_carry))
                .collect();
            captured.sort_by_key(|c| (c.at, c.key));
            tel::capture_replay(&captured);
        }
        self.now = t;
    }

    /// Convenience: run for `dt` more nanoseconds.
    pub fn run_for(&mut self, dt: Nanos) {
        self.run_until(self.now + dt);
    }

    /// Snapshot and reset the per-interval metrics; see
    /// [`Simulator::collect_interval`]. Runs the per-shard audit sweeps
    /// on the coordinator thread and checks cross-shard conservation
    /// (no handoff may be parked in an outbox at a collection barrier).
    pub fn collect_interval(&mut self) -> IntervalMetrics {
        if self.shards.len() == 1 {
            return self.shards[0].collect_interval();
        }
        for (i, s) in self.shards.iter().enumerate() {
            let pending = s.outboxes_pending();
            paraleon_audit::check(pending == 0, || {
                paraleon_audit::AuditViolation::CrossShardResidue {
                    shard: i as u32,
                    pending: pending as u64,
                }
            });
        }
        let raws = self
            .shards
            .iter_mut()
            .map(Simulator::interval_raw)
            .collect();
        Simulator::finalize_interval(self.shards[0].topology(), self.shards[0].config(), raws)
    }
}

/// One barrier exchange over `mail`, this epoch's mailbox matrix: hand
/// this shard's outboxes to their destinations' slots, wait for
/// everyone, then drain the column addressed to this shard in
/// source-shard order (deterministic arena re-insertion order). The
/// caller alternates between two matrices, which is what lets a fast
/// shard post its next epoch while a slow one is still draining this one.
fn exchange(
    shard: &mut Simulator,
    me: usize,
    mail: &Mailboxes,
    barrier: &EpochBarrier,
) -> Result<(), BarrierBroken> {
    for (dst, slot) in mail[me].iter().enumerate() {
        if dst != me {
            // The slot was drained two epochs ago; swapping (rather than
            // moving the outbox in and leaving a fresh `Vec` behind)
            // hands its capacity back to the outbox.
            let mut slot = lock_slot(slot);
            debug_assert!(slot.is_empty(), "mailbox {me}->{dst} posted before drained");
            std::mem::swap(&mut *slot, shard.outbox_mut(dst));
        }
    }
    barrier.wait()?;
    for (src, row) in mail.iter().enumerate() {
        if src != me {
            for msg in lock_slot(&row[me]).drain(..) {
                shard.inject_remote(msg);
            }
        }
    }
    Ok(())
}

/// The execution engine behind a closed loop: the serial [`Simulator`]
/// (the default) or the conservative parallel [`ParallelSim`] (opt-in).
/// Byte-identical results either way; every method delegates.
pub enum Engine {
    /// The serial event core.
    Serial(Box<Simulator>),
    /// Sharded event cores with link-delay lookahead.
    Parallel(ParallelSim),
}

impl Engine {
    /// Build the engine named by `threads`: `<= 1` serial, otherwise
    /// parallel with `threads` shards (clamped to the ToR count).
    pub fn new(topo: Topology, cfg: SimConfig, threads: usize) -> Self {
        if threads <= 1 {
            Engine::Serial(Box::new(Simulator::new(topo, cfg)))
        } else {
            Engine::Parallel(ParallelSim::new(topo, cfg, threads))
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        match self {
            Engine::Serial(s) => s.now(),
            Engine::Parallel(p) => p.now(),
        }
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        match self {
            Engine::Serial(s) => s.topology(),
            Engine::Parallel(p) => p.topology(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        match self {
            Engine::Serial(s) => s.config(),
            Engine::Parallel(p) => p.config(),
        }
    }

    /// Number of switches (ToRs + leaves).
    pub fn n_switches(&self) -> usize {
        match self {
            Engine::Serial(s) => s.n_switches(),
            Engine::Parallel(p) => p.n_switches(),
        }
    }

    /// Number of admitted flows not yet completed.
    pub fn active_flows(&self) -> usize {
        match self {
            Engine::Serial(s) => s.active_flows(),
            Engine::Parallel(p) => p.active_flows(),
        }
    }

    /// Total events processed.
    pub fn events_processed(&self) -> u64 {
        match self {
            Engine::Serial(s) => s.events_processed,
            Engine::Parallel(p) => p.events_processed(),
        }
    }

    /// Total data packets dropped over the whole run.
    pub fn total_drops(&self) -> u64 {
        match self {
            Engine::Serial(s) => s.total_drops,
            Engine::Parallel(p) => p.total_drops(),
        }
    }

    /// Total packets lost to injected faults over the whole run.
    pub fn total_fault_drops(&self) -> u64 {
        match self {
            Engine::Serial(s) => s.total_fault_drops,
            Engine::Parallel(p) => p.total_fault_drops(),
        }
    }

    /// Total PFC pause frames over the whole run.
    pub fn total_pfc_events(&self) -> u64 {
        match self {
            Engine::Serial(s) => s.total_pfc_events,
            Engine::Parallel(p) => p.total_pfc_events(),
        }
    }

    /// Whether any events remain scheduled.
    pub fn has_pending_events(&self) -> bool {
        match self {
            Engine::Serial(s) => s.has_pending_events(),
            Engine::Parallel(p) => p.has_pending_events(),
        }
    }

    /// Base RTT between two hosts.
    pub fn base_rtt(&mut self, a: NodeId, b: NodeId) -> Nanos {
        match self {
            Engine::Serial(s) => s.base_rtt(a, b),
            Engine::Parallel(p) => p.base_rtt(a, b),
        }
    }

    /// Whether `node` still has at least one live link.
    pub fn node_reachable(&self, node: NodeId) -> bool {
        match self {
            Engine::Serial(s) => s.node_reachable(node),
            Engine::Parallel(p) => p.node_reachable(node),
        }
    }

    /// Admit a flow; see [`Simulator::add_flow`].
    pub fn add_flow(&mut self, src: NodeId, dst: NodeId, bytes: u64, start: Nanos) -> FlowId {
        match self {
            Engine::Serial(s) => s.add_flow(src, dst, bytes, start),
            Engine::Parallel(p) => p.add_flow(src, dst, bytes, start),
        }
    }

    /// Admit a flow on an explicit QP; see [`Simulator::add_flow_on_qp`].
    pub fn add_flow_on_qp(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        start: Nanos,
        qp: FlowId,
    ) -> FlowId {
        match self {
            Engine::Serial(s) => s.add_flow_on_qp(src, dst, bytes, start, qp),
            Engine::Parallel(p) => p.add_flow_on_qp(src, dst, bytes, start, qp),
        }
    }

    /// Bounds-checked [`Engine::add_flow`].
    pub fn try_add_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        start: Nanos,
    ) -> Result<FlowId, SimError> {
        match self {
            Engine::Serial(s) => s.try_add_flow(src, dst, bytes, start),
            Engine::Parallel(p) => p.try_add_flow(src, dst, bytes, start),
        }
    }

    /// Bounds-checked [`Engine::add_flow_on_qp`].
    pub fn try_add_flow_on_qp(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        start: Nanos,
        qp: FlowId,
    ) -> Result<FlowId, SimError> {
        match self {
            Engine::Serial(s) => s.try_add_flow_on_qp(src, dst, bytes, start, qp),
            Engine::Parallel(p) => p.try_add_flow_on_qp(src, dst, bytes, start, qp),
        }
    }

    /// Install a fault plan; see [`Simulator::install_fault_plan`].
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), SimError> {
        match self {
            Engine::Serial(s) => s.install_fault_plan(plan),
            Engine::Parallel(p) => p.install_fault_plan(plan),
        }
    }

    /// Dispatch a parameter setting to every RNIC and switch.
    pub fn set_dcqcn_params(&mut self, params: &DcqcnParams) {
        match self {
            Engine::Serial(s) => s.set_dcqcn_params(params),
            Engine::Parallel(p) => p.set_dcqcn_params(params),
        }
    }

    /// The active parameter setting.
    pub fn dcqcn_params(&self) -> &DcqcnParams {
        match self {
            Engine::Serial(s) => s.dcqcn_params(),
            Engine::Parallel(p) => p.dcqcn_params(),
        }
    }

    /// Override one switch's ECN thresholds.
    pub fn set_switch_ecn(
        &mut self,
        switch_index: usize,
        params: &DcqcnParams,
    ) -> Result<(), SimError> {
        match self {
            Engine::Serial(s) => s.set_switch_ecn(switch_index, params),
            Engine::Parallel(p) => p.set_switch_ecn(switch_index, params),
        }
    }

    /// Drain completed flows in `(finish, flow)` order.
    pub fn take_completions(&mut self) -> Vec<FlowRecord> {
        match self {
            Engine::Serial(s) => s.take_completions(),
            Engine::Parallel(p) => p.take_completions(),
        }
    }

    /// Process all events up to and including `t`.
    pub fn run_until(&mut self, t: Nanos) {
        match self {
            Engine::Serial(s) => s.run_until(t),
            Engine::Parallel(p) => p.run_until(t),
        }
    }

    /// Convenience: run for `dt` more nanoseconds.
    pub fn run_for(&mut self, dt: Nanos) {
        match self {
            Engine::Serial(s) => s.run_for(dt),
            Engine::Parallel(p) => p.run_for(dt),
        }
    }

    /// Snapshot and reset the per-interval metrics.
    pub fn collect_interval(&mut self) -> IntervalMetrics {
        match self {
            Engine::Serial(s) => s.collect_interval(),
            Engine::Parallel(p) => p.collect_interval(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultEvent, FaultKind};
    use crate::{MICRO, MILLI};

    fn clos() -> Topology {
        Topology::two_tier_clos(4, 4, 2, 100.0, 100.0, 1_000)
    }

    fn cfg() -> SimConfig {
        SimConfig {
            seed: 7,
            ..SimConfig::default()
        }
    }

    /// Run the reference workload on an engine; returns per-interval
    /// metrics, completions, and the events-processed total.
    fn reference_run(mut eng: Engine) -> (Vec<IntervalMetrics>, Vec<FlowRecord>, u64) {
        // Cross-rack incast into host 0 plus background pairs, staggered.
        for src in 4..12 {
            eng.add_flow(src, 0, 300_000, (src as u64) * 2 * MICRO);
        }
        eng.add_flow(1, 13, 500_000, 0);
        eng.add_flow(15, 2, 400_000, 5 * MICRO);
        let mut metrics = Vec::new();
        let mut completions = Vec::new();
        // Uneven intervals over the fixture's 1 µs lookahead: whole and
        // partial last windows, odd and even exchange counts (windows +
        // the closing one: 201, 8, 195, 200, 201) back to back, so every
        // call finds the mailbox matrices and the barrier as the previous
        // one left them, on either parity.
        for dt in [200_000, 7_000, 193_500, 198_500, 200_000] {
            eng.run_for(dt);
            metrics.push(eng.collect_interval());
            completions.extend(eng.take_completions());
        }
        // Late flows after a collection boundary.
        eng.add_flow(3, 8, 200_000, eng.now() + MICRO);
        eng.run_for(MILLI);
        metrics.push(eng.collect_interval());
        completions.extend(eng.take_completions());
        (metrics, completions, eng.events_processed())
    }

    fn fault_plan() -> FaultPlan {
        // Kill one ToR uplink mid-run (a cross-cut link under 2+ shards),
        // degrade another, corrupt a host link, then restore.
        let tor0 = 16usize; // 16 hosts, ToRs at 16..20 in the 4x4x2 clos
        let mut plan = FaultPlan::new(99);
        plan.link_down(150 * MICRO, tor0, 4) // first uplink after 4 down-ports
            .push(FaultEvent {
                at: 300 * MICRO,
                node: 17,
                port: 5,
                kind: FaultKind::Degrade { factor: 0.5 },
            })
            .push(FaultEvent {
                at: 350 * MICRO,
                node: 1,
                port: 0,
                kind: FaultKind::PktLoss { drop_prob: 0.05 },
            })
            .push(FaultEvent {
                at: 600 * MICRO,
                node: tor0,
                port: 4,
                kind: FaultKind::LinkUp,
            });
        plan
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let serial = reference_run(Engine::new(clos(), cfg(), 1));
        for threads in [2, 4] {
            let par = reference_run(Engine::new(clos(), cfg(), threads));
            assert_eq!(serial.0, par.0, "{threads} threads: interval metrics");
            assert_eq!(serial.1, par.1, "{threads} threads: completions");
            assert_eq!(serial.2, par.2, "{threads} threads: events processed");
        }
    }

    #[test]
    fn parallel_matches_serial_under_faults() {
        let run = |mut eng: Engine| {
            eng.install_fault_plan(&fault_plan()).expect("plan");
            reference_run(eng)
        };
        let serial = run(Engine::new(clos(), cfg(), 1));
        for threads in [2, 4] {
            let par = run(Engine::new(clos(), cfg(), threads));
            assert_eq!(serial.0, par.0, "{threads} threads: interval metrics");
            assert_eq!(serial.1, par.1, "{threads} threads: completions");
            assert_eq!(serial.2, par.2, "{threads} threads: events processed");
        }
    }

    /// The coordinator's registry decides, once per `run_until`, whether
    /// workers capture: off (the default) nothing is stamped or parked —
    /// the coordinator does not drain `tel_carry` then, so anything a
    /// worker did capture would still be sitting there — and flipping the
    /// flag between two intervals records exactly what the serial engine
    /// records under the same flips.
    #[test]
    fn worker_capture_follows_the_coordinators_registry() {
        let toggled = |threads: usize| {
            tel::reset();
            let mut eng = Engine::new(clos(), cfg(), threads);
            for src in 4..12 {
                eng.add_flow(src, 0, 300_000, (src as u64) * 2 * MICRO);
            }
            for on in [false, true, false, true] {
                tel::set_enabled(on);
                eng.run_for(150 * MICRO);
                if let Engine::Parallel(p) = &eng {
                    assert!(p.shards.iter().all(|s| s.tel_capture == on));
                    assert!(p.shards.iter().all(|s| s.tel_carry.is_empty()));
                }
            }
            tel::set_enabled(false);
            (
                tel::counters_snapshot(),
                tel::histogram(tel::Hist::QueueBytes).nonzero_buckets(),
                tel::flight_events(),
            )
        };
        let serial = toggled(1);
        assert!(
            serial.0.iter().any(|&(_, n)| n > 0) && !serial.2.is_empty(),
            "the incast must emit while the registry is on"
        );
        for threads in [2, 4] {
            assert_eq!(toggled(threads), serial, "{threads} threads");
        }
    }

    #[test]
    fn engine_clamps_to_topology() {
        // A dumbbell has one ToR: any thread count degrades to 1 shard.
        let eng = Engine::new(Topology::dumbbell(100.0, 1_000), cfg(), 8);
        match eng {
            Engine::Parallel(p) => {
                assert_eq!(p.n_shards(), 1);
                assert_eq!(p.lookahead(), 0);
            }
            Engine::Serial(_) => unreachable!("threads > 1 builds ParallelSim"),
        }
    }
}
