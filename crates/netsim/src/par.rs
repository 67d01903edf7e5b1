//! The engine: one event core per shard; one shard is the serial engine.
//!
//! [`Engine`] is the only way to run the fabric. It holds one crate-private
//! simulator (`crate::sim`) per shard, and the shard count after clamping
//! is the only thing that selects how a call executes:
//!
//! * **One shard** (`threads <= 1`, or nothing to cut) owns every node and
//!   runs in place on the caller's thread: no thread scope, barrier,
//!   mailbox, partition or shard map exists for it.
//! * **Several shards** — each a ToR subtree slice plus its share of the
//!   upper tiers, from [`Topology::partition`] — each hold the full
//!   topology but run only the events targeting nodes they own. They
//!   advance in *barrier epochs* of the cut lookahead Δ (the minimum
//!   propagation delay across links whose ends live on different shards):
//!   an event generated in epoch `[cur, cur + Δ)` for a foreign node
//!   carries a timestamp `≥ cur + Δ`, so exchanging the per-(src, dst)
//!   mailboxes at each barrier delivers every cross-cut event strictly
//!   before the window that could run it. No shard ever sees an event out
//!   of `(time, key)` order.
//!
//! # Why every shard count gives byte-identical results
//!
//! Nothing observable in the event core depends on global interleaving:
//!
//! * ties at one timestamp break on **causal keys** assigned from
//!   per-source-node counters, which advance identically under any cut;
//! * every random draw comes from a **per-entity stream** (per-switch
//!   ECN RNG, per-node corruption RNG) driven only by that entity's own
//!   event sequence;
//! * interval metrics accumulate **per entity** and are folded in global
//!   node order by one `IntervalRaw::fold` — f64 merging is selection,
//!   never reassociation;
//! * telemetry is **captured** on worker threads tagged `(at, key)` and
//!   replayed on the caller's thread in that order — the order one shard
//!   emits it in. The caller's registry is sampled once per `run_until`:
//!   when nothing there would record the replay, workers capture nothing.
//!
//! `crates/hunt/tests/parallel_differential.rs` enforces the identity
//! (metrics, flight-recorder tail, audit state) between one shard and
//! several over search-reachable configurations.

use std::sync::{Arc, Mutex, MutexGuard};

use paraleon_telemetry as tel;

use crate::barrier::{run_shards, BarrierBroken, EpochBarrier};
use crate::config::SimConfig;
use crate::core::RemoteMsg;
use crate::error::SimError;
use crate::fault::{FaultPlan, LinkState};
use crate::metrics::{FlowRecord, IntervalMetrics};
use crate::sim::Simulator;
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

/// What exists only when the topology is cut across several shards.
struct Cut {
    /// Owner shard of every node.
    shard_of: Arc<Vec<u16>>,
    /// Epoch length: minimum propagation delay across cut links.
    lookahead: Nanos,
    /// The workers' epoch barrier, reused by every `run_until`.
    barrier: EpochBarrier,
    /// Two mailbox matrices, indexed by epoch parity: epoch `k` posts
    /// into and drains from `mailboxes[k & 1]`, so a shard already
    /// posting epoch `k + 1` never touches a slot a slower shard is
    /// still draining, and one barrier per epoch suffices.
    mailboxes: [Mailboxes; 2],
}

/// Where to cut `topo` for `threads` workers: shard map, lookahead, shard
/// count. `None` for one thread (before any partitioning work), a single
/// ToR subtree, or a cut with no lookahead to run epochs on.
fn plan_cut(topo: &Topology, threads: usize) -> Option<(Arc<Vec<u16>>, Nanos, usize)> {
    if threads <= 1 {
        return None;
    }
    let specs = topo.partition(threads);
    if specs.len() < 2 {
        return None;
    }
    let shard_of = Arc::new(topo.shard_map(&specs));
    let lookahead = topo.lookahead(&shard_of).filter(|&la| la > 0)?;
    Some((shard_of, lookahead, specs.len()))
}

/// The fabric engine: the one type every harness drives. Byte-identical
/// results at every shard count.
pub struct Engine {
    /// One full-topology event core per shard, ownership-masked; a
    /// single unmasked core when `cut` is `None`.
    shards: Vec<Simulator>,
    cut: Option<Cut>,
    now: Nanos,
}

impl Engine {
    /// Build an engine over `topo` with up to `threads` event cores,
    /// clamped to the ToR count. `threads <= 1` (or a clamp to one shard)
    /// is the serial engine and builds exactly its one core: no partition,
    /// shard map or lookahead scan, no mailboxes, and no barrier — whose
    /// constructor probes `available_parallelism()` (cgroup file reads);
    /// routed through it this call took 0.167 ms, not 0.104, on 128 hosts.
    pub fn new(topo: Topology, cfg: SimConfig, threads: usize) -> Self {
        let (shards, cut) = match plan_cut(&topo, threads) {
            None => (vec![Simulator::new(topo, cfg)], None),
            Some((shard_of, lookahead, n)) => {
                // Cores before the cut's small allocations: right after an
                // engine is dropped, the other order splits the chunks the
                // cores would reuse (128 hosts, 2 shards: 0.26 ms vs 0.16).
                let shard = |i| Simulator::new_shard(topo.clone(), cfg.clone(), &shard_of, i, n);
                let shards = (0..n).map(shard).collect();
                let cut = Cut {
                    shard_of,
                    lookahead,
                    barrier: EpochBarrier::new(n),
                    mailboxes: [mailboxes(n), mailboxes(n)],
                };
                (shards, Some(cut))
            }
        };
        Self {
            shards,
            cut,
            now: 0,
        }
    }

    /// Number of event cores actually running (after clamping).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The epoch length (0 with one shard: there is no cut).
    pub fn lookahead(&self) -> Nanos {
        self.cut.as_ref().map_or(0, |c| c.lookahead)
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.shards[0].topo
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.shards[0].cfg
    }

    /// Number of switches: every node that is not a host (ToRs, leaves or
    /// aggregation switches, and a three-tier fabric's spines).
    pub fn n_switches(&self) -> usize {
        self.shards[0].switches.len()
    }

    /// Number of admitted flows not yet completed.
    pub fn active_flows(&self) -> usize {
        self.shards.iter().map(|s| s.active_flows).sum()
    }

    /// Total events processed (fault replicas on a second shard un-count
    /// themselves, so the figure is the same at every shard count).
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.core.events_processed).sum()
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
            .any(|s| s.core.has_pending_events() || s.core.outboxes_pending() > 0)
    }

    /// Base RTT between two hosts (cached; used for RTT normalisation).
    pub fn base_rtt(&mut self, a: NodeId, b: NodeId) -> Nanos {
        self.shards[0].base_rtt(a, b)
    }

    /// The shard owning `node` — the only one that ever faults its link rows.
    fn owner(&self, node: NodeId) -> &Simulator {
        match &self.cut {
            None => &self.shards[0],
            Some(c) => &self.shards[c.shard_of[node] as usize],
        }
    }

    /// Runtime state of the directed link at `(node, port)`.
    pub fn link_state(&self, node: NodeId, port: usize) -> LinkState {
        self.owner(node).links.state(node, port)
    }

    /// Whether `node` still has at least one live link — a fully
    /// cut-off switch cannot upload observations or sketch readings.
    pub fn node_reachable(&self, node: NodeId) -> bool {
        self.owner(node).links.any_up(node)
    }

    /// Admit a flow of `bytes` from host `src` to host `dst` at `start`
    /// (not in the past) on a QP of its own; returns its id. Panics on
    /// invalid arguments; see [`Engine::try_add_flow`].
    pub fn add_flow(&mut self, src: NodeId, dst: NodeId, bytes: u64, start: Nanos) -> FlowId {
        let qp = self.shards[0].flow_count();
        self.add_flow_on_qp(src, dst, bytes, start, qp)
    }

    /// Admit a flow carried on an explicit QP identity: sketches, ground
    /// truth and ECMP hashing observe `qp`, so successive transfers on
    /// one QP appear as a single long-lived entity to the monitor (NCCL
    /// reuses QPs across collective rounds). Panics on invalid arguments;
    /// see [`Engine::try_add_flow_on_qp`] for the checked variant.
    pub fn add_flow_on_qp(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        start: Nanos,
        qp: FlowId,
    ) -> FlowId {
        self.try_add_flow_on_qp(src, dst, bytes, start, qp)
            .unwrap_or_else(|e| panic!("add_flow_on_qp: {e}"))
    }

    /// Bounds-checked [`Engine::add_flow`].
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

    /// Bounds-checked [`Engine::add_flow_on_qp`]. Every shard registers
    /// the flow (flow ids are global table indices); only the source
    /// owner schedules it.
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

    /// Install a [`FaultPlan`]: validates every transition, reseeds the
    /// per-node corruption RNGs from the plan's seed, and schedules the
    /// transitions on the event queue, so faults interleave
    /// deterministically with traffic (each shard schedules those
    /// touching links it owns an end of).
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), SimError> {
        for s in &mut self.shards {
            s.install_fault_plan(plan)?;
        }
        Ok(())
    }

    /// Dispatch a DCQCN parameter setting to every RNIC and switch (the
    /// controller's action after a tuning round).
    pub fn set_dcqcn_params(&mut self, params: &DcqcnParams) {
        for s in &mut self.shards {
            s.set_dcqcn_params(params);
        }
    }

    /// The active parameter setting.
    pub fn dcqcn_params(&self) -> &DcqcnParams {
        &self.shards[0].cfg.dcqcn
    }

    /// Override one switch's ECN thresholds only (ACC-style per-switch
    /// tuning). `switch_index` counts every non-host node in id order —
    /// ToRs first, then each tier above them — matching
    /// `IntervalMetrics::switch_obs`; a stale index is an error, not a
    /// crash of the fabric model.
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

    /// Drain the flows completed since the last call in the canonical
    /// `(finish, flow)` order: one sort over the shards' processing-order lists.
    pub fn take_completions(&mut self) -> Vec<FlowRecord> {
        let mut v = self.shards[0].take_completions();
        for s in &mut self.shards[1..] {
            v.append(&mut s.take_completions());
        }
        v.sort_unstable_by_key(|r| (r.finish, r.flow));
        v
    }

    /// Process all events up to and including `t` on every shard, then
    /// set the clock to `t`. One shard runs its window in place; several
    /// follow the epoch protocol of `run_epochs`.
    pub fn run_until(&mut self, t: Nanos) {
        assert!(t >= self.now, "time cannot run backward");
        match &self.cut {
            None => self.shards[0].run_window(t, true),
            Some(cut) => Self::run_epochs(&mut self.shards, cut, t),
        }
        self.now = t;
    }

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
    fn run_epochs(shards: &mut [Simulator], cut: &Cut, t: Nanos) {
        assert!(
            !cut.barrier.is_broken(),
            "a shard worker panicked in an earlier run; the engine's state is torn"
        );
        // Worker threads have fresh thread-local registries. Audit:
        // propagate the coordinator's configuration out, drain tallies
        // back through each shard's carry slot. Telemetry: a worker's
        // emissions only matter if replaying them here would record (or,
        // under a fleet worker, re-capture) them, so sample that once and
        // let workers skip capture altogether when it would not.
        let audit_on = paraleon_audit::enabled();
        let audit_panic = paraleon_audit::panic_on_violation();
        let tel_on = tel::enabled() || tel::capture_active();
        run_shards(shards, &cut.barrier, |me, shard| {
            paraleon_audit::set_enabled(audit_on);
            paraleon_audit::set_panic_on_violation(audit_panic);
            shard.core.tel_capture = tel_on;
            if tel_on {
                // Divert every telemetry emission on this thread — from
                // any crate, not just the simulator — into the capture
                // buffer; the shard stamps each event's (time, key) so
                // the coordinator can replay in serial order.
                tel::capture_begin();
            }
            let mut cur = shard.core.now();
            let mut epoch = 0usize;
            while cur < t {
                let e = t.min(cur + cut.lookahead);
                shard.run_window(e, false);
                cur = e;
                exchange(shard, me, &cut.mailboxes[epoch & 1], &cut.barrier)?;
                epoch += 1;
            }
            shard.run_window(t, true);
            exchange(shard, me, &cut.mailboxes[epoch & 1], &cut.barrier)?;
            let (count, reports) = paraleon_audit::drain();
            shard.audit_carry.0 += count;
            shard.audit_carry.1.extend(reports);
            if tel_on {
                shard.tel_carry = tel::capture_take();
            }
            Ok(())
        });
        // Absorb worker audit tallies in shard order (deterministic).
        for shard in shards.iter_mut() {
            let (count, reports) = std::mem::take(&mut shard.audit_carry);
            paraleon_audit::absorb(count, reports);
        }
        if tel_on {
            // Replay captured telemetry in global (at, key) order — the
            // serial emission order. Each shard's buffer is already
            // sorted (events are handled in that order), so this is a
            // k-way merge; a stable sort over the concatenation keeps it
            // simple.
            let mut captured: Vec<tel::Captured> = shards
                .iter_mut()
                .flat_map(|s| std::mem::take(&mut s.tel_carry))
                .collect();
            captured.sort_by_key(|c| (c.at, c.key));
            tel::capture_replay(&captured);
        }
    }

    /// Convenience: run for `dt` more nanoseconds.
    pub fn run_for(&mut self, dt: Nanos) {
        self.run_until(self.now + dt);
    }

    /// Snapshot and reset the per-interval metrics and drain the ToR
    /// sketches (the once-per-λ_MI control-plane read-and-reset). Runs
    /// the shards' audit sweeps on the caller's thread and checks that no
    /// handoff is still parked in an outbox.
    pub fn collect_interval(&mut self) -> IntervalMetrics {
        for (i, s) in self.shards.iter().enumerate() {
            let pending = s.core.outboxes_pending();
            paraleon_audit::check(pending == 0, || {
                paraleon_audit::AuditViolation::CrossShardResidue {
                    shard: i as u32,
                    pending: pending as u64,
                }
            });
        }
        // Each entity's data lives in exactly one shard's snapshot.
        let raws = self.shards.iter_mut().map(Simulator::interval_raw);
        let raw = raws.reduce(|mut all, r| {
            all.absorb(r);
            all
        });
        let raw = raw.expect("at least one shard");
        raw.fold(self.topology(), self.config())
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
            std::mem::swap(&mut *slot, shard.core.outbox_mut(dst));
        }
    }
    barrier.wait()?;
    for (src, row) in mail.iter().enumerate() {
        if src != me {
            for msg in lock_slot(&row[me]).drain(..) {
                shard.core.inject_remote(msg);
            }
        }
    }
    Ok(())
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

    /// Per-interval metrics, completions, and the events-processed total.
    type Run = (Vec<IntervalMetrics>, Vec<FlowRecord>, u64);

    /// Run the reference workload on an engine.
    fn reference_run(mut eng: Engine) -> Run {
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
        // Kill one ToR uplink mid-run, degrade another (a cross-cut link
        // under 2+ shards), corrupt a host link, then restore.
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
            .link_up(600 * MICRO, tor0, 4);
        plan
    }

    /// `run` on 2 and 4 shards must reproduce its one-shard result.
    fn assert_matches_serial(run: fn(Engine) -> Run) {
        let serial = run(Engine::new(clos(), cfg(), 1));
        for threads in [2, 4] {
            let par = run(Engine::new(clos(), cfg(), threads));
            assert_eq!(serial.0, par.0, "{threads} threads: interval metrics");
            assert_eq!(serial.1, par.1, "{threads} threads: completions");
            assert_eq!(serial.2, par.2, "{threads} threads: events processed");
        }
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        assert_matches_serial(reference_run);
    }

    #[test]
    fn parallel_matches_serial_under_faults() {
        assert_matches_serial(|mut eng| {
            eng.install_fault_plan(&fault_plan()).expect("plan");
            reference_run(eng)
        });
    }

    /// The coordinator's registry decides, once per `run_until`, whether
    /// workers capture: off (the default) nothing is stamped or parked —
    /// the coordinator does not drain `tel_carry` then, so anything a
    /// worker did capture would still be sitting there — and flipping the
    /// flag between two intervals records exactly what one shard records
    /// under the same flips.
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
                // One shard runs on this thread and never captures.
                let capturing = on && eng.cut.is_some();
                assert!(eng.shards.iter().all(|s| s.core.tel_capture == capturing));
                assert!(eng.shards.iter().all(|s| s.tel_carry.is_empty()));
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

    /// `threads <= 1`, and any count on a one-ToR topology, is the serial
    /// engine: one unmasked core and no cut state at all.
    #[test]
    fn engine_clamps_to_topology() {
        for eng in [
            Engine::new(clos(), cfg(), 0),
            Engine::new(clos(), cfg(), 1),
            Engine::new(Topology::dumbbell(100.0, 1_000), cfg(), 8),
        ] {
            assert_eq!(eng.n_shards(), 1);
            assert_eq!(eng.lookahead(), 0);
            assert!(eng.cut.is_none());
        }
        let eng = Engine::new(clos(), cfg(), 8);
        assert_eq!(eng.n_shards(), 4, "clamped to the ToR count");
        assert!(eng.lookahead() > 0);
    }

    /// Link state and reachability are the owning shard's: each end of a
    /// downed cut link is written by its owner into its own row only, so
    /// any other shard would answer from a clean, never-faulted row.
    #[test]
    fn link_queries_are_answered_by_the_owning_shard() {
        let (tor0, uplink, last_host) = (16usize, 5usize, 15usize);
        let leaf = clos().ports(tor0)[uplink];
        let mut plan = FaultPlan::new(3);
        plan.link_down(10 * MICRO, tor0, uplink)
            .link_down(10 * MICRO, last_host, 0); // its only link
        let probe = |threads: usize| {
            let mut eng = Engine::new(clos(), cfg(), threads);
            eng.install_fault_plan(&plan).expect("plan");
            eng.run_for(20 * MICRO);
            if let Some(cut) = &eng.cut {
                assert_ne!(cut.shard_of[tor0], cut.shard_of[leaf.peer], "a cut link");
                assert_ne!(cut.shard_of[last_host], 0);
            }
            (
                eng.link_state(tor0, uplink).up,
                eng.link_state(leaf.peer, leaf.peer_port).up,
                eng.link_state(tor0, uplink - 1).is_clean(),
                (0..eng.topology().n_nodes())
                    .map(|n| eng.node_reachable(n))
                    .collect::<Vec<_>>(),
            )
        };
        let serial = probe(1);
        assert_eq!((serial.0, serial.1, serial.2), (false, false, true));
        let cut_off: Vec<_> = (0..serial.3.len()).filter(|&n| !serial.3[n]).collect();
        assert_eq!(cut_off, [last_host]);
        for threads in [2, 4] {
            assert_eq!(probe(threads), serial, "{threads} threads");
        }
    }
}
