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
//!   upper tiers, from [`Topology::partition`] — share the topology, hold
//!   state for the nodes they own and run only the events targeting
//!   those. They advance in *barrier epochs* of the cut lookahead Δ (the
//!   minimum propagation delay across links whose ends live on different
//!   shards): an event generated in epoch `[cur, cur + Δ)` for a foreign
//!   node carries a timestamp `≥ cur + Δ`, so handing the per-(src, dst)
//!   mailboxes over at each barrier delivers every cross-cut event
//!   strictly before the window that could run it. No shard ever sees an
//!   event out of `(time, key)` order.
//!
//! # Shards are not threads
//!
//! `threads` asks for *workers*; the fabric is cut finer —
//! `SHARDS_PER_WORKER` shards per worker, as far as there are ToRs — so
//! that a worker whose shards had a quiet epoch has something to take
//! from one whose shards did not. An epoch is one *task* per shard (drain
//! its inbox, run its window, post its outboxes) and one barrier. Every
//! worker owns a **home list** of shards, planned per `run_until` from
//! the events each shard processed in the previous one (`plan_homes`),
//! runs it front to back, then **steals from the back** of the others'.
//! A shard stays on its worker unless stolen: with every shard free to
//! hop cores each epoch the finer cut read *slower* than two fixed halves.
//!
//! # Why every shard and worker count gives byte-identical results
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
//! * a task's inputs are its shard's own queue plus a mailbox column the
//!   previous barrier sealed, so **the thread that runs it is not an
//!   input**; what it leaves behind for the caller — audit tallies,
//!   captured telemetry — is parked on the *shard* when the task ends,
//!   never on the worker;
//! * telemetry is **captured** during tasks tagged `(at, key)` and
//!   replayed on the caller's thread in that order — the order one shard
//!   emits it in. The caller's registry is sampled once per `run_until`:
//!   when nothing there would record the replay, tasks capture nothing.
//!
//! `crates/hunt/tests/parallel_differential.rs` enforces the identity
//! (metrics, flight-recorder tail, audit state) between one shard and
//! several over search-reachable configurations.

use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use paraleon_telemetry as tel;

use crate::barrier::{run_workers, BarrierBroken, EpochBarrier};
use crate::config::SimConfig;
use crate::core::RemoteMsg;
use crate::error::SimError;
use crate::fault::{FaultPlan, LinkState};
use crate::metrics::{FlowRecord, IntervalMetrics, IntervalRaw};
use crate::sim::Simulator;
use crate::topology::Topology;
use crate::{FlowId, Nanos, NodeId};

use paraleon_dcqcn::DcqcnParams;

/// Shards cut per worker thread (as far as the ToR count allows). Two
/// workers on the 8-ToR paper fabric, `work_per_s` on the benchmark's
/// `clos128_hadoop_par2` against one thread per half: 2 shards 0.95×,
/// 4 shards 1.07×, 8 shards 1.12× — finer pieces leave less of an epoch
/// to wait out, and 8 is all the ToRs there are.
const SHARDS_PER_WORKER: usize = 4;

/// Per-(source, destination) shard mailboxes for one epoch's hand-off.
/// Each slot has exactly one writer (the source shard's task, before the
/// barrier) and one reader (the destination's, after it), so the mutexes
/// are never contended; they exist to share the slots safely.
type Mailboxes = Vec<Vec<Mutex<Vec<RemoteMsg>>>>;

fn mailboxes(n: usize) -> Mailboxes {
    (0..n)
        .map(|_| (0..n).map(|_| Mutex::new(Vec::new())).collect())
        .collect()
}

/// Lock a mailbox slot or a shard. Only a task that panicked while
/// holding one poisons it, and that breaks the barrier too: whoever finds
/// the poison stands down like a waiter there, and the caller gets to see
/// the panic itself.
fn lock<T>(m: &Mutex<T>) -> Result<MutexGuard<'_, T>, BarrierBroken> {
    m.lock().map_err(|_| BarrierBroken)
}

/// What exists only when the topology is cut across several shards.
struct Cut {
    /// Owner shard of every node.
    shard_of: Arc<Vec<u16>>,
    /// Epoch length: minimum propagation delay across cut links.
    lookahead: Nanos,
    /// Threads a run fans out to: the count asked for, as far as there
    /// are shards.
    workers: usize,
    /// The workers' epoch barrier, reused by every `run_until`.
    barrier: EpochBarrier,
    /// Two mailbox matrices, indexed by epoch parity: epoch `k`'s tasks
    /// post into `mailboxes[k & 1]` and drain the other one, which epoch
    /// `k - 1` posted and the barrier between them sealed — so one
    /// barrier per epoch suffices.
    mailboxes: [Mailboxes; 2],
    /// Every shard's event count when the previous `run_until` began:
    /// what it has processed since is its weight in the next home lists.
    events_seen: Vec<u64>,
}

/// Where to cut `topo` for `threads` workers: shard map, lookahead, shard
/// count. `None` for one thread (before any partitioning work), a single
/// ToR subtree, or a cut with no lookahead to run epochs on.
fn plan_cut(topo: &Topology, threads: usize) -> Option<(Arc<Vec<u16>>, Nanos, usize)> {
    if threads <= 1 {
        return None;
    }
    let specs = topo.partition(SHARDS_PER_WORKER * threads);
    if specs.len() < 2 {
        return None;
    }
    let shard_of = Arc::new(topo.shard_map(&specs));
    let lookahead = topo.lookahead(&shard_of).filter(|&la| la > 0)?;
    Some((shard_of, lookahead, specs.len()))
}

/// Every worker's home list: shards dealt longest first (`load` = events
/// in the previous call; ties by ascending index) to the worker with the
/// least dealt so far, so a list starts with its heaviest shard and ends
/// with the ones cheapest to lose to a thief. With nothing to go by (the
/// first call, an idle fabric) the lists are contiguous index blocks.
fn plan_homes(load: &[u64], workers: usize) -> Vec<Vec<usize>> {
    let n = load.len();
    if load.iter().all(|&l| l == 0) {
        let block = |w| (w * n / workers..(w + 1) * n / workers).collect();
        return (0..workers).map(block).collect();
    }
    let mut longest_first: Vec<usize> = (0..n).collect();
    longest_first.sort_by_key(|&s| (Reverse(load[s]), s));
    let mut homes = vec![Vec::new(); workers];
    let mut dealt = vec![0u64; workers];
    for s in longest_first {
        let w = (0..workers).min_by_key(|&w| dealt[w]).expect("workers > 0");
        homes[w].push(s);
        dealt[w] += load[s];
    }
    homes
}

/// The fabric engine: the one type every harness drives. Byte-identical
/// results at every shard and worker count.
pub struct Engine {
    /// One event core per shard, each holding the state of the nodes it
    /// owns; a single core owning every node when `cut` is `None`.
    shards: Vec<Simulator>,
    cut: Option<Cut>,
    now: Nanos,
}

impl Engine {
    /// Build an engine over `topo` for `threads` worker threads. One
    /// thread (or a fabric with a single ToR subtree) is the serial engine
    /// and builds exactly its one core: no partition, shard map or
    /// lookahead scan, no mailboxes, and no barrier — whose constructor
    /// probes `available_parallelism()` (cgroup file reads); routed
    /// through it this call took 0.167 ms, not 0.104, on 128 hosts. More
    /// threads cut the fabric into `SHARDS_PER_WORKER` shards apiece,
    /// clamped to the ToR count, and run them on `threads` workers,
    /// clamped to the shard count — never to the machine: the count asked
    /// for is the count run, so a one-core box still exercises the barrier.
    pub fn new(topo: Topology, cfg: SimConfig, threads: usize) -> Self {
        let (shards, cut) = match plan_cut(&topo, threads) {
            None => (vec![Simulator::new(topo, cfg)], None),
            Some((shard_of, lookahead, n)) => {
                // Cores before the cut's small allocations: right after an
                // engine is dropped, the other order splits the chunks the
                // cores would reuse (128 hosts, 2 shards: 0.26 ms vs 0.16).
                let shard = |i| Simulator::new_shard(topo.clone(), cfg.clone(), &shard_of, i, n);
                let shards = (0..n).map(shard).collect();
                let workers = threads.min(n);
                let cut = Cut {
                    shard_of,
                    lookahead,
                    workers,
                    barrier: EpochBarrier::new(workers),
                    mailboxes: [mailboxes(n), mailboxes(n)],
                    events_seen: vec![0; n],
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

    /// Number of threads a `run_until` runs the shards on: 1 for the
    /// serial engine, else the count asked for, clamped to the shards.
    pub fn workers(&self) -> usize {
        self.cut.as_ref().map_or(1, |c| c.workers)
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
        self.topology().n_nodes() - self.topology().n_hosts()
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

    /// The shard owning `node` — the only one that holds its link rows.
    fn owner(&self, node: NodeId) -> &Simulator {
        match &self.cut {
            None => &self.shards[0],
            Some(c) => &self.shards[c.shard_of[node] as usize],
        }
    }

    /// Runtime state of the directed link at `(node, port)`.
    pub fn link_state(&self, node: NodeId, port: usize) -> LinkState {
        let shard = self.owner(node);
        shard.links.state(shard.core.own(node).slot, port)
    }

    /// Whether `node` still has at least one live link — a fully
    /// cut-off switch cannot upload observations or sketch readings.
    pub fn node_reachable(&self, node: NodeId) -> bool {
        let shard = self.owner(node);
        shard.links.any_up(shard.core.own(node).slot)
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
    /// the flow; only the source owner schedules it. The flow table is the
    /// one per-shard structure that stays fabric-wide: flow ids are its
    /// indices, and although only the source owner reads a `FlowMeta`, a
    /// sparse table would be a second design. The price is a push per
    /// shard per flow — on the paper fabric 71 ns per admission in a tight
    /// loop at two shards, 190 ns at eight; ≈ 0.3 → ≈ 1.1 µs between the
    /// benchmark's intervals, ≈ 4 ms of a ≈ 700 ms repetition — measured
    /// and accepted.
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
        match &mut self.cut {
            None => self.shards[0].run_window(t, true),
            Some(cut) => Self::run_epochs(&mut self.shards, cut, self.now, t),
        }
        self.now = t;
    }

    /// Epoch protocol from `from` to `t` (every worker derives the
    /// identical schedule from the phase number, so no coordinator runs
    /// inside the thread scope). A phase is one task per shard, and a
    /// task first drains the shard's inbox — the mailbox column the
    /// previous phase posted — in source-shard order (deterministic arena
    /// re-insertion order), then:
    ///
    /// 1. phases `0..n`: runs the half-open window `[cur, e)` with
    ///    `e = min(t, cur + Δ)` and posts its outboxes;
    /// 2. phase `n`: runs the inclusive window at `t` (events at exactly
    ///    `t` run only after the last hand-off, preserving key order for
    ///    same-instant cross-shard arrivals) and posts;
    /// 3. phase `n + 1`: nothing more — the drain parks events generated
    ///    at `t` (timestamps `≥ t + Δ`) in their destination queues.
    fn run_epochs(shards: &mut [Simulator], cut: &mut Cut, from: Nanos, t: Nanos) {
        let load: Vec<u64> = shards
            .iter()
            .zip(&mut cut.events_seen)
            .map(|(s, seen)| {
                let now = s.core.events_processed;
                now - std::mem::replace(seen, now)
            })
            .collect();
        let homes = plan_homes(&load, cut.workers);
        let cut = &*cut;
        let n = (t - from).div_ceil(cut.lookahead) as usize;
        Self::run_tasks(shards, cut, &homes, n + 2, |phase, me, shard| {
            for (src, row) in cut.mailboxes[(phase + 1) & 1].iter().enumerate() {
                if src != me {
                    for msg in lock(&row[me])?.drain(..) {
                        shard.core.inject_remote(msg);
                    }
                }
            }
            if phase > n {
                return Ok(());
            }
            let end = t.min(from.saturating_add((phase as u64 + 1).saturating_mul(cut.lookahead)));
            shard.run_window(end, phase == n);
            for (dst, slot) in cut.mailboxes[phase & 1][me].iter().enumerate() {
                if dst != me {
                    // The slot was drained a phase ago; swapping (rather
                    // than moving the outbox in and leaving a fresh `Vec`
                    // behind) hands its capacity back to the outbox.
                    let mut slot = lock(slot)?;
                    debug_assert!(slot.is_empty(), "mailbox {me}->{dst} posted before drained");
                    std::mem::swap(&mut *slot, shard.core.outbox_mut(dst));
                }
            }
            Ok(())
        });
    }

    /// Run `phases` phases of `task(phase, index, shard)` — one task per
    /// shard per phase, one barrier between two phases — on the cut's
    /// workers. Worker `w` goes through `homes[w]` front to back, then
    /// through the other workers' lists from the back, and runs every
    /// shard whose task of this phase it is first to claim; a shard's
    /// mutex hands its state from whoever ran it last.
    ///
    /// A panic in a task (an audit violation under `debug_assertions`)
    /// releases the other workers from the barrier and is re-raised here.
    fn run_tasks(
        shards: &mut [Simulator],
        cut: &Cut,
        homes: &[Vec<usize>],
        phases: usize,
        task: impl Fn(usize, usize, &mut Simulator) -> Result<(), BarrierBroken> + Sync,
    ) {
        assert!(
            !cut.barrier.is_broken(),
            "a shard worker panicked in an earlier run; the engine's state is torn"
        );
        // Worker threads have fresh thread-local registries. Audit:
        // propagate the coordinator's configuration out, drain tallies
        // back through each shard's carry slot. Telemetry: a task's
        // emissions only matter if replaying them here would record (or,
        // under a fleet worker, re-capture) them, so sample that once and
        // let tasks skip capture altogether when it would not.
        let audit_on = paraleon_audit::enabled();
        let audit_panic = paraleon_audit::panic_on_violation();
        let tel_on = tel::enabled() || tel::capture_active();
        for shard in shards.iter_mut() {
            shard.core.tel_capture = tel_on;
        }
        // Which phase each shard's next task belongs to. Claiming one
        // publishes nothing — the shard's mutex and the barrier do — so
        // the counter only has to be atomic.
        let next_phase: Vec<AtomicUsize> = shards.iter().map(|_| AtomicUsize::new(0)).collect();
        let cells: Vec<Mutex<&mut Simulator>> = shards.iter_mut().map(Mutex::new).collect();
        run_workers(cut.workers, &cut.barrier, |w| {
            paraleon_audit::set_enabled(audit_on);
            paraleon_audit::set_panic_on_violation(audit_panic);
            let others = (1..homes.len()).map(|d| &homes[(w + d) % homes.len()]);
            let steals = others.flat_map(|home| home.iter().rev());
            let order: Vec<usize> = homes[w].iter().chain(steals).copied().collect();
            for phase in 0..phases {
                if phase > 0 {
                    cut.barrier.wait()?;
                }
                for &s in &order {
                    let claim = next_phase[s].compare_exchange(
                        phase,
                        phase + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    );
                    if claim.is_err() {
                        continue;
                    }
                    let mut shard = lock(&cells[s])?;
                    if tel_on {
                        // Divert every telemetry emission on this thread —
                        // from any crate, not just the simulator — into
                        // the capture buffer; the shard stamps each
                        // event's (time, key) so the coordinator can
                        // replay in serial order.
                        tel::capture_begin();
                    }
                    task(phase, s, &mut shard)?;
                    // Whatever the task left in this thread's registries
                    // goes with the shard: which worker ran it is a race.
                    let (count, reports) = paraleon_audit::drain();
                    shard.audit_carry.0 += count;
                    shard.audit_carry.1.extend(reports);
                    if tel_on {
                        shard.tel_carry.append(&mut tel::capture_take());
                    }
                }
            }
            Ok(())
        });
        drop(cells);
        // Absorb the tasks' audit tallies in shard order (deterministic).
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
        // Each entity's data lives in exactly one shard's snapshot, which
        // is as large as the shard; the only shard's is the fabric's.
        let raw = match &mut self.shards[..] {
            [only] => only.interval_raw(),
            shards => {
                let first = &shards[0];
                let (start, end) = (first.interval_start, first.core.now());
                let (n_nodes, n_hosts) = (first.topo.n_nodes(), first.topo.n_hosts());
                let mut all = IntervalRaw::new(start, end, n_nodes, n_hosts);
                for s in shards {
                    let raw = s.interval_raw();
                    all.place(raw, s.core.owned());
                }
                all
            }
        };
        raw.fold(self.topology(), self.config())
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
        // partial last windows, odd and even hand-off counts (windows +
        // the closing one: 201, 8, 195, 200, 201) back to back, so every
        // call finds the mailbox matrices and the barrier as the previous
        // one left them, on either parity.
        for dt in [200_000, 7_000, 193_500, 198_500, 200_000] {
            eng.run_until(eng.now() + dt);
            metrics.push(eng.collect_interval());
            completions.extend(eng.take_completions());
        }
        // Late flows after a collection boundary.
        eng.add_flow(3, 8, 200_000, eng.now() + MICRO);
        eng.run_until(eng.now() + MILLI);
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

    /// `run` on the fixture's four shards must reproduce its one-shard
    /// result on 2, 3 and 4 workers — 3 is more than a CI box has cores,
    /// so the barrier parks there, with more shards than workers.
    fn assert_matches_serial(run: fn(Engine) -> Run) {
        let serial = run(Engine::new(clos(), cfg(), 1));
        for threads in [2, 3, 4] {
            let eng = Engine::new(clos(), cfg(), threads);
            assert_eq!((eng.shards.len(), eng.workers()), (4, threads));
            let par = run(eng);
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

    /// Longest first, ties by ascending index, to the least-dealt worker;
    /// no history means contiguous blocks; every shard has one home.
    #[test]
    fn home_lists_deal_longest_first_and_cover_every_shard() {
        assert_eq!(
            plan_homes(&[5, 9, 5, 1, 7, 0, 3, 5], 2),
            [vec![1, 2, 6, 3], vec![4, 0, 7, 5]]
        );
        assert_eq!(plan_homes(&[4, 4, 4, 4], 3), [vec![0, 3], vec![1], vec![2]]);
        assert_eq!(
            plan_homes(&[0; 8], 3),
            [vec![0, 1], vec![2, 3, 4], vec![5, 6, 7]]
        );
        assert_eq!(plan_homes(&[0; 4], 2), [vec![0, 1], vec![2, 3]]);
        for workers in [1, 2, 3] {
            for shards in [2, 4, 8] {
                for load in [
                    vec![0; shards],
                    (0..shards as u64).map(|s| s * s % 7).collect(),
                ] {
                    if workers > shards {
                        continue;
                    }
                    let homes = plan_homes(&load, workers);
                    assert_eq!(homes.len(), workers);
                    let mut all: Vec<usize> = homes.concat();
                    all.sort_unstable();
                    assert_eq!(all, (0..shards).collect::<Vec<_>>(), "{workers} x {load:?}");
                }
            }
        }
    }

    /// A skewed load — every flow sourced under ToR 0, shard 0, so the
    /// workers without it on their home list run dry every epoch and go
    /// stealing — under the fault plan, telemetry flipped between
    /// intervals: everything the run leaves behind (metrics, completions,
    /// event count, counters, histogram buckets, the whole flight stream,
    /// audit tallies) is what one shard leaves.
    #[test]
    fn stolen_shards_leave_what_one_shard_leaves() {
        let run = |threads: usize| {
            tel::reset();
            paraleon_audit::reset();
            let mut eng = Engine::new(clos(), cfg(), threads);
            eng.install_fault_plan(&fault_plan()).expect("plan");
            for (i, dst) in (4..16).enumerate() {
                eng.add_flow(i % 4, dst, 250_000, (i as u64) * 3 * MICRO);
            }
            let mut metrics = Vec::new();
            for on in [true, false, true, true, false, true] {
                tel::set_enabled(on);
                eng.run_until(eng.now() + 170 * MICRO);
                metrics.push(eng.collect_interval());
            }
            tel::set_enabled(false);
            (
                (metrics, eng.take_completions(), eng.events_processed()),
                tel::counters_snapshot(),
                tel::histogram(tel::Hist::QueueBytes),
                tel::flight_events(),
                paraleon_audit::violation_count(),
            )
        };
        let serial = run(1);
        assert!(!serial.0 .1.is_empty() && !serial.3.is_empty());
        for threads in [2, 3, 4] {
            assert_eq!(run(threads), serial, "{threads} threads");
        }
    }

    /// The coordinator's registry decides, once per `run_until`, whether
    /// tasks capture: off (the default) nothing is stamped or parked —
    /// the coordinator does not drain `tel_carry` then, so anything a
    /// task did capture would still be sitting there — and flipping the
    /// flag between two intervals records exactly what one shard records
    /// under the same flips.
    #[test]
    fn task_capture_follows_the_coordinators_registry() {
        let toggled = |threads: usize| {
            tel::reset();
            let mut eng = Engine::new(clos(), cfg(), threads);
            for src in 4..12 {
                eng.add_flow(src, 0, 300_000, (src as u64) * 2 * MICRO);
            }
            for on in [false, true, false, true] {
                tel::set_enabled(on);
                eng.run_until(eng.now() + 150 * MICRO);
                // One shard runs on this thread and never captures.
                let capturing = on && eng.cut.is_some();
                assert!(eng.shards.iter().all(|s| s.core.tel_capture == capturing));
                assert!(eng.shards.iter().all(|s| s.tel_carry.is_empty()));
            }
            tel::set_enabled(false);
            (
                tel::counters_snapshot(),
                tel::histogram(tel::Hist::QueueBytes),
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
    /// engine: one core owning every node and no cut state at all. More
    /// threads cut as fine as there are ToRs and run on as many workers
    /// as were asked for and have a shard to run.
    #[test]
    fn engine_clamps_to_topology() {
        for eng in [
            Engine::new(clos(), cfg(), 0),
            Engine::new(clos(), cfg(), 1),
            Engine::new(
                Topology::two_tier_clos(1, 2, 1, 100.0, 100.0, 1_000),
                cfg(),
                8,
            ),
        ] {
            assert_eq!((eng.shards.len(), eng.workers()), (1, 1));
            assert_eq!(eng.lookahead(), 0);
            assert!(eng.cut.is_none());
        }
        for (threads, workers) in [(8, 4), (2, 2)] {
            let eng = Engine::new(clos(), cfg(), threads);
            assert_eq!((eng.shards.len(), eng.workers()), (4, workers), "{threads}");
            assert!(eng.lookahead() > 0);
        }
        let paper = Topology::two_tier_clos(8, 16, 4, 100.0, 100.0, 5_000);
        let eng = Engine::new(paper, cfg(), 2);
        assert_eq!((eng.shards.len(), eng.workers()), (8, 2));
    }

    /// A shard holds state for the nodes it owns and no others.
    #[test]
    fn shards_hold_only_what_they_own() {
        let eng = Engine::new(clos(), cfg(), 2);
        let (mut hosts, mut switches) = (0, 0);
        for s in &eng.shards {
            assert_eq!(s.hosts.len(), 4, "one ToR subtree each");
            assert!((1..=2).contains(&s.switches.len()), "a ToR, maybe a leaf");
            assert_eq!(s.core.owned().len(), s.hosts.len() + s.switches.len());
            hosts += s.hosts.len();
            switches += s.switches.len();
        }
        assert_eq!((hosts, switches), (16, eng.n_switches()));
    }

    /// Whatever a panicking thread carried as its message.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the call must panic");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p
                .downcast::<&str>()
                .map_or_else(|_| "?".into(), |s| (*s).into()),
        }
    }

    /// A task that panics surfaces as itself out of `run_until`'s fan-out
    /// — not as a poisoned lock, not as a broken barrier — whether its
    /// peers were spinning at the barrier or parked there; and the engine
    /// refuses to run again.
    #[test]
    fn a_panicking_task_surfaces_as_itself() {
        for spin in [true, false] {
            let mut eng = Engine::new(clos(), cfg(), 3);
            let Engine { shards, cut, .. } = &mut eng;
            let cut = cut.as_mut().expect("cut");
            cut.barrier = EpochBarrier::with_spin(cut.workers, spin);
            let homes = plan_homes(&[0; 4], cut.workers);
            let msg = panic_message(|| {
                Engine::run_tasks(shards, cut, &homes, 100, |phase, me, _| {
                    if phase == 7 && me == 2 {
                        panic!("shard 2 blew up");
                    }
                    Ok(())
                })
            });
            assert_eq!(msg, "shard 2 blew up", "spin {spin}");
            let again = panic_message(|| eng.run_until(eng.now() + MICRO));
            assert!(again.contains("panicked in an earlier run"), "{again}");
        }
    }

    /// A worker about to lock the shard (or mailbox slot) another worker
    /// panicked on stands down as at a broken barrier, so the fan-out
    /// re-raises the first panic, not a poisoning.
    #[test]
    fn a_poisoned_lock_stands_its_finder_down() {
        let shard = Mutex::new(0u32);
        let barrier = EpochBarrier::new(2);
        let msg = panic_message(|| {
            run_workers(2, &barrier, |w| {
                if w == 0 {
                    let _held = lock(&shard)?;
                    panic!("worker 0 blew up holding the shard");
                }
                while !shard.is_poisoned() {
                    std::thread::yield_now();
                }
                *lock(&shard)? += 1;
                Ok(())
            })
        });
        assert_eq!(msg, "worker 0 blew up holding the shard");
        assert!(lock(&shard).is_err());
    }

    /// Two violations on shards that different workers run — shard 3 on
    /// the first worker and reporting first, shard 0 on the last — come
    /// back in shard order at every worker count: tallies travel with the
    /// shard, not with the thread.
    #[cfg(feature = "audit")]
    #[test]
    fn audit_reports_come_back_in_shard_order() {
        use paraleon_audit::AuditViolation::CrossShardResidue;
        use std::sync::atomic::AtomicBool;
        let report = |shard: usize| {
            let (shard, pending) = (shard as u32, 1);
            paraleon_audit::report(CrossShardResidue { shard, pending });
        };
        for threads in [2, 3, 4] {
            paraleon_audit::set_panic_on_violation(false);
            paraleon_audit::reset();
            let mut eng = Engine::new(clos(), cfg(), threads);
            let Engine { shards, cut, .. } = &mut eng;
            let cut = cut.as_ref().expect("cut");
            let mut homes = plan_homes(&[0; 4], cut.workers);
            homes.reverse();
            let last_reported = AtomicBool::new(false);
            Engine::run_tasks(shards, cut, &homes, 1, |_, me, _| {
                if me == 3 {
                    report(me);
                    last_reported.store(true, Ordering::Release);
                } else if me == 0 {
                    while !last_reported.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    report(me);
                }
                Ok(())
            });
            let shards: Vec<_> = paraleon_audit::violations()
                .into_iter()
                .map(|r| match r.violation {
                    CrossShardResidue { shard, .. } => shard,
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            assert_eq!(shards, [0, 3], "{threads} threads");
            assert_eq!(paraleon_audit::violation_count(), 2);
            paraleon_audit::reset();
        }
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
            eng.run_until(eng.now() + 20 * MICRO);
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
