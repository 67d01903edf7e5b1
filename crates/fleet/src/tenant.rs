//! One fleet tenant: a simulated fabric plus the controller-side
//! [`TunerCell`] the service schedules on its behalf.
//!
//! A tenant is exactly the state of one standalone [`ClosedLoop`] — the
//! service builds it through [`TenantSpec::closed_loop`], the ordinary
//! builder, and destructures the loop, so a fleet tenant and a
//! standalone loop start from bit-identical state. The difference is
//! *where* the two halves run: a fleet tenant's fabric advances in
//! phase A of the service tick (possibly on a worker thread), and the
//! coordinator hands the interval's metrics to its cell in phase B of
//! the same tick. Both halves are the ones [`ClosedLoop::step`] calls —
//! [`TunerCell::advance_fabric`] and [`TunerCell::process_interval`] —
//! so the cell observes the standalone loop's operation sequence, the
//! fleet's headline byte-identity property, checked against
//! [`standalone_run`]. Flow admission is not re-implemented here: the
//! tenant and the standalone comparator both call
//! [`drivers::admit_due`], the rule every workload driver uses.

use paraleon::prelude::*;
use paraleon::Nanos;
use paraleon_netsim::{Engine, IntervalMetrics};
use paraleon_telemetry as tel;

/// Fleet-assigned tenant identity. Nonzero — telemetry entity id 0 is
/// reserved for untenanted (standalone) emission, and the tenant id is
/// stamped into the high 16 bits of every series entity the tenant's
/// cell emits (see `paraleon_telemetry::tenant_entity`).
pub type TenantId = u32;

/// Everything needed to (re)build one tenant's fabric and controller:
/// topology, scheme, monitor, guardrail, control plane, loop knobs,
/// simulator config, fault plan, seed and offered workload.
#[derive(Clone)]
pub struct TenantSpec {
    /// Fabric topology family and dimensions.
    pub topo: TopoSpec,
    /// Tuning scheme driven by this tenant's cell.
    pub scheme: SchemeKind,
    /// Controller-side FSD monitor.
    pub monitor: MonitorKind,
    /// Optional deployment guardrail.
    pub guardrail: Option<GuardrailConfig>,
    /// Control-plane knobs.
    pub ctrl: CtrlPlaneConfig,
    /// Closed-loop knobs (λ_MI, utility weights, trigger).
    pub loop_cfg: LoopConfig,
    /// Simulator configuration. The scheme, monitor and seed replace its
    /// `dcqcn`, `dcqcn_plus`, `tos_dedup` and `seed` at build time.
    pub sim_cfg: SimConfig,
    /// Optional fault plan (data-plane and control-plane events).
    pub fault_plan: Option<FaultPlan>,
    /// Master seed for the fabric and tuner RNGs.
    pub seed: u64,
    /// Engine shards for this tenant's fabric (1 = serial engine).
    pub engine_threads: usize,
    /// Offered flows, sorted by start time. Admitted with a 2·λ_MI
    /// lookahead horizon as the fabric advances.
    pub schedule: Vec<FlowRequest>,
}

impl TenantSpec {
    /// Spec with the paper-default loop over `topo`: PARALEON scheme
    /// and monitor, default control plane, no guardrail, no faults,
    /// serial engine, empty schedule.
    pub fn new(topo: TopoSpec) -> Self {
        Self {
            topo,
            scheme: SchemeKind::Paraleon,
            monitor: MonitorKind::Paraleon,
            guardrail: None,
            ctrl: CtrlPlaneConfig::default(),
            loop_cfg: LoopConfig::default(),
            sim_cfg: SimConfig::default(),
            fault_plan: None,
            seed: 1,
            engine_threads: 1,
            schedule: Vec::new(),
        }
    }

    /// Build the standalone closed loop this spec describes. Both the
    /// fleet tenant and the [`standalone_run`] comparator construct
    /// through here, so they cannot drift apart.
    pub fn closed_loop(&self) -> ClosedLoop {
        let mut b = ClosedLoop::builder(self.topo.build())
            .scheme(self.scheme.clone())
            .monitor(self.monitor.clone())
            .sim_config(self.sim_cfg.clone())
            .loop_config(self.loop_cfg.clone())
            .ctrl_plane(self.ctrl.clone())
            .seed(self.seed)
            .parallel(self.engine_threads);
        if let Some(g) = &self.guardrail {
            b = b.guardrail(g.clone());
        }
        let mut cl = b.build();
        if let Some(plan) = &self.fault_plan {
            cl.install_fault_plan(plan)
                .expect("tenant fault plan must be valid for its topology");
        }
        cl
    }
}

/// Run `spec` as an ordinary standalone [`ClosedLoop`] for `ticks`
/// monitor intervals — the comparator the fleet's byte-identity checks
/// measure against. Uses the shared [`drivers::Stepper`] over
/// [`ClosedLoop::step`], not any fleet code path.
pub fn standalone_run(spec: &TenantSpec, ticks: u64) -> ClosedLoop {
    let mut cl = spec.closed_loop();
    let mut stepper = drivers::Stepper::new(&spec.schedule);
    for _ in 0..ticks {
        stepper.step(&mut cl);
    }
    cl
}

/// One admitted tenant: fabric, controller cell and flow completions.
pub struct Tenant {
    /// Fleet-assigned identity (nonzero).
    pub id: TenantId,
    /// The tenant's fabric.
    pub sim: Engine,
    /// The tenant's controller state (monitor merge, trigger, scheme,
    /// guardrail, dispatch protocol, history, ledger).
    pub cell: TunerCell,
    /// All flow completions observed so far.
    pub completions: Vec<FlowRecord>,
    spec: TenantSpec,
    next_flow: usize,
    /// Events the fabric processed in its latest advance: the scheduler's
    /// cost estimate for the next one. Fabric state — no snapshot holds
    /// it and no restore rewinds it.
    pub(crate) last_events: u64,
}

impl Tenant {
    /// Build a tenant from its spec via the ordinary [`ClosedLoop`]
    /// builder (bit-identical initial state to a standalone loop).
    pub(crate) fn build(spec: TenantSpec, id: TenantId) -> Self {
        let ClosedLoop {
            sim,
            cell,
            completions,
        } = spec.closed_loop();
        Self {
            id,
            sim,
            cell,
            completions,
            spec,
            next_flow: 0,
            last_events: 0,
        }
    }

    /// This tenant's monitor interval λ_MI.
    pub fn lambda(&self) -> Nanos {
        self.cell.cfg.lambda_mi
    }

    /// The spec this tenant was admitted with.
    pub fn spec(&self) -> &TenantSpec {
        &self.spec
    }

    /// Phase-A work: admit due flows, then the cell's fabric half
    /// ([`TunerCell::advance_fabric`]).
    pub(crate) fn advance(&mut self) -> IntervalMetrics {
        drivers::admit_due(
            &mut self.sim,
            &self.spec.schedule,
            &mut self.next_flow,
            self.cell.cfg.lambda_mi,
        );
        let before = self.sim.events_processed();
        let metrics = self
            .cell
            .advance_fabric(&mut self.sim, &mut self.completions);
        self.last_events = self.sim.events_processed() - before;
        metrics
    }

    /// [`Tenant::advance`] as phase A runs it. `capture` is the
    /// coordinator's registry flag, sampled once per tick before the
    /// fan-out: when set, every telemetry emission is diverted into a
    /// capture buffer, so worker threads need no telemetry state and the
    /// coordinator can replay all tenants' emissions in one
    /// deterministic order (ascending tenant id) in both the serial and
    /// threaded schedulers; when clear, the replay would record nothing,
    /// so nothing is captured and the buffer comes back empty.
    pub(crate) fn advance_captured(
        &mut self,
        capture: bool,
    ) -> (Vec<tel::Captured>, IntervalMetrics) {
        if !capture {
            return (Vec::new(), self.advance());
        }
        tel::capture_begin();
        let metrics = self.advance();
        (tel::capture_take(), metrics)
    }

    /// Controller-side memory footprint: the cell's state. Excludes the
    /// fabric — the service's headline metric is what one tuner
    /// *process* holds for N tenants.
    pub fn controller_memory_bytes(&self) -> usize {
        self.cell.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> TenantSpec {
        let mut spec = TenantSpec::new(TopoSpec::TwoTier(ClosSpec {
            n_tor: 2,
            hosts_per_tor: 2,
            n_leaf: 1,
            host_gbps: 25.0,
            uplink_gbps: 50.0,
            delay_ns: 1_000,
        }));
        spec.schedule = vec![
            FlowRequest {
                src: 0,
                dst: 2,
                bytes: 2_000_000,
                start: 0,
            },
            FlowRequest {
                src: 1,
                dst: 3,
                bytes: 500_000,
                start: 3 * MILLI,
            },
        ];
        spec
    }

    #[test]
    fn standalone_run_admits_and_completes_flows() {
        let cl = standalone_run(&tiny_spec(), 20);
        assert_eq!(cl.cell.history.len(), 20);
        assert_eq!(cl.completions.len(), 2, "both scheduled flows finish");
    }

    #[test]
    fn tenant_fabric_clock_tracks_advances() {
        let mut t = Tenant::build(tiny_spec(), 1);
        for k in 0..5u64 {
            assert_eq!(t.sim.now(), k * MILLI);
            let metrics = t.advance();
            assert_eq!(metrics.end, (k + 1) * MILLI);
        }
        assert_eq!(t.cell.history.len(), 0, "phase A never runs the cell");
    }
}
