//! The fleet scheduler: one controller process, N tenant fabrics.
//!
//! [`FleetService::tick`] advances every tenant by one monitor interval
//! of its own λ_MI — the paper's one monitor → tune → dispatch round —
//! in one fan-out over [`paraleon::sweep`], the runner experiment grids
//! and the hunt use. A job is one tenant's whole interval
//! ([`TunerCell::process_interval`] included), the calls its standalone
//! [`ClosedLoop`] makes, so each cell observes its standalone loop's
//! operation sequence by construction — bit-for-bit, which
//! `tests/fleet_properties.rs` and `exp fleet` enforce.
//!
//! Tenants are mutually independent: [`FleetConfig::threads`] workers
//! pull one tenant at a time off a shared cursor, longest first (by the
//! events each fabric processed last tick), so no worker idles while
//! another holds two heavy fabrics. Neither the order nor the worker a
//! tenant lands on can show in any output. A job touches only its own
//! tenant, and while the coordinator's telemetry registry is enabled
//! (sampled once per tick) every emission is captured per tenant. The
//! coordinator then replays the captures in ascending tenant id, each
//! stamped with its tenant and with its interval's end on the registry
//! clock — what that tenant's standalone loop records, in the order the
//! one-thread scheduler emits, which is what makes any thread count
//! byte-identical to one thread.
//!
//! [`TunerCell::process_interval`]: paraleon::prelude::TunerCell::process_interval
//! [`ClosedLoop`]: paraleon::prelude::ClosedLoop

use std::cmp::Reverse;
use std::time::{Duration, Instant};

use paraleon::sweep;
use paraleon_telemetry as tel;

use crate::tenant::{Tenant, TenantId, TenantSpec};

/// Scheduler knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Worker threads tenants' intervals fan out on (1 = serial).
    /// Results are byte-identical across any thread count.
    pub threads: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self { threads: 1 }
    }
}

/// What one service tick did — returned by [`FleetService::tick`] so
/// harnesses can track scheduling latency live.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickReport {
    /// Tick index just completed (1-based after the first tick).
    pub tick: u64,
    /// Wall-clock of the fan-out of every tenant's whole interval
    /// (phase A).
    pub phase_a: Duration,
    /// Σ over tenants of the wall-clock each one's interval took: the
    /// work in `phase_a`, so `busy / (workers × phase_a)` is how full the
    /// fan-out kept its workers.
    pub busy: Duration,
    /// Workers the fan-out ran on.
    pub workers: usize,
    /// Wall-clock of replaying the captured telemetry on the coordinator
    /// (phase B).
    pub phase_b: Duration,
}

/// Cumulative service counters (see also the `fleet_*` telemetry
/// counters, which track the same quantities globally).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetStats {
    /// Service ticks completed.
    pub ticks: u64,
    /// Tenants admitted over the service lifetime.
    pub admits: u64,
    /// Always 0: no upload is ever shed. Kept because `benchmark/`
    /// reads it.
    pub upload_drops: u64,
    /// Always 0: every tenant gets its turn every tick. Kept because
    /// `benchmark/` reads it.
    pub starved_turns: u64,
    /// Always 0: no interval waits for a later tick. Kept because
    /// `benchmark/` reads it.
    pub backlog: usize,
}

/// Controller-as-a-service: one tuner process scheduling monitor
/// merges, tuning episodes and dispatches for a fleet of independent
/// simulated fabrics.
pub struct FleetService {
    /// Scheduler knobs (fixed at construction).
    pub cfg: FleetConfig,
    pub(crate) tenants: Vec<Tenant>,
    pub(crate) tick: u64,
    pub(crate) next_id: TenantId,
    pub(crate) admits: u64,
}

impl FleetService {
    /// Empty service.
    pub fn new(cfg: FleetConfig) -> Self {
        Self {
            cfg,
            tenants: Vec::new(),
            tick: 0,
            next_id: 1,
            admits: 0,
        }
    }

    /// Admit a tenant: build its fabric and cell from `spec` (identical
    /// construction to a standalone loop) and start scheduling it on
    /// the next tick. Returns the fleet-assigned id (nonzero, never
    /// reused).
    pub fn admit(&mut self, spec: TenantSpec) -> TenantId {
        let id = self.next_id;
        self.next_id += 1;
        self.tenants.push(Tenant::build(spec, id));
        self.admits += 1;
        tel::count(tel::Ctr::FleetAdmits);
        id
    }

    /// The tenant with id `id`.
    pub fn tenant(&self, id: TenantId) -> Option<&Tenant> {
        self.tenants.iter().find(|t| t.id == id)
    }

    /// Mutable access to the tenant with id `id`.
    pub fn tenant_mut(&mut self, id: TenantId) -> Option<&mut Tenant> {
        self.tenants.iter_mut().find(|t| t.id == id)
    }

    /// All live tenants, in ascending id order.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// Live tenant count.
    pub fn n_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Cumulative service counters.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            ticks: self.tick,
            admits: self.admits,
            upload_drops: 0,
            starved_turns: 0,
            backlog: 0,
        }
    }

    /// Controller-process memory footprint: every tenant's cell state.
    /// Excludes the fabrics — this is what the shared tuner holds, the
    /// fleet's headline scaling metric.
    pub fn controller_memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .tenants
                .iter()
                .map(Tenant::controller_memory_bytes)
                .sum::<usize>()
    }

    /// Advance every tenant one monitor interval: fan its whole
    /// interval out to the workers (phase A), then replay what each
    /// emitted, in ascending tenant id (phase B).
    pub fn tick(&mut self) -> TickReport {
        // Capture iff the replay below would record anything.
        let capture = tel::enabled();
        let t0 = Instant::now();
        let results = self.fan_out(|t| {
            let t0 = Instant::now();
            if capture {
                tel::capture_begin();
            }
            t.step();
            let captured = if capture {
                tel::capture_take()
            } else {
                Vec::new()
            };
            (captured, t0.elapsed())
        });
        let phase_a = t0.elapsed();

        // The one canonical emission order. The tenant id is stamped onto
        // series entities and flight events here (workers run untenanted),
        // and emissions that read the registry clock read the tenant's
        // interval end, as in its standalone loop.
        let t1 = Instant::now();
        let mut busy = Duration::ZERO;
        for (t, (captured, took)) in self.tenants.iter().zip(results) {
            busy += took;
            tel::set_tenant(t.id);
            tel::set_time(t.sim.now());
            tel::capture_replay(&captured);
            tel::set_tenant(0);
        }
        self.tick += 1;
        tel::count(tel::Ctr::FleetTicks);
        TickReport {
            tick: self.tick,
            phase_a,
            busy,
            workers: self.cfg.threads.clamp(1, self.tenants.len().max(1)),
            phase_b: t1.elapsed(),
        }
    }

    /// Run `n` service ticks.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.tick();
        }
    }

    /// Run `job` once per tenant on `cfg.threads` workers, handed out in
    /// [`longest_first`] order; results come back in tenant id order.
    fn fan_out<R: Send>(&mut self, job: impl Fn(&mut Tenant) -> R + Sync) -> Vec<R> {
        let job = &job;
        let events: Vec<u64> = self.tenants.iter().map(|t| t.last_events).collect();
        let mut tenants: Vec<_> = self.tenants.iter_mut().map(Some).collect();
        let jobs = longest_first(&events)
            .into_iter()
            .map(|i| {
                let t = tenants[i].take().expect("the order is a permutation");
                move || (i, job(t))
            })
            .collect();
        let mut out = sweep::run_on(self.cfg.threads, jobs);
        out.sort_unstable_by_key(|&(i, _)| i);
        out.into_iter().map(|(_, r)| r).collect()
    }
}

/// The fan-out's job order over tenant indices: descending events processed
/// last tick — the cheapest deterministic estimate of this tick's cost,
/// and longest-first is what keeps a work-conserving runner's last worker
/// from starting a heavy fabric when the others are done. Ties, and the
/// all-zero first tick, stay in ascending index (= id) order.
fn longest_first(events: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| Reverse(events[i]));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::standalone_run;
    use paraleon::prelude::*;

    fn clos_spec(seed: u64) -> TenantSpec {
        let mut spec = TenantSpec::new(TopoSpec::TwoTier(ClosSpec {
            n_tor: 2,
            hosts_per_tor: 2,
            n_leaf: 1,
            host_gbps: 25.0,
            uplink_gbps: 50.0,
            delay_ns: 1_000,
        }));
        spec.seed = seed;
        spec.schedule = synthetic_schedule(4, seed, 16);
        spec
    }

    fn rail_spec(seed: u64) -> TenantSpec {
        let mut spec = TenantSpec::new(TopoSpec::Rail(RailSpec {
            n_rail: 2,
            n_server: 2,
            n_spine: 1,
            host_gbps: 25.0,
            uplink_gbps: 50.0,
            delay_ns: 1_500,
        }));
        spec.seed = seed;
        spec.scheme = SchemeKind::Expert;
        spec.schedule = synthetic_schedule(4, seed, 16);
        spec
    }

    fn mixed_spec(seed: u64) -> TenantSpec {
        let mut spec = TenantSpec::new(TopoSpec::MixedRate(MixedRateSpec {
            n_tor: 2,
            hosts_per_tor: 2,
            n_leaf: 2,
            host_gbps: 25.0,
            fast_gbps: 50.0,
            slow_gbps: 25.0,
            delay_ns: 1_000,
        }));
        spec.seed = seed;
        spec.monitor = MonitorKind::NaiveSketch;
        spec.schedule = synthetic_schedule(4, seed, 16);
        spec
    }

    /// Deterministic elephant/mice mix: a few large flows early, then
    /// bursts of small flows — enough traffic that tuning has signal.
    fn synthetic_schedule(hosts: usize, seed: u64, intervals: u64) -> Vec<FlowRequest> {
        let half = hosts / 2;
        let mut flows = Vec::new();
        for i in 0..intervals {
            let t0 = i * MILLI;
            if i < 4 {
                flows.push(FlowRequest {
                    src: (i as usize + seed as usize) % half,
                    dst: half + (i as usize) % half,
                    bytes: 4_000_000,
                    start: t0,
                });
            } else {
                for k in 0..8usize {
                    flows.push(FlowRequest {
                        src: (k + seed as usize) % hosts,
                        dst: (k + seed as usize + half) % hosts,
                        bytes: 20_000,
                        start: t0 + k as u64 * 10_000,
                    });
                }
            }
        }
        flows
    }

    fn assert_tenant_matches_standalone(t: &Tenant, spec: &TenantSpec, ticks: u64) {
        let standalone = standalone_run(spec, ticks);
        assert_eq!(
            t.cell.history.len(),
            standalone.cell.history.len(),
            "tenant {} processed a different interval count",
            t.id
        );
        for (k, (a, b)) in t
            .cell
            .history
            .iter()
            .zip(standalone.cell.history.iter())
            .enumerate()
        {
            assert_eq!(a, b, "tenant {} interval {k} diverged", t.id);
        }
        assert_eq!(t.cell.last_params, standalone.cell.last_params);
        assert_eq!(t.completions, standalone.completions);
    }

    #[test]
    fn single_tenant_fleet_matches_standalone_bit_for_bit() {
        let spec = clos_spec(7);
        let mut fleet = FleetService::new(FleetConfig::default());
        let id = fleet.admit(spec.clone());
        fleet.run(16);
        let t = fleet.tenant(id).unwrap();
        assert_tenant_matches_standalone(t, &spec, 16);
    }

    #[test]
    fn heterogeneous_fleet_every_tenant_matches_its_standalone() {
        let specs = [clos_spec(1), rail_spec(2), mixed_spec(3)];
        let mut fleet = FleetService::new(FleetConfig::default());
        let ids: Vec<_> = specs.iter().map(|s| fleet.admit(s.clone())).collect();
        fleet.run(12);
        for (id, spec) in ids.iter().zip(&specs) {
            assert_tenant_matches_standalone(fleet.tenant(*id).unwrap(), spec, 12);
        }
    }

    #[test]
    fn serial_and_threaded_fleets_are_byte_identical() {
        let specs = [clos_spec(11), rail_spec(12), mixed_spec(13)];
        let mut serial = FleetService::new(FleetConfig::default());
        let mut threaded = FleetService::new(FleetConfig { threads: 3 });
        for s in &specs {
            serial.admit(s.clone());
            threaded.admit(s.clone());
        }
        serial.run(12);
        threaded.run(12);
        for (a, b) in serial.tenants().iter().zip(threaded.tenants()) {
            assert_eq!(a.cell.history, b.cell.history, "tenant {} diverged", a.id);
            assert_eq!(a.cell.last_params, b.cell.last_params);
            assert_eq!(a.completions, b.completions);
        }
        assert_eq!(serial.stats(), threaded.stats());
    }

    #[test]
    fn phase_a_order_is_longest_first_ties_by_id() {
        assert_eq!(longest_first(&[3, 9, 1, 9, 0]), [1, 3, 0, 2, 4]);
        // First tick: no estimate yet, tenant id order.
        assert_eq!(longest_first(&[0, 0, 0, 0]), [0, 1, 2, 3]);
        assert!(longest_first(&[]).is_empty());
    }

    /// Five light tenants and, admitted last, one whose every tick is
    /// 4 ms of elephants: the fleet the static contiguous split served
    /// worst, and one where longest-first reorders every tick.
    fn skewed_specs() -> Vec<TenantSpec> {
        let mut specs: Vec<TenantSpec> = (0..5u64)
            .map(|i| [clos_spec, rail_spec, mixed_spec][i as usize % 3](80 + i))
            .collect();
        let mut elephant = clos_spec(86);
        elephant.loop_cfg.lambda_mi = 4 * MILLI;
        elephant.schedule = (0..32u64)
            .map(|i| FlowRequest {
                src: (i % 2) as usize,
                dst: 2 + (i % 2) as usize,
                bytes: 4_000_000,
                start: i * MILLI,
            })
            .collect();
        specs.push(elephant);
        specs
    }

    /// Which worker advanced a tenant, and when, shows nowhere: with
    /// capture/replay live, any thread count leaves the same fleet and
    /// the same registry as one thread.
    #[test]
    fn skewed_fleet_is_identical_at_any_thread_count() {
        let run = |threads: usize| {
            tel::reset();
            tel::set_enabled(true);
            let mut fleet = FleetService::new(FleetConfig { threads });
            for s in skewed_specs() {
                fleet.admit(s);
            }
            fleet.run(8);
            tel::set_enabled(false);
            (fleet, telemetry_state())
        };
        let (serial, serial_tel) = run(1);
        let estimates: Vec<u64> = serial.tenants().iter().map(|t| t.last_events).collect();
        assert_eq!(
            longest_first(&estimates)[0],
            5,
            "the elephant goes first: {estimates:?}"
        );
        assert!(!serial_tel.1.is_empty() && !serial_tel.2.is_empty());
        for threads in [2, 3] {
            let (threaded, threaded_tel) = run(threads);
            for (a, b) in serial.tenants().iter().zip(threaded.tenants()) {
                assert_eq!(a.cell.history, b.cell.history, "tenant {} diverged", a.id);
                assert_eq!(a.cell.last_params, b.cell.last_params);
                assert_eq!(a.completions, b.completions);
                assert_eq!(a.last_events, b.last_events);
            }
            assert_eq!(serial.stats(), threaded.stats());
            assert_eq!(serial_tel, threaded_tel, "{threads} threads");
        }
        tel::reset();
    }

    /// A tenant that panics in its interval fails the tick with its own
    /// message, on the coordinator and through a worker alike.
    #[test]
    fn a_panicking_tenant_re_raises_its_own_payload() {
        for threads in [1, 2] {
            let mut fleet = FleetService::new(FleetConfig { threads });
            fleet.admit(clos_spec(71));
            let mut bad = rail_spec(72);
            bad.schedule[0].bytes = 0;
            fleet.admit(bad);
            let tick = std::panic::AssertUnwindSafe(|| fleet.tick());
            let payload = std::panic::catch_unwind(tick).expect_err("admission panics");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("add_flow_on_qp: zero-byte flow"),
                "{threads} thread(s)"
            );
        }
    }

    /// The audit registry is thread-local: a violation on a fan-out
    /// worker must be counted on the coordinator (`exp fleet`'s audit
    /// tail reads it there), and only if the coordinator audits at all.
    #[cfg(feature = "audit")]
    #[test]
    fn phase_a_worker_violations_reach_the_coordinator() {
        paraleon_audit::set_panic_on_violation(false);
        let mut fleet = FleetService::new(FleetConfig { threads: 2 });
        fleet.admit(clos_spec(91));
        fleet.admit(rail_spec(92));
        for (audited, counted) in [(true, 1), (false, 0)] {
            paraleon_audit::reset();
            paraleon_audit::set_enabled(audited);
            let gate = std::sync::Barrier::new(2);
            fleet.fan_out(|t| {
                // Both workers hold a tenant before either proceeds, so
                // the violation is reported off the coordinator.
                gate.wait();
                paraleon_audit::check(t.id != 1, || {
                    paraleon_audit::AuditViolation::CrossShardResidue {
                        shard: 0,
                        pending: 1,
                    }
                });
            });
            assert_eq!(paraleon_audit::violation_count(), counted);
        }
        paraleon_audit::set_enabled(true);
        paraleon_audit::reset();
    }

    #[test]
    fn admit_mid_run() {
        let mut fleet = FleetService::new(FleetConfig::default());
        let a = fleet.admit(clos_spec(31));
        let b = fleet.admit(rail_spec(32));
        fleet.run(5);
        let c = fleet.admit(mixed_spec(33));
        fleet.run(5);
        assert_eq!(fleet.n_tenants(), 3);
        assert_eq!(fleet.tenant(a).unwrap().cell.history.len(), 10);
        assert_eq!(fleet.tenant(b).unwrap().cell.history.len(), 10);
        assert_eq!(fleet.tenant(c).unwrap().cell.history.len(), 5);
        let s = fleet.stats();
        assert_eq!((s.admits, s.ticks), (3, 10));
        // Ids are never reused.
        let d = fleet.admit(clos_spec(34));
        assert!(d > c);
    }

    #[test]
    fn telemetry_is_stamped_per_tenant() {
        tel::reset();
        tel::set_enabled(true);
        let mut fleet = FleetService::new(FleetConfig::default());
        let a = fleet.admit(clos_spec(41));
        let b = fleet.admit(rail_spec(42));
        fleet.run(4);
        tel::set_enabled(false);
        assert_eq!(tel::counter(tel::Ctr::FleetTicks), 4);
        assert_eq!(tel::counter(tel::Ctr::FleetAdmits), 2);
        // Each tenant's utility series lands on its own stamped entity.
        for id in [a, b] {
            let pts = tel::series_get("utility", tel::tenant_entity(id, 0));
            assert_eq!(pts.len(), 4, "tenant {id} utility series");
        }
        assert!(
            tel::series_get("utility", 0).is_empty(),
            "no emission leaks onto the untenanted entity"
        );
        tel::reset();
    }

    /// Whichever thread runs a tenant's interval, its emissions reach
    /// the registry only when the coordinator records: a disabled
    /// registry stays empty, an enabled one gets every tenant's.
    #[test]
    fn a_tick_records_only_into_a_recording_coordinator() {
        for threads in [1, 3] {
            tel::reset();
            let mut fleet = FleetService::new(FleetConfig { threads });
            for s in [clos_spec(51), rail_spec(52), mixed_spec(53)] {
                fleet.admit(s);
            }
            fleet.tick();
            assert!(
                tel::series_points().is_empty()
                    && tel::flight_events().is_empty()
                    && tel::counters_snapshot().iter().all(|&(_, n)| n == 0),
                "{threads} thread(s): a disabled registry records nothing"
            );
            tel::set_enabled(true);
            fleet.tick();
            tel::set_enabled(false);
            for t in fleet.tenants() {
                let pts = tel::series_get("utility", tel::tenant_entity(t.id, 0));
                assert_eq!(pts.len(), 1, "{threads} thread(s): tenant {}", t.id);
            }
        }
        tel::reset();
    }

    /// What the registry holds, minus the `fleet_*` counters a standalone
    /// loop has no scheduler to bump.
    type TelemetryState = (
        Vec<(&'static str, u64)>,
        Vec<tel::SeriesPoint>,
        Vec<tel::TimedEvent>,
    );

    fn telemetry_state() -> TelemetryState {
        let counters = tel::counters_snapshot()
            .into_iter()
            .filter(|(name, _)| !name.starts_with("fleet_"))
            .collect();
        (counters, tel::series_points(), tel::flight_events())
    }

    /// The registry flag is sampled per tick, so flipping it between two
    /// ticks must record exactly what a tenant's standalone loop records
    /// under the same flips, and the same on the threaded scheduler as on
    /// the serial one. The first tenant is sharded, so the engine's own
    /// per-run sampling is crossed too.
    #[test]
    fn telemetry_toggled_between_ticks_matches_standalone() {
        const FLIPS: [bool; 6] = [false, true, true, false, true, false];
        let mut spec = clos_spec(61);
        spec.engine_threads = 2;
        // A 3:1 incast per interval, so marks, CNPs and rate cuts reach
        // the flight recorder from shard workers in every tick.
        spec.schedule = (0..FLIPS.len() as u64)
            .flat_map(|i| {
                (0..3).map(move |src| FlowRequest {
                    src,
                    dst: 3,
                    bytes: 1_000_000,
                    start: i * MILLI,
                })
            })
            .collect();
        let fleet_run = |threads: usize, specs: &[TenantSpec]| {
            tel::reset();
            let mut fleet = FleetService::new(FleetConfig { threads });
            for s in specs {
                fleet.admit(s.clone());
            }
            for on in FLIPS {
                tel::set_enabled(on);
                fleet.tick();
            }
            tel::set_enabled(false);
            telemetry_state()
        };

        // Standalone, stamped as the tenant id the fleet will assign.
        tel::reset();
        tel::set_tenant(1);
        let mut cl = spec.closed_loop();
        let mut stepper = drivers::Stepper::new(&spec.schedule);
        for on in FLIPS {
            tel::set_enabled(on);
            stepper.step(&mut cl);
        }
        tel::set_enabled(false);
        tel::set_tenant(0);
        let standalone = telemetry_state();
        assert!(!standalone.1.is_empty() && !standalone.2.is_empty());
        assert_eq!(fleet_run(1, &[spec.clone()]), standalone);

        let pair = [spec, rail_spec(62)];
        assert_eq!(fleet_run(2, &pair), fleet_run(1, &pair));
        tel::reset();
    }

    /// The series points and flight events stamped with tenant `id`, in
    /// the order the dump holds them.
    fn recorded_by(
        id: TenantId,
        (_, series, events): &TelemetryState,
    ) -> (Vec<tel::SeriesPoint>, Vec<tel::TimedEvent>) {
        let own = events.iter().filter(|e| e.tenant == id).cloned();
        let series = series.iter().filter(|p| p.entity >> 16 == id).cloned();
        (series.collect(), own.collect())
    }

    /// Each tenant's flight events and series, stamped with its id, are
    /// what its standalone loop records under the same id: the same
    /// points at the same times. Tenants differ in λ_MI and engine shards
    /// and all tune from the first interval, so every one dispatches, and
    /// a dispatch is stamped with its own fabric's clock, not with the
    /// clock another tenant's interval left in the registry.
    #[test]
    fn every_tenant_records_what_its_standalone_loop_records() {
        const TICKS: u64 = 8;
        let mut sharded = clos_spec(63);
        sharded.engine_threads = 2;
        let mut slow = mixed_spec(64);
        slow.loop_cfg.lambda_mi = 2 * MILLI;
        let mut specs = [sharded, slow, clos_spec(65)];
        for s in &mut specs {
            s.loop_cfg.force_tuning = true;
        }
        let standalone: Vec<_> = (1..)
            .zip(&specs)
            .map(|(id, spec)| {
                tel::reset();
                tel::set_tenant(id);
                tel::set_enabled(true);
                standalone_run(spec, TICKS);
                tel::set_enabled(false);
                tel::set_tenant(0);
                let recorded = recorded_by(id, &telemetry_state());
                let dispatches = recorded
                    .1
                    .iter()
                    .filter(|e| matches!(e.event, tel::Event::Dispatch { .. }))
                    .count();
                assert!(dispatches > 1, "tenant {id} dispatches {dispatches} times");
                recorded
            })
            .collect();
        for threads in [1, 2] {
            tel::reset();
            tel::set_enabled(true);
            let mut fleet = FleetService::new(FleetConfig { threads });
            for s in &specs {
                fleet.admit(s.clone());
            }
            fleet.run(TICKS);
            tel::set_enabled(false);
            assert_eq!(tel::flight_dropped(), 0, "no ring wrapped");
            let state = telemetry_state();
            let oldest_first = state.2.windows(2).all(|w| w[0].t_ns <= w[1].t_ns);
            assert!(
                oldest_first,
                "{threads} thread(s): the dump is out of time order"
            );
            for (id, want) in (1..).zip(&standalone) {
                let got = recorded_by(id, &state);
                assert_eq!(got.1, want.1, "{threads} thread(s): tenant {id}'s events");
                assert_eq!(got.0, want.0, "{threads} thread(s): tenant {id}'s series");
            }
        }
        tel::reset();
    }
}
