//! Fleet-service scaling experiment: one tuner process managing N
//! heterogeneous simulated fabrics.
//!
//! For each fleet size the harness admits N tenants rotating over four
//! topology families, four schemes, mixed monitors, mixed λ_MI, mixed
//! initial DCQCN parameters, per-tenant Poisson workloads and one
//! control-plane-impaired tenant — then runs the service and reports
//! controller memory footprint and per-tick scheduling latency.
//!
//! Every size is then held to the fleet's correctness gates: serial vs
//! threaded byte-identity, per-tenant equivalence with a standalone
//! `ClosedLoop`, and snapshot round-trip identity. Their verdicts are
//! rows of the JSON, so they run on every invocation. The threaded twin
//! is timed too: its wall, its phase A (the fan-out of every tenant's
//! whole interval), and how full phase A kept its workers. `--smoke` is
//! small sizes and short runs (CI); `--paper` the paper-scale SA
//! schedule for the PARALEON tenants.

use std::time::Instant;

use paraleon::prelude::*;
use paraleon::sweep;
use paraleon_fleet::{standalone_run, FleetConfig, FleetService, TenantSpec};
use serde::Serialize;

use crate::{poisson_flows, Ctx, Scale};

/// Most worker threads the threaded twin runs on.
const THREADS_CHECKED: usize = 4;

/// Worker threads of the threaded twin the serial scheduler is held to:
/// [`THREADS_CHECKED`] capped at the machine's cores, so its timings are
/// of workers that really ran side by side — but never under two, so the
/// identity gate is never one thread against one thread (on a one-core
/// box the twin's timings mean nothing; the report carries
/// `threads_available`).
fn twin_threads() -> usize {
    sweep::effective_threads(THREADS_CHECKED).max(2)
}

/// The four small topology families tenants rotate over.
fn topo_for(i: usize) -> TopoSpec {
    match i % 4 {
        0 => TopoSpec::TwoTier(ClosSpec {
            n_tor: 2,
            hosts_per_tor: 4,
            n_leaf: 2,
            host_gbps: 25.0,
            uplink_gbps: 50.0,
            delay_ns: 1_000,
        }),
        1 => TopoSpec::ThreeTier(ThreeTierSpec {
            n_pod: 2,
            tors_per_pod: 2,
            hosts_per_tor: 2,
            aggs_per_pod: 1,
            spines_per_agg: 1,
            host_gbps: 25.0,
            agg_gbps: 50.0,
            spine_gbps: 50.0,
            delay_ns: 1_000,
        }),
        2 => TopoSpec::Rail(RailSpec {
            n_rail: 2,
            n_server: 4,
            n_spine: 1,
            host_gbps: 25.0,
            uplink_gbps: 50.0,
            delay_ns: 1_500,
        }),
        _ => TopoSpec::MixedRate(MixedRateSpec {
            n_tor: 2,
            hosts_per_tor: 4,
            n_leaf: 2,
            host_gbps: 25.0,
            fast_gbps: 50.0,
            slow_gbps: 25.0,
            delay_ns: 1_000,
        }),
    }
}

fn topo_label(spec: &TopoSpec) -> String {
    format!("{}/{}h", spec.family(), spec.n_hosts())
}

/// Build tenant `i` of an `n`-tenant fleet: heterogeneous along every
/// axis a tenant has (topology, scheme, monitor, λ_MI, engine
/// parallelism, workload load, faults).
fn tenant_spec(i: usize, ticks: u64, scale: Scale) -> TenantSpec {
    let mut spec = TenantSpec::new(topo_for(i));
    spec.seed = 0xF1EE7 + i as u64;
    spec.scheme = match i % 4 {
        1 => SchemeKind::Expert,
        2 => SchemeKind::Default,
        _ => scale.paraleon(),
    };
    spec.monitor = if i % 4 == 2 {
        MonitorKind::NaiveSketch
    } else {
        MonitorKind::Paraleon
    };
    if i % 5 == 4 {
        spec.loop_cfg.lambda_mi = 2 * MILLI;
    }
    if i % 8 == 3 {
        spec.engine_threads = 2;
    }
    if i % 8 == 5 {
        // One tenant per 8 suffers an impaired upload channel mid-run.
        let mut plan = FaultPlan::new(spec.seed);
        plan.push(FaultEvent {
            at: 5 * MILLI,
            node: 0,
            port: 0,
            kind: FaultKind::CtrlImpair {
                up: true,
                down: false,
                loss: 0.1,
                delay_max: 1,
                dup: 0.05,
            },
        });
        spec.fault_plan = Some(plan);
    }
    spec.schedule = poisson_flows(
        spec.topo.n_hosts(),
        25.0e9 / 8.0,
        FlowSizeDist::fb_hadoop(),
        [0.35, 0.55, 0.7, 0.45][i % 4],
        0..ticks * spec.loop_cfg.lambda_mi,
        spec.seed,
    );
    spec
}

#[derive(Serialize)]
struct TenantSummary {
    id: u32,
    topo: String,
    scheme: String,
    monitor: String,
    lambda_us: u64,
    intervals: usize,
    completions: usize,
    faulted: bool,
}

#[derive(Serialize)]
struct FleetRow {
    n_tenants: usize,
    ticks: u64,
    wall_ms: f64,
    mean_tick_us: f64,
    max_tick_us: f64,
    /// Phase A: the fan-out of every tenant's whole interval (fabric
    /// and controller turn).
    mean_phase_a_us: f64,
    /// Phase B: the coordinator's replay of the telemetry the tenants
    /// captured (next to nothing while the registry is off).
    mean_phase_b_us: f64,
    /// Worker threads of the threaded twin the next three are from.
    threads: usize,
    threaded_wall_ms: f64,
    threaded_mean_phase_a_us: f64,
    /// Σ busy / (workers × Σ phase A) on the twin: 1.0 is every worker
    /// running a tenant's interval for all of every fan-out.
    phase_a_efficiency: f64,
    controller_mem_bytes: usize,
    mem_per_tenant_bytes: usize,
    serial_threaded_identical: bool,
    standalone_identical: bool,
    snapshot_round_trip_ok: bool,
    tenants: Vec<TenantSummary>,
}

#[derive(Serialize)]
struct FleetReport {
    smoke: bool,
    checked: bool,
    scale: String,
    threads_checked: usize,
    threads_available: usize,
    rows: Vec<FleetRow>,
}

/// Wall-clock of one fleet's run, from its `TickReport`s (phases as in
/// [`FleetRow`]).
struct Timing {
    wall_ms: f64,
    /// Phase A + phase B of every tick.
    tick_us: Vec<f64>,
    phase_a_us: f64,
    phase_b_us: f64,
    /// Σ `busy` / Σ (`workers` × `phase_a`).
    phase_a_efficiency: f64,
}

fn run_timed(fleet: &mut FleetService, ticks: u64) -> Timing {
    let t0 = Instant::now();
    let mut tick_us = Vec::with_capacity(ticks as usize);
    let (mut phase_a_us, mut phase_b_us, mut busy_us, mut offered_us) = (0.0, 0.0, 0.0, 0.0);
    for _ in 0..ticks {
        let r = fleet.tick();
        let a = r.phase_a.as_secs_f64() * 1e6;
        let b = r.phase_b.as_secs_f64() * 1e6;
        phase_a_us += a;
        phase_b_us += b;
        tick_us.push(a + b);
        busy_us += r.busy.as_secs_f64() * 1e6;
        offered_us += r.workers as f64 * a;
    }
    Timing {
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        tick_us,
        phase_a_us,
        phase_b_us,
        phase_a_efficiency: busy_us / offered_us,
    }
}

fn build_fleet(specs: &[TenantSpec], threads: usize) -> FleetService {
    let mut fleet = FleetService::new(FleetConfig { threads });
    for s in specs {
        fleet.admit(s.clone());
    }
    fleet
}

/// Byte-identity between two fleets over everything the controller
/// owns: interval histories, tuned parameters and completions.
fn fleets_identical(a: &FleetService, b: &FleetService) -> bool {
    a.n_tenants() == b.n_tenants()
        && a.stats() == b.stats()
        && a.tenants().iter().zip(b.tenants()).all(|(x, y)| {
            x.id == y.id
                && x.cell.history == y.cell.history
                && x.cell.last_params == y.cell.last_params
                && x.completions == y.completions
        })
}

/// The three correctness gates against the measured serial `fleet`:
/// `(threaded == serial, every tenant == standalone, snapshot ok)`.
fn gates(
    fleet: &FleetService,
    threaded: &FleetService,
    specs: &[TenantSpec],
    ticks: u64,
) -> (bool, bool, bool) {
    let standalone = fleet.tenants().iter().zip(specs).all(|(t, spec)| {
        let cl = standalone_run(spec, ticks);
        t.cell.history == cl.cell.history
            && t.cell.last_params == cl.cell.last_params
            && t.completions == cl.completions
    });

    // Snapshot + restore mid-run changes nothing.
    let mut snapped = build_fleet(specs, 1);
    snapped.run(ticks / 2);
    let snap = snapped.snapshot().expect("always Some");
    snapped.restore(&snap).expect("same tenant set restores");
    snapped.run(ticks - ticks / 2);
    (
        fleets_identical(fleet, threaded),
        standalone,
        fleets_identical(fleet, &snapped),
    )
}

fn run_size(ctx: &Ctx, n: usize, ticks: u64, dump: bool) -> FleetRow {
    let specs: Vec<TenantSpec> = (0..n).map(|i| tenant_spec(i, ticks, ctx.scale)).collect();

    if dump {
        ctx.telemetry_begin();
    }
    let mut fleet = build_fleet(&specs, 1);
    let serial = run_timed(&mut fleet, ticks);
    if dump {
        ctx.telemetry_dump(&format!("n{n}"));
    }
    let mut threaded = build_fleet(&specs, twin_threads());
    let twin = run_timed(&mut threaded, ticks);

    let mem = fleet.controller_memory_bytes();
    let tenants = fleet
        .tenants()
        .iter()
        .zip(&specs)
        .map(|(t, spec)| TenantSummary {
            id: t.id,
            topo: topo_label(&t.spec().topo),
            scheme: t.cell.scheme_name().to_string(),
            monitor: t.cell.monitor_name().to_string(),
            lambda_us: t.lambda() / 1_000,
            intervals: t.cell.history.len(),
            completions: t.completions.len(),
            faulted: spec.fault_plan.is_some(),
        })
        .collect();
    let (serial_threaded_identical, standalone_identical, snapshot_round_trip_ok) =
        gates(&fleet, &threaded, &specs, ticks);
    let per_tick = ticks.max(1) as f64;
    FleetRow {
        n_tenants: n,
        ticks,
        wall_ms: serial.wall_ms,
        mean_tick_us: serial.tick_us.iter().sum::<f64>() / per_tick,
        max_tick_us: serial.tick_us.iter().cloned().fold(0.0, f64::max),
        mean_phase_a_us: serial.phase_a_us / per_tick,
        mean_phase_b_us: serial.phase_b_us / per_tick,
        threads: threaded.cfg.threads,
        threaded_wall_ms: twin.wall_ms,
        threaded_mean_phase_a_us: twin.phase_a_us / per_tick,
        phase_a_efficiency: twin.phase_a_efficiency,
        controller_mem_bytes: mem,
        mem_per_tenant_bytes: mem / n.max(1),
        serial_threaded_identical,
        standalone_identical,
        snapshot_round_trip_ok,
        tenants,
    }
}

pub(crate) fn run(ctx: &Ctx) {
    let (sizes, ticks): (&[usize], u64) = match ctx.scale {
        Scale::Smoke => (&[2, 8], 12),
        _ => (&[2, 4, 8, 16], 40),
    };
    // One size at a time on this thread, not a sweep: each row is a
    // wall-clock measurement a concurrent neighbour would perturb.
    let mut rows = Vec::new();
    for &n in sizes {
        println!("[fleet: {n} tenants, {ticks} ticks]");
        let row = run_size(ctx, n, ticks, Some(&n) == sizes.last());
        for (ok, gate) in [
            (row.serial_threaded_identical, "threaded != serial"),
            (row.standalone_identical, "a tenant != its standalone loop"),
            (
                row.snapshot_round_trip_ok,
                "snapshot round trip not identity",
            ),
        ] {
            ctx.gate(ok, format!("{n} tenants: {gate}"));
        }
        rows.push(row);
    }

    ctx.write(&FleetReport {
        smoke: ctx.scale == Scale::Smoke,
        checked: true, // the gates above ran; kept for the committed file's shape
        scale: ctx.scale.label().to_string(),
        threads_checked: twin_threads(),
        threads_available: sweep::effective_threads(usize::MAX),
        rows,
    });
}
