//! `fleet8_mixed`: one `FleetService` over eight small heterogeneous
//! fabrics (`exp_fleet`'s rotation); the job is one `FleetService::tick`.

use std::time::Instant;

use paraleon::prelude::*;
use paraleon_fleet::{standalone_run, FleetConfig, FleetService, Tenant, TenantSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{summarise_cells, threads_available, timed_setups, JobLog, RepOutput};
use crate::fingerprint::Fingerprint;
use crate::spec;
use crate::stats;
use crate::trace::Tracer;

const HOSTS: usize = 8;
/// 25 Gbit/s access links, bytes per second.
const HOST_BW: f64 = 25.0e9 / 8.0;
/// Tenants the runner re-runs through `standalone_run`: a clean PARALEON
/// tenant and the control-plane-impaired one.
pub const SAMPLED_TENANTS: [usize; 2] = [0, 5];

/// The four 8-host topology families tenants rotate over.
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

/// Tenant `i`: topology × scheme × monitor × λ_MI × initial parameters ×
/// load, one tenant with an impaired upload channel. Every fabric runs
/// on the serial engine — the fleet's own workers are the only threads.
pub fn tenant_spec(i: usize, seed: u64) -> TenantSpec {
    let mut spec = TenantSpec::new(topo_for(i));
    spec.seed = seed.wrapping_mul(1_000).wrapping_add(i as u64);
    // The reduced-scale SA schedule exp_fleet uses on 8-host fabrics.
    let paraleon = SchemeKind::ParaleonSa(
        SaConfig {
            total_iter_num: 4,
            cooling_rate: 0.6,
            ..SaConfig::paper_default()
        },
        3,
    );
    spec.scheme = match i % 4 {
        1 => SchemeKind::Expert,
        2 => SchemeKind::Default,
        _ => paraleon,
    };
    if i % 4 == 2 {
        spec.monitor = MonitorKind::NaiveSketch;
    }
    if i % 5 == 4 {
        spec.loop_cfg.lambda_mi = 2 * MILLI;
    }
    if i % 2 == 1 {
        spec.sim_cfg.dcqcn = DcqcnParams::expert();
    }
    if i % 8 == 5 {
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
    spec.schedule = PoissonWorkload::new(
        PoissonConfig {
            hosts: HOSTS,
            host_bw_bytes_per_sec: HOST_BW,
            load: [0.35, 0.55, 0.7, 0.45][i % 4],
            start: 0,
            end: spec::FLEET_TICKS * spec.loop_cfg.lambda_mi,
        },
        FlowSizeDist::fb_hadoop(),
    )
    .generate(&mut StdRng::seed_from_u64(spec.seed));
    spec
}

fn fleet_threads() -> usize {
    threads_available().min(2)
}

fn setup(seed: u64) -> FleetService {
    let mut fleet = FleetService::new(FleetConfig {
        threads: fleet_threads(),
        ..FleetConfig::default()
    });
    for i in 0..spec::FLEET_TENANTS {
        fleet.admit(tenant_spec(i, seed));
    }
    fleet
}

fn tenant_fingerprint(
    fp: &mut Fingerprint,
    events: u64,
    cl_history: &[IntervalRecord],
    params: &DcqcnParams,
    done: &[FlowRecord],
) {
    fp.add(&events);
    fp.add(cl_history);
    fp.add(params);
    fp.add(done);
}

fn add_tenant(fp: &mut Fingerprint, t: &Tenant) {
    tenant_fingerprint(
        fp,
        t.sim.events_processed(),
        &t.cell.history,
        &t.cell.last_params,
        &t.completions,
    );
}

/// One repetition of `fleet8_mixed`.
pub fn rep(seed: u64, setups: usize, tr: &mut Tracer, out: &mut RepOutput) {
    let mut fleet = timed_setups(setups, out, || setup(seed));
    let mut log = JobLog::new();
    let mut phase_a_ms = Vec::new();
    let mut phase_b_us = Vec::new();
    for tick in 0..spec::FLEET_TICKS {
        log.begin();
        let j = tr.begin("job", tick);
        let start = tr.clock_ns();
        let r = fleet.tick();
        // The service times its own phases; place them inside the tick.
        let a = r.phase_a.as_nanos() as u64;
        tr.record("fleet.phase_a", tick, start, a);
        tr.record(
            "fleet.phase_b",
            tick,
            start + a,
            r.phase_b.as_nanos() as u64,
        );
        tr.end(j);
        log.end(0.0);
        phase_a_ms.push(r.phase_a.as_secs_f64() * 1e3);
        phase_b_us.push(r.phase_b.as_secs_f64() * 1e6);
    }
    // A job is a tick; throughput counts the tenant-intervals it advanced.
    out.attempted = spec::FLEET_TICKS;
    log.export(out);
    out.num(
        "jobs_per_rep",
        (spec::FLEET_TICKS * spec::FLEET_TENANTS as u64) as f64,
    );
    out.sample("fleet.phase_a_ms", phase_a_ms);
    out.sample("fleet.phase_b_us", phase_b_us);

    let tenants = fleet.tenants();
    let records = || tenants.iter().flat_map(|t| t.cell.history.iter());
    let bad = records()
        .filter(|r| !(r.utility.is_finite() && (0.0..=1.0).contains(&r.utility)))
        .count();
    out.failed = (bad as u64).min(out.attempted);
    summarise_cells(&tenants.iter().map(|t| &t.cell).collect::<Vec<_>>(), out);
    // Fleet goodput: the tenants' mean goodputs, summed.
    let mean_goodput = |t: &Tenant| {
        t.cell.history.iter().map(|r| r.goodput).sum::<f64>() / t.cell.history.len().max(1) as f64
    };
    out.num(
        "sim_goodput_gbps",
        tenants.iter().map(mean_goodput).sum::<f64>() * 8.0 / 1e9,
    );
    let bytes: f64 = tenants
        .iter()
        .map(|t| t.cell.history.iter().map(|r| r.goodput).sum::<f64>() * t.lambda() as f64 / 1e9)
        .sum();
    out.num("netsim.data_pkts_est", (bytes / 1000.0).round());
    let events: u64 = tenants.iter().map(|t| t.sim.events_processed()).sum();
    out.num("netsim.events", events as f64);
    out.num("work_units", events as f64);
    out.num("netsim.cnps", records().map(|r| r.cnps).sum::<u64>() as f64);
    out.num(
        "netsim.pfc_events",
        records().map(|r| r.pfc_events).sum::<u64>() as f64,
    );
    let drops: u64 = tenants.iter().map(|t| t.sim.total_drops()).sum();
    out.num("netsim.drops", drops as f64);
    out.num(
        "netsim.completions",
        tenants.iter().map(|t| t.completions.len()).sum::<usize>() as f64,
    );
    out.num("netsim.par_shards", 1.0);
    out.num("threads_effective", fleet_threads() as f64);

    let mut all = Fingerprint::default();
    tenants.iter().for_each(|t| add_tenant(&mut all, t));
    out.fingerprint = all.hex();
    let mut sampled = Fingerprint::default();
    SAMPLED_TENANTS
        .iter()
        .for_each(|i| add_tenant(&mut sampled, &tenants[*i]));
    out.reference_fingerprint = sampled.hex();

    let s = fleet.stats();
    out.num("fleet.upload_drops", s.upload_drops as f64);
    out.num("fleet.starved_turns", s.starved_turns as f64);
    out.num(
        "fleet.ctrl_mem_bytes_per_tenant",
        (fleet.controller_memory_bytes() / spec::FLEET_TENANTS) as f64,
    );
    out.check("netsim_drops_zero", drops == 0);
    out.check("no_upload_shed", s.upload_drops == 0);
    out.check("controller_kept_up", s.backlog == 0);

    // FCT slowdown needs `&mut` engines (route lookups are cached).
    let ids: Vec<_> = fleet.tenants().iter().map(|t| t.id).collect();
    let mut slow = Vec::new();
    for id in ids {
        let t = fleet.tenant_mut(id).expect("live tenant");
        let done = t.completions.clone();
        slow.extend(
            done.iter()
                .map(|r| r.slowdown(HOST_BW, t.sim.base_rtt(r.src, r.dst))),
        );
    }
    let (pct, tail) = stats::tail(&slow).unwrap_or((0.0, 0.0));
    out.num("netsim.fct_slowdown_tail", tail);
    out.num("netsim.fct_slowdown_tail_pct", pct);

    if tr.enabled() {
        // After the measured ticks: the checkpoint round trip.
        let t = Instant::now();
        let snap = fleet.snapshot();
        out.num("fleet.snapshot_ms", t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let restored = snap.as_ref().map(|s| fleet.restore(s).is_ok());
        out.num("fleet.restore_ms", t.elapsed().as_secs_f64() * 1e3);
        out.check("snapshot_round_trip", restored == Some(true));
    }
}

/// The sampled tenants run through `standalone_run` (`ClosedLoop::step`,
/// no fleet code path): `(fingerprint, wall seconds)`.
pub fn reference(seed: u64) -> (String, f64) {
    let t = Instant::now();
    let mut fp = Fingerprint::default();
    for i in SAMPLED_TENANTS {
        let cl = standalone_run(&tenant_spec(i, seed), spec::FLEET_TICKS);
        tenant_fingerprint(
            &mut fp,
            cl.sim.events_processed(),
            &cl.cell.history,
            &cl.cell.last_params,
            &cl.completions,
        );
    }
    (fp.hex(), t.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_covers_every_axis() {
        let specs: Vec<TenantSpec> = (0..spec::FLEET_TENANTS)
            .map(|i| tenant_spec(i, 5))
            .collect();
        assert!(specs.iter().all(|s| s.engine_threads == 1));
        assert_eq!(specs.iter().filter(|s| s.fault_plan.is_some()).count(), 1);
        assert!(specs[SAMPLED_TENANTS[1]].fault_plan.is_some());
        assert!(specs.iter().any(|s| s.loop_cfg.lambda_mi == 2 * MILLI));
        assert!(specs.iter().all(|s| !s.schedule.is_empty()));
        assert_ne!(tenant_spec(0, 5).schedule, tenant_spec(0, 6).schedule);
    }
}
