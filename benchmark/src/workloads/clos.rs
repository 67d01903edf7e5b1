//! The three 128-host workloads: `clos128_hadoop`, its two-shard variant
//! `clos128_hadoop_par2`, and `clos128_alltoall`.
//!
//! The job loops are `drivers::run_schedule` / `drivers::run_collective`
//! written out, with `ClosedLoop::step` unrolled into its five public
//! calls so a span can sit around each. Every run compares them against
//! the library's own drivers (see [`hadoop_reference`],
//! [`alltoall_reference`]).

use std::collections::HashSet;
use std::time::Instant;

use paraleon::prelude::*;
use paraleon::Nanos;
use paraleon_netsim::IntervalMetrics;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{summarise_cells, threads_available, timed_setups, JobLog, RepOutput};
use crate::fingerprint::Fingerprint;
use crate::spec;
use crate::stats;
use crate::trace::Tracer;

pub const HOSTS: usize = 128;
const HOSTS_PER_TOR: usize = 16;
/// 100 Gbit/s access links, bytes per second.
pub const HOST_BW: f64 = 12.5e9;

/// The paper's NS3 fabric: 8 ToRs × 16 hosts, 4 leaves, 100G, 5 µs.
pub fn paper_fabric() -> Topology {
    Topology::two_tier_clos(8, HOSTS_PER_TOR, 4, 100.0, 100.0, 5_000)
}

/// FB_Hadoop Poisson arrivals at load 0.3 for `load_ms` — the only place
/// `--seed` enters the hadoop workloads.
pub fn hadoop_flows(seed: u64, load_ms: u64) -> Vec<FlowRequest> {
    let wl = PoissonWorkload::new(
        PoissonConfig {
            hosts: HOSTS,
            host_bw_bytes_per_sec: HOST_BW,
            load: 0.3,
            start: 0,
            end: load_ms * MILLI,
        },
        FlowSizeDist::fb_hadoop(),
    );
    wl.generate(&mut StdRng::seed_from_u64(seed))
}

fn paraleon_loop(threads: usize) -> ClosedLoop {
    ClosedLoop::builder(paper_fabric())
        .scheme(SchemeKind::Paraleon)
        .parallel(threads)
        .build()
}

pub struct HadoopEpisode {
    pub cl: ClosedLoop,
    pub flows: Vec<FlowRequest>,
    pub horizon: Nanos,
}

/// Both hadoop workloads run the same input; `par2` shards the fabric.
pub fn hadoop_setup(seed: u64, par2: bool) -> HadoopEpisode {
    HadoopEpisode {
        flows: hadoop_flows(seed, spec::HADOOP_LOAD_MS),
        cl: paraleon_loop(if par2 { spec::PAR2_THREADS } else { 1 }),
        horizon: spec::HADOOP_HORIZON_MS * MILLI,
    }
}

/// Exact counts the job loop keeps: sums over the interval metrics it
/// collected, and the engine's event count as each job closed.
#[derive(Default)]
pub struct Counts {
    pub ecn_marks: u64,
    pub drops: u64,
    pub admitted: u64,
    events_after_job: Vec<u64>,
}

impl Counts {
    /// The engine's event count when the `p`-th job closed.
    pub fn events_after(&self, p: usize) -> u64 {
        self.events_after_job
            .get(p.wrapping_sub(1))
            .copied()
            .unwrap_or(0)
    }

    fn close_job(&mut self, cl: &ClosedLoop, metrics: &IntervalMetrics) {
        self.ecn_marks += metrics.ecn_marks;
        self.drops += metrics.drops;
        self.events_after_job.push(cl.sim.events_processed());
    }
}

/// `ClosedLoop::step`, written out call by call.
pub fn step_unrolled(cl: &mut ClosedLoop, tr: &mut Tracer, job: u64) -> IntervalMetrics {
    let k = cl.cell.interval_index();
    let s = tr.begin("core.deliver_dispatches", job);
    cl.cell.deliver_due_dispatches(&mut cl.sim, k);
    tr.end(s);
    let target = cl.sim.now() + cl.cell.cfg.lambda_mi;
    let s = tr.begin("netsim.run_until", job);
    cl.sim.run_until(target);
    tr.end(s);
    let s = tr.begin("netsim.collect_interval", job);
    let metrics = cl.sim.collect_interval();
    tr.end(s);
    let s = tr.begin("netsim.take_completions", job);
    cl.completions.extend(cl.sim.take_completions());
    tr.end(s);
    let s = tr.begin("core.process_interval", job);
    cl.cell.process_interval(&mut cl.sim, &metrics);
    tr.end(s);
    metrics
}

fn last_utility(cl: &ClosedLoop) -> f64 {
    cl.cell.history.last().map_or(f64::NAN, |r| r.utility)
}

/// `drivers::run_schedule`, written out. `keep` is handed each
/// interval's metrics after its job closed (outside the job's time).
pub fn run_schedule_unrolled(
    ep: &mut HadoopEpisode,
    tr: &mut Tracer,
    log: &mut JobLog,
    counts: &mut Counts,
    mut keep: impl FnMut(IntervalMetrics),
) {
    let cl = &mut ep.cl;
    let lambda = cl.cell.cfg.lambda_mi;
    let mut idx = 0;
    let mut job = 0u64;
    while cl.sim.now() < ep.horizon {
        log.begin();
        let j = tr.begin("job", job);
        let s = tr.begin("netsim.add_flow", job);
        let admit_until = cl.sim.now() + 2 * lambda;
        while idx < ep.flows.len() && ep.flows[idx].start <= admit_until {
            let f = ep.flows[idx];
            if f.start >= cl.sim.now() {
                cl.sim.add_flow(f.src, f.dst, f.bytes, f.start);
                counts.admitted += 1;
            }
            idx += 1;
        }
        tr.end(s);
        let metrics = step_unrolled(cl, tr, job);
        tr.end(j);
        log.end(last_utility(cl));
        counts.close_job(cl, &metrics);
        keep(metrics);
        job += 1;
    }
}

/// Everything a finished loop produced: event count, every interval
/// record, every completion, the deployed parameters.
pub fn loop_fingerprint(cl: &ClosedLoop) -> Fingerprint {
    let mut fp = Fingerprint::default();
    fp.add(&cl.sim.events_processed());
    fp.add(&cl.cell.history);
    fp.add(&cl.completions);
    fp.add(&cl.cell.last_params);
    fp
}

/// The same over the first `p` intervals only: `events` is the event
/// count when interval `p` closed.
pub fn prefix_fingerprint(cl: &ClosedLoop, p: usize, events: u64) -> Fingerprint {
    let p = p.min(cl.cell.history.len());
    let mut fp = Fingerprint::default();
    fp.add(&events);
    fp.add(&cl.cell.history[..p]);
    if let Some(last) = cl.cell.history[..p].last() {
        let done: Vec<&FlowRecord> = cl
            .completions
            .iter()
            .filter(|r| r.finish <= last.t)
            .collect();
        fp.add(&done);
    }
    fp
}

/// Simulated statistics and exact counts of a finished loop. `host_bw`
/// is the access-link rate the ideal FCT is taken at.
pub fn summarise_loop(cl: &mut ClosedLoop, host_bw: f64, out: &mut RepOutput) {
    summarise_cells(&[&cl.cell], out);
    let h = &cl.cell.history;
    let mean_goodput = h.iter().map(|r| r.goodput).sum::<f64>() / h.len().max(1) as f64;
    let bytes = mean_goodput * h.len() as f64 * cl.cell.cfg.lambda_mi as f64 / 1e9;
    out.num("sim_goodput_gbps", mean_goodput * 8.0 / 1e9);
    out.num("netsim.events", cl.sim.events_processed() as f64);
    out.num("work_units", cl.sim.events_processed() as f64);
    out.num("netsim.cnps", h.iter().map(|r| r.cnps).sum::<u64>() as f64);
    out.num(
        "netsim.pfc_events",
        h.iter().map(|r| r.pfc_events).sum::<u64>() as f64,
    );
    out.num(
        "netsim.data_pkts_est",
        (bytes / f64::from(cl.sim.config().mtu_payload)).round(),
    );
    out.num("netsim.completions", cl.completions.len() as f64);
    let slow: Vec<f64> = cl
        .completions
        .iter()
        .map(|r| r.slowdown(host_bw, cl.sim.base_rtt(r.src, r.dst)))
        .collect();
    let (pct, tail) = stats::tail(&slow).unwrap_or((0.0, 0.0));
    out.num("netsim.fct_slowdown_tail", tail);
    out.num("netsim.fct_slowdown_tail_pct", pct);
}

fn finish_rep(out: &mut RepOutput, log: &mut JobLog, counts: &Counts) {
    out.attempted = log.job_ms.len() as u64;
    out.failed = log.failed;
    out.num("jobs_per_rep", out.attempted as f64);
    log.export(out);
    out.num("netsim.ecn_marks", counts.ecn_marks as f64);
    out.num("netsim.drops", counts.drops as f64);
    out.num("admitted_flows", counts.admitted as f64);
    out.check("netsim_drops_zero", counts.drops == 0);
}

/// One repetition of `clos128_hadoop` (or `_par2`).
pub fn hadoop_rep(seed: u64, par2: bool, setups: usize, tr: &mut Tracer, out: &mut RepOutput) {
    let mut ep = timed_setups(setups, out, || hadoop_setup(seed, par2));
    let mut log = JobLog::new();
    let mut counts = Counts::default();
    run_schedule_unrolled(&mut ep, tr, &mut log, &mut counts, drop);
    finish_rep(out, &mut log, &counts);
    summarise_loop(&mut ep.cl, HOST_BW, out);
    out.fingerprint = loop_fingerprint(&ep.cl).hex();
    out.reference_fingerprint = if par2 {
        // Compared against a *serial* library run of the whole input.
        out.fingerprint.clone()
    } else {
        let p = spec::REFERENCE_PREFIX_INTERVALS;
        prefix_fingerprint(&ep.cl, p, counts.events_after(p)).hex()
    };
    let shards = if par2 {
        paper_fabric().partition(spec::PAR2_THREADS).len()
    } else {
        1
    };
    out.num("netsim.par_shards", shards as f64);
    out.num("threads_effective", shards.min(threads_available()) as f64);
    out.check("flows_generated", !ep.flows.is_empty());
    out.check(
        "all_intervals_ran",
        ep.cl.cell.history.len() as u64 * ep.cl.cell.cfg.lambda_mi == ep.horizon,
    );
}

/// What the library's own `run_schedule` produces for the same input:
/// `(fingerprint to compare with the repetition's reference_fingerprint,
/// wall seconds of the library run)`. Serial always — for `_par2` that
/// makes it the serial-equivalence check too, over the whole input.
pub fn hadoop_reference(seed: u64, par2: bool) -> (String, f64) {
    let flows = hadoop_flows(seed, spec::HADOOP_LOAD_MS);
    let mut cl = paraleon_loop(1);
    let t = Instant::now();
    if par2 {
        drivers::run_schedule(&mut cl, &flows, spec::HADOOP_HORIZON_MS * MILLI);
        let wall = t.elapsed().as_secs_f64();
        (loop_fingerprint(&cl).hex(), wall)
    } else {
        let p = spec::REFERENCE_PREFIX_INTERVALS;
        drivers::run_schedule(&mut cl, &flows, p as u64 * MILLI);
        let wall = t.elapsed().as_secs_f64();
        (
            prefix_fingerprint(&cl, p, cl.sim.events_processed()).hex(),
            wall,
        )
    }
}

/// `perf_probe`'s standard probe (20 ms of load run to 25 ms, seed 5)
/// through the library driver: `(events, completions, flows)`. At the
/// commit this benchmark was defined on it reads 57 288 867 events and
/// 6191 of 6330 flows complete.
pub fn perf_probe_pin() -> (u64, usize, usize) {
    let flows = hadoop_flows(5, 20);
    let mut cl = paraleon_loop(1);
    drivers::run_schedule(&mut cl, &flows, 25 * MILLI);
    (cl.sim.events_processed(), cl.completions.len(), flows.len())
}

// ---- clos128_alltoall ------------------------------------------------

/// 32 workers, four per ToR; which four is the seed's choice, so the
/// per-ToR load shape is the same for every seed.
pub fn alltoall_workers(seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut workers = Vec::new();
    for tor in 0..HOSTS / HOSTS_PER_TOR {
        let mut slots: Vec<usize> = (0..HOSTS_PER_TOR).collect();
        // Partial Fisher–Yates: the first four slots are the pick.
        for i in 0..spec::A2A_WORKERS_PER_TOR {
            let j = rng.gen_range(i..HOSTS_PER_TOR);
            slots.swap(i, j);
        }
        let mut picked: Vec<usize> = slots[..spec::A2A_WORKERS_PER_TOR].to_vec();
        picked.sort_unstable();
        workers.extend(picked.into_iter().map(|s| tor * HOSTS_PER_TOR + s));
    }
    workers
}

pub fn alltoall_collective(seed: u64) -> AllToAll {
    AllToAll::new(AllToAllConfig {
        workers: alltoall_workers(seed),
        message_bytes: spec::A2A_MESSAGE_BYTES,
        off_time: spec::A2A_OFF_NS,
        rounds: Some(spec::A2A_ROUNDS),
    })
}

fn admit_wave(
    cl: &mut ClosedLoop,
    flows: &[FlowRequest],
    ids: &mut HashSet<u64>,
    counts: &mut Counts,
) {
    for f in flows {
        let qp = drivers::qp_id(f.src, f.dst);
        let now = cl.sim.now();
        ids.insert(cl.sim.add_flow_on_qp(f.src, f.dst, f.bytes, now, qp));
        counts.admitted += 1;
    }
}

/// `drivers::run_collective`, written out.
fn run_collective_unrolled(
    cl: &mut ClosedLoop,
    coll: &mut AllToAll,
    until: Nanos,
    tr: &mut Tracer,
    log: &mut JobLog,
    counts: &mut Counts,
) -> usize {
    let mut records = 0;
    let mut next_round: Option<Nanos> = Some(cl.sim.now());
    let mut seen = cl.completions.len();
    let mut ids = HashSet::new();
    let mut job = 0u64;
    while cl.sim.now() < until && !Collective::finished(coll) {
        log.begin();
        let j = tr.begin("job", job);
        let s = tr.begin("netsim.add_flow", job);
        if next_round.is_some_and(|t| cl.sim.now() >= t) {
            let flows =
                Collective::start_round(coll, cl.sim.now()).expect("the collective is idle");
            admit_wave(cl, &flows, &mut ids, counts);
            next_round = None;
        }
        tr.end(s);
        let metrics = step_unrolled(cl, tr, job);
        let s = tr.begin("workloads.barrier", job);
        let new = cl.completions[seen..].to_vec();
        seen = cl.completions.len();
        for r in new {
            if !ids.remove(&r.flow) {
                continue;
            }
            records += 1;
            match Collective::on_flow_done(coll, r.finish).expect("completion of an admitted flow")
            {
                Progress::Pending => {}
                Progress::NextWave(flows) => admit_wave(cl, &flows, &mut ids, counts),
                Progress::RoundDone { next_round: nr } => {
                    if nr.is_some() {
                        next_round = nr;
                    }
                }
            }
        }
        tr.end(s);
        tr.end(j);
        log.end(last_utility(cl));
        counts.close_job(cl, &metrics);
        job += 1;
    }
    records
}

/// One repetition of `clos128_alltoall`.
pub fn alltoall_rep(seed: u64, setups: usize, tr: &mut Tracer, out: &mut RepOutput) {
    let (mut cl, mut a2a) = timed_setups(setups, out, || {
        (paraleon_loop(1), alltoall_collective(seed))
    });
    let mut log = JobLog::new();
    let mut counts = Counts::default();
    let until = spec::A2A_DEADLINE_MS * MILLI;
    let records = run_collective_unrolled(&mut cl, &mut a2a, until, tr, &mut log, &mut counts);
    finish_rep(out, &mut log, &counts);
    summarise_loop(&mut cl, HOST_BW, out);
    out.fingerprint = loop_fingerprint(&cl).hex();
    let p = spec::REFERENCE_PREFIX_INTERVALS;
    out.reference_fingerprint = prefix_fingerprint(&cl, p, counts.events_after(p)).hex();
    out.num("netsim.par_shards", 1.0);
    out.num("threads_effective", 1.0);
    let n = a2a.config().workers.len();
    out.check("all_rounds_complete", a2a.finished());
    out.check(
        "all_collective_flows_complete",
        records == n * (n - 1) * spec::A2A_ROUNDS as usize,
    );
}

/// The library's `run_collective` over the reference prefix.
pub fn alltoall_reference(seed: u64) -> (String, f64) {
    let mut cl = paraleon_loop(1);
    let mut a2a = alltoall_collective(seed);
    let p = spec::REFERENCE_PREFIX_INTERVALS;
    let t = Instant::now();
    drivers::run_collective(&mut cl, &mut a2a, 0, p as u64 * MILLI);
    let wall = t.elapsed().as_secs_f64();
    (
        prefix_fingerprint(&cl, p, cl.sim.events_processed()).hex(),
        wall,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alltoall_workers_are_four_per_tor_and_seeded() {
        let a = alltoall_workers(5);
        assert_eq!(a.len(), 32);
        for tor in 0..8 {
            assert_eq!(a.iter().filter(|h| *h / HOSTS_PER_TOR == tor).count(), 4);
        }
        assert_eq!(a, alltoall_workers(5));
        assert_ne!(a, alltoall_workers(6));
    }

    #[test]
    fn hadoop_flows_are_seeded_and_sorted() {
        let a = hadoop_flows(5, 1);
        assert_eq!(a, hadoop_flows(5, 1));
        assert_ne!(a, hadoop_flows(6, 1));
        assert!(a.windows(2).all(|w| w[0].start <= w[1].start));
    }
}
