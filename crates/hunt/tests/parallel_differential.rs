//! Differential gate for the conservative parallel engine: over genomes
//! the search can actually reach — including active fault plans and
//! mid-run control-plane crashes — a sharded run at 2 and 4 threads
//! (and, with every source under one ToR so that the other workers live
//! off stolen shards, at 2, 3 and 4) must be **byte-identical** to the
//! serial reference. "Identical" is
//! checked at three layers:
//!
//! * interval metrics and flow completions (exact, down to every f64
//!   bit — [`IntervalMetrics`]'s `PartialEq` is bitwise);
//! * the telemetry flight-recorder tail (the parallel engine captures
//!   emissions on worker threads and replays them in serial order; any
//!   reordering or loss shows up here);
//! * audit violation counts (zero or not, what a shard's run leaves in
//!   a worker's thread-local registry is folded back into the
//!   coordinator's).
//!
//! The property runs keep telemetry on throughout; one fixed-point test
//! flips the registry between intervals (and leaves it off) to pin the
//! engine's per-run capture gating against the serial engine.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use paraleon::{ClosedLoop, IntervalRecord, LoopConfig, MonitorKind, SchemeKind};
use paraleon_hunt::{mutate, seed_point, HuntPoint, ALL_ORACLES};
use paraleon_netsim::{Engine, FlowRecord, IntervalMetrics, Nanos, SimConfig, MILLI};
use paraleon_telemetry as tel;

/// Intervals per differential run — enough for fault plans and SA
/// dispatches to engage while keeping each proptest case subsecond.
const INTERVALS: u64 = 5;
/// Flight-recorder events compared (newest `N`; the ring itself is
/// bounded, so the tail is the part both runs are guaranteed to retain).
const FLIGHT_TAIL: usize = 256;

/// Mutation horizon of the generated points (ns): the run's own length,
/// as the search passes it, so flow starts and fault times land inside
/// the intervals the differential compares.
const HORIZON: Nanos = INTERVALS * MILLI;

/// Deterministically generate a point the way the search would: seed it,
/// then walk `steps` mutations cycling through the oracle palettes.
fn generated_point(seed: u64, steps: usize, kind_idx: usize) -> HuntPoint {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = seed_point(HORIZON, &mut rng);
    for i in 0..steps {
        let kind = ALL_ORACLES[(kind_idx + i) % ALL_ORACLES.len()];
        p = mutate(&p, kind, HORIZON, &mut rng);
    }
    p
}

/// The generated points act inside the compared intervals: every fault
/// and most flow starts land before the run ends.
#[test]
fn generated_points_act_inside_the_run() {
    let end = INTERVALS * MILLI;
    let (mut inside, mut flows) = (0usize, 0usize);
    for seed in 0..64u64 {
        let p = generated_point(seed, (seed % 8) as usize, (seed % 5) as usize);
        assert!(p.faults.events().iter().all(|e| e.at < end), "seed {seed}");
        let starts = p.expand_flows().into_iter().map(|f| f.3);
        for start in starts {
            flows += 1;
            inside += usize::from(start < end);
        }
    }
    assert!(
        4 * inside >= 3 * flows,
        "{inside} of {flows} flows start in the run"
    );
}

/// Everything one engine run leaves behind that the parallel engine
/// promises to reproduce exactly.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    metrics: Vec<IntervalMetrics>,
    completions: Vec<FlowRecord>,
    events_processed: u64,
    flight_tail: Vec<tel::TimedEvent>,
    audit_violations: u64,
}

/// Run `point` on the engine with `threads` workers and collect the
/// comparison fingerprint; `skewed` moves every flow's source under host
/// 0's ToR. Telemetry and the audit registry are thread-local; resetting
/// them here keeps back-to-back runs isolated.
fn run_sim(point: &HuntPoint, threads: usize, skewed: bool) -> Fingerprint {
    tel::set_enabled(true);
    tel::reset();
    paraleon_audit::reset();
    let cfg = SimConfig {
        dcqcn: point.params,
        track_ground_truth: true,
        seed: point.seed,
        ..SimConfig::default()
    };
    let topo = point.topo.build();
    let tor_of = |h: usize| topo.ports(h)[0].peer;
    let rack: Vec<usize> = (0..topo.n_hosts())
        .filter(|&h| tor_of(h) == tor_of(0))
        .collect();
    let mut sim = Engine::new(topo, cfg, threads);
    for (src, dst, bytes, start) in point.expand_flows() {
        let src = if skewed { rack[src % rack.len()] } else { src };
        if src != dst {
            sim.try_add_flow(src, dst, bytes, start)
                .expect("reachable genomes only emit valid flows");
        }
    }
    sim.install_fault_plan(&point.faults)
        .expect("reachable genomes only emit valid fault plans");
    let mut metrics = Vec::new();
    for i in 0..INTERVALS {
        sim.run_until((i + 1) * MILLI);
        metrics.push(sim.collect_interval());
    }
    let flight = tel::flight_events();
    let tail_start = flight.len().saturating_sub(FLIGHT_TAIL);
    Fingerprint {
        metrics,
        completions: sim.take_completions(),
        events_processed: sim.events_processed(),
        flight_tail: flight[tail_start..].to_vec(),
        audit_violations: paraleon_audit::violation_count(),
    }
}

/// What a closed-loop run leaves behind: the interval records the tuner
/// saw, plus everything [`Fingerprint`] covers, plus the control-plane
/// accounting and the parameters the fabric ended on.
#[derive(Debug, PartialEq)]
struct LoopFingerprint {
    history: Vec<IntervalRecord>,
    completions: Vec<FlowRecord>,
    events_processed: u64,
    flight_tail: Vec<tel::TimedEvent>,
    audit_violations: u64,
    final_params: String,
    /// `(sent, lost, retries, crashes)` across both channel directions.
    ctrl: (u64, u64, u64, u64),
}

/// Run `point` through the *full closed loop* — monitor, tuner and the
/// hardened control plane — with a cold controller crash mid-run, and
/// fingerprint everything the loop observed.
fn run_loop(point: &HuntPoint, threads: usize) -> LoopFingerprint {
    tel::set_enabled(true);
    tel::reset();
    paraleon_audit::reset();
    let mut cl = ClosedLoop::builder(point.topo.build())
        .scheme(SchemeKind::Paraleon)
        .monitor(MonitorKind::Paraleon)
        .parallel(threads)
        .sim_config(SimConfig {
            dcqcn: point.params,
            seed: point.seed,
            ..SimConfig::default()
        })
        .loop_config(LoopConfig {
            lambda_mi: MILLI,
            force_tuning: true,
            ..LoopConfig::default()
        })
        .seed(point.seed)
        .build();
    for (src, dst, bytes, start) in point.expand_flows() {
        cl.sim
            .try_add_flow(src, dst, bytes, start)
            .expect("reachable genomes only emit valid flows");
    }
    // The genome's own faults plus a cold crash while dispatches are in
    // flight and a warm one near the end — the recovery paths must be as
    // deterministic under sharding as steady state.
    let mut faults = point.faults.clone();
    faults.ctrl_crash(2 * MILLI + 513, false);
    faults.ctrl_crash(4 * MILLI + 257, true);
    cl.install_fault_plan(&faults)
        .expect("reachable genomes only emit valid fault plans");
    for _ in 0..INTERVALS {
        cl.step();
    }
    let flight = tel::flight_events();
    let tail_start = flight.len().saturating_sub(FLIGHT_TAIL);
    let stats = cl.cell.ctrl().stats();
    LoopFingerprint {
        history: cl.cell.history.clone(),
        completions: cl.completions.clone(),
        events_processed: cl.sim.events_processed(),
        flight_tail: flight[tail_start..].to_vec(),
        audit_violations: paraleon_audit::violation_count(),
        final_params: format!("{:?}", cl.sim.dcqcn_params()),
        ctrl: (
            stats.up.sent + stats.down.sent,
            stats.up.lost + stats.down.lost,
            stats.retries,
            stats.crashes,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Raw engine differential: serial vs 2- and 4-way sharded runs of
    /// the same reachable genome, fault plan installed and firing.
    #[test]
    fn parallel_engine_is_byte_identical_to_serial(
        seed in 0u64..1 << 32,
        steps in 0usize..8,
        kind_idx in 0usize..5,
    ) {
        let p = generated_point(seed, steps, kind_idx);
        let serial = run_sim(&p, 1, false);
        for threads in [2usize, 4] {
            let par = run_sim(&p, threads, false);
            prop_assert_eq!(
                &par, &serial,
                "{} threads diverged from serial on seed {} steps {} kind {}",
                threads, seed, steps, kind_idx
            );
        }
    }
}

/// Skewed-load differential: every flow of a reachable genome sourced
/// under one ToR, so one shard does nearly all the sending and the
/// workers whose home lists lack it steal every epoch — three shards (a
/// genome has at most three ToRs) on 2 workers and on 3, which is more
/// than a CI box has cores, so the barrier parks; fault plan firing.
#[test]
fn skewed_load_is_byte_identical_under_stealing() {
    let point = generated_point(29, 4, 2);
    assert_eq!(point.topo.build().partition(16).len(), 3);
    assert!(!point.faults.is_empty());
    let serial = run_sim(&point, 1, true);
    assert!(!serial.completions.is_empty() && !serial.flight_tail.is_empty());
    assert_ne!(serial, run_sim(&point, 1, false), "the skew must bite");
    for threads in [2usize, 3, 4] {
        let par = run_sim(&point, threads, true);
        assert_eq!(par, serial, "{threads} threads diverged from serial");
    }
}

/// Collective-workload differential: a barrier-synchronized ring
/// allreduce driven through the closed loop over a *rail-optimized*
/// fabric (striped host incidence — the layout most sensitive to shard
/// partitioning) must be byte-identical serial vs 2- and 4-way sharded.
/// Wave admission depends on the completion-record stream, so any
/// engine-level reordering would cascade into different wave timings —
/// this gate catches it at the first diverged record.
#[test]
fn collective_over_rail_topology_is_byte_identical() {
    use paraleon::drivers::run_collective;
    use paraleon_netsim::RailSpec;
    use paraleon_workloads::{Collective, CollectiveKind, CollectiveSpec};
    let spec = RailSpec {
        n_rail: 4,
        n_server: 2,
        n_spine: 2,
        host_gbps: 100.0,
        uplink_gbps: 100.0,
        delay_ns: 1_000,
    };
    let run = |threads: usize| {
        tel::set_enabled(true);
        tel::reset();
        paraleon_audit::reset();
        let mut cl = ClosedLoop::builder(spec.build())
            .scheme(SchemeKind::Paraleon)
            .monitor(MonitorKind::Paraleon)
            .parallel(threads)
            .loop_config(LoopConfig {
                lambda_mi: MILLI,
                force_tuning: true,
                ..LoopConfig::default()
            })
            .seed(7)
            .build();
        let mut ring = Collective::new(CollectiveSpec {
            kind: CollectiveKind::RingAllreduce,
            workers: (0..8).collect(),
            message_bytes: 250_000,
            microbatches: 1,
            rounds: Some(2),
            off_time: MILLI,
        });
        let recs = run_collective(&mut cl, &mut ring, 0, 100 * MILLI);
        assert!(ring.finished(), "2 rounds must finish within 100 ms");
        let flight = tel::flight_events();
        let tail_start = flight.len().saturating_sub(FLIGHT_TAIL);
        (
            recs,
            cl.cell.history.clone(),
            cl.sim.events_processed(),
            flight[tail_start..].to_vec(),
            paraleon_audit::violation_count(),
        )
    };
    let serial = run(1);
    for threads in [2usize, 4] {
        let par = run(threads);
        assert_eq!(
            par, serial,
            "{threads} threads diverged from serial on the collective workload"
        );
    }
}

/// The engine samples the coordinator's registry once per `run_until`
/// and its workers capture only when the replay would record. Flipping
/// the registry between intervals must therefore leave exactly what the
/// serial engine leaves under the same flips: every counter, the whole
/// series log and the whole flight stream — and the tuner must not
/// notice (same history with telemetry partly, fully or never on).
#[test]
fn telemetry_toggled_between_intervals_matches_serial() {
    let point = generated_point(0xC0FFEE, 4, 1);
    assert!(
        point.topo.build().partition(4).len() > 1,
        "the point's fabric must actually shard"
    );
    let run = |threads: usize, flips: [bool; INTERVALS as usize]| {
        tel::reset();
        let mut cl = ClosedLoop::builder(point.topo.build())
            .scheme(SchemeKind::Paraleon)
            .parallel(threads)
            .sim_config(SimConfig {
                dcqcn: point.params,
                seed: point.seed,
                ..SimConfig::default()
            })
            .loop_config(LoopConfig {
                lambda_mi: MILLI,
                force_tuning: true,
                ..LoopConfig::default()
            })
            .seed(point.seed)
            .build();
        for (src, dst, bytes, start) in point.expand_flows() {
            cl.sim
                .try_add_flow(src, dst, bytes, start)
                .expect("reachable genomes only emit valid flows");
        }
        for on in flips {
            tel::set_enabled(on);
            cl.step();
        }
        tel::set_enabled(false);
        (
            cl.cell.history.clone(),
            tel::counters_snapshot(),
            tel::series_points(),
            tel::flight_events(),
        )
    };
    let mixed = [true, false, true, true, false];
    let serial = run(1, mixed);
    assert!(
        !serial.2.is_empty() && !serial.3.is_empty(),
        "the point must emit series and flight events while the registry is on"
    );
    let serial_off = run(1, [false; INTERVALS as usize]);
    assert_eq!(serial_off.0, serial.0, "telemetry changed the serial run");
    for threads in [2usize, 4] {
        assert_eq!(run(threads, mixed), serial, "{threads} threads, mixed");
        let off = run(threads, [false; INTERVALS as usize]);
        assert_eq!(off, serial_off, "{threads} threads, registry off");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Closed-loop differential: the whole PARALEON loop — monitor,
    /// tuner, hardened control plane with mid-run controller crashes —
    /// on the sharded engine reproduces the serial run exactly, down to
    /// the channel's send/loss/retry/crash accounting.
    #[test]
    fn closed_loop_on_parallel_engine_matches_serial(
        seed in 0u64..1 << 32,
        kind_idx in 0usize..5,
    ) {
        let p = generated_point(seed, 4, kind_idx);
        let serial = run_loop(&p, 1);
        for threads in [2usize, 4] {
            let par = run_loop(&p, threads);
            prop_assert_eq!(
                &par, &serial,
                "{} threads diverged from serial on seed {} kind {}",
                threads, seed, kind_idx
            );
        }
    }
}
