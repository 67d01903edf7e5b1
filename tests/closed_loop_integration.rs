//! Cross-crate integration tests: the full PARALEON closed loop over the
//! packet simulator, exercising monitor + trigger + tuner + dispatch
//! together (the paper's Figure 1 pipeline).

use paraleon::prelude::*;

fn small_clos() -> Topology {
    Topology::two_tier_clos(2, 4, 2, 100.0, 100.0, 1_000)
}

#[test]
fn paraleon_full_pipeline_reacts_to_workload_shift() {
    let mut cl = ClosedLoop::builder(small_clos())
        .scheme(SchemeKind::Paraleon)
        .monitor(MonitorKind::Paraleon)
        .seed(3)
        .build();
    // Elephant phase: sustained cross-ToR elephants.
    for i in 0..4usize {
        cl.sim.add_flow(i, 4 + i, 16 << 20, 0);
    }
    for _ in 0..8 {
        cl.step();
    }
    // Mice influx.
    for burst in 0..6u64 {
        let now = cl.sim.now();
        for k in 0..60usize {
            cl.sim
                .add_flow(k % 8, (k + 5) % 8, 4_096, now + burst + k as u64);
        }
        cl.step();
    }
    for _ in 0..6 {
        cl.step();
    }
    assert!(
        cl.cell.history.iter().any(|r| r.triggered),
        "the KL detector must fire on the elephant→mice shift"
    );
    assert!(
        cl.cell.history.iter().filter(|r| r.dispatched).count() >= 2,
        "a trigger must start an SA episode with dispatches"
    );
    // The deployed parameters must have moved off the default.
    assert_ne!(cl.cell.last_params, DcqcnParams::nvidia_default());
}

#[test]
fn all_schemes_survive_the_same_scenario() {
    for scheme in [
        SchemeKind::Default,
        SchemeKind::Expert,
        SchemeKind::DcqcnPlus,
        SchemeKind::Acc,
        SchemeKind::Paraleon,
        SchemeKind::ParaleonNaiveSa,
    ] {
        let name = scheme.name();
        let mut cl = ClosedLoop::builder(small_clos())
            .scheme(scheme)
            .loop_config(LoopConfig {
                force_tuning: true,
                ..LoopConfig::default()
            })
            .build();
        for i in 0..6usize {
            cl.sim.add_flow(i % 8, (i + 3) % 8, 1 << 20, 0);
        }
        assert!(cl.run_to_completion(2 * SEC), "{name}: flows must complete");
        assert_eq!(cl.completions.len(), 6, "{name}");
        assert_eq!(cl.sim.total_drops(), 0, "{name}: lossless invariant");
    }
}

#[test]
fn monitoring_schemes_feed_the_same_loop() {
    for monitor in [
        MonitorKind::Paraleon,
        MonitorKind::NaiveSketch,
        MonitorKind::NetFlow,
        MonitorKind::NoFsd,
    ] {
        let name = monitor.name();
        let mut cl = ClosedLoop::builder(small_clos())
            .scheme(SchemeKind::Expert)
            .monitor(monitor)
            .build();
        cl.sim.add_flow(0, 5, 4 << 20, 0);
        cl.run_to_completion(SEC);
        assert_eq!(cl.completions.len(), 1, "{name}");
    }
}

#[test]
fn fsd_accuracy_ranks_paraleon_above_naive() {
    // End-to-end Figure 10/11 mechanism: same traffic, same tuner; the
    // windowed monitor must measure the FSD at least as accurately as the
    // naive per-interval one.
    let accuracy = |monitor: MonitorKind| {
        let sim_cfg = SimConfig {
            track_ground_truth: true,
            ..SimConfig::default()
        };
        let mut cl = ClosedLoop::builder(small_clos())
            .scheme(SchemeKind::Expert)
            .monitor(monitor)
            .sim_config(sim_cfg)
            .build();
        // Elephants throttled by competition: the naive classifier's
        // failure mode.
        for i in 0..4usize {
            cl.sim.add_flow(i, 4, 8 << 20, 0); // incast onto host 4
        }
        for _ in 0..25 {
            cl.step();
        }
        let acc: Vec<f64> = cl
            .cell
            .history
            .iter()
            .filter_map(|r| r.fsd_accuracy)
            .collect();
        stats::mean(&acc)
    };
    let naive = accuracy(MonitorKind::NaiveSketch);
    let para = accuracy(MonitorKind::Paraleon);
    assert!(
        para > naive,
        "PARALEON accuracy {para:.3} must beat naive {naive:.3}"
    );
    assert!(
        para > 0.9,
        "windowed accuracy should be near-perfect: {para:.3}"
    );
}

#[test]
fn dcqcn_plus_reduces_cnp_load_under_incast() {
    let run = |plus: bool| {
        let cfg = SimConfig {
            dcqcn_plus: plus,
            ..SimConfig::default()
        };
        let mut cl = ClosedLoop::builder(small_clos())
            .scheme(if plus {
                SchemeKind::DcqcnPlus
            } else {
                SchemeKind::Default
            })
            .sim_config(cfg)
            .build();
        for src in 1..8usize {
            cl.sim.add_flow(src, 0, 2 << 20, 0);
        }
        for _ in 0..10 {
            cl.step();
        }
        cl.cell.history.iter().map(|r| r.cnps).sum::<u64>()
    };
    let base = run(false);
    let plus = run(true);
    assert!(
        plus < base,
        "DCQCN+ incast scaling must reduce CNPs: {plus} vs {base}"
    );
}

#[test]
fn deterministic_end_to_end_replay() {
    let run = || {
        let mut cl = ClosedLoop::builder(small_clos())
            .scheme(SchemeKind::Paraleon)
            .loop_config(LoopConfig {
                force_tuning: true,
                ..LoopConfig::default()
            })
            .seed(99)
            .build();
        for i in 0..8usize {
            cl.sim
                .add_flow(i % 8, (i + 1) % 8, 500_000 + i as u64 * 1000, 0);
        }
        for _ in 0..20 {
            cl.step();
        }
        (
            cl.cell.last_params,
            cl.completions.len(),
            cl.cell.history.iter().map(|r| r.cnps).sum::<u64>(),
        )
    };
    assert_eq!(run(), run(), "full pipeline must replay deterministically");
}

#[test]
fn utility_improves_over_a_forced_episode_on_stable_traffic() {
    // With stable elephant traffic and a forced tuning episode, the best
    // deployed setting should end at least as good as the starting one.
    let mut cl = ClosedLoop::builder(small_clos())
        .scheme(SchemeKind::Paraleon)
        .loop_config(LoopConfig {
            force_tuning: true,
            weights: UtilityWeights::throughput_sensitive(),
            ..LoopConfig::default()
        })
        .build();
    // Continuous elephant supply.
    let mut next_flow_at = 0u64;
    for step in 0..60 {
        if cl.sim.now() >= next_flow_at {
            for i in 0..4usize {
                cl.sim.add_flow(i, 4 + i, 4 << 20, cl.sim.now());
            }
            next_flow_at = cl.sim.now() + 2 * MILLI;
        }
        cl.step();
        let _ = step;
    }
    let first5: Vec<f64> = cl.cell.history[1..6].iter().map(|r| r.utility).collect();
    let last5: Vec<f64> = cl.cell.history[cl.cell.history.len() - 5..]
        .iter()
        .map(|r| r.utility)
        .collect();
    assert!(
        stats::mean(&last5) >= stats::mean(&first5) - 0.1,
        "tuning should not end in a materially worse state: {:.3} -> {:.3}",
        stats::mean(&first5),
        stats::mean(&last5)
    );
}

#[test]
fn ledger_matches_paper_scale_of_transfers() {
    let mut cl = ClosedLoop::builder(small_clos())
        .scheme(SchemeKind::Paraleon)
        .loop_config(LoopConfig {
            force_tuning: true,
            ..LoopConfig::default()
        })
        .build();
    cl.sim.add_flow(0, 5, 4 << 20, 0);
    for _ in 0..10 {
        cl.step();
    }
    let (sw, rnic, disp) = cl.cell.ledger.per_interval();
    // Hundreds of bytes per interval, as Table IV reports — never MBs.
    assert!(sw > 0.0 && sw < 10_000.0, "switch upload {sw}");
    assert!(rnic > 0.0 && rnic < 10_000.0, "rnic upload {rnic}");
    assert!(disp < 10_000.0, "dispatch {disp}");
}
