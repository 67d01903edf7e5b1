//! Integration tests of the workload generators driving the simulator
//! through the shared drivers.

use paraleon::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn clos32() -> Topology {
    Topology::two_tier_clos(4, 8, 2, 100.0, 100.0, 5_000)
}

#[test]
fn fb_hadoop_schedule_runs_end_to_end() {
    let wl = PoissonWorkload::new(
        PoissonConfig {
            hosts: 32,
            host_bw_bytes_per_sec: 12.5e9,
            load: 0.2,
            start: 0,
            end: 10 * MILLI,
        },
        FlowSizeDist::fb_hadoop(),
    );
    let mut rng = StdRng::seed_from_u64(1);
    let flows = wl.generate(&mut rng);
    assert!(!flows.is_empty());
    let mut cl = ClosedLoop::builder(clos32())
        .scheme(SchemeKind::Expert)
        .build();
    let admitted = drivers::run_schedule(&mut cl, &flows, 10 * MILLI);
    assert_eq!(admitted, flows.len());
    assert!(cl.run_to_completion(5 * SEC), "all FB_Hadoop flows finish");
    assert_eq!(cl.completions.len(), flows.len());
    // Heavy-tail sanity: byte-weighted mean far exceeds count-weighted
    // median in the completed set.
    let mut sizes: Vec<f64> = cl.completions.iter().map(|r| r.bytes as f64).collect();
    let median = stats::percentile(&mut sizes, 50.0);
    let mean = stats::mean(&sizes);
    assert!(mean > 3.0 * median, "mean {mean} vs median {median}");
}

#[test]
fn alltoall_rounds_are_synchronized_and_gapped() {
    let mut cl = ClosedLoop::builder(clos32())
        .scheme(SchemeKind::Expert)
        .build();
    let off = 4 * MILLI;
    let mut a2a = Collective::new(CollectiveSpec {
        kind: CollectiveKind::Alltoall,
        workers: (0..8).map(|i| i * 4).collect(),
        message_bytes: 256 * 1024,
        microbatches: 1,
        rounds: Some(3),
        off_time: off,
    });
    let records = drivers::run_collective(&mut cl, &mut a2a, 0, 10 * SEC);
    assert!(a2a.finished());
    assert_eq!(records.len(), 3 * 8 * 7);
    assert_eq!(a2a.round_durations().len(), 3);
    // Verify the OFF gap: the earliest start of round k+1 is at least
    // off_time after the last finish of round k.
    let mut finishes: Vec<u64> = records.iter().map(|r| r.finish).collect();
    finishes.sort_unstable();
    let mut starts: Vec<u64> = records.iter().map(|r| r.start).collect();
    starts.sort_unstable();
    // 56 flows per round: round boundaries in the sorted start list.
    let round2_start = starts[56];
    let round1_end = finishes[55];
    assert!(
        round2_start >= round1_end + off,
        "round 2 must wait for the OFF period: {round2_start} vs {round1_end}"
    );
}

#[test]
fn solar_rpc_flows_are_all_mice_and_fast() {
    let wl = PoissonWorkload::new(
        PoissonConfig {
            hosts: 32,
            host_bw_bytes_per_sec: 12.5e9,
            load: 0.05,
            start: 0,
            end: 5 * MILLI,
        },
        FlowSizeDist::solar_rpc(),
    );
    let mut rng = StdRng::seed_from_u64(2);
    let flows = wl.generate(&mut rng);
    let mut cl = ClosedLoop::builder(clos32())
        .scheme(SchemeKind::Default)
        .build();
    drivers::run_schedule(&mut cl, &flows, 5 * MILLI);
    cl.run_to_completion(SEC);
    assert_eq!(cl.completions.len(), flows.len());
    for r in &cl.completions {
        assert!(r.bytes <= 131_072, "SolarRPC is mice-only");
        assert!(
            r.fct() < 5 * MILLI,
            "an RPC on a lightly loaded fabric must finish in ms: {}",
            r.fct()
        );
    }
}

#[test]
fn mixed_workloads_share_the_fabric() {
    // Elephants + RPC mice concurrently; both classes must complete and
    // the mice must not starve (tail far below the elephants' FCT).
    let mut cl = ClosedLoop::builder(clos32())
        .scheme(SchemeKind::Expert)
        .build();
    for i in 0..4usize {
        cl.sim.add_flow(i, 16 + i, 16 << 20, 0);
    }
    let wl = PoissonWorkload::new(
        PoissonConfig {
            hosts: 32,
            host_bw_bytes_per_sec: 12.5e9,
            load: 0.05,
            start: 0,
            end: 5 * MILLI,
        },
        FlowSizeDist::solar_rpc(),
    );
    let mut rng = StdRng::seed_from_u64(4);
    let mice = wl.generate(&mut rng);
    drivers::run_schedule(&mut cl, &mice, 5 * MILLI);
    assert!(cl.run_to_completion(10 * SEC));
    let elephant_max_fct = cl
        .completions
        .iter()
        .filter(|r| r.bytes >= 16 << 20)
        .map(|r| r.fct())
        .max()
        .unwrap();
    let mut mice_fcts: Vec<f64> = cl
        .completions
        .iter()
        .filter(|r| r.bytes <= 131_072)
        .map(|r| r.fct() as f64)
        .collect();
    assert!(!mice_fcts.is_empty());
    let mice_p99 = stats::percentile(&mut mice_fcts, 99.0);
    assert!(
        mice_p99 < elephant_max_fct as f64 / 2.0,
        "mice p99 {mice_p99} should be far below elephant FCT {elephant_max_fct}"
    );
}
