//! Monitoring deep-dive: why PARALEON's ternary flow states beat naive
//! per-interval classification at millisecond monitor intervals.
//!
//! ```sh
//! cargo run --release --example monitor_accuracy
//! ```
//!
//! A congested elephant trickles under the τ = 1 MB threshold every
//! interval. Naive Elastic Sketch calls it a mouse forever; PARALEON's
//! sliding window promotes it to Potential Elephant and then Elephant,
//! exactly like the paper's Figure 4 walkthrough. The example replays
//! that trace, then measures both schemes' FSD accuracy on a realistic
//! mixed workload through the full simulator.

use paraleon::prelude::*;
use paraleon_monitor::{FsdMonitor, NaiveSketchMonitor, ParaleonMonitor};
use paraleon_sketch::SlidingWindowClassifier;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn figure4_walkthrough() {
    println!("--- Figure 4 walkthrough (tau = 1 MB, delta = 3) ---");
    let mut c = SlidingWindowClassifier::new(WindowConfig::default());
    let f2_step = (0.15 * (1 << 20) as f64) as u64;
    let f3_step = (1 << 20) / 10;
    for mi in 1..=8u32 {
        let mut batch: Vec<(u64, u64)> = Vec::new();
        if mi == 1 {
            batch.push((1, 2 << 20)); // f1: instant elephant
        }
        if mi <= 7 {
            batch.push((2, f2_step)); // f2: 0.15 MB per interval
            batch.push((3, f3_step)); // f3: 0.10 MB per interval, dies at MI8
        }
        c.end_interval(batch);
        println!(
            "MI{mi}: f1={:?} f2={:?} f3={:?}",
            c.state(1),
            c.state(2),
            c.state(3)
        );
    }
}

fn simulated_accuracy(kind: MonitorKind) -> f64 {
    let topo = Topology::two_tier_clos(2, 4, 2, 100.0, 100.0, 1_000);
    let sim_cfg = SimConfig {
        track_ground_truth: true,
        ..SimConfig::default()
    };
    let mut cl = ClosedLoop::builder(topo)
        .scheme(SchemeKind::Expert)
        .monitor(kind)
        .sim_config(sim_cfg)
        .build();
    // Mixed traffic: 4 cross-fabric elephants + steady mice.
    let wl = PoissonWorkload::new(
        PoissonConfig {
            hosts: 8,
            host_bw_bytes_per_sec: 12.5e9,
            load: 0.1,
            start: 0,
            end: 30 * MILLI,
        },
        FlowSizeDist::solar_rpc(),
    );
    let mut rng = StdRng::seed_from_u64(5);
    let mut flows = wl.generate(&mut rng);
    for i in 0..4usize {
        flows.push(FlowRequest {
            src: i,
            dst: 4 + i,
            bytes: 40 << 20,
            start: 0,
        });
    }
    flows.sort_by_key(|f| f.start);
    drivers::run_schedule(&mut cl, &flows, 30 * MILLI);
    let acc: Vec<f64> = cl
        .cell
        .history
        .iter()
        .filter_map(|r| r.fsd_accuracy)
        .collect();
    stats::mean(&acc)
}

fn main() {
    figure4_walkthrough();

    println!("\n--- direct monitor comparison on one switch feed ---");
    let mut naive = NaiveSketchMonitor::default();
    let mut para = ParaleonMonitor::default();
    // An elephant throttled to 0.3 MB per interval.
    for mi in 0..6 {
        let readings = vec![(0usize, vec![(42u64, 300 * 1024u64)])];
        let n = naive.on_interval(&readings, mi).unwrap();
        let p = para.on_interval(&readings, mi).unwrap();
        println!(
            "MI{}: naive elephant share = {:.2}, PARALEON elephant share = {:.2}",
            mi + 1,
            n.elephant_share(),
            p.elephant_share()
        );
    }

    println!("\n--- end-to-end FSD accuracy through the simulator ---");
    for kind in [MonitorKind::NaiveSketch, MonitorKind::Paraleon] {
        let name = kind.name();
        let acc = simulated_accuracy(kind);
        println!("{name:<14} mean FSD accuracy = {acc:.3}");
    }
}
