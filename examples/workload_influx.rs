//! Workload-influx scenario (the paper's §IV-B2): an LLM alltoall runs
//! as background traffic and an FB_Hadoop burst "influxes" mid-run.
//!
//! ```sh
//! cargo run --release --example workload_influx
//! ```
//!
//! Watch the µ column: during the influx the dominant flow type flips
//! from elephants to mice, the KL trigger fires, and PARALEON retunes
//! toward delay-friendly parameters; when the mice finish, elephants
//! re-dominate and it retunes back toward throughput.

use paraleon::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let topo = Topology::two_tier_clos(4, 8, 2, 100.0, 100.0, 5_000);
    let mut cl = ClosedLoop::builder(topo)
        .scheme(SchemeKind::Paraleon)
        .seed(11)
        .build();

    // Background collective: 8 workers, continuous rounds.
    let mut a2a = Collective::new(CollectiveSpec {
        kind: CollectiveKind::Alltoall,
        workers: (0..8).map(|i| i * 4).collect(),
        message_bytes: 1 << 20,
        microbatches: 1,
        rounds: None,
        off_time: MILLI,
    });

    // Influx: 15 ms of FB_Hadoop at 50% load, arriving at t = 20 ms.
    let wl = PoissonWorkload::new(
        PoissonConfig {
            hosts: 32,
            host_bw_bytes_per_sec: 12.5e9,
            load: 0.5,
            start: 20 * MILLI,
            end: 35 * MILLI,
        },
        FlowSizeDist::fb_hadoop(),
    );
    let mut rng = StdRng::seed_from_u64(3);
    let influx = wl.generate(&mut rng);
    println!(
        "background: 8-worker alltoall; influx: {} FB_Hadoop flows in 20-35 ms\n",
        influx.len()
    );

    let mut stepper = drivers::Stepper::new(&influx).collective(&mut a2a, 0);
    while cl.sim.now() < 60 * MILLI {
        let r = stepper.step(&mut cl);
        if (r.t / MILLI).is_multiple_of(2) {
            println!(
                "t={:>4}ms  TP={:>6.1}Gbps  RTT={:>7.1}us  mu={:.2} {:?}{}",
                r.t / MILLI,
                r.goodput * 8.0 / 1e9,
                r.avg_rtt_ns / 1e3,
                r.mu,
                r.dominant,
                if r.triggered { "  <-- KL trigger" } else { "" }
            );
        }
    }
    let triggers = cl.cell.history.iter().filter(|r| r.triggered).count();
    println!(
        "\n{} KL triggers across the run; {} flows completed; final Kmax = {:.0} KB",
        triggers,
        cl.completions.len(),
        cl.cell.last_params.k_max
    );
}
