//! Criterion micro-benchmarks backing the Table IV overhead discussion:
//! the per-packet and per-interval costs of every PARALEON component.
//!
//! Run: `cargo bench -p paraleon-bench`

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use paraleon_dcqcn::{DcqcnParams, EcnMarker, ParamSpace, RpState};
use paraleon_netsim::event::{BinaryHeapQueue, Event, EventQueue};
use paraleon_netsim::{Engine, SimConfig, Topology, MILLI};
use paraleon_sketch::FlowType;
use paraleon_sketch::{
    ElasticSketch, FsdBuilder, SketchConfig, SlidingWindowClassifier, WindowConfig,
};
use paraleon_tuner::{SaConfig, SaTuner};

/// Data-plane cost: one Elastic Sketch insertion (per packet on a ToR).
fn bench_sketch_insert(c: &mut Criterion) {
    let mut g = c.benchmark_group("sketch");
    g.throughput(Throughput::Elements(1));
    let mut s = ElasticSketch::new(SketchConfig::default());
    let mut flow = 0u64;
    g.bench_function("insert", |b| {
        b.iter(|| {
            flow = flow.wrapping_add(0x9E37_79B9);
            s.insert(black_box(flow % 4096), black_box(1000));
        })
    });
    g.bench_function("query", |b| {
        b.iter(|| black_box(s.query(black_box(42))));
    });
    g.finish();
}

/// Control-plane cost: drain + sliding-window update for one interval.
fn bench_control_plane_interval(c: &mut Criterion) {
    let mut g = c.benchmark_group("control_plane");
    g.bench_function("drain_1k_flows", |b| {
        b.iter_batched(
            || {
                let mut s = ElasticSketch::new(SketchConfig::default());
                for f in 0..1000u64 {
                    s.insert(f, 10_000);
                }
                s
            },
            |mut s| black_box(s.drain()),
            criterion::BatchSize::SmallInput,
        )
    });
    g.bench_function("window_update_1k_flows", |b| {
        let mut cl = SlidingWindowClassifier::new(WindowConfig::default());
        let batch: Vec<(u64, u64)> = (0..1000u64).map(|f| (f, 50_000)).collect();
        b.iter(|| {
            cl.end_interval(batch.iter().copied());
            black_box(cl.tracked_flows());
        })
    });
    g.bench_function("local_fsd_1k_flows", |b| {
        let mut cl = SlidingWindowClassifier::new(WindowConfig::default());
        cl.end_interval((0..1000u64).map(|f| (f, 50_000)));
        b.iter(|| black_box(cl.local_fsd()))
    });
    g.finish();
}

/// Controller cost: KL divergence and one SA round.
fn bench_controller(c: &mut Criterion) {
    let mut g = c.benchmark_group("controller");
    let fsd_a = {
        let mut b = FsdBuilder::new();
        for i in 0..500u64 {
            b.add_flow(1000 * (i + 1), (i % 2) as f64);
        }
        b.build()
    };
    let fsd_b = {
        let mut b = FsdBuilder::new();
        for i in 0..500u64 {
            b.add_flow(2000 * (i + 1), ((i + 1) % 2) as f64);
        }
        b.build()
    };
    g.bench_function("kl_divergence", |b| {
        b.iter(|| black_box(fsd_a.kl_divergence(black_box(&fsd_b))))
    });
    g.bench_function("sa_step", |b| {
        let mut t = SaTuner::new(
            ParamSpace::standard(),
            SaConfig {
                total_iter_num: u32::MAX, // never cool during the bench
                ..SaConfig::paper_default()
            },
            DcqcnParams::nvidia_default(),
            1,
        );
        let mut u = 0.4;
        b.iter(|| {
            u = (u + 0.013) % 1.0;
            black_box(t.step(u, FlowType::Elephant, 0.8))
        })
    });
    g.finish();
}

/// RNIC cost: the DCQCN RP hot path (advance + send accounting).
fn bench_rp_hot_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("dcqcn_rp");
    g.throughput(Throughput::Elements(1));
    g.bench_function("on_send", |b| {
        let mut rp = RpState::new(12.5e9, DcqcnParams::nvidia_default(), 0);
        rp.on_cnp(0);
        let mut now = 0u64;
        b.iter(|| {
            now += 84; // 1048 B at 100 G
            rp.on_send(black_box(now), 1048);
            black_box(rp.rate());
        })
    });
    g.bench_function("ecn_mark_decision", |b| {
        let mut m = EcnMarker::from_params(&DcqcnParams::nvidia_default());
        let mut q = 0.0;
        b.iter(|| {
            q = (q + 4096.0) % 800_000.0;
            black_box(m.should_mark(black_box(q), 0.5));
        })
    });
    g.finish();
}

/// Scheduler cost: steady-state push+pop through the production calendar
/// queue vs. the reference binary heap, at small (1 k) and large (100 k)
/// pending-event populations. Each iteration pops the minimum and pushes
/// a replacement at an offset drawn from the mix the simulator schedules,
/// so the population stays constant — the regime the simulator's hot
/// loop runs in.
fn bench_event_queue(c: &mut Criterion) {
    /// Next-event offset, in the proportions counted on the 128-host
    /// FB_Hadoop probe (15.9 M pushes): 49 % one MTU's serialization at
    /// 100 G (`PortFree`, +84 ns — two thirds of them stay inside the
    /// 256 ns bucket being consumed, one third cross into the next), 5 %
    /// the same instant (`QpSend`), 45 % one hop's propagation plus
    /// serialization (+5.08 µs), and a few pacing rechecks (+50 µs) and
    /// retransmission timers (+1 ms). A uniform spread over 100 µs — what
    /// this bench drew before — never touches the active bucket, which
    /// is where 38 % of the simulator's pushes go. Every offset is a
    /// multiple of 4 ns, as link-clocked times are: at 1 k pending 40 %
    /// of pops share their timestamp with the previous pop (the probe:
    /// 44 %), at 100 k nearly all do.
    fn offset(now: u64, i: u64) -> u64 {
        match ((now ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % 10_000 {
            0..=4_899 => 84,
            4_900..=5_399 => 0,
            5_400..=9_939 => 5_080,
            9_940..=9_989 => 50_000,
            _ => 1_000_000,
        }
    }
    /// Pre-fill `$queue` with `$pending` events, then time the hold loop.
    macro_rules! hold {
        ($b:expr, $queue:ty, $pending:expr) => {{
            let mut q = <$queue>::new();
            for i in 0..$pending {
                q.push(4 * (i.wrapping_mul(313) % 25_000), i, Event::QpSend(i));
            }
            let mut i = $pending;
            $b.iter(|| {
                let (now, _, _) = q.pop().expect("steady state");
                i += 1;
                q.push(now + offset(now, i), i, Event::QpSend(i));
                black_box(now)
            })
        }};
    }
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(1));
    for pending in [1_000u64, 100_000] {
        g.bench_function(format!("calendar_push_pop_{pending}"), |b| {
            hold!(b, EventQueue, pending)
        });
        g.bench_function(format!("heap_push_pop_{pending}"), |b| {
            hold!(b, BinaryHeapQueue, pending)
        });
    }
    g.finish();
}

/// End-to-end simulator event rate (the substrate's own speed).
fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    g.bench_function("incast_1ms", |b| {
        b.iter_batched(
            || {
                let topo = Topology::two_tier_clos(2, 4, 2, 100.0, 100.0, 1_000);
                let mut sim = Engine::new(topo, SimConfig::default(), 1);
                for src in 1..8usize {
                    sim.add_flow(src, 0, 4 << 20, 0);
                }
                sim
            },
            |mut sim| {
                sim.run_until(MILLI);
                black_box(sim.events_processed())
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sketch_insert,
    bench_control_plane_interval,
    bench_controller,
    bench_rp_hot_path,
    bench_event_queue,
    bench_simulator
);
criterion_main!(benches);
