//! The controller's interval loop, replayed from a recorded tape the
//! way the `ctrl_replay` benchmark workload drives it: a short Poisson
//! run's interval metrics, cycled through the four controller cell
//! kinds of that workload (plus one on an impaired control channel)
//! against idle engines.
//!
//! * **Decisions pinned** — per cell, a hash of everything the loop
//!   decided (history, deployed parameters, channel and merger
//!   counters) over two tape cycles. A performance change to the
//!   monitor, merger, channel or cell must leave every hash alone; the
//!   impaired cell guards the channel's RNG draw order (loss, delay,
//!   duplicate, duplicate delay).
//! * **Allocation budget** — a counting global allocator measures the
//!   heap allocations of one steady-state controller interval
//!   (`deliver_due_dispatches` + `process_interval`), averaged over the
//!   four cell kinds after a warm-up cycle, and of a warm
//!   `SlidingWindowClassifier::end_interval`. The ceilings may only go
//!   down.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

use paraleon::prelude::*;
use paraleon_netsim::IntervalMetrics;
use paraleon_sketch::SlidingWindowClassifier;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts the allocations (and growing reallocations) of the calling
/// thread, so tests running in parallel do not see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Heap allocations per steady-state controller interval, averaged over
/// the four cell kinds. Lower it when a change removes allocations.
const INTERVAL_ALLOCS_CEILING: f64 = 2.0;

/// Each tape cycle presents fresh flows: ids move up by this much.
const CYCLE_FLOW_STRIDE: u64 = 1 << 40;
/// Intervals on the tape (the benchmark's nine: one more than the KL
/// trigger window, so the detector never sees the same window twice).
const TAPE_INTERVALS: u64 = 9;

/// Eight ToRs and four leaves like the paper fabric, with four hosts per
/// ToR instead of sixteen so the recording stays cheap in a debug build.
fn fabric() -> Topology {
    Topology::two_tier_clos(8, 4, 4, 100.0, 100.0, 5_000)
}

/// The interval metrics of a FB_Hadoop Poisson run at load 0.3 under a
/// PARALEON loop, recorded once per test binary.
fn tape() -> &'static [IntervalMetrics] {
    static TAPE: OnceLock<Vec<IntervalMetrics>> = OnceLock::new();
    TAPE.get_or_init(record_tape)
}

fn record_tape() -> Vec<IntervalMetrics> {
    let topo = fabric();
    let hosts = topo.n_hosts();
    let flows = PoissonWorkload::new(
        PoissonConfig {
            hosts,
            host_bw_bytes_per_sec: 100e9 / 8.0,
            load: 0.3,
            start: 0,
            end: (TAPE_INTERVALS - 2) * MILLI,
        },
        FlowSizeDist::fb_hadoop(),
    )
    .generate(&mut StdRng::seed_from_u64(5));
    let mut cl = ClosedLoop::builder(topo)
        .scheme(SchemeKind::Paraleon)
        .build();
    let (mut next, mut done) = (0, Vec::new());
    (0..TAPE_INTERVALS)
        .map(|_| {
            drivers::admit_due(&mut cl.sim, &flows, &mut next, cl.cell.cfg.lambda_mi);
            let m = cl.cell.advance_fabric(&mut cl.sim, &mut done);
            cl.cell.process_interval(&cl.sim, &m);
            m
        })
        .collect()
}

/// Cell kind `i % 4` of the benchmark's controller rotation: PARALEON,
/// Expert + guardrail, Default over the naive sketch, PARALEON +
/// guardrail on the hardened control plane; tuning forced on the first
/// interval so the SA, the guardrail's screening and the dispatch path
/// all run.
fn cell(i: usize) -> ClosedLoop {
    let mut b = ClosedLoop::builder(fabric())
        .scheme(match i % 4 {
            1 => SchemeKind::Expert,
            2 => SchemeKind::Default,
            _ => SchemeKind::Paraleon,
        })
        .monitor(if i % 4 == 2 {
            MonitorKind::NaiveSketch
        } else {
            MonitorKind::Paraleon
        })
        .loop_config(LoopConfig {
            force_tuning: true,
            ..LoopConfig::default()
        })
        .seed(5_000 + i as u64);
    if i % 2 == 1 {
        b = b.guardrail(GuardrailConfig::default());
    }
    if i % 4 == 3 {
        b = b.ctrl_plane(CtrlPlaneConfig::default());
    }
    b.build()
}

/// Cell kind 3 with both control-channel lanes lossy, delaying and
/// duplicating from the first interval on.
fn impaired_cell() -> ClosedLoop {
    let mut cl = cell(3);
    let mut plan = FaultPlan::new(7);
    plan.ctrl_impair(0, true, true, 0.2, 3, 0.3);
    cl.install_fault_plan(&plan)
        .expect("control-plane events only");
    cl
}

/// Replay `cycles` cycles of `tape` through `cells`, interleaved the way
/// the benchmark interleaves them; `measure(cycle, allocs)` gets each
/// interval's allocation count.
fn replay(
    tape: &[IntervalMetrics],
    cells: &mut [ClosedLoop],
    cycles: u64,
    mut measure: impl FnMut(u64, u64),
) {
    let lambda = MILLI;
    let mut tape = tape.to_vec();
    let len = tape.len() as u64;
    for cycle in 0..cycles {
        for (j, m) in tape.iter_mut().enumerate() {
            let g = cycle * len + j as u64;
            m.start = g * lambda;
            m.end = (g + 1) * lambda;
            if cycle > 0 {
                for (_, flows) in &mut m.tor_sketches {
                    for (flow, _) in flows {
                        *flow += CYCLE_FLOW_STRIDE;
                    }
                }
            }
            for cl in cells.iter_mut() {
                let before = allocs();
                let k = cl.cell.interval_index();
                cl.cell.deliver_due_dispatches(&mut cl.sim, k);
                cl.cell.process_interval(&cl.sim, m);
                measure(cycle, allocs() - before);
            }
        }
    }
}

/// FNV-1a over the cell's decisions and counters, formatted with
/// `Debug` (which prints every `f64` exactly).
fn decision_hash(cl: &ClosedLoop) -> u64 {
    let c = &cl.cell;
    let merger = &c.ctrl().state.merger;
    let text = format!(
        "{:?}|{:?}|{:?}|{:?}",
        c.history,
        c.last_params,
        c.ctrl().stats(),
        (
            merger.accepted,
            merger.rejected,
            merger.aged_out,
            merger.restarts
        ),
    );
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn every_cell_kind_decides_what_it_always_decided() {
    let tape = tape();
    assert_eq!(tape.len() as u64, TAPE_INTERVALS);
    let mut cells: Vec<ClosedLoop> = (0..4).map(cell).collect();
    cells.push(impaired_cell());
    replay(tape, &mut cells, 2, |_, _| {});
    let impaired = cells[4].cell.ctrl().stats();
    assert!(
        impaired.up.lost > 0 && impaired.up.duplicated > 0 && impaired.down.sent > 0,
        "the impaired lanes drew loss and duplication: {impaired:?}"
    );
    let got: Vec<u64> = cells.iter().map(decision_hash).collect();
    let want: [u64; 5] = [
        0xa767_9aa6_432e_c23f,
        0x0647_6a09_c502_a0a0,
        0x3256_31ac_3604_87b5,
        0xc412_661f_c741_85a8,
        0x93bd_06ca_6b8b_a159,
    ];
    assert_eq!(got, want, "{got:#x?}");
}

#[test]
fn a_steady_state_interval_stays_within_the_allocation_budget() {
    const CYCLES: u64 = 8;
    let tape = tape();
    let mut cells: Vec<ClosedLoop> = (0..4).map(cell).collect();
    let (mut total, mut intervals) = (0u64, 0u64);
    replay(tape, &mut cells, CYCLES, |cycle, n| {
        if cycle > 0 {
            total += n;
            intervals += 1;
        }
    });
    let mean = total as f64 / intervals as f64;
    eprintln!("{mean:.2} allocations per interval over {intervals} intervals");
    assert!(
        mean <= INTERVAL_ALLOCS_CEILING,
        "{mean:.2} allocations per interval (ceiling {INTERVAL_ALLOCS_CEILING})"
    );
}

#[test]
fn a_warm_classifier_closes_an_interval_without_allocating() {
    // The busiest ToR's readings, cycled like the replay: each cycle
    // presents fresh flows while the previous cycle's expire.
    let tape = tape();
    let busiest = (0..tape[0].tor_sketches.len())
        .max_by_key(|&t| {
            tape.iter()
                .map(|m| m.tor_sketches[t].1.len())
                .sum::<usize>()
        })
        .expect("the fabric has ToRs");
    let mut c = SlidingWindowClassifier::new(WindowConfig::default());
    for cycle in 0..12u64 {
        for m in tape {
            let readings = &m.tor_sketches[busiest].1;
            let fresh = readings
                .iter()
                .map(|&(flow, bytes)| (flow + cycle * CYCLE_FLOW_STRIDE, bytes));
            let before = allocs();
            c.end_interval(fresh);
            std::hint::black_box(c.local_fsd());
            let n = allocs() - before;
            // The first eight cycles warm the index, slab, window,
            // active list and expiry wheel to their working sizes (the
            // index grows once more when its removals' tombstones fill
            // it, a few cycles after it first holds the working set).
            if cycle >= 8 {
                assert_eq!(n, 0, "closing {} readings", readings.len());
            }
        }
    }
    assert!(c.tracked_flows() > 0);
}
