//! Differential property test for the event scheduler: the production
//! calendar queue ([`EventQueue`]) and the reference binary heap
//! ([`BinaryHeapQueue`], below — it lives here because this test is its
//! only user) must emit *identical* `(time, event)` sequences on any
//! workload. This is the determinism contract every experiment relies on
//! — the calendar queue is only allowed to be faster, never different.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use paraleon_netsim::event::{Event, EventQueue};
use paraleon_netsim::{Nanos, Packet, PacketPool};

/// One pending event of the reference queue, ordered by `(at, key)` alone.
struct Scheduled(Nanos, u64, Event);

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.0, self.1) == (other.0, other.1)
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0, self.1).cmp(&(other.0, other.1))
    }
}

/// The binary-heap future-event list the simulator originally shipped
/// with: `EventQueue`'s API over one `BinaryHeap`, earliest first.
#[derive(Default)]
struct BinaryHeapQueue {
    heap: BinaryHeap<Reverse<Scheduled>>,
}

impl BinaryHeapQueue {
    fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, at: Nanos, key: u64, ev: Event) {
        self.heap.push(Reverse(Scheduled(at, key, ev)));
    }

    fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|s| s.0 .0)
    }

    fn pop(&mut self) -> Option<(Nanos, u64, Event)> {
        self.heap.pop().map(|Reverse(s)| (s.0, s.1, s.2))
    }

    /// Pop the earliest event only if it is scheduled at or before `t`.
    fn pop_before(&mut self, t: Nanos) -> Option<(Nanos, u64, Event)> {
        self.pop_if(|at| at <= t)
    }

    /// Pop the earliest event only if it is scheduled strictly before `t`.
    fn pop_strictly_before(&mut self, t: Nanos) -> Option<(Nanos, u64, Event)> {
        self.pop_if(|at| at < t)
    }

    fn pop_if(&mut self, admit: impl FnOnce(Nanos) -> bool) -> Option<(Nanos, u64, Event)> {
        admit(self.peek_time()?).then(|| self.pop()).flatten()
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Causal-key sources a script draws from. Keys are
/// `(source << 40) | per-source counter`, the simulator's scheme: unique,
/// ascending per source, and *not* ascending in push order — a later push
/// from a lower source carries a smaller key at the same instant.
const N_SOURCES: usize = 5;

/// One scripted scheduler operation.
#[derive(Debug, Clone)]
enum Op {
    /// Push a burst of `count` events `dt` ns after the last *popped*
    /// time (dt = 0 exercises same-timestamp bursts in the active
    /// bucket), rotating through the sources from `src` downward.
    Push {
        dt: u64,
        kind: u8,
        count: u8,
        src: u8,
    },
    /// Pop up to `n` events, comparing both queues at each step.
    Pop { n: u8 },
    /// Pop everything at or before a bound via `pop_before`. The bound is
    /// `dt` past the last popped time, or (`from_next`) past the earliest
    /// pending event — with dt = 0 that is a bound exactly on an event.
    PopBefore { dt: u64, from_next: bool },
    /// Pop everything strictly before such a bound — the parallel
    /// engine's only pop.
    PopStrictlyBefore { dt: u64, from_next: bool },
    /// Push behind the cursor on purpose: park one event `gap` ns out,
    /// drain everything before it with a bounded pop (which leaves the
    /// calendar queue's cursor primed onto the parked event's bucket),
    /// then push a burst at the last popped time — what `add_flow` at a
    /// collection boundary and `inject_remote` do.
    Behind {
        gap: u64,
        kind: u8,
        count: u8,
        src: u8,
    },
}

fn push_op() -> impl Strategy<Value = Op> {
    (
        prop_oneof![
            Just(0u64),            // same instant — the slot being popped
            1u64..256,             // within the active bucket
            256u64..1 << 14,       // nearby wheel slots
            (1u64 << 14)..1 << 21, // spread across the wheel
            (1u64 << 21)..1 << 42, // beyond the horizon: overflow heap
        ],
        0u8..7,
        1u8..12,
        0u8..N_SOURCES as u8,
    )
        .prop_map(|(dt, kind, count, src)| Op::Push {
            dt,
            kind,
            count,
            src,
        })
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let pop = (1u8..16).prop_map(|n| Op::Pop { n });
    let bound = || {
        (
            prop_oneof![Just(0u64), 1u64..256, 0u64..1 << 22],
            any::<bool>(),
        )
    };
    let pop_before = bound().prop_map(|(dt, from_next)| Op::PopBefore { dt, from_next });
    let pop_strictly = bound().prop_map(|(dt, from_next)| Op::PopStrictlyBefore { dt, from_next });
    let behind = (256u64..1 << 23, 0u8..7, 1u8..12, 0u8..N_SOURCES as u8).prop_map(
        |(gap, kind, count, src)| Op::Behind {
            gap,
            kind,
            count,
            src,
        },
    );
    // Uniform choice biases toward pushes by listing the arm twice.
    prop::collection::vec(
        prop_oneof![push_op(), push_op(), pop, pop_before, pop_strictly, behind],
        1..80,
    )
}

/// Which of the three pops to drive both queues with.
#[derive(Debug, Clone, Copy)]
enum Pop {
    Any,
    Before(Nanos),
    StrictlyBefore(Nanos),
}

/// The two queues under test, fed in lockstep, plus the key counters.
struct Pair {
    cal: EventQueue,
    heap: BinaryHeapQueue,
    pool: PacketPool,
    ctr: [u64; N_SOURCES],
    /// Events pushed so far (event payloads are numbered by it).
    n: u64,
    last_popped: Nanos,
}

impl Pair {
    fn new() -> Self {
        Self {
            cal: EventQueue::new(),
            heap: BinaryHeapQueue::new(),
            pool: PacketPool::new(),
            ctr: [0; N_SOURCES],
            n: 0,
            last_popped: 0,
        }
    }

    /// Push `count` events at `at`, the i-th from source `src - i`.
    fn push_burst(&mut self, at: Nanos, kind: u8, count: u8, src: u8) {
        for i in 0..count as usize {
            let source = (src as usize + N_SOURCES - i % N_SOURCES) % N_SOURCES;
            let key = ((source as u64) << 40) | self.ctr[source];
            self.ctr[source] += 1;
            let ev = make_event(kind, self.n, &mut self.pool);
            self.n += 1;
            self.cal.push(at, key, ev);
            self.heap.push(at, key, ev);
        }
    }

    /// The bound a bounded-pop op stands for. Reads the reference queue
    /// only, so computing it does not move the calendar queue's cursor.
    fn bound(&self, dt: u64, from_next: bool) -> Nanos {
        let next = self.heap.peek_time().filter(|_| from_next);
        next.unwrap_or(self.last_popped) + dt
    }

    /// Pop `how` on both queues until they return `None` or `limit`
    /// events came out, demanding equality at each step.
    fn pop_while(&mut self, limit: usize, how: Pop) {
        for _ in 0..limit {
            let (a, b) = match how {
                Pop::Any => (self.cal.pop(), self.heap.pop()),
                Pop::Before(t) => (self.cal.pop_before(t), self.heap.pop_before(t)),
                Pop::StrictlyBefore(t) => (
                    self.cal.pop_strictly_before(t),
                    self.heap.pop_strictly_before(t),
                ),
            };
            assert_eq!(a, b, "{how:?} diverged");
            match a {
                Some((t, _, _)) => self.last_popped = t,
                None => break,
            }
        }
    }
}

/// Materialize event `kind` — every variant, including `Fault` and
/// `Arrive` (whose `PacketId` handles are minted from a real arena).
fn make_event(kind: u8, n: u64, pool: &mut PacketPool) -> Event {
    match kind % 7 {
        0 => Event::FlowStart(n),
        1 => Event::QpSend(n),
        2 => Event::Arrive {
            node: (n % 128) as u32,
            in_port: (n % 16) as u16,
            pkt: pool.insert(Packet::data(n, n, 0, 1, 0, 1 << 20, 1000, n)),
        },
        3 => Event::PortFree {
            node: (n % 128) as u32,
            port: (n % 16) as u16,
        },
        4 => Event::PfcSet {
            node: (n % 128) as u32,
            port: (n % 16) as u16,
            paused: n.is_multiple_of(2),
        },
        5 => Event::RetxCheck(n),
        _ => Event::Fault((n % 32) as u32),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replay a random op script through both implementations and demand
    /// bit-identical behavior at every step, then on the full drain.
    #[test]
    fn calendar_queue_matches_reference_heap(script in ops()) {
        let mut q = Pair::new();
        for op in script {
            match op {
                Op::Push { dt, kind, count, src } => {
                    q.push_burst(q.last_popped + dt, kind, count, src);
                }
                Op::Pop { n } => {
                    prop_assert_eq!(q.cal.peek_time(), q.heap.peek_time());
                    q.pop_while(n as usize, Pop::Any);
                    prop_assert_eq!(q.cal.peek_time(), q.heap.peek_time());
                }
                Op::PopBefore { dt, from_next } => {
                    q.pop_while(usize::MAX, Pop::Before(q.bound(dt, from_next)));
                }
                Op::PopStrictlyBefore { dt, from_next } => {
                    q.pop_while(usize::MAX, Pop::StrictlyBefore(q.bound(dt, from_next)));
                }
                Op::Behind { gap, kind, count, src } => {
                    let bound = q.last_popped + gap;
                    q.push_burst(bound + 1, 0, 1, src);
                    q.pop_while(usize::MAX, Pop::Before(bound));
                    q.push_burst(q.last_popped, kind, count, src);
                }
            }
            prop_assert_eq!(q.cal.len(), q.heap.len());
            prop_assert_eq!(q.cal.is_empty(), q.heap.is_empty());
        }
        // Full drain must agree to the very end.
        q.pop_while(usize::MAX, Pop::Any);
        prop_assert!(q.cal.is_empty() && q.heap.is_empty());
    }

    /// Same-timestamp bursts must pop in ascending-key order — the
    /// causal tie-break the parallel engine's determinism relies on
    /// (keys are pushed here in *reverse* to prove it is the key, not
    /// insertion order, that decides).
    #[test]
    fn same_timestamp_bursts_pop_by_key(at in 0u64..1 << 40, count in 2usize..64) {
        let mut cal = EventQueue::new();
        let mut heap = BinaryHeapQueue::new();
        for i in (0..count as u64).rev() {
            cal.push(at, i, Event::FlowStart(i));
            heap.push(at, i, Event::FlowStart(i));
        }
        for i in 0..count as u64 {
            let a = cal.pop();
            prop_assert_eq!(a, heap.pop());
            prop_assert_eq!(a, Some((at, i, Event::FlowStart(i))));
        }
        prop_assert!(cal.is_empty() && heap.is_empty());
    }
}

/// The unit-sized agreement check: ties, a wheel bucket and an overflow
/// event in ten pushes.
#[test]
fn reference_queue_agrees_on_a_smoke_workload() {
    let mut a = EventQueue::new();
    let mut b = BinaryHeapQueue::new();
    let times = [5u64, 5, 9, 3, 70_000, 3, 5, 1 << 40, 12, 70_000];
    for (i, &t) in times.iter().enumerate() {
        a.push(t, i as u64, Event::FlowStart(i as u64));
        b.push(t, i as u64, Event::FlowStart(i as u64));
    }
    loop {
        let (x, y) = (a.pop(), b.pop());
        assert_eq!(x, y);
        if x.is_none() {
            break;
        }
    }
}

/// A same-instant flood: `N` events at one timestamp, then one
/// same-instant child per pop whose key falls in the middle of what is
/// still pending. A queue that walks a slot's list on every insert is
/// quadratic here (~10¹⁰ steps); the calendar queue bounds the walk and
/// lets a heap take the rest, so it stays O(n log n) like the reference.
fn flood(at: Nanos, parent_order: impl Iterator<Item = u64>) {
    const N: u64 = 100_000;
    let mut cal = EventQueue::new();
    let mut heap = BinaryHeapQueue::new();
    let both = |at: Nanos, key: u64, cal: &mut EventQueue, heap: &mut BinaryHeapQueue| {
        let ev = Event::QpSend(key);
        cal.push(at, key, ev);
        heap.push(at, key, ev);
    };
    // One parent per source, counter 0.
    for source in parent_order {
        both(at, source << 40, &mut cal, &mut heap);
    }
    assert_eq!(cal.len(), N as usize);
    let mut popped = 0u64;
    loop {
        let (a, b) = (cal.pop_before(at), heap.pop_before(at));
        assert_eq!(a, b, "flood diverged after {popped} pops");
        let Some((t, key, _)) = a else { break };
        assert_eq!(t, at);
        popped += 1;
        // Parents (counter 0) spawn one child each, from a source about
        // halfway between the popped one and the last.
        if key & ((1 << 40) - 1) == 0 {
            let source = key >> 40;
            let child = source + (N - source).div_ceil(2);
            both(at, (child << 40) | (source + 1), &mut cal, &mut heap);
        }
    }
    assert_eq!(popped, 2 * N);
    assert!(cal.is_empty() && heap.is_empty());
}

/// Descending keys into the active bucket (bucket 0 of a fresh queue).
#[test]
fn same_instant_flood_descending_in_the_active_bucket() {
    flood(7, (0..100_000u64).rev());
}

/// Descending keys into a wheel bucket: the flood is distributed on drain.
#[test]
fn same_instant_flood_descending_through_the_wheel() {
    flood(1_000_007, (0..100_000u64).rev());
}

/// Keys in a scrambled order (a multiplicative permutation of 0..N):
/// neither an append nor a prepend, on both the direct and the drain path.
#[test]
fn same_instant_flood_in_scrambled_key_order() {
    let scrambled = || (0..100_000u64).map(|i| i * 48_271 % 100_000);
    flood(7, scrambled());
    flood(1_000_007, scrambled());
}
