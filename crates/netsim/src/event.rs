//! The discrete-event core: a deterministic time-ordered queue.
//!
//! Ties are broken by an explicit *causal key* supplied by the caller, so
//! two runs with the same seed replay identically — a property every
//! experiment in the harness relies on (paper-figure regeneration must be
//! reproducible). The key is assigned by the simulator from the causal
//! source of the event (`(source-node namespace << 40) | per-source
//! counter`), not from global push order: that makes the tie-break a pure
//! function of the event's provenance, which is what lets the sharded
//! parallel engine reproduce the serial order exactly — a shard cannot
//! observe global push order, but it *can* observe its own nodes'
//! counters.
//!
//! [`EventQueue`], the scheduler, is a **two-level calendar queue**. An
//! outer wheel of 256 ns buckets holds the future as unsorted appends;
//! the one bucket the clock is in is spread over an inner wheel of 256
//! one-nanosecond slots, each a short key-ordered linked list, with an
//! occupancy bitmap to find the head. A push is an append or a list
//! insert, a pop is `trailing_zeros` plus an unlink: no comparison sort
//! and no binary heap on the per-event path. Two binary heaps remain for
//! what is rare: events beyond the outer wheel's horizon, and events
//! pushed behind the cursor. The straightforward binary heap the
//! simulator originally shipped with is the *reference implementation*
//! in `tests/scheduler_differential.rs`, which replays random workloads
//! through both and asserts identical `(time, event)` pop sequences.
//!
//! Determinism argument: the simulator guarantees every pending event
//! carries a unique key (per-source counters never repeat), so
//! `(at, key)` is a *strict* total order — no two events compare equal.
//! Any correct priority structure over a strict total order pops the same
//! sequence. The calendar queue partitions events by time bucket (a
//! partition respecting the order's first component), the inner wheel
//! partitions the active bucket by exact timestamp (the order's whole
//! first component), and each slot's list is ascending in the second
//! component; whatever sits in a heap instead is compared on the full
//! `(at, key)` pair against the inner wheel's head at every pop.
//! Same-timestamp bursts therefore pop in key order, exactly as the
//! reference heap pops them — and identically whether the events
//! were enqueued by one serial engine or routed through parallel-shard
//! mailboxes in any interleaving.
//!
//! Cost: appending to or prepending to a slot's list is O(1); an insert
//! into the middle walks a bounded number of nodes and then gives the
//! event to the behind-the-cursor heap, so even one timestamp flooded
//! with 10⁵ events in adversarial key order costs O(log n) per event,
//! like the reference heap, not a list walk each.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::packet::PacketId;
use crate::{FlowId, Nanos};

/// Everything that can happen in the simulator.
///
/// The enum is deliberately *slim* (16 bytes): packets travel through the
/// scheduler as `PacketId` handles into the simulator's packet arena,
/// and node/port addresses are narrowed to `u32`/`u16` (a fabric with
/// more than 4 G nodes or 64 K ports per switch is out of scope). Before
/// this, `Arrive` carried a ~100-byte `Packet` by value and every heap
/// sift moved it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A flow becomes active at its source host.
    FlowStart(FlowId),
    /// A QP pacing tick: the flow's sender may emit its next segment.
    QpSend(FlowId),
    /// A packet finishes arriving at `node` through `in_port`.
    Arrive {
        /// Receiving node.
        node: u32,
        /// Ingress port index on `node`.
        in_port: u16,
        /// Handle of the packet in the simulator's arena.
        pkt: PacketId,
    },
    /// `node`'s egress `port` finished serializing; it may send again.
    PortFree {
        /// Transmitting node.
        node: u32,
        /// Port index.
        port: u16,
    },
    /// A PFC pause/resume frame takes effect at `node`'s egress `port`
    /// for the lossless class.
    PfcSet {
        /// Node whose egress is paused/resumed.
        node: u32,
        /// Port index on `node`.
        port: u16,
        /// true = XOFF, false = XON.
        paused: bool,
    },
    /// Periodic retransmission check for a flow (loss recovery).
    RetxCheck(FlowId),
    /// A scheduled fault transition from the installed
    /// [`crate::fault::FaultPlan`] (index into the plan).
    Fault(u32),
}

#[derive(Debug, Clone, Copy)]
struct Scheduled {
    at: Nanos,
    key: u64,
    ev: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        (other.at, other.key).cmp(&(self.at, self.key))
    }
}

/// Bucket width as a power of two: 256 ns. Wide enough that pushes
/// concentrate on a few dozen hot wheel slots (serialization of one MTU
/// at 100 G is ~84 ns, propagation delays are 1–5 µs — about 20 buckets
/// out), which keeps the wheel's working set cache-resident. Narrower
/// buckets were measured slower: 64 ns × 32 768 buckets scatter pushes
/// over four times as many slots (6–9 % slower). 256 ns is also what
/// makes the inner wheel cheap: one slot per nanosecond of the active
/// bucket is a 2 KiB array and a four-word bitmap, and two fifths of all
/// pushes (one MTU's serialization later, or the same instant) land in
/// it directly.
const BUCKET_SHIFT: u32 = 8;
/// Number of wheel buckets (power of two). Horizon = 8192 × 256 ns ≈
/// 2.1 ms, which covers pacing rechecks (≤ 50 µs) and the retransmission
/// timer (~1 ms); only rare far-future events (lazily admitted flow
/// starts) spill into the overflow heap.
const N_BUCKETS: usize = 8192;
/// One inner slot per nanosecond of the active bucket.
const INNER_SLOTS: usize = 1 << BUCKET_SHIFT;
/// End-of-list / empty-slot marker for slab indices.
const NIL: u32 = u32::MAX;
/// Longest walk an insert makes into the middle of a slot's list before
/// it hands the event to the `behind` heap instead. Real lists hold one
/// to three events; the bound is what keeps a same-instant flood with
/// adversarial keys at O(log n) per insert instead of O(n).
const SCAN_LIMIT: usize = 16;

/// One pending event of the active bucket: a slab cell linked into its
/// nanosecond's list. The timestamp is not stored — it is the slot.
#[derive(Debug, Clone, Copy)]
struct Node {
    key: u64,
    ev: Event,
    /// Next node of the slot's list, or of the free list.
    next: u32,
}

/// Ends of one nanosecond's list; `head == NIL` means empty (and then
/// `tail` is stale).
#[derive(Debug, Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

/// Deterministic future-event list: two-level calendar queue.
///
/// Invariants (with `b(e) = e.at >> BUCKET_SHIFT` the absolute bucket of
/// an event):
///
/// * **inner wheel** — `slots[i]` is the list of pending events at
///   exactly `(active << BUCKET_SHIFT) | i`, ascending by key, linked
///   through `nodes`; bit `i` of `occupied` is set iff that list is
///   non-empty. Nodes not on a list are on the free list headed by
///   `free`, most recently released first, so the slab stays as small as
///   the fullest active bucket and its hot end stays in L1;
/// * **`behind`** holds events with `b(e) <= active` that are not in the
///   inner wheel: everything pushed with `b(e) < active` (a handler can
///   not do that — time does not run backwards — but `add_flow` at a
///   collection boundary and `inject_remote` after a shard's window
///   primed past the barrier can), and the rare `b(e) == active` insert
///   that would have walked more than `SCAN_LIMIT` nodes;
/// * **outer wheel** — `wheel[b & (N_BUCKETS-1)]` holds events with
///   `active < b <= active + N_BUCKETS`, unsorted (distinct buckets never
///   alias a slot because the range spans exactly `N_BUCKETS` buckets).
///   An empty slot owns no buffer: it takes one from `pool` on its first
///   push and hands it back when drained, so the buffers in existence
///   are as many as buckets ever held events at once (a few dozen near
///   ones plus one per parked timer bucket), not all 8192. The header
///   table itself is reserved whole but written only up to the highest
///   slot ever pushed into; a slot beyond its end is an empty one;
/// * `overflow` holds events with `b > active + N_BUCKETS`, and its
///   minimum is always beyond `active`.
///
/// All wheel/overflow events are in strictly later buckets than
/// everything in the inner wheel and `behind`, so the smaller of the
/// first occupied slot's head and `behind`'s head is the global minimum
/// under `(at, key)`.
///
/// A fresh queue has written nothing on the heap: pool, slab and heaps
/// start empty and grow on demand, and the wheel's 8192 headers (196 KB)
/// are reserved, not initialised, so a shard that owns a sliver of the
/// fabric does not pay for them to be built.
#[derive(Debug)]
pub struct EventQueue {
    /// The inner wheel: one list per nanosecond of the active bucket.
    slots: [Slot; INNER_SLOTS],
    /// Bit `i` set iff `slots[i]` is non-empty.
    occupied: [u64; INNER_SLOTS / 64],
    /// Slab backing every inner list and the free list.
    nodes: Vec<Node>,
    /// Head of the free list through `Node::next`.
    free: u32,
    /// Events at or behind the active bucket that are not in the inner
    /// wheel, earliest-first.
    behind: BinaryHeap<Scheduled>,
    /// The bucket wheel, up to the highest slot pushed into so far (its
    /// capacity is all `N_BUCKETS`, so growing never moves it); a slot
    /// holds a buffer only while it holds events.
    wheel: Vec<Vec<Scheduled>>,
    /// Drained (empty, capacity kept) bucket buffers, last in first out.
    pool: Vec<Vec<Scheduled>>,
    /// Events beyond the wheel horizon.
    overflow: BinaryHeap<Scheduled>,
    /// Absolute index of the bucket spread over the inner wheel.
    active: u64,
    /// Total events resident in `wheel`.
    wheel_len: usize,
    /// Total pending events.
    len: usize,
    /// Pop-order invariant monitor (ZST unless the `audit` feature is on).
    order: paraleon_audit::OrderAudit,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self {
            slots: [Slot {
                head: NIL,
                tail: NIL,
            }; INNER_SLOTS],
            occupied: [0; INNER_SLOTS / 64],
            nodes: Vec::new(),
            free: NIL,
            behind: BinaryHeap::new(),
            wheel: Vec::with_capacity(N_BUCKETS),
            pool: Vec::new(),
            overflow: BinaryHeap::new(),
            active: 0,
            wheel_len: 0,
            len: 0,
            order: paraleon_audit::OrderAudit::default(),
        }
    }
}

/// Where the earliest pending event sits.
#[derive(Clone, Copy)]
enum Head {
    /// At the head of this inner slot's list.
    Slot(usize),
    /// On top of the `behind` heap.
    Behind,
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `ev` at absolute time `at` with tie-break `key`.
    ///
    /// The caller owns key assignment and must guarantee uniqueness among
    /// pending events at the same instant; the simulator derives keys
    /// from `(source-node namespace, per-source counter)`.
    #[inline]
    pub fn push(&mut self, at: Nanos, key: u64, ev: Event) {
        self.len += 1;
        let bucket = at >> BUCKET_SHIFT;
        if bucket > self.active {
            let s = Scheduled { at, key, ev };
            if bucket - self.active <= N_BUCKETS as u64 {
                let slot = (bucket as usize) & (N_BUCKETS - 1);
                if slot >= self.wheel.len() {
                    self.grow_wheel(slot);
                }
                let buf = &mut self.wheel[slot];
                if buf.capacity() == 0 {
                    if let Some(recycled) = self.pool.pop() {
                        *buf = recycled;
                    }
                }
                buf.push(s);
                self.wheel_len += 1;
            } else {
                self.overflow.push(s);
            }
        } else if bucket == self.active {
            self.insert_active(at, key, ev);
        } else {
            self.behind.push(Scheduled { at, key, ev });
        }
    }

    /// Extend the wheel's header table to include `slot` — at most once
    /// per slot per queue, so kept out of `push`'s inlined body (inlined,
    /// it cost the serial engine ≈ 1.5 % of its event rate).
    #[cold]
    #[inline(never)]
    fn grow_wheel(&mut self, slot: usize) {
        self.wheel.resize_with(slot + 1, Vec::new);
    }

    /// Link an event of the active bucket into its nanosecond's list,
    /// keeping the list ascending by key. Appending (the common case: a
    /// source's counter only grows) and prepending are O(1); an insert
    /// into the middle walks at most `SCAN_LIMIT` nodes and otherwise
    /// goes to `behind`, which every pop compares against anyway.
    #[inline]
    fn insert_active(&mut self, at: Nanos, key: u64, ev: Event) {
        debug_assert_eq!(at >> BUCKET_SHIFT, self.active);
        let i = (at as usize) & (INNER_SLOTS - 1);
        let Slot { head, tail } = self.slots[i];
        if head == NIL {
            let n = self.alloc(key, ev, NIL);
            self.slots[i] = Slot { head: n, tail: n };
            self.occupied[i >> 6] |= 1 << (i & 63);
        } else if key >= self.nodes[tail as usize].key {
            let n = self.alloc(key, ev, NIL);
            self.nodes[tail as usize].next = n;
            self.slots[i].tail = n;
        } else if key < self.nodes[head as usize].key {
            let n = self.alloc(key, ev, head);
            self.slots[i].head = n;
        } else {
            // head.key <= key < tail.key: the first node with a larger
            // key exists, so `next` is never NIL inside the walk.
            let mut prev = head;
            for _ in 0..SCAN_LIMIT {
                let next = self.nodes[prev as usize].next;
                if key < self.nodes[next as usize].key {
                    let n = self.alloc(key, ev, next);
                    self.nodes[prev as usize].next = n;
                    return;
                }
                prev = next;
            }
            self.behind.push(Scheduled { at, key, ev });
        }
    }

    /// Take a slab cell — the most recently released one, else a new one.
    #[inline]
    fn alloc(&mut self, key: u64, ev: Event, next: u32) -> u32 {
        let node = Node { key, ev, next };
        let n = self.free;
        if n != NIL {
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        } else {
            let n = u32::try_from(self.nodes.len()).expect("under 4G events in one bucket");
            self.nodes.push(node);
            n
        }
    }

    /// Move the cursor to the next bucket that may hold events and spread
    /// it over the inner wheel; only called with the inner wheel and
    /// `behind` both empty. Empty stretches are skipped by jumping
    /// straight to the earliest overflow bucket when the wheel is empty.
    /// Returns false when nothing is pending anywhere.
    fn advance(&mut self) -> bool {
        if self.wheel_len == 0 {
            let Some(min) = self.overflow.peek() else {
                return false;
            };
            self.active = self.active.max(min.at >> BUCKET_SHIFT);
        } else {
            self.active += 1;
            let slot = (self.active as usize) & (N_BUCKETS - 1);
            if self.wheel.get(slot).is_some_and(|buf| !buf.is_empty()) {
                let mut buf = std::mem::take(&mut self.wheel[slot]);
                self.wheel_len -= buf.len();
                for s in buf.drain(..) {
                    self.insert_active(s.at, s.key, s.ev);
                }
                self.pool.push(buf);
            }
        }
        // Overflow events whose bucket the cursor has reached join the
        // active bucket.
        while let Some(min) = self.overflow.peek() {
            if min.at >> BUCKET_SHIFT > self.active {
                break;
            }
            let s = self.overflow.pop().expect("peeked");
            self.insert_active(s.at, s.key, s.ev);
        }
        true
    }

    /// Locate the earliest pending event and its time, advancing the
    /// cursor until the inner wheel or `behind` holds it.
    #[inline]
    fn head(&mut self) -> Option<(Nanos, Head)> {
        loop {
            let first = self
                .occupied
                .iter()
                .position(|&w| w != 0)
                .map(|w| w * 64 + self.occupied[w].trailing_zeros() as usize);
            let behind = self.behind.peek().map(|b| (b.at, b.key));
            return match (first, behind) {
                (Some(i), None) => Some((self.slot_time(i), Head::Slot(i))),
                (Some(i), Some(b)) => {
                    let at = self.slot_time(i);
                    let key = self.nodes[self.slots[i].head as usize].key;
                    if b < (at, key) {
                        Some((b.0, Head::Behind))
                    } else {
                        Some((at, Head::Slot(i)))
                    }
                }
                (None, Some(b)) => Some((b.0, Head::Behind)),
                (None, None) if self.advance() => continue,
                (None, None) => None,
            };
        }
    }

    /// The timestamp inner slot `i` stands for.
    #[inline]
    fn slot_time(&self, i: usize) -> Nanos {
        (self.active << BUCKET_SHIFT) | i as u64
    }

    /// Pop the earliest event if `admit` accepts its time.
    #[inline]
    fn pop_if(&mut self, admit: impl FnOnce(Nanos) -> bool) -> Option<(Nanos, u64, Event)> {
        let (at, head) = self.head()?;
        if !admit(at) {
            return None;
        }
        let (key, ev) = match head {
            Head::Slot(i) => {
                let h = self.slots[i].head;
                let Node { key, ev, next } = self.nodes[h as usize];
                self.slots[i].head = next;
                if next == NIL {
                    self.occupied[i >> 6] &= !(1 << (i & 63));
                }
                self.nodes[h as usize].next = self.free;
                self.free = h;
                (key, ev)
            }
            Head::Behind => {
                let s = self.behind.pop().expect("peeked");
                (s.key, s.ev)
            }
        };
        self.len -= 1;
        self.order.observe(at, key);
        Some((at, key, ev))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<Nanos> {
        self.head().map(|(at, _)| at)
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(Nanos, u64, Event)> {
        self.pop_if(|_| true)
    }

    /// Pop the earliest event only if it is scheduled at or before `t` —
    /// the single-lookup form of `peek_time` + `pop` the simulator's hot
    /// loop uses.
    pub fn pop_before(&mut self, t: Nanos) -> Option<(Nanos, u64, Event)> {
        self.pop_if(|at| at <= t)
    }

    /// Pop the earliest event only if it is scheduled *strictly* before
    /// `t`. The parallel engine's epoch windows are half-open
    /// `[start, end)` intervals — events at exactly the barrier time must
    /// wait for the cross-shard mailbox exchange before they run.
    pub fn pop_strictly_before(&mut self, t: Nanos) -> Option<(Nanos, u64, Event)> {
        self.pop_if(|at| at < t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, 0, Event::FlowStart(3));
        q.push(10, 1, Event::FlowStart(1));
        q.push(20, 2, Event::FlowStart(2));
        let order: Vec<Nanos> = std::iter::from_fn(|| q.pop().map(|(t, _, _)| t)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_key_not_push_order() {
        let mut q = EventQueue::new();
        q.push(5, 2, Event::FlowStart(2));
        q.push(5, 0, Event::FlowStart(0));
        q.push(5, 1, Event::FlowStart(1));
        let flows: Vec<FlowId> = std::iter::from_fn(|| {
            q.pop().map(|(_, _, e)| match e {
                Event::FlowStart(f) => f,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(flows, vec![0, 1, 2]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(42, 0, Event::QpSend(0));
        assert_eq!(q.peek_time(), Some(42));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn pop_before_respects_the_bound() {
        let mut q = EventQueue::new();
        q.push(100, 0, Event::FlowStart(1));
        q.push(300, 1, Event::FlowStart(2));
        assert_eq!(q.pop_before(50), None);
        assert_eq!(q.pop_before(100).map(|(t, _, _)| t), Some(100));
        assert_eq!(q.pop_before(200), None);
        assert_eq!(q.pop_before(u64::MAX).map(|(t, _, _)| t), Some(300));
        assert!(q.is_empty());
    }

    #[test]
    fn pop_strictly_before_excludes_the_bound() {
        let mut q = EventQueue::new();
        q.push(100, 0, Event::FlowStart(1));
        q.push(200, 1, Event::FlowStart(2));
        assert_eq!(q.pop_strictly_before(100), None);
        assert_eq!(q.pop_strictly_before(101).map(|(t, _, _)| t), Some(100));
        assert_eq!(q.pop_strictly_before(200), None);
        assert_eq!(q.pop_before(200).map(|(t, _, _)| t), Some(200));
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        let mut q = EventQueue::new();
        let horizon = (N_BUCKETS as u64 + 10) << BUCKET_SHIFT;
        q.push(3 * horizon, 0, Event::FlowStart(3));
        q.push(7, 1, Event::FlowStart(0));
        q.push(horizon, 2, Event::FlowStart(1));
        q.push(2 * horizon, 3, Event::FlowStart(2));
        let flows: Vec<FlowId> = std::iter::from_fn(|| {
            q.pop().map(|(_, _, e)| match e {
                Event::FlowStart(f) => f,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(flows, vec![0, 1, 2, 3]);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        // Mimic the simulator: pop an event, then schedule new work at
        // and slightly after the popped time.
        let mut q = EventQueue::new();
        let mut key = 0u64;
        let mut next_key = || {
            key += 1;
            key
        };
        q.push(0, next_key(), Event::FlowStart(0));
        let mut last = 0;
        let mut popped = 0u64;
        while let Some((t, _, _)) = q.pop() {
            assert!(t >= last, "time ran backward: {t} < {last}");
            last = t;
            popped += 1;
            if popped < 1000 {
                q.push(t, next_key(), Event::QpSend(popped)); // same instant
                q.push(t + 84, next_key(), Event::PortFree { node: 0, port: 0 });
                q.push(t + 5_000, next_key(), Event::QpSend(popped));
                if popped.is_multiple_of(100) {
                    q.push(t + 1_000_000, next_key(), Event::RetxCheck(popped)); // in wheel
                    q.push(t + 3_000_000, next_key(), Event::RetxCheck(popped));
                    // beyond horizon
                }
            }
        }
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn len_tracks_all_tiers() {
        let mut q = EventQueue::new();
        q.push(1, 0, Event::FlowStart(0)); // inner wheel
        q.push(100_000, 1, Event::FlowStart(1)); // wheel
        q.push(u64::MAX / 2, 2, Event::FlowStart(2)); // overflow
        assert_eq!(q.len(), 3);
        q.pop();
        q.pop();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    /// `Engine::new` builds one of these per simulator (and per shard):
    /// nothing is written up front, everything grows with the first
    /// events — the wheel's header table, reserved whole, up to the slot
    /// pushed into and no further.
    #[test]
    fn fresh_queue_owns_only_the_inner_arrays() {
        let mut q = EventQueue::new();
        assert!(q.wheel.is_empty());
        assert_eq!(q.wheel.capacity(), N_BUCKETS);
        assert_eq!(q.pool.capacity(), 0);
        assert_eq!(q.nodes.capacity(), 0);
        assert_eq!(q.behind.capacity(), 0);
        assert_eq!(q.overflow.capacity(), 0);
        assert!(q.slots.iter().all(|s| s.head == NIL));
        assert_eq!(q.occupied, [0; INNER_SLOTS / 64]);
        q.push(20 << BUCKET_SHIFT, 0, Event::FlowStart(0));
        assert_eq!(q.wheel.len(), 21);
        assert_eq!(q.pop().map(|(t, _, _)| t), Some(20 << BUCKET_SHIFT));
        // One rotation on, slot 5: the cursor gets there over the slots
        // past the table's end, which are empty ones.
        let wrapped = (N_BUCKETS as u64 + 5) << BUCKET_SHIFT;
        q.push(wrapped, 1, Event::FlowStart(1));
        assert_eq!(q.wheel.len(), 21);
        assert_eq!(q.pop().map(|(t, _, _)| t), Some(wrapped));
    }

    /// Fifty event chains rescheduling themselves one propagation delay
    /// out keep ~20 buckets populated at any time; after five rotations
    /// of the wheel the queue must still own about that many bucket
    /// buffers — not one per slot it ever touched — and a slab no larger
    /// than the fullest bucket.
    #[test]
    fn bucket_buffers_and_slab_cells_are_recycled() {
        let mut q = EventQueue::new();
        for i in 0..50u64 {
            q.push(i * 100, i << 40, Event::QpSend(i));
        }
        let five_rotations = 5 * ((N_BUCKETS as u64) << BUCKET_SHIFT);
        let (mut last, mut popped) = (0, 0u64);
        while last <= five_rotations {
            let (t, key, ev) = q.pop().expect("chains never end");
            assert!(t >= last);
            last = t;
            popped += 1;
            if let Event::QpSend(_) = ev {
                q.push(t + 5_080, key + 2, ev);
                if popped.is_multiple_of(3) {
                    q.push(t + 84, key + 1, Event::PortFree { node: 0, port: 0 });
                }
            }
        }
        assert!(popped > 100_000);
        let owned = q.pool.len() + q.wheel.iter().filter(|b| b.capacity() > 0).count();
        assert!(owned <= 5_080 / (1 << BUCKET_SHIFT) + 3, "{owned} buffers");
        assert!(q.nodes.len() <= 8, "{} slab cells", q.nodes.len());
    }

    /// More than `SCAN_LIMIT` same-instant events inserted mid-list: the
    /// spill to `behind` must not change the order.
    #[test]
    fn long_same_instant_lists_spill_without_reordering() {
        let mut q = EventQueue::new();
        let n = 4 * SCAN_LIMIT as u64;
        q.push(9, 0, Event::FlowStart(0));
        q.push(9, 2 * n, Event::FlowStart(2 * n));
        // Odd keys descending, then even keys ascending: all but the
        // first few land between head and tail, ever deeper.
        for k in (1..n).rev().map(|i| 2 * i - 1).chain((1..n).map(|i| 2 * i)) {
            q.push(9, k, Event::FlowStart(k));
        }
        assert!(!q.behind.is_empty(), "the walk is bounded");
        let keys: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, k, _)| k)).collect();
        assert_eq!(keys, (0..2 * n - 1).chain([2 * n]).collect::<Vec<_>>());
    }
}
