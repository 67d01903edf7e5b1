//! The event core of one shard: future-event list, clock, causal keys,
//! the packet arena and the shard cut. No networking — this module knows
//! events and packets only as values it orders, parks and hands across
//! shards; what a node *does* with one is the layers' business
//! (`crate::port`, `crate::switch`, `crate::nic`, `crate::fault`).
//!
//! One of several shards keeps per-node state — here the key counters,
//! in the layers everything else — only for the nodes it owns, at each
//! node's *slot* ([`EventCore::own`]).
//!
//! Everything that makes every shard count bit-identical starts here:
//! event tie-breaks are *causal keys* — `(source-node namespace <<
//! KEY_SHIFT) | per-source counter` — which a shard can reproduce without
//! seeing global push order. An event aimed at a node another shard owns
//! goes into that shard's outbox under the key this shard assigned, and
//! the destination's queue puts it where one shard would have had it.

use std::sync::Arc;

use paraleon_telemetry as tel;

use crate::event::{Event, EventQueue};
use crate::packet::{Packet, PacketId, PacketPool};
use crate::{Nanos, NodeId};

/// Bits reserved for the per-source event counter in a causal key; the
/// namespace (source node id offset by [`NODE_NS_BASE`], or one of the
/// external namespaces below it) lives above. 2^40 events per source
/// per run is far beyond any committed workload (whole runs process
/// ~10^7–10^8 events *total*).
const KEY_SHIFT: u32 = 40;

/// External namespace for flow-start events (counter = flow id).
pub(crate) const FLOW_NS: u64 = 0;
/// External namespace for fault-plan events (counter = plan index).
pub(crate) const FAULT_NS: u64 = 1;
/// Node `n`'s causal-key namespace is `n + NODE_NS_BASE`. The external
/// namespaces sort *below* every node namespace on purpose: an external
/// trigger (flow start, fault) pending at time `t` pops before any node
/// event at `t`, so its same-instant children — keyed by the node that
/// handles them — always carry *larger* keys than their parent, and a
/// fault at `t` applies before packets at `t` traverse the link. (The
/// popped key sequence is still not globally sorted within a timestamp:
/// mid-run API insertion at the current instant, e.g. `add_flow` at a
/// collection boundary, is legal and can follow a larger-key pop.)
const NODE_NS_BASE: u64 = 2;

/// `slot_of` entry of a node another shard owns: indexing per-node state
/// with it is out of bounds, which is the bug it would be.
const NO_SLOT: u32 = u32::MAX;

/// Sharding context: which shard this core is, who owns each node, and
/// where this shard keeps the state of the nodes it owns.
#[derive(Debug, Clone)]
struct ShardCtx {
    /// Owner shard of every node id.
    shard_of: Arc<Vec<u16>>,
    /// This shard's index.
    me: u16,
    /// The nodes this shard owns, ascending — so hosts come first. A
    /// node's position here is its *slot*: a shard keeps per-node state
    /// for these nodes only, in this order.
    owned: Vec<NodeId>,
    /// Node id → slot (`NO_SLOT` for a foreign node).
    slot_of: Vec<u32>,
}

/// A node this shard owns, as a handler sees it: `node` is what the
/// topology, packets, causal keys and telemetry call it, `slot` is where
/// this shard keeps its state ([`EventCore::own`]). A handler resolves
/// the node its event targets once and passes this on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Owned {
    pub node: NodeId,
    pub slot: usize,
}

/// A cross-shard event handoff under the `(at, key)` the *sending* shard
/// assigned from the source node's counter — identical to the key one
/// shard would assign.
#[derive(Debug)]
pub(crate) struct RemoteMsg {
    at: Nanos,
    key: u64,
    body: Remote,
}

#[derive(Debug)]
enum Remote {
    /// A packet in flight across the cut, moved out of the source shard's
    /// arena; the destination re-homes it and mints the `Arrive`.
    Packet {
        node: u32,
        in_port: u16,
        pkt: Packet,
    },
    /// Any event that carries no packet.
    Event(Event),
}

/// Queue, clock, keys, arena and outboxes of one shard.
pub(crate) struct EventCore {
    events: EventQueue,
    /// Arena for live packets: a packet enters at its source NIC, exits
    /// at its destination host (or on a drop); queues and `Arrive`
    /// events carry 4-byte handles in between.
    pub(crate) packets: PacketPool,
    now: Nanos,
    /// Per-source-node causal-key counters (tie-break assignment), by slot.
    key_seq: Vec<u64>,
    /// `None` = the only shard (owns every node).
    shard: Option<ShardCtx>,
    /// Cross-shard handoff outboxes, one per destination shard (none for
    /// a one-shard engine).
    outboxes: Vec<Vec<RemoteMsg>>,
    /// When set, every popped event's `(time, key)` is stamped onto the
    /// thread's telemetry capture (`paraleon_telemetry::capture_stamp`)
    /// so emissions diverted on worker threads can be replayed in
    /// one-shard order. The engine sets it at the start of every sharded
    /// run, on exactly when its workers capture.
    pub(crate) tel_capture: bool,
    /// Total events processed (performance accounting).
    pub(crate) events_processed: u64,
}

impl EventCore {
    /// The only shard of an uncut `n_nodes`-node fabric.
    pub(crate) fn new(n_nodes: usize) -> Self {
        Self {
            events: EventQueue::new(),
            packets: PacketPool::new(),
            now: 0,
            key_seq: vec![0; n_nodes],
            shard: None,
            outboxes: Vec::new(),
            tel_capture: false,
            events_processed: 0,
        }
    }

    /// Shard `me` of `n_shards`: runs events for the nodes `shard_of`
    /// maps to `me`, and routes events for foreign nodes into outboxes.
    pub(crate) fn new_shard(shard_of: &Arc<Vec<u16>>, me: usize, n_shards: usize) -> Self {
        let me = me as u16;
        let owned: Vec<NodeId> = (0..shard_of.len()).filter(|&n| shard_of[n] == me).collect();
        let mut slot_of = vec![NO_SLOT; shard_of.len()];
        for (slot, &node) in owned.iter().enumerate() {
            slot_of[node] = slot as u32;
        }
        let mut core = Self::new(owned.len());
        core.outboxes = (0..n_shards).map(|_| Vec::new()).collect();
        core.shard = Some(ShardCtx {
            shard_of: Arc::clone(shard_of),
            me,
            owned,
            slot_of,
        });
        core
    }

    /// Current simulated time.
    #[inline]
    pub(crate) fn now(&self) -> Nanos {
        self.now
    }

    /// Whether this shard runs events targeting `node`.
    #[inline]
    pub(crate) fn owns(&self, node: NodeId) -> bool {
        self.foreign(node).is_none()
    }

    /// Resolve `node`, which this shard owns, to where its state is kept
    /// in the shard's per-node tables: at the node id itself on the only
    /// shard, at the node's rank among the owned nodes on one of several.
    #[inline]
    pub(crate) fn own(&self, node: NodeId) -> Owned {
        let slot = match &self.shard {
            None => node,
            Some(ctx) => ctx.slot_of[node] as usize,
        };
        Owned { node, slot }
    }

    /// The nodes this shard owns, in slot order.
    pub(crate) fn owned(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone + '_ {
        let owned = self.shard.as_ref().map(|ctx| &ctx.owned);
        (0..self.key_seq.len()).map(move |slot| owned.map_or(slot, |o| o[slot]))
    }

    /// The shard `node` lives on, when that is not this one.
    #[inline]
    fn foreign(&self, node: NodeId) -> Option<usize> {
        let ctx = self.shard.as_ref()?;
        let owner = ctx.shard_of[node];
        (owner != ctx.me).then_some(owner as usize)
    }

    /// Next causal key for an event generated by `src`'s handler.
    #[inline]
    fn next_key(&mut self, src: Owned) -> u64 {
        let seq = &mut self.key_seq[src.slot];
        let k = ((src.node as u64 + NODE_NS_BASE) << KEY_SHIFT) | *seq;
        *seq += 1;
        k
    }

    /// Schedule an event from outside the fabric (a flow start, a fault
    /// transition): `counter` is an id every shard already agrees on, so
    /// the key needs no shared counter state.
    pub(crate) fn external(&mut self, ns: u64, counter: u64, at: Nanos, ev: Event) {
        self.events.push(at, (ns << KEY_SHIFT) | counter, ev);
    }

    /// Schedule an event whose target is the generating node itself
    /// (pacing ticks, port-free, retransmission timers): always local.
    #[inline]
    pub(crate) fn local(&mut self, src: Owned, at: Nanos, ev: Event) {
        let key = self.next_key(src);
        self.events.push(at, key, ev);
    }

    /// Schedule a packet-less event generated by `src` but targeting
    /// `dst` (PFC pause frames): runs locally when this shard owns `dst`,
    /// otherwise crosses the cut through an outbox.
    pub(crate) fn cross(&mut self, src: Owned, dst: NodeId, at: Nanos, ev: Event) {
        let key = self.next_key(src);
        match self.foreign(dst) {
            None => self.events.push(at, key, ev),
            Some(shard) => {
                let body = Remote::Event(ev);
                self.outboxes[shard].push(RemoteMsg { at, key, body });
            }
        }
    }

    /// Schedule packet `pkt`, sent by `src`, to arrive at `(dst, in_port)`
    /// — across the cut the packet travels by value, so each arena's
    /// conservation tallies stay self-consistent. Narrowing the address
    /// to the event's `u32`/`u16` is lossless: every topology spec bounds
    /// node count and switch radix before a fabric is built.
    #[inline]
    pub(crate) fn deliver(
        &mut self,
        src: Owned,
        dst: NodeId,
        in_port: usize,
        at: Nanos,
        pkt: PacketId,
    ) {
        let key = self.next_key(src);
        let (node, in_port) = (dst as u32, in_port as u16);
        match self.foreign(dst) {
            None => self
                .events
                .push(at, key, Event::Arrive { node, in_port, pkt }),
            Some(shard) => {
                let pkt = self.packets.take(pkt);
                let body = Remote::Packet { node, in_port, pkt };
                self.outboxes[shard].push(RemoteMsg { at, key, body });
            }
        }
    }

    /// The outbox bound for shard `dst`, for the epoch exchange to swap
    /// against that shard's (empty) mailbox slot.
    pub(crate) fn outbox_mut(&mut self, dst: usize) -> &mut Vec<RemoteMsg> {
        &mut self.outboxes[dst]
    }

    /// How many cross-shard handoffs are waiting in outboxes.
    pub(crate) fn outboxes_pending(&self) -> usize {
        self.outboxes.iter().map(Vec::len).sum()
    }

    /// Accept a cross-shard handoff: re-home the packet (if any) into
    /// this shard's arena and enqueue the event under its original
    /// `(at, key)` — the queue's total order does the rest.
    pub(crate) fn inject_remote(&mut self, msg: RemoteMsg) {
        let ev = match msg.body {
            Remote::Event(ev) => ev,
            Remote::Packet { node, in_port, pkt } => {
                let pkt = self.packets.insert(pkt);
                Event::Arrive { node, in_port, pkt }
            }
        };
        self.events.push(msg.at, msg.key, ev);
    }

    /// Whether any events remain scheduled.
    pub(crate) fn has_pending_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// Step one execution window: pop the next pending event with
    /// `ts <= end` (`inclusive`, a whole `Engine::run_until` on one
    /// shard) or `ts < end` (the half-open epoch windows of several —
    /// events at exactly the barrier must wait for the mailbox exchange
    /// so same-instant cross-shard events keep their key order) and move
    /// the clock to it. `None` ends the window with the clock at `end`;
    /// an exclusive window may be followed by an inclusive one at the
    /// same `end`.
    #[inline]
    pub(crate) fn next(&mut self, end: Nanos, inclusive: bool) -> Option<Event> {
        let popped = if inclusive {
            self.events.pop_before(end)
        } else {
            self.events.pop_strictly_before(end)
        };
        let Some((ts, key, ev)) = popped else {
            self.now = end;
            return None;
        };
        debug_assert!(ts >= self.now);
        self.now = ts;
        if self.tel_capture {
            tel::capture_stamp(ts, key);
        }
        self.events_processed += 1;
        Some(ev)
    }
}
