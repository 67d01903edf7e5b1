//! Deterministic control-plane channel model.
//!
//! The closed loop in `paraleon-core` moves two message streams between
//! the fabric and the controller: per-interval telemetry uploads
//! (fabric → controller) and parameter dispatches (controller → fabric).
//! In the unimpaired reproduction both are in-process function calls —
//! instant, complete, in order. [`CtrlChannel`] replaces that implicit
//! perfection with an explicit, seeded queue per direction: each message
//! can be **lost** (per-message probability), **delayed** by up to a
//! bounded number of monitor intervals (drawn uniformly per message —
//! which is what reorders an otherwise in-order stream), or
//! **duplicated**. Impairment is driven by
//! [`FaultKind::CtrlImpair`](crate::FaultKind::CtrlImpair) events from
//! the run's [`FaultPlan`](crate::fault::FaultPlan), so a control-plane
//! fault scenario replays byte-identically under a fixed seed.
//!
//! Time is measured in monitor intervals (λ_MI ticks), not nanoseconds:
//! the channel sits between two components that only interact at
//! interval boundaries, so sub-interval delay is unobservable. A clean
//! channel (`loss = dup = 0`, `delay_max = 0`) makes every message due
//! the instant it is sent, in insertion order — the receiver's poll
//! point in the step loop (same tick for uploads, next step's start for
//! dispatches) then reproduces the in-process call path exactly, which
//! is what the closed loop's clean-channel byte-equivalence rests on.
//!
//! The channel is generic over the payload so the upload and dispatch
//! directions can carry different message types while sharing one
//! impairment/RNG implementation.

use rand::{rngs::StdRng, Rng, SeedableRng};

/// Per-direction impairment parameters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CtrlImpairment {
    /// Per-message loss probability in `[0, 1]`.
    pub loss: f64,
    /// Maximum extra delivery delay, in monitor intervals. A message
    /// sent at tick `t` is due at `t + U{0..=delay_max}` and delivered
    /// at the receiver's first poll at or after that tick.
    pub delay_max: u64,
    /// Per-message duplication probability in `[0, 1]`. The duplicate
    /// draws its own independent delay, so it can arrive before or
    /// after the original.
    pub dup: f64,
}

impl CtrlImpairment {
    /// Whether the direction is unimpaired (deliver next tick, in order).
    pub fn is_clean(&self) -> bool {
        self.loss <= 0.0 && self.delay_max == 0 && self.dup <= 0.0
    }
}

/// Counters for one channel direction, for telemetry and gates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CtrlChannelStats {
    /// Messages handed to [`CtrlChannel::send`].
    pub sent: u64,
    /// Messages dropped by the loss draw.
    pub lost: u64,
    /// Extra copies enqueued by the duplication draw.
    pub duplicated: u64,
    /// Messages handed back by [`CtrlChannel::deliver`] (duplicates
    /// count individually).
    pub delivered: u64,
}

#[derive(Debug, Clone)]
struct InFlight<T> {
    due: u64,
    seq: u64,
    msg: T,
}

/// One direction of the control plane: a seeded, impairable queue with
/// delivery ordered by `(due tick, send sequence)`.
///
/// Determinism: the channel owns a dedicated [`StdRng`] and draws, per
/// sent message, in a fixed order — loss, then delay (only if
/// `delay_max > 0`), then duplication (plus the duplicate's delay).
/// Messages with equal due ticks deliver in send order, so a clean
/// channel is a zero-delay FIFO and an impaired run replays exactly
/// under the same seed and send sequence.
#[derive(Debug, Clone)]
pub struct CtrlChannel<T> {
    impair: CtrlImpairment,
    rng: StdRng,
    /// In send order.
    queue: Vec<InFlight<T>>,
    /// Delivered messages not yet taken, last to be taken first. Kept
    /// for its capacity: a steady delivery allocates nothing.
    delivered: Vec<InFlight<T>>,
    next_seq: u64,
    /// Delivery counters for this direction.
    pub stats: CtrlChannelStats,
}

impl<T: Clone> CtrlChannel<T> {
    /// Clean channel drawing impairment randomness from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            impair: CtrlImpairment::default(),
            rng: StdRng::seed_from_u64(seed),
            queue: Vec::new(),
            delivered: Vec::new(),
            next_seq: 0,
            stats: CtrlChannelStats::default(),
        }
    }

    /// Replace the impairment parameters from this instant on. Messages
    /// already in flight keep their drawn delivery ticks.
    pub fn set_impairment(&mut self, impair: CtrlImpairment) {
        self.impair = impair;
    }

    /// Current impairment parameters.
    pub fn impairment(&self) -> CtrlImpairment {
        self.impair
    }

    /// Number of messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Send `msg` at tick `now`. Under a clean channel it is due
    /// immediately (delivered at the receiver's next poll); under
    /// impairment it may be dropped, delayed by up to `delay_max` extra
    /// ticks, or duplicated. Only a duplicated message is cloned.
    pub fn send(&mut self, now: u64, msg: T) {
        self.stats.sent += 1;
        if self.impair.loss > 0.0 && self.rng.gen_bool(self.impair.loss) {
            self.stats.lost += 1;
            return;
        }
        let delay = self.draw_delay();
        if self.impair.dup > 0.0 && self.rng.gen_bool(self.impair.dup) {
            self.stats.duplicated += 1;
            let dup_delay = self.draw_delay();
            self.enqueue(now + delay, msg.clone());
            self.enqueue(now + dup_delay, msg);
        } else {
            self.enqueue(now + delay, msg);
        }
    }

    /// One message's extra delay: drawn only when `delay_max > 0`.
    fn draw_delay(&mut self) -> u64 {
        if self.impair.delay_max > 0 {
            self.rng.gen_range(0..=self.impair.delay_max)
        } else {
            0
        }
    }

    fn enqueue(&mut self, due: u64, msg: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(InFlight { due, seq, msg });
    }

    /// Deliver every message due at or before tick `now`: the receiver
    /// takes them with [`CtrlChannel::take_delivered`], ordered by
    /// `(due, send sequence)`.
    pub fn deliver(&mut self, now: u64) {
        let before = self.delivered.len();
        self.delivered
            .extend(self.queue.extract_if(.., |m| m.due <= now));
        self.stats.delivered += (self.delivered.len() - before) as u64;
        // Send sequences are unique, so the unstable sort is exact.
        self.delivered
            .sort_unstable_by_key(|m| std::cmp::Reverse((m.due, m.seq)));
    }

    /// The next delivered message, if any is left.
    pub fn take_delivered(&mut self) -> Option<T> {
        self.delivered.pop().map(|m| m.msg)
    }

    /// Drop everything in flight (the receiving end ceased to exist —
    /// e.g. a controller crash wipes undelivered uploads).
    pub fn clear_in_flight(&mut self) {
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn due<T: Clone>(ch: &mut CtrlChannel<T>, now: u64) -> Vec<T> {
        ch.deliver(now);
        std::iter::from_fn(|| ch.take_delivered()).collect()
    }

    #[test]
    fn clean_channel_is_a_zero_delay_fifo() {
        let mut ch: CtrlChannel<u32> = CtrlChannel::new(1);
        ch.send(1, 10);
        ch.send(1, 11);
        assert!(due(&mut ch, 0).is_empty(), "nothing due before send tick");
        assert_eq!(due(&mut ch, 1), vec![10, 11]);
        assert_eq!(ch.stats.sent, 2);
        assert_eq!(ch.stats.delivered, 2);
        assert_eq!(ch.stats.lost, 0);
    }

    #[test]
    fn total_loss_drops_everything() {
        let mut ch: CtrlChannel<u32> = CtrlChannel::new(1);
        ch.set_impairment(CtrlImpairment {
            loss: 1.0,
            ..Default::default()
        });
        for t in 0..10 {
            ch.send(t, t as u32);
        }
        assert_eq!(ch.stats.lost, 10);
        assert!(due(&mut ch, 100).is_empty());
    }

    #[test]
    fn delay_reorders_but_replays_identically_under_same_seed() {
        let run = |seed: u64| {
            let mut ch: CtrlChannel<u32> = CtrlChannel::new(seed);
            ch.set_impairment(CtrlImpairment {
                delay_max: 4,
                ..Default::default()
            });
            let mut out = Vec::new();
            for t in 0..20u64 {
                ch.send(t, t as u32);
                out.extend(due(&mut ch, t));
            }
            out.extend(due(&mut ch, 100));
            out
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 20, "delay must not lose messages");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<u32>>());
        assert_ne!(a, sorted, "delay_max=4 over 20 sends should reorder");
    }

    #[test]
    fn duplication_enqueues_extra_copies() {
        let mut ch: CtrlChannel<u32> = CtrlChannel::new(3);
        ch.set_impairment(CtrlImpairment {
            dup: 1.0,
            ..Default::default()
        });
        ch.send(0, 42);
        assert_eq!(ch.stats.duplicated, 1);
        assert_eq!(due(&mut ch, 1), vec![42, 42]);
    }

    #[test]
    fn clear_in_flight_models_a_dead_receiver() {
        let mut ch: CtrlChannel<u32> = CtrlChannel::new(1);
        ch.send(0, 1);
        ch.send(0, 2);
        ch.clear_in_flight();
        assert!(due(&mut ch, 10).is_empty());
        assert_eq!(ch.in_flight(), 0);
    }

    #[test]
    fn restored_channel_goes_back_to_fifo() {
        let mut ch: CtrlChannel<u32> = CtrlChannel::new(5);
        ch.set_impairment(CtrlImpairment {
            loss: 0.5,
            delay_max: 3,
            dup: 0.25,
        });
        for t in 0..8u64 {
            ch.send(t, t as u32);
        }
        ch.set_impairment(CtrlImpairment::default());
        assert!(ch.impairment().is_clean());
        ch.send(50, 99);
        let late: Vec<u32> = due(&mut ch, 50);
        assert_eq!(late.last(), Some(&99), "clean sends due the same tick");
    }
}
