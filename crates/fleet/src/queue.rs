//! The fleet's backpressure primitives: bounded per-tenant upload
//! queues and token-bucket rate limiters.
//!
//! A tenant's fabric produces one [`PendingInterval`] per λ_MI whether
//! or not the shared controller can keep up. The [`UploadQueue`] bounds
//! how much of that backlog the service will hold (with an explicit
//! [`DropPolicy`] for overflow), and the [`TokenBucket`] bounds how many
//! controller turns per service tick a single tenant may consume — so a
//! noisy tenant degrades *its own* tuning freshness, never a
//! neighbour's. Both are plain deterministic state: identical operation
//! sequences produce bit-identical queues and buckets, which is what
//! lets the serial and threaded schedulers agree byte-for-byte.

use paraleon_netsim::IntervalMetrics;

/// One fabric interval awaiting its controller turn: the merged metrics
/// the tenant's fabric produced for one λ_MI, parked at the service
/// until the scheduler grants the tenant a tuning turn.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingInterval {
    /// The interval's network-wide metrics (the controller's input).
    pub metrics: IntervalMetrics,
}

impl PendingInterval {
    /// Estimated heap footprint of this queued interval, for the
    /// controller-memory accounting in `exp fleet`.
    pub fn memory_bytes(&self) -> usize {
        fn vec_bytes<T>(v: &[T]) -> usize {
            std::mem::size_of_val(v)
        }
        let m = &self.metrics;
        std::mem::size_of::<Self>()
            + vec_bytes(&m.switch_obs)
            + vec_bytes(&m.tor_sketches)
            + m.tor_sketches
                .iter()
                .map(|(_, v)| vec_bytes(v))
                .sum::<usize>()
            + vec_bytes(&m.truth_flow_bytes)
    }
}

/// What to shed when a tenant's upload queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropPolicy {
    /// Evict the oldest queued interval to admit the new one — the
    /// controller prefers fresh fabric state over an unbroken history
    /// (the monitor's `StalenessMerger` weighting already favours
    /// recency).
    DropOldest,
    /// Refuse the incoming interval — the controller prefers an
    /// unbroken prefix of history over recency.
    DropNewest,
}

/// Bounded FIFO of one tenant's not-yet-processed interval uploads.
#[derive(Debug, Clone)]
pub struct UploadQueue {
    items: std::collections::VecDeque<PendingInterval>,
    capacity: usize,
    policy: DropPolicy,
    /// Intervals shed by the drop policy since construction (monotone;
    /// survives snapshot restore — drops that happened, happened).
    pub dropped: u64,
}

impl UploadQueue {
    /// Empty queue holding at most `capacity` intervals (min 1).
    pub fn new(capacity: usize, policy: DropPolicy) -> Self {
        Self {
            items: std::collections::VecDeque::new(),
            capacity: capacity.max(1),
            policy,
            dropped: 0,
        }
    }

    /// Enqueue one interval. Returns `true` if nothing was shed; on a
    /// full queue, sheds per the drop policy (counted in `dropped`) and
    /// returns `false`.
    pub fn push(&mut self, item: PendingInterval) -> bool {
        if self.items.len() < self.capacity {
            self.items.push_back(item);
            return true;
        }
        self.dropped += 1;
        match self.policy {
            DropPolicy::DropOldest => {
                self.items.pop_front();
                self.items.push_back(item);
            }
            DropPolicy::DropNewest => {}
        }
        false
    }

    /// Dequeue the oldest pending interval.
    pub fn pop(&mut self) -> Option<PendingInterval> {
        self.items.pop_front()
    }

    /// Pending intervals (the tenant's controller backlog).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no interval is pending.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Maximum backlog this queue will hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The overflow policy.
    pub fn policy(&self) -> DropPolicy {
        self.policy
    }

    /// Clone out the pending items, oldest first (snapshot support).
    pub fn items(&self) -> Vec<PendingInterval> {
        self.items.iter().cloned().collect()
    }

    /// Replace the pending items (restore support). Capacity, policy
    /// and the monotone drop counter are untouched.
    pub fn restore_items(&mut self, items: Vec<PendingInterval>) {
        self.items = items.into_iter().take(self.capacity).collect();
    }

    /// Estimated heap footprint of the queued backlog.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .items
                .iter()
                .map(PendingInterval::memory_bytes)
                .sum::<usize>()
    }
}

/// Per-tenant controller-turn rate limiter. Refilled once per service
/// tick; each tuning turn costs one token. Plain `f64` state with an
/// identical operation sequence in the serial and threaded schedulers,
/// so the two stay bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenBucket {
    tokens: f64,
    rate: f64,
    burst: f64,
}

impl TokenBucket {
    /// Bucket refilling `rate` tokens per tick, holding at most
    /// `burst`. Starts full so a freshly admitted tenant tunes
    /// immediately.
    pub fn new(rate: f64, burst: f64) -> Self {
        let burst = burst.max(rate);
        Self {
            tokens: burst,
            rate,
            burst,
        }
    }

    /// One service tick's refill.
    pub fn refill(&mut self) {
        self.tokens = (self.tokens + self.rate).min(self.burst);
    }

    /// Spend `n` tokens if available.
    pub fn try_take(&mut self, n: f64) -> bool {
        if self.tokens >= n {
            self.tokens -= n;
            true
        } else {
            false
        }
    }

    /// Tokens currently available.
    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraleon_netsim::IntervalMetrics;

    fn interval(start: u64) -> PendingInterval {
        PendingInterval {
            metrics: IntervalMetrics {
                start,
                end: start + 1_000_000,
                avg_uplink_utilization: 0.5,
                avg_normalized_rtt: 1.0,
                avg_rtt_ns: 0.0,
                pfc_pause_ratio: 0.0,
                cnps: 0,
                ecn_marks: 0,
                drops: 0,
                fault_drops: 0,
                pfc_events: 0,
                bytes_delivered: 0,
                switch_obs: Vec::new(),
                tor_sketches: Vec::new(),
                truth_flow_bytes: Vec::new(),
            },
        }
    }

    #[test]
    fn drop_oldest_sheds_the_head() {
        let mut q = UploadQueue::new(2, DropPolicy::DropOldest);
        assert!(q.push(interval(0)));
        assert!(q.push(interval(1)));
        assert!(!q.push(interval(2)), "overflow must report the shed");
        assert_eq!(q.dropped, 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().metrics.start, 1, "oldest was shed");
        assert_eq!(q.pop().unwrap().metrics.start, 2);
    }

    #[test]
    fn drop_newest_refuses_the_incoming() {
        let mut q = UploadQueue::new(2, DropPolicy::DropNewest);
        q.push(interval(0));
        q.push(interval(1));
        assert!(!q.push(interval(2)));
        assert_eq!(q.dropped, 1);
        assert_eq!(q.pop().unwrap().metrics.start, 0, "prefix kept intact");
        assert_eq!(q.pop().unwrap().metrics.start, 1);
        assert!(q.pop().is_none());
    }

    #[test]
    fn restore_items_keeps_drop_counter_and_capacity() {
        let mut q = UploadQueue::new(1, DropPolicy::DropOldest);
        q.push(interval(0));
        q.push(interval(1));
        assert_eq!(q.dropped, 1);
        let saved = q.items();
        q.pop();
        q.restore_items(saved);
        assert_eq!(q.len(), 1);
        assert_eq!(q.dropped, 1, "drops that happened, happened");
        assert_eq!(q.capacity(), 1);
    }

    #[test]
    fn bucket_starts_full_refills_and_caps_at_burst() {
        let mut b = TokenBucket::new(0.5, 2.0);
        assert!(b.try_take(1.0));
        assert!(b.try_take(1.0));
        assert!(!b.try_take(1.0), "empty after burst spent");
        b.refill();
        assert!(!b.try_take(1.0), "0.5 tokens is not a full turn");
        b.refill();
        assert!(b.try_take(1.0), "two refills accumulate a turn");
        for _ in 0..100 {
            b.refill();
        }
        assert_eq!(b.tokens(), 2.0, "refill saturates at burst");
    }

    #[test]
    fn bucket_burst_is_at_least_rate() {
        let b = TokenBucket::new(4.0, 1.0);
        assert_eq!(b.tokens(), 4.0, "burst clamps up to rate");
    }
}
