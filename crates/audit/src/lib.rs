//! Runtime invariant auditor for the PARALEON stack.
//!
//! Every figure the repo reproduces rests on accounting invariants the
//! simulator only implicitly maintains: packet conservation, shared-buffer
//! occupancy, PFC XOFF/XON pairing, DCQCN rate bounds, utility-term
//! ranges. A silent violation corrupts the Eq. (1) utility terms without
//! failing a single test, so this crate gives every layer a cheap way to
//! assert its invariants at runtime.
//!
//! The crate follows the same fold-away discipline as `paraleon-telemetry`,
//! with the inverse polarity: auditing is **opt-in** via the `enabled`
//! cargo feature. With the feature off (the default), every entry point is
//! an empty `#[inline(always)]` function and every audit-state type is a
//! zero-sized struct — the hot path pays nothing, not even a branch. With
//! the feature on, a thread-local registry collects typed
//! [`AuditViolation`]s, each with the telemetry flight-recorder tail
//! attached for post-mortem context.
//!
//! Violation handling is mode-dependent: in debug builds (and CI jobs that
//! compile with `-C debug-assertions`) a violation panics at the detection
//! site; in release builds it increments a counter that harnesses check at
//! the end of a run. Both behaviors can be overridden per-thread with
//! [`set_panic_on_violation`].

#[cfg(feature = "enabled")]
use std::cell::{Cell, RefCell};

use paraleon_telemetry::TimedEvent;

/// How many violations the registry keeps with full context. Counting
/// continues past this; only the stored reports are bounded.
#[cfg(feature = "enabled")]
const MAX_KEPT: usize = 64;

/// How many flight-recorder events are attached to each violation.
#[cfg(feature = "enabled")]
const TAIL_LEN: usize = 16;

/// `true` when the crate was built with the `enabled` feature. `const`,
/// so `if !compiled_in() { return; }` folds the guarded code away.
pub const fn compiled_in() -> bool {
    cfg!(feature = "enabled")
}

/// A typed invariant violation. Variants carry enough state to diagnose
/// the break without re-running; the flight tail supplies the lead-up.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditViolation {
    /// A flow delivered/dropped more bytes' worth of packets than it
    /// injected (double-free or mis-attributed slot recycling).
    PacketConservation {
        /// Flow id whose tally went negative.
        flow: u64,
        /// Packets injected into the arena for this flow.
        injected: u64,
        /// Packets consumed at the destination.
        delivered: u64,
        /// Packets dropped (buffer overflow, fault, no route).
        dropped: u64,
    },
    /// The per-flow tallies no longer sum to the arena's live count
    /// (a packet entered or left the pool without passing an audit hook).
    PoolAccounting {
        /// Σ over flows of (injected − delivered − dropped).
        tracked_in_flight: u64,
        /// What the arena itself reports as live.
        pool_in_flight: u64,
    },
    /// A switch's shared-buffer occupancy disagrees with the sum of its
    /// queued bytes or its per-ingress accounting.
    BufferAccounting {
        /// Switch node id.
        switch: u32,
        /// The switch's `buffer_used` counter.
        buffer_used: u64,
        /// Σ of lossless-class `qbytes` over ports.
        queued: u64,
        /// Σ of `ingress_bytes` over ingress ports.
        ingress: u64,
    },
    /// A switch's occupancy exceeds the configured shared-buffer size.
    BufferOverflow {
        /// Switch node id.
        switch: u32,
        /// The switch's `buffer_used` counter.
        buffer_used: u64,
        /// Configured shared-buffer capacity.
        buffer_total: u64,
    },
    /// A per-(port, class) byte counter disagrees with the wire bytes of
    /// the packets actually sitting in that queue.
    QueueAccounting {
        /// Switch node id.
        switch: u32,
        /// Egress port index.
        port: u32,
        /// Traffic class index.
        class: u32,
        /// The maintained `qbytes` counter.
        qbytes: u64,
        /// Σ wire bytes of the queue's entries.
        queued: u64,
    },
    /// XOFF sent on an ingress that already has an open pause interval.
    PfcDoubleXoff {
        /// Switch that emitted the pause.
        switch: u32,
        /// Ingress port it paused.
        port: u32,
    },
    /// XON sent on an ingress with no open pause interval.
    PfcUnpairedXon {
        /// Switch that emitted the resume.
        switch: u32,
        /// Ingress port it resumed.
        port: u32,
    },
    /// A paused egress dequeued lossless-class traffic.
    PfcPausedDequeue {
        /// Node whose egress violated the pause.
        node: u32,
        /// Egress port index (0 for hosts).
        port: u32,
    },
    /// Accumulated pause time exceeded the wall-clock budget for the
    /// interval (per port: dt; per node: dt × ports).
    PfcPauseOverflow {
        /// Node whose pause accounting overflowed.
        node: u32,
        /// Accumulated pause nanoseconds this interval.
        pause_ns: u64,
        /// Maximum legitimately accumulable nanoseconds.
        budget_ns: u64,
    },
    /// The calendar queue ran time backwards, or popped the exact same
    /// `(time, seq)` twice in a row (duplicate causal key).
    EventOrder {
        /// Timestamp of the previously popped event.
        prev_at: u64,
        /// Sequence number of the previously popped event.
        prev_seq: u64,
        /// Timestamp of the offending pop.
        at: u64,
        /// Sequence number of the offending pop.
        seq: u64,
    },
    /// DCQCN rate bounds broken: `min_rate ≤ R_C ≤ R_T ≤ line_rate`.
    RateBounds {
        /// Current rate R_C, bytes/sec.
        rate_current: f64,
        /// Target rate R_T, bytes/sec.
        rate_target: f64,
        /// Configured minimum rate, bytes/sec.
        min_rate: f64,
        /// Link line rate, bytes/sec.
        line_rate: f64,
    },
    /// DCQCN α left `[0, 1]`.
    AlphaBounds {
        /// The offending α.
        alpha: f64,
    },
    /// A utility term left `[0, 1]` before clamping.
    UtilityTermBounds {
        /// Which term ("O_TP", "O_RTT", "O_PFC", "U").
        term: &'static str,
        /// The raw out-of-range value.
        value: f64,
    },
    /// A monitor upload was not aligned to a λ_MI boundary.
    MiBoundary {
        /// Interval start, ns.
        start: u64,
        /// Interval end (collection instant), ns.
        end: u64,
        /// Configured monitor interval, ns.
        lambda_mi: u64,
    },
    /// A parallel shard reached a collection barrier with undelivered
    /// cross-shard handoffs still sitting in its outboxes — packets (or
    /// pause frames) that belong to no arena and would silently break
    /// conservation across the cut.
    CrossShardResidue {
        /// The shard holding the residue.
        shard: u32,
        /// Undelivered handoff messages.
        pending: u64,
    },
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use AuditViolation::*;
        match self {
            PacketConservation {
                flow,
                injected,
                delivered,
                dropped,
            } => write!(
                f,
                "packet conservation: flow {flow} injected {injected} < delivered {delivered} + dropped {dropped}"
            ),
            PoolAccounting {
                tracked_in_flight,
                pool_in_flight,
            } => write!(
                f,
                "pool accounting: tallies say {tracked_in_flight} in flight, arena says {pool_in_flight}"
            ),
            BufferAccounting {
                switch,
                buffer_used,
                queued,
                ingress,
            } => write!(
                f,
                "buffer accounting: switch {switch} buffer_used {buffer_used} != queued {queued} (ingress sum {ingress})"
            ),
            BufferOverflow {
                switch,
                buffer_used,
                buffer_total,
            } => write!(
                f,
                "buffer overflow: switch {switch} buffer_used {buffer_used} > capacity {buffer_total}"
            ),
            QueueAccounting {
                switch,
                port,
                class,
                qbytes,
                queued,
            } => write!(
                f,
                "queue accounting: switch {switch} port {port} class {class} qbytes {qbytes} != queued {queued}"
            ),
            PfcDoubleXoff { switch, port } => {
                write!(f, "pfc pairing: switch {switch} re-XOFFed paused ingress {port}")
            }
            PfcUnpairedXon { switch, port } => {
                write!(f, "pfc pairing: switch {switch} XONed unpaused ingress {port}")
            }
            PfcPausedDequeue { node, port } => write!(
                f,
                "pfc pause: node {node} dequeued lossless traffic from paused egress {port}"
            ),
            PfcPauseOverflow {
                node,
                pause_ns,
                budget_ns,
            } => write!(
                f,
                "pfc pause: node {node} accumulated {pause_ns}ns pause > budget {budget_ns}ns"
            ),
            EventOrder {
                prev_at,
                prev_seq,
                at,
                seq,
            } => write!(
                f,
                "event order: popped (t={at}, seq={seq}) after (t={prev_at}, seq={prev_seq})"
            ),
            RateBounds {
                rate_current,
                rate_target,
                min_rate,
                line_rate,
            } => write!(
                f,
                "dcqcn rate bounds: require min {min_rate:.3e} <= R_C {rate_current:.3e} <= R_T {rate_target:.3e} <= line {line_rate:.3e}"
            ),
            AlphaBounds { alpha } => write!(f, "dcqcn alpha {alpha} outside [0, 1]"),
            UtilityTermBounds { term, value } => {
                write!(f, "utility term {term} = {value} outside [0, 1]")
            }
            MiBoundary {
                start,
                end,
                lambda_mi,
            } => write!(
                f,
                "monitor upload [{start}, {end}] not aligned to lambda_MI {lambda_mi}"
            ),
            CrossShardResidue { shard, pending } => write!(
                f,
                "shard {shard} reached a barrier with {pending} undelivered cross-shard handoffs"
            ),
        }
    }
}

/// A recorded violation plus the flight-recorder tail at detection time.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// The violated invariant.
    pub violation: AuditViolation,
    /// Last `TAIL_LEN` (16) telemetry flight events before detection
    /// (empty when telemetry is disabled).
    pub flight_tail: Vec<TimedEvent>,
}

#[cfg(feature = "enabled")]
struct Registry {
    active: Cell<bool>,
    panic_on_violation: Cell<bool>,
    count: Cell<u64>,
    reports: RefCell<Vec<AuditReport>>,
}

#[cfg(feature = "enabled")]
thread_local! {
    static REGISTRY: Registry = const {
        Registry {
            // Audited builds audit by default: probes and CI jobs need no
            // setup call, and the differential harness opts out explicitly.
            active: Cell::new(true),
            panic_on_violation: Cell::new(cfg!(debug_assertions)),
            count: Cell::new(0),
            reports: RefCell::new(Vec::new()),
        }
    };
}

/// Whether auditing is live on this thread (compiled in AND not
/// runtime-disabled). Callers with non-trivial check bodies should gate
/// on this; with the feature off it is `const false` and the guarded
/// code folds away.
#[inline(always)]
pub fn enabled() -> bool {
    #[cfg(feature = "enabled")]
    {
        REGISTRY.with(|r| r.active.get())
    }
    #[cfg(not(feature = "enabled"))]
    {
        false
    }
}

/// Runtime kill-switch for this thread's auditing (reporting side only:
/// state hooks keep tallying so re-enabling never sees torn state).
pub fn set_enabled(on: bool) {
    #[cfg(feature = "enabled")]
    REGISTRY.with(|r| r.active.set(on));
    #[cfg(not(feature = "enabled"))]
    let _ = on;
}

/// Override the violation disposition for this thread: `true` panics at
/// the detection site (debug default), `false` counts and continues
/// (release default). Unit tests that *expect* violations use this.
pub fn set_panic_on_violation(on: bool) {
    #[cfg(feature = "enabled")]
    REGISTRY.with(|r| r.panic_on_violation.set(on));
    #[cfg(not(feature = "enabled"))]
    let _ = on;
}

/// Current violation disposition for this thread (`true` = panic at the
/// detection site). The parallel engine's coordinator reads this to
/// propagate its own disposition onto worker threads, whose thread-local
/// registries otherwise start from the build-profile default.
pub fn panic_on_violation() -> bool {
    #[cfg(feature = "enabled")]
    {
        REGISTRY.with(|r| r.panic_on_violation.get())
    }
    #[cfg(not(feature = "enabled"))]
    {
        cfg!(debug_assertions)
    }
}

/// Total violations reported on this thread since the last [`reset`].
pub fn violation_count() -> u64 {
    #[cfg(feature = "enabled")]
    {
        REGISTRY.with(|r| r.count.get())
    }
    #[cfg(not(feature = "enabled"))]
    {
        0
    }
}

/// The recorded violations (bounded; the count keeps going past the
/// storage cap).
pub fn violations() -> Vec<AuditReport> {
    #[cfg(feature = "enabled")]
    {
        REGISTRY.with(|r| r.reports.borrow().clone())
    }
    #[cfg(not(feature = "enabled"))]
    {
        Vec::new()
    }
}

/// Clear this thread's violation count and stored reports.
pub fn reset() {
    #[cfg(feature = "enabled")]
    REGISTRY.with(|r| {
        r.count.set(0);
        r.reports.borrow_mut().clear();
    });
}

/// Atomically take this thread's violation count and stored reports,
/// leaving the registry empty. Harnesses that evaluate several runs in
/// one process (e.g. the anomaly hunter) drain per run so violations
/// never leak across run boundaries.
pub fn drain() -> (u64, Vec<AuditReport>) {
    #[cfg(feature = "enabled")]
    {
        REGISTRY.with(|r| {
            let n = r.count.replace(0);
            let reports = std::mem::take(&mut *r.reports.borrow_mut());
            (n, reports)
        })
    }
    #[cfg(not(feature = "enabled"))]
    {
        (0, Vec::new())
    }
}

/// Merge violations drained on another thread into this thread's
/// registry — the parallel engine's epoch barrier folds each worker
/// shard's tallies back into the coordinator so `violation_count()` /
/// `violations()` observed by the harness match a serial run. Respects
/// the storage cap; the count is always added in full.
pub fn absorb(count: u64, reports: Vec<AuditReport>) {
    #[cfg(feature = "enabled")]
    REGISTRY.with(|r| {
        r.count.set(r.count.get() + count);
        let mut kept = r.reports.borrow_mut();
        for rep in reports {
            if kept.len() >= MAX_KEPT {
                break;
            }
            kept.push(rep);
        }
    });
    #[cfg(not(feature = "enabled"))]
    let _ = (count, reports);
}

/// Record a violation: count it, attach the flight tail, and either
/// panic (debug/CI) or continue (release).
pub fn report(violation: AuditViolation) {
    #[cfg(feature = "enabled")]
    {
        let tail = {
            let mut ev = paraleon_telemetry::flight_events();
            if ev.len() > TAIL_LEN {
                ev.drain(..ev.len() - TAIL_LEN);
            }
            ev
        };
        let panic_now = REGISTRY.with(|r| {
            r.count.set(r.count.get() + 1);
            let mut reports = r.reports.borrow_mut();
            if reports.len() < MAX_KEPT {
                reports.push(AuditReport {
                    violation: violation.clone(),
                    flight_tail: tail.clone(),
                });
            }
            r.panic_on_violation.get()
        });
        if panic_now {
            let mut msg = format!(
                "audit violation: {violation}\nflight tail ({} events):",
                tail.len()
            );
            for te in &tail {
                msg.push_str(&format!("\n  {te:?}"));
            }
            panic!("{msg}");
        }
    }
    #[cfg(not(feature = "enabled"))]
    let _ = violation;
}

/// Assert `ok`, lazily building the violation on failure. The closure is
/// never evaluated when the check passes or auditing is off, so call
/// sites can capture context for free.
#[inline(always)]
pub fn check(ok: bool, make: impl FnOnce() -> AuditViolation) {
    #[cfg(feature = "enabled")]
    if !ok && enabled() {
        report(make());
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (ok, &make);
    }
}

/// Per-flow packet-conservation tallies, embedded in the packet arena.
/// ZST when the feature is off.
#[derive(Debug, Default)]
pub struct ConservationAudit {
    #[cfg(feature = "enabled")]
    flows: std::collections::HashMap<u64, FlowTally>,
}

#[cfg(feature = "enabled")]
#[derive(Debug, Default, Clone, Copy)]
struct FlowTally {
    injected: u64,
    delivered: u64,
    dropped: u64,
}

impl ConservationAudit {
    /// A packet of `flow` entered the arena.
    #[inline(always)]
    pub fn injected(&mut self, flow: u64) {
        #[cfg(feature = "enabled")]
        {
            self.flows.entry(flow).or_default().injected += 1;
        }
        #[cfg(not(feature = "enabled"))]
        let _ = flow;
    }

    /// A packet of `flow` was consumed at its destination.
    #[inline(always)]
    pub fn delivered(&mut self, flow: u64) {
        #[cfg(feature = "enabled")]
        {
            let t = self.flows.entry(flow).or_default();
            t.delivered += 1;
            check(t.delivered + t.dropped <= t.injected, || {
                AuditViolation::PacketConservation {
                    flow,
                    injected: t.injected,
                    delivered: t.delivered,
                    dropped: t.dropped,
                }
            });
        }
        #[cfg(not(feature = "enabled"))]
        let _ = flow;
    }

    /// A packet of `flow` was dropped (buffer overflow, fault, no route).
    #[inline(always)]
    pub fn dropped(&mut self, flow: u64) {
        #[cfg(feature = "enabled")]
        {
            let t = self.flows.entry(flow).or_default();
            t.dropped += 1;
            check(t.delivered + t.dropped <= t.injected, || {
                AuditViolation::PacketConservation {
                    flow,
                    injected: t.injected,
                    delivered: t.delivered,
                    dropped: t.dropped,
                }
            });
        }
        #[cfg(not(feature = "enabled"))]
        let _ = flow;
    }

    /// Σ over flows of (injected − delivered − dropped): what the tallies
    /// say is still in flight.
    pub fn tracked_in_flight(&self) -> u64 {
        #[cfg(feature = "enabled")]
        {
            self.flows
                .values()
                .map(|t| t.injected - t.delivered - t.dropped)
                .sum()
        }
        #[cfg(not(feature = "enabled"))]
        {
            0
        }
    }

    /// Cross-check the tallies against the arena's own live count.
    #[inline(always)]
    pub fn check_pool(&self, pool_in_flight: u64) {
        #[cfg(feature = "enabled")]
        {
            let tracked = self.tracked_in_flight();
            check(tracked == pool_in_flight, || {
                AuditViolation::PoolAccounting {
                    tracked_in_flight: tracked,
                    pool_in_flight,
                }
            });
        }
        #[cfg(not(feature = "enabled"))]
        let _ = pool_in_flight;
    }
}

/// XOFF/XON pairing mirror: one open-pause bit per (switch, ingress
/// port), updated at the emission sites. ZST when the feature is off.
#[derive(Debug, Default)]
pub struct PfcPairAudit {
    #[cfg(feature = "enabled")]
    open: std::collections::HashSet<(u32, u32)>,
}

impl PfcPairAudit {
    /// `switch` paused ingress `port`. Flags a double XOFF.
    #[inline(always)]
    pub fn xoff(&mut self, switch: u32, port: u32) {
        #[cfg(feature = "enabled")]
        {
            let fresh = self.open.insert((switch, port));
            check(fresh, || AuditViolation::PfcDoubleXoff { switch, port });
        }
        #[cfg(not(feature = "enabled"))]
        let _ = (switch, port);
    }

    /// `switch` resumed ingress `port`. Flags an unpaired XON.
    #[inline(always)]
    pub fn xon(&mut self, switch: u32, port: u32) {
        #[cfg(feature = "enabled")]
        {
            let was_open = self.open.remove(&(switch, port));
            check(was_open, || AuditViolation::PfcUnpairedXon { switch, port });
        }
        #[cfg(not(feature = "enabled"))]
        let _ = (switch, port);
    }

    /// Number of currently open pause intervals (XOFF without XON yet —
    /// legal mid-run, every one must eventually close or persist to the
    /// end of the run as an open interval).
    pub fn open_pauses(&self) -> usize {
        #[cfg(feature = "enabled")]
        {
            self.open.len()
        }
        #[cfg(not(feature = "enabled"))]
        {
            0
        }
    }
}

/// Pop-order monitor for the event scheduler: popped timestamps must
/// never decrease, and no `(time, seq)` pair may pop twice in a row
/// (duplicate causal key). Same-time pops with a *smaller* key are
/// legal and expected under causal keys: a handler (or a mid-run API
/// call such as `add_flow` at a collection boundary) may insert an
/// event at the current instant whose key is below an already-popped
/// one — the scheduler's promise is min-`(time, key)` over the events
/// *pending at pop time*, which only a differential test against a
/// reference heap can check (`scheduler_differential.rs` does). ZST
/// when the feature is off.
#[derive(Debug, Default, Clone)]
pub struct OrderAudit {
    #[cfg(feature = "enabled")]
    last: Option<(u64, u64)>,
}

impl OrderAudit {
    /// Observe one popped `(at, seq)`.
    #[inline(always)]
    pub fn observe(&mut self, at: u64, seq: u64) {
        #[cfg(feature = "enabled")]
        {
            if let Some((prev_at, prev_seq)) = self.last {
                check(at > prev_at || (at == prev_at && seq != prev_seq), || {
                    AuditViolation::EventOrder {
                        prev_at,
                        prev_seq,
                        at,
                        seq,
                    }
                });
            }
            self.last = Some((at, seq));
        }
        #[cfg(not(feature = "enabled"))]
        let _ = (at, seq);
    }

    /// Forget the last observation (queue cleared / reused).
    pub fn reset(&mut self) {
        #[cfg(feature = "enabled")]
        {
            self.last = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_crate_folds_to_nothing() {
        if compiled_in() {
            return; // covered by the enabled-feature tests below
        }
        assert!(!enabled());
        report(AuditViolation::AlphaBounds { alpha: 2.0 });
        assert_eq!(violation_count(), 0);
        assert!(violations().is_empty());
        assert_eq!(std::mem::size_of::<ConservationAudit>(), 0);
        assert_eq!(std::mem::size_of::<PfcPairAudit>(), 0);
        assert_eq!(std::mem::size_of::<OrderAudit>(), 0);
    }

    #[cfg(feature = "enabled")]
    mod enabled {
        use super::super::*;

        fn fresh() {
            reset();
            set_enabled(true);
            set_panic_on_violation(false);
        }

        #[test]
        fn counts_and_stores_violations() {
            fresh();
            report(AuditViolation::AlphaBounds { alpha: 1.5 });
            assert_eq!(violation_count(), 1);
            let v = violations();
            assert_eq!(v.len(), 1);
            assert_eq!(v[0].violation, AuditViolation::AlphaBounds { alpha: 1.5 });
            reset();
            assert_eq!(violation_count(), 0);
        }

        #[test]
        #[should_panic(expected = "audit violation")]
        fn panics_when_asked() {
            fresh();
            set_panic_on_violation(true);
            report(AuditViolation::AlphaBounds { alpha: -0.1 });
        }

        #[test]
        fn check_is_lazy_and_gated() {
            fresh();
            check(true, || unreachable!("closure must not run on pass"));
            set_enabled(false);
            check(false, || AuditViolation::AlphaBounds { alpha: 9.0 });
            assert_eq!(violation_count(), 0, "disabled thread must not report");
            set_enabled(true);
            check(false, || AuditViolation::AlphaBounds { alpha: 9.0 });
            assert_eq!(violation_count(), 1);
        }

        #[test]
        fn conservation_tallies_flag_overdraw() {
            fresh();
            let mut c = ConservationAudit::default();
            c.injected(7);
            c.injected(7);
            c.delivered(7);
            c.dropped(7);
            assert_eq!(violation_count(), 0);
            assert_eq!(c.tracked_in_flight(), 0);
            c.check_pool(0);
            assert_eq!(violation_count(), 0);
            c.delivered(7); // third exit for two entries
            assert_eq!(violation_count(), 1);
        }

        #[test]
        fn pool_cross_check_flags_mismatch() {
            fresh();
            let mut c = ConservationAudit::default();
            c.injected(1);
            c.check_pool(2);
            assert_eq!(violation_count(), 1);
        }

        #[test]
        fn pfc_pairing_flags_double_xoff_and_unpaired_xon() {
            fresh();
            let mut p = PfcPairAudit::default();
            p.xoff(3, 1);
            assert_eq!(p.open_pauses(), 1);
            p.xoff(3, 1);
            assert_eq!(violation_count(), 1);
            p.xon(3, 1);
            assert_eq!(p.open_pauses(), 0);
            p.xon(3, 1);
            assert_eq!(violation_count(), 2);
        }

        #[test]
        fn order_audit_flags_regression() {
            fresh();
            let mut o = OrderAudit::default();
            o.observe(10, 0);
            o.observe(10, 1);
            o.observe(11, 5);
            // Same time, smaller key: a causal child or mid-run API
            // insertion at the current instant — legal.
            o.observe(11, 0);
            assert_eq!(violation_count(), 0);
            o.observe(11, 0); // exact duplicate (time, key) pop
            assert_eq!(violation_count(), 1);
            o.observe(5, 9); // time went backwards
            assert_eq!(violation_count(), 2);
        }
    }
}
