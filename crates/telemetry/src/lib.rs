//! Zero-overhead observability for the PARALEON reproduction.
//!
//! Four primitives, all behind one thread-local registry:
//!
//! * **Counters** ([`Ctr`]) and **gauges** ([`Gauge`]) — fixed enums
//!   indexing `Cell` arrays, so the enabled hot path is an array index
//!   plus an add (low single-digit nanoseconds).
//! * **Histograms** ([`Hist`]) — log-bucketed (HDR-style) distributions
//!   for FCT / RTT / queue depth percentiles; see [`hist::LogHistogram`].
//! * **Time series** — a per-interval `(metric, entity)` append log the
//!   closed loop feeds every λ_MI; see [`series::SeriesStore`].
//! * **Flight recorder** — a bounded ring of typed events (PFC, ECN,
//!   CNP, rate changes, KL triggers, SA accept/reject) dumpable on
//!   demand; see [`flight::FlightRecorder`].
//!
//! The registry starts **disabled**: every instrumentation call is then
//! a thread-local load and a branch. Experiments opt in with
//! [`set_enabled`]`(true)` and stamp simulation time via [`set_time`]
//! so recorded data carries sim clocks, not wall clocks.
//!
//! [`export`] serializes everything to JSONL under `results/` and
//! reads it back, which is how the figure binaries consume telemetry.

use std::cell::{Cell, RefCell};

pub mod export;
pub mod flight;
pub mod hist;
pub mod series;

pub use flight::{DispatchScope, Event, FlightRecorder, TimedEvent};
pub use hist::LogHistogram;
pub use series::{SeriesPoint, SeriesStore};

/// Default flight-recorder capacity (events retained).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

macro_rules! metric_enum {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $variant:ident => $label:literal),+ $(,)? }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum $name {
            $($(#[$vdoc])* $variant),+
        }

        impl $name {
            /// Number of variants (array sizes).
            pub const COUNT: usize = [$($name::$variant),+].len();
            /// Every variant, in index order.
            pub const ALL: [$name; Self::COUNT] = [$($name::$variant),+];

            /// Stable export name.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $label),+
                }
            }
        }
    };
}

metric_enum! {
    /// Monotone event counters (integer adds on the hot path).
    Ctr {
        /// Packets ECN-marked at switch egress.
        EcnMarks => "ecn_marks",
        /// PFC pause frames sent (XOFF).
        PfcXoff => "pfc_xoff",
        /// PFC resume frames sent (XON).
        PfcXon => "pfc_xon",
        /// Packets dropped on buffer overflow.
        Drops => "drops",
        /// CNPs generated by notification points.
        CnpGenerated => "cnp_generated",
        /// CNPs delivered to reaction points.
        CnpReceived => "cnp_received",
        /// DCQCN rate-decrease steps applied.
        RateDecreases => "rate_decreases",
        /// DCQCN rate-increase steps applied.
        RateIncreases => "rate_increases",
        /// KL-divergence FSD triggers fired.
        KlTriggers => "kl_triggers",
        /// SA candidates accepted.
        SaAccepts => "sa_accepts",
        /// SA candidates rejected.
        SaRejects => "sa_rejects",
        /// SA tuning episodes completed.
        SaEpisodes => "sa_episodes",
        /// Parameter dispatches pushed to the fabric.
        Dispatches => "dispatches",
        /// Monitoring intervals collected by the closed loop.
        Intervals => "intervals",
        /// Fault-plan transitions applied by the simulator (link
        /// down/up, degradation, loss injection, PFC storms).
        FaultTransitions => "fault_transitions",
        /// Packets lost to injected faults (dead links, corruption).
        FaultDrops => "fault_drops",
        /// Candidate parameter sets refused by the guardrail.
        GuardrailRejects => "guardrail_rejects",
        /// Rollbacks to last-known-good after post-dispatch collapse.
        GuardrailRollbacks => "guardrail_rollbacks",
        /// Safe-mode entries (tuning frozen, fallback deployed).
        SafeModeEntries => "safe_mode_entries",
        /// Safe-mode exits after backoff expiry.
        SafeModeExits => "safe_mode_exits",
        /// Control-plane impairment transitions applied to the channel.
        CtrlFaults => "ctrl_faults",
        /// Control-plane messages dropped by the channel (both
        /// directions).
        CtrlMsgsLost => "ctrl_msgs_lost",
        /// Extra control-plane message copies injected by the channel.
        CtrlMsgsDuplicated => "ctrl_msgs_duplicated",
        /// Uploads rejected by the controller as duplicates or stale
        /// reorderings.
        CtrlStaleRejected => "ctrl_stale_rejected",
        /// Parameter dispatches resent after an ACK timeout.
        CtrlRetries => "ctrl_retries",
        /// Controller crashes injected by the fault plan.
        CtrlCrashes => "ctrl_crashes",
        /// Post-restore re-assertions of the controller's believed
        /// parameters toward the fabric.
        CtrlResyncs => "ctrl_resyncs",
        /// Fleet: tenants admitted into the service.
        FleetAdmits => "fleet_admits",
        /// Fleet: tenants evicted from the service.
        FleetEvicts => "fleet_evicts",
        /// Fleet: scheduler ticks completed.
        FleetTicks => "fleet_ticks",
    }
}

metric_enum! {
    /// Last-value gauges.
    Gauge {
        /// SA temperature after the most recent step.
        SaTemp => "sa_temp",
        /// Utility of the most recent interval.
        LastUtility => "last_utility",
        /// Flows currently active in the simulator.
        ActiveFlows => "active_flows",
        /// Dominant-flow-type proportion μ from the monitor.
        Mu => "mu",
    }
}

metric_enum! {
    /// Log-bucketed distributions.
    Hist {
        /// Flow completion time, nanoseconds.
        FctNs => "fct_ns",
        /// Per-packet RTT samples, nanoseconds.
        RttNs => "rtt_ns",
        /// Egress queue depth at enqueue, bytes.
        QueueBytes => "queue_bytes",
    }
}

struct Registry {
    enabled: Cell<bool>,
    now_ns: Cell<u64>,
    tenant: Cell<u32>,
    counters: [Cell<u64>; Ctr::COUNT],
    gauges: [Cell<f64>; Gauge::COUNT],
    hists: RefCell<Vec<LogHistogram>>,
    series: RefCell<SeriesStore>,
    flight: RefCell<FlightRecorder>,
    capturing: Cell<bool>,
    capture_at: Cell<u64>,
    capture_key: Cell<u64>,
    capture: RefCell<Vec<Captured>>,
}

impl Registry {
    fn new() -> Self {
        Registry {
            enabled: Cell::new(false),
            now_ns: Cell::new(0),
            tenant: Cell::new(0),
            counters: std::array::from_fn(|_| Cell::new(0)),
            gauges: std::array::from_fn(|_| Cell::new(0.0)),
            hists: RefCell::new((0..Hist::COUNT).map(|_| LogHistogram::new()).collect()),
            series: RefCell::new(SeriesStore::new()),
            flight: RefCell::new(FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)),
            capturing: Cell::new(false),
            capture_at: Cell::new(0),
            capture_key: Cell::new(0),
            capture: RefCell::new(Vec::new()),
        }
    }
}

/// One instrumentation call captured on a shard worker thread instead of
/// being recorded: the parallel simulation engine runs event cores on
/// threads whose registries nobody reads, so — whenever the coordinator
/// would record the replay — every emission there is diverted into a
/// buffer, stamped with the **causal pair** the engine set via
/// [`capture_stamp`] — the handling time and tie-break key of the
/// simulation event being processed — and later replayed on the
/// coordinator thread in global `(at, key)` order, which is exactly the
/// serial engine's emission order.
#[derive(Debug, Clone)]
pub struct Captured {
    /// Handling time of the simulation event that emitted this.
    pub at: u64,
    /// Scheduler tie-break key of that event.
    pub key: u64,
    /// The diverted call.
    pub op: CapturedOp,
}

/// The instrumentation call a [`Captured`] entry diverted. The `Clock`
/// variants are calls that read the registry clock at emission; they
/// re-read it at replay, which matches the serial engine because the
/// clock only moves between (never inside) simulation windows.
#[derive(Debug, Clone)]
pub enum CapturedOp {
    /// [`count_n`].
    Count(Ctr, u64),
    /// [`gauge_set`].
    GaugeSet(Gauge, f64),
    /// [`observe`].
    Observe(Hist, u64),
    /// [`series_at`] (explicit timestamp).
    SeriesAt(&'static str, u32, u64, f64),
    /// [`series()`] (registry clock).
    SeriesClock(&'static str, u32, f64),
    /// [`event_at`] (explicit timestamp).
    EventAt(u64, Event),
    /// [`event`] (registry clock).
    EventClock(Event),
}

/// Start diverting every instrumentation call on this thread into the
/// capture buffer (cleared first), whatever this thread's enabled flag
/// says: whether anything is *recorded* is decided where the buffer is
/// replayed. Capturing costs an allocation-backed push per call and the
/// replay a sort, so the fan-out sites (the parallel engine's
/// `run_until`, the fleet's `tick`) sample the replaying thread's state
/// — [`enabled`], or [`capture_active`] when that thread is itself a
/// worker of an outer fan-out — once **before** starting their workers,
/// and the workers call this only if the replay would go somewhere.
/// With the registry off nothing is captured, shipped or replayed, and a
/// worker's emissions fall into its own disabled registry exactly as
/// they would on the coordinator.
pub fn capture_begin() {
    REGISTRY.with(|r| {
        r.capture.borrow_mut().clear();
        r.capture_at.set(0);
        r.capture_key.set(0);
        r.capturing.set(true);
    });
}

/// Stamp the causal `(handling time, event key)` pair onto subsequent
/// captured calls. The parallel engine calls this once per simulation
/// event it dispatches.
#[inline]
pub fn capture_stamp(at: u64, key: u64) {
    REGISTRY.with(|r| {
        r.capture_at.set(at);
        r.capture_key.set(key);
    });
}

/// Whether this thread is currently capturing.
pub fn capture_active() -> bool {
    REGISTRY.with(|r| r.capturing.get())
}

/// Stop capturing and return the buffer (in emission order).
pub fn capture_take() -> Vec<Captured> {
    REGISTRY.with(|r| {
        r.capturing.set(false);
        std::mem::take(&mut *r.capture.borrow_mut())
    })
}

/// Re-emit captured calls on this thread through the normal entry
/// points (so the enabled flag, companion counters and the flight ring
/// behave exactly as for direct emission). Callers sort by `(at, key)`
/// first to reconstruct serial order.
pub fn capture_replay(items: &[Captured]) {
    for c in items {
        match &c.op {
            CapturedOp::Count(ctr, n) => count_n(*ctr, *n),
            CapturedOp::GaugeSet(g, v) => gauge_set(*g, *v),
            CapturedOp::Observe(h, v) => observe(*h, *v),
            CapturedOp::SeriesAt(m, e, t, v) => series_at(m, *e, *t, *v),
            CapturedOp::SeriesClock(m, e, v) => series(m, *e, *v),
            CapturedOp::EventAt(t, e) => event_at(*t, *e),
            CapturedOp::EventClock(e) => event(*e),
        }
    }
}

fn capture_push(r: &Registry, op: CapturedOp) {
    r.capture.borrow_mut().push(Captured {
        at: r.capture_at.get(),
        key: r.capture_key.get(),
        op,
    });
}

thread_local! {
    static REGISTRY: Registry = Registry::new();
}

/// Whether recording is active on this thread.
#[inline]
pub fn enabled() -> bool {
    REGISTRY.with(|r| r.enabled.get())
}

/// Turn recording on/off for this thread.
pub fn set_enabled(on: bool) {
    REGISTRY.with(|r| r.enabled.set(on));
}

/// Stamp the registry with the current simulation time; subsequent
/// series points and flight events carry this clock.
#[inline]
pub fn set_time(t_ns: u64) {
    REGISTRY.with(|r| r.now_ns.set(t_ns));
}

/// The registry's current simulation time.
pub fn now() -> u64 {
    REGISTRY.with(|r| r.now_ns.get())
}

/// Set the active tenant for this thread. While non-zero, flight events
/// carry the tenant id (routed into that tenant's control-plane lane)
/// and time-series entities are stamped via [`tenant_entity`], so a
/// fleet service multiplexing many fabrics through one registry keeps
/// each tenant's telemetry separable. Tenant 0 is the
/// standalone/default tenant: everything behaves exactly as before.
#[inline]
pub fn set_tenant(t: u32) {
    REGISTRY.with(|r| r.tenant.set(t));
}

/// The active tenant on this thread (0 = standalone/default).
pub fn tenant() -> u32 {
    REGISTRY.with(|r| r.tenant.get())
}

/// The entity id a series point carries for `entity` under `tenant`:
/// the tenant in the high 16 bits, the entity's low 16 bits below.
/// Tenant 0 leaves the entity untouched, and re-stamping an already
/// stamped entity with the same tenant is a no-op — which is what keeps
/// capture-then-replay emission (stamped at capture on a worker, passed
/// through replay on the coordinator) identical to direct emission.
#[inline]
pub fn tenant_entity(tenant: u32, entity: u32) -> u32 {
    if tenant == 0 {
        entity
    } else {
        (tenant << 16) | (entity & 0xFFFF)
    }
}

/// Add 1 to a counter.
#[inline]
pub fn count(c: Ctr) {
    count_n(c, 1);
}

/// Add `n` to a counter.
#[inline]
pub fn count_n(c: Ctr, n: u64) {
    REGISTRY.with(|r| {
        if r.capturing.get() {
            capture_push(r, CapturedOp::Count(c, n));
        } else if r.enabled.get() {
            let cell = &r.counters[c as usize];
            cell.set(cell.get() + n);
        }
    });
}

/// Current value of a counter.
pub fn counter(c: Ctr) -> u64 {
    REGISTRY.with(|r| r.counters[c as usize].get())
}

/// Set a gauge to `v`.
#[inline]
pub fn gauge_set(g: Gauge, v: f64) {
    REGISTRY.with(|r| {
        if r.capturing.get() {
            capture_push(r, CapturedOp::GaugeSet(g, v));
        } else if r.enabled.get() {
            r.gauges[g as usize].set(v);
        }
    });
}

/// Current value of a gauge.
pub fn gauge(g: Gauge) -> f64 {
    REGISTRY.with(|r| r.gauges[g as usize].get())
}

/// Record one value into a histogram.
#[inline]
pub fn observe(h: Hist, v: u64) {
    REGISTRY.with(|r| {
        if r.capturing.get() {
            capture_push(r, CapturedOp::Observe(h, v));
        } else if r.enabled.get() {
            r.hists.borrow_mut()[h as usize].record(v);
        }
    });
}

/// Snapshot (clone) of a histogram.
pub fn histogram(h: Hist) -> LogHistogram {
    REGISTRY.with(|r| r.hists.borrow()[h as usize].clone())
}

/// Append a time-series point at the registry's current sim time.
#[inline]
pub fn series(metric: &'static str, entity: u32, value: f64) {
    REGISTRY.with(|r| {
        let entity = tenant_entity(r.tenant.get(), entity);
        if r.capturing.get() {
            capture_push(r, CapturedOp::SeriesClock(metric, entity, value));
        } else if r.enabled.get() {
            r.series
                .borrow_mut()
                .push(metric, entity, r.now_ns.get(), value);
        }
    });
}

/// Append a time-series point at an explicit simulation time.
#[inline]
pub fn series_at(metric: &'static str, entity: u32, t_ns: u64, value: f64) {
    REGISTRY.with(|r| {
        let entity = tenant_entity(r.tenant.get(), entity);
        if r.capturing.get() {
            capture_push(r, CapturedOp::SeriesAt(metric, entity, t_ns, value));
        } else if r.enabled.get() {
            r.series.borrow_mut().push(metric, entity, t_ns, value);
        }
    });
}

fn companion_counter(e: &Event) -> Ctr {
    match e {
        Event::EcnMark { .. } => Ctr::EcnMarks,
        Event::PfcXoff { .. } => Ctr::PfcXoff,
        Event::PfcXon { .. } => Ctr::PfcXon,
        Event::CnpSent { .. } => Ctr::CnpGenerated,
        Event::RateDecrease { .. } => Ctr::RateDecreases,
        Event::RateIncrease => Ctr::RateIncreases,
        Event::KlTrigger { .. } => Ctr::KlTriggers,
        Event::SaAccept { .. } => Ctr::SaAccepts,
        Event::SaReject { .. } => Ctr::SaRejects,
        Event::SaEpisodeEnd { .. } => Ctr::SaEpisodes,
        Event::Dispatch { .. } => Ctr::Dispatches,
        Event::FaultLinkDown { .. }
        | Event::FaultLinkUp { .. }
        | Event::FaultDegrade { .. }
        | Event::FaultPktLoss { .. }
        | Event::PfcStormStart { .. }
        | Event::PfcStormEnd { .. } => Ctr::FaultTransitions,
        Event::GuardrailReject => Ctr::GuardrailRejects,
        Event::GuardrailRollback => Ctr::GuardrailRollbacks,
        Event::SafeModeEnter { .. } => Ctr::SafeModeEntries,
        Event::SafeModeExit => Ctr::SafeModeExits,
        Event::CtrlImpairSet { .. } => Ctr::CtrlFaults,
        Event::CtrlCrash { .. } => Ctr::CtrlCrashes,
        Event::CtrlRetry { .. } => Ctr::CtrlRetries,
        Event::CtrlResync { .. } => Ctr::CtrlResyncs,
    }
}

/// Record a typed event in the flight recorder (stamped with the
/// registry clock) and bump its companion counter.
#[inline]
pub fn event(e: Event) {
    REGISTRY.with(|r| {
        if r.capturing.get() {
            capture_push(r, CapturedOp::EventClock(e));
            return;
        }
        if !r.enabled.get() {
            return;
        }
        record_event(r, r.now_ns.get(), e);
    });
}

/// Record a typed event stamped with an explicit simulation time. Hot
/// loops that already carry a clock (the packet simulator) use this
/// instead of maintaining the registry clock per event.
#[inline]
pub fn event_at(t_ns: u64, e: Event) {
    REGISTRY.with(|r| {
        if r.capturing.get() {
            capture_push(r, CapturedOp::EventAt(t_ns, e));
            return;
        }
        if !r.enabled.get() {
            return;
        }
        record_event(r, t_ns, e);
    });
}

fn record_event(r: &Registry, t_ns: u64, e: Event) {
    let cell = &r.counters[companion_counter(&e) as usize];
    cell.set(cell.get() + 1);
    r.flight.borrow_mut().push(t_ns, r.tenant.get(), e);
}

/// Dump the flight recorder (oldest first).
pub fn flight_events() -> Vec<TimedEvent> {
    REGISTRY.with(|r| r.flight.borrow().events().copied().collect())
}

/// Events the flight recorder evicted because its ring was full.
pub fn flight_dropped() -> u64 {
    REGISTRY.with(|r| r.flight.borrow().dropped())
}

/// All time-series points in append order.
pub fn series_points() -> Vec<SeriesPoint> {
    REGISTRY.with(|r| r.series.borrow().points().to_vec())
}

/// Points for one `(metric, entity)` series, in time order.
pub fn series_get(metric: &str, entity: u32) -> Vec<SeriesPoint> {
    REGISTRY.with(|r| r.series.borrow().get(metric, entity))
}

/// All counters as `(name, value)` pairs, including zeros.
pub fn counters_snapshot() -> Vec<(&'static str, u64)> {
    REGISTRY.with(|r| {
        Ctr::ALL
            .iter()
            .map(|&c| (c.name(), r.counters[c as usize].get()))
            .collect()
    })
}

/// All gauges as `(name, value)` pairs.
pub fn gauges_snapshot() -> Vec<(&'static str, f64)> {
    REGISTRY.with(|r| {
        Gauge::ALL
            .iter()
            .map(|&g| (g.name(), r.gauges[g as usize].get()))
            .collect()
    })
}

/// Clear all recorded data (counters, gauges, histograms, series,
/// flight recorder). Leaves the enabled flag and clock untouched.
pub fn reset() {
    REGISTRY.with(|r| {
        for c in &r.counters {
            c.set(0);
        }
        for g in &r.gauges {
            g.set(0.0);
        }
        for h in r.hists.borrow_mut().iter_mut() {
            h.clear();
        }
        r.series.borrow_mut().clear();
        r.flight.borrow_mut().clear();
    });
}

/// Byte-level accounting of the registry, for overhead tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryFootprint {
    /// Counter cells.
    pub counters_bytes: usize,
    /// Gauge cells.
    pub gauges_bytes: usize,
    /// All histograms (bucket arrays included).
    pub histograms_bytes: usize,
    /// Time-series append log (capacity-based).
    pub series_bytes: usize,
    /// Flight-recorder ring (capacity-based).
    pub flight_bytes: usize,
}

impl MemoryFootprint {
    /// Total bytes across all components.
    pub fn total(&self) -> usize {
        self.counters_bytes
            + self.gauges_bytes
            + self.histograms_bytes
            + self.series_bytes
            + self.flight_bytes
    }

    /// Fixed cost per tracked counter/gauge metric.
    pub fn bytes_per_counter(&self) -> usize {
        self.counters_bytes / Ctr::COUNT
    }

    /// Fixed cost per tracked histogram.
    pub fn bytes_per_histogram(&self) -> usize {
        self.histograms_bytes / Hist::COUNT
    }

    /// Cost per retained flight-recorder event slot.
    pub fn bytes_per_event(&self) -> usize {
        std::mem::size_of::<TimedEvent>()
    }

    /// Cost per stored time-series point.
    pub fn bytes_per_series_point(&self) -> usize {
        std::mem::size_of::<SeriesPoint>()
    }
}

/// Measure the registry's current memory footprint.
pub fn memory_footprint() -> MemoryFootprint {
    REGISTRY.with(|r| MemoryFootprint {
        counters_bytes: std::mem::size_of_val(&r.counters),
        gauges_bytes: std::mem::size_of_val(&r.gauges),
        histograms_bytes: r.hists.borrow().iter().map(|h| h.memory_bytes()).sum(),
        series_bytes: r.series.borrow().memory_bytes(),
        flight_bytes: r.flight.borrow().memory_bytes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() {
        reset();
        set_enabled(true);
        set_time(0);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        reset();
        set_enabled(false);
        count(Ctr::EcnMarks);
        observe(Hist::RttNs, 100);
        series("goodput_gbps", 0, 1.0);
        event(Event::KlTrigger {
            kl: 0.5,
            theta: 0.01,
        });
        assert_eq!(counter(Ctr::EcnMarks), 0);
        assert_eq!(counter(Ctr::KlTriggers), 0);
        assert_eq!(histogram(Hist::RttNs).count(), 0);
        assert!(series_points().is_empty());
        assert!(flight_events().is_empty());
    }

    #[test]
    fn counters_gauges_and_hists_record_when_enabled() {
        fresh();
        count(Ctr::EcnMarks);
        count_n(Ctr::EcnMarks, 4);
        gauge_set(Gauge::SaTemp, 37.5);
        observe(Hist::FctNs, 1_000);
        observe(Hist::FctNs, 2_000);
        assert_eq!(counter(Ctr::EcnMarks), 5);
        assert_eq!(gauge(Gauge::SaTemp), 37.5);
        assert_eq!(histogram(Hist::FctNs).count(), 2);
        set_enabled(false);
    }

    #[test]
    fn events_stamp_time_and_bump_companion_counters() {
        fresh();
        set_time(42);
        event(Event::SaAccept {
            temp: 9.0,
            utility: 0.8,
        });
        event(Event::SaReject {
            temp: 8.0,
            utility: 0.7,
        });
        set_time(99);
        event(Event::Dispatch {
            scope: DispatchScope::Global,
        });
        event_at(7, Event::RateIncrease);
        let evs = flight_events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].t_ns, 42);
        assert_eq!(evs[2].t_ns, 7, "event_at bypasses the registry clock");
        assert_eq!(evs[3].t_ns, 99, "control-plane lane merges in by timestamp");
        assert_eq!(counter(Ctr::SaAccepts), 1);
        assert_eq!(counter(Ctr::SaRejects), 1);
        assert_eq!(counter(Ctr::Dispatches), 1);
        assert_eq!(counter(Ctr::RateIncreases), 1);
        set_enabled(false);
    }

    #[test]
    fn series_uses_registry_clock() {
        fresh();
        set_time(1_000);
        series("utility", 0, 0.5);
        set_time(2_000);
        series("utility", 0, 0.6);
        series("queue_frac", 3, 0.1);
        let pts = series_get("utility", 0);
        assert_eq!(pts.len(), 2);
        assert_eq!((pts[0].t_ns, pts[0].value), (1_000, 0.5));
        assert_eq!((pts[1].t_ns, pts[1].value), (2_000, 0.6));
        assert_eq!(series_get("queue_frac", 3).len(), 1);
        set_enabled(false);
    }

    #[test]
    fn tenant_dimension_stamps_series_and_routes_events() {
        fresh();
        // Tenant 0: everything unchanged.
        series("utility", 3, 0.1);
        assert_eq!(series_get("utility", 3).len(), 1);
        // Tenant 7: entity stamped into the high bits, events tagged.
        set_tenant(7);
        series("utility", 3, 0.2);
        event(Event::GuardrailRollback);
        set_tenant(0);
        event(Event::RateIncrease);
        let stamped = tenant_entity(7, 3);
        assert_eq!(stamped, (7 << 16) | 3);
        assert_eq!(series_get("utility", stamped).len(), 1);
        assert_eq!(
            series_get("utility", 3).len(),
            1,
            "tenant 7's point must not collide with tenant 0's entity 3"
        );
        // Re-stamping an already stamped entity is a no-op (replay path).
        assert_eq!(tenant_entity(7, stamped), stamped);
        let evs = flight_events();
        let tenants: Vec<u32> = evs.iter().map(|e| e.tenant).collect();
        assert_eq!(tenants, vec![7, 0]);
        set_enabled(false);
    }

    #[test]
    fn footprint_accounts_all_components() {
        fresh();
        for i in 0..100 {
            series("m", 0, i as f64);
        }
        let fp = memory_footprint();
        assert!(fp.counters_bytes >= Ctr::COUNT * 8);
        assert!(fp.histograms_bytes >= Hist::COUNT * hist::NUM_BUCKETS * 8);
        assert!(fp.series_bytes >= 100 * std::mem::size_of::<SeriesPoint>());
        assert!(fp.total() > fp.histograms_bytes);
        assert!(fp.bytes_per_event() > 0 && fp.bytes_per_series_point() > 0);
        set_enabled(false);
    }

    #[test]
    fn reset_clears_everything() {
        fresh();
        count(Ctr::Drops);
        observe(Hist::QueueBytes, 512);
        series("m", 0, 1.0);
        event(Event::RateIncrease);
        reset();
        assert_eq!(counter(Ctr::Drops), 0);
        assert_eq!(histogram(Hist::QueueBytes).count(), 0);
        assert!(series_points().is_empty());
        assert!(flight_events().is_empty());
        set_enabled(false);
    }
}
