//! Bounded flight recorder: a ring buffer of typed control-plane and
//! data-plane events, dumpable on demand for post-mortem analysis.

use std::collections::{BTreeMap, VecDeque};

/// Which layer an adaptive dispatch targeted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchScope {
    /// One parameter set applied to every RNIC and switch.
    Global,
    /// Per-switch ECN thresholds (ACC-style actions).
    PerSwitch,
}

impl DispatchScope {
    /// Stable export name.
    pub fn name(self) -> &'static str {
        match self {
            DispatchScope::Global => "global",
            DispatchScope::PerSwitch => "per_switch",
        }
    }
}

/// A typed event worth keeping in the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A switch ingress crossed the PFC pause threshold.
    PfcXoff { switch: u32, port: u32 },
    /// A paused ingress drained below the resume threshold.
    PfcXon { switch: u32, port: u32 },
    /// An egress queue probabilistically marked a packet.
    EcnMark { switch: u32, queue_bytes: u64 },
    /// A notification point emitted a CNP toward `host` for `flow`.
    CnpSent { host: u32, flow: u64 },
    /// A reaction point cut its rate in response to a CNP. Reaction
    /// points have no fabric-wide identity, so the event carries the
    /// post-cut rate instead of a host id.
    RateDecrease { rate_bytes_per_sec: f64 },
    /// A reaction point ran a (fast/additive/hyper) increase step.
    RateIncrease,
    /// The KL-divergence FSD change detector fired.
    KlTrigger { kl: f64, theta: f64 },
    /// Simulated annealing accepted a candidate.
    SaAccept { temp: f64, utility: f64 },
    /// Simulated annealing rejected a candidate.
    SaReject { temp: f64, utility: f64 },
    /// A tuning episode finished.
    SaEpisodeEnd { best_utility: f64 },
    /// The closed loop pushed parameters to the fabric.
    Dispatch { scope: DispatchScope },
    /// A fault took a link out of service (both directions).
    FaultLinkDown { node: u32, port: u32 },
    /// A faulted link returned to service.
    FaultLinkUp { node: u32, port: u32 },
    /// A fault degraded a link to `factor` × its nominal rate.
    FaultDegrade { node: u32, port: u32, factor: f64 },
    /// A fault set a per-packet random loss probability on a link
    /// (0.0 restores clean transmission).
    FaultPktLoss {
        node: u32,
        port: u32,
        drop_prob: f64,
    },
    /// A misbehaving host began a sustained-XOFF PFC storm toward its
    /// ToR down-port.
    PfcStormStart { host: u32 },
    /// The PFC storm ended; the paused down-port resumed.
    PfcStormEnd { host: u32 },
    /// The guardrail refused to dispatch a candidate parameter set.
    GuardrailReject,
    /// The guardrail restored the last-known-good parameter set after
    /// detecting post-dispatch collapse.
    GuardrailRollback,
    /// The guardrail entered safe mode: fallback parameters deployed,
    /// tuning frozen for `backoff_intervals` monitor intervals.
    SafeModeEnter { backoff_intervals: u32 },
    /// Safe-mode backoff expired; tuning may resume.
    SafeModeExit,
    /// The control-plane channel's impairment changed (all-zero values
    /// restore a clean channel).
    CtrlImpairSet { loss: f64, delay_max: u32, dup: f64 },
    /// The controller crashed (`warm`: a snapshot survived).
    CtrlCrash { warm: bool },
    /// A parameter dispatch was resent after its ACK timed out.
    CtrlRetry { epoch: u64 },
    /// A restarted controller re-asserted its believed parameters
    /// toward the fabric at `epoch`.
    CtrlResync { epoch: u64 },
}

impl Event {
    /// Whether this is a rare control-plane transition (fault, guardrail,
    /// safe-mode, trigger, dispatch) as opposed to a per-packet
    /// data-plane event. Control-plane events live in their own
    /// flight-recorder lane so a data-plane flood cannot evict them.
    pub(crate) fn is_control_plane(&self) -> bool {
        matches!(
            self,
            Event::KlTrigger { .. }
                | Event::SaEpisodeEnd { .. }
                | Event::Dispatch { .. }
                | Event::FaultLinkDown { .. }
                | Event::FaultLinkUp { .. }
                | Event::FaultDegrade { .. }
                | Event::FaultPktLoss { .. }
                | Event::PfcStormStart { .. }
                | Event::PfcStormEnd { .. }
                | Event::GuardrailReject
                | Event::GuardrailRollback
                | Event::SafeModeEnter { .. }
                | Event::SafeModeExit
                | Event::CtrlImpairSet { .. }
                | Event::CtrlCrash { .. }
                | Event::CtrlRetry { .. }
                | Event::CtrlResync { .. }
        )
    }

    /// Stable export name for the event type.
    pub fn name(&self) -> &'static str {
        match self {
            Event::PfcXoff { .. } => "pfc_xoff",
            Event::PfcXon { .. } => "pfc_xon",
            Event::EcnMark { .. } => "ecn_mark",
            Event::CnpSent { .. } => "cnp_sent",
            Event::RateDecrease { .. } => "rate_decrease",
            Event::RateIncrease => "rate_increase",
            Event::KlTrigger { .. } => "kl_trigger",
            Event::SaAccept { .. } => "sa_accept",
            Event::SaReject { .. } => "sa_reject",
            Event::SaEpisodeEnd { .. } => "sa_episode_end",
            Event::Dispatch { .. } => "dispatch",
            Event::FaultLinkDown { .. } => "fault_link_down",
            Event::FaultLinkUp { .. } => "fault_link_up",
            Event::FaultDegrade { .. } => "fault_degrade",
            Event::FaultPktLoss { .. } => "fault_pkt_loss",
            Event::PfcStormStart { .. } => "pfc_storm_start",
            Event::PfcStormEnd { .. } => "pfc_storm_end",
            Event::GuardrailReject => "guardrail_reject",
            Event::GuardrailRollback => "guardrail_rollback",
            Event::SafeModeEnter { .. } => "safe_mode_enter",
            Event::SafeModeExit => "safe_mode_exit",
            Event::CtrlImpairSet { .. } => "ctrl_impair",
            Event::CtrlCrash { .. } => "ctrl_crash",
            Event::CtrlRetry { .. } => "ctrl_retry",
            Event::CtrlResync { .. } => "ctrl_resync",
        }
    }

    /// The event's payload as `(field, value)` pairs for export.
    pub fn fields(&self) -> Vec<(&'static str, f64)> {
        match *self {
            Event::PfcXoff { switch, port } | Event::PfcXon { switch, port } => {
                vec![("switch", switch as f64), ("port", port as f64)]
            }
            Event::EcnMark {
                switch,
                queue_bytes,
            } => vec![
                ("switch", switch as f64),
                ("queue_bytes", queue_bytes as f64),
            ],
            Event::CnpSent { host, flow } => {
                vec![("host", host as f64), ("flow", flow as f64)]
            }
            Event::RateDecrease { rate_bytes_per_sec } => {
                vec![("rate_bytes_per_sec", rate_bytes_per_sec)]
            }
            Event::RateIncrease => vec![],
            Event::KlTrigger { kl, theta } => vec![("kl", kl), ("theta", theta)],
            Event::SaAccept { temp, utility } | Event::SaReject { temp, utility } => {
                vec![("temp", temp), ("utility", utility)]
            }
            Event::SaEpisodeEnd { best_utility } => vec![("best_utility", best_utility)],
            Event::FaultLinkDown { node, port } | Event::FaultLinkUp { node, port } => {
                vec![("node", node as f64), ("port", port as f64)]
            }
            Event::FaultDegrade { node, port, factor } => vec![
                ("node", node as f64),
                ("port", port as f64),
                ("factor", factor),
            ],
            Event::FaultPktLoss {
                node,
                port,
                drop_prob,
            } => vec![
                ("node", node as f64),
                ("port", port as f64),
                ("drop_prob", drop_prob),
            ],
            Event::PfcStormStart { host } | Event::PfcStormEnd { host } => {
                vec![("host", host as f64)]
            }
            Event::GuardrailReject | Event::GuardrailRollback | Event::SafeModeExit => vec![],
            Event::SafeModeEnter { backoff_intervals } => {
                vec![("backoff_intervals", backoff_intervals as f64)]
            }
            Event::Dispatch { scope } => vec![(
                "per_switch",
                match scope {
                    DispatchScope::Global => 0.0,
                    DispatchScope::PerSwitch => 1.0,
                },
            )],
            Event::CtrlImpairSet {
                loss,
                delay_max,
                dup,
            } => vec![
                ("loss", loss),
                ("delay_max", delay_max as f64),
                ("dup", dup),
            ],
            Event::CtrlCrash { warm } => vec![("warm", if warm { 1.0 } else { 0.0 })],
            Event::CtrlRetry { epoch } | Event::CtrlResync { epoch } => {
                vec![("epoch", epoch as f64)]
            }
        }
    }
}

/// An event stamped with simulation time and owning tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedEvent {
    /// Simulation time in nanoseconds.
    pub t_ns: u64,
    /// Owning tenant (0 = the standalone/default tenant).
    pub tenant: u32,
    /// The event payload.
    pub event: Event,
}

/// Fixed-capacity ring of recent [`TimedEvent`]s. When full, the oldest
/// entry is evicted and counted in `dropped`.
///
/// Per-packet data-plane events (ECN marks, CNPs, rate changes) share
/// one lane; rare control-plane transitions (faults, guardrail actions,
/// dispatches — see [`Event::is_control_plane`]) get **one lane per
/// tenant**. Each lane only evicts its own kind, so a data-plane flood
/// can never push a fault or rollback record out of the post-mortem
/// window — and in a multi-tenant fleet, one noisy tenant's control
/// churn can never evict another tenant's control-plane events.
#[derive(Debug)]
pub(crate) struct FlightRecorder {
    data: VecDeque<TimedEvent>,
    control: BTreeMap<u32, VecDeque<TimedEvent>>,
    data_capacity: usize,
    control_capacity: usize,
    dropped: u64,
}

impl FlightRecorder {
    /// Ring holding at most `capacity` data-plane events plus, per
    /// tenant, a quarter of that (at least 64) control-plane
    /// transitions.
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            data: VecDeque::with_capacity(capacity),
            control: BTreeMap::new(),
            data_capacity: capacity,
            control_capacity: (capacity / 4).max(64),
            dropped: 0,
        }
    }

    /// Append an event, evicting the oldest of its lane when full.
    #[inline]
    pub(crate) fn push(&mut self, t_ns: u64, tenant: u32, event: Event) {
        let (lane, cap) = if event.is_control_plane() {
            (
                self.control.entry(tenant).or_default(),
                self.control_capacity,
            )
        } else {
            (&mut self.data, self.data_capacity)
        };
        if lane.len() == cap {
            lane.pop_front();
            self.dropped += 1;
        }
        lane.push_back(TimedEvent {
            t_ns,
            tenant,
            event,
        });
    }

    /// Events currently retained, merged across all lanes oldest first.
    /// Ties resolve control-plane first (the transition is the cause,
    /// the data-plane burst the effect), then by ascending tenant.
    /// Within a lane, insertion order is preserved — a backdated
    /// `event_at` stays where it was pushed, exactly as in the
    /// single-tenant two-lane merge.
    pub(crate) fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        let mut merged: Vec<&TimedEvent> = Vec::with_capacity(self.len());
        // One cursor per lane (control lanes in ascending tenant order,
        // then the data lane); repeatedly emit the head with the
        // smallest (t_ns, rank, tenant) key, rank 0 = control.
        let mut lanes: Vec<(
            u8,
            u32,
            std::iter::Peekable<std::collections::vec_deque::Iter<'_, TimedEvent>>,
        )> = self
            .control
            .iter()
            .map(|(&t, lane)| (0u8, t, lane.iter().peekable()))
            .collect();
        lanes.push((1, 0, self.data.iter().peekable()));
        loop {
            let mut best: Option<(usize, (u64, u8, u32))> = None;
            for (i, (rank, tenant, it)) in lanes.iter_mut().enumerate() {
                if let Some(e) = it.peek() {
                    let key = (e.t_ns, *rank, *tenant);
                    if best.is_none_or(|(_, bk)| key < bk) {
                        best = Some((i, key));
                    }
                }
            }
            match best {
                Some((i, _)) => merged.push(lanes[i].2.next().unwrap()),
                None => break,
            }
        }
        merged.into_iter()
    }

    /// Number of retained events across all lanes.
    pub(crate) fn len(&self) -> usize {
        self.data.len() + self.control.values().map(VecDeque::len).sum::<usize>()
    }

    /// Events evicted so far because a lane was full.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Discard all retained events and the drop counter.
    pub(crate) fn clear(&mut self) {
        self.data.clear();
        self.control.clear();
        self.dropped = 0;
    }

    /// Heap + inline bytes held by this recorder (capacity-based: the
    /// data lane pre-allocates).
    pub(crate) fn memory_bytes(&self) -> usize {
        let control: usize = self.control.values().map(VecDeque::capacity).sum();
        std::mem::size_of::<Self>()
            + (self.data.capacity() + control) * std::mem::size_of::<TimedEvent>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..5u64 {
            fr.push(i, 0, Event::RateIncrease);
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.dropped(), 2);
        let ts: Vec<u64> = fr.events().map(|e| e.t_ns).collect();
        assert_eq!(ts, vec![2, 3, 4]);
    }

    #[test]
    fn control_plane_events_survive_a_data_plane_flood() {
        let mut fr = FlightRecorder::new(8);
        fr.push(5, 0, Event::FaultLinkDown { node: 8, port: 4 });
        for i in 0..1_000u64 {
            fr.push(
                10 + i,
                0,
                Event::EcnMark {
                    switch: 8,
                    queue_bytes: i,
                },
            );
        }
        fr.push(2_000, 0, Event::FaultLinkUp { node: 8, port: 4 });
        let names: Vec<&str> = fr.events().map(|e| e.event.name()).collect();
        assert_eq!(names.first(), Some(&"fault_link_down"));
        assert_eq!(names.last(), Some(&"fault_link_up"));
        assert!(fr.dropped() > 0);
    }

    #[test]
    fn noisy_tenant_cannot_evict_another_tenants_control_events() {
        let mut fr = FlightRecorder::new(8); // control lane cap = 64/tenant
                                             // Tenant 1 records one precious rollback early.
        fr.push(5, 1, Event::GuardrailRollback);
        // Tenant 2 floods its control lane far past its own capacity.
        for i in 0..10_000u64 {
            fr.push(10 + i, 2, Event::CtrlRetry { epoch: i });
        }
        assert!(fr.dropped() > 0, "tenant 2's own lane must have evicted");
        let tenant1: Vec<&TimedEvent> = fr.events().filter(|e| e.tenant == 1).collect();
        assert_eq!(tenant1.len(), 1, "tenant 1's event survives the flood");
        assert_eq!(tenant1[0].event.name(), "guardrail_rollback");
        assert_eq!(tenant1[0].t_ns, 5);
        // Tenant 2 keeps only the newest `control_capacity` of its own.
        let tenant2 = fr.events().filter(|e| e.tenant == 2).count();
        assert_eq!(tenant2 as u64 + fr.dropped(), 10_000);
    }

    #[test]
    fn merged_events_order_by_time_then_lane_then_tenant() {
        let mut fr = FlightRecorder::new(8);
        fr.push(50, 0, Event::RateIncrease);
        fr.push(
            100,
            2,
            Event::EcnMark {
                switch: 0,
                queue_bytes: 1,
            },
        );
        fr.push(100, 2, Event::GuardrailReject);
        fr.push(100, 1, Event::GuardrailRollback);
        let got: Vec<(u64, u32, &str)> = fr
            .events()
            .map(|e| (e.t_ns, e.tenant, e.event.name()))
            .collect();
        assert_eq!(
            got,
            vec![
                (50, 0, "rate_increase"),
                (100, 1, "guardrail_rollback"),
                (100, 2, "guardrail_reject"),
                (100, 2, "ecn_mark"),
            ],
            "ties: control before data, then ascending tenant"
        );
    }

    #[test]
    fn event_names_and_fields_are_stable() {
        let e = Event::SaAccept {
            temp: 50.0,
            utility: 0.9,
        };
        assert_eq!(e.name(), "sa_accept");
        assert_eq!(e.fields(), vec![("temp", 50.0), ("utility", 0.9)]);
        assert_eq!(
            Event::Dispatch {
                scope: DispatchScope::PerSwitch
            }
            .fields(),
            vec![("per_switch", 1.0)]
        );
    }
}
