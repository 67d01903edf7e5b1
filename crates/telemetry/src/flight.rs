//! Bounded flight recorder: a ring buffer of typed control-plane and
//! data-plane events, dumpable on demand for post-mortem analysis.

use std::collections::{BTreeMap, VecDeque};

use serde::{Deserialize, Serialize};

/// Which layer an adaptive dispatch targeted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum DispatchScope {
    /// One parameter set applied to every RNIC and switch.
    Global,
    /// Per-switch ECN thresholds (ACC-style actions).
    PerSwitch,
}

/// A typed event worth keeping in the flight recorder. Exported as one
/// object: its [`name`](Event::name) under `"name"`, then its fields.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "name", rename_all = "snake_case")]
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
    CtrlImpair { loss: f64, delay_max: u32, dup: f64 },
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
                | Event::CtrlImpair { .. }
                | Event::CtrlCrash { .. }
                | Event::CtrlRetry { .. }
                | Event::CtrlResync { .. }
        )
    }

    /// Stable export name for the event type: its serialized `"name"`.
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
            Event::CtrlImpair { .. } => "ctrl_impair",
            Event::CtrlCrash { .. } => "ctrl_crash",
            Event::CtrlRetry { .. } => "ctrl_retry",
            Event::CtrlResync { .. } => "ctrl_resync",
        }
    }
}

/// An event stamped with simulation time and owning tenant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// Simulation time in nanoseconds.
    pub t_ns: u64,
    /// Owning tenant (0 = the standalone/default tenant). Only a fleet's
    /// tenants write the key, so a standalone dump carries none.
    #[serde(skip_serializing_if = "is_standalone", default)]
    pub tenant: u32,
    /// The event payload.
    pub event: Event,
}

fn is_standalone(tenant: &u32) -> bool {
    *tenant == 0
}

/// Which of a tenant's two lanes an event lives in. `Control` sorts
/// first: at equal times the transition is the cause, the data-plane
/// burst the effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Lane {
    Control,
    Data,
}

/// Fixed-capacity rings of recent [`TimedEvent`]s. When a ring is full,
/// its oldest entry is evicted and counted in `dropped`.
///
/// Each tenant has two lanes: per-packet data-plane events (ECN marks,
/// CNPs, rate changes) in one, rare control-plane transitions (faults,
/// guardrail actions, dispatches — see [`Event::is_control_plane`]) in
/// the other. Each lane only evicts its own kind of its own tenant, so a
/// data-plane flood can never push a fault or rollback record out of the
/// post-mortem window, and in a multi-tenant fleet one noisy tenant can
/// never evict another tenant's events. A tenant records in time order,
/// so each lane is time-ordered even when a fleet replays tenants of
/// different λ_MI interleaved.
#[derive(Debug)]
pub(crate) struct FlightRecorder {
    lanes: BTreeMap<(u32, Lane), VecDeque<TimedEvent>>,
    data_capacity: usize,
    control_capacity: usize,
    dropped: u64,
}

impl FlightRecorder {
    /// Rings holding, per tenant, at most `capacity` data-plane events
    /// and a quarter of that (at least 64) control-plane transitions.
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            lanes: BTreeMap::new(),
            data_capacity: capacity,
            control_capacity: (capacity / 4).max(64),
            dropped: 0,
        }
    }

    /// Append an event, evicting the oldest of its lane when full.
    #[inline]
    pub(crate) fn push(&mut self, t_ns: u64, tenant: u32, event: Event) {
        let (lane, cap) = if event.is_control_plane() {
            (Lane::Control, self.control_capacity)
        } else {
            (Lane::Data, self.data_capacity)
        };
        let ring = self.lanes.entry((tenant, lane)).or_default();
        if ring.len() == cap {
            ring.pop_front();
            self.dropped += 1;
        }
        ring.push_back(TimedEvent {
            t_ns,
            tenant,
            event,
        });
    }

    /// Events currently retained, merged across all lanes oldest first:
    /// repeatedly the lane head with the smallest (time, lane, tenant),
    /// so ties resolve control-plane first, then by ascending tenant.
    /// Within a lane, insertion order is preserved — a backdated
    /// `event_at` stays where it was pushed.
    pub(crate) fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        let mut heads: Vec<_> = self
            .lanes
            .iter()
            .map(|(&(tenant, lane), ring)| ((lane, tenant), ring.iter().peekable()))
            .collect();
        std::iter::from_fn(move || {
            let (_, ring) = heads
                .iter_mut()
                .filter_map(|(key, ring)| Some(((ring.peek()?.t_ns, *key), ring)))
                .min_by_key(|(at, _)| *at)?;
            ring.next()
        })
    }

    /// Events evicted so far because a lane was full.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Discard all retained events and the drop counter.
    pub(crate) fn clear(&mut self) {
        self.lanes.clear();
        self.dropped = 0;
    }

    /// Heap + inline bytes held by this recorder (capacity-based).
    pub(crate) fn memory_bytes(&self) -> usize {
        let slots: usize = self.lanes.values().map(VecDeque::capacity).sum();
        std::mem::size_of::<Self>() + slots * std::mem::size_of::<TimedEvent>()
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

    /// A fleet replays its tenants in id order each tick, so a 1 ms
    /// tenant's events at k ms and a 2 ms tenant's at 2k ms arrive
    /// interleaved, out of time order.
    #[test]
    fn tenants_of_different_lambda_dump_in_time_order_and_flood_alone() {
        const MS: u64 = 1_000_000;
        let mark = Event::EcnMark {
            switch: 0,
            queue_bytes: 0,
        };
        let mut fr = FlightRecorder::new(8);
        for tick in 1..=4 {
            fr.push(tick * MS, 1, mark);
            fr.push(2 * tick * MS, 2, Event::RateIncrease);
            fr.push(2 * tick * MS, 2, Event::SaEpisodeEnd { best_utility: 0.5 });
        }
        let in_time_order = |fr: &FlightRecorder| {
            let ts: Vec<u64> = fr.events().map(|e| e.t_ns).collect();
            assert!(
                ts.windows(2).all(|w| w[0] <= w[1]),
                "not oldest first: {ts:?}"
            );
            let retained: usize = fr.lanes.values().map(VecDeque::len).sum();
            assert_eq!(ts.len(), retained, "the merge skips nothing");
        };
        in_time_order(&fr);
        // Tenant 2 floods its data lane far past its capacity.
        for i in 0..1_000 {
            fr.push(8 * MS + i, 2, mark);
        }
        in_time_order(&fr);
        let tenant1: Vec<u64> = fr
            .events()
            .filter(|e| e.tenant == 1)
            .map(|e| e.t_ns)
            .collect();
        assert_eq!(tenant1, [MS, 2 * MS, 3 * MS, 4 * MS], "tenant 1 keeps all");
        assert_eq!(fr.dropped(), 4 + 1_000 - 8, "tenant 2 evicts only its own");
        assert_eq!(fr.events().filter(|e| e.tenant == 2).count(), 4 + 8);
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

    /// `name()` is what `TelemetryDump::events_named` matches, so it
    /// must be the tag the export writes, for every variant.
    #[test]
    fn every_event_name_is_its_serialized_tag() {
        let (node, port, host) = (1, 2, 3);
        let every = [
            Event::PfcXoff { switch: 4, port },
            Event::PfcXon { switch: 4, port },
            Event::EcnMark {
                switch: 4,
                queue_bytes: 5,
            },
            Event::CnpSent { host, flow: 6 },
            Event::RateDecrease {
                rate_bytes_per_sec: 1e9,
            },
            Event::RateIncrease,
            Event::KlTrigger {
                kl: 0.02,
                theta: 0.01,
            },
            Event::SaAccept {
                temp: 50.0,
                utility: 0.9,
            },
            Event::SaReject {
                temp: 50.0,
                utility: 0.1,
            },
            Event::SaEpisodeEnd { best_utility: 0.9 },
            Event::Dispatch {
                scope: DispatchScope::PerSwitch,
            },
            Event::FaultLinkDown { node, port },
            Event::FaultLinkUp { node, port },
            Event::FaultDegrade {
                node,
                port,
                factor: 0.5,
            },
            Event::FaultPktLoss {
                node,
                port,
                drop_prob: 0.1,
            },
            Event::PfcStormStart { host },
            Event::PfcStormEnd { host },
            Event::GuardrailReject,
            Event::GuardrailRollback,
            Event::SafeModeEnter {
                backoff_intervals: 8,
            },
            Event::SafeModeExit,
            Event::CtrlImpair {
                loss: 0.1,
                delay_max: 2,
                dup: 0.0,
            },
            Event::CtrlCrash { warm: true },
            Event::CtrlRetry { epoch: 7 },
            Event::CtrlResync { epoch: 7 },
        ];
        for e in every {
            let v = e.serialize_value();
            assert_eq!(v.get("name").and_then(|n| n.as_str()), Some(e.name()));
            assert_eq!(Event::from_value(&v), Ok(e), "{}", e.name());
        }
        let names: std::collections::BTreeSet<_> = every.iter().map(Event::name).collect();
        assert_eq!(names.len(), every.len(), "one value of each variant");
        let text = serde_json::to_string(&every[10]).unwrap();
        assert_eq!(text, r#"{"name":"dispatch","scope":"per_switch"}"#);
    }
}
