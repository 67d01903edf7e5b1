//! Topology specs: each fabric family as *configuration* rather than as
//! a built graph, so harnesses (the anomaly hunter's genome, replayable
//! corpus cases) can round-trip it through JSON and rebuild an identical
//! topology. A spec is read by the derived `Deserialize`, checked by one
//! validator ([`TopoSpec::validate`]) where it enters, and is what its
//! family's builder takes.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use super::{gbps, NodeKind, Port, Tiers, Topology};
use crate::{Nanos, NodeId};

/// Recipe for the paper's two-tier Clos: `n_tor` ToR switches with
/// `hosts_per_tor` hosts each, `n_leaf` leaf switches each connected to
/// every ToR (paper: 4:1 oversubscribed in NS3, 1:1 on the testbed).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClosSpec {
    /// Number of ToR switches.
    pub n_tor: usize,
    /// Hosts attached to each ToR.
    pub hosts_per_tor: usize,
    /// Number of leaf (spine) switches.
    pub n_leaf: usize,
    /// Host link rate in Gbps.
    pub host_gbps: f64,
    /// ToR↔leaf link rate in Gbps.
    pub uplink_gbps: f64,
    /// Per-link propagation delay in nanoseconds.
    pub delay_ns: Nanos,
}

/// Recipe for a three-tier Clos: pods of ToRs fully meshed to their
/// pod's aggregation switches; each aggregation plane `a` connects to
/// its own `spines_per_agg` spines, and every spine reaches one
/// aggregation switch per pod (fat-tree plane structure).
/// Oversubscription falls out of the rate ratios:
/// `hosts_per_tor·host_gbps : aggs_per_pod·agg_gbps` at the ToR and
/// `tors_per_pod·agg_gbps : spines_per_agg·spine_gbps` at the
/// aggregation tier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThreeTierSpec {
    /// Number of pods.
    pub n_pod: usize,
    /// ToR switches per pod.
    pub tors_per_pod: usize,
    /// Hosts attached to each ToR.
    pub hosts_per_tor: usize,
    /// Aggregation switches per pod.
    pub aggs_per_pod: usize,
    /// Spines attached to each aggregation plane (total spines =
    /// `aggs_per_pod · spines_per_agg`).
    pub spines_per_agg: usize,
    /// Host link rate in Gbps.
    pub host_gbps: f64,
    /// ToR↔aggregation link rate in Gbps.
    pub agg_gbps: f64,
    /// Aggregation↔spine link rate in Gbps.
    pub spine_gbps: f64,
    /// Per-link propagation delay in nanoseconds.
    pub delay_ns: Nanos,
}

/// Recipe for a rail-optimized plane: GPU `g` of every server attaches
/// to rail switch `g`, so host ids stripe across the "ToR" tier instead
/// of blocking under it. Same two-tier graph shape as [`ClosSpec`],
/// different host↔switch incidence — which is exactly what changes the
/// contention pattern of collectives over consecutive ranks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RailSpec {
    /// Number of rail switches (GPUs per server).
    pub n_rail: usize,
    /// Servers — each contributes one host (GPU) per rail.
    pub n_server: usize,
    /// Spine switches joining the rails.
    pub n_spine: usize,
    /// Host link rate in Gbps.
    pub host_gbps: f64,
    /// Rail↔spine link rate in Gbps.
    pub uplink_gbps: f64,
    /// Per-link propagation delay in nanoseconds.
    pub delay_ns: Nanos,
}

/// Recipe for a mixed-link-speed two-tier Clos: even-indexed leaves get
/// `fast_gbps` uplinks, odd-indexed leaves `slow_gbps`. ECMP still
/// spreads flows over all leaves, so a hash-unlucky flow rides the slow
/// plane — the heterogeneity DCQCN parameter tuning must tolerate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MixedRateSpec {
    /// Number of ToR switches.
    pub n_tor: usize,
    /// Hosts attached to each ToR.
    pub hosts_per_tor: usize,
    /// Number of leaf switches (fast/slow alternating).
    pub n_leaf: usize,
    /// Host link rate in Gbps.
    pub host_gbps: f64,
    /// Uplink rate of even-indexed leaves, Gbps.
    pub fast_gbps: f64,
    /// Uplink rate of odd-indexed leaves, Gbps.
    pub slow_gbps: f64,
    /// Per-link propagation delay in nanoseconds.
    pub delay_ns: Nanos,
}

/// The one spec validator. `dims` must all be at least 1 and `rates`
/// positive and finite. `delay_ns == 0` is rejected because a zero-delay
/// link zeroes [`Topology::lookahead`], which degenerates the
/// conservative parallel engine to lockstep — the same floor
/// `remap_point` clamps to in the hunt minimizer. The largest switch
/// `radix` and the node count are bounded by what an event can address:
/// port indices travel as `u16`, node ids as `u32`.
fn validate(
    what: &str,
    dims: &[(&str, usize)],
    radix: usize,
    n_nodes: usize,
    rates: &[(&str, f64)],
    delay_ns: Nanos,
) -> Result<(), String> {
    if let Some((name, _)) = dims.iter().find(|&&(_, v)| v == 0) {
        return Err(format!("{what}: `{name}` must be >= 1"));
    }
    if radix > u16::MAX as usize {
        return Err(format!("{what}: switch radix {radix} exceeds {}", u16::MAX));
    }
    if n_nodes > u32::MAX as usize {
        return Err(format!("{what}: {n_nodes} nodes exceed {}", u32::MAX));
    }
    if let Some((name, _)) = rates.iter().find(|&&(_, r)| !r.is_finite() || r <= 0.0) {
        return Err(format!("{what}: `{name}` must be positive and finite"));
    }
    if delay_ns == 0 {
        return Err(format!(
            "{what}: delay_ns must be >= 1 (zero delay gives the parallel engine no lookahead)"
        ));
    }
    Ok(())
}

/// Panic with the validator's message: building an invalid spec is a
/// caller bug ([`TopoSpec::validate`] is the checked way in).
fn assert_valid(checked: Result<(), String>) {
    if let Err(e) = checked {
        panic!("{e}");
    }
}

impl ClosSpec {
    /// Total host count.
    pub fn n_hosts(&self) -> usize {
        self.as_mixed().n_hosts()
    }

    /// Total node count (hosts + ToRs + leaves).
    pub fn n_nodes(&self) -> usize {
        self.as_mixed().n_nodes()
    }

    /// The same fabric as the (uniform-rate) mixed-rate family, whose
    /// builder wires every two-tier graph.
    fn as_mixed(&self) -> MixedRateSpec {
        MixedRateSpec {
            n_tor: self.n_tor,
            hosts_per_tor: self.hosts_per_tor,
            n_leaf: self.n_leaf,
            host_gbps: self.host_gbps,
            fast_gbps: self.uplink_gbps,
            slow_gbps: self.uplink_gbps,
            delay_ns: self.delay_ns,
        }
    }

    /// Materialize the spec into a routed [`Topology`]. Node ids: hosts
    /// `0..H`, ToRs `H..H+n_tor`, leaves after that. Like every family's
    /// `build`, panics on a spec the validator rejects.
    pub fn build(&self) -> Topology {
        assert_valid(self.validate());
        self.as_mixed().wire(false)
    }

    fn validate(&self) -> Result<(), String> {
        self.as_mixed().validate_as("ClosSpec", ["uplink_gbps"; 2])
    }
}

impl ThreeTierSpec {
    /// Total ToR count.
    fn n_tor(&self) -> usize {
        self.n_pod.saturating_mul(self.tors_per_pod)
    }

    /// Total host count.
    pub fn n_hosts(&self) -> usize {
        self.n_tor().saturating_mul(self.hosts_per_tor)
    }

    /// Total node count (hosts + ToRs + aggs + spines).
    pub fn n_nodes(&self) -> usize {
        let aggs = self.n_pod.saturating_mul(self.aggs_per_pod);
        let spines = self.aggs_per_pod.saturating_mul(self.spines_per_agg);
        let switches = self.n_tor().saturating_add(aggs).saturating_add(spines);
        self.n_hosts().saturating_add(switches)
    }

    fn validate(&self) -> Result<(), String> {
        // A ToR faces its hosts and its pod's aggs; an agg its pod's
        // ToRs and its plane's spines; a spine one agg per pod.
        let tor = self.hosts_per_tor.saturating_add(self.aggs_per_pod);
        let agg = self.tors_per_pod.saturating_add(self.spines_per_agg);
        let dims = [
            ("n_pod", self.n_pod),
            ("tors_per_pod", self.tors_per_pod),
            ("hosts_per_tor", self.hosts_per_tor),
            ("aggs_per_pod", self.aggs_per_pod),
            ("spines_per_agg", self.spines_per_agg),
        ];
        let rates = [
            ("host_gbps", self.host_gbps),
            ("agg_gbps", self.agg_gbps),
            ("spine_gbps", self.spine_gbps),
        ];
        let (radix, nodes) = (tor.max(agg).max(self.n_pod), self.n_nodes());
        validate("ThreeTierSpec", &dims, radix, nodes, &rates, self.delay_ns)
    }

    /// Materialize the spec into a routed [`Topology`]. Node ids: hosts
    /// (pod-major), ToRs (pod-major), aggregation switches (pod-major,
    /// kind [`NodeKind::Leaf`]), spines (plane-major, kind
    /// [`NodeKind::Spine`]).
    pub fn build(&self) -> Topology {
        assert_valid(self.validate());
        let Self {
            n_pod,
            tors_per_pod,
            aggs_per_pod,
            spines_per_agg,
            delay_ns,
            ..
        } = *self;
        let tiers = Tiers::Three {
            tors_per_pod,
            aggs_per_pod,
            spines_per_agg,
        };
        let n_leaf = n_pod * aggs_per_pod;
        let n_spine = aggs_per_pod * spines_per_agg;
        let mut t = Topology::unwired(self.n_tor(), self.hosts_per_tor, n_leaf, n_spine, tiers);
        t.wire_hosts(self.host_gbps, delay_ns, false);
        let (tor0, agg0) = (t.n_hosts, t.n_hosts + t.n_tor);
        let tor = |p: usize, tt: usize| tor0 + p * tors_per_pod + tt;
        let agg = |p: usize, a: usize| agg0 + p * aggs_per_pod + a;
        let spine = |a: usize, j: usize| agg0 + n_leaf + a * spines_per_agg + j;
        // ToR <-> pod aggregation. ToR up-port for agg a is
        // hosts_per_tor + a; agg down-port for its pod's ToR tt is tt.
        for p in 0..n_pod {
            for tt in 0..tors_per_pod {
                for a in 0..aggs_per_pod {
                    t.connect(tor(p, tt), agg(p, a), self.agg_gbps, delay_ns);
                }
            }
        }
        // Aggregation <-> spine planes. Agg (p, a) up-port for its j-th
        // spine is tors_per_pod + j; spine (a, j)'s port for pod p is p.
        for p in 0..n_pod {
            for a in 0..aggs_per_pod {
                for j in 0..spines_per_agg {
                    t.connect(agg(p, a), spine(a, j), self.spine_gbps, delay_ns);
                }
            }
        }
        t
    }
}

impl RailSpec {
    /// Total host count (`n_server · n_rail` GPUs).
    pub fn n_hosts(&self) -> usize {
        self.n_rail.saturating_mul(self.n_server)
    }

    /// Total node count.
    pub fn n_nodes(&self) -> usize {
        let switches = self.n_rail.saturating_add(self.n_spine);
        self.n_hosts().saturating_add(switches)
    }

    fn validate(&self) -> Result<(), String> {
        // A rail switch faces one GPU per server and every spine; a
        // spine faces every rail.
        let radix = self.n_server.saturating_add(self.n_spine);
        let dims = [
            ("n_rail", self.n_rail),
            ("n_server", self.n_server),
            ("n_spine", self.n_spine),
        ];
        let rates = [
            ("host_gbps", self.host_gbps),
            ("uplink_gbps", self.uplink_gbps),
        ];
        let (radix, n_nodes) = (radix.max(self.n_rail), self.n_nodes());
        validate("RailSpec", &dims, radix, n_nodes, &rates, self.delay_ns)
    }

    /// Materialize the spec into a routed [`Topology`]: host `h` (GPU
    /// `h mod n_rail` of server `h / n_rail`) attaches to rail switch
    /// `h mod n_rail`. Graph shape matches the two-tier Clos (rails play
    /// the ToR role, spines the leaf role); only the host↔switch
    /// incidence differs.
    pub fn build(&self) -> Topology {
        assert_valid(self.validate());
        let clos = TopoSpec::Rail(*self).to_two_tier();
        clos.as_mixed().wire(true)
    }
}

impl MixedRateSpec {
    /// Total host count.
    pub fn n_hosts(&self) -> usize {
        self.n_tor.saturating_mul(self.hosts_per_tor)
    }

    /// Total node count.
    pub fn n_nodes(&self) -> usize {
        let switches = self.n_tor.saturating_add(self.n_leaf);
        self.n_hosts().saturating_add(switches)
    }

    fn validate(&self) -> Result<(), String> {
        self.validate_as("MixedRateSpec", ["fast_gbps", "slow_gbps"])
    }

    /// Validate as family `what` whose leaf planes' rates are named
    /// `planes` (the plain Clos is the uniform-rate case and shares the
    /// dimension names).
    fn validate_as(&self, what: &str, planes: [&str; 2]) -> Result<(), String> {
        // A ToR faces its hosts and every leaf; a leaf faces every ToR.
        let radix = self.hosts_per_tor.saturating_add(self.n_leaf);
        let dims = [
            ("n_tor", self.n_tor),
            ("hosts_per_tor", self.hosts_per_tor),
            ("n_leaf", self.n_leaf),
        ];
        let rates = [
            ("host_gbps", self.host_gbps),
            (planes[0], self.fast_gbps),
            (planes[1], self.slow_gbps),
        ];
        let (radix, nodes) = (radix.max(self.n_tor), self.n_nodes());
        validate(what, &dims, radix, nodes, &rates, self.delay_ns)
    }

    /// Materialize the spec into a routed [`Topology`].
    pub fn build(&self) -> Topology {
        assert_valid(self.validate());
        self.wire(false)
    }

    /// Wire the two-tier graph of an already validated spec: every ToR
    /// to every leaf (ToR up-port for leaf `l` is `hosts_per_tor + l`,
    /// leaf port for ToR `t` is `t`), leaf `l`'s plane at the rate its
    /// parity selects; `striped` as in [`Topology::wire_hosts`].
    fn wire(&self, striped: bool) -> Topology {
        let mut t = Topology::unwired(self.n_tor, self.hosts_per_tor, self.n_leaf, 0, Tiers::Two);
        t.wire_hosts(self.host_gbps, self.delay_ns, striped);
        for tor in 0..self.n_tor {
            for l in 0..self.n_leaf {
                let rate = if l % 2 == 0 {
                    self.fast_gbps
                } else {
                    self.slow_gbps
                };
                let (tor, leaf) = (t.n_hosts + tor, t.n_hosts + self.n_tor + l);
                t.connect(tor, leaf, rate, self.delay_ns);
            }
        }
        t
    }
}

/// A [`Topology`]'s tables are shared by its clones; the builders below
/// fill them in before the first clone can exist.
const WIRED_BEFORE_SHARED: &str = "a topology is wired before it is cloned";

impl Topology {
    /// Cable `a` to `b` at `rate_gbps`: each end's new port takes the
    /// next free index on its node, so a node's port order is the order
    /// its cables are laid in.
    fn connect(&mut self, a: NodeId, b: NodeId, rate_gbps: f64, delay: Nanos) {
        let ports = Arc::get_mut(&mut self.ports).expect(WIRED_BEFORE_SHARED);
        let (bw, port_a, port_b) = (gbps(rate_gbps), ports[a].len(), ports[b].len());
        let port = |peer, peer_port| Port {
            peer,
            peer_port,
            bw,
            delay,
        };
        ports[a].push(port(b, port_b));
        ports[b].push(port(a, port_a));
    }

    /// A fabric with every node's kind decided and no cable laid.
    fn unwired(
        n_tor: usize,
        hosts_per_tor: usize,
        n_leaf: usize,
        n_spine: usize,
        tiers: Tiers,
    ) -> Self {
        let n_hosts = n_tor * hosts_per_tor;
        let tiers_of = [
            (NodeKind::Host, n_hosts),
            (NodeKind::Tor, n_tor),
            (NodeKind::Leaf, n_leaf),
            (NodeKind::Spine, n_spine),
        ];
        let mut kinds = Vec::with_capacity(n_hosts + n_tor + n_leaf + n_spine);
        for (kind, n) in tiers_of {
            kinds.extend(std::iter::repeat_n(kind, n));
        }
        Self {
            ports: vec![Vec::new(); kinds.len()].into(),
            kinds: kinds.into(),
            host_tor: vec![0; n_hosts].into(),
            n_hosts,
            hosts_per_tor,
            n_tor,
            n_leaf,
            n_spine,
            tiers,
        }
    }

    /// The one host↔ToR wiring: a host's port 0 is its uplink, and a
    /// ToR's first `hosts_per_tor` ports are the down-ports to its hosts.
    /// The blocked layout puts host `t·hosts_per_tor + h` under ToR `t`;
    /// `striped` (rails) puts host `h·n_tor + t` there.
    fn wire_hosts(&mut self, host_gbps: f64, delay: Nanos, striped: bool) {
        for t in 0..self.n_tor {
            for h in 0..self.hosts_per_tor {
                let host = if striped {
                    h * self.n_tor + t
                } else {
                    t * self.hosts_per_tor + h
                };
                let host_tor = Arc::get_mut(&mut self.host_tor).expect(WIRED_BEFORE_SHARED);
                host_tor[host] = self.n_hosts + t;
                self.connect(host, self.n_hosts + t, host_gbps, delay);
            }
        }
    }
}

/// A topology *family* plus its dimensions: everything needed to build,
/// route and partition a fabric, round-trippable through JSON like
/// [`ClosSpec`] (which it embeds as its first family).
///
/// Serialized form is a `"family"` tag followed by the family spec's
/// fields; an object without one is refused. Reading does not validate:
/// [`TopoSpec::validate`] does, where a spec enters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "family", rename_all = "snake_case")]
pub enum TopoSpec {
    /// The paper's two-tier Clos ([`ClosSpec`]).
    TwoTier(ClosSpec),
    /// Oversubscribed three-tier Clos ([`ThreeTierSpec`]).
    ThreeTier(ThreeTierSpec),
    /// Rail-optimized GPU plane ([`RailSpec`]).
    Rail(RailSpec),
    /// Two-tier Clos with alternating fast/slow leaf planes
    /// ([`MixedRateSpec`]).
    MixedRate(MixedRateSpec),
}

impl TopoSpec {
    /// Total host count.
    pub fn n_hosts(&self) -> usize {
        match self {
            Self::TwoTier(s) => s.n_hosts(),
            Self::ThreeTier(s) => s.n_hosts(),
            Self::Rail(s) => s.n_hosts(),
            Self::MixedRate(s) => s.n_hosts(),
        }
    }

    /// Total node count.
    pub fn n_nodes(&self) -> usize {
        match self {
            Self::TwoTier(s) => s.n_nodes(),
            Self::ThreeTier(s) => s.n_nodes(),
            Self::Rail(s) => s.n_nodes(),
            Self::MixedRate(s) => s.n_nodes(),
        }
    }

    /// The family tag used in the serialized form.
    pub fn family(&self) -> &'static str {
        match self {
            Self::TwoTier(_) => "two_tier",
            Self::ThreeTier(_) => "three_tier",
            Self::Rail(_) => "rail",
            Self::MixedRate(_) => "mixed_rate",
        }
    }

    /// Per-link propagation delay (uniform within every family).
    pub fn delay_ns(&self) -> Nanos {
        match self {
            Self::TwoTier(s) => s.delay_ns,
            Self::ThreeTier(s) => s.delay_ns,
            Self::Rail(s) => s.delay_ns,
            Self::MixedRate(s) => s.delay_ns,
        }
    }

    /// The embedded [`ClosSpec`], when this is the two-tier family.
    pub fn as_two_tier(&self) -> Option<&ClosSpec> {
        match self {
            Self::TwoTier(s) => Some(s),
            _ => None,
        }
    }

    /// Collapse to a host-count-preserving two-tier Clos: the
    /// minimizer's family shrink (a counterexample that survives on
    /// the plain family is strictly simpler to reason about).
    pub fn to_two_tier(&self) -> ClosSpec {
        match *self {
            Self::TwoTier(s) => s,
            Self::ThreeTier(s) => ClosSpec {
                n_tor: s.n_pod * s.tors_per_pod,
                hosts_per_tor: s.hosts_per_tor,
                n_leaf: s.aggs_per_pod,
                host_gbps: s.host_gbps,
                uplink_gbps: s.agg_gbps,
                delay_ns: s.delay_ns,
            },
            Self::Rail(s) => ClosSpec {
                n_tor: s.n_rail,
                hosts_per_tor: s.n_server,
                n_leaf: s.n_spine,
                host_gbps: s.host_gbps,
                uplink_gbps: s.uplink_gbps,
                delay_ns: s.delay_ns,
            },
            Self::MixedRate(s) => ClosSpec {
                n_tor: s.n_tor,
                hosts_per_tor: s.hosts_per_tor,
                n_leaf: s.n_leaf,
                host_gbps: s.host_gbps,
                uplink_gbps: s.fast_gbps,
                delay_ns: s.delay_ns,
            },
        }
    }

    /// Check the family's dimensions, rates, delay, radix and node count,
    /// where a spec enters (a hunt genome's `HuntPoint::validate` runs it
    /// first); [`build`](Self::build) panics on a spec this refuses.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Self::TwoTier(s) => s.validate(),
            Self::ThreeTier(s) => s.validate(),
            Self::Rail(s) => s.validate(),
            Self::MixedRate(s) => s.validate(),
        }
    }

    /// Materialize into a routed [`Topology`].
    pub fn build(&self) -> Topology {
        match self {
            Self::TwoTier(s) => s.build(),
            Self::ThreeTier(s) => s.build(),
            Self::Rail(s) => s.build(),
            Self::MixedRate(s) => s.build(),
        }
    }
}
