//! Network topologies: the node/port graph, link capacities, static
//! ECMP routing and the partition the sharded engine cuts along.
//!
//! The paper's simulations use a two-tier CLOS: hosts attach to ToR
//! switches, ToRs attach to leaf (spine) switches, with configurable
//! oversubscription (4:1 in the NS3 evaluation, 1:1 on the testbed).
//! Beyond the paper, the scenario space covers the fabric families the
//! Chameleon artifact sweeps: an oversubscribed three-tier Clos, a
//! rail-optimized plane (GPU `g` of every server on rail switch `g`),
//! and a mixed-link-speed plane (alternating fast/slow leaf uplinks).
//!
//! Every family is described by a spec and built from it — the specs,
//! their JSON form, their validation and the builders are in `spec`;
//! this file holds what a *built* [`Topology`] answers: kinds and port
//! tables, routing, partitioning, base RTT.
//!
//! Routing is deterministic ECMP: the upward choice at a switch is a
//! hash of the flow id, so one flow always follows one path (no
//! reordering), matching RoCEv2 deployments.

mod spec;

pub use spec::{ClosSpec, MixedRateSpec, RailSpec, ThreeTierSpec, TopoSpec};

use std::sync::Arc;

use crate::{Nanos, NodeId};

/// One shard of a conservative-parallel partition: the node ids one
/// event core owns. Produced by [`Topology::partition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Owned node ids: this shard's hosts, then their ToRs, then its
    /// slice of the upper tiers.
    pub nodes: Vec<NodeId>,
    /// How many of `nodes` are hosts.
    pub n_hosts: usize,
}

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A server with one RNIC port.
    Host,
    /// A top-of-rack switch (runs the measurement sketch).
    Tor,
    /// A leaf/aggregation switch (no sketch; Keypoint 1 makes ToR-only
    /// sketching sufficient since every path crosses a ToR first).
    Leaf,
    /// A three-tier core switch above the aggregation tier (no sketch,
    /// like [`NodeKind::Leaf`]).
    Spine,
}

/// One directed attachment point of a node.
#[derive(Debug, Clone, Copy)]
pub struct Port {
    /// The node on the other end of the link.
    pub peer: NodeId,
    /// The index of the corresponding port on `peer` (needed to address
    /// PFC pause frames at the correct upstream egress queue).
    pub peer_port: usize,
    /// Link bandwidth in bytes per nanosecond (100 Gbps = 12.5 B/ns).
    pub bw: f64,
    /// Propagation delay in nanoseconds.
    pub delay: Nanos,
}

/// Tier structure of a built topology, driving the per-kind routing
/// decisions in [`Topology::next_port_masked`].
#[derive(Debug, Clone, Copy)]
enum Tiers {
    /// Hosts → ToRs → leaves.
    Two,
    /// Hosts → ToRs → pod aggregation → spines.
    Three {
        tors_per_pod: usize,
        aggs_per_pod: usize,
        spines_per_agg: usize,
    },
}

/// An immutable node/port graph plus routing state. The tables are
/// shared, so a clone — the sharded engine keeps one per shard — costs
/// three reference counts, not a copy of the fabric.
#[derive(Debug, Clone)]
pub struct Topology {
    kinds: Arc<[NodeKind]>,
    ports: Arc<[Vec<Port>]>,
    /// For each host, its ToR node id.
    host_tor: Arc<[NodeId]>,
    n_hosts: usize,
    hosts_per_tor: usize,
    n_tor: usize,
    n_leaf: usize,
    n_spine: usize,
    tiers: Tiers,
}

/// Convert Gbps to the internal bytes-per-nanosecond unit.
pub fn gbps(v: f64) -> f64 {
    v * 1e9 / 8.0 / 1e9
}

impl Topology {
    /// Build the two-tier CLOS of [`ClosSpec`] (whose `build` this is):
    /// `n_tor` ToR switches with `hosts_per_tor` hosts each, `n_leaf`
    /// leaf switches each connected to every ToR, host links at
    /// `host_gbps`, ToR↔leaf links at `uplink_gbps`, every link with
    /// propagation `delay` (paper: 5 µs NS3 / 1 µs LAN).
    pub fn two_tier_clos(
        n_tor: usize,
        hosts_per_tor: usize,
        n_leaf: usize,
        host_gbps: f64,
        uplink_gbps: f64,
        delay: Nanos,
    ) -> Self {
        let spec = ClosSpec {
            n_tor,
            hosts_per_tor,
            n_leaf,
            host_gbps,
            uplink_gbps,
            delay_ns: delay,
        };
        spec.build()
    }

    /// Number of nodes of all kinds.
    pub fn n_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Number of hosts.
    pub fn n_hosts(&self) -> usize {
        self.n_hosts
    }

    /// Kind of `node`.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.kinds[node]
    }

    /// Ports of `node`.
    pub fn ports(&self, node: NodeId) -> &[Port] {
        &self.ports[node]
    }

    /// Egress port on `node` toward destination host `dst`, using
    /// `flow_hash` to pick among ECMP uplinks. Panics if `node` is `dst`.
    pub(crate) fn next_port(&self, node: NodeId, dst: NodeId, flow_hash: u64) -> usize {
        self.next_port_masked(node, dst, flow_hash, |_, _| true)
            .expect("all links up")
    }

    /// ECMP choice over `range` of `node`'s ports, restricted to live
    /// links. Two passes (count, then select the k-th live port) keep
    /// this allocation-free: it runs once per packet per switch hop, so
    /// a heap allocation here dominates the routing cost. May query
    /// `link_up` twice per port.
    fn ecmp(
        &self,
        node: NodeId,
        range: std::ops::Range<usize>,
        flow_hash: u64,
        link_up: &mut dyn FnMut(NodeId, usize) -> bool,
    ) -> Option<usize> {
        let n_alive = range.clone().filter(|&p| link_up(node, p)).count();
        if n_alive == 0 {
            None
        } else {
            let k = flow_hash as usize % n_alive;
            range.filter(|&p| link_up(node, p)).nth(k)
        }
    }

    /// Liveness-aware routing: like [`Topology::next_port`] but only
    /// considers ports for which `link_up(node, port)` holds. A switch
    /// with a dead uplink rehashes its ECMP choice over the surviving
    /// uplinks, steering flows around the failure; returns `None` when
    /// no live port reaches `dst` (single-path segments — host uplinks,
    /// down-ports on any tier — cannot be routed around).
    pub(crate) fn next_port_masked(
        &self,
        node: NodeId,
        dst: NodeId,
        flow_hash: u64,
        mut link_up: impl FnMut(NodeId, usize) -> bool,
    ) -> Option<usize> {
        assert!(dst < self.n_hosts, "destination must be a host");
        let only_if_up = |port: usize, link_up: &mut dyn FnMut(NodeId, usize) -> bool| {
            if link_up(node, port) {
                Some(port)
            } else {
                None
            }
        };
        match self.kinds[node] {
            NodeKind::Host => only_if_up(0, &mut link_up),
            NodeKind::Tor => {
                if self.host_tor[dst] == node {
                    // Down-port to the local host: single path. The
                    // host's uplink records which of our down-ports it
                    // hangs off, for any host↔ToR incidence.
                    only_if_up(self.ports[dst][0].peer_port, &mut link_up)
                } else {
                    // ECMP over live uplinks (everything after the
                    // down-ports, whatever the upper tier is).
                    let uplinks = self.hosts_per_tor..self.ports[node].len();
                    self.ecmp(node, uplinks, flow_hash, &mut link_up)
                }
            }
            NodeKind::Leaf => {
                let dst_tor = self.host_tor[dst] - self.n_hosts;
                match self.tiers {
                    // Two-tier leaf: one down-port per ToR, in ToR order.
                    Tiers::Two => only_if_up(dst_tor, &mut link_up),
                    Tiers::Three {
                        tors_per_pod,
                        aggs_per_pod,
                        spines_per_agg,
                    } => {
                        let agg_index = node - self.n_hosts - self.n_tor;
                        if dst_tor / tors_per_pod == agg_index / aggs_per_pod {
                            // Same pod: down to the ToR's local index.
                            only_if_up(dst_tor % tors_per_pod, &mut link_up)
                        } else {
                            // Cross-pod: ECMP up to this plane's spines.
                            let up = tors_per_pod..tors_per_pod + spines_per_agg;
                            self.ecmp(node, up, flow_hash, &mut link_up)
                        }
                    }
                }
            }
            NodeKind::Spine => {
                // One down-port per pod, in pod order.
                let dst_tor = self.host_tor[dst] - self.n_hosts;
                let tors_per_pod = match self.tiers {
                    Tiers::Three { tors_per_pod, .. } => tors_per_pod,
                    Tiers::Two => unreachable!("two-tier fabrics have no spines"),
                };
                only_if_up(dst_tor / tors_per_pod, &mut link_up)
            }
        }
    }

    /// Partition the topology into `n_shards` event cores for the
    /// conservative parallel engine.
    ///
    /// The unit of placement is a ToR subtree — a ToR plus every host
    /// under it — so host↔ToR links are never cut (they are the
    /// shortest-delay, highest-rate links and carry PFC at nanosecond
    /// timescales). ToR subtrees are split contiguously and balanced to
    /// within one ToR; each upper tier (leaves/aggs, then spines) is
    /// split the same way, which maximizes co-sharded ToR↔leaf pairs
    /// under the balance constraint (both splits give their "extra"
    /// unit to the lowest shard ids, so large groups pair with large
    /// groups). Only switch↔switch links cross shards; their
    /// propagation delay is the engine's lookahead.
    ///
    /// `n_shards` is clamped to `[1, n_tor]` — a shard with no subtree
    /// would own no traffic sources and only add barrier latency.
    pub fn partition(&self, n_shards: usize) -> Vec<ShardSpec> {
        let n = n_shards.clamp(1, self.n_tor);
        let split = |total: usize, s: usize| {
            let base = total / n;
            let extra = total % n;
            let lo = s * base + s.min(extra);
            lo..lo + base + usize::from(s < extra)
        };
        // Hosts grouped under their ToR, ascending host id within each
        // group (identical to the old arithmetic for blocked layouts,
        // and correct for rail-striped ones).
        let mut tor_hosts: Vec<Vec<NodeId>> = vec![Vec::new(); self.n_tor];
        for h in 0..self.n_hosts {
            tor_hosts[self.host_tor[h] - self.n_hosts].push(h);
        }
        (0..n)
            .map(|s| {
                let mut nodes = Vec::new();
                for t in split(self.n_tor, s) {
                    nodes.extend_from_slice(&tor_hosts[t]);
                }
                let n_hosts = nodes.len();
                for t in split(self.n_tor, s) {
                    nodes.push(self.n_hosts + t);
                }
                for l in split(self.n_leaf, s) {
                    nodes.push(self.n_hosts + self.n_tor + l);
                }
                for sp in split(self.n_spine, s) {
                    nodes.push(self.n_hosts + self.n_tor + self.n_leaf + sp);
                }
                ShardSpec { nodes, n_hosts }
            })
            .collect()
    }

    /// Node → shard index for a partition from [`Topology::partition`].
    pub fn shard_map(&self, shards: &[ShardSpec]) -> Vec<u16> {
        let mut map = vec![u16::MAX; self.n_nodes()];
        for (s, spec) in shards.iter().enumerate() {
            for &nd in &spec.nodes {
                debug_assert_eq!(map[nd], u16::MAX, "node {nd} owned twice");
                map[nd] = s as u16;
            }
        }
        assert!(
            map.iter().all(|&m| m != u16::MAX),
            "partition must cover every node"
        );
        map
    }

    /// Conservative lookahead for a sharded run: the minimum propagation
    /// delay across links whose endpoints live in different shards.
    /// `None` when nothing is cut (single shard) — the engine then runs
    /// serially.
    pub fn lookahead(&self, shard_of: &[u16]) -> Option<Nanos> {
        let mut min: Option<Nanos> = None;
        for node in 0..self.n_nodes() {
            for p in &self.ports[node] {
                if shard_of[node] != shard_of[p.peer] {
                    min = Some(min.map_or(p.delay, |m| m.min(p.delay)));
                }
            }
        }
        min
    }

    /// Base round-trip delay between two hosts: propagation plus one MTU
    /// serialization per hop on the data path, plus propagation plus one
    /// control-frame serialization per hop for the returning ACK. This is
    /// the Swift-style `Base path delay` (`n_{i,j} · d_{i,j}` refined with
    /// serialization) that normalizes runtime RTT in the utility function.
    pub fn base_rtt(&self, src: NodeId, dst: NodeId, mtu_wire: u32, ctrl_wire: u32) -> Nanos {
        let mut total = 0f64;
        let mut node = src;
        // Forward data path.
        while node != dst {
            let p = self.next_port(node, dst, 0);
            let port = self.ports[node][p];
            total += port.delay as f64 + mtu_wire as f64 / port.bw;
            node = port.peer;
        }
        // Reverse control path (ACK).
        let mut back = dst;
        while back != src {
            let p = self.next_port(back, src, 0);
            let port = self.ports[back][p];
            total += port.delay as f64 + ctrl_wire as f64 / port.bw;
            back = port.peer;
        }
        total.ceil() as Nanos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize, Value};

    /// Two hosts, one switch ("ToR"): host0 -- sw -- host1.
    fn dumbbell() -> Topology {
        Topology::two_tier_clos(1, 2, 1, 100.0, 100.0, 1_000)
    }

    /// Hop count (number of links) of the data path between two hosts,
    /// by walking the route (2 intra-ToR, 4 across a two-tier fabric or
    /// within a pod, 6 across pods).
    fn hops(t: &Topology, src: NodeId, dst: NodeId) -> usize {
        let mut node = src;
        let mut hops = 0;
        while node != dst {
            let p = t.next_port(node, dst, 0);
            node = t.ports(node)[p].peer;
            hops += 1;
            assert!(hops <= 8, "routing loop {src}->{dst}");
        }
        hops
    }

    fn rail(n_rail: usize, n_server: usize, n_spine: usize, delay_ns: Nanos) -> Topology {
        let spec = RailSpec {
            n_rail,
            n_server,
            n_spine,
            host_gbps: 100.0,
            uplink_gbps: 200.0,
            delay_ns,
        };
        spec.build()
    }

    fn clos() -> Topology {
        // 8 ToR × 16 hosts, 4 leaves: the paper's 128-server topology.
        Topology::two_tier_clos(8, 16, 4, 100.0, 100.0, 5_000)
    }

    #[test]
    fn clos_dimensions() {
        let t = clos();
        assert_eq!(t.n_hosts(), 128);
        assert_eq!(t.n_nodes(), 128 + 8 + 4);
        assert_eq!(t.kind(0), NodeKind::Host);
        assert_eq!(t.kind(128), NodeKind::Tor);
        assert_eq!(t.kind(136), NodeKind::Leaf);
        assert_eq!(t.n_spine, 0);
    }

    #[test]
    fn port_counts_match_radix() {
        let t = clos();
        assert_eq!(t.ports(0).len(), 1); // host: one uplink
        assert_eq!(t.ports(128).len(), 16 + 4); // ToR: 16 down + 4 up
        assert_eq!(t.ports(136).len(), 8); // leaf: one port per ToR
    }

    #[test]
    fn peer_port_back_references_are_consistent() {
        let t = clos();
        for node in 0..t.n_nodes() {
            for (i, p) in t.ports(node).iter().enumerate() {
                let back = t.ports(p.peer)[p.peer_port];
                assert_eq!(back.peer, node, "node {node} port {i}");
                assert_eq!(back.peer_port, i);
            }
        }
    }

    #[test]
    fn routes_reach_destination() {
        let t = clos();
        for (src, dst) in [(0usize, 1usize), (0, 17), (5, 127), (120, 3)] {
            let mut node = src;
            let mut walked = 0;
            while node != dst {
                let port = t.next_port(node, dst, 0xDEAD_BEEF);
                node = t.ports(node)[port].peer;
                walked += 1;
                assert!(walked <= 4, "path too long {src}->{dst}");
            }
            assert_eq!(walked, hops(&t, src, dst));
        }
    }

    #[test]
    fn intra_tor_is_two_hops_inter_tor_four() {
        let t = clos();
        assert_eq!(hops(&t, 0, 1), 2); // same ToR
        assert_eq!(hops(&t, 0, 16), 4); // different ToR
        assert_eq!(hops(&t, 7, 7), 0);
    }

    #[test]
    fn ecmp_spreads_flows_over_leaves() {
        let t = clos();
        let mut used = std::collections::HashSet::new();
        for h in 0..64u64 {
            used.insert(t.next_port(128, 127, h));
        }
        assert_eq!(used.len(), 4, "all four uplinks should be used");
        // And one hash is always the same path (no reordering).
        assert_eq!(t.next_port(128, 127, 42), t.next_port(128, 127, 42));
    }

    #[test]
    fn masked_ecmp_steers_around_dead_uplinks() {
        let t = clos(); // ToR 128 has down-ports 0..16, uplinks 16..20
        let dead = 17usize;
        let mut used = std::collections::HashSet::new();
        for h in 0..64u64 {
            let p = t
                .next_port_masked(128, 127, h, |_, port| port != dead)
                .unwrap();
            assert_ne!(p, dead, "dead uplink must never be chosen");
            assert!((16..20).contains(&p));
            used.insert(p);
        }
        assert_eq!(used.len(), 3, "flows rehash over the survivors");
        // No live uplink at all: unroutable.
        assert_eq!(t.next_port_masked(128, 127, 0, |_, port| port < 16), None);
        // Single-path segments cannot be routed around.
        assert_eq!(t.next_port_masked(0, 5, 0, |_, _| false), None);
        // With everything up, the mask is a no-op.
        assert_eq!(
            t.next_port_masked(136, 3, 9, |_, _| true),
            Some(t.next_port(136, 3, 9))
        );
    }

    #[test]
    fn base_rtt_scales_with_hops() {
        let t = clos();
        let near = t.base_rtt(0, 1, 1048, 64);
        let far = t.base_rtt(0, 127, 1048, 64);
        assert!(far > near);
        // 4 propagation each way for inter-ToR: at least 8 × 5 µs.
        assert!(far >= 40_000);
        // Symmetric for symmetric topologies.
        assert_eq!(far, t.base_rtt(127, 0, 1048, 64));
    }

    #[test]
    fn gbps_conversion() {
        assert!((gbps(100.0) - 12.5).abs() < 1e-12);
    }

    /// Count links whose endpoints land in different shards.
    fn cut_edges(t: &Topology, map: &[u16]) -> usize {
        let mut cut = 0;
        for node in 0..t.n_nodes() {
            for p in t.ports(node) {
                if map[node] != map[p.peer] {
                    cut += 1;
                }
            }
        }
        cut / 2 // each link seen from both ends
    }

    #[test]
    fn partition_covers_balances_and_keeps_subtrees() {
        // The committed topologies: paper clos, hunt tiny clos, dumbbell,
        // plus one of each new family.
        let topos = [
            Topology::two_tier_clos(8, 16, 4, 100.0, 100.0, 5_000),
            Topology::two_tier_clos(2, 2, 1, 100.0, 100.0, 1_000),
            dumbbell(),
            three_tier(400.0),
            rail(4, 4, 2, 1_000),
            MixedRateSpec {
                n_tor: 4,
                hosts_per_tor: 4,
                n_leaf: 2,
                host_gbps: 100.0,
                fast_gbps: 100.0,
                slow_gbps: 25.0,
                delay_ns: 1_000,
            }
            .build(),
        ];
        for t in &topos {
            for n in 1..=6 {
                let shards = t.partition(n);
                assert_eq!(shards.len(), n.min(t.n_tor));
                let map = t.shard_map(&shards); // asserts full coverage
                                                // Host spread across shards ≤ one ToR's worth.
                let hosts: Vec<usize> = shards.iter().map(|s| s.n_hosts).collect();
                let (min_h, max_h) = (hosts.iter().min().unwrap(), hosts.iter().max().unwrap());
                assert!(
                    max_h - min_h <= t.hosts_per_tor,
                    "host imbalance {min_h}..{max_h} on {n} shards"
                );
                // A host always shares its shard with its ToR: host↔ToR
                // links (and so PFC toward hosts) are never cut.
                for h in 0..t.n_hosts() {
                    assert_eq!(map[h], map[t.host_tor[h]], "host {h} split from its ToR");
                }
                // Every cut edge is switch↔switch.
                for node in 0..t.n_nodes() {
                    for p in t.ports(node) {
                        if map[node] != map[p.peer] {
                            assert!(
                                t.kind(node) != NodeKind::Host && t.kind(p.peer) != NodeKind::Host
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn partition_cut_is_minimal_for_balanced_leaf_assignments() {
        // Fixing the ToR split, the only freedom is where the leaves go.
        // Brute-force every balanced leaf assignment and check ours cuts
        // no more ToR↔leaf links than the best of them.
        let t = Topology::two_tier_clos(8, 16, 4, 100.0, 100.0, 5_000);
        for n in 2..=4usize {
            let shards = t.partition(n);
            let map = t.shard_map(&shards);
            let ours = cut_edges(&t, &map);
            let tors_of = |s: usize| {
                shards[s]
                    .nodes
                    .iter()
                    .filter(|&&nd| t.kind(nd) == NodeKind::Tor)
                    .count()
            };
            let n_leaf = t.n_leaf;
            let mut best = usize::MAX;
            // Enumerate all n^n_leaf leaf→shard maps, keep balanced ones.
            for code in 0..n.pow(n_leaf as u32) {
                let mut c = code;
                let mut leaves = vec![0usize; n];
                for _ in 0..n_leaf {
                    leaves[c % n] += 1;
                    c /= n;
                }
                if leaves.iter().max().unwrap() - leaves.iter().min().unwrap() > 1 {
                    continue;
                }
                // Cut ToR↔leaf links = total − co-sharded pairs.
                let co: usize = (0..n).map(|s| tors_of(s) * leaves[s]).sum();
                best = best.min(t.n_tor * n_leaf - co);
            }
            assert_eq!(ours, best, "{n} shards: cut {ours}, best balanced {best}");
        }
    }

    #[test]
    fn partition_clamps_and_looks_ahead() {
        let t = Topology::two_tier_clos(2, 2, 1, 100.0, 100.0, 1_000);
        // More shards than ToRs clamps to n_tor.
        assert_eq!(t.partition(16).len(), 2);
        let map = t.shard_map(&t.partition(2));
        // All links share one delay, so the lookahead is exactly it.
        assert_eq!(t.lookahead(&map), Some(1_000));
        // Single shard: nothing is cut.
        let one = t.shard_map(&t.partition(1));
        assert_eq!(t.lookahead(&one), None);
    }

    #[test]
    fn dumbbell_is_minimal() {
        let t = dumbbell();
        assert_eq!(t.n_hosts(), 2);
        assert_eq!(t.host_tor[0], t.host_tor[1]);
        assert_eq!(hops(&t, 0, 1), 2);
    }

    // ------------------------------------------------------------------
    // Topology families
    // ------------------------------------------------------------------

    /// 2 pods × 2 ToRs × 4 hosts, 2 aggs/pod, 2 spines/agg; with
    /// 100 G spines, oversubscribed 2:1 at the aggregation tier.
    fn three_tier(spine_gbps: f64) -> Topology {
        let spec = ThreeTierSpec {
            n_pod: 2,
            tors_per_pod: 2,
            hosts_per_tor: 4,
            aggs_per_pod: 2,
            spines_per_agg: 2,
            host_gbps: 100.0,
            agg_gbps: 100.0,
            spine_gbps,
            delay_ns: 5_000,
        };
        spec.build()
    }

    #[test]
    fn three_tier_dimensions_and_kinds() {
        let t = three_tier(100.0);
        assert_eq!(t.n_hosts(), 16);
        assert_eq!(t.n_tor, 4);
        assert_eq!(t.n_leaf, 4); // aggregation switches
        assert_eq!(t.n_spine, 4);
        assert_eq!(t.n_nodes(), 16 + 4 + 4 + 4);
        assert_eq!(t.kind(15), NodeKind::Host);
        assert_eq!(t.kind(16), NodeKind::Tor);
        assert_eq!(t.kind(20), NodeKind::Leaf);
        assert_eq!(t.kind(24), NodeKind::Spine);
        // Radix: ToR = 4 down + 2 up; agg = 2 down + 2 up; spine = 1/pod.
        assert_eq!(t.ports(16).len(), 6);
        assert_eq!(t.ports(20).len(), 4);
        assert_eq!(t.ports(24).len(), 2);
    }

    #[test]
    fn three_tier_back_references_are_consistent() {
        let t = three_tier(100.0);
        for node in 0..t.n_nodes() {
            for (i, p) in t.ports(node).iter().enumerate() {
                let back = t.ports(p.peer)[p.peer_port];
                assert_eq!(back.peer, node, "node {node} port {i}");
                assert_eq!(back.peer_port, i);
            }
        }
    }

    #[test]
    fn three_tier_routes_reach_every_pair() {
        let t = three_tier(100.0);
        for src in 0..t.n_hosts() {
            for dst in 0..t.n_hosts() {
                if src == dst {
                    continue;
                }
                for hash in [0u64, 7, 0xDEAD_BEEF] {
                    let mut node = src;
                    let mut hops = 0;
                    while node != dst {
                        let p = t.next_port(node, dst, hash);
                        node = t.ports(node)[p].peer;
                        hops += 1;
                        assert!(hops <= 6, "path too long {src}->{dst}");
                    }
                }
            }
        }
        // Same ToR: 2 hops; same pod: 4; cross-pod: 6.
        assert_eq!(hops(&t, 0, 1), 2);
        assert_eq!(hops(&t, 0, 4), 4);
        assert_eq!(hops(&t, 0, 8), 6);
    }

    #[test]
    fn three_tier_ecmp_uses_all_planes_and_spines() {
        let t = three_tier(100.0);
        // ToR 16 (pod 0) to a cross-pod host spreads over both aggs.
        let mut agg_ports = std::collections::HashSet::new();
        for h in 0..32u64 {
            agg_ports.insert(t.next_port(16, 8, h));
        }
        assert_eq!(agg_ports.len(), 2);
        // Agg 20 (pod 0, plane 0) cross-pod spreads over its 2 spines.
        let mut spine_ports = std::collections::HashSet::new();
        for h in 0..32u64 {
            spine_ports.insert(t.next_port(20, 8, h));
        }
        assert_eq!(spine_ports.len(), 2);
        // Masked routing steers around a dead spine uplink.
        let dead = *spine_ports.iter().next().unwrap();
        for h in 0..16u64 {
            let p = t
                .next_port_masked(20, 8, h, |_, port| port != dead)
                .unwrap();
            assert_ne!(p, dead);
        }
    }

    #[test]
    fn rail_optimized_stripes_hosts_across_rails() {
        let t = rail(4, 4, 2, 1_000);
        assert_eq!(t.n_hosts(), 16);
        assert_eq!(t.n_tor, 4);
        // GPU g of server s is host s·4+g and lives on rail g.
        for h in 0..16 {
            assert_eq!(t.host_tor[h], 16 + h % 4, "host {h}");
        }
        // Same rail ⇔ same GPU index: 2 hops; otherwise via a spine.
        assert_eq!(hops(&t, 0, 4), 2);
        assert_eq!(hops(&t, 0, 1), 4);
        // Graph is still a consistent two-tier Clos.
        for node in 0..t.n_nodes() {
            for (i, p) in t.ports(node).iter().enumerate() {
                let back = t.ports(p.peer)[p.peer_port];
                assert_eq!(back.peer, node, "node {node} port {i}");
                assert_eq!(back.peer_port, i);
            }
        }
        for src in 0..t.n_hosts() {
            for dst in 0..t.n_hosts() {
                if src != dst {
                    hops(&t, src, dst); // asserts internally on loops
                }
            }
        }
    }

    #[test]
    fn mixed_rate_alternates_leaf_plane_speeds() {
        let spec = MixedRateSpec {
            n_tor: 2,
            hosts_per_tor: 2,
            n_leaf: 2,
            host_gbps: 100.0,
            fast_gbps: 100.0,
            slow_gbps: 25.0,
            delay_ns: 1_000,
        };
        let t = spec.build();
        // ToR 4's uplinks: port 2 → leaf 0 (fast), port 3 → leaf 1 (slow).
        assert!((t.ports(4)[2].bw - gbps(100.0)).abs() < 1e-12);
        assert!((t.ports(4)[3].bw - gbps(25.0)).abs() < 1e-12);
        // Leaf-side ports match their plane's speed.
        assert!((t.ports(6)[0].bw - gbps(100.0)).abs() < 1e-12);
        assert!((t.ports(7)[0].bw - gbps(25.0)).abs() < 1e-12);
    }

    #[test]
    fn three_tier_partition_lookahead_and_invariants() {
        let t = three_tier(100.0);
        for n in [2usize, 3, 4] {
            let shards = t.partition(n);
            let map = t.shard_map(&shards);
            assert_eq!(t.lookahead(&map), Some(5_000));
            for h in 0..t.n_hosts() {
                assert_eq!(map[h], map[t.host_tor[h]]);
            }
        }
    }

    // ------------------------------------------------------------------
    // Specs: validation and serde round-trips
    // ------------------------------------------------------------------

    fn specs() -> [TopoSpec; 4] {
        [
            TopoSpec::TwoTier(ClosSpec {
                n_tor: 2,
                hosts_per_tor: 4,
                n_leaf: 2,
                host_gbps: 100.0,
                uplink_gbps: 100.0,
                delay_ns: 4_000,
            }),
            TopoSpec::ThreeTier(ThreeTierSpec {
                n_pod: 2,
                tors_per_pod: 2,
                hosts_per_tor: 2,
                aggs_per_pod: 2,
                spines_per_agg: 1,
                host_gbps: 100.0,
                agg_gbps: 100.0,
                spine_gbps: 400.0,
                delay_ns: 4_000,
            }),
            TopoSpec::Rail(RailSpec {
                n_rail: 4,
                n_server: 2,
                n_spine: 2,
                host_gbps: 100.0,
                uplink_gbps: 200.0,
                delay_ns: 4_000,
            }),
            TopoSpec::MixedRate(MixedRateSpec {
                n_tor: 2,
                hosts_per_tor: 2,
                n_leaf: 2,
                host_gbps: 100.0,
                fast_gbps: 100.0,
                slow_gbps: 25.0,
                delay_ns: 4_000,
            }),
        ]
    }

    /// FNV-1a over every node's kind and port table, in node order.
    fn port_table_hash(t: &Topology) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for node in 0..t.n_nodes() {
            eat(node as u64);
            eat(t.kind(node) as u64);
            for p in t.ports(node) {
                eat(p.peer as u64);
                eat(p.peer_port as u64);
                eat(p.bw.to_bits());
                eat(p.delay);
            }
        }
        h
    }

    /// Faults, corpus cases and PFC frames address links by
    /// `(node, port)`, so a builder may never permute a port table. The
    /// hashes were computed at the commit before the builders were
    /// rewritten to take their specs.
    #[test]
    fn port_tables_are_pinned_for_every_family() {
        let built: Vec<Topology> = specs().iter().map(TopoSpec::build).collect();
        let pinned = [
            ("two_tier", &built[0], 0xd029_a960_9826_0c2du64),
            ("three_tier", &built[1], 0x9b23_547c_bdcb_9a50),
            ("rail", &built[2], 0xddfc_578f_7bc1_839c),
            ("mixed_rate", &built[3], 0x54a5_3ae0_9c37_4945),
            ("dumbbell", &dumbbell(), 0x2fdd_28dc_7dbb_6b69),
        ];
        for (name, topo, hash) in pinned {
            assert_eq!(port_table_hash(topo), hash, "{name}");
        }
    }

    #[test]
    fn topo_spec_round_trips_every_family() {
        for spec in specs() {
            let v = spec.serialize_value();
            assert_eq!(v.get("family"), Some(&Value::String(spec.family().into())));
            let back =
                TopoSpec::from_value(&v).unwrap_or_else(|e| panic!("{}: {e}", spec.family()));
            assert_eq!(back, spec);
            assert_eq!(spec.validate(), Ok(()), "{}", spec.family());
            // Spec-level counts agree with the built topology.
            let t = spec.build();
            assert_eq!(t.n_hosts(), spec.n_hosts(), "{}", spec.family());
            assert_eq!(t.n_nodes(), spec.n_nodes(), "{}", spec.family());
        }
    }

    /// `spec` with its field `key` set to `value`, through the reader
    /// (which checks types only).
    fn with(spec: TopoSpec, key: &str, value: Value) -> TopoSpec {
        let Value::Object(mut entries) = spec.serialize_value() else {
            unreachable!("a spec serializes to an object")
        };
        for (k, val) in entries.iter_mut() {
            if k == key {
                *val = value.clone();
            }
        }
        TopoSpec::from_value(&Value::Object(entries)).expect("well-typed spec")
    }

    /// A malformed spec is an `Err` naming the type and the field.
    #[test]
    fn malformed_specs_are_typed_errors() {
        let parse = |text: &str| TopoSpec::from_value(&serde_json::from_str_value(text).unwrap());
        let cases = [
            // A bare ClosSpec object, the form corpus files had before
            // topology families existed.
            (
                r#"{"n_tor":2,"hosts_per_tor":2,"n_leaf":1,"host_gbps":100.0,"uplink_gbps":100.0,"delay_ns":1000}"#,
                "TopoSpec: missing `family`",
            ),
            (
                r#"{"family":"hypercube"}"#,
                "TopoSpec: unknown family `hypercube`",
            ),
            (
                r#"{"family":"rail","n_rail":"4","n_server":2,"n_spine":2,"host_gbps":100.0,"uplink_gbps":100.0,"delay_ns":1000}"#,
                "RailSpec.n_rail: expected a usize",
            ),
            (
                r#"{"family":"three_tier","n_pod":2,"tors_per_pod":2}"#,
                "ThreeTierSpec: missing `hosts_per_tor`",
            ),
            (r#"{"family":7}"#, "TopoSpec.family: expected a string"),
            ("[]", "expected a TopoSpec object"),
        ];
        for (text, want) in cases {
            assert_eq!(parse(text), Err(want.to_string()), "{text}");
        }
    }

    /// `delay_ns == 0` would zero the parallel engine's lookahead; every
    /// spec family rejects it (`ClosSpec` used to accept it).
    #[test]
    fn specs_reject_zero_delay() {
        for spec in specs() {
            let err = with(spec, "delay_ns", Value::UInt(0))
                .validate()
                .unwrap_err();
            assert!(err.contains("delay_ns"), "{}: {err}", spec.family());
        }
    }

    #[test]
    fn specs_reject_zero_dimensions_and_bad_rates() {
        let base = specs()[0];
        let err = with(base, "n_leaf", Value::UInt(0)).validate().unwrap_err();
        assert_eq!(err, "ClosSpec: `n_leaf` must be >= 1");
        for rate in [-1.0, 0.0, f64::NAN] {
            let spec = with(base, "uplink_gbps", Value::Float(rate));
            let err = spec.validate().unwrap_err();
            assert_eq!(
                err, "ClosSpec: `uplink_gbps` must be positive and finite",
                "{rate}"
            );
        }
    }

    /// Events address ports as `u16` and nodes as `u32`; a spec that
    /// would not fit is rejected where it enters (it used to truncate
    /// silently: `PortFree` then freed the wrong port).
    #[test]
    fn specs_reject_fabrics_wider_than_an_event_can_address() {
        let [TopoSpec::TwoTier(clos), TopoSpec::ThreeTier(three), TopoSpec::Rail(rail), TopoSpec::MixedRate(mixed)] =
            specs()
        else {
            unreachable!("specs() lists the four families in order")
        };
        let too_wide = [
            // A leaf faces every ToR.
            TopoSpec::TwoTier(ClosSpec {
                n_tor: 70_000,
                ..clos
            }),
            // A spine faces every pod.
            TopoSpec::ThreeTier(ThreeTierSpec {
                n_pod: 70_000,
                ..three
            }),
            // A rail switch faces one GPU per server plus every spine.
            TopoSpec::Rail(RailSpec {
                n_server: 65_534,
                ..rail
            }),
            // A ToR faces its hosts plus every leaf — even when the sum
            // does not fit a `usize`.
            TopoSpec::MixedRate(MixedRateSpec {
                hosts_per_tor: usize::MAX,
                ..mixed
            }),
        ];
        for spec in too_wide {
            let err = spec.validate().unwrap_err();
            assert!(err.contains("radix"), "{}: {err}", spec.family());
        }
        // Only a three-tier fabric can stay within the radix bound and
        // still outgrow a `u32` node id.
        let too_many = ThreeTierSpec {
            n_pod: 2_000,
            tors_per_pod: 2_000,
            hosts_per_tor: 2_000,
            ..three
        };
        let err = TopoSpec::ThreeTier(too_many).validate().unwrap_err();
        assert!(err.contains("nodes"), "{err}");
        // The widest fabric that fits still passes.
        let widest = TopoSpec::TwoTier(ClosSpec {
            n_tor: 65_535,
            ..clos
        });
        assert_eq!(widest.validate(), Ok(()));
    }

    /// Specs have public fields, so `build` is reachable without
    /// the reader: it must refuse too, not build a fabric whose port
    /// indices wrap.
    #[test]
    #[should_panic(expected = "switch radix 70000 exceeds 65535")]
    fn building_an_over_wide_spec_panics() {
        Topology::two_tier_clos(70_000, 1, 1, 100.0, 100.0, 1_000);
    }

    #[test]
    fn to_two_tier_preserves_host_count() {
        for spec in specs() {
            let two = spec.to_two_tier();
            assert_eq!(two.n_hosts(), spec.n_hosts(), "{}", spec.family());
        }
    }
}
