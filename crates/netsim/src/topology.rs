//! Topology builders for the paper's testbeds.
//!
//! * [`star`] — N hosts on one switch (incast microbenchmarks, Figs 10–13, 19),
//! * [`clos_testbed`] — the 3-tier Clos of Figure 2 (4 ToRs, 4 leaves,
//!   2 spines, 40 Gbps everywhere),
//! * [`parking_lot`] — the two-bottleneck chain of Figure 20(a).

use crate::event::NodeId;
use crate::host::HostConfig;
use crate::network::{Network, NetworkBuilder};
use crate::switch::SwitchConfig;
use crate::units::{Bandwidth, Duration};

/// Common link parameters for a topology build.
#[derive(Debug, Clone, Copy)]
pub struct LinkParams {
    /// Bandwidth of every link.
    pub bandwidth: Bandwidth,
    /// One-way propagation + pipeline delay of every link.
    pub delay: Duration,
}

impl Default for LinkParams {
    /// The paper's testbed: 40 Gbps links; ~1 µs per hop covers propagation
    /// plus switch pipeline latency.
    fn default() -> LinkParams {
        LinkParams {
            bandwidth: Bandwidth::gbps(40),
            delay: Duration::from_micros(1),
        }
    }
}

/// A star: `n` hosts on a single switch.
pub struct Star {
    /// The built network.
    pub net: Network,
    /// The switch.
    pub switch: NodeId,
    /// The hosts, in creation order.
    pub hosts: Vec<NodeId>,
}

/// Builds a star of `n` hosts around one switch.
pub fn star(
    n: usize,
    link: LinkParams,
    host_cfg: HostConfig,
    switch_cfg: SwitchConfig,
    seed: u64,
) -> Star {
    let mut b = NetworkBuilder::new(seed);
    let switch = b.switch(switch_cfg);
    let hosts: Vec<NodeId> = (0..n).map(|_| b.host(host_cfg)).collect();
    for &h in &hosts {
        b.connect(h, switch, link.bandwidth, link.delay);
    }
    Star {
        net: b.build(),
        switch,
        hosts,
    }
}

/// The paper's Figure 2 testbed.
pub struct ClosTestbed {
    /// The built network.
    pub net: Network,
    /// Top-of-rack switches T1–T4.
    pub tors: [NodeId; 4],
    /// Leaf switches L1–L4.
    pub leaves: [NodeId; 4],
    /// Spine switches S1–S2.
    pub spines: [NodeId; 2],
    /// `hosts[t]` are the hosts under ToR `t`.
    pub hosts: Vec<Vec<NodeId>>,
}

/// Builds the 3-tier Clos of Figure 2 with `hosts_per_tor` hosts under each
/// ToR.
///
/// Wiring (all 40 Gbps in the paper): T1 and T2 uplink to L1 and L2; T3 and
/// T4 uplink to L3 and L4; every leaf uplinks to both spines. Each ToR is
/// its own IP subnet; routing is shortest-path with ECMP, as BGP computes
/// on the real testbed.
pub fn clos_testbed(
    hosts_per_tor: usize,
    link: LinkParams,
    host_cfg: HostConfig,
    switch_cfg: SwitchConfig,
    seed: u64,
) -> ClosTestbed {
    let mut b = NetworkBuilder::new(seed);
    let tors = [
        b.switch(switch_cfg.clone()),
        b.switch(switch_cfg.clone()),
        b.switch(switch_cfg.clone()),
        b.switch(switch_cfg.clone()),
    ];
    let leaves = [
        b.switch(switch_cfg.clone()),
        b.switch(switch_cfg.clone()),
        b.switch(switch_cfg.clone()),
        b.switch(switch_cfg.clone()),
    ];
    let spines = [b.switch(switch_cfg.clone()), b.switch(switch_cfg)];

    // ToR ↔ leaf: pods of two ToRs × two leaves.
    for (t, ls) in [(0, [0, 1]), (1, [0, 1]), (2, [2, 3]), (3, [2, 3])] {
        for l in ls {
            b.connect(tors[t], leaves[l], link.bandwidth, link.delay);
        }
    }
    // Leaf ↔ spine: full mesh.
    for &leaf in &leaves {
        for &spine in &spines {
            b.connect(leaf, spine, link.bandwidth, link.delay);
        }
    }
    // Hosts.
    let mut hosts = Vec::with_capacity(4);
    for &t in &tors {
        let mut rack = Vec::with_capacity(hosts_per_tor);
        for _ in 0..hosts_per_tor {
            let h = b.host(host_cfg);
            b.connect(h, t, link.bandwidth, link.delay);
            rack.push(h);
        }
        hosts.push(rack);
    }

    ClosTestbed {
        net: b.build(),
        tors,
        leaves,
        spines,
        hosts,
    }
}

/// The two-bottleneck "parking lot" of Figure 20(a).
pub struct ParkingLot {
    /// The built network.
    pub net: Network,
    /// Sender of f1 (one bottleneck: SW1→SW2).
    pub h1: NodeId,
    /// Sender of f2 (two bottlenecks: SW1→SW2 and SW2→R2).
    pub h2: NodeId,
    /// Sender of f3 (one bottleneck: SW2→R2).
    pub h3: NodeId,
    /// Receiver of f1.
    pub r1: NodeId,
    /// Receiver of f2 and f3.
    pub r2: NodeId,
}

/// Builds the multi-bottleneck scenario: f2 (H2→R2) crosses both the
/// SW1→SW2 link (shared with f1) and the SW2→R2 link (shared with f3).
/// Max-min fairness gives every flow half the link rate.
pub fn parking_lot(
    link: LinkParams,
    host_cfg: HostConfig,
    switch_cfg: SwitchConfig,
    seed: u64,
) -> ParkingLot {
    let mut b = NetworkBuilder::new(seed);
    let sw1 = b.switch(switch_cfg.clone());
    let sw2 = b.switch(switch_cfg);
    let h1 = b.host(host_cfg);
    let h2 = b.host(host_cfg);
    let h3 = b.host(host_cfg);
    let r1 = b.host(host_cfg);
    let r2 = b.host(host_cfg);
    b.connect(sw1, sw2, link.bandwidth, link.delay);
    b.connect(h1, sw1, link.bandwidth, link.delay);
    b.connect(h2, sw1, link.bandwidth, link.delay);
    b.connect(h3, sw2, link.bandwidth, link.delay);
    b.connect(r1, sw2, link.bandwidth, link.delay);
    b.connect(r2, sw2, link.bandwidth, link.delay);
    ParkingLot {
        net: b.build(),
        h1,
        h2,
        h3,
        r1,
        r2,
    }
}

/// A k-ary fat tree (beyond the paper's testbed: for scalability studies).
pub struct FatTree {
    /// The built network.
    pub net: Network,
    /// Core switches ((k/2)² of them).
    pub cores: Vec<NodeId>,
    /// Aggregation switches, k/2 per pod.
    pub aggs: Vec<NodeId>,
    /// Edge switches, k/2 per pod.
    pub edges: Vec<NodeId>,
    /// Hosts, k/2 per edge switch (k³/4 total).
    pub hosts: Vec<NodeId>,
}

/// Builds a k-ary fat tree (`k` even): `k` pods of `k/2` edge and `k/2`
/// aggregation switches, `(k/2)²` cores, and `k³/4` hosts. Every
/// host-to-host path outside a rack has `(k/2)`-way (intra-pod) or
/// `(k/2)²`-way (inter-pod) ECMP.
pub fn fat_tree(
    k: usize,
    link: LinkParams,
    host_cfg: HostConfig,
    switch_cfg: SwitchConfig,
    seed: u64,
) -> FatTree {
    assert!(k >= 2 && k.is_multiple_of(2), "fat tree arity must be even");
    let half = k / 2;
    let mut b = NetworkBuilder::new(seed);
    let cores: Vec<NodeId> = (0..half * half)
        .map(|_| b.switch(switch_cfg.clone()))
        .collect();
    let mut aggs = Vec::with_capacity(k * half);
    let mut edges = Vec::with_capacity(k * half);
    let mut hosts = Vec::with_capacity(k * half * half);
    for _pod in 0..k {
        let pod_aggs: Vec<NodeId> = (0..half).map(|_| b.switch(switch_cfg.clone())).collect();
        let pod_edges: Vec<NodeId> = (0..half).map(|_| b.switch(switch_cfg.clone())).collect();
        // Edge ↔ agg: full bipartite mesh within the pod.
        for &e in &pod_edges {
            for &a in &pod_aggs {
                b.connect(e, a, link.bandwidth, link.delay);
            }
        }
        // Agg i ↔ cores [i·half, (i+1)·half).
        for (i, &a) in pod_aggs.iter().enumerate() {
            for j in 0..half {
                b.connect(a, cores[i * half + j], link.bandwidth, link.delay);
            }
        }
        // Hosts.
        for &e in &pod_edges {
            for _ in 0..half {
                let h = b.host(host_cfg);
                b.connect(h, e, link.bandwidth, link.delay);
                hosts.push(h);
            }
        }
        aggs.extend(pod_aggs);
        edges.extend(pod_edges);
    }
    FatTree {
        net: b.build(),
        cores,
        aggs,
        edges,
        hosts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Node;

    #[test]
    fn star_structure() {
        let s = star(
            4,
            LinkParams::default(),
            HostConfig::default(),
            SwitchConfig::paper_default(),
            1,
        );
        assert_eq!(s.hosts.len(), 4);
        let sw = s.net.switch(s.switch);
        assert_eq!(sw.ports.len(), 4);
        assert!(sw.ports.iter().all(|p| p.attach.is_some()));
        // Every host routes through its single port; the switch routes to
        // all four hosts.
        assert_eq!(sw.routes.len(), 4);
    }

    #[test]
    fn clos_structure_matches_figure_2() {
        let tb = clos_testbed(
            5,
            LinkParams::default(),
            HostConfig::default(),
            SwitchConfig::paper_default(),
            1,
        );
        let (mut switches, mut hosts) = (0, 0);
        for n in &tb.net.nodes {
            match n {
                Node::Switch(_) => switches += 1,
                Node::Host(_) => hosts += 1,
            }
        }
        assert_eq!(switches, 10, "4 ToRs + 4 leaves + 2 spines");
        assert_eq!(hosts, 20);
        // Port counts: ToR = 2 uplinks + 5 hosts, leaf = 2 ToRs + 2
        // spines, spine = 4 leaves.
        assert_eq!(tb.net.switch(tb.tors[0]).ports.len(), 7);
        assert_eq!(tb.net.switch(tb.leaves[0]).ports.len(), 4);
        assert_eq!(tb.net.switch(tb.spines[0]).ports.len(), 4);
    }

    #[test]
    fn clos_inter_pod_paths_have_ecmp_2() {
        let tb = clos_testbed(
            2,
            LinkParams::default(),
            HostConfig::default(),
            SwitchConfig::paper_default(),
            1,
        );
        let far = tb.hosts[3][0];
        // T1 → L1/L2 (2 ways), L1 → S1/S2 (2 ways), S → L3 or L4 (1 way
        // each, since T4 hangs off both L3 and L4... via the spine the
        // shortest path continues through either leaf).
        assert_eq!(tb.net.switch(tb.tors[0]).routes[&far].len(), 2);
        assert_eq!(tb.net.switch(tb.leaves[0]).routes[&far].len(), 2);
        // Intra-pod: T1 → T2 via L1 or L2, no spine crossing.
        let near = tb.hosts[1][0];
        assert_eq!(tb.net.switch(tb.tors[0]).routes[&near].len(), 2);
        let spine_routes = &tb.net.switch(tb.spines[0]).routes[&near];
        assert_eq!(spine_routes.len(), 2, "spine can reach T2 via L1 or L2");
    }

    #[test]
    fn parking_lot_structure() {
        let pl = parking_lot(
            LinkParams::default(),
            HostConfig::default(),
            SwitchConfig::paper_default(),
            1,
        );
        // f2's path crosses both switches: SW1 routes r2-bound traffic
        // over the trunk, SW2 delivers it. The switches are the first
        // two nodes built.
        let sw1 = pl.net.switch(NodeId(0));
        assert_eq!(sw1.routes[&pl.r2].len(), 1);
        let sw2 = pl.net.switch(NodeId(1));
        assert_eq!(sw2.routes[&pl.r2].len(), 1);
        assert_eq!(sw1.ports.len(), 3, "trunk + H1 + H2");
        assert_eq!(sw2.ports.len(), 4, "trunk + H3 + R1 + R2");
    }

    #[test]
    fn fat_tree_structure() {
        let ft = fat_tree(
            4,
            LinkParams::default(),
            HostConfig::default(),
            SwitchConfig::paper_default(),
            1,
        );
        assert_eq!(ft.cores.len(), 4);
        assert_eq!(ft.aggs.len(), 8);
        assert_eq!(ft.edges.len(), 8);
        assert_eq!(ft.hosts.len(), 16);
        // Inter-pod ECMP: an edge switch reaches a remote host via its 2
        // aggs; an agg via its 2 cores.
        let remote = ft.hosts[15];
        assert_eq!(ft.net.switch(ft.edges[0]).routes[&remote].len(), 2);
        assert_eq!(ft.net.switch(ft.aggs[0]).routes[&remote].len(), 2);
        // Intra-rack: direct.
        let local = ft.hosts[0];
        assert_eq!(ft.net.switch(ft.edges[0]).routes[&local].len(), 1);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn fat_tree_rejects_odd_arity() {
        let _ = fat_tree(
            3,
            LinkParams::default(),
            HostConfig::default(),
            SwitchConfig::paper_default(),
            1,
        );
    }

    #[test]
    fn default_link_params_are_the_testbed() {
        let lp = LinkParams::default();
        assert_eq!(lp.bandwidth, Bandwidth::gbps(40));
        assert_eq!(lp.delay, Duration::from_micros(1));
    }
}
