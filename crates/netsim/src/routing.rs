//! Route computation: shortest-path next-hop sets with equal-cost
//! multipath.
//!
//! The paper's testbed routes with BGP + ECMP over a Clos; in a Clos all
//! minimal paths are shortest paths, so a BFS toward each destination
//! yields exactly the up/down ECMP route sets the testbed uses. Path
//! selection among equal-cost ports is done at the switch by hashing the
//! flow id (standing in for the 5-tuple) with a per-run salt.
//!
//! Every host behind a ToR uses that ToR's paths, and the computation
//! relies on it. A destination with exactly one live link (a *stub*) is
//! grouped under its neighbour: every shortest path to it ends on that
//! link, so at every node but the neighbour its next-hop set is the
//! neighbour's, and at the neighbour it is the port facing the stub. One
//! BFS from the neighbour serves the whole group (a k=8 fat tree runs 32
//! BFSes, one per edge switch, not 128), over scratch buffers reused from
//! group to group.
//!
//! A [`RouteTable`] stores each distinct ECMP set at most once, in one
//! flat port array, and one `(start, len)` range per destination, so a
//! lookup is two dependent loads. [`compute_routes_masked`] is the only
//! route path: the initial install, failover after a link transition and
//! the convergence audit's fresh comparison all run it in full over the
//! live links.

use crate::event::{NodeId, PortId};

/// An undirected edge: (node a, port on a, node b, port on b).
pub type Edge = (NodeId, PortId, NodeId, PortId);

/// Per-node routing table: destination node → equal-cost egress ports.
///
/// `ranges` is indexed by the (dense) destination node id and points into
/// `ports`, which holds each distinct port set at most once: a set equal
/// to a run of ports already stored reuses that run. A zero-length range
/// means "no route" — `get` treats both out-of-range and empty as
/// unroutable. Equality compares the set toward each destination, not
/// where it sits in `ports`.
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    ports: Vec<PortId>,
    ranges: Vec<(u32, u32)>,
}

impl RouteTable {
    /// An empty table (everything unroutable).
    pub fn new() -> RouteTable {
        RouteTable::default()
    }

    /// Sets the equal-cost egress port set toward `dst`.
    pub fn insert(&mut self, dst: NodeId, ports: Vec<PortId>) {
        let range = self.intern(&ports);
        self.set(dst, range);
    }

    /// The egress port set toward `dst`, or `None` when unroutable.
    #[inline]
    pub fn get(&self, dst: &NodeId) -> Option<&[PortId]> {
        let &(start, len) = self.ranges.get(dst.0)?;
        let start = start as usize;
        self.ports
            .get(start..start + len as usize)
            .filter(|ports| !ports.is_empty())
    }

    /// Number of routable destinations.
    pub fn len(&self) -> usize {
        self.ranges.iter().filter(|&&(_, len)| len > 0).count()
    }

    /// True when no destination is routable.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Points `dst` at `range` (from [`RouteTable::intern`]).
    fn set(&mut self, dst: NodeId, range: (u32, u32)) {
        if dst.0 >= self.ranges.len() {
            self.ranges.resize(dst.0 + 1, (0, 0));
        }
        self.ranges[dst.0] = range;
    }

    /// The range of `ports` that holds `set`, appending `set` only when
    /// no run of stored ports equals it.
    fn intern(&mut self, set: &[PortId]) -> (u32, u32) {
        let len = set.len();
        if len == 0 {
            return (0, 0);
        }
        let start = match self.ports.windows(len).position(|run| run == set) {
            Some(start) => start,
            None => {
                self.ports.extend_from_slice(set);
                self.ports.len() - len
            }
        };
        assert!(
            start + len <= u32::MAX as usize,
            "a route table holds at most u32::MAX ports"
        );
        (start as u32, len as u32)
    }
}

impl PartialEq for RouteTable {
    fn eq(&self, other: &RouteTable) -> bool {
        let dests = self.ranges.len().max(other.ranges.len());
        (0..dests).all(|d| self.get(&NodeId(d)) == other.get(&NodeId(d)))
    }
}

impl Eq for RouteTable {}

impl std::ops::Index<&NodeId> for RouteTable {
    type Output = [PortId];
    fn index(&self, dst: &NodeId) -> &[PortId] {
        self.get(dst).expect("no route to destination")
    }
}

/// Computes, for every node, the set of equal-cost shortest-path egress
/// ports toward each destination in `dests`.
///
/// Port lists are sorted for determinism. Unreachable destinations simply
/// have no entry.
pub fn compute_routes(num_nodes: usize, edges: &[Edge], dests: &[NodeId]) -> Vec<RouteTable> {
    compute_routes_masked(num_nodes, edges, &[], dests)
}

/// [`compute_routes`] over the surviving topology: edge `i` is skipped when
/// `down[i]` is true (indices past `down.len()` are treated as up). This is
/// route failover — after a link failure the network recomputes with the
/// dead link masked, and surviving ECMP members absorb its flows.
pub fn compute_routes_masked(
    num_nodes: usize,
    edges: &[Edge],
    down: &[bool],
    dests: &[NodeId],
) -> Vec<RouteTable> {
    // A route computation (build, link transition, convergence check)
    // allocates its tables and scratch buffers once each; nothing here
    // runs per packet.
    //
    // Live links seen from each end, (node, its port, neighbour, the
    // neighbour's port), sorted so that `adjacency(u)` is one run in port
    // order.
    // simlint: allow(hot-alloc) once per route computation, see above
    let mut half: Vec<Edge> = Vec::with_capacity(2 * edges.len());
    for (i, &(a, pa, b, pb)) in edges.iter().enumerate() {
        if !down.get(i).copied().unwrap_or(false) {
            half.push((a, pa, b, pb));
            half.push((b, pb, a, pa));
        }
    }
    half.sort_unstable();
    // simlint: allow(hot-alloc) once per route computation, see above
    let mut first = vec![0; num_nodes + 1];
    for &(u, ..) in &half {
        first[u.0 + 1] += 1;
    }
    for u in 0..num_nodes {
        first[u + 1] += first[u];
    }
    let adjacency = |u: NodeId| &half[first[u.0]..first[u.0 + 1]];

    // (group root, destination, the root's port facing it): a stub is
    // grouped under its neighbour, any other destination is its own root.
    let mut groups: Vec<(NodeId, NodeId, Option<PortId>)> = dests
        .iter()
        .map(|&d| match adjacency(d) {
            &[(_, _, root, port)] => (root, d, Some(port)),
            _ => (d, d, None),
        })
        // simlint: allow(hot-alloc) once per route computation, see above
        .collect();
    groups.sort_unstable();

    let span = dests.iter().map(|d| d.0 + 1).max().unwrap_or(0);
    // simlint: allow(hot-alloc) once per route computation, see above
    let mut tables = vec![RouteTable::new(); num_nodes];
    for table in &mut tables {
        table.ranges.resize(span, (0, 0));
    }
    // simlint: allow(hot-alloc) once per route computation, see above
    let mut dist = vec![u32::MAX; num_nodes];
    // simlint: allow(hot-alloc) once per route computation, see above
    let mut order: Vec<NodeId> = Vec::with_capacity(num_nodes);
    // simlint: allow(hot-alloc) once per route computation, see above
    let mut set: Vec<PortId> = Vec::new();
    for group in groups.chunk_by(|a, b| a.0 == b.0) {
        let root = group[0].0;
        // BFS from the root; dist[u] = hops from u to it, `order` lists
        // the nodes it reached.
        dist.fill(u32::MAX);
        dist[root.0] = 0;
        order.clear();
        order.push(root);
        let mut next = 0;
        while let Some(&u) = order.get(next) {
            next += 1;
            for &(_, _, v, _) in adjacency(u) {
                if dist[v.0] == u32::MAX {
                    dist[v.0] = dist[u.0] + 1;
                    order.push(v);
                }
            }
        }
        for &u in &order[1..] {
            // In port order, so already sorted.
            set.clear();
            set.extend(
                adjacency(u)
                    .iter()
                    .filter(|&&(_, _, v, _)| dist[v.0] + 1 == dist[u.0])
                    .map(|&(_, p, _, _)| p),
            );
            let table = &mut tables[u.0];
            let range = table.intern(&set);
            for &(_, dst, _) in group {
                if dst != u {
                    table.set(dst, range);
                }
            }
        }
        // At the root itself, a stub's set is the port facing it.
        for &(_, dst, port) in group {
            if let Some(port) = port {
                let table = &mut tables[root.0];
                let range = table.intern(&[port]);
                table.set(dst, range);
            }
        }
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }
    fn p(i: usize) -> PortId {
        PortId(i)
    }

    /// H0 -- S2 -- H1 (a single switch).
    #[test]
    fn star_routes() {
        let edges = vec![(n(0), p(0), n(2), p(0)), (n(1), p(0), n(2), p(1))];
        let t = compute_routes(3, &edges, &[n(0), n(1)]);
        assert_eq!(t[2][&n(0)], vec![p(0)]);
        assert_eq!(t[2][&n(1)], vec![p(1)]);
        assert_eq!(t[0][&n(1)], vec![p(0)]);
        assert!(t[0].get(&n(0)).is_none(), "no route to self");
    }

    /// Two equal-cost middle switches:
    ///     H0 - A - {M1, M2} - B - H1
    #[test]
    fn ecmp_route_sets() {
        // nodes: 0=H0 1=H1 2=A 3=B 4=M1 5=M2
        let edges = vec![
            (n(0), p(0), n(2), p(0)),
            (n(1), p(0), n(3), p(0)),
            (n(2), p(1), n(4), p(0)),
            (n(2), p(2), n(5), p(0)),
            (n(3), p(1), n(4), p(1)),
            (n(3), p(2), n(5), p(1)),
        ];
        let t = compute_routes(6, &edges, &[n(0), n(1)]);
        // A has two equal-cost uplinks toward H1.
        assert_eq!(t[2][&n(1)], vec![p(1), p(2)]);
        // M1/M2 route down to B for H1.
        assert_eq!(t[4][&n(1)], vec![p(1)]);
        assert_eq!(t[5][&n(1)], vec![p(1)]);
        // B never routes H1-bound traffic back up.
        assert_eq!(t[3][&n(1)], vec![p(0)]);
        // And symmetric for H0.
        assert_eq!(t[3][&n(0)], vec![p(1), p(2)]);
    }

    #[test]
    fn unreachable_destinations_have_no_entry() {
        let edges = vec![(n(0), p(0), n(1), p(0))];
        let t = compute_routes(3, &edges, &[n(2)]);
        assert!(t[0].get(&n(2)).is_none());
        assert!(t[1].get(&n(2)).is_none());
    }

    #[test]
    fn routes_only_computed_for_requested_dests() {
        let edges = vec![(n(0), p(0), n(1), p(0))];
        let t = compute_routes(2, &edges, &[n(1)]);
        assert!(t[0].get(&n(1)).is_some());
        assert!(t[1].get(&n(0)).is_none());
    }

    #[test]
    fn masking_an_edge_shrinks_the_ecmp_set() {
        // H0 - A - {M1, M2} - B - H1, then kill the A–M1 link (edge 2).
        let edges = vec![
            (n(0), p(0), n(2), p(0)),
            (n(1), p(0), n(3), p(0)),
            (n(2), p(1), n(4), p(0)),
            (n(2), p(2), n(5), p(0)),
            (n(3), p(1), n(4), p(1)),
            (n(3), p(2), n(5), p(1)),
        ];
        let mut down = vec![false; edges.len()];
        down[2] = true;
        let t = compute_routes_masked(6, &edges, &down, &[n(0), n(1)]);
        // The only surviving path in either direction goes via M2: M1 can
        // no longer reach A at all, so B's ECMP set shrinks too.
        assert_eq!(t[2][&n(1)], vec![p(2)]);
        assert_eq!(t[3][&n(0)], vec![p(2)]);
        // All-up mask reproduces compute_routes exactly.
        let all_up = compute_routes_masked(6, &edges, &[false; 6], &[n(0), n(1)]);
        let plain = compute_routes(6, &edges, &[n(0), n(1)]);
        assert_eq!(all_up[2][&n(1)], plain[2][&n(1)]);
    }

    #[test]
    fn masking_the_only_path_removes_the_route() {
        let edges = vec![(n(0), p(0), n(1), p(0))];
        let t = compute_routes_masked(2, &edges, &[true], &[n(1)]);
        assert!(t[0].get(&n(1)).is_none(), "no route over a dead link");
    }

    /// The convergence auditor compares a switch's live table against a
    /// fresh computation; that only works if recomputing over the same
    /// topology yields a structurally identical table (and a masked one
    /// compares unequal).
    #[test]
    fn recomputed_tables_compare_equal() {
        let edges = vec![
            (n(0), p(0), n(2), p(0)),
            (n(1), p(0), n(3), p(0)),
            (n(2), p(1), n(4), p(0)),
            (n(2), p(2), n(5), p(0)),
            (n(3), p(1), n(4), p(1)),
            (n(3), p(2), n(5), p(1)),
        ];
        let dests = [n(0), n(1)];
        let a = compute_routes_masked(6, &edges, &[], &dests);
        let b = compute_routes_masked(6, &edges, &[false; 6], &dests);
        assert_eq!(a, b);
        let mut down = vec![false; 6];
        down[2] = true;
        let c = compute_routes_masked(6, &edges, &down, &dests);
        assert_ne!(a[2], c[2], "masking a link must change the table");
    }

    #[test]
    fn port_lists_are_sorted_and_deterministic() {
        // Same topology built with edges in different orders must produce
        // identical tables.
        let edges1 = vec![
            (n(0), p(0), n(2), p(0)),
            (n(2), p(2), n(3), p(0)),
            (n(2), p(1), n(4), p(0)),
            (n(3), p(1), n(1), p(0)),
            (n(4), p(1), n(1), p(1)),
        ];
        let mut edges2 = edges1.clone();
        edges2.reverse();
        let t1 = compute_routes(5, &edges1, &[n(1)]);
        let t2 = compute_routes(5, &edges2, &[n(1)]);
        assert_eq!(t1[0][&n(1)], t2[0][&n(1)]);
        assert_eq!(t1[2][&n(1)], vec![p(1), p(2)]);
    }

    /// An equal set is stored once, and where a set sits does not affect
    /// equality.
    #[test]
    fn equal_sets_share_storage() {
        let mut t = RouteTable::new();
        t.insert(n(7), vec![p(1), p(2)]);
        t.insert(n(3), vec![p(1), p(2)]);
        t.insert(n(5), vec![p(0)]);
        assert_eq!(t.ports.len(), 3);
        assert_eq!((t.len(), &t[&n(3)]), (3, &[p(1), p(2)][..]));
        t.insert(n(5), Vec::new());
        assert!(t.get(&n(5)).is_none(), "an empty set removes the route");

        let mut u = RouteTable::new();
        u.insert(n(3), vec![p(1), p(2)]);
        u.insert(n(7), vec![p(1), p(2)]);
        assert_eq!(t, u);
    }
}
