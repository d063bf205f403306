//! Property-based tests on the core invariants (proptest).

use dcqcn::params::DcqcnParams;
use dcqcn::rp::{DcqcnRp, TIMER_ALPHA, TIMER_RATE};
use netsim::buffer::{BufferConfig, PfcThreshold, SharedBuffer};
use netsim::cc::{CcActions, CongestionControl, NoCc};
use netsim::ecn::RedConfig;
use netsim::event::{Event, EventQueue, NodeId, PortId};
use netsim::host::HostConfig;
use netsim::packet::DATA_PRIORITY;
use netsim::routing::{compute_routes, compute_routes_masked, Edge, RouteTable};
use netsim::switch::SwitchConfig;
use netsim::topology::{star, LinkParams};
use netsim::units::{Bandwidth, Duration, Time};
use proptest::prelude::*;
use std::collections::VecDeque;

proptest! {
    /// The event queue pops in nondecreasing time order for any schedule.
    #[test]
    fn event_queue_orders_any_schedule(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.schedule(Time::from_nanos(t), Event::Hook { id: t as usize });
        }
        let mut last = Time::ZERO;
        let mut n = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            n += 1;
        }
        prop_assert_eq!(n, times.len());
    }

    /// Serialization time is monotone in length and superadditive-exact:
    /// sending a+b bytes takes no longer than a then b (ceil rounding).
    #[test]
    fn serialization_monotone_and_additive(
        bw_mbps in 1u64..200_000,
        a in 1u64..100_000,
        b in 1u64..100_000,
    ) {
        let bw = Bandwidth::mbps(bw_mbps);
        prop_assert!(bw.serialize(a) <= bw.serialize(a + b));
        let together = bw.serialize(a + b);
        let apart = bw.serialize(a) + bw.serialize(b);
        prop_assert!(apart >= together);
        // Ceil rounding costs at most 2 ps here.
        prop_assert!((apart - together) <= Duration::from_picos(2));
    }

    /// Shared-buffer accounting: occupancy equals the running sum for any
    /// admit/release interleaving, and the dynamic threshold never grows
    /// when occupancy grows.
    #[test]
    fn buffer_accounting_balances(ops in prop::collection::vec((0usize..4, 0usize..8, 64u64..9000), 1..300)) {
        let mut cfg = BufferConfig::trident2();
        cfg.num_ports = 4;
        let mut buf = SharedBuffer::new(cfg);
        let mut ledger = vec![[0u64; 8]; 4];
        let mut last_threshold = buf.pfc_threshold();
        let mut last_occ = 0u64;
        for (port, prio, bytes) in ops {
            // Alternate: admit when even total, release something if held.
            if ledger[port][prio] >= bytes {
                buf.release(port, prio, bytes);
                ledger[port][prio] -= bytes;
            } else if buf.admit(port, prio, bytes) {
                ledger[port][prio] += bytes;
            }
            let total: u64 = ledger.iter().flatten().sum();
            prop_assert_eq!(buf.occupied(), total);
            let t = buf.pfc_threshold();
            if buf.occupied() > last_occ {
                prop_assert!(t <= last_threshold, "threshold monotone non-increasing in occupancy");
            }
            last_threshold = t;
            last_occ = buf.occupied();
        }
    }

    /// RED marking probability is within [0, 1] and monotone in the queue
    /// for arbitrary configurations.
    #[test]
    fn red_probability_valid(kmin in 0u64..500_000, span in 0u64..500_000, pmax in 0.0f64..=1.0, q1 in 0u64..2_000_000, q2 in 0u64..2_000_000) {
        let red = RedConfig { kmin_bytes: kmin, kmax_bytes: kmin + span, pmax };
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let (p_lo, p_hi) = (red.mark_probability(lo), red.mark_probability(hi));
        prop_assert!((0.0..=1.0).contains(&p_lo));
        prop_assert!((0.0..=1.0).contains(&p_hi));
        prop_assert!(p_lo <= p_hi + 1e-12);
    }

    /// The DCQCN RP keeps its invariants under arbitrary event sequences:
    /// min_rate ≤ R_C ≤ R_T ≤ line rate and 0 ≤ α ≤ 1.
    #[test]
    fn rp_invariants_under_arbitrary_events(events in prop::collection::vec(0u8..4, 1..500)) {
        let line = Bandwidth::gbps(40);
        let params = DcqcnParams::paper();
        let mut rp = DcqcnRp::new(line, params);
        let mut actions = CcActions::default();
        let mut now = Time::ZERO;
        for e in events {
            now += Duration::from_micros(7);
            match e {
                0 => rp.on_cnp(now, &mut actions),
                1 => rp.on_timer(now, TIMER_RATE, &mut actions),
                2 => rp.on_timer(now, TIMER_ALPHA, &mut actions),
                _ => rp.on_send(now, 1500, &mut actions),
            }
            prop_assert!(rp.rate() >= params.min_rate);
            prop_assert!(rp.rate() <= line);
            prop_assert!(rp.target_rate() <= line);
            prop_assert!(rp.rate() <= rp.target_rate());
            prop_assert!((0.0..=1.0 + 1e-12).contains(&rp.alpha()));
        }
    }

    /// DCTCP keeps cwnd within [MSS, cap] under arbitrary ACK streams.
    #[test]
    fn dctcp_window_bounds(acks in prop::collection::vec((1u64..100_000, 0u32..64, 0u32..64), 1..300)) {
        use baselines::dctcp::{Dctcp, DctcpParams};
        let params = DctcpParams::default_40g();
        let mut d = Dctcp::new(Bandwidth::gbps(40), params);
        let mut actions = CcActions::default();
        for (bytes, pkts, marked) in acks {
            let pkts = pkts.max(1);
            let marked = marked.min(pkts);
            d.on_ack(Time::ZERO, bytes, pkts, marked, None, &mut actions);
            prop_assert!(d.cwnd_bytes() >= params.mss);
            prop_assert!(d.cwnd_bytes() <= params.max_cwnd_bytes);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&d.alpha()));
        }
    }

    /// Routing: on a random fabric — a switch chain, one stub link per
    /// host, then random extra links (parallel links, switch shortcuts,
    /// multi-homed hosts, host–host links) — every node reaches every
    /// host, and the grouped computation equals the per-destination BFS
    /// reference exactly, with every link up and under a random `down`
    /// mask (which often cuts a stub's only link).
    #[test]
    fn routing_reaches_all_hosts(
        nhosts in 2usize..8,
        nswitches in 1usize..5,
        extra in prop::collection::vec((0usize..12, 0usize..12), 0..6),
        mask in prop::collection::vec(0u8..4, 0..24),
    ) {
        // Nodes: switches [0, nswitches), hosts [nswitches, nswitches+nhosts).
        let num_nodes = nswitches + nhosts;
        let mut edges = Vec::new();
        let mut port_count = vec![0usize; num_nodes];
        let mut link = |a: usize, b: usize| {
            let (pa, pb) = (port_count[a], port_count[b]);
            port_count[a] += 1;
            port_count[b] += 1;
            (NodeId(a), PortId(pa), NodeId(b), PortId(pb))
        };
        // Chain the switches.
        for s in 1..nswitches {
            edges.push(link(s - 1, s));
        }
        // Attach each host to some switch.
        for h in 0..nhosts {
            edges.push(link(h % nswitches, nswitches + h));
        }
        for (a, b) in extra {
            let (a, b) = (a % num_nodes, b % num_nodes);
            if a != b {
                edges.push(link(a, b));
            }
        }
        let hosts: Vec<NodeId> = (0..nhosts).map(|h| NodeId(nswitches + h)).collect();
        let tables = compute_routes(num_nodes, &edges, &hosts);
        for (n, table) in tables.iter().enumerate() {
            for &h in &hosts {
                if NodeId(n) == h {
                    continue;
                }
                let ports = table.get(&h);
                prop_assert!(ports.is_some(), "node {n} can reach host {h:?}");
                prop_assert!(!ports.unwrap().is_empty());
            }
        }

        // Switch 0 as a destination too: a root that is not a stub.
        let mut dests = hosts.clone();
        dests.push(NodeId(0));
        let down: Vec<bool> = mask.iter().map(|&m| m == 0).collect();
        for down in [&[][..], &down[..]] {
            let fast = compute_routes_masked(num_nodes, &edges, down, &dests);
            let reference = reference_routes(num_nodes, &edges, down, &dests);
            for n in 0..num_nodes {
                for d in 0..num_nodes {
                    let d = NodeId(d);
                    prop_assert_eq!(fast[n].get(&d), reference[n].get(&d), "node {} toward {:?}", n, d);
                }
            }
            prop_assert!(fast == reference);
        }
    }
}

/// The per-destination BFS that [`compute_routes_masked`] replaced, kept
/// as the reference it must equal: one BFS per destination, one port list
/// per (node, destination).
fn reference_routes(
    num_nodes: usize,
    edges: &[Edge],
    down: &[bool],
    dests: &[NodeId],
) -> Vec<RouteTable> {
    // adjacency[u] = (neighbor, egress port on u)
    let mut adjacency: Vec<Vec<(NodeId, PortId)>> = vec![Vec::new(); num_nodes];
    for (i, &(a, pa, b, pb)) in edges.iter().enumerate() {
        if down.get(i).copied().unwrap_or(false) {
            continue;
        }
        adjacency[a.0].push((b, pa));
        adjacency[b.0].push((a, pb));
    }
    for adj in &mut adjacency {
        adj.sort_by_key(|&(n, p)| (n.0, p.0));
    }

    let mut tables: Vec<RouteTable> = vec![RouteTable::new(); num_nodes];
    for &dst in dests {
        // BFS from dst; dist[u] = hops from u to dst.
        let mut dist = vec![usize::MAX; num_nodes];
        dist[dst.0] = 0;
        let mut queue = VecDeque::from([dst]);
        while let Some(u) = queue.pop_front() {
            for &(v, _) in &adjacency[u.0] {
                if dist[v.0] == usize::MAX {
                    dist[v.0] = dist[u.0] + 1;
                    queue.push_back(v);
                }
            }
        }
        for u in 0..num_nodes {
            if u == dst.0 || dist[u] == usize::MAX {
                continue;
            }
            let mut ports: Vec<PortId> = adjacency[u]
                .iter()
                .filter(|&&(v, _)| dist[v.0] + 1 == dist[u])
                .map(|&(_, p)| p)
                .collect();
            if !ports.is_empty() {
                ports.sort_by_key(|p| p.0);
                tables[u].insert(dst, ports);
            }
        }
    }
    tables
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// End-to-end conservation: on a lossless fabric, any batch of
    /// messages is delivered exactly — delivered bytes equal the sum of
    /// message sizes, every message completes, nothing is dropped.
    #[test]
    fn lossless_fabric_delivers_every_message(
        msgs in prop::collection::vec((0usize..3, 1u64..200_000), 1..20),
        seed in 0u64..1000,
    ) {
        let mut s = star(
            4,
            LinkParams::default(),
            HostConfig { cnp_interval: None, ..HostConfig::default() },
            SwitchConfig::paper_default(),
            seed,
        );
        let dst = s.hosts[3];
        let flows: Vec<_> = (0..3)
            .map(|i| s.net.add_flow(s.hosts[i], dst, DATA_PRIORITY, |l| Box::new(NoCc::new(l))))
            .collect();
        let mut expect = [0u64; 3];
        let mut counts = [0usize; 3];
        for (i, &(src, bytes)) in msgs.iter().enumerate() {
            s.net.send_message(flows[src], bytes, Time::from_micros(i as u64 * 10));
            expect[src] += bytes;
            counts[src] += 1;
        }
        s.net.run_until(Time::from_millis(50));
        for i in 0..3 {
            let st = s.net.flow_stats(flows[i]);
            prop_assert_eq!(st.delivered_bytes, expect[i]);
            prop_assert_eq!(st.completions.len(), counts[i]);
            prop_assert_eq!(st.retx_pkts, 0);
        }
        let sw = s.net.switch_stats(s.switch);
        prop_assert_eq!(sw.drops_pool + sw.drops_lossy, 0);
    }

    /// PFC thresholds: for any β ≥ 1 the dynamic ECN bound stays below
    /// the static PFC bound and grows with β (the §4 trade-off).
    #[test]
    fn dynamic_bound_behaves(beta in 1.0f64..64.0) {
        let cfg = BufferConfig::trident2();
        let b = dcqcn::thresholds::dynamic_ecn_bound(&cfg, beta);
        let b2 = dcqcn::thresholds::dynamic_ecn_bound(&cfg, beta + 1.0);
        prop_assert!(b <= dcqcn::thresholds::static_pfc_bound(&cfg));
        prop_assert!(b2 >= b);
        let _ = PfcThreshold::Dynamic { beta };
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Even on a *lossy* fabric (PFC off, drops happening), go-back-N
    /// delivers every message exactly, in order, with correct byte counts.
    #[test]
    fn lossy_fabric_still_delivers_exactly(
        msgs in prop::collection::vec(1u64..400_000, 2..10),
        seed in 0u64..500,
    ) {
        let mut s = star(
            6,
            LinkParams::default(),
            HostConfig { cnp_interval: None, ..HostConfig::default() },
            SwitchConfig::paper_default().without_pfc(),
            seed,
        );
        let dst = s.hosts[5];
        // A finite background burst forces lossy drops, then clears so
        // the measured flow's recovery can complete.
        for i in 1..5 {
            let bg = s.net.add_flow(s.hosts[i], dst, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
            s.net.send_message(bg, 10_000_000, Time::ZERO);
        }
        let f = s.net.add_flow(s.hosts[0], dst, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
        let total: u64 = msgs.iter().sum();
        for (i, &m) in msgs.iter().enumerate() {
            s.net.send_message(f, m, Time::from_micros(i as u64 * 50));
        }
        s.net.run_until(Time::from_millis(500));
        let st = s.net.flow_stats(f);
        prop_assert_eq!(st.delivered_bytes, total, "every byte exactly once");
        prop_assert_eq!(st.completions.len(), msgs.len());
        prop_assert!(!st.aborted);
        // The fabric really was lossy.
        let sw = s.net.switch_stats(NodeId(0));
        prop_assert!(sw.drops_lossy > 0, "overload produced drops");
    }
}

/// The shrunken case pinned in `tests/properties.proptest-regressions`
/// (`msgs = [6265, 350742, 10910, 10722, 284230, 164947], seed = 348`),
/// re-run explicitly.
///
/// Proptest once caught a go-back-N delivery failure here: a lossy 5:1
/// overload drops packets from a multi-message flow whose two large
/// transfers (350 KB, 284 KB) straddle several retransmission rounds, and
/// every byte must still be delivered exactly once. The offline proptest
/// shim does not replay the seed file, so the case is pinned as a plain
/// test; keep the seed file too for when the real crate is swapped back.
#[test]
fn lossy_regression_msgs_seed_348() {
    let msgs: [u64; 6] = [6265, 350742, 10910, 10722, 284230, 164947];
    let seed = 348;
    let mut s = star(
        6,
        LinkParams::default(),
        HostConfig {
            cnp_interval: None,
            ..HostConfig::default()
        },
        SwitchConfig::paper_default().without_pfc(),
        seed,
    );
    let dst = s.hosts[5];
    for i in 1..5 {
        let bg = s
            .net
            .add_flow(s.hosts[i], dst, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
        s.net.send_message(bg, 10_000_000, Time::ZERO);
    }
    let f = s
        .net
        .add_flow(s.hosts[0], dst, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
    let total: u64 = msgs.iter().sum();
    for (i, &m) in msgs.iter().enumerate() {
        s.net.send_message(f, m, Time::from_micros(i as u64 * 50));
    }
    s.net.run_until(Time::from_millis(500));
    let st = s.net.flow_stats(f);
    assert_eq!(st.delivered_bytes, total, "every byte exactly once");
    assert_eq!(st.completions.len(), msgs.len());
    assert!(!st.aborted);
    assert!(
        s.net.switch_stats(NodeId(0)).drops_lossy > 0,
        "overload produced drops"
    );
}

/// The packet tracer's view is consistent with the counters: marks,
/// deliveries and CNPs agree between the trace and the stats.
#[test]
fn trace_agrees_with_counters() {
    use dcqcn::prelude::*;
    use netsim::trace::TraceKind;
    let params = DcqcnParams::paper();
    let mut s = star(
        3,
        LinkParams::default(),
        dcqcn_host_config(params),
        SwitchConfig::paper_default().with_red(red_deployed()),
        5,
    );
    s.net.enable_trace(1_000_000);
    let dst = s.hosts[2];
    let f1 = s
        .net
        .add_flow(s.hosts[0], dst, DATA_PRIORITY, dcqcn(params));
    let f2 = s
        .net
        .add_flow(s.hosts[1], dst, DATA_PRIORITY, dcqcn(params));
    s.net.send_message(f1, u64::MAX, Time::ZERO);
    s.net.send_message(f2, u64::MAX, Time::ZERO);
    s.net.run_until(Time::from_millis(20));

    let delivered_traced = s.net.trace().of_kind(TraceKind::Delivered).len() as u64;
    let delivered_counted: u64 = [f1, f2]
        .iter()
        .map(|&f| s.net.flow_stats(f).delivered_pkts)
        .sum();
    assert_eq!(delivered_traced, delivered_counted);

    let marks_traced = s.net.trace().of_kind(TraceKind::Marked).len() as u64;
    assert_eq!(marks_traced, s.net.switch_stats(NodeId(0)).ecn_marks);

    let cnps_traced = s.net.trace().of_kind(TraceKind::CnpSent).len() as u64;
    let cnps_counted: u64 = [f1, f2]
        .iter()
        .map(|&f| s.net.flow_stats(f).cnps_sent)
        .sum();
    assert_eq!(cnps_traced, cnps_counted);
    assert!(cnps_traced > 0, "congestion actually happened");

    // Trace timestamps are nondecreasing.
    let times: Vec<_> = s.net.trace().iter().map(|e| e.at).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
}
