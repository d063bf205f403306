//! Declarative network construction: nodes and links in, a routed
//! [`Network`] out.

use super::{Ctx, Network, Node};
use crate::audit::Auditor;
use crate::event::{EventQueue, LinkId, NodeId, PortId};
use crate::faults::FaultEngine;
use crate::host::{Host, HostConfig};
use crate::port::Attachment;
use crate::rng::SplitMix64;
use crate::routing::Edge;
use crate::slab::PacketPool;
use crate::switch::{Switch, SwitchConfig};
use crate::telemetry::profile::Profiler;
use crate::telemetry::recorder::FlightRecorder;
use crate::telemetry::spans::Spans;
use crate::telemetry::{Metrics, Sampler};
use crate::trace::{check_node_count, Tracer};
use crate::units::{Bandwidth, Duration};

/// Trace-ring capacity per node when the flight recorder is enabled
/// automatically alongside the sanitize auditor.
const DEFAULT_FLIGHT_CAPACITY: usize = 64;

/// Declarative network construction.
pub struct NetworkBuilder {
    seed: u64,
    nodes: Vec<NodeSpec>,
    links: Vec<(NodeId, NodeId, Bandwidth, Duration)>,
}

enum NodeSpec {
    Host(HostConfig),
    Switch(SwitchConfig),
}

impl NetworkBuilder {
    /// Starts a build; `seed` fixes all simulator randomness (RED sampling
    /// and the ECMP salt).
    pub fn new(seed: u64) -> NetworkBuilder {
        NetworkBuilder {
            seed,
            nodes: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Adds a host.
    ///
    /// # Panics
    /// Panics on a `config` whose MTU, `ack_every` or `ack_priority`
    /// packets cannot carry, naming the field and its value (as
    /// [`Host::new`] does).
    pub fn host(&mut self, config: HostConfig) -> NodeId {
        config.checked_mtu();
        self.nodes.push(NodeSpec::Host(config));
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a switch (port count is inferred from its links).
    pub fn switch(&mut self, config: SwitchConfig) -> NodeId {
        self.nodes.push(NodeSpec::Switch(config));
        NodeId(self.nodes.len() - 1)
    }

    /// Connects two nodes with a full-duplex link and returns its id (for
    /// fault injection; links are numbered in declaration order).
    ///
    /// # Panics
    /// Panics when `a` or `b` was not added to this builder, naming the
    /// link and the node count.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        bandwidth: Bandwidth,
        delay: Duration,
    ) -> LinkId {
        let nodes = self.nodes.len();
        for end in [a, b] {
            assert!(
                end.0 < nodes,
                "link {} ({} - {}) names node {}, but the builder has {nodes} nodes",
                self.links.len(),
                a.0,
                b.0,
                end.0
            );
        }
        self.links.push((a, b, bandwidth, delay));
        LinkId(self.links.len() - 1)
    }

    /// Materializes the network: allocates ports, attaches links, computes
    /// shortest-path ECMP routes toward every host.
    ///
    /// # Panics
    /// Panics when a node id would not fit a trace record's `u32`.
    pub fn build(self) -> Network {
        let n = self.nodes.len();
        check_node_count(n);
        // Assign port indices per node in link-declaration order.
        let mut port_count = vec![0usize; n];
        let mut edges: Vec<Edge> = Vec::with_capacity(self.links.len());
        for &(a, b, _, _) in &self.links {
            edges.push((a, PortId(port_count[a.0]), b, PortId(port_count[b.0])));
            port_count[a.0] += 1;
            port_count[b.0] += 1;
        }

        let mut nodes: Vec<Node> = self
            .nodes
            .into_iter()
            .enumerate()
            .map(|(i, spec)| match spec {
                NodeSpec::Host(cfg) => {
                    assert!(
                        port_count[i] <= 1,
                        "host {i} has {} links; hosts have one NIC",
                        port_count[i]
                    );
                    Node::Host(Host::new(NodeId(i), cfg))
                }
                NodeSpec::Switch(cfg) => Node::Switch(Switch::new(NodeId(i), port_count[i], cfg)),
            })
            .collect();

        for (li, (&(a, pa, b, pb), &(_, _, bandwidth, delay))) in
            edges.iter().zip(&self.links).enumerate()
        {
            for (node, port, peer, peer_port) in [(a, pa, b, pb), (b, pb, a, pa)] {
                let port = match &mut nodes[node.0] {
                    Node::Switch(s) => &mut s.ports[port.0],
                    Node::Host(h) => &mut h.port,
                };
                port.attach = Some(Attachment {
                    link: LinkId(li),
                    peer,
                    peer_port,
                    bandwidth,
                    delay,
                });
            }
        }

        // Routes lead toward every host.
        let dests: Vec<NodeId> = (0..n)
            .filter(|&i| matches!(nodes[i], Node::Host(_)))
            .map(NodeId)
            .collect();

        let mut rng = SplitMix64::new(self.seed);
        let ecmp_salt = rng.next_u64();
        let mut flight = FlightRecorder::new(n);
        if Auditor::enabled() {
            // With the auditor compiled in, a violation must always yield
            // an event history — enable the recorder from the start.
            flight.enable(DEFAULT_FLIGHT_CAPACITY);
        }
        let mut net = Network {
            nodes,
            ctx: Ctx {
                queue: EventQueue::new(),
                rng,
                ecmp_salt,
                flow_stats: Vec::new(),
                tracer: Tracer::disabled(),
                audit: Auditor::default(),
                metrics: Metrics::standard(),
                flight,
                spans: Spans::disabled(),
                pool: PacketPool::new(),
            },
            faults: FaultEngine::inactive(edges.len()),
            edges,
            dests,
            flows: Vec::new(),
            sampler: Sampler::default(),
            hooks: Vec::new(),
            profiler: Profiler::new(),
            dumped_violations: 0,
        };
        net.install_routes();
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_ports_in_link_order() {
        let mut b = NetworkBuilder::new(1);
        let sw = b.switch(SwitchConfig::paper_default());
        let h1 = b.host(HostConfig::default());
        let h2 = b.host(HostConfig::default());
        b.connect(h1, sw, Bandwidth::gbps(40), Duration::from_micros(1));
        b.connect(h2, sw, Bandwidth::gbps(40), Duration::from_micros(1));
        let net = b.build();
        let sw = net.switch(NodeId(0));
        assert_eq!(sw.ports.len(), 2);
        assert_eq!(sw.ports[0].attach.unwrap().peer, h1);
        let host = net.host(h1);
        assert_eq!(host.port.attach.unwrap().peer, NodeId(0));
        assert_eq!(host.line_rate(), Bandwidth::gbps(40));
    }

    /// A host config whose values packets cannot carry (or whose ACK
    /// class has no queue) is refused at both doors, `NetworkBuilder::host`
    /// and `Host::new`, with one line naming the field and the value; the
    /// largest values packets can carry pass.
    #[test]
    fn host_configs_packets_cannot_carry_fail_at_the_door() {
        let with = |mtu_payload, ack_every| HostConfig {
            mtu_payload,
            ack_every,
            ..HostConfig::default()
        };
        let largest = u64::from(u32::MAX) - crate::packet::HEADER_BYTES;
        let rows = [
            (with(0, 4), "mtu_payload 0 is outside 1..=4294967231"),
            (with(largest + 1, 4), "mtu_payload 4294967232 is outside"),
            (with(1436, 0), "ack_every 0 is outside 1..=65535"),
            (with(1436, 65_536), "ack_every 65536 is outside 1..=65535"),
            (
                HostConfig {
                    ack_priority: 8,
                    ..with(1436, 4)
                },
                "ack_priority 8 is outside 0..8",
            ),
        ];
        for (config, want) in rows {
            let doors: [&dyn Fn(); 2] = [
                &|| {
                    NetworkBuilder::new(1).host(config);
                },
                &|| {
                    Host::new(NodeId(0), config);
                },
            ];
            for door in doors {
                let err =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(door)).expect_err(want);
                let msg = err.downcast_ref::<String>().map_or("", String::as_str);
                let one_line = !msg.contains('\n');
                assert!(
                    one_line && msg.starts_with(&format!("host config: {want}")),
                    "{msg}"
                );
            }
        }
        let edge = HostConfig {
            ack_priority: 7,
            ..with(largest, u32::from(u16::MAX))
        };
        NetworkBuilder::new(1).host(edge);
        Host::new(NodeId(0), edge);
    }

    #[test]
    #[should_panic(expected = "hosts have one NIC")]
    fn hosts_cannot_be_multihomed() {
        let mut b = NetworkBuilder::new(1);
        let sw = b.switch(SwitchConfig::paper_default());
        let h = b.host(HostConfig::default());
        b.connect(h, sw, Bandwidth::gbps(40), Duration::from_micros(1));
        b.connect(h, sw, Bandwidth::gbps(40), Duration::from_micros(1));
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "link 1 (0 - 2) names node 2, but the builder has 2 nodes")]
    fn a_link_to_a_missing_node_fails_at_connect() {
        let mut b = NetworkBuilder::new(1);
        let sw = b.switch(SwitchConfig::paper_default());
        let h = b.host(HostConfig::default());
        b.connect(h, sw, Bandwidth::gbps(40), Duration::from_micros(1));
        b.connect(sw, NodeId(2), Bandwidth::gbps(40), Duration::from_micros(1));
    }
}
