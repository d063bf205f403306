//! The `switch.*` and `host.*` kernels: a real [`Switch`] and two real
//! [`Host`]s driven over a hand-built [`Ctx`] by a small event loop that
//! lives here, so the coupling to `netsim`'s node internals is in this
//! one file. Every call into a node is bracketed on its own; the
//! bracketing clock's cost is calibrated and subtracted.

use crate::measure::OpTimer;
use dcqcn::params::{red_deployed, DcqcnParams};
use dcqcn::rp::DcqcnRp;
use netsim::audit::Auditor;
use netsim::event::{Event, EventQueue, LinkId, NodeId, PortId};
use netsim::host::{Host, HostConfig};
use netsim::network::Ctx;
use netsim::packet::{FlowId, Packet, PacketKind, DATA_PRIORITY};
use netsim::port::Attachment;
use netsim::rng::SplitMix64;
use netsim::slab::PacketPool;
use netsim::switch::{Switch, SwitchConfig};
use netsim::telemetry::{FlightRecorder, Metrics, Spans};
use netsim::trace::Tracer;
use netsim::units::{Bandwidth, Duration};

const LINE: Bandwidth = Bandwidth::gbps(40);
const WIRE: Duration = Duration::from_micros(1);
const PAYLOAD: u64 = 1024;

/// What `NetworkBuilder::build` assembles, with every observer off.
fn bare_ctx(nodes: usize) -> Ctx {
    Ctx {
        queue: EventQueue::new(),
        rng: SplitMix64::new(1),
        ecmp_salt: 0,
        flow_stats: Vec::new(),
        tracer: Tracer::disabled(),
        audit: Auditor::default(),
        metrics: Metrics::standard(),
        flight: FlightRecorder::new(nodes),
        spans: Spans::disabled(),
        pool: PacketPool::new(),
    }
}

fn wire_to(link: usize, peer: NodeId, peer_port: PortId) -> Attachment {
    Attachment {
        link: LinkId(link),
        peer,
        peer_port,
        bandwidth: LINE,
        delay: WIRE,
    }
}

/// 3→1 overload of one switch: three line-rate sources that honor PAUSE
/// feed `packets` data packets in total towards one sink port, so
/// admission, PFC, ECN, enqueue and the drain path all run.
///
/// Returns `switch.receive_ns`, `switch.tx_done_ns` and
/// `switch.pause_per_kpkt`.
pub fn switch_overload(packets: u64, clock_ns: f64) -> Vec<(&'static str, f64)> {
    const SOURCES: usize = 3;
    let sink = NodeId(SOURCES + 1);
    let config = SwitchConfig::paper_default().with_red(red_deployed());
    let mut sw = Switch::new(NodeId(0), SOURCES + 1, config);
    for p in 0..=SOURCES {
        sw.ports[p].attach = Some(wire_to(p, NodeId(p + 1), PortId(0)));
    }
    sw.routes.insert(sink, vec![PortId(SOURCES)]);
    let mut ctx = bare_ctx(SOURCES + 2);

    // `Hook { id }` is source `id`'s "next packet is serialized" tick.
    let gap = LINE.serialize(PAYLOAD + netsim::packet::HEADER_BYTES);
    let mut paused = [false; SOURCES];
    let mut ticking = [true; SOURCES];
    let mut sent = 0u64;
    for id in 0..SOURCES {
        ctx.queue.schedule(ctx.queue.now(), Event::Hook { id });
    }
    let (mut receive, mut tx_done) = (OpTimer::default(), OpTimer::default());
    while let Some((now, event)) = ctx.queue.pop() {
        match event {
            Event::Hook { id } => {
                ticking[id] = !paused[id] && sent < packets;
                if ticking[id] {
                    let (src, flow) = (NodeId(id + 1), FlowId(id as u64));
                    let pkt = Packet::data(src, sink, flow, DATA_PRIORITY, sent, PAYLOAD);
                    receive.time(|| sw.receive(&mut ctx, PortId(id), pkt));
                    sent += 1;
                    ctx.queue.schedule(now + gap, Event::Hook { id });
                }
            }
            Event::TxDone { port, .. } => tx_done.time(|| sw.tx_done(&mut ctx, port)),
            Event::Deliver { node, pkt, .. } => {
                // Data reaching the sink is simply consumed; a PFC frame
                // reaching a source stops or restarts it.
                if let PacketKind::Pfc { pause, .. } = ctx.pool.take(pkt).kind {
                    let id = node.0 - 1;
                    paused[id] = pause;
                    if !pause && !ticking[id] {
                        ticking[id] = true;
                        ctx.queue.schedule(now, Event::Hook { id });
                    }
                }
            }
            _ => {}
        }
    }
    assert_eq!(
        sw.stats.forwarded, packets,
        "every offered packet is forwarded"
    );
    assert_eq!(
        sw.stats.drops_pool + sw.stats.drops_lossy,
        0,
        "PFC keeps it lossless"
    );
    vec![
        ("switch.receive_ns", receive.ns_per_op(clock_ns)),
        ("switch.tx_done_ns", tx_done.ns_per_op(clock_ns)),
        (
            "switch.pause_per_kpkt",
            sw.stats.pause_tx as f64 * 1000.0 / packets as f64,
        ),
    ]
}

/// Two hosts back to back over a loopback wire: one DCQCN flow sends
/// `packets` data packets, every 8th of which arrives CE-marked, so the
/// receiver's NP paces CNPs and the sender's RP cuts, paces and recovers.
///
/// Returns `host.send_ns` (sender `tx_done`: hand the frame to the wire,
/// schedule the NIC, build the next packet), `host.receive_ns` (receiver
/// `receive` of data), `host.ack_ns` (sender `receive` of ACKs and CNPs)
/// and `host.timer_ns` (sender `timer`).
pub fn host_loopback(packets: u64, clock_ns: f64) -> Vec<(&'static str, f64)> {
    let params = DcqcnParams::paper();
    let config = HostConfig {
        cnp_interval: Some(params.cnp_interval),
        ..HostConfig::default()
    };
    let (a, b) = (NodeId(0), NodeId(1));
    let mut hosts = [Host::new(a, config), Host::new(b, config)];
    hosts[0].port.attach = Some(wire_to(0, b, PortId(0)));
    hosts[1].port.attach = Some(wire_to(0, a, PortId(0)));
    let mut ctx = bare_ctx(2);
    let flow = hosts[0].add_flow(
        FlowId(0),
        b,
        DATA_PRIORITY,
        Box::new(DcqcnRp::new(LINE, params)),
    );
    hosts[0].inject_message(&mut ctx, flow, packets * config.mtu_payload);

    let mut data_seen = 0u64;
    let [mut send, mut receive, mut ack, mut timer] = [OpTimer::default(); 4];
    while let Some((_, event)) = ctx.queue.pop() {
        match event {
            Event::TxDone { node, .. } if node == a => send.time(|| hosts[0].tx_done(&mut ctx)),
            Event::TxDone { .. } => hosts[1].tx_done(&mut ctx),
            Event::Deliver { node, pkt, .. } => {
                let mut pkt = ctx.pool.take(pkt);
                if node == b {
                    data_seen += 1;
                    if data_seen.is_multiple_of(8) {
                        pkt.mark_ce();
                    }
                    receive.time(|| hosts[1].receive(&mut ctx, pkt));
                } else {
                    ack.time(|| hosts[0].receive(&mut ctx, pkt));
                }
            }
            Event::Timer { node, kind } => timer.time(|| hosts[node.0].timer(&mut ctx, kind)),
            _ => {}
        }
        if ctx.flow_stats[0].delivered_pkts == packets && ctx.flow_stats[0].completions.len() == 1 {
            break;
        }
    }
    let stats = &ctx.flow_stats[0];
    assert_eq!(stats.delivered_pkts, packets, "the message is delivered");
    assert_eq!(stats.retx_pkts, 0, "a loopback wire loses nothing");
    assert!(stats.cnps_sent > 0 && timer.ops > 0, "the RP was exercised");
    vec![
        ("host.send_ns", send.ns_per_op(clock_ns)),
        ("host.receive_ns", receive.ns_per_op(clock_ns)),
        ("host.ack_ns", ack.ns_per_op(clock_ns)),
        ("host.timer_ns", timer.ns_per_op(clock_ns)),
    ]
}
