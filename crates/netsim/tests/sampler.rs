//! The periodic sampler on its own: `Sampler` driven with a hand-built
//! `Ctx` and node table, no `Network` — what each tap kind records per
//! tick, how flows added mid-run are picked up, and what reconfiguring
//! keeps.

use netsim::audit::Auditor;
use netsim::cc::NoCc;
use netsim::event::{Event, EventQueue, NodeId, PortId};
use netsim::faults::FaultStats;
use netsim::host::{Host, HostConfig};
use netsim::network::{Ctx, Node};
use netsim::packet::{FlowId, Packet, DATA_PRIORITY};
use netsim::port::Queued;
use netsim::rng::SplitMix64;
use netsim::slab::PacketPool;
use netsim::switch::{Switch, SwitchConfig};
use netsim::telemetry::{FlightRecorder, Metrics, Sampler, SamplerConfig, Spans};
use netsim::trace::Tracer;
use netsim::units::{Bandwidth, Duration, Time};

const TICK: Duration = Duration::from_micros(10);

/// A two-port switch and a host with one flow — no `Network`, no
/// links — plus the flow table the network would keep for them.
fn fabric() -> (Vec<Node>, Vec<(NodeId, usize)>, Ctx) {
    let mut host = Host::new(NodeId(1), HostConfig::default());
    let cc = Box::new(NoCc::new(Bandwidth::gbps(40)));
    let slot = host.add_flow(FlowId(0), NodeId(2), DATA_PRIORITY, cc);
    let sw = Switch::new(NodeId(0), 2, SwitchConfig::paper_default());
    let mut ctx = Ctx {
        queue: EventQueue::new(),
        rng: SplitMix64::new(1),
        ecmp_salt: 0,
        flow_stats: Vec::new(),
        tracer: Tracer::disabled(),
        audit: Auditor::default(),
        metrics: Metrics::standard(),
        flight: FlightRecorder::new(2),
        spans: Spans::disabled(),
        pool: PacketPool::new(),
    };
    ctx.stats(FlowId(0));
    let nodes = vec![Node::Switch(sw), Node::Host(host)];
    (nodes, vec![(NodeId(1), slot)], ctx)
}

/// Pops the pending `Event::Sample` (advancing the clock to it) and
/// runs the tick, as `Network::dispatch` would.
fn run_tick(s: &mut Sampler, nodes: &[Node], ctx: &mut Ctx) {
    let mut batch = Vec::new();
    ctx.queue
        .pop_batch(Time::NEVER, &mut batch)
        .expect("a tick is pending");
    assert!(matches!(batch[..], [Event::Sample]), "exactly one chain");
    s.tick(nodes, &FaultStats::default(), ctx);
}

/// `Sampler::configure` over the fixture's fabric, which has no faults.
fn configure(
    s: &mut Sampler,
    interval: Duration,
    config: SamplerConfig,
    flows: &[(NodeId, usize)],
    nodes: &[Node],
    ctx: &mut Ctx,
) {
    s.configure(interval, config, flows, nodes, &FaultStats::default(), ctx);
}

#[test]
fn tick_records_each_tap_kind() {
    let (mut nodes, flows, mut ctx) = fabric();
    let mut s = Sampler::default();
    let config = SamplerConfig {
        queues: vec![(NodeId(0), PortId(1))],
        flows: vec![FlowId(0)],
        rate_flows: vec![FlowId(0)],
        counters: vec!["forwarded"],
        ..SamplerConfig::default()
    };
    configure(&mut s, TICK, config, &flows, &nodes, &mut ctx);
    assert_eq!(s.timelines().len(), 4);

    let pkt = Packet::data(NodeId(1), NodeId(2), FlowId(0), DATA_PRIORITY, 0, 1000);
    let wire = pkt.wire_bytes;
    let Node::Switch(sw) = &mut nodes[0] else {
        unreachable!("node 0 is the switch")
    };
    sw.ports[1].enqueue(Queued::new(pkt, None));
    sw.stats.forwarded = 7;
    ctx.stats(FlowId(0)).delivered_bytes = 5_000;
    run_tick(&mut s, &nodes, &mut ctx);
    let Node::Switch(sw) = &mut nodes[0] else {
        unreachable!("node 0 is the switch")
    };
    sw.stats.forwarded += 2;
    run_tick(&mut s, &nodes, &mut ctx);

    assert_eq!(ctx.queue.now(), Time::ZERO + TICK * 2);
    let q = s.queue(NodeId(0), PortId(1)).expect("watched queue");
    assert_eq!((q.count(), q.max()), (2, wire as f64));
    assert!(s.queue(NodeId(0), PortId(0)).is_none(), "not watched");
    let bytes = s.flow_bytes(FlowId(0)).expect("watched flow");
    assert_eq!(bytes.value_at(ctx.queue.now()), Some(5_000.0));
    let rate = s.flow_rate(FlowId(0)).expect("rate tap");
    assert!((rate.mean() - 40.0).abs() < 1e-6, "NoCc sends at line rate");
    // Counter taps record per-interval deltas of the switches' sum: 7,
    // then 2.
    let fwd = s.timelines().by_name("rate/forwarded").expect("track");
    assert_eq!((fwd.count(), fwd.sum(), fwd.min()), (2, 9.0, 2.0));
}

/// Every flow gets a bytes track, one added later too, whenever `flows`
/// is empty: with `all_flows` set and in the default config alike.
#[test]
fn flow_added_while_sampling_all_flows_gets_a_track() {
    let all = SamplerConfig {
        all_flows: true,
        ..SamplerConfig::default()
    };
    for config in [all, SamplerConfig::default()] {
        let (nodes, mut flows, mut ctx) = fabric();
        let mut s = Sampler::default();
        // Before sampling is on, a new flow binds nothing.
        s.flow_added(FlowId(0));
        assert!(s.flow_bytes(FlowId(0)).is_none());
        configure(&mut s, TICK, config, &flows, &nodes, &mut ctx);
        run_tick(&mut s, &nodes, &mut ctx);

        flows.push((NodeId(1), 1));
        ctx.stats(FlowId(1)).delivered_bytes = 300;
        s.flow_added(FlowId(1));
        run_tick(&mut s, &nodes, &mut ctx);
        assert_eq!(s.flow_bytes(FlowId(0)).expect("first flow").count(), 2);
        let late = s.flow_bytes(FlowId(1)).expect("late flow has a track");
        assert_eq!((late.count(), late.max()), (1, 300.0));

        // With an explicit flow list, newcomers stay unsampled.
        let only_first = SamplerConfig {
            flows: vec![FlowId(0)],
            ..SamplerConfig::default()
        };
        configure(&mut s, TICK, only_first, &flows, &nodes, &mut ctx);
        s.flow_added(FlowId(2));
        assert!(s.flow_bytes(FlowId(2)).is_none());
        assert!(s.flow_bytes(FlowId(1)).is_none(), "dropped by reconfigure");
    }
}

#[test]
fn reconfiguring_keeps_track_data_and_one_tick_chain() {
    let (nodes, flows, mut ctx) = fabric();
    let mut s = Sampler::default();
    let config = SamplerConfig {
        queues: vec![(NodeId(0), PortId(0))],
        all_flows: true,
        ..SamplerConfig::default()
    };
    configure(&mut s, TICK, config.clone(), &flows, &nodes, &mut ctx);
    run_tick(&mut s, &nodes, &mut ctx);
    // Same taps at a new cadence: tracks are re-found by name, the
    // running chain is reused (`run_tick` asserts a single event).
    configure(&mut s, TICK * 3, config, &flows, &nodes, &mut ctx);
    assert_eq!(s.timelines().len(), 2);
    run_tick(&mut s, &nodes, &mut ctx);
    run_tick(&mut s, &nodes, &mut ctx);
    assert_eq!(ctx.queue.now(), Time::ZERO + TICK * 5, "10 + 10 + 30 µs");
    assert_eq!(s.queue(NodeId(0), PortId(0)).expect("queue").count(), 3);
    assert_eq!(s.flow_bytes(FlowId(0)).expect("flow").count(), 3);
}
