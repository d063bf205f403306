//! What an observed run's artifacts cost in memory, measured rather than
//! argued: a counting global allocator tracks live bytes and calls while
//! a Chrome trace and a dashboard are rendered, while a sampled run's
//! dashboard is built and rendered, and while a timeline fills.

mod counting;

use counting::{measured, LIVE};
use netsim::event::{NodeId, PortId};
use netsim::network::Network;
use netsim::packet::FlowId;
use netsim::prelude::{HostConfig, NoCc, SwitchConfig, DATA_PRIORITY};
use netsim::stats::SamplerConfig;
use netsim::telemetry::{
    Dashboard, HopSpan, PauseEdge, Series, SpanState, Spans, Timeline, TrackKind,
};
use netsim::topology::{star, LinkParams};
use netsim::units::{Duration, Time};
use std::sync::atomic::Ordering::Relaxed;

/// A recorder holding `hops` hop spans over 8 switch ports, a PAUSE or
/// RESUME for every fifth, and a busy timeline for each of 16 flows.
fn recorded(hops: u64) -> Spans {
    let mut s = Spans::disabled();
    s.enable(1 << 12);
    let t = Time::from_micros;
    for i in 0..hops {
        let flow = FlowId(i % 16);
        let state = [SpanState::Queued, SpanState::Serializing][(i / 16 % 2) as usize];
        s.set_state(flow, state, t(i), i, None);
        s.record_hop(HopSpan {
            flow,
            node: NodeId(20 + (i % 4) as usize),
            port: PortId((i % 2) as usize),
            enqueued: t(i),
            start: Time(t(i).0 + 123_456),
            end: t(i + 1),
        });
        if i % 5 == 0 {
            s.record_pause_edge(PauseEdge {
                at: Time(t(i).0 + 7),
                from: NodeId(20),
                from_port: PortId(1),
                to: NodeId(3),
                to_port: PortId(0),
                class: 3,
                pause: i % 10 == 0,
                storm: false,
                depth: 200_000 + i,
                threshold: 180_000,
            });
        }
    }
    assert_eq!(s.dropped_spans(), 0);
    s
}

/// A 2:1 incast on a 3-host star with 12 tracks sampled every 1 µs for
/// 2 ms: all three queues, both flows' delivered bytes and CC rates, and
/// five counters, each track 2 000 samples on one cadence.
fn sampled() -> Network {
    let mut s = star(
        3,
        LinkParams::default(),
        HostConfig {
            cnp_interval: None,
            ..HostConfig::default()
        },
        SwitchConfig::paper_default(),
        7,
    );
    let flows: Vec<FlowId> = (0..2)
        .map(|i| {
            let f = s.net.add_flow(s.hosts[i], s.hosts[2], DATA_PRIORITY, |l| {
                Box::new(NoCc::new(l))
            });
            s.net.send_message(f, u64::MAX, Time::ZERO);
            f
        })
        .collect();
    s.net.enable_sampling(
        Duration::from_micros(1),
        SamplerConfig {
            queues: (0..3).map(|p| (s.switch, PortId(p))).collect(),
            all_flows: true,
            rate_flows: flows,
            counters: vec![
                "forwarded",
                "pause_tx",
                "pause_rx",
                "resume_tx",
                "ecn_marks",
            ],
            ..SamplerConfig::default()
        },
    );
    s.net.run_until(Time::from_millis(2));
    s.net
}

#[test]
fn rendering_costs_its_output_and_a_timeline_holds_its_samples() {
    // --- The Chrome trace: one output buffer, nothing per event. ---
    let spans = recorded(10_000);
    let events = spans.hops().len()
        + spans.edges().len()
        + (0..16)
            .map(|f| spans.flow_spans(FlowId(f)).len())
            .sum::<usize>();
    assert!(events >= 10_000);
    let now = Time::from_millis(11);
    let (rendered, calls, peak) = measured(|| spans.chrome_trace(now).render());
    // One line per event; the shortest this trace writes is a flow
    // span's, measured at 88 bytes (hops 120–125, PAUSE/RESUME 173–177).
    assert!(rendered.len() > 88 * events, "every event is in the file");
    assert!(
        peak < 2 * rendered.len(),
        "rendering {} bytes held {peak} live",
        rendered.len()
    );
    assert!(
        calls < events / 10,
        "{calls} allocations to render {events} events"
    );

    // Streamed, not even the output is held: one event's worth of state.
    let (result, _, peak) = measured(|| spans.chrome_trace(now).write_to(&mut std::io::sink()));
    result.expect("a sink takes everything");
    assert!(peak < 16 << 10, "streaming held {peak} bytes live");

    // --- The dashboard: one sized buffer, nothing per point. ---
    let mut dash = Dashboard::new("100k points");
    for c in 0..4 {
        let series = (0..5)
            .map(|s| Series {
                label: format!("chart {c} series {s}"),
                points: (0..5_000u64)
                    .map(|i| (i as f64 * 100.0, ((i * 7919 + s) % 1_000) as f64))
                    .collect(),
            })
            .collect();
        dash.chart(&format!("chart {c}"), "KB", series);
    }
    dash.table("counters", vec![("forwarded".into(), "100000".into())]);
    let points = 4 * 5 * 5_000;
    let (html, calls, peak) = measured(|| dash.render());
    assert!(html.len() > 10 * points, "every point is in the file");
    assert!(
        peak < 2 * html.len(),
        "rendering {} bytes held {peak} live",
        html.len()
    );
    assert!(
        calls < points / 100,
        "{calls} allocations to render {points} points"
    );

    // --- A sampled run's dashboard: its output, and no copy of a track.
    let net = sampled();
    let points: usize = net
        .sampler()
        .timelines()
        .iter()
        .map(|(_, tl)| tl.points())
        .sum();
    assert_eq!(points, 12 * 2_000, "one sample a bucket");
    let (html, calls, peak) = measured(|| net.dashboard("sampled").render());
    assert!(html.len() > 10 * points, "every point is in the file");
    assert!(
        peak <= html.capacity() + (16 << 10),
        "building and rendering {} bytes held {peak} live",
        html.capacity()
    );
    assert!(
        calls < points / 100,
        "{calls} allocations to draw {points} points"
    );

    // --- A timeline on one cadence: its values only. ---
    let mut on = Timeline::new(TrackKind::Gauge, 1.0);
    let budget = on.budget() as u64;
    let live = LIVE.load(Relaxed);
    for i in 1..=budget {
        on.record(Time(i * 10_000_000), i);
        let held = LIVE.load(Relaxed) - live;
        assert!(
            held <= 2 * 8 * i as usize + 64,
            "{i} samples on one cadence held {held} B"
        );
    }

    // --- A timeline: its samples while they fit, then the grid once. ---
    let mut tl = Timeline::new(TrackKind::Gauge, 1.0);
    // 10 µs cadence from one interval in, as the sampler ticks; then
    // sparser and sparser, so the grid halves again and again.
    let t = |i: u64| Time(i * i * 1_000 + i * 10_000_000);
    let live = LIVE.load(Relaxed);
    for i in 1..=budget {
        tl.record(t(i), i);
        let held = LIVE.load(Relaxed) - live;
        assert!(
            held <= 2 * 16 * i as usize + 64,
            "{i} samples held {held} B"
        );
    }
    assert_eq!(
        tl.capacity_used(),
        tl.budget(),
        "still samples, at the budget"
    );
    let ((), calls, _) = measured(|| tl.record(t(budget + 1), budget + 1));
    assert_eq!(calls, 1, "the fold makes the grid, once");
    let ((), calls, _) = measured(|| {
        for i in budget + 2..=100_000 {
            tl.record(t(i), i);
            assert!(tl.capacity_used() <= tl.budget());
        }
    });
    assert_eq!(calls, 0, "the grid never grows past its budget");
    assert_eq!(tl.count(), 100_000);
    assert!(tl.bucket_width().0 > 1 << 30, "the horizon kept growing");

    // Reading builds nothing, in either state.
    let mut fresh = Timeline::new(TrackKind::Gauge, 1.0);
    for i in 0..1_000u64 {
        fresh.record(Time(i * 100_000_000), i);
    }
    for track in [&tl, &fresh] {
        let (points, calls, _) = measured(|| track.buckets().count());
        assert!(points > 0);
        assert_eq!(calls, 0, "iterating buckets allocates nothing");
    }
}
