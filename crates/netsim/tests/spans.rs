//! Causal-tracing integration tests: the FCT decomposition identity,
//! congestion-tree attribution, and byte-stability of the exported
//! Chrome trace (golden file + rebuild determinism).

use netsim::cc::NoCc;
use netsim::event::NodeId;
use netsim::host::HostConfig;
use netsim::network::{Network, NetworkBuilder};
use netsim::packet::{FlowId, DATA_PRIORITY};
use netsim::switch::SwitchConfig;
use netsim::telemetry::{ChromeTrace, Json, SpanState};
use netsim::units::{Bandwidth, Duration, Time};
use proptest::prelude::*;
use simjson::Writer;

fn host_cfg() -> HostConfig {
    HostConfig {
        cnp_interval: None,
        ..HostConfig::default()
    }
}

/// A 2-flow dumbbell: h1,h2 — s1 — s2 — h3,h4 with a 40 G trunk, both
/// flows sending one finite message. Returns the network and flow ids.
fn dumbbell(seed: u64, bytes_a: u64, bytes_b: u64) -> (Network, FlowId, FlowId) {
    let mut b = NetworkBuilder::new(seed);
    let s1 = b.switch(SwitchConfig::paper_default());
    let s2 = b.switch(SwitchConfig::paper_default());
    let h1 = b.host(host_cfg());
    let h2 = b.host(host_cfg());
    let h3 = b.host(host_cfg());
    let h4 = b.host(host_cfg());
    let g40 = Bandwidth::gbps(40);
    let d = Duration::from_micros(1);
    b.connect(h1, s1, g40, d);
    b.connect(h2, s1, g40, d);
    b.connect(s1, s2, g40, d);
    b.connect(h3, s2, g40, d);
    b.connect(h4, s2, g40, d);
    let mut net = b.build();
    net.enable_spans(4096);
    let fa = net.add_flow(h1, h3, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
    let fb = net.add_flow(h2, h4, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
    net.send_message(fa, bytes_a, Time::ZERO);
    net.send_message(fb, bytes_b, Time::from_micros(3));
    net.run_until(Time::from_millis(5));
    (net, fa, fb)
}

/// Every completed flow's span durations sum exactly to its measured FCT
/// (the decomposition identity the sanitize auditor enforces).
#[test]
fn span_durations_sum_to_fct() {
    let (net, fa, fb) = dumbbell(7, 100_000, 100_000);
    for f in [fa, fb] {
        assert_eq!(net.flow_stats(f).completions.len(), 1);
        let c = net.spans().completion(f).expect("completion snapshot");
        let sum: Duration = c.accum.iter().copied().sum();
        assert_eq!(sum, c.fct, "flow {}: spans must decompose the FCT", f.0);
        let measured = c.at - c.started;
        assert_eq!(c.fct, measured);
        // Two 40 G flows sharing a 40 G trunk cannot both serialize all
        // the time: some of each FCT is attributed beyond pure sending.
        assert!(c.accum[SpanState::Serializing as usize] > Duration::ZERO);
    }
}

/// Rebuilding the identical network from the identical seed yields a
/// byte-identical Chrome trace.
#[test]
fn chrome_trace_is_rebuild_deterministic() {
    let (net1, _, _) = dumbbell(7, 100_000, 100_000);
    let (net2, _, _) = dumbbell(7, 100_000, 100_000);
    assert_eq!(net1.chrome_trace().render(), net2.chrome_trace().render());
}

/// The exported trace matches the checked-in golden file byte for byte.
/// Regenerate with `UPDATE_GOLDEN=1 cargo test -p netsim --test spans`.
#[test]
fn chrome_trace_matches_golden_file() {
    let (net, _, _) = dumbbell(7, 100_000, 100_000);
    let rendered = net.chrome_trace().render();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/dumbbell.trace.json"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file present");
    assert_eq!(
        rendered, golden,
        "trace drifted from tests/golden/dumbbell.trace.json; \
         rerun with UPDATE_GOLDEN=1 if the change is intended"
    );
}

/// The exported trace is structurally a Chrome trace: metadata naming
/// every track, complete events, and flow-state slices.
#[test]
fn chrome_trace_has_expected_tracks() {
    let (net, fa, fb) = dumbbell(7, 100_000, 100_000);
    let s = net.chrome_trace().render();
    assert!(s.contains("\"displayTimeUnit\": \"ms\""));
    assert!(s.contains("\"process_name\""));
    assert!(s.contains("\"thread_name\""));
    for f in [fa, fb] {
        assert!(s.contains(&format!("\"flow {}\"", f.0)), "flow track named");
    }
    assert!(s.contains("\"serializing\""), "flow state slices present");
    assert!(s.contains("\"tx flow"), "per-hop tx slices present");
}

/// A 3:1 incast of greedy 40 G senders through a 10 G sink port, run
/// for 10 ms with `cap` closed spans per flow. Returns the network, the
/// switch, and the flows.
fn incast(cap: usize) -> (Network, NodeId, Vec<FlowId>) {
    let mut b = NetworkBuilder::new(11);
    let s1 = b.switch(SwitchConfig::paper_default());
    let senders: Vec<_> = (0..3).map(|_| b.host(host_cfg())).collect();
    let sink = b.host(host_cfg());
    let d = Duration::from_micros(1);
    for &h in &senders {
        b.connect(h, s1, Bandwidth::gbps(40), d);
    }
    b.connect(sink, s1, Bandwidth::gbps(10), d);
    let mut net = b.build();
    net.enable_spans(cap);
    let flows: Vec<_> = senders
        .iter()
        .map(|&h| {
            let f = net.add_flow(h, sink, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
            net.send_message(f, u64::MAX, Time::ZERO);
            f
        })
        .collect();
    net.run_until(Time::from_millis(10));
    (net, s1, flows)
}

/// The tree of a rendered trace, written back in the trace's layout.
fn in_trace_layout(tree: &Json) -> String {
    let mut w = Writer::new(Vec::new(), ChromeTrace::ONE_LINE_PAST);
    w.json(tree);
    w.into_string()
}

/// The streamed trace is already in the writer's canonical form (keys
/// sorted, same float and layout rules): parsing it and writing the tree
/// back in the trace's layout gives the same bytes, and `write_to`
/// writes them too. Checked on the dumbbell and on an incast whose trace
/// carries PAUSE/RESUME instants and whose logs overflowed their capacity.
#[test]
fn chrome_trace_is_a_fixpoint_of_parse_and_render() {
    let (dumbbell, _, _) = dumbbell(7, 100_000, 100_000);
    let (incast, _, _) = incast(8);
    assert!(incast.spans().dropped_spans() > 0, "logs overflowed");
    assert!(!incast.spans().edges().is_empty(), "PAUSE edges recorded");
    for net in [&dumbbell, &incast] {
        let trace = net.chrome_trace();
        let rendered = trace.render();
        let tree = Json::parse(&rendered).expect("the trace is JSON");
        assert!(
            in_trace_layout(&tree) == rendered,
            "not the canonical rendering"
        );
        let mut written = Vec::new();
        trace.write_to(&mut written).unwrap();
        assert!(written == rendered.as_bytes(), "write_to differs");
    }
    let rendered = incast.chrome_trace().render();
    assert!(rendered.contains("\"name\":\"PAUSE\""));
    assert!(rendered.contains("\"name\":\"RESUME\""));
    assert!(!rendered.contains("\"dropped_spans\": 0,"));
}

/// Whether `line` has a space, tab or line break outside its strings.
fn whitespace_outside_strings(line: &str) -> bool {
    let (mut quoted, mut escaped) = (false, false);
    line.chars().any(|c| {
        match c {
            _ if escaped => escaped = false,
            '\\' if quoted => escaped = true,
            '"' => quoted = !quoted,
            _ => return !quoted && c.is_whitespace(),
        }
        false
    })
}

/// The trace's layout: the envelope as an indented document has it, then
/// exactly one line per `traceEvents` element, holding that element and
/// no whitespace outside its strings.
#[test]
fn chrome_trace_has_one_line_per_event() {
    let (dumbbell, _, _) = dumbbell(7, 100_000, 100_000);
    let (incast, _, _) = incast(8);
    for net in [&dumbbell, &incast] {
        let rendered = net.chrome_trace().render();
        let tree = Json::parse(&rendered).expect("the trace is JSON");
        let events = tree.get("traceEvents").and_then(Json::as_arr).unwrap();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), events.len() + 6, "one line per event");
        let dropped = net.spans().dropped_spans();
        let envelope = [
            "{",
            "  \"displayTimeUnit\": \"ms\",",
            &format!("  \"dropped_spans\": {dropped},"),
            "  \"traceEvents\": [",
        ];
        assert_eq!(lines[..4], envelope);
        assert_eq!(lines[lines.len() - 2..], ["  ]", "}"]);
        for (line, event) in lines[4..lines.len() - 2].iter().zip(events) {
            let body = line.strip_prefix("    ").expect("an indented event");
            let body = body.strip_suffix(',').unwrap_or(body);
            assert!(!whitespace_outside_strings(body), "spaced out: {line}");
            assert_eq!(&Json::parse(body).unwrap(), event, "{line}");
        }
    }
}

/// An incast through a slow sink produces a congestion tree rooted at
/// the congested switch port, with the pause-blocked senders as victims.
#[test]
fn congestion_tree_names_root_and_victims() {
    let (net, s1, flows) = incast(4096);

    let tree = net.congestion_tree();
    assert!(!tree.roots.is_empty(), "a root port is identified");
    assert_eq!(tree.roots[0].node, s1, "the lone switch is the root");
    assert!(!tree.edges.is_empty(), "pause edges were folded in");
    let victims: Vec<_> = tree.victims.iter().map(|v| v.flow).collect();
    for f in &flows {
        assert!(victims.contains(f), "flow {} is a named victim", f.0);
        let bd = net.span_breakdown(*f).expect("tracked");
        assert!(
            bd[SpanState::PauseBlocked as usize] > Duration::ZERO,
            "incast senders spend time pause-blocked"
        );
    }
    // Victims carry the origin port of the PAUSE that blocked them.
    for v in &tree.victims {
        assert_eq!(v.origin.map(|(n, _)| n), Some(s1));
    }
}

proptest! {
    /// Property: for any single-message flow pair, the per-state span
    /// durations sum exactly to the measured FCT.
    #[test]
    fn prop_span_sum_equals_fct(
        seed in 1u64..64,
        kb_a in 1u64..120,
        kb_b in 1u64..120,
    ) {
        let (net, fa, fb) = dumbbell(seed, kb_a * 1000, kb_b * 1000);
        for f in [fa, fb] {
            prop_assert_eq!(net.flow_stats(f).completions.len(), 1);
            let c = net.spans().completion(f).expect("completion");
            let sum: Duration = c.accum.iter().copied().sum();
            prop_assert_eq!(sum, c.fct);
            prop_assert_eq!(c.fct, c.at - c.started);
        }
    }
}
