//! Timeline engine properties the PR contract pins: bounded memory over
//! arbitrary horizons, exact sum conservation through merges, record
//! order never changing the stored state, sampling integrated with
//! [`netsim::network::Network`], and the dashboard's golden bytes.

use netsim::cc::NoCc;
use netsim::event::PortId;
use netsim::host::HostConfig;
use netsim::packet::DATA_PRIORITY;
use netsim::stats::SamplerConfig;
use netsim::switch::SwitchConfig;
use netsim::telemetry::timeline::{Timeline, TrackKind};
use netsim::topology::{star, LinkParams, Star};
use netsim::units::{Duration, Time};
use proptest::prelude::*;

/// A full second of picosecond-resolution sampling lands in ≤ 4096
/// buckets: memory is `O(budget)` regardless of horizon, and the exact
/// aggregates survive every halving on the way there.
#[test]
fn long_horizon_memory_stays_bounded() {
    let mut tl = Timeline::new(TrackKind::Gauge, 1.0);
    let n: u64 = 200_000;
    // 5 µs cadence out to t = 1 s (1e12 ps) — far past the initial
    // 4096-slot grid, so the width doubles many times mid-run.
    for i in 0..n {
        tl.record(Time(i * 5_000_000), i % 1_000);
    }
    assert!(
        tl.capacity_used() <= tl.budget(),
        "{} buckets exceed the {} budget",
        tl.capacity_used(),
        tl.budget()
    );
    assert_eq!(tl.count(), n);
    let expected: u64 = (0..n).map(|i| i % 1_000).sum();
    assert_eq!(tl.sum(), expected as f64, "halvings never lose samples");
    let bucket_total: f64 = tl.buckets().map(|b| b.sum).sum();
    assert_eq!(bucket_total, expected as f64, "per-bucket sums telescope");
    assert!(tl.bucket_width().0.is_power_of_two());
    assert_eq!(tl.last_time(), Time((n - 1) * 5_000_000));
}

/// Every bucket aggregate a [`Timeline`] stores, bit for bit.
fn dump(tl: &Timeline) -> Vec<(u64, u64, u64, u64, u64, u64)> {
    tl.buckets()
        .map(|b| {
            (
                b.start.0,
                b.count,
                b.sum.to_bits(),
                b.min.to_bits(),
                b.max.to_bits(),
                b.last.0,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The stored state is a pure function of the sample *multiset*:
    /// recording in reverse produces bit-identical buckets and summary,
    /// and no merge sequence loses any of the sum.
    #[test]
    fn record_order_never_changes_state_and_sums_conserve(
        samples in prop::collection::vec((0u64..2_000_000_000, 0u64..1_000_000), 1..200),
        budget in 2usize..64,
    ) {
        let mut fwd = Timeline::with_budget(TrackKind::Gauge, 1.0, budget);
        for &(t, v) in &samples {
            fwd.record(Time(t), v);
        }
        let mut rev = Timeline::with_budget(TrackKind::Gauge, 1.0, budget);
        for &(t, v) in samples.iter().rev() {
            rev.record(Time(t), v);
        }
        prop_assert_eq!(dump(&fwd), dump(&rev));
        prop_assert_eq!(
            fwd.summary_json().render(),
            rev.summary_json().render()
        );
        // Σ before == Σ after all merges, exactly (integer arithmetic).
        let expected: u128 = samples.iter().map(|&(_, v)| v as u128).sum();
        prop_assert_eq!(fwd.sum(), expected as f64);
        let bucket_total: f64 = fwd.buckets().map(|b| b.sum).sum();
        prop_assert_eq!(bucket_total, expected as f64);
        prop_assert!(fwd.capacity_used() <= budget.max(2));
    }
}

/// A deterministic 2:1 incast fixture with queues, rates, bytes and
/// counter tracks all sampled.
fn fixture() -> (Star, PortId) {
    let mut s = star(
        3,
        LinkParams::default(),
        HostConfig {
            cnp_interval: None,
            ..HostConfig::default()
        },
        SwitchConfig::paper_default(),
        11,
    );
    for i in 0..2 {
        let f = s.net.add_flow(s.hosts[i], s.hosts[2], DATA_PRIORITY, |l| {
            Box::new(NoCc::new(l))
        });
        s.net.send_message(f, u64::MAX, Time::ZERO);
    }
    let port = PortId(2);
    s.net.enable_spans(1024);
    s.net.enable_sampling(
        Duration::from_micros(20),
        SamplerConfig {
            all_flows: true,
            queues: vec![(s.switch, port)],
            counters: vec!["forwarded", "pause_tx"],
            ..SamplerConfig::default()
        },
    );
    s.net.run_until(Time::from_millis(2));
    (s, port)
}

/// Counter tracks record per-interval deltas whose sum telescopes back
/// to the counter itself — nothing double-counted, nothing lost — and
/// the registry-backed tracks all populate from a real run.
#[test]
fn network_sampling_conserves_counters() {
    let (s, port) = fixture();
    let fwd = s
        .net
        .sampler()
        .timelines()
        .by_name("rate/forwarded")
        .expect("track");
    assert!(fwd.count() > 0, "sampler ran");
    let total = s.net.metric("forwarded");
    // The track holds every delta up to the last sampling tick; packets
    // forwarded after that tick are not yet recorded.
    assert!(fwd.sum() <= total as f64);
    assert!(
        fwd.sum() >= total as f64 * 0.95,
        "track sum {} far below counter {}",
        fwd.sum(),
        total
    );

    let q = s.net.sampler().queue(s.switch, port).expect("queue track");
    // ~100 samples at 20 µs over 2 ms; the run's congestion shows up.
    assert!(q.count() >= 99, "one gauge sample per tick");
    assert!(q.max() > 0.0, "the incast queued bytes");

    // The report embeds the timeline summaries and midpoint percentiles.
    let report = s.net.telemetry_report().render();
    assert!(report.contains("\"timelines\""));
    assert!(report.contains("\"rate/forwarded\""));
    assert!(report.contains("\"p50_mid\""));
    assert!(report.contains("\"p99_mid\""));
}

/// The dashboard fixture's exact bytes. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test -p netsim --test timeline`.
#[test]
fn dashboard_matches_golden_file() {
    let (s, _) = fixture();
    let rendered = s.net.dashboard("timeline fixture: 2:1 incast").render();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/dashboard.html");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file present");
    assert_eq!(
        rendered, golden,
        "dashboard drifted from tests/golden/dashboard.html; \
         rerun with UPDATE_GOLDEN=1 if the change is intended"
    );
}

/// The dashboard shows every panel family the fixture populates.
#[test]
fn dashboard_has_expected_panels() {
    let (s, _) = fixture();
    let dash = s.net.dashboard("fixture");
    let html = dash.render();
    for panel in [
        "queue depth",
        "goodput",
        "control frames / interval",
        "span attribution",
        "counters",
    ] {
        assert!(html.contains(panel), "missing panel {panel}");
    }
    assert!(html.contains("<svg"), "charts rendered");
    assert!(!html.contains("<script"), "dependency-free: no scripts");
    // Same run, same bytes.
    assert_eq!(html, s.net.dashboard("fixture").render());
}
