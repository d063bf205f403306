//! Figure 7: the RP state machine — a deterministic trace through rate
//! cut, fast recovery, and additive increase.

use crate::report::{Artifact, Run};
use dcqcn::params::DcqcnParams;
use dcqcn::rp::{DcqcnRp, TIMER_RATE};
use netsim::cc::{CcActions, CongestionControl};
use netsim::telemetry::timeline::{TimelineSet, TrackKind};
use netsim::telemetry::{Dashboard, Series};
use netsim::units::{Bandwidth, Time};

/// Runs the experiment.
pub fn run(run: &mut Run) {
    let params = DcqcnParams::paper();
    let mut rp = DcqcnRp::new(Bandwidth::gbps(40), params);
    let mut a = CcActions::default();
    // The trace doubles as a timeline fixture: R_C / R_T / alpha are
    // recorded per event and rendered with `--dash`.
    let mut tls = TimelineSet::new();
    let rc = tls.track("rate_gbps/R_C", TrackKind::Gauge, 1e-6, 64);
    let rt = tls.track("rate_gbps/R_T", TrackKind::Gauge, 1e-6, 64);
    let al = tls.track("alpha", TrackKind::Gauge, 1e-6, 64);
    println!(
        "{:>6} | {:>10} | {:>10} | {:>8} | phase",
        "event", "R_C Gbps", "R_T Gbps", "alpha"
    );
    let mut row = |ev: &str, t: Time, rp: &DcqcnRp, phase: &str| {
        println!(
            "{:>6} | {:>10.3} | {:>10.3} | {:>8.4} | {phase}",
            ev,
            rp.rate().as_gbps_f64(),
            rp.target_rate().as_gbps_f64(),
            rp.alpha()
        );
        tls.record_f64(rc, t, rp.rate().as_gbps_f64());
        tls.record_f64(rt, t, rp.target_rate().as_gbps_f64());
        tls.record_f64(al, t, rp.alpha());
    };
    row("start", Time::ZERO, &rp, "line rate, limiter free");
    rp.on_cnp(Time::ZERO, &mut a);
    row("CNP", Time::ZERO, &rp, "cut: R_T=R_C_old, R_C*=(1-alpha/2)");
    rp.on_cnp(Time::from_micros(50), &mut a);
    row("CNP", Time::from_micros(50), &rp, "second cut");
    for i in 1..=10u64 {
        let t = Time::from_micros(100 + 55 * i);
        rp.on_timer(t, TIMER_RATE, &mut a);
        let phase = if i < 5 {
            "fast recovery (halve gap to R_T)"
        } else {
            "additive increase (R_T += 40 Mbps)"
        };
        row(&format!("T#{i}"), t, &rp, phase);
    }
    if run.enabled(Artifact::Dash) {
        let mut dash = Dashboard::new("fig7: RP state machine trace");
        dash.fact("events", "13");
        dash.fact("params", "paper");
        let series_of = |tl: &netsim::telemetry::Timeline, label: &str| {
            let s = tl.series();
            Series {
                label: label.to_string(),
                points: s
                    .times
                    .iter()
                    .zip(&s.values)
                    .map(|(t, &v)| (t.as_micros_f64(), v))
                    .collect(),
            }
        };
        dash.chart(
            "RP rates",
            "Gbps",
            vec![series_of(tls.get(rc), "R_C"), series_of(tls.get(rt), "R_T")],
        );
        dash.chart("alpha", "alpha", vec![series_of(tls.get(al), "alpha")]);
        run.dashboard(|| dash);
    }
}
