//! Shared experiment infrastructure: congestion-control selection, switch
//! and host configuration per scheme, and table printing.

use baselines::dctcp::{Dctcp, DctcpParams};
use baselines::timely::{timely_host_config, Timely, TimelyParams};
use dcqcn::params::DcqcnParams;
use dcqcn::rp::DcqcnRp;
use netsim::cc::{CongestionControl, NoCc};
use netsim::ecn::RedConfig;
use netsim::host::HostConfig;
use netsim::switch::SwitchConfig;
use netsim::telemetry::{Json, SpanState, NUM_SPAN_STATES};
use netsim::units::{Bandwidth, Duration};

/// Which end-to-end congestion control a scenario runs.
#[derive(Debug, Clone, Copy)]
pub enum CcChoice {
    /// PFC only — the paper's "No DCQCN".
    None,
    /// DCQCN with the given parameters.
    Dcqcn(DcqcnParams),
    /// DCTCP (window-based ECN).
    Dctcp(DctcpParams),
    /// TIMELY (RTT-gradient) — the §3.3 contrast.
    Timely(TimelyParams),
}

impl CcChoice {
    /// The deployed DCQCN configuration (Figure 14).
    pub fn dcqcn_paper() -> CcChoice {
        CcChoice::Dcqcn(DcqcnParams::paper())
    }

    /// A per-flow CC factory for [`netsim::network::Network::add_flow`].
    pub fn factory(self) -> impl Fn(Bandwidth) -> Box<dyn CongestionControl> {
        move |line| -> Box<dyn CongestionControl> {
            match self {
                CcChoice::None => Box::new(NoCc::new(line)),
                CcChoice::Dcqcn(p) => Box::new(DcqcnRp::new(line, p)),
                CcChoice::Dctcp(p) => Box::new(Dctcp::new(line, p)),
                CcChoice::Timely(p) => Box::new(Timely::new(line, p)),
            }
        }
    }

    /// The switch RED/ECN configuration this scheme expects.
    pub fn red(&self) -> RedConfig {
        match self {
            CcChoice::None => RedConfig::disabled(),
            CcChoice::Dcqcn(_) => dcqcn::params::red_deployed(),
            CcChoice::Dctcp(_) => dcqcn::params::red_cutoff_dctcp_40g(),
            CcChoice::Timely(_) => RedConfig::disabled(),
        }
    }

    /// The host/NIC configuration this scheme expects (NP on for DCQCN,
    /// DCTCP delayed-ACK style echoing, etc.).
    pub fn host_config(&self) -> HostConfig {
        match self {
            CcChoice::Dcqcn(p) => dcqcn::dcqcn_host_config(*p),
            CcChoice::Dctcp(_) => HostConfig {
                cnp_interval: None,
                ack_every: 2, // DCTCP's delayed-ACK echo granularity
                ..HostConfig::default()
            },
            CcChoice::Timely(_) => timely_host_config(),
            _ => HostConfig {
                cnp_interval: None,
                ..HostConfig::default()
            },
        }
    }

    /// The switch configuration this scheme expects. `pfc` disables PFC
    /// entirely when false; `misconfigured` applies the paper's §6.2
    /// wrong thresholds (static t_PFC at the upper bound, ECN five times
    /// higher — so PFC fires before ECN).
    pub fn switch_config(&self, pfc: bool, misconfigured: bool) -> SwitchConfig {
        let mut cfg = SwitchConfig::paper_default().with_red(self.red());
        if !pfc {
            cfg = cfg.without_pfc();
        }
        if misconfigured {
            let t_pfc = dcqcn::thresholds::static_pfc_bound(&cfg.buffer);
            cfg.buffer.threshold = netsim::buffer::PfcThreshold::Static(t_pfc);
            cfg.red = RedConfig::cutoff(5 * t_pfc);
        }
        cfg
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            CcChoice::None => "No DCQCN",
            CcChoice::Dcqcn(_) => "DCQCN",
            CcChoice::Dctcp(_) => "DCTCP",
            CcChoice::Timely(_) => "TIMELY",
        }
    }
}

/// Run-length knobs: `--quick` shrinks durations and seed counts so the
/// full suite finishes in a couple of minutes.
#[derive(Debug, Clone, Copy)]
pub struct RunScale {
    /// Quick mode?
    pub quick: bool,
}

impl RunScale {
    /// Picks `q` in quick mode, else `full`.
    pub fn pick<T>(&self, q: T, full: T) -> T {
        if self.quick {
            q
        } else {
            full
        }
    }

    /// Seeds for repeated runs.
    pub fn seeds(&self, q: usize, full: usize) -> Vec<u64> {
        (1..=self.pick(q, full) as u64).collect()
    }

    /// A run duration.
    pub fn dur(&self, q_ms: u64, full_ms: u64) -> Duration {
        Duration::from_millis(self.pick(q_ms, full_ms))
    }
}

/// Formats min/median/max of a sample set. The median is
/// [`netsim::stats::median`] — the workspace-wide nearest-rank definition
/// — so tables agree with every percentile the experiments print.
pub fn mmm(values: &[f64]) -> String {
    if values.is_empty() {
        return "(no samples)".to_string();
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    format!(
        "min={:6.2} med={:6.2} max={:6.2}",
        v[0],
        netsim::stats::median(&v),
        v[v.len() - 1]
    )
}

/// Prints a span-attributed time breakdown as an indented table: one
/// line per state (µs and share of `total`), plus the attributed sum —
/// which equals the measured FCT when the breakdown came from a
/// completion snapshot (the decomposition identity).
pub fn print_breakdown(breakdown: &[Duration; NUM_SPAN_STATES], total: Duration) {
    let total_us = total.as_micros_f64();
    for state in SpanState::ALL {
        let d = breakdown[state as usize];
        if d == Duration::ZERO {
            continue;
        }
        let us = d.as_micros_f64();
        let share = if total_us > 0.0 {
            100.0 * us / total_us
        } else {
            0.0
        };
        println!("  {:>15}: {us:>10.1} us ({share:5.1}%)", state.name());
    }
    let sum: Duration = breakdown.iter().copied().sum();
    println!(
        "  {:>15}: {:>10.1} us (fct {:.1} us)",
        "sum",
        sum.as_micros_f64(),
        total_us
    );
}

/// A span-attributed breakdown as a `{state: microseconds}` JSON object
/// for `--json` reports.
pub fn breakdown_json(breakdown: &[Duration; NUM_SPAN_STATES]) -> Json {
    Json::obj(
        SpanState::ALL
            .iter()
            .map(|&s| (s.name(), Json::from(breakdown[s as usize].as_micros_f64())))
            .collect(),
    )
}

/// Mean of a slice (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Sample standard deviation (0 when < 2 samples).
pub fn stddev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (values.len() - 1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factories_build_expected_algorithms() {
        let line = Bandwidth::gbps(40);
        assert_eq!(CcChoice::None.factory()(line).name(), "none");
        assert_eq!(CcChoice::dcqcn_paper().factory()(line).name(), "dcqcn");
        assert_eq!(
            CcChoice::Dctcp(DctcpParams::default_40g()).factory()(line).name(),
            "dctcp"
        );
    }

    #[test]
    fn host_configs_match_scheme() {
        assert!(CcChoice::dcqcn_paper().host_config().cnp_interval.is_some());
        assert!(CcChoice::None.host_config().cnp_interval.is_none());
        assert_eq!(
            CcChoice::Dctcp(DctcpParams::default_40g())
                .host_config()
                .ack_every,
            2
        );
    }

    #[test]
    fn misconfigured_switch_marks_after_pausing() {
        let cfg = CcChoice::dcqcn_paper().switch_config(true, true);
        match cfg.buffer.threshold {
            netsim::buffer::PfcThreshold::Static(t) => {
                assert!(cfg.red.kmin_bytes > t, "ECN above PFC = misconfigured")
            }
            _ => panic!("misconfigured uses the static bound"),
        }
        assert!(cfg.pfc_enabled);
    }

    #[test]
    fn no_pfc_switch() {
        let cfg = CcChoice::dcqcn_paper().switch_config(false, false);
        assert!(!cfg.pfc_enabled);
    }

    #[test]
    fn scale_picks() {
        let s = RunScale { quick: true };
        assert_eq!(s.pick(1, 10), 1);
        assert_eq!(s.seeds(2, 5), vec![1, 2]);
        let f = RunScale { quick: false };
        assert_eq!(f.dur(100, 500), Duration::from_millis(500));
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!(stddev(&[2.0, 2.0, 2.0]) < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert!(mmm(&[3.0, 1.0, 2.0]).contains("med=  2.00"));
        // Even sample count: mmm's median is the shared nearest-rank
        // definition (lower middle), not the old upper-middle v[len/2].
        assert!(mmm(&[4.0, 3.0, 2.0, 1.0]).contains("med=  2.00"));
        assert_eq!(mmm(&[]), "(no samples)");
    }
}
