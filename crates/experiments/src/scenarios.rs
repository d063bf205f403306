//! Reusable testbed scenarios: the §2.2 unfairness and victim-flow setups
//! on the Figure 2 Clos, the §6.2 benchmark-traffic runs, and the fault
//! injection scenarios (link flap, pause storm).

use crate::common::{CcChoice, RunScale};
use netsim::event::NodeId;
use netsim::faults::{FaultConfig, FaultPlan};
use netsim::packet::{FlowId, DATA_PRIORITY};
use netsim::stats::SamplerConfig;
use netsim::switch::PfcWatchdogConfig;
use netsim::telemetry::{ChromeTrace, CongestionTree, Json, Spans, NUM_SPAN_STATES};
use netsim::topology::{clos_testbed, ClosTestbed, LinkParams};
use netsim::units::{Duration, Time};
use workloads::traffic::{
    flow_goodputs, setup_incast, setup_user_traffic, transfer_goodputs, UserTrafficConfig,
};

/// Builds the Figure 2 testbed configured for a CC scheme.
pub fn testbed(
    cc: CcChoice,
    pfc: bool,
    misconfigured: bool,
    hosts_per_tor: usize,
    seed: u64,
) -> ClosTestbed {
    clos_testbed(
        hosts_per_tor,
        LinkParams::default(),
        cc.host_config(),
        cc.switch_config(pfc, misconfigured),
        seed,
    )
}

/// Run length and warm-up of the Figure 3/4 scenarios (and of their
/// DCQCN reruns, Figures 8/9), as `(duration, warmup)`.
pub fn testbed_window(cc: CcChoice, scale: RunScale) -> (Duration, Duration) {
    let (duration, warmup) = (scale.dur(150, 250), scale.dur(50, 80));
    match cc {
        // DCQCN needs time to converge after the line-rate start.
        CcChoice::Dcqcn(_) => (
            duration + Duration::from_millis(200),
            warmup + Duration::from_millis(150),
        ),
        _ => (duration, warmup),
    }
}

/// Samples every flow's delivered bytes each 500 µs and runs `tb` to
/// `duration`: the measured variant of a built scenario.
fn run_sampled(tb: &mut ClosTestbed, duration: Duration) {
    tb.net
        .enable_sampling(Duration::from_micros(500), SamplerConfig::default());
    tb.net.run_until(Time::ZERO + duration);
}

/// Builds the Figure 3/8 unfairness scenario, not yet run: H1–H3 under T1
/// and H4 under T4 all send greedily to R under T4. Returns the testbed
/// and the four flows in H1–H4 order; the caller attaches sampling or
/// spans and runs.
pub fn unfairness_build(cc: CcChoice, seed: u64) -> (ClosTestbed, Vec<FlowId>) {
    let mut tb = testbed(cc, true, false, 5, seed);
    let senders = [
        tb.hosts[0][0],
        tb.hosts[0][1],
        tb.hosts[0][2],
        tb.hosts[3][0],
    ];
    let receiver = tb.hosts[3][1];
    let f = cc.factory();
    let flows: Vec<FlowId> = senders
        .iter()
        .map(|&h| tb.net.add_flow(h, receiver, DATA_PRIORITY, &f))
        .collect();
    for &fl in &flows {
        tb.net.send_message(fl, u64::MAX, Time::ZERO);
    }
    (tb, flows)
}

/// Runs one unfairness scenario to `duration` with every flow sampled,
/// returning the finished testbed and the four flows in H1–H4 order.
pub fn unfairness_scenario(
    cc: CcChoice,
    seed: u64,
    duration: Duration,
) -> (ClosTestbed, Vec<FlowId>) {
    let (mut tb, flows) = unfairness_build(cc, seed);
    run_sampled(&mut tb, duration);
    (tb, flows)
}

/// The unfairness scenario's per-host goodput (Gbps) measured over
/// `[warmup, duration]`.
pub fn unfairness_run(cc: CcChoice, seed: u64, duration: Duration, warmup: Duration) -> Vec<f64> {
    let (tb, flows) = unfairness_scenario(cc, seed, duration);
    flow_goodputs(&tb.net, &flows, Time::ZERO + warmup, Time::ZERO + duration)
}

/// The unfairness scenario with causal tracing: returns H1's (a T1
/// sender sharing T4's uplinks) span-attributed time breakdown over the
/// whole run — under PFC alone it is dominated by `pause_blocked`, under
/// an end-to-end scheme by `throttled`.
pub fn unfairness_attribution(
    cc: CcChoice,
    seed: u64,
    duration: Duration,
) -> [Duration; NUM_SPAN_STATES] {
    let (mut tb, flows) = unfairness_build(cc, seed);
    tb.net.enable_spans(256);
    tb.net.run_until(Time::ZERO + duration);
    tb.net
        .span_breakdown(flows[0])
        .unwrap_or([Duration::ZERO; NUM_SPAN_STATES])
}

/// Builds the Figure 4/9 victim-flow scenario, not yet run: H11–H14
/// (under T1) plus `t3_senders` hosts under T3 send greedily to R under
/// T4. Returns the testbed and the victim flow VS (under T1) → VR (under
/// T2), registered but silent: the caller gives it its message, attaches
/// sampling or spans and runs.
pub fn victim_build(cc: CcChoice, t3_senders: usize, seed: u64) -> (ClosTestbed, FlowId) {
    let mut tb = testbed(cc, true, false, 5, seed);
    let receiver = tb.hosts[3][0];
    let f = cc.factory();
    let t1 = tb.hosts[0][..4].iter();
    let incast: Vec<NodeId> = t1.chain(&tb.hosts[2][..t3_senders]).copied().collect();
    for h in incast {
        let fl = tb.net.add_flow(h, receiver, DATA_PRIORITY, &f);
        tb.net.send_message(fl, u64::MAX, Time::ZERO);
    }
    let victim = tb
        .net
        .add_flow(tb.hosts[0][4], tb.hosts[1][0], DATA_PRIORITY, &f);
    (tb, victim)
}

/// The victim-flow scenario with a greedy victim: its goodput in Gbps
/// over `[warmup, duration]`.
pub fn victim_run(
    cc: CcChoice,
    t3_senders: usize,
    seed: u64,
    duration: Duration,
    warmup: Duration,
) -> f64 {
    let (mut tb, victim) = victim_build(cc, t3_senders, seed);
    tb.net.send_message(victim, u64::MAX, Time::ZERO);
    run_sampled(&mut tb, duration);
    tb.net
        .goodput_gbps(victim, Time::ZERO + warmup, Time::ZERO + duration)
}

/// Result of the [`attribution`] pass: the Figure 4 victim's causally
/// attributed FCT decomposition, the run's congestion tree, and what its
/// Chrome trace is rendered from.
#[derive(Debug, Clone)]
pub struct AttributionResult {
    /// Did the victim's finite message complete within the run?
    pub completed: bool,
    /// The victim's measured flow completion time.
    pub fct: Duration,
    /// Per-state attributed time, indexed by
    /// [`netsim::telemetry::SpanState`]; sums exactly to `fct` when
    /// `completed` (the identity the sanitize auditor enforces).
    pub breakdown: [Duration; NUM_SPAN_STATES],
    /// The pause-propagation graph folded into a congestion tree: root
    /// port(s) and every victim flow.
    pub tree: CongestionTree,
    /// The run's finished span recorder and end time: the Chrome trace
    /// is a view of these, rendered only where a `--trace` sink asks.
    spans: Spans,
    end: Time,
}

impl AttributionResult {
    /// The Chrome trace-event export of the whole run.
    pub fn chrome_trace(&self) -> ChromeTrace<'_> {
        self.spans.chrome_trace(self.end)
    }
}

/// The attribution pass of Figures 4 and 9 (and of `ext-attribution`,
/// which prints both side by side): the victim-flow scenario with causal
/// tracing at the worst-case incast (2 senders under T3), first seed.
/// The incast senders transmit greedily from t = 0 while the victim
/// sends one finite 1 MB message once the [`testbed_window`] warm-up is
/// over (late enough that a converging scheme has settled).
pub fn attribution(cc: CcChoice, scale: RunScale) -> AttributionResult {
    let (duration, warmup) = testbed_window(cc, scale);
    // Seed 1: the first seed of every sweep (`RunScale::seeds`).
    let (mut tb, victim) = victim_build(cc, 2, 1);
    tb.net.enable_spans(256);
    tb.net.send_message(victim, 1_000_000, Time::ZERO + warmup);
    tb.net.run_until(Time::ZERO + duration);

    let completion = tb.net.spans().completion(victim);
    let breakdown = completion
        .map(|c| c.accum)
        .or_else(|| tb.net.span_breakdown(victim))
        .unwrap_or([Duration::ZERO; NUM_SPAN_STATES]);
    AttributionResult {
        completed: completion.is_some(),
        fct: completion.map_or(Duration::ZERO, |c| c.fct),
        breakdown,
        tree: tb.net.congestion_tree(),
        end: tb.net.now(),
        spans: tb.net.take_spans(),
    }
}

/// Configuration of a §6.2 benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct BenchmarkConfig {
    /// Congestion control scheme.
    pub cc: CcChoice,
    /// Communicating user pairs.
    pub pairs: usize,
    /// Incast (disk-rebuild) degree; 0 disables the incast.
    pub incast_degree: usize,
    /// Run length.
    pub duration: Duration,
    /// PFC enabled?
    pub pfc: bool,
    /// Misconfigured buffer thresholds (§6.2)?
    pub misconfigured: bool,
    /// NAK-capable receivers (disable to model timeout-only ConnectX-3
    /// recovery).
    pub nack_enabled: bool,
    /// Seed for topology randomness and workload draws.
    pub seed: u64,
}

/// Results of a benchmark run.
#[derive(Debug, Clone)]
pub struct BenchmarkResult {
    /// Goodput (Gbps) of each completed user transfer ≥ 1 MB.
    pub user_goodputs: Vec<f64>,
    /// Average goodput (Gbps) of each incast flow over the measurement
    /// window.
    pub incast_goodputs: Vec<f64>,
    /// PAUSE frames received at the two spines.
    pub spine_pause_rx: u64,
    /// Total packet drops across all switches.
    pub drops: u64,
    /// Total retransmitted packets.
    pub retx: u64,
    /// Total retransmission timeouts.
    pub timeouts: u64,
    /// Flows torn down after exhausting the transport retry budget.
    pub aborted: u64,
    /// Total events executed (cost accounting).
    pub events: u64,
}

/// Runs the §6.2 benchmark: 20 hosts (5 per rack), `pairs` user pairs
/// with trace-like transfer sizes, plus one disk-rebuild incast.
pub fn benchmark_run(cfg: &BenchmarkConfig) -> BenchmarkResult {
    let mut tb = {
        let mut host_cfg = cfg.cc.host_config();
        host_cfg.nack_enabled = cfg.nack_enabled;
        clos_testbed(
            5,
            LinkParams::default(),
            host_cfg,
            cfg.cc.switch_config(cfg.pfc, cfg.misconfigured),
            cfg.seed,
        )
    };
    let hosts: Vec<NodeId> = tb.hosts.iter().flatten().copied().collect();
    let f = cfg.cc.factory();

    let user_cfg = UserTrafficConfig {
        mean_interarrival: Duration::from_micros(4000),
        ..UserTrafficConfig::benchmark(cfg.pairs, cfg.duration)
    };
    let pairs = setup_user_traffic(&mut tb.net, &hosts, &user_cfg, &f, cfg.seed ^ 0xA5A5);

    let incast_flows = if cfg.incast_degree > 0 {
        let target = workloads::traffic::pick_one(&hosts, cfg.seed ^ 0x1111);
        // Enough bytes that the rebuild outlasts the run.
        let bytes = (cfg.duration.as_secs_f64() * 40e9 / 8.0) as u64;
        setup_incast(
            &mut tb.net,
            &hosts,
            target,
            cfg.incast_degree,
            bytes,
            Time::ZERO,
            DATA_PRIORITY,
            &f,
            cfg.seed ^ 0x2222,
        )
    } else {
        Vec::new()
    };

    tb.net
        .enable_sampling(Duration::from_micros(1000), SamplerConfig::default());
    let end = Time::ZERO + cfg.duration;
    tb.net.run_until(end);

    let user_flows: Vec<FlowId> = pairs.iter().map(|p| p.flow).collect();
    let warmup = Time::ZERO + cfg.duration / 5;
    let mut pause_rx_spines = 0;
    for &s in &tb.spines {
        pause_rx_spines += tb.net.switch_stats(s).pause_rx;
    }
    // Fabric-wide totals: sums over every switch and flow.
    let metric = |name| tb.net.metric(name);
    BenchmarkResult {
        user_goodputs: transfer_goodputs(&tb.net, &user_flows, 1_000_000),
        incast_goodputs: flow_goodputs(&tb.net, &incast_flows, warmup, end),
        spine_pause_rx: pause_rx_spines,
        drops: metric("drops_pool") + metric("drops_lossy"),
        retx: metric("retx_pkts"),
        timeouts: metric("timeouts"),
        aborted: metric("qp_teardowns"),
        events: tb.net.events_executed(),
    }
}

/// Results of a [`link_flap_run`]: a goodput timeline plus the
/// degradation counters the run produced.
#[derive(Debug, Clone)]
pub struct LinkFlapResult {
    /// Aggregate goodput (Gbps) across all flows, in 1 ms bins.
    pub bins: Vec<f64>,
    /// Flows that exhausted their transport retries and tore down —
    /// the `qp_teardowns` counter.
    pub aborts: usize,
    /// Route recomputations triggered by link transitions.
    pub reroutes: u64,
    /// Wire drops — the `fault_drops` counter, the fault engine's link
    /// and CRC drops (the flap is the only fault installed, so every one
    /// is a link-down drop).
    pub link_drops: u64,
    /// The run's full telemetry report for `--json` output.
    pub telemetry: Json,
}

/// A fabric link (T1–L1) flaps mid-run while eight inter-pod flows cross
/// it. With route failover the survivors of T1's ECMP set absorb the
/// traffic within an RTO; without it, flows hashed onto the dead next-hop
/// black-hole, back off exponentially, and abort once `max_retries` is
/// spent. The flap window (`down_at`..`up_at`) is sized by the caller so
/// that black-holed QPs exhaust their budget before the link returns.
pub fn link_flap_run(
    cc: CcChoice,
    failover: bool,
    seed: u64,
    down_at: Time,
    up_at: Time,
    duration: Duration,
) -> LinkFlapResult {
    let mut tb = {
        // A tight transport budget keeps the abort schedule inside the
        // flap window: fatal timer at down + (1+1+2+4)·rto = down + 4 ms.
        let mut host_cfg = cc.host_config();
        host_cfg.rto = Duration::from_micros(500);
        host_cfg.max_retries = 3;
        clos_testbed(
            2,
            LinkParams::default(),
            host_cfg,
            cc.switch_config(true, false),
            seed,
        )
    };
    let f = cc.factory();
    let flows: Vec<FlowId> = (0..8)
        .map(|i| {
            let src = tb.hosts[0][i % 2];
            let dst = tb.hosts[3][(i / 2) % 2];
            let fl = tb.net.add_flow(src, dst, DATA_PRIORITY, &f);
            tb.net.send_message(fl, u64::MAX, Time::ZERO);
            fl
        })
        .collect();
    let link = tb
        .net
        .link_between(tb.tors[0], tb.leaves[0])
        .expect("T1–L1 is a fabric link");
    let plan = FaultPlan::new()
        .link_down(down_at, link)
        .link_up(up_at, link);
    tb.net.install_faults(
        &plan,
        FaultConfig {
            failover,
            ..FaultConfig::default()
        },
    );
    tb.net
        .enable_sampling(Duration::from_micros(200), SamplerConfig::default());
    let end = Time::ZERO + duration;
    tb.net.run_until(end);

    let bin = Duration::from_millis(1);
    let nbins = (duration.as_secs_f64() / bin.as_secs_f64()).round() as usize;
    let bins: Vec<f64> = (0..nbins)
        .map(|i| {
            let from = Time::ZERO + bin.saturating_mul(i as u64);
            let to = from + bin;
            flows
                .iter()
                .map(|&fl| tb.net.goodput_gbps(fl, from, to))
                .sum()
        })
        .collect();
    // Degradation counters are the report's `counters` — the same
    // numbers any `--json` consumer sees.
    let fs = tb.net.fault_stats();
    LinkFlapResult {
        bins,
        aborts: tb.net.metric("qp_teardowns") as usize,
        reroutes: fs.reroutes,
        link_drops: tb.net.metric("fault_drops"),
        telemetry: tb.net.telemetry_report(),
    }
}

/// Results of a [`pause_storm_victim_run`].
#[derive(Debug, Clone)]
pub struct PauseStormResult {
    /// Victim goodput (Gbps) while the storm is active.
    pub victim_storm_gbps: f64,
    /// Victim goodput (Gbps) after the storm ends.
    pub victim_after_gbps: f64,
    /// PAUSE frames received at the two spines (congestion spreading).
    pub spine_pause_rx: u64,
    /// Watchdog trips — the `watchdog_trips` counter.
    pub watchdog_trips: u64,
    /// Watchdog restores — the `watchdog_restores` counter.
    pub watchdog_restores: u64,
    /// The run's full telemetry report for `--json` output.
    pub telemetry: Json,
}

/// The §2.2 victim-flow topology under a malfunctioning NIC instead of an
/// incast: the receiver R under T4 pause-storms its access link, freezing
/// T4's egress to it. Traffic from the two T1 senders backs up through
/// the fabric exactly like Figure 4's congestion spreading — T4 pauses
/// the leaves, the leaves pause the spines, and eventually T1's uplinks
/// stall, collapsing the victim flow VS(T1)→VR(T2) whose path never
/// touches R. A PFC storm watchdog on every switch breaks the chain at
/// its root; DCQCN additionally drains the senders via ECN.
pub fn pause_storm_victim_run(
    cc: CcChoice,
    watchdog: Option<PfcWatchdogConfig>,
    seed: u64,
    storm_from: Time,
    storm_until: Time,
    duration: Duration,
) -> PauseStormResult {
    let mut tb = {
        let mut switch_cfg = cc.switch_config(true, false);
        switch_cfg.watchdog = watchdog;
        clos_testbed(3, LinkParams::default(), cc.host_config(), switch_cfg, seed)
    };
    let storm_host = tb.hosts[3][0];
    let f = cc.factory();
    for i in 0..2 {
        let fl = tb
            .net
            .add_flow(tb.hosts[0][i], storm_host, DATA_PRIORITY, &f);
        tb.net.send_message(fl, u64::MAX, Time::ZERO);
    }
    let victim = tb
        .net
        .add_flow(tb.hosts[0][2], tb.hosts[1][0], DATA_PRIORITY, &f);
    tb.net.send_message(victim, u64::MAX, Time::ZERO);

    let plan = FaultPlan::new().pause_storm(
        storm_host,
        DATA_PRIORITY,
        storm_from,
        storm_until,
        Duration::from_micros(20),
    );
    tb.net.install_faults(&plan, FaultConfig::default());
    tb.net
        .enable_sampling(Duration::from_micros(200), SamplerConfig::default());
    let end = Time::ZERO + duration;
    tb.net.run_until(end);

    // Spine PAUSE counts need per-node attribution, so they stay on the
    // per-switch stats; the fabric-wide watchdog counters are the
    // report's, same as any `--json` consumer sees them.
    let mut spine_pause_rx = 0;
    for &s in &tb.spines {
        spine_pause_rx += tb.net.switch_stats(s).pause_rx;
    }
    // Skip the first fifth of the storm window so the measurement sees
    // the spread congestion, not the pre-storm residue.
    let settle = Duration::from_micros(((storm_until - storm_from).as_secs_f64() * 2e5) as u64);
    PauseStormResult {
        victim_storm_gbps: tb
            .net
            .goodput_gbps(victim, storm_from + settle, storm_until),
        victim_after_gbps: tb
            .net
            .goodput_gbps(victim, storm_until + Duration::from_millis(1), end),
        spine_pause_rx,
        watchdog_trips: tb.net.metric("watchdog_trips"),
        watchdog_restores: tb.net.metric("watchdog_restores"),
        telemetry: tb.net.telemetry_report(),
    }
}
