//! The five workloads. Each is a closed simulation assembled through
//! the public `netsim` / `workloads` / `experiments` API: `prepare` is
//! everything a user pays before the first `run_until` (`setup_s`),
//! `Prepared::execute` runs to the fixed simulated horizon and extracts
//! the results (`wall_s`).
//!
//! What `--seed` varies is chosen so every seed simulates the same
//! amount of statistically the same work — otherwise host time and the
//! FCT percentiles would measure the draw, not the simulator. On the
//! fabric workloads the topology seed (ECMP salt, RED stream) and the
//! §6.2 trace are fixed and the seed draws the *phase* of every traffic
//! source: when each greedy flow starts within its first 100 µs and where
//! each periodic message train sits within its period. Queueing is
//! chaotic enough that this moves every simulated statistic, but only by
//! a few percent. For `chaos_campaign` the seed selects the campaign.

use crate::measure::{allocations, nearest_rank};
use crate::spans::Recorder;
use experiments::common::CcChoice;
use experiments::scenarios::testbed;
use netsim::chaos::{generate_case, ChaosCase};
use netsim::event::{NodeId, PortId};
use netsim::network::Network;
use netsim::packet::{FlowId, DATA_PRIORITY};
use netsim::rng::SplitMix64;
use netsim::stats::SamplerConfig;
use netsim::topology::{fat_tree, LinkParams};
use netsim::units::{Duration, Time};
use std::hint::black_box;
use std::time::Instant;
use workloads::dist::{CloudStorageDist, SizeDist};
use workloads::traffic::{pick_one, setup_incast, setup_user_traffic, UserTrafficConfig};

/// Simulated length of one `run.slice` span of the traced run.
const SLICE: Duration = Duration::from_millis(1);

/// Topology seed of every fabric workload (ECMP salt, RED stream).
const FABRIC_SEED: u64 = 1;
/// Seed of the §6.2 draw: user pairs, sizes, arrivals, incast placement.
/// One on which every transfer completes within the horizon.
const TRACE_SEED: u64 = 2;
/// Greedy flows start at a seed-drawn instant in `[0, GREEDY_START)`.
const GREEDY_START: Duration = Duration::from_micros(100);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ClosPfcIncast,
    ClosDcqcnMixed,
    ClosDcqcnObserved,
    FattreeK8Permutation,
    ChaosCampaign,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ClosPfcIncast,
        Workload::ClosDcqcnMixed,
        Workload::ClosDcqcnObserved,
        Workload::FattreeK8Permutation,
        Workload::ChaosCampaign,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ClosPfcIncast => "clos_pfc_incast",
            Workload::ClosDcqcnMixed => "clos_dcqcn_mixed",
            Workload::ClosDcqcnObserved => "clos_dcqcn_observed",
            Workload::FattreeK8Permutation => "fattree_k8_permutation",
            Workload::ChaosCampaign => "chaos_campaign",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark's fixed size of this workload: simulated µs to run
    /// for the fabric workloads, cases to execute for `chaos_campaign`.
    /// Sized so one repetition takes about 2 s on the reference box.
    pub fn full_scale(self) -> u64 {
        match self {
            Workload::ClosPfcIncast => 400_000,
            Workload::ClosDcqcnMixed | Workload::ClosDcqcnObserved => 200_000,
            Workload::FattreeK8Permutation => 10_000,
            Workload::ChaosCampaign => 1_000,
        }
    }
}

/// Integer model counters summed over the run: the simulated side of the
/// per-layer metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub pkt_hops: u64,
    pub ecn_marks: u64,
    pub pause_tx: u64,
    pub drops: u64,
    pub retx_pkts: u64,
    pub timeouts: u64,
    pub nacks_sent: u64,
    pub cnps_sent: u64,
    /// Heap allocations made after the first fifth of the horizon.
    pub allocs_steady: u64,
}

/// What one repetition produced. Everything but `counts.allocs_steady`
/// and `render_ms` is a function of (workload, scale, seed) alone.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// FNV-1a over the integer per-flow and per-switch counters.
    pub digest: u64,
    pub goodput_gbps: f64,
    pub fct_p50_us: f64,
    pub fct_p99_us: f64,
    pub fct_samples: u64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub counts: Counts,
    /// Bytes of report, Chrome trace and dashboard rendered inside
    /// `wall_s` (`clos_dcqcn_observed` only), and the host ms each took.
    pub artifact_bytes: u64,
    pub render_ms: [f64; 3],
}

/// Nearest-rank p50 and p99, in µs, of durations in ps (0 when empty).
fn percentiles_us(ps: &mut [u64]) -> [f64; 2] {
    ps.sort_unstable();
    [50.0, 99.0].map(|p| match ps.is_empty() {
        true => 0.0,
        false => Duration(nearest_rank(ps, p)).as_micros_f64(),
    })
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A built fabric with its traffic scheduled, ready for `run_until`.
pub struct Fabric {
    net: Network,
    switches: Vec<NodeId>,
    flows: Vec<FlowId>,
    /// Finite-message flows with the number of messages each was handed,
    /// all in the first 80 % of the horizon.
    finite: Vec<(FlowId, u64)>,
    horizon: Duration,
    /// Render report, Chrome trace and dashboard inside `wall_s`.
    render: bool,
}

/// Which of a `Network`'s observers a `clos_dcqcn_*` run turns on:
/// 100 µs sampling of every flow and queue, causal spans, the per-node
/// flight recorder, the packet tracer ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observers {
    pub sampling: bool,
    pub spans: bool,
    pub recorder: bool,
    pub tracer: bool,
}

impl Observers {
    pub const NONE: Observers = Observers {
        sampling: false,
        spans: false,
        recorder: false,
        tracer: false,
    };
    pub const ALL: Observers = Observers {
        sampling: true,
        spans: true,
        recorder: true,
        tracer: true,
    };
}

pub enum Prepared {
    Fabric(Box<Fabric>),
    Chaos(Vec<ChaosCase>),
}

/// Where in `[0, period)` a traffic source starts: the one thing the
/// seed draws.
fn phase(rng: &mut SplitMix64, period: Duration) -> Time {
    Time::ZERO + Duration(rng.below(period.0))
}

/// Messages of `bytes` on `flow` every `every` starting at `first`, as
/// many as fit in `span`. Returns how many were scheduled.
fn periodic_messages(
    net: &mut Network,
    flow: FlowId,
    bytes: u64,
    first: Time,
    every: Duration,
    span: Duration,
) -> u64 {
    let n = span.0 / every.0;
    for k in 0..n {
        net.send_message(flow, bytes, first + every * k);
    }
    n
}

/// Fig. 2 testbed, PFC only: the Fig. 4 incast (4 senders under T1 and
/// 2 under T3, greedy, to one receiver under T4) plus the victim VS→VR
/// sending a 64 KB message every 250 µs — about half of what the paused
/// T1 uplinks leave it, so every message completes.
fn clos_pfc_incast(seed: u64, horizon: Duration, rec: &mut Recorder) -> Prepared {
    let cc = CcChoice::None;
    let mut rng = SplitMix64::new(seed);
    let mut tb = rec.span("setup.topology", |_| {
        testbed(cc, true, false, 5, FABRIC_SEED)
    });
    rec.begin("setup.flows", None);
    let f = cc.factory();
    let receiver = tb.hosts[3][0];
    let senders: Vec<NodeId> = tb.hosts[0][..4]
        .iter()
        .chain(&tb.hosts[2][..2])
        .copied()
        .collect();
    let mut flows = Vec::new();
    for src in senders {
        let fl = tb.net.add_flow(src, receiver, DATA_PRIORITY, &f);
        tb.net
            .send_message(fl, u64::MAX, phase(&mut rng, GREEDY_START));
        flows.push(fl);
    }
    let victim = tb
        .net
        .add_flow(tb.hosts[0][4], tb.hosts[1][0], DATA_PRIORITY, &f);
    let every = Duration::from_micros(250);
    let sent = periodic_messages(
        &mut tb.net,
        victim,
        64 * 1024,
        phase(&mut rng, every),
        every,
        horizon / 5 * 4,
    );
    flows.push(victim);
    rec.end(0);
    Prepared::Fabric(Box::new(Fabric {
        switches: [&tb.tors[..], &tb.leaves[..], &tb.spines[..]].concat(),
        net: tb.net,
        flows,
        finite: vec![(victim, sent)],
        horizon,
        render: false,
    }))
}

/// Fig. 2 testbed under deployed DCQCN: the §6.2 user trace (20 Poisson
/// pairs, cloud-storage sizes, 2 ms mean inter-arrival, arriving over
/// the first 80 % of the horizon) plus one greedy 8:1 incast.
/// `on` selects the observers.
///
/// The size mix is 60 % small, 20 % medium, 20 % large (the library
/// default is 50/30/20): with half the transfers small the median
/// transfer sits on the boundary between a 4 KB and a 128 KB class and
/// `fct_p50_us` flips between them from seed to seed.
pub fn clos_dcqcn(seed: u64, horizon: Duration, on: Observers, rec: &mut Recorder) -> Prepared {
    let cc = CcChoice::dcqcn_paper();
    let mut tb = rec.span("setup.topology", |_| {
        testbed(cc, true, false, 5, FABRIC_SEED)
    });
    rec.begin("setup.flows", None);
    let hosts: Vec<NodeId> = tb.hosts.iter().flatten().copied().collect();
    let f = cc.factory();
    let user_cfg = UserTrafficConfig {
        sizes: SizeDist::Cloud(CloudStorageDist {
            p_small: 0.6,
            p_medium: 0.2,
        }),
        ..UserTrafficConfig::benchmark(20, horizon / 5 * 4)
    };
    let pairs = setup_user_traffic(&mut tb.net, &hosts, &user_cfg, &f, TRACE_SEED);
    let incast = setup_incast(
        &mut tb.net,
        &hosts,
        pick_one(&hosts, TRACE_SEED ^ 0x1111),
        8,
        u64::MAX,
        phase(&mut SplitMix64::new(seed), GREEDY_START),
        DATA_PRIORITY,
        &f,
        TRACE_SEED ^ 0x2222,
    );
    let finite = pairs.iter().map(|p| (p.flow, p.transfers as u64)).collect();
    let flows: Vec<FlowId> = pairs.iter().map(|p| p.flow).chain(incast).collect();
    rec.end(0);
    let switches = [&tb.tors[..], &tb.leaves[..], &tb.spines[..]].concat();
    rec.begin("setup.observers", None);
    let net = &mut tb.net;
    if on.sampling {
        let queues = switches
            .iter()
            .flat_map(|&s| (0..net.switch(s).ports.len()).map(move |p| (s, PortId(p))))
            .collect();
        net.enable_sampling(
            Duration::from_micros(100),
            SamplerConfig {
                queues,
                all_flows: true,
                rate_flows: flows.clone(),
                counters: vec!["ecn_marks", "cnps_sent", "pause_tx"],
                ..SamplerConfig::default()
            },
        );
    }
    if on.spans {
        net.enable_spans(256);
    }
    if on.recorder {
        net.enable_flight_recorder(64);
    }
    if on.tracer {
        net.enable_trace(1 << 16);
    }
    rec.end(0);
    Prepared::Fabric(Box::new(Fabric {
        switches,
        net: tb.net,
        flows,
        finite,
        horizon,
        render: on == Observers::ALL,
    }))
}

/// `fat_tree(8)` under DCQCN: host i runs one greedy flow to
/// (7i+65) mod 128 and a 16 KB-every-100 µs message flow to
/// (5i+33) mod 128 (neither map has a fixed point). Larger messages do
/// not all drain in the last fifth of so short a horizon.
fn fattree_k8_permutation(seed: u64, horizon: Duration, rec: &mut Recorder) -> Prepared {
    let cc = CcChoice::dcqcn_paper();
    let mut rng = SplitMix64::new(seed);
    let mut ft = rec.span("setup.topology", |_| {
        fat_tree(
            8,
            LinkParams::default(),
            cc.host_config(),
            cc.switch_config(true, false),
            FABRIC_SEED,
        )
    });
    rec.begin("setup.flows", None);
    let f = cc.factory();
    let n = ft.hosts.len();
    let every = Duration::from_micros(100);
    let mut flows = Vec::with_capacity(2 * n);
    let mut finite = Vec::with_capacity(n);
    for i in 0..n {
        let greedy = ft
            .net
            .add_flow(ft.hosts[i], ft.hosts[(7 * i + 65) % n], DATA_PRIORITY, &f);
        ft.net
            .send_message(greedy, u64::MAX, phase(&mut rng, GREEDY_START));
        let msgs = ft
            .net
            .add_flow(ft.hosts[i], ft.hosts[(5 * i + 33) % n], DATA_PRIORITY, &f);
        let sent = periodic_messages(
            &mut ft.net,
            msgs,
            16 * 1024,
            phase(&mut rng, every),
            every,
            horizon / 5 * 4,
        );
        flows.extend([greedy, msgs]);
        finite.push((msgs, sent));
    }
    rec.end(0);
    Prepared::Fabric(Box::new(Fabric {
        switches: [&ft.cores[..], &ft.aggs[..], &ft.edges[..]].concat(),
        net: ft.net,
        flows,
        finite,
        horizon,
        render: false,
    }))
}

/// Builds `workload` at `scale` (see [`Workload::full_scale`]) from
/// `seed`: topology, routes, flows, workload draws, observers; for the
/// chaos campaign, case generation.
pub fn prepare(workload: Workload, scale: u64, seed: u64, rec: &mut Recorder) -> Prepared {
    let horizon = Duration::from_micros(scale);
    match workload {
        Workload::ClosPfcIncast => clos_pfc_incast(seed, horizon, rec),
        Workload::ClosDcqcnMixed => clos_dcqcn(seed, horizon, Observers::NONE, rec),
        Workload::ClosDcqcnObserved => clos_dcqcn(seed, horizon, Observers::ALL, rec),
        Workload::FattreeK8Permutation => fattree_k8_permutation(seed, horizon, rec),
        Workload::ChaosCampaign => Prepared::Chaos(rec.span("setup.faults", |_| {
            (0..scale).map(|i| generate_case(seed, i, false)).collect()
        })),
    }
}

impl Prepared {
    /// Runs to the horizon and extracts the results.
    pub fn execute(self, rec: &mut Recorder) -> Outcome {
        match self {
            Prepared::Fabric(f) => f.execute(rec),
            Prepared::Chaos(cases) => chaos_campaign(&cases, rec),
        }
    }
}

/// `run_until(until)`; the traced run gets there in [`SLICE`] steps, one
/// span each (op count: events executed in the slice).
fn run_to(net: &mut Network, until: Time, rec: &mut Recorder, slice: &mut u32) {
    if !rec.is_enabled() {
        net.run_until(until);
        return;
    }
    while net.now() < until {
        let events = net.events_executed();
        rec.begin("run.slice", Some(*slice));
        net.run_until((net.now() + SLICE).min(until));
        rec.end(net.events_executed() - events);
        *slice += 1;
    }
}

impl Fabric {
    fn execute(mut self, rec: &mut Recorder) -> Outcome {
        // Goodput is measured over the last 80 % of the horizon.
        let warm = Time::ZERO + self.horizon / 5;
        let end = Time::ZERO + self.horizon;
        rec.begin("run", None);
        let mut slice = 0;
        run_to(&mut self.net, warm, rec, &mut slice);
        let delivered_warm: u64 = self.net.delivered_snapshot().iter().sum();
        let allocs_warm = allocations();
        run_to(&mut self.net, end, rec, &mut slice);
        let allocs_steady = allocations() - allocs_warm;
        rec.end(self.net.events_executed());

        rec.begin("report.digest", None);
        let net = &self.net;
        let mut h = Fnv::new();
        let mut counts = Counts {
            events: net.events_executed(),
            allocs_steady,
            ..Counts::default()
        };
        let mut delivered = 0;
        for &fl in &self.flows {
            let st = net.flow_stats(fl);
            delivered += st.delivered_bytes;
            counts.retx_pkts += st.retx_pkts;
            counts.timeouts += st.timeouts;
            counts.nacks_sent += st.nacks_sent;
            counts.cnps_sent += st.cnps_sent;
            for v in [
                st.sent_pkts,
                st.sent_bytes,
                st.retx_pkts,
                st.delivered_bytes,
                st.delivered_pkts,
                st.marked_pkts,
                st.cnps_sent,
                st.cnps_received,
                st.nacks_sent,
                st.timeouts,
                u64::from(st.aborted),
                st.completions.len() as u64,
            ] {
                h.mix(v);
            }
            for c in &st.completions {
                h.mix(c.at.0);
            }
        }
        for &s in &self.switches {
            let st = net.switch_stats(s);
            counts.pkt_hops += st.forwarded;
            counts.ecn_marks += st.ecn_marks;
            counts.pause_tx += st.pause_tx;
            counts.drops += st.drops_pool + st.drops_lossy;
            for v in [
                st.pause_tx,
                st.resume_tx,
                st.pause_rx,
                st.drops_pool,
                st.drops_lossy,
                st.ecn_marks,
                st.forwarded,
                st.watchdog_trips,
                st.watchdog_restores,
            ] {
                h.mix(v);
            }
        }

        let mut fct_ps = Vec::new();
        let mut ops_attempted = 0;
        for &(fl, sent) in &self.finite {
            ops_attempted += sent;
            fct_ps.extend(
                net.flow_stats(fl)
                    .completions
                    .iter()
                    .map(|c| (c.at - c.started).0),
            );
        }
        let [fct_p50_us, fct_p99_us] = percentiles_us(&mut fct_ps);
        let window = (end - warm).as_secs_f64();
        let mut outcome = Outcome {
            digest: h.0,
            goodput_gbps: (delivered - delivered_warm) as f64 * 8.0 / window / 1e9,
            fct_p50_us,
            fct_p99_us,
            fct_samples: fct_ps.len() as u64,
            ops_attempted,
            ops_failed: ops_attempted - fct_ps.len() as u64,
            counts,
            artifact_bytes: 0,
            render_ms: [0.0; 3],
        };
        rec.end(0);

        if self.render {
            rec.begin("report.render", None);
            let renders: [&dyn Fn() -> String; 3] = [
                &|| net.telemetry_report().render(),
                &|| net.chrome_trace().render(),
                &|| net.dashboard("clos_dcqcn_observed").render(),
            ];
            for (render, ms) in renders.iter().zip(&mut outcome.render_ms) {
                let t0 = Instant::now();
                outcome.artifact_bytes += black_box(render()).len() as u64;
                *ms = t0.elapsed().as_secs_f64() * 1e3;
            }
            rec.end(0);
        }
        outcome
    }
}

/// Cases per `fct_*` sample of the chaos campaign.
const CHAOS_BATCH: usize = 10;

/// Executes the generated cases serially through
/// `experiments::chaos::execute`, one `run.case` span each.
///
/// `CaseReport` carries no per-message times, so `fct_*` here stands for
/// simulated time per completed message: one sample per
/// [`CHAOS_BATCH`] consecutive cases (Σ simulated time ÷ Σ completions),
/// percentiles over the samples. It rises when recovery completes fewer
/// messages. Goodput is Σ delivered bytes over Σ simulated case time.
fn chaos_campaign(cases: &[ChaosCase], rec: &mut Recorder) -> Outcome {
    rec.begin("run", None);
    let allocs = allocations();
    let mut h = Fnv::new();
    let mut counts = Counts::default();
    let (mut failed, mut delivered, mut sim_ps) = (0u64, 0u64, 0u64);
    let mut per_msg_ps = Vec::with_capacity(cases.len() / CHAOS_BATCH + 1);
    for (b, batch) in cases.chunks(CHAOS_BATCH).enumerate() {
        let (mut batch_ps, mut batch_msgs) = (0u64, 0u64);
        for (i, case) in batch.iter().enumerate() {
            rec.begin("run.case", Some((b * CHAOS_BATCH + i) as u32));
            let result = experiments::chaos::execute(case);
            rec.end(result.as_ref().map_or(0, |r| r.events));
            let Ok(r) = result else {
                failed += 1;
                h.mix(u64::MAX);
                continue;
            };
            failed += u64::from(!r.converged());
            // `run_case` runs to the later of the nominal duration and
            // the last fault, then through the settling window.
            let run_to = Time::from_micros(case.duration_us).max(case.plan().horizon());
            batch_ps += run_to.0 + case.settle_us * 1_000_000;
            batch_msgs += r.completions;
            delivered += r.delivered_bytes;
            counts.events += r.events;
            for v in [
                r.completions,
                r.teardowns,
                r.watchdog_trips,
                r.delivered_bytes,
                r.violations.len() as u64,
            ] {
                h.mix(v);
            }
        }
        sim_ps += batch_ps;
        per_msg_ps.extend(batch_ps.checked_div(batch_msgs));
    }
    counts.allocs_steady = allocations() - allocs;
    rec.end(counts.events);

    rec.begin("report.digest", None);
    let [fct_p50_us, fct_p99_us] = percentiles_us(&mut per_msg_ps);
    let outcome = Outcome {
        digest: h.0,
        goodput_gbps: delivered as f64 * 8.0 / Duration(sim_ps.max(1)).as_secs_f64() / 1e9,
        fct_p50_us,
        fct_p99_us,
        fct_samples: per_msg_ps.len() as u64,
        ops_attempted: cases.len() as u64,
        ops_failed: failed,
        counts,
        artifact_bytes: 0,
        render_ms: [0.0; 3],
    };
    rec.end(0);
    outcome
}
