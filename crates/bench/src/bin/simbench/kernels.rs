//! The per-layer metrics of the traced run.
//!
//! A *kernel* is a loop, written here, around one layer's public
//! functions on deterministic synthetic input; its operation count is a
//! constant of the table below. The `engine.*` metrics and the simulated
//! `switch.*` / `host.*` counts instead come from the traced workload
//! run itself.

use crate::fabric_kernels::{host_loopback, switch_overload};
use crate::measure::{clock_overhead_ns, nearest_rank, Summary};
use crate::spans::Recorder;
use crate::workloads::{clos_dcqcn, Observers, Outcome};
use crate::Report;
use baselines::dctcp::{Dctcp, DctcpParams};
use dcqcn::np::NpState;
use dcqcn::params::{red_deployed, DcqcnParams};
use dcqcn::rp::{DcqcnRp, TIMER_RATE};
use experiments::common::CcChoice;
use experiments::scenarios::testbed;
use netsim::buffer::{BufferConfig, SharedBuffer};
use netsim::cc::{CcActions, CongestionControl};
use netsim::chaos::generate_case;
use netsim::event::{Event, EventQueue, NodeId};
use netsim::packet::{FlowId, Packet, DATA_PRIORITY};
use netsim::port::{Port, Queued};
use netsim::rng::SplitMix64;
use netsim::slab::PacketPool;
use netsim::telemetry::{Metrics, Timeline, TrackKind};
use netsim::topology::{fat_tree, LinkParams};
use netsim::units::{Bandwidth, Duration, Time};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;
use workloads::dist::SizeDist;
use workloads::traffic::{setup_user_traffic, UserTrafficConfig};

type Measured = Vec<(&'static str, f64)>;

/// One kernel: the span it runs under, its fixed operation count, and
/// the loop. `run(ops, clock_ns)` returns the metrics it measured.
pub struct Kernel {
    pub span: &'static str,
    pub ops: u64,
    pub run: fn(u64, f64) -> Measured,
}

pub const KERNELS: [Kernel; 16] = [
    Kernel {
        span: "kernel.event.churn_small",
        ops: 4_000_000,
        run: |n, _| churn("event.churn_small_ns", n, 1_000, small_offset),
    },
    Kernel {
        span: "kernel.event.churn_large",
        ops: 2_000_000,
        run: |n, _| churn("event.churn_large_ns", n, 65_536, large_offset),
    },
    Kernel {
        span: "kernel.event.batch",
        ops: 4_000_000,
        run: |n, _| event_batch(n),
    },
    Kernel {
        span: "kernel.switch",
        ops: 1_000_000,
        run: switch_overload,
    },
    Kernel {
        span: "kernel.buffer",
        ops: 20_000_000,
        run: |n, _| buffer_admit_release(n),
    },
    Kernel {
        span: "kernel.port",
        ops: 10_000_000,
        run: |n, _| port_enq_deq(n),
    },
    Kernel {
        span: "kernel.ecn",
        ops: 20_000_000,
        run: |n, _| ecn_should_mark(n),
    },
    Kernel {
        span: "kernel.host",
        ops: 1_000_000,
        run: host_loopback,
    },
    Kernel {
        span: "kernel.cc",
        ops: 10_000_000,
        run: |n, _| congestion_control(n),
    },
    Kernel {
        span: "kernel.telemetry",
        ops: 20_000_000,
        run: |n, _| telemetry_hot(n),
    },
    Kernel {
        span: "kernel.observers",
        ops: 25_000,
        run: |n, _| observers(n),
    },
    Kernel {
        span: "kernel.fabric_k8",
        ops: 5,
        run: |n, _| fabric_k8(n),
    },
    Kernel {
        span: "kernel.chaos",
        ops: 300,
        run: |n, _| chaos(n),
    },
    Kernel {
        span: "kernel.workloads.size",
        ops: 10_000_000,
        run: |n, _| size_sample(n),
    },
    Kernel {
        span: "kernel.workloads.setup",
        ops: 9,
        run: |n, _| user_traffic_setup(n),
    },
    Kernel {
        span: "kernel.slab",
        ops: 20_000_000,
        run: |n, _| slab_insert_take(n),
    },
];

/// Runs every kernel under its own span and emits what it measured.
/// `shrink` divides the operation counts; the benchmark passes 1, the
/// tests a large number.
pub fn run_all(rec: &mut Recorder, report: &mut Report, shrink: u64) {
    let clock_ns = clock_overhead_ns();
    println!("info clock_overhead_ns {clock_ns}");
    rec.begin("kernels", None);
    for k in &KERNELS {
        let ops = (k.ops / shrink).max(1);
        rec.begin(k.span, None);
        let measured = (k.run)(ops, clock_ns);
        rec.end(ops);
        for (name, value) in measured {
            report.emit(name, value, &format!("  ({ops} ops)"));
        }
    }
    rec.end(0);
}

/// The `engine.*` metrics and the simulated per-layer counts, read off
/// the traced repetition's `run` and `run.slice` / `run.case` spans.
pub fn engine_metrics(rec: &Recorder, outcome: &Outcome, report: &mut Report) {
    let c = &outcome.counts;
    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
    let run_ns = rec.durations_ms("run")[0] * 1e6;
    let mut slices = rec.durations_ms("run.slice");
    slices.extend(rec.durations_ms("run.case"));
    slices.sort_by(f64::total_cmp);
    for (name, value) in [
        ("engine.events", c.events as f64),
        ("engine.pkt_hops", c.pkt_hops as f64),
        ("engine.events_per_hop", per(c.events as f64, c.pkt_hops)),
        ("engine.ns_per_event", per(run_ns, c.events)),
        ("engine.ns_per_hop", per(run_ns, c.pkt_hops)),
        ("engine.slice_ms_p50", nearest_rank(&slices, 50.0)),
        ("engine.slice_ms_p99", nearest_rank(&slices, 99.0)),
        ("engine.allocs_steady", c.allocs_steady as f64),
        ("switch.forwarded", c.pkt_hops as f64),
        ("switch.ecn_marks", c.ecn_marks as f64),
        ("switch.pause_tx", c.pause_tx as f64),
        ("switch.drops", c.drops as f64),
        ("host.retx_pkts", c.retx_pkts as f64),
        ("host.timeouts", c.timeouts as f64),
        ("host.nacks_sent", c.nacks_sent as f64),
        ("host.cnps_sent", c.cnps_sent as f64),
    ] {
        report.emit(name, value, "");
    }
}

/// Mean ns per call of `op` over `ops` calls, one bracket around the loop.
fn ns_per_op(ops: u64, mut op: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..ops {
        op(i);
    }
    t0.elapsed().as_nanos() as f64 / ops as f64
}

/// Median ms of `reps` timed calls of `op`.
fn median_ms(reps: u64, mut op: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            op();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    Summary::of(&samples).median
}

/// 0.3–2 µs ahead: serialization and propagation times on the Clos.
fn small_offset(draw: u64) -> Duration {
    Duration(300_000 + draw % 1_700_000)
}

/// Up to 500 µs ahead, every 16th past the wheel's ~537 µs horizon (into
/// the overflow heap): timers on a large fabric.
fn large_offset(draw: u64) -> Duration {
    match draw % 16 {
        0 => Duration(600_000_000 + draw % 400_000_000),
        _ => Duration(draw % 500_000_000),
    }
}

/// Steady-state churn: with `pending` events standing, pop one and
/// schedule one `offset` ahead, `ops` times.
fn churn(metric: &'static str, ops: u64, pending: usize, offset: fn(u64) -> Duration) -> Measured {
    let mut q = EventQueue::new();
    let mut rng = SplitMix64::new(7);
    for id in 0..pending {
        q.schedule(Time::ZERO + offset(rng.next_u64()), Event::Hook { id });
    }
    let ns = ns_per_op(ops, |i| {
        let (t, event) = q.pop().expect("the standing population never drains");
        black_box(event);
        q.schedule(t + offset(rng.next_u64()), Event::Hook { id: i as usize });
    });
    vec![(metric, ns)]
}

/// Same-timestamp cohorts of 8, scheduled 512 cohorts at a time and
/// drained with `pop_batch`: ns per event through schedule + batch pop.
fn event_batch(ops: u64) -> Measured {
    const COHORT: u64 = 8;
    const ROUND: u64 = 512 * COHORT;
    let mut q = EventQueue::new();
    let mut batch = Vec::new();
    let mut drained = 0u64;
    let rounds = (ops / ROUND).max(1);
    let ns = ns_per_op(rounds, |_| {
        for i in 0..ROUND {
            let at = q.now() + Duration::from_nanos(200) * (1 + i / COHORT);
            q.schedule(at, Event::Hook { id: i as usize });
        }
        while q.pop_batch(Time::NEVER, &mut batch).is_some() {
            drained += batch.len() as u64;
            batch.clear();
        }
    }) / ROUND as f64;
    assert_eq!(drained, rounds * ROUND);
    vec![("event.batch_ns", ns)]
}

fn buffer_admit_release(ops: u64) -> Measured {
    let mut buf = SharedBuffer::new(BufferConfig::trident2());
    let ports = buf.config().num_ports as u64;
    let ns = ns_per_op(ops, |i| {
        let port = (i % ports) as usize;
        black_box(buf.admit(port, DATA_PRIORITY as usize, 1086));
        black_box(buf.should_pause(port, DATA_PRIORITY as usize));
        buf.release(port, DATA_PRIORITY as usize, 1086);
    });
    vec![("buffer.admit_release_ns", ns)]
}

/// Enqueue one packet and transmit one (dequeue, finish) with 16 queued.
fn port_enq_deq(ops: u64) -> Measured {
    let pkt = |psn| Packet::data(NodeId(0), NodeId(1), FlowId(0), DATA_PRIORITY, psn, 1024);
    let mut port = Port::new();
    for psn in 0..16 {
        port.enqueue(Queued::new(pkt(psn), None));
    }
    let ns = ns_per_op(ops, |i| {
        port.enqueue(Queued::new(pkt(i), None));
        port.current = port.dequeue_next();
        black_box(port.finish_current());
    });
    vec![("port.enq_deq_ns", ns)]
}

fn ecn_should_mark(ops: u64) -> Measured {
    let red = red_deployed();
    let mut rng = SplitMix64::new(3);
    let mut q = 0u64;
    let ns = ns_per_op(ops, |_| {
        q = (q + 1500) % 250_000;
        black_box(red.should_mark(q, &mut rng));
    });
    vec![("ecn.should_mark_ns", ns)]
}

/// RP and NP state machines and DCTCP's ACK path, `ops` calls each.
fn congestion_control(ops: u64) -> Measured {
    let line = Bandwidth::gbps(40);
    let mut actions = CcActions::default();
    let limited = || {
        let mut rp = DcqcnRp::new(line, DcqcnParams::paper());
        rp.on_cnp(Time::ZERO, &mut CcActions::default());
        rp
    };

    let mut rp = limited();
    let mut now = Time::ZERO;
    let on_cnp = ns_per_op(ops, |_| {
        actions.clear();
        now += Duration::from_micros(50);
        rp.on_cnp(now, &mut actions);
        black_box(rp.rate());
    });

    let (mut rp, mut now) = (limited(), Time::ZERO);
    let on_timer = ns_per_op(ops, |_| {
        actions.clear();
        now += Duration::from_micros(55);
        rp.on_timer(now, TIMER_RATE, &mut actions);
        // Recovery ends at line rate; cut again so the path stays hot.
        if !rp.is_limited() {
            rp.on_cnp(now, &mut actions);
        }
        black_box(rp.rate());
    });

    let mut rp = limited();
    let on_send = ns_per_op(ops, |_| {
        actions.clear();
        rp.on_send(Time::ZERO, 1500, &mut actions);
        black_box(rp.rate());
    });

    let mut np = NpState::paper();
    let np_on_packet = ns_per_op(ops, |i| {
        black_box(np.on_packet(Time::from_nanos(i * 300), i % 8 == 0));
    });

    let mut dctcp = Dctcp::new(line, DctcpParams::default_40g());
    let on_ack = ns_per_op(ops, |i| {
        actions.clear();
        dctcp.on_ack(Time::ZERO, 3000, 2, (i % 2) as u32, None, &mut actions);
        black_box(dctcp.cwnd_bytes());
    });

    vec![
        ("dcqcn.rp_on_cnp_ns", on_cnp),
        ("dcqcn.rp_on_timer_ns", on_timer),
        ("dcqcn.rp_on_send_ns", on_send),
        ("dcqcn.np_on_packet_ns", np_on_packet),
        ("dctcp.on_ack_ns", on_ack),
    ]
}

/// The two telemetry calls that sit on the simulator's hot path.
fn telemetry_hot(ops: u64) -> Measured {
    let mut metrics = Metrics::standard();
    let counter_inc = ns_per_op(ops, |_| {
        let m = black_box(&mut metrics);
        m.inc(m.h.forwarded);
    });
    let mut track = Timeline::new(TrackKind::Gauge, 1.0);
    let record = ns_per_op(ops, |i| track.record(Time::from_nanos(i * 100), i % 4096));
    black_box(track.count());
    vec![
        ("telemetry.counter_inc_ns", counter_inc),
        ("telemetry.timeline_record_ns", record),
    ]
}

/// The observer tax: `clos_dcqcn_mixed` for `horizon_us` with no
/// observer, each observer alone, and all of them (which also renders
/// the three artifacts). Every configuration runs twice, interleaved;
/// the faster run counts.
fn observers(horizon_us: u64) -> Measured {
    let one = |sampling, spans, recorder, tracer| Observers {
        sampling,
        spans,
        recorder,
        tracer,
    };
    let configs = [
        Observers::NONE,
        one(true, false, false, false),
        one(false, true, false, false),
        one(false, false, true, false),
        one(false, false, false, true),
        Observers::ALL,
    ];
    let mut wall = [f64::INFINITY; 6];
    let mut render_ms = [f64::INFINITY; 3];
    for _ in 0..2 {
        for (on, best) in configs.iter().zip(&mut wall) {
            let mut off = Recorder::new(false);
            let prepared = clos_dcqcn(1, Duration::from_micros(horizon_us), *on, &mut off);
            let t0 = Instant::now();
            let outcome = prepared.execute(&mut off);
            *best = best.min(t0.elapsed().as_secs_f64());
            if *on == Observers::ALL {
                for (best, ms) in render_ms.iter_mut().zip(outcome.render_ms) {
                    *best = best.min(ms);
                }
            }
        }
    }
    let tax = |i: usize| (wall[i] - wall[0]) / wall[0] * 100.0;
    vec![
        ("telemetry.tax_sampling_pct", tax(1)),
        ("telemetry.tax_spans_pct", tax(2)),
        ("telemetry.tax_recorder_pct", tax(3)),
        ("telemetry.tax_tracer_pct", tax(4)),
        ("telemetry.report_render_ms", render_ms[0]),
        ("telemetry.chrome_trace_ms", render_ms[1]),
        ("telemetry.dashboard_ms", render_ms[2]),
    ]
}

/// k=8 fat tree: build it, recompute every route, flap one edge–agg
/// link (down + up, each repairing routes). Median of `reps`.
fn fabric_k8(reps: u64) -> Measured {
    let cc = CcChoice::dcqcn_paper();
    let build = || {
        fat_tree(
            8,
            LinkParams::default(),
            cc.host_config(),
            cc.switch_config(true, false),
            1,
        )
    };
    let build_ms = median_ms(reps, || drop(black_box(build())));
    let mut ft = build();
    let recompute_ms = median_ms(reps, || ft.net.recompute_routes());
    let link = ft
        .net
        .link_between(ft.edges[0], ft.aggs[0])
        .expect("edge 0 and agg 0 share a pod");
    let flap_ms = median_ms(reps, || {
        ft.net.set_link_state(link, false);
        ft.net.set_link_state(link, true);
    });
    vec![
        ("topology.build_k8_ms", build_ms),
        ("routing.recompute_k8_ms", recompute_ms),
        ("faults.link_flap_k8_ms", flap_ms),
    ]
}

/// Chaos cases 0..`cases` of campaign seed 1: generation cost, and the
/// execution time of each case (median of 3 passes), percentiles over
/// cases.
fn chaos(cases: u64) -> Measured {
    let generate_us = ns_per_op(cases, |i| drop(black_box(generate_case(1, i, false)))) / 1e3;
    let specs: Vec<_> = (0..cases).map(|i| generate_case(1, i, false)).collect();
    let mut passes = vec![Vec::new(); specs.len()];
    for _ in 0..3 {
        for (case, samples) in specs.iter().zip(&mut passes) {
            let t0 = Instant::now();
            let report = experiments::chaos::execute(case).expect("generated cases are valid");
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
            assert!(report.converged(), "case {:#x} did not converge", case.seed);
        }
    }
    let mut case_us: Vec<f64> = passes.iter().map(|s| Summary::of(s).median).collect();
    case_us.sort_by(f64::total_cmp);
    vec![
        ("chaos.generate_case_us", generate_us),
        ("chaos.case_us_p50", nearest_rank(&case_us, 50.0)),
        ("chaos.case_us_p99", nearest_rank(&case_us, 99.0)),
    ]
}

fn size_sample(ops: u64) -> Measured {
    let sizes = SizeDist::default();
    let mut rng = SplitMix64::new(5);
    let ns = ns_per_op(ops, |_| {
        black_box(sizes.sample(&mut rng));
    });
    vec![("workloads.size_sample_ns", ns)]
}

/// `setup_user_traffic` for 20 pairs over 200 ms on a fresh Fig. 2
/// testbed (the build is not timed). Median of `reps`.
fn user_traffic_setup(reps: u64) -> Measured {
    let cc = CcChoice::dcqcn_paper();
    let f = cc.factory();
    let config = UserTrafficConfig::benchmark(20, Duration::from_millis(200));
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let mut tb = testbed(cc, true, false, 5, 1);
            let hosts: Vec<NodeId> = tb.hosts.iter().flatten().copied().collect();
            let t0 = Instant::now();
            black_box(setup_user_traffic(&mut tb.net, &hosts, &config, &f, 3));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    vec![(
        "workloads.user_traffic_setup_ms",
        Summary::of(&samples).median,
    )]
}

/// Park one packet and take the oldest back, with 64 in flight.
fn slab_insert_take(ops: u64) -> Measured {
    let pkt = Packet::data(NodeId(0), NodeId(1), FlowId(0), DATA_PRIORITY, 0, 1024);
    let mut pool = PacketPool::new();
    let mut in_flight: VecDeque<_> = (0..64).map(|_| pool.insert(pkt)).collect();
    let ns = ns_per_op(ops, |_| {
        in_flight.push_back(pool.insert(pkt));
        let oldest = in_flight.pop_front().expect("64 stay in flight");
        black_box(pool.take(oldest));
    });
    vec![("slab.insert_take_ns", ns)]
}
