//! Fault-injection experiments: what the paper's fabric does when things
//! break. Neither figure exists in the paper — §6.3's PFC storm anecdote
//! and the deployment experience in §7 motivate both.

use crate::common::CcChoice;
use crate::report::Run;
use crate::runner::par_map;
use crate::scenarios::{link_flap_run, pause_storm_victim_run};
use netsim::switch::PfcWatchdogConfig;
use netsim::telemetry::Json;
use netsim::units::{Duration, Time};

/// `ext-linkflap`: a T1–L1 fabric link flaps mid-run under eight greedy
/// inter-pod flows. With route failover the aggregate goodput dips for
/// about one RTO and recovers on the surviving ECMP member; without it,
/// the flows hashed onto the dead next-hop back off exponentially and
/// abort, permanently losing their share.
pub fn link_flap(run: &mut Run) {
    let scale = run.scale();
    let duration = scale.dur(16, 24);
    let down_at = Time::from_millis(4);
    let up_at = Time::ZERO + duration - Duration::from_millis(6);
    let variants = [("failover", true), ("static routes", false)];
    let results = par_map(run.threads, &variants, |&(_, failover)| {
        link_flap_run(CcChoice::None, failover, 7, down_at, up_at, duration)
    });
    let nbins = results[0].bins.len();
    println!(
        "aggregate goodput (Gbps) per 1 ms bin; link down at 4 ms, up at {} ms",
        (up_at - Time::ZERO).as_secs_f64() * 1e3
    );
    print!("{:<14} |", "ms");
    for i in 0..nbins {
        print!(" {i:>5}");
    }
    println!();
    for ((label, _), r) in variants.iter().zip(&results) {
        print!("{label:<14} |");
        for b in &r.bins {
            print!(" {b:>5.1}");
        }
        println!();
    }
    for ((label, _), r) in variants.iter().zip(&results) {
        println!(
            "{label:<14} | aborts {:>2}  reroutes {:>2}  wire drops {:>6}",
            r.aborts, r.reroutes, r.link_drops
        );
    }
    // The headline claims, checked against the telemetry counters (the
    // counters the scenario now reads directly, not the packet trace):
    // the flap really dropped frames in both variants, failover kept
    // every QP alive, and static routing tore down the stranded ones.
    assert!(
        results.iter().all(|r| r.link_drops > 0),
        "telemetry fault_drops: the down window must drop traffic"
    );
    assert_eq!(
        results[0].aborts, 0,
        "telemetry qp_teardowns: failover must keep QPs alive"
    );
    assert!(
        results[1].aborts > 0,
        "telemetry qp_teardowns: static routes must strand QPs"
    );
    run.put(
        "variants",
        Json::Arr(
            variants
                .iter()
                .zip(results)
                .map(|(&(label, failover), r)| {
                    Json::obj(vec![
                        ("label", Json::from(label)),
                        ("failover", Json::from(failover)),
                        ("goodput_gbps_per_ms", Json::from(r.bins)),
                        ("aborts", Json::from(r.aborts)),
                        ("reroutes", Json::from(r.reroutes)),
                        ("link_drops", Json::from(r.link_drops)),
                        ("telemetry", r.telemetry),
                    ])
                })
                .collect::<Vec<_>>(),
        ),
    );
    println!("failover converges onto T1's surviving uplink and recovers the full");
    println!("aggregate; static routing strands the flows hashed onto the dead");
    println!("next-hop until their QPs tear down.");
}

/// `ext-pausestorm`: a malfunctioning NIC pause-storms its access link
/// (the §6.3/§7 failure mode). The storm freezes its ToR's egress port,
/// and PFC backpressure spreads hop by hop until a victim flow two pods
/// away stalls — unless a storm watchdog breaks the chain at its root.
pub fn pause_storm(run: &mut Run) {
    let scale = run.scale();
    let duration = scale.dur(12, 20);
    let storm_from = Time::from_millis(2);
    let storm_until = Time::ZERO + duration - Duration::from_millis(4);
    let wd = PfcWatchdogConfig {
        threshold: Duration::from_micros(200),
        recovery: Duration::from_micros(800),
    };
    let grid: Vec<(&str, CcChoice, Option<PfcWatchdogConfig>)> = vec![
        ("PFC only", CcChoice::None, None),
        ("PFC+watchdog", CcChoice::None, Some(wd)),
        ("DCQCN", CcChoice::dcqcn_paper(), None),
        ("DCQCN+watchdog", CcChoice::dcqcn_paper(), Some(wd)),
    ];
    let results = par_map(run.threads, &grid, |&(_, cc, watchdog)| {
        pause_storm_victim_run(cc, watchdog, 11, storm_from, storm_until, duration)
    });
    println!(
        "{:<15} | {:>12} {:>11} | {:>10} {:>6} {:>8}",
        "scheme", "storm (Gbps)", "after", "spine PAUSE", "trips", "restores"
    );
    for ((label, _, _), r) in grid.iter().zip(&results) {
        println!(
            "{:<15} | {:>12.2} {:>11.2} | {:>10} {:>6} {:>8}",
            label,
            r.victim_storm_gbps,
            r.victim_after_gbps,
            r.spine_pause_rx,
            r.watchdog_trips,
            r.watchdog_restores
        );
    }
    // Checked against the telemetry's watchdog counters: every
    // watchdog-equipped variant trips (and later restores), and no
    // watchdog-less variant can.
    for ((label, _, watchdog), r) in grid.iter().zip(&results) {
        if watchdog.is_some() {
            assert!(
                r.watchdog_trips > 0,
                "telemetry watchdog_trips: {label} must trip under the storm"
            );
            assert!(
                r.watchdog_restores > 0,
                "telemetry watchdog_restores: {label} must recover"
            );
        } else {
            assert_eq!(
                r.watchdog_trips, 0,
                "telemetry watchdog_trips: {label} has no watchdog"
            );
        }
    }
    run.put(
        "variants",
        Json::Arr(
            grid.iter()
                .zip(results)
                .map(|((label, _, watchdog), r)| {
                    Json::obj(vec![
                        ("label", Json::from(*label)),
                        ("watchdog", Json::from(watchdog.is_some())),
                        ("victim_storm_gbps", Json::from(r.victim_storm_gbps)),
                        ("victim_after_gbps", Json::from(r.victim_after_gbps)),
                        ("spine_pause_rx", Json::from(r.spine_pause_rx)),
                        ("watchdog_trips", Json::from(r.watchdog_trips)),
                        ("watchdog_restores", Json::from(r.watchdog_restores)),
                        ("telemetry", r.telemetry),
                    ])
                })
                .collect::<Vec<_>>(),
        ),
    );
    println!("the storm's backpressure creeps from the frozen ToR port to the");
    println!("victim's uplinks — and because a dead NIC never sends RESUME, no");
    println!("watchdog means no recovery: the victim stays at zero even after");
    println!("the storm ends. DCQCN's ECN loop drains the senders and softens");
    println!("the collapse while the storm runs, but only the watchdog breaks");
    println!("the chain at its root and keeps service alive.");
}
