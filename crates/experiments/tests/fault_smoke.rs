//! Sanitized fault-injection smoke run: a full Clos run with a mid-run
//! link flap, bit errors, and a pause storm must finish with zero audit
//! violations — fault-induced drops are the fault engine's, never a
//! switch drop, PFC pairing state is reset on link transitions, and storm
//! PAUSEs bypass the pairing audit by construction.
#![cfg(feature = "sanitize")]

use experiments::common::CcChoice;
use experiments::scenarios::testbed;
use netsim::packet::{FlowId, DATA_PRIORITY};
use netsim::prelude::{FaultConfig, FaultPlan};
use netsim::switch::PfcWatchdogConfig;
use netsim::units::{Duration, Time};

/// Every fault class at once, under the auditor. The flapped link is a
/// fabric link (T1–L1) so no destination ever becomes unroutable — the
/// fault engine counts the wire drops and the auditor sees no
/// lossless-class violation.
#[test]
fn faulted_clos_run_is_clean_under_auditor() {
    assert!(netsim::audit::Auditor::enabled());
    let cc = CcChoice::dcqcn_paper();
    let mut tb = testbed(cc, true, false, 3, 42);
    for s in tb.tors.iter().chain(&tb.leaves).chain(&tb.spines) {
        tb.net.switch_mut(*s).config.watchdog = Some(PfcWatchdogConfig {
            threshold: Duration::from_micros(200),
            recovery: Duration::from_micros(800),
        });
    }
    let f = cc.factory();
    let flows: Vec<FlowId> = (0..6)
        .map(|i| {
            let fl = tb.net.add_flow(
                tb.hosts[i % 3][i / 3],
                tb.hosts[3][i % 3],
                DATA_PRIORITY,
                &f,
            );
            tb.net.send_message(fl, u64::MAX, Time::ZERO);
            fl
        })
        .collect();

    let t1_l1 = tb.net.link_between(tb.tors[0], tb.leaves[0]).unwrap();
    let l3_s1 = tb.net.link_between(tb.leaves[2], tb.spines[0]).unwrap();
    let plan = FaultPlan::new()
        .link_flap(
            t1_l1,
            Time::from_millis(2),
            Duration::from_millis(3),
            Duration::from_millis(4),
            1,
        )
        .bit_error(Time::from_millis(1), l3_s1, 0.001)
        .pause_storm(
            tb.hosts[3][0],
            DATA_PRIORITY,
            Time::from_millis(4),
            Time::from_millis(7),
            Duration::from_micros(20),
        );
    tb.net.install_faults(&plan, FaultConfig::default());
    tb.net.run_until(Time::from_millis(12));

    // The faults all actually fired…
    let fs = tb.net.fault_stats();
    assert_eq!(fs.transitions, 2, "flap went down and came back");
    assert!(fs.reroutes >= 2, "failover recomputed routes");
    assert!(fs.link_drops > 0, "the down window dropped traffic");
    assert!(fs.crc_drops > 0, "the noisy link corrupted frames");
    assert!(fs.storm_pauses > 50, "the storm kept refreshing");
    // …the fabric degraded gracefully…
    for &fl in &flows {
        assert!(tb.net.flow_stats(fl).delivered_bytes > 0);
        assert!(!tb.net.flow_stats(fl).aborted, "failover kept QPs alive");
    }
    assert!(tb.net.events_executed() > 100_000, "full-scale run");
    // …and the auditor saw zero violations.
    tb.net.audit().assert_clean();
}
