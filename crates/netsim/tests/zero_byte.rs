//! A zero-byte message is ordinary traffic (an InfiniBand zero-length
//! write): one header-only `eom` packet that completes on its ACK. It
//! used to sit at the front of its flow's queue forever, wedging every
//! message behind it.

use netsim::cc::NoCc;
use netsim::host::HostConfig;
use netsim::packet::{FlowId, DATA_PRIORITY};
use netsim::switch::SwitchConfig;
use netsim::topology::{star, LinkParams, Star};
use netsim::units::Time;

fn star_with_flow() -> (Star, FlowId) {
    let mut s = star(
        3,
        LinkParams::default(),
        HostConfig {
            cnp_interval: None,
            ..HostConfig::default()
        },
        SwitchConfig::paper_default(),
        1,
    );
    let f = s.net.add_flow(s.hosts[0], s.hosts[2], DATA_PRIORITY, |l| {
        Box::new(NoCc::new(l))
    });
    (s, f)
}

#[test]
fn zero_byte_message_is_one_packet_and_one_completion() {
    let (mut s, f) = star_with_flow();
    s.net.send_message(f, 0, Time::ZERO);
    s.net.run_until(Time::from_millis(5));
    let st = s.net.flow_stats(f);
    assert_eq!(st.sent_pkts, 1);
    assert_eq!(st.delivered_pkts, 1);
    assert_eq!(st.delivered_bytes, 0);
    assert_eq!(st.completions.len(), 1);
    assert_eq!(st.completions[0].bytes, 0);
    assert!(st.completions[0].has_duration(), "it waits for its ACK");
}

#[test]
fn zero_byte_message_does_not_wedge_the_message_behind_it() {
    let (mut s, f) = star_with_flow();
    s.net.send_message(f, 0, Time::ZERO);
    s.net.send_message(f, 1_000_000, Time::ZERO);
    s.net.run_until(Time::from_millis(5));
    let st = s.net.flow_stats(f);
    let sizes: Vec<u64> = st.completions.iter().map(|c| c.bytes).collect();
    assert_eq!(sizes, vec![0, 1_000_000], "both complete, in order");
    assert_eq!(st.delivered_bytes, 1_000_000);
    assert_eq!((st.retx_pkts, st.timeouts), (0, 0));
}
