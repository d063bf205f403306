//! Building your own topology and mixing congestion controls.
//!
//! A two-switch leaf pair with a 100 Gbps interconnect, four hosts, and
//! one DCQCN flow competing with one DCTCP flow across the interconnect —
//! demonstrating the `NetworkBuilder` API and the pluggable
//! `CongestionControl` trait.
//!
//! ```text
//! cargo run --release --example custom_topology
//! ```

use baselines::dctcp::{dctcp, DctcpParams};
use dcqcn::prelude::*;
use netsim::prelude::*;
use netsim::stats::SamplerConfig;

fn main() {
    let mut b = NetworkBuilder::new(7);
    // Hosts get the DCQCN host profile (NP enabled); the DCTCP flow's
    // receiver simply echoes marks on ACKs as well.
    let host_cfg = dcqcn_host_config(DcqcnParams::paper());
    let sw_cfg = SwitchConfig::paper_default().with_red(red_deployed());

    let s1 = b.switch(sw_cfg.clone());
    let s2 = b.switch(sw_cfg);
    let hosts: Vec<NodeId> = (0..4).map(|_| b.host(host_cfg)).collect();

    // 100G interconnect, 40G host links, 1 µs per hop.
    b.connect(s1, s2, Bandwidth::gbps(100), Duration::from_micros(1));
    for (i, &h) in hosts.iter().enumerate() {
        let sw = if i < 2 { s1 } else { s2 };
        b.connect(h, sw, Bandwidth::gbps(40), Duration::from_micros(1));
    }
    let mut net = b.build();

    // h0 -> h2 runs DCQCN; h1 -> h3 runs DCTCP. They share only the
    // (uncongested) interconnect; each is bottlenecked by its receiver.
    let f_dcqcn = net.add_flow(
        hosts[0],
        hosts[2],
        DATA_PRIORITY,
        dcqcn(DcqcnParams::paper()),
    );
    let f_dctcp = net.add_flow(
        hosts[1],
        hosts[3],
        DATA_PRIORITY,
        dctcp(DctcpParams::default_40g()),
    );
    net.send_message(f_dcqcn, u64::MAX, Time::ZERO);
    net.send_message(f_dctcp, u64::MAX, Time::ZERO);

    net.enable_sampling(Duration::from_millis(1), SamplerConfig::default());
    net.run_until(Time::from_millis(50));

    for (name, f) in [("DCQCN", f_dcqcn), ("DCTCP", f_dctcp)] {
        println!(
            "{name}: {:.2} Gbps over 50 ms",
            net.flow_stats(f).delivered_bytes as f64 * 8.0 / 0.05 / 1e9
        );
    }
    println!(
        "events executed: {} (deterministic for seed 7)",
        net.events_executed()
    );
}
