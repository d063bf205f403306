//! Figure 1: TCP vs RDMA throughput, CPU utilization, and latency as a
//! function of message size — from the host-stack cost model (the
//! hardware measurement is substituted; see DESIGN.md).

use crate::report::Run;
use baselines::hostmodel::{
    latency_us, rdma_client_stack, rdma_send_stack, rdma_server_stack, tcp_stack, throughput,
    Machine, FIG1_SIZES,
};

/// Runs the experiment.
pub fn run(_run: &mut Run) {
    let m = Machine::paper_testbed();
    println!("(a,b) throughput and mean CPU utilization:");
    println!(
        "{:>10} | {:>9} {:>7} | {:>9} {:>10} {:>10}",
        "msg size", "TCP Gbps", "TCP cpu", "RDMA Gbps", "RDMA cl cpu", "RDMA sv cpu"
    );
    for &s in &FIG1_SIZES {
        let t = throughput(&tcp_stack(), &m, s);
        let rc = throughput(&rdma_client_stack(), &m, s);
        let rs = throughput(&rdma_server_stack(), &m, s);
        println!(
            "{:>9}K | {:>9.1} {:>6.1}% | {:>9.1} {:>9.2}% {:>9.2}%",
            s / 1024,
            t.gbps,
            t.cpu_percent,
            rc.gbps,
            rc.cpu_percent,
            rs.cpu_percent
        );
    }
    println!();
    println!("(c) user-level latency, 2 KB transfer (paper: 25.4 / 1.7 / 2.8 µs):");
    println!(
        "  TCP: {:.1} µs   RDMA read/write: {:.1} µs   RDMA send: {:.1} µs",
        latency_us(&tcp_stack(), &m, 2048),
        latency_us(&rdma_client_stack(), &m, 2048),
        latency_us(&rdma_send_stack(), &m, 2048)
    );
}
