#![warn(missing_docs)]

//! # roce — a verbs-style RDMA API over the simulated fabric
//!
//! The paper's applications talk to the network through InfiniBand verbs:
//! queue pairs, posted work requests, completion queues. This crate puts
//! that familiar surface over `netsim`, so workloads written against a
//! verbs-shaped API can run on the simulated RoCEv2 fabric unchanged in
//! structure:
//!
//! * [`Rdma`] — the "device": owns the [`netsim::network::Network`],
//! * [`QpHandle`] — a reliable-connected queue pair between two hosts,
//! * [`Rdma::post_write`] / [`Rdma::post_read`] — single-sided operations
//!   (a READ is modelled as the responder streaming the bytes back, which
//!   is exactly what the wire does),
//! * [`Rdma::poll_cq`] — drain work completions.
//!
//! ```
//! use roce::{Rdma, RdmaConfig};
//! use netsim::prelude::*;
//! use netsim::topology::LinkParams;
//!
//! let mut rdma = Rdma::star(4, LinkParams::default(), RdmaConfig::default(), 7);
//! let (a, b) = (rdma.hosts()[0], rdma.hosts()[1]);
//! let qp = rdma.create_qp(a, b);
//! let wr1 = rdma.post_write(qp, 1_000_000, Time::ZERO);
//! let wr2 = rdma.post_write(qp, 4_000_000, Time::ZERO);
//! rdma.net.run_until(Time::from_millis(5));
//! let done = rdma.poll_cq(qp);
//! assert_eq!(done.len(), 2);
//! assert_eq!(done[0].wr_id, wr1);
//! assert_eq!(done[1].wr_id, wr2);
//! assert!(done[1].goodput_gbps() > 10.0);
//! ```

use dcqcn::params::DcqcnParams;
use dcqcn::rp::DcqcnRp;
use netsim::cc::{CongestionControl, NoCc};
use netsim::event::NodeId;
use netsim::host::HostConfig;
use netsim::network::Network;
use netsim::packet::{FlowId, Priority, DATA_PRIORITY};
use netsim::stats::Completion;
use netsim::switch::SwitchConfig;
use netsim::topology::{self, LinkParams};
use netsim::units::{Bandwidth, Time};
use std::collections::HashMap;

/// Which congestion control the device runs on its queue pairs.
#[derive(Debug, Clone, Copy)]
pub enum CcMode {
    /// DCQCN with the given parameters (the paper's deployment).
    Dcqcn(DcqcnParams),
    /// PFC only.
    None,
}

/// Device-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct RdmaConfig {
    /// Congestion control for all QPs.
    pub cc: CcMode,
    /// Traffic class of data packets.
    pub priority: Priority,
}

impl Default for RdmaConfig {
    /// DCQCN with the deployed parameters on the default data class.
    fn default() -> RdmaConfig {
        RdmaConfig {
            cc: CcMode::Dcqcn(DcqcnParams::paper()),
            priority: DATA_PRIORITY,
        }
    }
}

impl RdmaConfig {
    fn host_config(&self) -> HostConfig {
        match self.cc {
            CcMode::Dcqcn(p) => dcqcn::dcqcn_host_config(p),
            CcMode::None => HostConfig {
                cnp_interval: None,
                ..HostConfig::default()
            },
        }
    }

    fn switch_config(&self) -> SwitchConfig {
        match self.cc {
            CcMode::Dcqcn(_) => {
                SwitchConfig::paper_default().with_red(dcqcn::params::red_deployed())
            }
            CcMode::None => SwitchConfig::paper_default(),
        }
    }

    fn make_cc(&self, line: Bandwidth) -> Box<dyn CongestionControl> {
        match self.cc {
            CcMode::Dcqcn(p) => Box::new(DcqcnRp::new(line, p)),
            CcMode::None => Box::new(NoCc::new(line)),
        }
    }
}

/// Handle to a reliable-connected queue pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QpHandle(usize);

/// Completion status of a work request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WcStatus {
    /// Completed successfully.
    Success,
    /// The QP died (transport retry exhaustion) before completion.
    RetryExceeded,
}

/// A work completion, in posting order.
#[derive(Debug, Clone, Copy)]
pub struct WorkCompletion {
    /// The id returned by `post_*`.
    pub wr_id: u64,
    /// Transfer size in bytes.
    pub bytes: u64,
    /// When the operation was posted.
    pub posted: Time,
    /// When the last byte was acknowledged.
    pub completed: Time,
    /// Outcome.
    pub status: WcStatus,
}

impl WorkCompletion {
    /// End-to-end goodput of this operation in Gbps (includes queueing
    /// behind earlier work requests on the same QP): the simulator's
    /// [`Completion::goodput_gbps`], so a zero-duration operation reports
    /// 0.0 here too and can never poison a mean with an infinity.
    pub fn goodput_gbps(&self) -> f64 {
        let transfer = Completion {
            at: self.completed,
            started: self.posted,
            bytes: self.bytes,
        };
        transfer.goodput_gbps()
    }
}

#[derive(Debug)]
struct QpState {
    /// Initiator → responder flow (WRITE direction).
    tx_flow: FlowId,
    /// Responder → initiator flow (READ data direction), created lazily.
    rx_flow: Option<FlowId>,
    initiator: NodeId,
    responder: NodeId,
    /// Next work-request id.
    next_wr: u64,
    /// wr ids of posted tx-direction ops, in order.
    tx_wrs: Vec<(u64, Time)>,
    /// wr ids of posted rx-direction (READ) ops, in order.
    rx_wrs: Vec<(u64, Time)>,
    /// Completions already drained per direction.
    tx_polled: usize,
    rx_polled: usize,
}

/// The RDMA "device": a simulated fabric plus verbs bookkeeping.
pub struct Rdma {
    /// The underlying network (fully accessible for advanced use).
    pub net: Network,
    config: RdmaConfig,
    hosts: Vec<NodeId>,
    qps: Vec<QpState>,
    qp_by_flow: HashMap<FlowId, QpHandle>,
}

impl Rdma {
    /// Wraps an existing network.
    pub fn new(net: Network, hosts: Vec<NodeId>, config: RdmaConfig) -> Rdma {
        Rdma {
            net,
            config,
            hosts,
            qps: Vec::new(),
            qp_by_flow: HashMap::new(),
        }
    }

    /// Builds `n` hosts around a single switch (the quickest fabric).
    pub fn star(n: usize, link: LinkParams, config: RdmaConfig, seed: u64) -> Rdma {
        let star = topology::star(n, link, config.host_config(), config.switch_config(), seed);
        Rdma::new(star.net, star.hosts, config)
    }

    /// Builds the paper's Figure 2 Clos testbed with `hosts_per_tor`
    /// hosts per rack.
    pub fn clos(hosts_per_tor: usize, link: LinkParams, config: RdmaConfig, seed: u64) -> Rdma {
        let tb = topology::clos_testbed(
            hosts_per_tor,
            link,
            config.host_config(),
            config.switch_config(),
            seed,
        );
        let hosts = tb.hosts.into_iter().flatten().collect();
        Rdma::new(tb.net, hosts, config)
    }

    /// The fabric's hosts.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Creates a reliable-connected QP from `initiator` to `responder`.
    pub fn create_qp(&mut self, initiator: NodeId, responder: NodeId) -> QpHandle {
        assert_ne!(initiator, responder, "loopback QPs are not modelled");
        let cfg = self.config;
        let tx_flow = self
            .net
            .add_flow(initiator, responder, cfg.priority, |l| cfg.make_cc(l));
        let handle = QpHandle(self.qps.len());
        self.qps.push(QpState {
            tx_flow,
            rx_flow: None,
            initiator,
            responder,
            next_wr: 0,
            tx_wrs: Vec::new(),
            rx_wrs: Vec::new(),
            tx_polled: 0,
            rx_polled: 0,
        });
        self.qp_by_flow.insert(tx_flow, handle);
        handle
    }

    /// Posts an RDMA WRITE (or SEND) of `bytes` at time `at`. Returns the
    /// work-request id.
    pub fn post_write(&mut self, qp: QpHandle, bytes: u64, at: Time) -> u64 {
        let state = &mut self.qps[qp.0];
        let wr = state.next_wr;
        state.next_wr += 1;
        state.tx_wrs.push((wr, at.max(self.net.now())));
        let flow = state.tx_flow;
        self.net.send_message(flow, bytes, at);
        wr
    }

    /// Posts an RDMA READ of `bytes`: the responder's NIC streams the
    /// data back without CPU involvement. Returns the work-request id.
    pub fn post_read(&mut self, qp: QpHandle, bytes: u64, at: Time) -> u64 {
        let cfg = self.config;
        let (initiator, responder) = {
            let s = &self.qps[qp.0];
            (s.initiator, s.responder)
        };
        if self.qps[qp.0].rx_flow.is_none() {
            let f = self
                .net
                .add_flow(responder, initiator, cfg.priority, |l| cfg.make_cc(l));
            self.qps[qp.0].rx_flow = Some(f);
            self.qp_by_flow.insert(f, qp);
        }
        let state = &mut self.qps[qp.0];
        let wr = state.next_wr;
        state.next_wr += 1;
        state.rx_wrs.push((wr, at.max(self.net.now())));
        let flow = state.rx_flow.expect("created above");
        self.net.send_message(flow, bytes, at);
        wr
    }

    /// Drains new work completions for `qp`, in per-direction posting
    /// order (WRITEs first, then READs, as separate streams).
    pub fn poll_cq(&mut self, qp: QpHandle) -> Vec<WorkCompletion> {
        let mut out = Vec::new();
        let (tx_flow, rx_flow) = {
            let s = &self.qps[qp.0];
            (s.tx_flow, s.rx_flow)
        };
        // TX direction.
        let tx_stats = self.net.flow_stats(tx_flow);
        let tx_done = tx_stats.completions.len();
        let tx_aborted = tx_stats.aborted;
        let completions: Vec<(Time, u64)> = tx_stats
            .completions
            .iter()
            .map(|c| (c.at, c.bytes))
            .collect();
        {
            let state = &mut self.qps[qp.0];
            while state.tx_polled < tx_done {
                let (wr_id, posted) = state.tx_wrs[state.tx_polled];
                let (at, bytes) = completions[state.tx_polled];
                out.push(WorkCompletion {
                    wr_id,
                    bytes,
                    posted,
                    completed: at,
                    status: WcStatus::Success,
                });
                state.tx_polled += 1;
            }
            // Flush error completions for unfinished WRs on a dead QP.
            if tx_aborted {
                while state.tx_polled < state.tx_wrs.len() {
                    let (wr_id, posted) = state.tx_wrs[state.tx_polled];
                    out.push(WorkCompletion {
                        wr_id,
                        bytes: 0,
                        posted,
                        completed: self.net.now(),
                        status: WcStatus::RetryExceeded,
                    });
                    state.tx_polled += 1;
                }
            }
        }
        // RX (READ) direction.
        if let Some(rx) = rx_flow {
            let rx_stats = self.net.flow_stats(rx);
            let rx_done = rx_stats.completions.len();
            let rx_aborted = rx_stats.aborted;
            let completions: Vec<(Time, u64)> = rx_stats
                .completions
                .iter()
                .map(|c| (c.at, c.bytes))
                .collect();
            let state = &mut self.qps[qp.0];
            while state.rx_polled < rx_done {
                let (wr_id, posted) = state.rx_wrs[state.rx_polled];
                let (at, bytes) = completions[state.rx_polled];
                out.push(WorkCompletion {
                    wr_id,
                    bytes,
                    posted,
                    completed: at,
                    status: WcStatus::Success,
                });
                state.rx_polled += 1;
            }
            if rx_aborted {
                while state.rx_polled < state.rx_wrs.len() {
                    let (wr_id, posted) = state.rx_wrs[state.rx_polled];
                    out.push(WorkCompletion {
                        wr_id,
                        bytes: 0,
                        posted,
                        completed: self.net.now(),
                        status: WcStatus::RetryExceeded,
                    });
                    state.rx_polled += 1;
                }
            }
        }
        out.sort_by_key(|wc| wc.wr_id);
        out
    }

    /// The flow backing a QP's WRITE direction (for stats/sampling).
    pub fn tx_flow(&self, qp: QpHandle) -> FlowId {
        self.qps[qp.0].tx_flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Rdma {
        Rdma::star(4, LinkParams::default(), RdmaConfig::default(), 3)
    }

    #[test]
    fn write_completes_in_order() {
        let mut r = device();
        let (a, b) = (r.hosts()[0], r.hosts()[1]);
        let qp = r.create_qp(a, b);
        let w0 = r.post_write(qp, 100_000, Time::ZERO);
        let w1 = r.post_write(qp, 200_000, Time::ZERO);
        let w2 = r.post_write(qp, 50_000, Time::ZERO);
        r.net.run_until(Time::from_millis(2));
        let wcs = r.poll_cq(qp);
        assert_eq!(
            wcs.iter().map(|w| w.wr_id).collect::<Vec<_>>(),
            vec![w0, w1, w2]
        );
        assert_eq!(wcs[1].bytes, 200_000);
        assert!(wcs.iter().all(|w| w.status == WcStatus::Success));
        // Draining again yields nothing new.
        assert!(r.poll_cq(qp).is_empty());
    }

    #[test]
    fn read_streams_data_back() {
        let mut r = device();
        let (a, b) = (r.hosts()[0], r.hosts()[1]);
        let qp = r.create_qp(a, b);
        let rd = r.post_read(qp, 1_000_000, Time::ZERO);
        r.net.run_until(Time::from_millis(2));
        let wcs = r.poll_cq(qp);
        assert_eq!(wcs.len(), 1);
        assert_eq!(wcs[0].wr_id, rd);
        assert_eq!(wcs[0].bytes, 1_000_000);
        // The data flowed responder -> initiator.
        let rx = r.qps[qp.0].rx_flow.unwrap();
        assert_eq!(r.net.flow_stats(rx).delivered_bytes, 1_000_000);
    }

    #[test]
    fn mixed_reads_and_writes_share_the_qp() {
        let mut r = device();
        let (a, b) = (r.hosts()[0], r.hosts()[1]);
        let qp = r.create_qp(a, b);
        let w = r.post_write(qp, 300_000, Time::ZERO);
        let rd = r.post_read(qp, 300_000, Time::ZERO);
        r.net.run_until(Time::from_millis(2));
        let wcs = r.poll_cq(qp);
        assert_eq!(wcs.len(), 2);
        assert!(wcs.iter().any(|x| x.wr_id == w));
        assert!(wcs.iter().any(|x| x.wr_id == rd));
    }

    #[test]
    fn multiple_qps_between_hosts() {
        let mut r = device();
        let (a, b, c) = (r.hosts()[0], r.hosts()[1], r.hosts()[2]);
        let q1 = r.create_qp(a, c);
        let q2 = r.create_qp(b, c);
        r.post_write(q1, 500_000, Time::ZERO);
        r.post_write(q2, 500_000, Time::ZERO);
        r.net.run_until(Time::from_millis(2));
        assert_eq!(r.poll_cq(q1).len(), 1);
        assert_eq!(r.poll_cq(q2).len(), 1);
    }

    #[test]
    fn incremental_polling() {
        let mut r = device();
        let (a, b) = (r.hosts()[0], r.hosts()[1]);
        let qp = r.create_qp(a, b);
        r.post_write(qp, 100_000, Time::ZERO);
        r.post_write(qp, 100_000, Time::from_millis(3));
        r.net.run_until(Time::from_millis(1));
        assert_eq!(r.poll_cq(qp).len(), 1);
        r.net.run_until(Time::from_millis(5));
        assert_eq!(r.poll_cq(qp).len(), 1);
    }

    #[test]
    fn goodput_accounts_for_queueing() {
        let mut r = device();
        let (a, b) = (r.hosts()[0], r.hosts()[1]);
        let qp = r.create_qp(a, b);
        // Two 5 MB writes posted together: the second waits behind the
        // first, so its end-to-end goodput is roughly half.
        r.post_write(qp, 5_000_000, Time::ZERO);
        r.post_write(qp, 5_000_000, Time::ZERO);
        r.net.run_until(Time::from_millis(10));
        let wcs = r.poll_cq(qp);
        assert!(wcs[0].goodput_gbps() > 1.5 * wcs[1].goodput_gbps());
    }

    #[test]
    fn zero_length_write_completes_and_does_not_wedge_the_qp() {
        let mut r = device();
        let (a, b) = (r.hosts()[0], r.hosts()[1]);
        let qp = r.create_qp(a, b);
        let empty = r.post_write(qp, 0, Time::ZERO);
        let full = r.post_write(qp, 1_000_000, Time::ZERO);
        r.net.run_until(Time::from_millis(2));
        let wcs = r.poll_cq(qp);
        let seen: Vec<(u64, u64)> = wcs.iter().map(|w| (w.wr_id, w.bytes)).collect();
        assert_eq!(seen, vec![(empty, 0), (full, 1_000_000)], "posting order");
        assert!(wcs.iter().all(|w| w.status == WcStatus::Success));
        let mean = wcs.iter().map(|w| w.goodput_gbps()).sum::<f64>() / 2.0;
        assert!(mean.is_finite() && mean > 5.0, "mean goodput {mean}");
    }

    #[test]
    fn zero_duration_completion_reports_zero_goodput_not_infinity() {
        let wc = WorkCompletion {
            wr_id: 0,
            bytes: 4096,
            posted: Time::from_millis(1),
            completed: Time::from_millis(1),
            status: WcStatus::Success,
        };
        assert_eq!(wc.goodput_gbps(), 0.0);
    }

    #[test]
    fn clos_device_works() {
        let mut r = Rdma::clos(2, LinkParams::default(), RdmaConfig::default(), 5);
        let hosts: Vec<NodeId> = r.hosts().to_vec();
        let qp = r.create_qp(hosts[0], hosts[7]);
        r.post_write(qp, 2_000_000, Time::ZERO);
        r.net.run_until(Time::from_millis(3));
        assert_eq!(r.poll_cq(qp).len(), 1);
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_rejected() {
        let mut r = device();
        let a = r.hosts()[0];
        r.create_qp(a, a);
    }
}
