#![warn(missing_docs)]

//! # netsim — a deterministic packet-level datacenter fabric simulator
//!
//! The substrate for the DCQCN reproduction (Zhu et al., SIGCOMM 2015):
//! a discrete-event simulator modelling exactly the machinery the paper's
//! hardware testbed provides.
//!
//! * **links**: full-duplex, store-and-forward, exact integer serialization
//!   timing (picosecond clock),
//! * **switches**: shared-buffer (Trident II-style) with per-ingress PFC
//!   accounting, static/dynamic (β) PAUSE thresholds, RED/ECN marking on
//!   instantaneous egress queues, strict-priority scheduling, and ECMP,
//! * **hosts**: NICs with per-flow hardware-style rate limiters, a RoCE-like
//!   go-back-N reliable transport, the DCQCN notification point (CNP
//!   generation), and pluggable per-flow congestion control via the
//!   [`cc::CongestionControl`] trait,
//! * **measurement**: per-flow goodput counters, queue-depth samplers,
//!   PAUSE/drop/mark counters.
//!
//! Runs are fully deterministic: a run is a function of the topology, the
//! workload and a single seed. The core is synchronous and single-threaded
//! by design — congestion-control research needs reproducibility first.
//!
//! ## Quick example
//!
//! ```
//! use netsim::prelude::*;
//!
//! // Two hosts through one switch, one greedy flow, no congestion control.
//! let mut star = netsim::topology::star(
//!     2,
//!     netsim::topology::LinkParams::default(),
//!     HostConfig::default(),
//!     SwitchConfig::paper_default(),
//!     42,
//! );
//! let flow = star.net.add_flow(star.hosts[0], star.hosts[1], DATA_PRIORITY, |line| {
//!     Box::new(NoCc::new(line))
//! });
//! star.net.send_message(flow, u64::MAX, Time::ZERO);
//! star.net.run_until(Time::from_millis(2));
//! let gbps = star.net.flow_stats(flow).delivered_bytes as f64 * 8.0 / 2e-3 / 1e9;
//! assert!(gbps > 35.0, "goodput {gbps:.1} Gbps");
//! ```

pub mod audit;
pub mod buffer;
pub mod cc;
pub mod chaos;
pub mod ecn;
pub mod event;
pub mod faults;
pub mod host;
pub mod network;
pub mod packet;
pub mod port;
pub mod rng;
pub mod routing;
pub mod slab;
pub mod stats;
pub mod switch;
pub mod telemetry;
pub mod topology;
pub mod trace;
pub mod units;

/// The common imports experiments need.
pub mod prelude {
    pub use crate::buffer::{BufferConfig, PfcThreshold};
    pub use crate::cc::{CcActions, CongestionControl, NoCc};
    pub use crate::ecn::RedConfig;
    pub use crate::event::{LinkId, NodeId, PortId};
    pub use crate::faults::{FaultConfig, FaultPlan};
    pub use crate::host::HostConfig;
    pub use crate::network::{Network, NetworkBuilder};
    pub use crate::packet::{FlowId, DATA_PRIORITY, HEADER_BYTES};
    pub use crate::stats::{median, percentile, FlowStats, SamplerConfig};
    pub use crate::switch::{PfcWatchdogConfig, SwitchConfig};
    pub use crate::telemetry::{Json, Metrics};
    pub use crate::units::{bytes, Bandwidth, Duration, Time};
}
