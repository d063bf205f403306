#![warn(missing_docs)]

//! # baselines — what the paper compares DCQCN against
//!
//! * [`dctcp`] — DCTCP, the window-based ECN scheme (§6.3 / Figure 19 and
//!   the §7 multi-bottleneck discussion),
//! * [`hostmodel`] — the analytic TCP-vs-RDMA host-stack cost model that
//!   stands in for the Figure 1 hardware measurement,
//! * [`timely`] — the RTT-gradient scheme §3.3 contrasts DCQCN against,
//! * PFC-only ("No DCQCN") is simply [`netsim::cc::NoCc`].

pub mod dctcp;
pub mod hostmodel;
pub mod timely;

/// Common imports.
pub mod prelude {
    pub use crate::dctcp::{dctcp, Dctcp, DctcpParams};
    pub use crate::hostmodel::{
        latency_us, rdma_client_stack, rdma_send_stack, rdma_server_stack, tcp_stack, throughput,
        Machine, StackProfile, FIG1_SIZES,
    };
    pub use crate::timely::{timely, timely_host_config, Timely, TimelyParams};
    pub use netsim::cc::NoCc;
}
