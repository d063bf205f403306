#![warn(missing_docs)]

//! # dcqcn-repro
//!
//! A full reproduction of *"Congestion Control for Large-Scale RDMA
//! Deployments"* (Zhu et al., SIGCOMM 2015) — the DCQCN congestion
//! control protocol for RoCEv2 — as a Rust workspace:
//!
//! * [`netsim`] — deterministic packet-level fabric simulator (PFC,
//!   shared-buffer switches, RED/ECN, ECMP, go-back-N RoCE transport),
//! * [`dcqcn`] — the protocol itself (CP/NP/RP state machines, §4 buffer
//!   threshold engineering, Figure 14 parameters),
//! * [`baselines`] — DCTCP, QCN, PFC-only, and the TCP-vs-RDMA host model,
//! * [`fluid`] — the §5 fluid model (DDE integrator, fixed point, sweeps),
//! * [`workloads`] — trace-like synthetic traffic,
//! * [`experiments`] — one runnable module per paper figure/table.
//!
//! This facade crate re-exports everything and hosts the runnable
//! examples (`cargo run --example quickstart`) and the cross-crate
//! integration test suite.

pub use baselines;
pub use dcqcn;
pub use experiments;
pub use fluid;
pub use netsim;
pub use workloads;
