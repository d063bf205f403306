//! Chaos campaign cases: the vocabulary of a randomized fault scenario,
//! its generator, and the report an executed case produces.
//!
//! A [`ChaosCase`] is a fully self-describing scenario — topology pick,
//! workload, congestion-control scheme name, fault schedule, and the
//! convergence-audit parameters — expressed entirely in integers (µs,
//! ppm, bytes) so a case round-trips exactly through a JSON file. Cases
//! are generated from a campaign seed on dedicated [`SplitMix64`]
//! streams, so case `i` of seed `s` is the same scenario forever,
//! regardless of how many cases run or in what order.
//!
//! This module is data only. The harness (`experiments::chaos`) owns
//! everything that runs, judges, shrinks, prints or files a case: it maps
//! scheme names to configurations, builds the topology, installs
//! [`ChaosCase::plan`], audits convergence and fills in a [`CaseReport`].

use crate::event::{LinkId, NodeId, PortId};
use crate::faults::FaultPlan;
use crate::packet::DATA_PRIORITY;
use crate::rng::{mix64, SplitMix64};
use crate::units::{Duration, Time};

/// Stream constants: each concern draws from its own generator so adding
/// a draw to one stream never perturbs another.
const STREAM_TOPO: u64 = 0x0010_7001;
const STREAM_WORKLOAD: u64 = 0x0030_8102;
/// The fault-schedule stream. The executor also salts a case's bit-error
/// stream with it (`seed ^ STREAM_FAULTS`).
pub const STREAM_FAULTS: u64 = 0x00FA_1703;

/// Which topology a case runs on. Small enough to enumerate; the shape
/// (host/switch/link counts) is derivable without building the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoPick {
    /// `hosts` hosts around one switch.
    Star {
        /// Number of hosts.
        hosts: u32,
    },
    /// The paper's 3-tier Clos testbed (4 ToRs, 4 leaves, 2 spines).
    Clos {
        /// Hosts under each ToR.
        hosts_per_tor: u32,
    },
    /// The two-switch multi-bottleneck parking lot.
    ParkingLot,
}

/// Node/link counts of a topology, without building it.
///
/// All three builders create every switch before any host, so host `i`
/// is `NodeId(switches + i)`; links are created in a fixed documented
/// order per builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopoShape {
    /// Number of hosts (indices `0..hosts` map to node ids
    /// `switches..switches+hosts`).
    pub hosts: usize,
    /// Number of switches (node ids `0..switches`).
    pub switches: usize,
    /// Number of links.
    pub links: usize,
}

impl TopoPick {
    /// The shape this pick builds.
    pub fn shape(self) -> TopoShape {
        match self {
            TopoPick::Star { hosts } => TopoShape {
                hosts: hosts as usize,
                switches: 1,
                links: hosts as usize,
            },
            TopoPick::Clos { hosts_per_tor } => TopoShape {
                hosts: 4 * hosts_per_tor as usize,
                switches: 10,
                // 8 ToR↔leaf + 8 leaf↔spine + one access link per host.
                links: 16 + 4 * hosts_per_tor as usize,
            },
            TopoPick::ParkingLot => TopoShape {
                hosts: 5,
                switches: 2,
                links: 6,
            },
        }
    }
}

/// Congestion-control scheme name, as pure data. The experiments crate
/// maps these to configured host/switch/CC parameter sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // variants are scheme names
pub enum CcName {
    None,
    Dcqcn,
    Dctcp,
    Timely,
}

/// One flow of a case's workload. `src`/`dst` are host *indices* into
/// the topology's flattened host list, not node ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosFlow {
    /// Source host index.
    pub src: u32,
    /// Destination host index (≠ `src`).
    pub dst: u32,
    /// Message size in bytes (`u64::MAX` = greedy, never-ending).
    pub bytes: u64,
    /// Message arrival time, µs.
    pub start_us: u64,
}

/// One high-level fault of a case.
///
/// Specs are *groups*, not raw [`FaultPlan`] events: a flap is one spec
/// regardless of its repeat count, and a bit-error spec carries its own
/// heal time. Shrinking removes whole specs, so every shrunk schedule
/// still passes [`FaultPlan::validate`] by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Flap `link` `times` times: down at `at_us + k·period_us`, up
    /// `down_us` later.
    Flap {
        /// Link index.
        link: u32,
        /// First down time, µs.
        at_us: u64,
        /// Outage length per flap, µs (must be < `period_us`).
        down_us: u64,
        /// Number of down/up cycles.
        times: u32,
        /// Cycle period, µs.
        period_us: u64,
    },
    /// Corrupt frames on `link` with probability `prob_ppm`·10⁻⁶ from
    /// `from_us` until healed at `until_us` (must be > `from_us`).
    BitError {
        /// Link index.
        link: u32,
        /// Degradation start, µs.
        from_us: u64,
        /// Heal time, µs.
        until_us: u64,
        /// Per-frame corruption probability, parts per million.
        prob_ppm: u32,
    },
    /// Host `host` emits a continuous PFC PAUSE storm on `class` from
    /// `from_us` until `until_us`, one frame every `refresh_us`.
    Storm {
        /// Host index.
        host: u32,
        /// PFC priority class.
        class: u8,
        /// Storm start, µs.
        from_us: u64,
        /// Storm end, µs.
        until_us: u64,
        /// PAUSE refresh interval, µs.
        refresh_us: u64,
    },
    /// Wedge the PFC watchdog on `switch`'s port `port`, class `class`:
    /// tripped forever, no restore. **Test-only** — emulates a recovery
    /// bug; the generator never emits it, but replay files may carry it.
    Wedge {
        /// Switch node id (switches are `0..shape.switches`).
        switch: u32,
        /// Port index on that switch.
        port: u32,
        /// PFC priority class.
        class: u8,
        /// Wedge time, µs.
        at_us: u64,
    },
}

/// A complete, self-describing chaos scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosCase {
    /// Simulation seed (drives ECMP hashing, fault RNG, etc.).
    pub seed: u64,
    /// Topology pick.
    pub topo: TopoPick,
    /// Congestion-control scheme.
    pub cc: CcName,
    /// Workload.
    pub flows: Vec<ChaosFlow>,
    /// Fault schedule.
    pub faults: Vec<FaultSpec>,
    /// Nominal run length, µs (the run extends past this if a fault
    /// clears later).
    pub duration_us: u64,
    /// Settling window after the last fault clears, µs. Must exceed the
    /// watchdog recovery plus the worst-case RTO backoff gap, or healthy
    /// recoveries are flagged.
    pub settle_us: u64,
    /// Queued-bytes threshold for the drain check.
    pub queue_threshold: u64,
}

impl ChaosCase {
    /// Expands the fault specs into a concrete [`FaultPlan`].
    pub fn plan(&self) -> FaultPlan {
        let shape = self.topo.shape();
        let mut plan = FaultPlan::new();
        for &spec in &self.faults {
            match spec {
                FaultSpec::Flap {
                    link,
                    at_us,
                    down_us,
                    times,
                    period_us,
                } => {
                    plan = plan.link_flap(
                        LinkId(link as usize),
                        Time::from_micros(at_us),
                        Duration::from_micros(down_us),
                        Duration::from_micros(period_us),
                        times,
                    );
                }
                FaultSpec::BitError {
                    link,
                    from_us,
                    until_us,
                    prob_ppm,
                } => {
                    let l = LinkId(link as usize);
                    plan = plan
                        .bit_error(Time::from_micros(from_us), l, prob_ppm as f64 / 1e6)
                        .bit_error(Time::from_micros(until_us), l, 0.0);
                }
                FaultSpec::Storm {
                    host,
                    class,
                    from_us,
                    until_us,
                    refresh_us,
                } => {
                    plan = plan.pause_storm(
                        NodeId(shape.switches + host as usize),
                        class,
                        Time::from_micros(from_us),
                        Time::from_micros(until_us),
                        Duration::from_micros(refresh_us),
                    );
                }
                FaultSpec::Wedge {
                    switch,
                    port,
                    class,
                    at_us,
                } => {
                    plan = plan.wedge_watchdog(
                        Time::from_micros(at_us),
                        NodeId(switch as usize),
                        PortId(port as usize),
                        class,
                    );
                }
            }
        }
        plan
    }
}

/// Generates case `index` of the campaign identified by `campaign_seed`.
///
/// Each case derives a per-case seed and draws topology, workload and
/// faults from three independent streams. `quick` halves the run length
/// and fault budget (CI smoke mode).
///
/// The generator's fault vocabulary is flap + healed bit-error + bounded
/// storm: everything it schedules *clears*, so a converged end state is
/// always reachable. [`FaultSpec::Wedge`] is deliberately excluded — it
/// models a recovery bug and exists for tests and hand-written repro
/// files.
pub fn generate_case(campaign_seed: u64, index: u64, quick: bool) -> ChaosCase {
    let case_seed = mix64(campaign_seed ^ mix64(index.wrapping_add(1)));
    let mut topo_rng = SplitMix64::new(case_seed ^ STREAM_TOPO);
    let mut work_rng = SplitMix64::new(case_seed ^ STREAM_WORKLOAD);
    let mut fault_rng = SplitMix64::new(case_seed ^ STREAM_FAULTS);

    let topo = match topo_rng.below(3) {
        0 => TopoPick::Star {
            hosts: 4 + topo_rng.below(5) as u32, // 4..=8
        },
        1 => TopoPick::Clos {
            hosts_per_tor: 2 + topo_rng.below(2) as u32, // 2..=3
        },
        _ => TopoPick::ParkingLot,
    };
    let shape = topo.shape();
    let cc = *topo_rng.pick(&[CcName::Dcqcn, CcName::Dcqcn, CcName::Dctcp, CcName::Timely]);

    let duration_us: u64 = if quick { 20_000 } else { 40_000 };
    // Must cover the executor's longest retry gap plus the watchdog's
    // recovery; `experiments::chaos`'s `settle_window_covers_recovery`
    // test checks that for every scheme.
    let settle_us: u64 = 20_000;

    // Workload: 2..=hosts flows, distinct (src, dst) hosts, finite
    // messages so completions are reachable.
    let n_flows = 2 + work_rng.below(shape.hosts as u64 - 1) as usize;
    let mut flows = Vec::with_capacity(n_flows);
    for _ in 0..n_flows {
        let src = work_rng.below(shape.hosts as u64) as u32;
        let mut dst = work_rng.below(shape.hosts as u64 - 1) as u32;
        if dst >= src {
            dst += 1;
        }
        let bytes = (64 * 1024) << work_rng.below(6); // 64 KB .. 2 MB
        let start_us = work_rng.below(duration_us / 4);
        flows.push(ChaosFlow {
            src,
            dst,
            bytes,
            start_us,
        });
    }

    // Faults: 1..=3 specs (1..=2 in quick mode). Flaps claim distinct
    // links and storms distinct (host, class) pairs so the expanded plan
    // passes FaultPlan::validate by construction; every spec clears
    // before `duration_us`.
    let n_faults = 1 + fault_rng.below(if quick { 2 } else { 3 }) as usize;
    let mut links: Vec<u64> = (0..shape.links as u64).collect();
    fault_rng.shuffle(&mut links);
    let mut storm_hosts: Vec<u64> = (0..shape.hosts as u64).collect();
    fault_rng.shuffle(&mut storm_hosts);
    let mut faults = Vec::with_capacity(n_faults);
    for _ in 0..n_faults {
        match fault_rng.below(3) {
            0 => {
                let Some(link) = links.pop() else { continue };
                let times = 1 + fault_rng.below(3) as u32; // 1..=3 flaps
                let down_us = 200 + fault_rng.below(1_800); // 0.2..2 ms
                let period_us = down_us + 500 + fault_rng.below(2_000);
                let span = period_us * (times as u64 - 1) + down_us;
                let at_us = 1_000 + fault_rng.below(duration_us / 2);
                let at_us = at_us.min(duration_us.saturating_sub(span + 1_000));
                faults.push(FaultSpec::Flap {
                    link: link as u32,
                    at_us,
                    down_us,
                    times,
                    period_us,
                });
            }
            1 => {
                let Some(link) = links.pop() else { continue };
                let from_us = 1_000 + fault_rng.below(duration_us / 2);
                let until_us = from_us + 2_000 + fault_rng.below(duration_us / 4);
                let until_us = until_us.min(duration_us - 1_000);
                faults.push(FaultSpec::BitError {
                    link: link as u32,
                    from_us,
                    until_us: until_us.max(from_us + 500),
                    prob_ppm: 1_000 + fault_rng.below(99_000) as u32, // 0.1%..10%
                });
            }
            _ => {
                let Some(host) = storm_hosts.pop() else {
                    continue;
                };
                let from_us = 1_000 + fault_rng.below(duration_us / 2);
                let until_us = from_us + 2_000 + fault_rng.below(6_000);
                let until_us = until_us.min(duration_us - 1_000);
                faults.push(FaultSpec::Storm {
                    host: host as u32,
                    class: DATA_PRIORITY,
                    from_us,
                    until_us: until_us.max(from_us + 500),
                    refresh_us: 10 + fault_rng.below(40),
                });
            }
        }
    }

    ChaosCase {
        seed: case_seed,
        topo,
        cc,
        flows,
        faults,
        duration_us,
        settle_us,
        queue_threshold: 64 * 1024,
    }
}

/// Outcome of one executed case.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Convergence violations (empty = the fabric healed).
    pub violations: Vec<crate::audit::Violation>,
    /// Completed messages.
    pub completions: u64,
    /// QPs torn down (retry exhaustion) — legitimate degradation, not a
    /// convergence failure, but worth surfacing.
    pub teardowns: u64,
    /// Watchdog trips observed.
    pub watchdog_trips: u64,
    /// Total bytes delivered across all flows.
    pub delivered_bytes: u64,
    /// Events executed (a cheap full-trajectory fingerprint: two runs of
    /// the same case must agree exactly).
    pub events: u64,
}

impl CaseReport {
    /// Did the fabric converge?
    pub fn converged(&self) -> bool {
        self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_cases_expand_to_valid_plans() {
        for seed in 0..8u64 {
            for index in 0..16u64 {
                let case = generate_case(seed, index, index % 2 == 0);
                assert!(!case.flows.is_empty(), "case must have workload");
                assert!(!case.faults.is_empty(), "case must have faults");
                let plan = case.plan();
                assert!(
                    plan.validate().is_ok(),
                    "seed {seed} case {index}: {:?}",
                    plan.validate()
                );
                // Every generated fault clears within the nominal run.
                assert!(plan.horizon() <= Time::from_micros(case.duration_us));
                // Indices stay inside the topology.
                let shape = case.topo.shape();
                for f in &case.flows {
                    assert!((f.src as usize) < shape.hosts);
                    assert!((f.dst as usize) < shape.hosts);
                    assert_ne!(f.src, f.dst);
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic_and_indexed() {
        let a = generate_case(7, 3, false);
        let b = generate_case(7, 3, false);
        assert_eq!(a, b);
        assert_ne!(a, generate_case(7, 4, false));
        assert_ne!(a, generate_case(8, 3, false));
    }
}
