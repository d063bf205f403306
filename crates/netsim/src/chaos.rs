//! Chaos campaign cases: randomized fault scenarios with automatic
//! convergence auditing and case shrinking.
//!
//! A [`ChaosCase`] is a fully self-describing scenario — topology pick,
//! workload, congestion-control scheme name, fault schedule, and the
//! convergence-audit parameters — expressed entirely in integers (µs,
//! ppm, bytes) so a case round-trips exactly through the deterministic
//! JSON emitter. Cases are generated from a campaign seed on dedicated
//! [`SplitMix64`] streams, so case `i` of seed `s` is the same scenario
//! forever, regardless of how many cases run or in what order.
//!
//! The executor ([`run_case`]) builds the topology, installs the faults,
//! runs past the last fault plus a settling window, and asks
//! [`Network::check_convergence`] whether the fabric healed. A failing
//! case can be [shrunk](shrink_case) to a minimal reproduction and
//! written to a replayable `CHAOS_REPRO_<seed>.json` file.
//!
//! The congestion-control factory is a parameter: this crate knows the
//! case *vocabulary*; the experiments crate maps scheme names to
//! configured CC instances.

use crate::cc::CongestionControl;
use crate::event::{LinkId, NodeId, PortId};
use crate::faults::{FaultConfig, FaultPlan};
use crate::host::HostConfig;
use crate::network::Network;
use crate::packet::DATA_PRIORITY;
use crate::rng::{mix64, SplitMix64};
use crate::switch::{PfcWatchdogConfig, SwitchConfig};
use crate::telemetry::Json;
use crate::topology::{self, LinkParams};
use crate::units::{Bandwidth, Duration, Time};

/// Stream constants: each concern draws from its own generator so adding
/// a draw to one stream never perturbs another.
const STREAM_TOPO: u64 = 0x0010_7001;
const STREAM_WORKLOAD: u64 = 0x0030_8102;
const STREAM_FAULTS: u64 = 0x00FA_1703;

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
    pub(crate) links: usize,
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

    /// Builds the picked topology. Hosts are returned flattened in
    /// creation order, matching [`TopoShape`] index arithmetic.
    pub fn build(
        self,
        host_cfg: HostConfig,
        switch_cfg: SwitchConfig,
        seed: u64,
    ) -> (Network, Vec<NodeId>) {
        let link = LinkParams::default();
        match self {
            TopoPick::Star { hosts } => {
                let star = topology::star(hosts as usize, link, host_cfg, switch_cfg, seed);
                (star.net, star.hosts)
            }
            TopoPick::Clos { hosts_per_tor } => {
                let t = topology::clos_testbed(
                    hosts_per_tor as usize,
                    link,
                    host_cfg,
                    switch_cfg,
                    seed,
                );
                let hosts = t.hosts.into_iter().flatten().collect();
                (t.net, hosts)
            }
            TopoPick::ParkingLot => {
                let p = topology::parking_lot(link, host_cfg, switch_cfg, seed);
                (p.net, vec![p.h1, p.h2, p.h3, p.r1, p.r2])
            }
        }
    }

    fn label(self) -> &'static str {
        match self {
            TopoPick::Star { .. } => "star",
            TopoPick::Clos { .. } => "clos",
            TopoPick::ParkingLot => "parking_lot",
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

impl CcName {
    /// Stable lowercase label (used in JSON and summaries).
    pub fn label(self) -> &'static str {
        match self {
            CcName::None => "none",
            CcName::Dcqcn => "dcqcn",
            CcName::Dctcp => "dctcp",
            CcName::Timely => "timely",
        }
    }

    /// Parses a [`label`](CcName::label) back.
    pub(crate) fn from_label(s: &str) -> Option<CcName> {
        match s {
            "none" => Some(CcName::None),
            "dcqcn" => Some(CcName::Dcqcn),
            "dctcp" => Some(CcName::Dctcp),
            "timely" => Some(CcName::Timely),
            _ => None,
        }
    }
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
    /// `from_us` until healed at `until_us`.
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

    /// One-line deterministic description for campaign summaries.
    pub fn describe(&self) -> String {
        format!(
            "seed={:#018x} topo={} cc={} flows={} faults={}",
            self.seed,
            self.topo.label(),
            self.cc.label(),
            self.flows.len(),
            self.faults.len()
        )
    }

    /// Serializes the case to the deterministic JSON document written to
    /// `CHAOS_REPRO_<seed>.json` files.
    pub fn to_json(&self) -> Json {
        let topo = match self.topo {
            TopoPick::Star { hosts } => Json::obj(vec![
                ("hosts", Json::UInt(hosts as u64)),
                ("kind", Json::str("star")),
            ]),
            TopoPick::Clos { hosts_per_tor } => Json::obj(vec![
                ("hosts_per_tor", Json::UInt(hosts_per_tor as u64)),
                ("kind", Json::str("clos")),
            ]),
            TopoPick::ParkingLot => Json::obj(vec![("kind", Json::str("parking_lot"))]),
        };
        let flows = self
            .flows
            .iter()
            .map(|f| {
                Json::obj(vec![
                    ("bytes", Json::UInt(f.bytes)),
                    ("dst", Json::UInt(f.dst as u64)),
                    ("src", Json::UInt(f.src as u64)),
                    ("start_us", Json::UInt(f.start_us)),
                ])
            })
            .collect();
        let faults = self
            .faults
            .iter()
            .map(|&s| match s {
                FaultSpec::Flap {
                    link,
                    at_us,
                    down_us,
                    times,
                    period_us,
                } => Json::obj(vec![
                    ("at_us", Json::UInt(at_us)),
                    ("down_us", Json::UInt(down_us)),
                    ("kind", Json::str("flap")),
                    ("link", Json::UInt(link as u64)),
                    ("period_us", Json::UInt(period_us)),
                    ("times", Json::UInt(times as u64)),
                ]),
                FaultSpec::BitError {
                    link,
                    from_us,
                    until_us,
                    prob_ppm,
                } => Json::obj(vec![
                    ("from_us", Json::UInt(from_us)),
                    ("kind", Json::str("bit_error")),
                    ("link", Json::UInt(link as u64)),
                    ("prob_ppm", Json::UInt(prob_ppm as u64)),
                    ("until_us", Json::UInt(until_us)),
                ]),
                FaultSpec::Storm {
                    host,
                    class,
                    from_us,
                    until_us,
                    refresh_us,
                } => Json::obj(vec![
                    ("class", Json::UInt(class as u64)),
                    ("from_us", Json::UInt(from_us)),
                    ("host", Json::UInt(host as u64)),
                    ("kind", Json::str("storm")),
                    ("refresh_us", Json::UInt(refresh_us)),
                    ("until_us", Json::UInt(until_us)),
                ]),
                FaultSpec::Wedge {
                    switch,
                    port,
                    class,
                    at_us,
                } => Json::obj(vec![
                    ("at_us", Json::UInt(at_us)),
                    ("class", Json::UInt(class as u64)),
                    ("kind", Json::str("wedge")),
                    ("port", Json::UInt(port as u64)),
                    ("switch", Json::UInt(switch as u64)),
                ]),
            })
            .collect();
        Json::obj(vec![
            ("cc", Json::str(self.cc.label())),
            ("duration_us", Json::UInt(self.duration_us)),
            ("faults", Json::Arr(faults)),
            ("flows", Json::Arr(flows)),
            ("queue_threshold", Json::UInt(self.queue_threshold)),
            ("seed", Json::UInt(self.seed)),
            ("settle_us", Json::UInt(self.settle_us)),
            ("topo", topo),
        ])
    }

    /// Deserializes a case from a [`to_json`](ChaosCase::to_json)
    /// document (e.g. a repro file).
    pub fn from_json(j: &Json) -> Result<ChaosCase, String> {
        fn u(j: &Json, key: &str) -> Result<u64, String> {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or non-integer field '{key}'"))
        }
        /// A field narrower than `u64`: out-of-range values are an error,
        /// never a silent wrap onto some other link or class.
        fn narrow<T: TryFrom<u64>>(j: &Json, key: &str) -> Result<T, String> {
            let v = u(j, key)?;
            T::try_from(v).map_err(|_| {
                let bits = 8 * std::mem::size_of::<T>();
                format!("field '{key}' out of range ({v} does not fit in {bits} bits)")
            })
        }
        /// A count a replay file may not push past `max` (see
        /// [`MAX_REPLAY_HOSTS`]).
        fn capped(j: &Json, key: &str, max: u32) -> Result<u32, String> {
            let v = u(j, key)?;
            u32::try_from(v)
                .ok()
                .filter(|&n| n <= max)
                .ok_or_else(|| format!("field '{key}' is {v}, past the replay limit of {max}"))
        }
        fn kind(j: &Json) -> Result<&str, String> {
            j.get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| "missing 'kind'".to_string())
        }
        let topo_j = j.get("topo").ok_or("missing 'topo'")?;
        let topo = match kind(topo_j)? {
            "star" => TopoPick::Star {
                hosts: capped(topo_j, "hosts", MAX_REPLAY_HOSTS)?,
            },
            "clos" => TopoPick::Clos {
                hosts_per_tor: capped(topo_j, "hosts_per_tor", MAX_REPLAY_HOSTS / 4)?,
            },
            "parking_lot" => TopoPick::ParkingLot,
            k => return Err(format!("unknown topo kind '{k}'")),
        };
        let cc_label = j.get("cc").and_then(Json::as_str).ok_or("missing 'cc'")?;
        let cc = CcName::from_label(cc_label).ok_or_else(|| format!("unknown cc '{cc_label}'"))?;
        let flows = j
            .get("flows")
            .and_then(Json::as_arr)
            .ok_or("missing 'flows'")?;
        if flows.len() > MAX_REPLAY_FLOWS {
            return Err(format!(
                "field 'flows' lists {} flows, past the replay limit of {MAX_REPLAY_FLOWS}",
                flows.len()
            ));
        }
        let flows = flows
            .iter()
            .map(|f| {
                Ok(ChaosFlow {
                    src: narrow(f, "src")?,
                    dst: narrow(f, "dst")?,
                    bytes: u(f, "bytes")?,
                    start_us: u(f, "start_us")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let faults = j
            .get("faults")
            .and_then(Json::as_arr)
            .ok_or("missing 'faults'")?
            .iter()
            .map(|f| {
                Ok(match kind(f)? {
                    "flap" => FaultSpec::Flap {
                        link: narrow(f, "link")?,
                        at_us: u(f, "at_us")?,
                        down_us: u(f, "down_us")?,
                        times: capped(f, "times", MAX_REPLAY_FLAPS)?,
                        period_us: u(f, "period_us")?,
                    },
                    "bit_error" => FaultSpec::BitError {
                        link: narrow(f, "link")?,
                        from_us: u(f, "from_us")?,
                        until_us: u(f, "until_us")?,
                        prob_ppm: narrow(f, "prob_ppm")?,
                    },
                    "storm" => FaultSpec::Storm {
                        host: narrow(f, "host")?,
                        class: narrow(f, "class")?,
                        from_us: u(f, "from_us")?,
                        until_us: u(f, "until_us")?,
                        refresh_us: u(f, "refresh_us")?,
                    },
                    "wedge" => FaultSpec::Wedge {
                        switch: narrow(f, "switch")?,
                        port: narrow(f, "port")?,
                        class: narrow(f, "class")?,
                        at_us: u(f, "at_us")?,
                    },
                    k => return Err(format!("unknown fault kind '{k}'")),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let case = ChaosCase {
            seed: u(j, "seed")?,
            topo,
            cc,
            flows,
            faults,
            duration_us: u(j, "duration_us")?,
            settle_us: u(j, "settle_us")?,
            queue_threshold: u(j, "queue_threshold")?,
        };
        case.check_clock()?;
        Ok(case)
    }

    /// Every µs time the case names, and every instant derived from them —
    /// a flap's last transition, the end of the settling window — must fit
    /// the simulated clock's `u64` picoseconds. The error names the field;
    /// past the limit the case would run on a wrapped clock.
    fn check_clock(&self) -> Result<(), String> {
        fn fits(field: &str, derived: &str, us: Option<u64>) -> Result<u64, String> {
            us.filter(|&us| us <= MAX_CLOCK_US).ok_or_else(|| {
                format!(
                    "field '{field}'{derived} overflows the simulated clock (max {MAX_CLOCK_US} us)"
                )
            })
        }
        let field = |name: &str, us: u64| fits(name, "", Some(us));
        for f in &self.flows {
            field("start_us", f.start_us)?;
        }
        let mut end = field("duration_us", self.duration_us)?;
        for &spec in &self.faults {
            let last = match spec {
                FaultSpec::Flap {
                    at_us,
                    down_us,
                    times,
                    period_us,
                    ..
                } => {
                    field("at_us", at_us)?;
                    field("down_us", down_us)?;
                    field("period_us", period_us)?;
                    let last_down = period_us
                        .checked_mul(u64::from(times.saturating_sub(1)))
                        .and_then(|span| span.checked_add(at_us));
                    fits(
                        "period_us",
                        " (in the last flap, at_us + (times - 1) * period_us + down_us)",
                        last_down.and_then(|t| t.checked_add(down_us)),
                    )?
                }
                FaultSpec::BitError {
                    from_us, until_us, ..
                } => field("from_us", from_us)?.max(field("until_us", until_us)?),
                FaultSpec::Storm {
                    from_us,
                    until_us,
                    refresh_us,
                    ..
                } => {
                    field("refresh_us", refresh_us)?;
                    field("from_us", from_us)?.max(field("until_us", until_us)?)
                }
                FaultSpec::Wedge { at_us, .. } => field("at_us", at_us)?,
            };
            end = end.max(last);
        }
        field("settle_us", self.settle_us)?;
        fits(
            "settle_us",
            " (at the end of the run, the later of duration_us and the last fault plus settle_us)",
            end.checked_add(self.settle_us),
        )?;
        Ok(())
    }
}

/// Replay-file limits on the sizes that cost memory: hosts of the
/// fabric, flows of the workload and cycles of one flap (each expands to
/// two plan events). [`generate_case`] emits at most 12 hosts, 12 flows
/// and 3 flap cycles; a file past a limit is rejected with the field
/// named instead of aborting on an allocation.
const MAX_REPLAY_HOSTS: u32 = 256;
/// See [`MAX_REPLAY_HOSTS`].
const MAX_REPLAY_FLOWS: usize = 4096;
/// See [`MAX_REPLAY_HOSTS`].
const MAX_REPLAY_FLAPS: u32 = 1000;

/// The latest whole microsecond the simulated clock (`u64` picoseconds)
/// can hold.
const MAX_CLOCK_US: u64 = u64::MAX / 1_000_000;

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
    // The executor's host config uses rto = 2 ms, backoff cap 4: worst
    // retry gap 8 ms. Watchdog recovery is 4 ms. 20 ms clears both.
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

/// The executor's host config: short RTO (2 ms, backoff cap 4) so the
/// worst-case retry gap (8 ms) fits comfortably inside the settling
/// window, and a bounded retry count so black-holed flows tear down
/// rather than hang.
pub fn chaos_host_config() -> HostConfig {
    HostConfig {
        rto: Duration::from_millis(2),
        rto_backoff_cap: 4,
        max_retries: 7,
        ..HostConfig::default()
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

    /// One-line deterministic summary (no wall-clock content).
    pub fn describe(&self) -> String {
        format!(
            "{} violations={} completions={} teardowns={} wd_trips={} delivered={} events={}",
            if self.converged() { "PASS" } else { "FAIL" },
            self.violations.len(),
            self.completions,
            self.teardowns,
            self.watchdog_trips,
            self.delivered_bytes,
            self.events
        )
    }
}

/// Executes one case: build, load, inject, settle, audit.
///
/// `switch_cfg` should carry the scheme's ECN/PFC parameters; a PFC
/// watchdog is forced on (the convergence auditor assumes storms are
/// survivable). `make_cc` builds one CC instance per flow from the NIC
/// line rate. Returns `Err` if the expanded fault schedule fails
/// [`Network::check_faults`] (an invalid plan, or a fault naming a link,
/// node, port or class the topology does not have) or a flow names a
/// host it does not have.
pub fn run_case(
    case: &ChaosCase,
    host_cfg: HostConfig,
    switch_cfg: SwitchConfig,
    make_cc: &dyn Fn(Bandwidth) -> Box<dyn CongestionControl>,
) -> Result<CaseReport, String> {
    let plan = case.plan();
    let mut switch_cfg = switch_cfg;
    if switch_cfg.watchdog.is_none() {
        switch_cfg = switch_cfg.with_watchdog(PfcWatchdogConfig::default());
    }
    let (mut net, hosts) = case.topo.build(host_cfg, switch_cfg, case.seed);
    net.check_faults(&plan)?;
    net.enable_flight_recorder(64);

    let shape = case.topo.shape();
    for f in &case.flows {
        if f.src as usize >= shape.hosts || f.dst as usize >= shape.hosts {
            return Err(format!(
                "flow references host {} but topology has {}",
                f.src.max(f.dst),
                shape.hosts
            ));
        }
        let flow = net.add_flow(
            hosts[f.src as usize],
            hosts[f.dst as usize],
            DATA_PRIORITY,
            |line| make_cc(line),
        );
        net.send_message(flow, f.bytes, Time::from_micros(f.start_us));
    }

    if !plan.is_empty() {
        net.install_faults(
            &plan,
            FaultConfig {
                seed: case.seed ^ STREAM_FAULTS,
                ..FaultConfig::default()
            },
        );
    }

    // Run to the later of the nominal duration and the last fault event,
    // then sample queue depth at four checkpoints across the settling
    // window and audit convergence at its end.
    let settle_start = Time::from_micros(case.duration_us).max(plan.horizon());
    net.run_until(settle_start);
    let baseline = net.delivered_snapshot();
    let mut samples = Vec::with_capacity(4);
    for k in 1..=4u64 {
        let t = settle_start + Duration::from_micros(case.settle_us * k / 4);
        net.run_until(t);
        samples.push((net.now(), net.total_queued_bytes()));
    }
    let violations = net.check_convergence(settle_start, case.queue_threshold, &baseline, &samples);

    Ok(CaseReport {
        violations,
        completions: net.metric("completions"),
        teardowns: net.metric("qp_teardowns"),
        watchdog_trips: net.metric("watchdog_trips"),
        delivered_bytes: net.delivered_snapshot().iter().sum(),
        events: net.events_executed(),
    })
}

/// Maximum shrink rounds (each round tries every reduction once).
const MAX_SHRINK_ROUNDS: usize = 16;

/// Shrinks a failing case to a minimal reproduction.
///
/// Greedy delta-debugging to a fixpoint: drop fault specs one at a time,
/// then flows, then halve the nominal duration — keeping any reduction
/// for which `still_fails` returns true. The oracle re-runs the
/// candidate, so shrinking costs one simulation per attempted reduction.
/// Because reductions operate on whole [`FaultSpec`] groups, every
/// candidate remains a valid plan.
pub fn shrink_case(case: &ChaosCase, still_fails: &mut dyn FnMut(&ChaosCase) -> bool) -> ChaosCase {
    let mut best = case.clone();
    for _round in 0..MAX_SHRINK_ROUNDS {
        let mut changed = false;

        // Drop fault specs, one at a time, last first (later specs are
        // more likely incidental).
        let mut i = best.faults.len();
        while i > 0 {
            i -= 1;
            if best.faults.len() <= 1 {
                break;
            }
            let mut candidate = best.clone();
            candidate.faults.remove(i);
            if still_fails(&candidate) {
                best = candidate;
                changed = true;
            }
        }

        // Drop flows, one at a time.
        let mut i = best.flows.len();
        while i > 0 {
            i -= 1;
            if best.flows.len() <= 1 {
                break;
            }
            let mut candidate = best.clone();
            candidate.flows.remove(i);
            if still_fails(&candidate) {
                best = candidate;
                changed = true;
            }
        }

        // Halve the nominal duration (floor 5 ms; the fault horizon
        // still extends the run as needed).
        if best.duration_us > 10_000 {
            let mut candidate = best.clone();
            candidate.duration_us /= 2;
            if still_fails(&candidate) {
                best = candidate;
                changed = true;
            }
        }

        if !changed {
            break;
        }
    }
    best
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

    #[test]
    fn json_round_trip_is_exact() {
        for index in 0..12u64 {
            let case = generate_case(0xC0FFEE, index, false);
            let j = case.to_json();
            let back = ChaosCase::from_json(&Json::parse(&j.render()).unwrap()).unwrap();
            assert_eq!(back, case);
            // And the rendered form is a fixpoint (byte-identical files).
            assert_eq!(back.to_json().render(), j.render());
        }
    }

    #[test]
    fn from_json_rejects_malformed_cases() {
        let case = generate_case(1, 0, true);
        let good = case.to_json().render();
        let j = Json::parse(&good.replace("\"dcqcn\"", "\"warp\"")).unwrap();
        assert!(ChaosCase::from_json(&j).is_err());
        let j = Json::parse(&good.replace("\"seed\"", "\"dees\"")).unwrap();
        assert!(ChaosCase::from_json(&j).is_err());
    }

    /// A µs field or a derived instant past the clock's `u64` picoseconds
    /// is an error naming the field, not a run on a wrapped clock; the
    /// last representable microsecond is accepted.
    #[test]
    fn from_json_rejects_times_past_the_clock() {
        let base = generate_case(1, 0, true);
        let reject = |case: ChaosCase, field: &str| {
            let j = Json::parse(&case.to_json().render()).unwrap();
            match ChaosCase::from_json(&j) {
                Err(e) => assert!(e.contains(&format!("field '{field}'")), "{e}"),
                Ok(_) => panic!("{field}: accepted"),
            }
        };
        let mut c = base.clone();
        c.duration_us = u64::MAX;
        reject(c, "duration_us");
        let mut c = base.clone();
        c.settle_us = u64::MAX;
        reject(c, "settle_us");
        let mut c = base.clone();
        c.flows[0].start_us = u64::MAX;
        reject(c, "start_us");
        // Each fits on its own; their sum does not.
        let mut c = base.clone();
        c.faults.clear();
        c.duration_us = MAX_CLOCK_US;
        c.settle_us = 1;
        reject(c, "settle_us");
        let mut c = base.clone();
        c.faults = vec![FaultSpec::Flap {
            link: 0,
            at_us: 1_000,
            down_us: 500,
            times: 3,
            period_us: MAX_CLOCK_US / 2,
        }];
        reject(c, "period_us");
        let mut c = base.clone();
        c.faults.clear();
        c.duration_us = MAX_CLOCK_US - 7;
        c.settle_us = 7;
        let j = Json::parse(&c.to_json().render()).unwrap();
        assert_eq!(ChaosCase::from_json(&j), Ok(c));
    }

    #[test]
    fn topo_shape_matches_built_network() {
        for topo in [
            TopoPick::Star { hosts: 5 },
            TopoPick::Clos { hosts_per_tor: 2 },
            TopoPick::ParkingLot,
        ] {
            let shape = topo.shape();
            let (net, hosts) = topo.build(chaos_host_config(), SwitchConfig::paper_default(), 42);
            assert_eq!(hosts.len(), shape.hosts, "{topo:?}");
            let nodes = shape.switches + shape.hosts;
            let linked = (0..nodes)
                .flat_map(|a| (a + 1..nodes).map(move |b| (NodeId(a), NodeId(b))))
                .filter(|&(a, b)| net.link_between(a, b).is_some())
                .count();
            assert_eq!(linked, shape.links, "{topo:?}");
            // Hosts follow switches in the node-id space.
            for (i, h) in hosts.iter().enumerate() {
                assert_eq!(h.0, shape.switches + i, "{topo:?}");
            }
        }
    }

    #[test]
    fn shrinker_reaches_a_minimal_failing_case() {
        let mut case = generate_case(99, 0, false);
        // Pad with extra specs; the synthetic oracle only cares that a
        // Storm spec survives.
        case.faults = vec![
            FaultSpec::Flap {
                link: 0,
                at_us: 1_000,
                down_us: 500,
                times: 2,
                period_us: 2_000,
            },
            FaultSpec::Storm {
                host: 0,
                class: DATA_PRIORITY,
                from_us: 5_000,
                until_us: 9_000,
                refresh_us: 20,
            },
            FaultSpec::BitError {
                link: 1,
                from_us: 2_000,
                until_us: 8_000,
                prob_ppm: 5_000,
            },
        ];
        let mut oracle_calls = 0usize;
        let shrunk = shrink_case(&case, &mut |c| {
            oracle_calls += 1;
            c.faults
                .iter()
                .any(|f| matches!(f, FaultSpec::Storm { .. }))
        });
        assert_eq!(shrunk.faults.len(), 1, "only the storm should survive");
        assert!(matches!(shrunk.faults[0], FaultSpec::Storm { .. }));
        assert_eq!(shrunk.flows.len(), 1, "flows halve to the floor");
        assert_eq!(shrunk.duration_us, 10_000, "duration halves to the floor");
        assert!(oracle_calls > 0 && oracle_calls < 200);
    }

    #[test]
    fn clean_case_converges_under_nocc() {
        use crate::cc::NoCc;
        let case = ChaosCase {
            seed: 5,
            topo: TopoPick::Star { hosts: 4 },
            cc: CcName::None,
            flows: vec![ChaosFlow {
                src: 0,
                dst: 1,
                bytes: 256 * 1024,
                start_us: 0,
            }],
            faults: vec![FaultSpec::Flap {
                link: 0,
                at_us: 1_000,
                down_us: 500,
                times: 1,
                period_us: 1_000,
            }],
            duration_us: 10_000,
            settle_us: 20_000,
            queue_threshold: 64 * 1024,
        };
        let report = run_case(
            &case,
            chaos_host_config(),
            SwitchConfig::paper_default(),
            &|line| Box::new(NoCc::new(line)),
        )
        .unwrap();
        assert!(
            report.converged(),
            "clean flap should converge: {:?}",
            report.violations
        );
        assert_eq!(report.completions, 1, "the message should complete");

        // Determinism: the same case replays to the same fingerprint.
        let again = run_case(
            &case,
            chaos_host_config(),
            SwitchConfig::paper_default(),
            &|line| Box::new(NoCc::new(line)),
        )
        .unwrap();
        assert_eq!(again.events, report.events);
        assert_eq!(again.describe(), report.describe());
    }

    #[test]
    fn wedged_watchdog_is_caught_as_convergence_violation() {
        use crate::audit::ViolationKind;
        use crate::cc::NoCc;
        let case = ChaosCase {
            seed: 6,
            topo: TopoPick::Star { hosts: 4 },
            cc: CcName::None,
            flows: vec![ChaosFlow {
                src: 0,
                dst: 1,
                bytes: 128 * 1024,
                start_us: 0,
            }],
            faults: vec![FaultSpec::Wedge {
                switch: 0,
                port: 1,
                class: DATA_PRIORITY,
                at_us: 2_000,
            }],
            duration_us: 10_000,
            settle_us: 20_000,
            queue_threshold: 64 * 1024,
        };
        let report = run_case(
            &case,
            chaos_host_config(),
            SwitchConfig::paper_default(),
            &|line| Box::new(NoCc::new(line)),
        )
        .unwrap();
        assert!(!report.converged(), "a wedged watchdog never heals");
        assert!(report
            .violations
            .iter()
            .all(|v| v.kind == ViolationKind::Convergence));
        assert!(report
            .violations
            .iter()
            .any(|v| v.context.contains("watchdog still tripped")));
    }
}
