//! Deterministic fault injection: link failures, bit errors, pause storms
//! and ECN misconfiguration, scheduled through the ordinary event queue.
//!
//! The paper's deployment experience (§6) is a catalog of the ways a
//! PFC-protected fabric fails *ugly*: dead links force BGP reroutes, a
//! malfunctioning NIC can emit a continuous PFC pause storm that freezes
//! whole sub-trees, and misconfigured switches stop marking. A simulator
//! that only models the healthy fabric cannot reproduce any of that, so
//! this module adds a **fault plan**: a declarative list of
//! `(time, action)` pairs that the network schedules as [`crate::event::Event::Fault`]
//! events at [`crate::network::Network::install_faults`] time. A run with
//! a fault plan is exactly as deterministic as one without — the plan is
//! data, the bit-error draws come from a dedicated [`SplitMix64`] stream
//! (so they never perturb RED sampling), and everything executes in the
//! global `(time, seq)` event order.
//!
//! The degradation machinery that *reacts* to faults lives with the
//! component it protects: the PFC storm watchdog in [`crate::switch`], route
//! failover in [`crate::network`] (re-running [`crate::routing::compute_routes_masked`]
//! over the live links), and exponential RTO backoff in [`crate::host`].

use crate::event::{LinkId, NodeId, PortId};
use crate::port::Attachment;
use crate::rng::SplitMix64;
use crate::telemetry::spans::PauseEdge;
use crate::telemetry::Json;
use crate::units::{Duration, Time};

/// The causal-tracing edge describing one malfunctioning-NIC storm tick:
/// a PAUSE from the host's NIC (`att` is its access attachment) to its
/// switch, tagged `storm` so the congestion tree can tell fault-injected
/// roots apart from genuine buffer-pressure PAUSEs (which carry the
/// occupancy/threshold that justified them; a storm has neither).
pub(crate) fn storm_pause_edge(host: NodeId, att: Attachment, class: u8, at: Time) -> PauseEdge {
    PauseEdge {
        at,
        from: host,
        from_port: PortId(0),
        to: att.peer,
        to_port: att.peer_port,
        class,
        pause: true,
        storm: true,
        depth: 0,
        threshold: 0,
    }
}

/// One scheduled fault action, carried inside [`crate::event::Event::Fault`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Take a link down. Both directions fail together (as a cut fiber
    /// does); frames in flight or transmitted while down are lost.
    LinkDown {
        /// The failing link.
        link: LinkId,
    },
    /// Bring a link back up. PFC pause state on both endpoints is cleared
    /// (a link reset expires outstanding pause, exactly like hardware).
    LinkUp {
        /// The recovering link.
        link: LinkId,
    },
    /// Set a link's per-frame corruption probability. Corrupted frames
    /// fail CRC at the receiver and are dropped — *even on lossless
    /// classes*, which is precisely why RoCE needs go-back-N at all.
    SetBitError {
        /// The degraded link.
        link: LinkId,
        /// Probability that any single frame is corrupted (0 heals).
        drop_prob: f64,
    },
    /// One tick of a malfunctioning-NIC pause storm: the host emits a PFC
    /// PAUSE for `class` on its access link, then the tick reschedules
    /// itself every `refresh` until `until`. With a refresh shorter than
    /// the victim switch can drain, the uplink port is paused continuously
    /// — the §6 pause-storm failure mode.
    PauseStormTick {
        /// The malfunctioning host.
        host: NodeId,
        /// The priority class being paused.
        class: u8,
        /// Storm end time (no tick fires after this).
        until: Time,
        /// Gap between successive PAUSE frames.
        refresh: Duration,
    },
    /// Disable ECN marking at one switch (misconfiguration: the switch
    /// falls back to pure PFC and congestion spreading resumes).
    EcnOff {
        /// The misconfigured switch.
        switch: NodeId,
    },
    /// Test-only firmware-bug emulation: trip the PFC storm watchdog on
    /// one (switch, port, class) *without* scheduling its recovery — the
    /// class ignores PAUSE forever. No real fault vocabulary entry maps
    /// here and the chaos generator never emits it; it exists so the
    /// convergence auditor's stuck-watchdog detection (and the case
    /// shrinker downstream of it) can be exercised end-to-end.
    WedgeWatchdog {
        /// The switch whose watchdog wedges.
        switch: NodeId,
        /// The afflicted port.
        port: PortId,
        /// The afflicted priority class.
        class: u8,
    },
}

/// A declarative, reproducible fault plan: `(time, action)` pairs built
/// with a fluent API and installed via
/// [`crate::network::Network::install_faults`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    actions: Vec<(Time, FaultAction)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// The scheduled `(time, action)` pairs, in insertion order.
    pub fn actions(&self) -> &[(Time, FaultAction)] {
        &self.actions
    }

    /// True when no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Fails `link` at `at`.
    pub fn link_down(mut self, at: Time, link: LinkId) -> FaultPlan {
        self.actions.push((at, FaultAction::LinkDown { link }));
        self
    }

    /// Restores `link` at `at`.
    pub fn link_up(mut self, at: Time, link: LinkId) -> FaultPlan {
        self.actions.push((at, FaultAction::LinkUp { link }));
        self
    }

    /// Flaps `link` `count` times: down at `first_down + k·period`, back
    /// up `down_for` later, for `k = 0..count`.
    pub fn link_flap(
        mut self,
        link: LinkId,
        first_down: Time,
        down_for: Duration,
        period: Duration,
        count: u32,
    ) -> FaultPlan {
        debug_assert!(
            down_for < period,
            "flap must come back up within its period"
        );
        for k in 0..count as u64 {
            let down = first_down + period.saturating_mul(k);
            self.actions.push((down, FaultAction::LinkDown { link }));
            self.actions
                .push((down + down_for, FaultAction::LinkUp { link }));
        }
        self
    }

    /// Sets `link`'s per-frame corruption probability to `drop_prob` at
    /// `at` (use 0.0 to heal).
    pub fn bit_error(mut self, at: Time, link: LinkId, drop_prob: f64) -> FaultPlan {
        self.actions
            .push((at, FaultAction::SetBitError { link, drop_prob }));
        self
    }

    /// `host` emits continuous PFC PAUSE for `class` on its access link
    /// from `from` until `until`, one frame every `refresh`.
    pub fn pause_storm(
        mut self,
        host: NodeId,
        class: u8,
        from: Time,
        until: Time,
        refresh: Duration,
    ) -> FaultPlan {
        self.actions.push((
            from,
            FaultAction::PauseStormTick {
                host,
                class,
                until,
                refresh,
            },
        ));
        self
    }

    /// Disables ECN marking at `switch` at `at`.
    pub fn ecn_off(mut self, at: Time, switch: NodeId) -> FaultPlan {
        self.actions.push((at, FaultAction::EcnOff { switch }));
        self
    }

    /// Wedges the PFC storm watchdog on `(switch, port, class)` at `at`
    /// (test-only; see [`FaultAction::WedgeWatchdog`]).
    pub fn wedge_watchdog(
        mut self,
        at: Time,
        switch: NodeId,
        port: PortId,
        class: u8,
    ) -> FaultPlan {
        self.actions.push((
            at,
            FaultAction::WedgeWatchdog {
                switch,
                port,
                class,
            },
        ));
        self
    }

    /// The latest instant at which any planned action is still acting:
    /// a storm keeps ticking until its `until`; everything else acts at
    /// its scheduled time. `Time::ZERO` for an empty plan. Convergence
    /// settling windows start here.
    pub fn horizon(&self) -> Time {
        self.actions
            .iter()
            .map(|&(at, action)| match action {
                FaultAction::PauseStormTick { until, .. } => at.max(until),
                _ => at,
            })
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Rejects overlapping or nested events on the same resource, the
    /// interleavings whose semantics would otherwise be undefined:
    ///
    /// * a `LinkDown` while that link is already down (flap-during-down),
    /// * a `LinkUp` while that link is already up,
    /// * two up/down transitions of the same link at the same instant
    ///   (their relative order would depend on insertion order),
    /// * two pause storms on the same (host, class) with overlapping
    ///   windows (their refresh chains would interleave unpredictably).
    ///
    /// It also rejects values no schedule can mean: a storm with a zero
    /// refresh or one that ends before it starts, and a bit-error
    /// probability that is not a number in `[0, 1]`.
    ///
    /// Bit errors, ECN-off and watchdog wedges are level-set operations
    /// (the last write wins) and may appear anywhere — including during a
    /// down window, which is well-defined: a down link drops everything
    /// regardless of its corruption probability.
    pub fn validate(&self) -> Result<(), String> {
        // Per-link transition timelines. Links start up.
        let mut transitions: std::collections::BTreeMap<usize, Vec<(Time, bool)>> =
            std::collections::BTreeMap::new();
        // Per-(host, class) storm windows.
        let mut storms: std::collections::BTreeMap<(usize, u8), Vec<(Time, Time)>> =
            std::collections::BTreeMap::new();
        for &(at, action) in &self.actions {
            match action {
                FaultAction::LinkDown { link } => {
                    transitions.entry(link.0).or_default().push((at, false));
                }
                FaultAction::LinkUp { link } => {
                    transitions.entry(link.0).or_default().push((at, true));
                }
                FaultAction::PauseStormTick {
                    host,
                    class,
                    until,
                    refresh,
                } => {
                    let storm = format!("fault plan invalid: host {} class {class} storm", host.0);
                    if refresh == Duration::ZERO {
                        return Err(format!("{storm} has a zero refresh interval"));
                    }
                    if until < at {
                        return Err(format!("{storm} ends at {until}, before it starts at {at}"));
                    }
                    storms.entry((host.0, class)).or_default().push((at, until));
                }
                FaultAction::SetBitError { link, drop_prob } => {
                    if !(0.0..=1.0).contains(&drop_prob) {
                        return Err(format!(
                            "fault plan invalid: link {} bit-error probability {drop_prob} \
                             is outside [0, 1]",
                            link.0
                        ));
                    }
                }
                FaultAction::EcnOff { .. } | FaultAction::WedgeWatchdog { .. } => {}
            }
        }
        for (link, events) in &mut transitions {
            events.sort_by_key(|&(at, _)| at);
            let mut up = true;
            let mut prev_at = None;
            for &(at, to_up) in events.iter() {
                if prev_at == Some(at) {
                    return Err(format!(
                        "fault plan invalid: link {link} has two transitions at {at} \
                         (their order would be undefined)"
                    ));
                }
                prev_at = Some(at);
                if to_up == up {
                    let state = if up { "up" } else { "down" };
                    let verb = if to_up { "up" } else { "down" };
                    return Err(format!(
                        "fault plan invalid: link {link} taken {verb} at {at} \
                         while already {state} (overlapping/nested fault windows)"
                    ));
                }
                up = to_up;
            }
        }
        for ((host, class), windows) in &mut storms {
            windows.sort_by_key(|&(from, _)| from);
            for pair in windows.windows(2) {
                let (from_a, until_a) = pair[0];
                let (from_b, _) = pair[1];
                if from_b <= until_a {
                    return Err(format!(
                        "fault plan invalid: host {host} class {class} has \
                         overlapping pause storms ([{from_a}, {until_a}] and \
                         one starting at {from_b})"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// How the fault layer reacts to fault-driven topology changes.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Recompute ECMP routes over the live links on every link state
    /// change (BGP-style failover). With this off, switches keep hashing
    /// flows onto dead next-hops — the pre-reconvergence black hole.
    pub failover: bool,
    /// Seed of the dedicated bit-error RNG stream. Kept separate from the
    /// simulator seed so installing a fault plan never shifts the RED
    /// marking draws of the fault-free portion of a run.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            failover: true,
            seed: 0xFA17,
        }
    }
}

/// Counters kept by the fault layer (always cheap to read; all zero when
/// no fault plan is installed).
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultStats {
    /// Frames lost because their link was down at delivery time.
    pub link_drops: u64,
    /// Frames lost to injected bit errors (CRC failure at the receiver).
    pub crc_drops: u64,
    /// Link up/down transitions executed.
    pub transitions: u64,
    /// Route recomputations performed (failover).
    pub reroutes: u64,
    /// PAUSE frames injected by pause storms.
    pub storm_pauses: u64,
}

impl FaultStats {
    /// The `faults` section of the run report.
    pub fn report(&self) -> Json {
        Json::obj(vec![
            ("crc_drops", Json::UInt(self.crc_drops)),
            ("link_drops", Json::UInt(self.link_drops)),
            ("reroutes", Json::UInt(self.reroutes)),
            ("storm_pauses", Json::UInt(self.storm_pauses)),
            ("transitions", Json::UInt(self.transitions)),
        ])
    }
}

/// Per-link fault state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkState {
    /// Is the link carrying frames?
    pub(crate) up: bool,
    /// Per-frame corruption probability (0 = healthy).
    pub(crate) drop_prob: f64,
}

impl Default for LinkState {
    fn default() -> LinkState {
        LinkState {
            up: true,
            drop_prob: 0.0,
        }
    }
}

/// What happened to a frame crossing a (possibly faulty) link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WireFate {
    /// Delivered intact.
    Deliver,
    /// Lost: the link is down.
    DownDrop,
    /// Lost: corrupted in flight, dropped on CRC failure.
    CrcDrop,
}

/// The network's fault state: link health, the bit-error RNG stream and
/// the fault counters. Inert (one `active` branch on the delivery path)
/// until a fault plan is installed or a link is forced down. Every state
/// transition goes through a method here; the node-side reactions (PFC
/// reset, reroute) are `Network`'s.
#[derive(Debug)]
pub(crate) struct FaultEngine {
    config: FaultConfig,
    stats: FaultStats,
    /// Per-link health, indexed by `LinkId.0`.
    links: Vec<LinkState>,
    active: bool,
    rng: SplitMix64,
}

impl FaultEngine {
    /// An inactive engine covering `num_links` healthy links.
    pub(crate) fn inactive(num_links: usize) -> FaultEngine {
        FaultEngine {
            config: FaultConfig::default(),
            stats: FaultStats::default(),
            links: vec![LinkState::default(); num_links],
            active: false,
            rng: SplitMix64::new(FaultConfig::default().seed),
        }
    }

    /// Activates the engine with `config` (re-seeds the bit-error stream).
    pub(crate) fn activate(&mut self, config: FaultConfig) {
        self.config = config;
        self.rng = SplitMix64::new(config.seed);
        self.active = true;
    }

    /// Hot-path guard: when false, the delivery path skips the fault
    /// layer entirely and a run is byte-identical to pre-fault builds.
    #[inline(always)]
    pub(crate) fn active(&self) -> bool {
        self.active
    }

    /// Should routes be recomputed on a link transition?
    pub(crate) fn failover(&self) -> bool {
        self.config.failover
    }

    /// Fault counters.
    pub(crate) fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Per-link health, indexed by `LinkId.0`.
    pub(crate) fn links(&self) -> &[LinkState] {
        &self.links
    }

    /// Is `link` up?
    pub(crate) fn link_up(&self, link: LinkId) -> bool {
        self.links[link.0].up
    }

    /// Sets `link` up or down. Returns false (and changes nothing) when it
    /// already is; a real transition activates the engine and is counted.
    pub(crate) fn set_link(&mut self, link: LinkId, up: bool) -> bool {
        if self.links[link.0].up == up {
            return false;
        }
        self.active = true;
        self.links[link.0].up = up;
        self.stats.transitions += 1;
        true
    }

    /// Sets `link`'s per-frame corruption probability (0 heals).
    pub(crate) fn set_bit_error(&mut self, link: LinkId, drop_prob: f64) {
        self.active = true;
        self.links[link.0].drop_prob = drop_prob;
    }

    /// Counts one route recomputation.
    pub(crate) fn count_reroute(&mut self) {
        self.stats.reroutes += 1;
    }

    /// Counts one storm-injected PAUSE frame.
    pub(crate) fn count_storm_pause(&mut self) {
        self.stats.storm_pauses += 1;
    }

    /// Decides the fate of one frame crossing `link`, updating counters.
    /// Bit errors hit every frame kind alike — data, ACKs, even PFC
    /// frames (a corrupted RESUME is one of the stuck-queue stories the
    /// watchdog exists for).
    pub(crate) fn wire_fate(&mut self, link: LinkId) -> WireFate {
        let st = self.links[link.0];
        if !st.up {
            self.stats.link_drops += 1;
            return WireFate::DownDrop;
        }
        if st.drop_prob > 0.0 && self.rng.chance(st.drop_prob) {
            self.stats.crc_drops += 1;
            return WireFate::CrcDrop;
        }
        WireFate::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flap_expands_to_paired_transitions() {
        let plan = FaultPlan::new().link_flap(
            LinkId(3),
            Time::from_millis(5),
            Duration::from_millis(1),
            Duration::from_millis(4),
            2,
        );
        let a = plan.actions();
        assert_eq!(a.len(), 4);
        assert_eq!(
            a[0],
            (
                Time::from_millis(5),
                FaultAction::LinkDown { link: LinkId(3) }
            )
        );
        assert_eq!(
            a[1],
            (
                Time::from_millis(6),
                FaultAction::LinkUp { link: LinkId(3) }
            )
        );
        assert_eq!(
            a[2],
            (
                Time::from_millis(9),
                FaultAction::LinkDown { link: LinkId(3) }
            )
        );
        assert_eq!(
            a[3],
            (
                Time::from_millis(10),
                FaultAction::LinkUp { link: LinkId(3) }
            )
        );
    }

    #[test]
    fn builder_accumulates_in_order() {
        let plan = FaultPlan::new()
            .link_down(Time::from_millis(1), LinkId(0))
            .bit_error(Time::from_millis(2), LinkId(1), 1e-3)
            .pause_storm(
                NodeId(7),
                3,
                Time::from_millis(3),
                Time::from_millis(4),
                Duration::from_micros(10),
            )
            .ecn_off(Time::from_millis(5), NodeId(2))
            .link_up(Time::from_millis(6), LinkId(0));
        assert_eq!(plan.actions().len(), 5);
        assert!(!plan.is_empty());
        assert!(matches!(
            plan.actions()[2].1,
            FaultAction::PauseStormTick {
                host: NodeId(7),
                class: 3,
                ..
            }
        ));
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn validate_accepts_well_formed_plans() {
        let plan = FaultPlan::new()
            .link_flap(
                LinkId(0),
                Time::from_millis(1),
                Duration::from_millis(1),
                Duration::from_millis(4),
                3,
            )
            .bit_error(Time::from_millis(2), LinkId(0), 1e-3) // during down: fine
            .bit_error(Time::from_millis(9), LinkId(0), 0.0)
            .pause_storm(
                NodeId(7),
                3,
                Time::from_millis(1),
                Time::from_millis(2),
                Duration::from_micros(10),
            )
            .pause_storm(
                NodeId(7),
                3,
                Time::from_millis(3), // disjoint window, same (host, class)
                Time::from_millis(4),
                Duration::from_micros(10),
            )
            .ecn_off(Time::from_millis(5), NodeId(2))
            .wedge_watchdog(Time::from_millis(6), NodeId(2), PortId(1), 3);
        assert_eq!(plan.validate(), Ok(()));
        assert_eq!(plan.horizon(), Time::from_millis(10), "last flap's up");
    }

    #[test]
    fn validate_rejects_down_while_down() {
        let plan = FaultPlan::new()
            .link_down(Time::from_millis(1), LinkId(2))
            .link_down(Time::from_millis(2), LinkId(2))
            .link_up(Time::from_millis(3), LinkId(2));
        let err = plan.validate().unwrap_err();
        assert!(
            err.contains("link 2") && err.contains("already down"),
            "{err}"
        );
        // The same overlap on *different* links is fine.
        let ok = FaultPlan::new()
            .link_down(Time::from_millis(1), LinkId(2))
            .link_down(Time::from_millis(2), LinkId(3))
            .link_up(Time::from_millis(3), LinkId(2))
            .link_up(Time::from_millis(4), LinkId(3));
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_up_while_up_and_flap_overlap() {
        let up = FaultPlan::new().link_up(Time::from_millis(1), LinkId(0));
        assert!(up.validate().unwrap_err().contains("already up"));
        // Two flaps of the same link whose windows interleave: the second
        // flap's down lands inside the first flap's down window.
        let overlap = FaultPlan::new()
            .link_flap(
                LinkId(1),
                Time::from_millis(1),
                Duration::from_millis(3),
                Duration::from_millis(10),
                1,
            )
            .link_flap(
                LinkId(1),
                Time::from_millis(2),
                Duration::from_millis(1),
                Duration::from_millis(10),
                1,
            );
        assert!(overlap.validate().is_err());
    }

    #[test]
    fn validate_rejects_same_instant_transitions() {
        let plan = FaultPlan::new()
            .link_down(Time::from_millis(5), LinkId(4))
            .link_up(Time::from_millis(5), LinkId(4));
        assert!(plan.validate().unwrap_err().contains("two transitions"));
    }

    #[test]
    fn validate_rejects_overlapping_storms() {
        let plan = FaultPlan::new()
            .pause_storm(
                NodeId(1),
                3,
                Time::from_millis(1),
                Time::from_millis(5),
                Duration::from_micros(10),
            )
            .pause_storm(
                NodeId(1),
                3,
                Time::from_millis(4),
                Time::from_millis(8),
                Duration::from_micros(10),
            );
        assert!(plan
            .validate()
            .unwrap_err()
            .contains("overlapping pause storms"));
        // Same window on a different class is independent.
        let ok = FaultPlan::new()
            .pause_storm(
                NodeId(1),
                3,
                Time::from_millis(1),
                Time::from_millis(5),
                Duration::from_micros(10),
            )
            .pause_storm(
                NodeId(1),
                4,
                Time::from_millis(4),
                Time::from_millis(8),
                Duration::from_micros(10),
            );
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn horizon_of_empty_plan_is_zero() {
        assert_eq!(FaultPlan::new().horizon(), Time::ZERO);
        let storm = FaultPlan::new().pause_storm(
            NodeId(0),
            3,
            Time::from_millis(1),
            Time::from_millis(7),
            Duration::from_micros(50),
        );
        assert_eq!(storm.horizon(), Time::from_millis(7));
    }

    #[test]
    fn wire_fate_on_healthy_link_always_delivers() {
        let mut eng = FaultEngine::inactive(2);
        for _ in 0..100 {
            assert_eq!(eng.wire_fate(LinkId(0)), WireFate::Deliver);
        }
        assert_eq!(eng.stats().link_drops + eng.stats().crc_drops, 0);
        assert!(!eng.active());
    }

    #[test]
    fn wire_fate_on_down_link_drops_everything() {
        let mut eng = FaultEngine::inactive(2);
        assert!(eng.set_link(LinkId(1), false));
        assert!(!eng.set_link(LinkId(1), false), "already down");
        for _ in 0..10 {
            assert_eq!(eng.wire_fate(LinkId(1)), WireFate::DownDrop);
        }
        assert_eq!(eng.stats().link_drops, 10);
        assert_eq!(eng.stats().transitions, 1);
        assert!(eng.active(), "a forced-down link activates the engine");
        assert!(eng.link_up(LinkId(0)) && !eng.link_up(LinkId(1)));
    }

    #[test]
    fn bit_errors_drop_roughly_at_rate_and_deterministically() {
        let mut a = FaultEngine::inactive(1);
        a.activate(FaultConfig {
            failover: true,
            seed: 99,
        });
        a.set_bit_error(LinkId(0), 0.05);
        let fates_a: Vec<WireFate> = (0..10_000).map(|_| a.wire_fate(LinkId(0))).collect();
        let drops = a.stats().crc_drops;
        let rate = drops as f64 / 10_000.0;
        assert!((rate - 0.05).abs() < 0.01, "crc rate {rate}");

        let mut b = FaultEngine::inactive(1);
        b.activate(FaultConfig {
            failover: true,
            seed: 99,
        });
        b.set_bit_error(LinkId(0), 0.05);
        let fates_b: Vec<WireFate> = (0..10_000).map(|_| b.wire_fate(LinkId(0))).collect();
        assert_eq!(fates_a, fates_b, "same seed, same corruption pattern");
    }
}
