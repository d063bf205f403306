//! Fault actions on the fabric: checking a plan against what was built,
//! scheduling it, and the node-side effects of each action (PFC reset,
//! route repair, storm frames, watchdog wedges). The link-health state
//! and counters themselves are [`crate::faults::FaultEngine`]'s.

use super::{Network, Node};
use crate::ecn::RedConfig;
use crate::event::{Event, LinkId, NodeId, PortId};
use crate::faults::{storm_pause_edge, FaultAction, FaultConfig, FaultPlan, FaultStats};
use crate::packet::{FlowId, Packet, NUM_PRIORITIES};
use crate::routing::{compute_routes_masked, RouteTable};
use crate::trace::TraceKind;
use crate::units::Duration;

impl Network {
    /// Checks `plan` against itself ([`FaultPlan::validate`]) and against
    /// the built fabric: every link, node kind, port and priority class an
    /// action names must exist. `Err` carries one line naming the action
    /// and the bound it broke.
    pub fn check_faults(&self, plan: &FaultPlan) -> Result<(), String> {
        plan.validate()?;
        let n_links = self.edges.len();
        let links = format!("the fabric has {n_links} links");
        let nodes = format!("the fabric has {} nodes", self.nodes.len());
        let classes = format!("PFC has {NUM_PRIORITIES} classes");
        // `fault` names `what` number `index`, which must be below `len`.
        let below = |fault: &str, what: &str, index: usize, len: usize, bound: &str| {
            if index < len {
                return Ok(());
            }
            Err(format!(
                "fault plan invalid: {fault} names {what} {index} but {bound}"
            ))
        };
        // The node `id`, which must exist and be a host (or a switch).
        let node = |fault: &str, id: NodeId, host: bool| {
            let (want, other) = if host {
                ("host", "switch")
            } else {
                ("switch", "host")
            };
            below(fault, want, id.0, self.nodes.len(), &nodes)?;
            let node = &self.nodes[id.0];
            if matches!(node, Node::Host(_)) == host {
                return Ok(node);
            }
            let id = id.0;
            Err(format!(
                "fault plan invalid: {fault} names {want} {id} but node {id} is a {other}"
            ))
        };
        for &(_, action) in plan.actions() {
            match action {
                FaultAction::LinkDown { link } => {
                    below("link_down", "link", link.0, n_links, &links)?
                }
                FaultAction::LinkUp { link } => below("link_up", "link", link.0, n_links, &links)?,
                FaultAction::SetBitError { link, .. } => {
                    below("bit_error", "link", link.0, n_links, &links)?
                }
                FaultAction::EcnOff { switch } => {
                    node("ecn_off", switch, false)?;
                }
                FaultAction::PauseStormTick { host, class, .. } => {
                    let fault = "pause_storm";
                    node(fault, host, true)?;
                    below(fault, "class", class.into(), NUM_PRIORITIES, &classes)?;
                }
                FaultAction::WedgeWatchdog {
                    switch,
                    port,
                    class,
                } => {
                    let fault = "wedge_watchdog";
                    let ports = node(fault, switch, false)?.ports().len();
                    let bound = format!("switch {} has {ports} ports", switch.0);
                    below(fault, "port", port.0, ports, &bound)?;
                    below(fault, "class", class.into(), NUM_PRIORITIES, &classes)?;
                }
            }
        }
        Ok(())
    }

    /// Installs a fault plan: activates the fault engine (with `config`'s
    /// failover policy and bit-error seed) and schedules every planned
    /// action on the event queue. Actions planned in the past fire
    /// immediately (clamped to now).
    ///
    /// # Panics
    /// Panics with [`Network::check_faults`]'s message when the plan is
    /// rejected: overlapping or nested events on the same link/storm
    /// (their interleaving would be undefined) or an action naming
    /// something the fabric does not have — caught up front, not as an
    /// index error when the fault fires.
    pub fn install_faults(&mut self, plan: &FaultPlan, config: FaultConfig) {
        if let Err(msg) = self.check_faults(plan) {
            panic!("{msg}");
        }
        self.faults.activate(config);
        let now = self.ctx.queue.now();
        for &(at, action) in plan.actions() {
            self.ctx
                .queue
                .schedule(at.max(now), Event::Fault { action });
        }
    }

    /// Fault-engine counters (all zero when no faults were injected).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats()
    }

    /// Is `link` currently up? (Always true before any fault injection.)
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.faults.link_up(link)
    }

    /// Administratively sets one link up or down, immediately.
    ///
    /// A transition (either direction) fails both directions at once and
    /// resets PFC state on both endpoints — a repaired link comes back
    /// with a clean slate, and a dead one cannot leave its neighbor
    /// stuck honoring a PAUSE whose RESUME will never arrive. With
    /// failover enabled (the default) routes are recomputed over the
    /// surviving topology. Packets already in flight on the link when it
    /// dies are lost (counted as fault drops).
    pub fn set_link_state(&mut self, link: LinkId, up: bool) {
        if !self.faults.set_link(link, up) {
            return;
        }
        let (a, pa, b, pb) = self.edges[link.0];
        self.reset_pfc_at(a, pa);
        self.reset_pfc_at(b, pb);
        let kind = if up {
            TraceKind::LinkUp
        } else {
            TraceKind::LinkDown
        };
        self.ctx
            .record_trace(a, FlowId(u64::MAX), kind, link.0 as u64);
        if self.faults.failover() {
            self.recompute_routes();
        }
    }

    /// Shortest-path ECMP routes over the currently-up links, one table
    /// per node: what every switch should hold right now.
    pub(super) fn live_routes(&self) -> Vec<RouteTable> {
        // simlint: allow(hot-alloc) per fault-induced topology change and once per convergence check, never per packet
        let down: Vec<bool> = self.faults.links().iter().map(|l| !l.up).collect();
        compute_routes_masked(self.nodes.len(), &self.edges, &down, &self.dests)
    }

    /// Gives every switch its [`Network::live_routes`] table.
    pub(super) fn install_routes(&mut self) {
        let tables = self.live_routes();
        for (node, table) in self.nodes.iter_mut().zip(tables) {
            if let Node::Switch(s) = node {
                s.routes = table;
            }
        }
    }

    /// Recomputes every switch's routing table over the currently-up
    /// links (route failover / restoration).
    pub fn recompute_routes(&mut self) {
        self.install_routes();
        self.faults.count_reroute();
    }

    /// Clears all PFC state on one endpoint of a transitioning link and
    /// kicks its transmitter (it may have been pause-blocked).
    fn reset_pfc_at(&mut self, node: NodeId, port: PortId) {
        let Network { nodes, ctx, .. } = self;
        ctx.audit.on_pfc_reset(node, port.0);
        match &mut nodes[node.0] {
            Node::Switch(s) => s.reset_link_pfc(ctx, port),
            Node::Host(h) => {
                h.port.reset_pfc();
                h.try_send(ctx);
                h.update_spans(ctx);
            }
        }
    }

    /// Executes one scheduled fault action (`Event::Fault`). The plan was
    /// checked against the fabric at install, so the indices are in range.
    pub(super) fn apply_fault(&mut self, action: FaultAction) {
        match action {
            FaultAction::LinkDown { link } => self.set_link_state(link, false),
            FaultAction::LinkUp { link } => self.set_link_state(link, true),
            FaultAction::SetBitError { link, drop_prob } => {
                self.faults.set_bit_error(link, drop_prob)
            }
            FaultAction::EcnOff { switch } => {
                // The §5 misconfiguration case: marking silently stops.
                self.switch_mut(switch).config.red = RedConfig::disabled();
            }
            FaultAction::PauseStormTick {
                host,
                class,
                until,
                refresh,
            } => {
                let now = self.ctx.queue.now();
                let Network {
                    nodes, ctx, faults, ..
                } = self;
                if let Node::Host(h) = &mut nodes[host.0] {
                    if let Some(att) = h.port.attach {
                        h.port
                            .pfc_queue
                            .push_back(Packet::pfc(host, att.peer, class, true));
                        faults.count_storm_pause();
                        if ctx.spans.is_enabled() {
                            ctx.spans
                                .record_pause_edge(storm_pause_edge(host, att, class, now));
                        }
                        h.try_send(ctx);
                        h.update_spans(ctx);
                    }
                }
                let next = now + refresh;
                if refresh > Duration::ZERO && next <= until {
                    self.ctx.queue.schedule(next, Event::Fault { action });
                }
            }
            FaultAction::WedgeWatchdog {
                switch,
                port,
                class,
            } => {
                let Network { nodes, ctx, .. } = self;
                if let Node::Switch(s) = &mut nodes[switch.0] {
                    s.wedge_watchdog(ctx, port, class as usize);
                }
            }
        }
    }
}
