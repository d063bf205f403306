//! The post-fault convergence audit: did the fabric return to its
//! quiescent state after the last injected fault cleared? Also the two
//! probes its callers feed it ([`Network::total_queued_bytes`] samples,
//! a [`Network::delivered_snapshot`] baseline).

use super::{Network, Node};
use crate::audit::{check_queue_drain, Violation, ViolationKind};
use crate::event::NodeId;
use crate::packet::NUM_PRIORITIES;
use crate::units::Time;

impl Network {
    /// Sum of queued bytes across every port of every node (switch egress
    /// queues plus host NICs). The convergence drain samples read this.
    pub fn total_queued_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .flat_map(|n| n.ports())
            .map(|p| p.total_queued_bytes())
            .sum()
    }

    /// Per-flow delivered-byte counters indexed by flow id. The
    /// convergence stuck-QP check snapshots this at the start of the
    /// settle window and compares at the end.
    pub fn delivered_snapshot(&self) -> Vec<u64> {
        self.ctx
            .flow_stats
            .iter()
            .map(|s| s.delivered_bytes)
            .collect()
    }

    /// Post-fault convergence audit. Call after the last planned fault
    /// has cleared plus a settling bound: `settle_start` is when the
    /// settle window began (all faults cleared), `baseline` a
    /// [`Network::delivered_snapshot`] taken at `settle_start`, and
    /// `queue_samples` periodic `(time, total_queued_bytes)` probes taken
    /// across the window. Checks, in order:
    ///
    /// 1. every link is up and carries no residual bit-error probability,
    /// 2. every PFC watchdog has restored (no `pfc_ignore` anywhere),
    /// 3. no port has been pause-blocked continuously since before the
    ///    settle window (transient PAUSE under live traffic is normal),
    /// 4. queues drained below `queue_threshold`, or are at least still
    ///    visibly draining (see [`check_queue_drain`]),
    /// 5. every live, unfinished QP made byte progress across the window
    ///    (torn-down QPs are legitimate degradation, not stuck state),
    /// 6. every switch's routes equal a fresh shortest-path computation
    ///    over the current link state.
    ///
    /// The list is returned unconditionally so release campaign runs can
    /// read it; with the `sanitize` feature the violations are also
    /// folded into the auditor as [`ViolationKind::Convergence`] and the
    /// flight recorder is dumped for each violation that names a node.
    ///
    /// The settling bound must exceed the watchdog recovery interval and
    /// the worst-case RTO backoff gap (`rto × rto_backoff_cap`), or
    /// healthy in-progress recovery can be misread as stuck state.
    pub fn check_convergence(
        &mut self,
        settle_start: Time,
        queue_threshold: u64,
        baseline: &[u64],
        queue_samples: &[(Time, u64)],
    ) -> Vec<Violation> {
        let now = self.ctx.queue.now();
        // simlint: allow(hot-alloc) once per chaos case, after the run; an empty Vec does not allocate
        let mut violations: Vec<Violation> = Vec::new();
        let conv = |node: NodeId, context: std::fmt::Arguments<'_>| Violation {
            at: now,
            kind: ViolationKind::Convergence,
            node: Some(node),
            // simlint: allow(hot-alloc) the one message site of this audit, reached only for a violation
            context: context.to_string(),
        };

        // 1. Link health.
        for (i, (l, &(a, _, b, _))) in self.faults.links().iter().zip(&self.edges).enumerate() {
            let (a0, b0) = (a.0, b.0);
            if !l.up {
                violations.push(conv(
                    a,
                    format_args!("link {i} ({a0}-{b0}) still down at convergence check"),
                ));
            }
            if l.drop_prob > 0.0 {
                let p = l.drop_prob;
                violations.push(conv(
                    a,
                    format_args!("link {i} ({a0}-{b0}) still degraded (bit-error p={p})"),
                ));
            }
        }

        // 2 + 3. Port pause state: wedged watchdogs and standing pauses.
        for (ni, node) in self.nodes.iter().enumerate() {
            for (pid, port) in node.ports().iter().enumerate() {
                for c in 0..NUM_PRIORITIES {
                    if port.pfc_ignore[c] {
                        violations.push(conv(
                            NodeId(ni),
                            format_args!(
                                "node {ni} port {pid} class {c}: watchdog still \
                                 tripped (PAUSE ignored) after settle window"
                            ),
                        ));
                    }
                    if port.rx_paused[c] && port.rx_paused_since[c] <= settle_start {
                        let since = port.rx_paused_since[c];
                        violations.push(conv(
                            NodeId(ni),
                            format_args!(
                                "node {ni} port {pid} class {c}: pause-blocked \
                                 continuously since {since} (before settle window)"
                            ),
                        ));
                    }
                }
            }
        }

        // 4. Queue drain across the settle window.
        violations.extend(check_queue_drain(queue_samples, queue_threshold));

        // 5. Stuck QPs: live, unfinished flows must have moved bytes.
        for node in &self.nodes {
            if let Node::Host(h) = node {
                for f in &h.flows {
                    if f.tx.is_dead() || f.tx.is_idle() {
                        continue;
                    }
                    let i = f.id.0 as usize;
                    let before = baseline.get(i).copied().unwrap_or(0);
                    let after = self.ctx.flow_stats.get(i).map_or(0, |s| s.delivered_bytes);
                    if after <= before {
                        violations.push(conv(
                            h.id,
                            format_args!(
                                "flow {} on host {}: live QP made no byte progress \
                                 across the settle window ({after} B delivered)",
                                f.id.0, h.id.0
                            ),
                        ));
                    }
                }
            }
        }

        // 6. Route consistency with the (healed) topology.
        for (node, fresh) in self.nodes.iter().zip(self.live_routes()) {
            if let Node::Switch(s) = node {
                if s.routes != fresh {
                    violations.push(conv(
                        s.id,
                        format_args!(
                            "switch {}: routes differ from a fresh computation \
                             over the current topology (stale failover state)",
                            s.id.0
                        ),
                    ));
                }
            }
        }

        // The two counters no switch, flow or fault field owns.
        let metrics = &mut self.ctx.metrics;
        metrics.inc(metrics.h.convergence_checks);
        metrics.add(metrics.h.convergence_violations, violations.len() as u64);
        self.ctx.audit.record_all(&violations);
        self.dump_new_violations();
        violations
    }
}
