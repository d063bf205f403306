//! Packet and frame definitions.
//!
//! The simulator models RoCEv2-style traffic: UDP/IP-encapsulated IB
//! transport segments, plus the control frames the paper's machinery needs —
//! acknowledgements (with NAK for go-back-N), Congestion Notification
//! Packets (CNPs, RoCEv2 §17.9) and link-local PFC PAUSE/RESUME frames
//! (802.1Qbb).

use crate::event::NodeId;

/// Per-data-packet protocol overhead in bytes: Ethernet (18, header + FCS),
/// IPv4 (20), UDP (8), IB BTH (12) and ICRC + padding (6).
pub const HEADER_BYTES: u64 = HEADER_WIRE as u64;

/// [`HEADER_BYTES`] as a [`Packet::wire_bytes`] value.
const HEADER_WIRE: u32 = 64;

/// The largest data payload whose frame fits [`Packet::wire_bytes`]: the
/// largest `mtu_payload` a `HostConfig` may carry.
pub(crate) const MAX_PAYLOAD: u32 = u32::MAX - HEADER_WIRE;

/// Wire size of small control frames (ACK/NAK/CNP/PFC): minimum Ethernet
/// frame.
const CONTROL_WIRE: u32 = 64;

/// Globally unique flow identifier (stands in for the 5-tuple / queue pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

/// 802.1p priority / PFC class. Lower value = higher scheduling priority in
/// this simulator.
pub type Priority = u8;

/// Number of PFC priority classes, as in the paper's switches.
pub const NUM_PRIORITIES: usize = 8;

/// Priority used for control traffic (ACKs and CNPs). The paper sends CNPs
/// "with high priority, to avoid missing the CNP deadline".
pub(crate) const CONTROL_PRIORITY: Priority = 0;

/// Default priority class for RDMA data traffic.
pub const DATA_PRIORITY: Priority = 3;

/// ECN codepoint carried in the IP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ecn {
    /// Not ECN-capable transport (control frames).
    NotEct,
    /// ECN-capable, not marked.
    Ect,
    /// Congestion experienced (marked by a switch).
    Ce,
}

/// What a packet is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// An RoCE data segment: `psn` sequence number, true payload bytes,
    /// and an end-of-message flag (the receiver ACKs message tails
    /// immediately, like RoCE's per-operation acknowledgements).
    Data {
        /// Packet sequence number.
        psn: u64,
        /// Payload bytes carried.
        payload: u32,
        /// Last packet of its message.
        eom: bool,
    },
    /// Cumulative acknowledgement: everything below `cum_psn` received in
    /// order. `acked` / `marked` count data packets (and CE-marked ones)
    /// covered since the previous ACK — DCTCP uses the ratio.
    Ack {
        /// Next PSN the receiver expects (everything below is delivered).
        cum_psn: u64,
        /// Data packets newly covered by this ACK (at most a host's
        /// `ack_every`, which `HostConfig` keeps within `u16`).
        acked: u16,
        /// How many of those carried CE.
        marked: u16,
    },
    /// Out-of-sequence NAK (go-back-N): receiver expected `expected_psn`.
    Nack {
        /// The PSN the receiver needs next.
        expected_psn: u64,
    },
    /// Congestion Notification Packet sent by the NP to the flow's source.
    Cnp,
    /// Link-local PFC frame for `class`; `pause == false` means RESUME (the
    /// paper's switches use Xoff/Xon rather than timed pause quanta).
    Pfc {
        /// The 802.1p class the frame applies to.
        class: Priority,
        /// PAUSE (true) or RESUME (false).
        pause: bool,
    },
}

/// A packet in flight or queued. All-POD and `Copy`: moving packets
/// between pool slots and the wire is a memcpy, never an allocation. It is
/// copied several times per hop, so it is kept at 48 bytes.
#[derive(Debug, Clone, Copy)]
pub struct Packet {
    /// What this packet is.
    pub kind: PacketKind,
    /// Originating host (or switch, for PFC frames).
    pub src: NodeId,
    /// Destination host. PFC frames are consumed by the immediate neighbor
    /// and never routed, so their `dst` is the neighbor.
    pub dst: NodeId,
    /// Flow this packet belongs to (ACK/NAK/CNP reference the data flow).
    pub flow: FlowId,
    /// PFC / scheduling class.
    pub priority: Priority,
    /// Total bytes occupied on the wire and in switch buffers; byte
    /// counters read it widened, through [`Packet::wire`].
    pub wire_bytes: u32,
    /// ECN codepoint.
    pub ecn: Ecn,
}

impl Packet {
    /// Builds a data segment of `payload` bytes.
    ///
    /// A host never asks for more than its `mtu_payload`, whose frame
    /// `HostConfig` checks fits a `u32`; a larger `payload` saturates the
    /// frame fields instead of wrapping them.
    pub fn data(
        src: NodeId,
        dst: NodeId,
        flow: FlowId,
        priority: Priority,
        psn: u64,
        payload: u64,
    ) -> Packet {
        debug_assert!(
            payload <= u64::from(MAX_PAYLOAD),
            "a {payload} B payload does not fit a frame"
        );
        let payload = u32::try_from(payload).unwrap_or(u32::MAX);
        Packet {
            kind: PacketKind::Data {
                psn,
                payload,
                eom: false,
            },
            src,
            dst,
            flow,
            priority,
            wire_bytes: payload.saturating_add(HEADER_WIRE),
            ecn: Ecn::Ect,
        }
    }

    /// Builds a cumulative ACK (optionally carrying DCTCP-style ECN-echo
    /// counts).
    pub fn ack(
        src: NodeId,
        dst: NodeId,
        flow: FlowId,
        cum_psn: u64,
        acked: u16,
        marked: u16,
    ) -> Packet {
        Packet {
            kind: PacketKind::Ack {
                cum_psn,
                acked,
                marked,
            },
            src,
            dst,
            flow,
            priority: CONTROL_PRIORITY,
            wire_bytes: CONTROL_WIRE,
            ecn: Ecn::NotEct,
        }
    }

    /// Builds a go-back-N NAK.
    pub fn nack(src: NodeId, dst: NodeId, flow: FlowId, expected_psn: u64) -> Packet {
        Packet {
            kind: PacketKind::Nack { expected_psn },
            src,
            dst,
            flow,
            priority: CONTROL_PRIORITY,
            wire_bytes: CONTROL_WIRE,
            ecn: Ecn::NotEct,
        }
    }

    /// Builds a CNP addressed to the flow's source.
    pub(crate) fn cnp(src: NodeId, dst: NodeId, flow: FlowId) -> Packet {
        Packet {
            kind: PacketKind::Cnp,
            src,
            dst,
            flow,
            priority: CONTROL_PRIORITY,
            wire_bytes: CONTROL_WIRE,
            ecn: Ecn::NotEct,
        }
    }

    /// Builds a link-local PFC PAUSE (`pause = true`) or RESUME frame.
    pub fn pfc(src: NodeId, dst: NodeId, class: Priority, pause: bool) -> Packet {
        Packet {
            kind: PacketKind::Pfc { class, pause },
            src,
            dst,
            flow: FlowId(u64::MAX),
            priority: CONTROL_PRIORITY,
            wire_bytes: CONTROL_WIRE,
            ecn: Ecn::NotEct,
        }
    }

    /// Bytes this frame occupies on the wire and in buffers, widened for
    /// the `u64` byte counters: the one way they read [`Packet::wire_bytes`].
    #[inline]
    pub fn wire(&self) -> u64 {
        u64::from(self.wire_bytes)
    }

    /// True for RoCE data segments.
    pub(crate) fn is_data(&self) -> bool {
        matches!(self.kind, PacketKind::Data { .. })
    }

    /// Marks the packet with Congestion Experienced if it is ECN-capable.
    /// Returns true when a mark was applied.
    pub fn mark_ce(&mut self) -> bool {
        match self.ecn {
            Ecn::Ect => {
                self.ecn = Ecn::Ce;
                true
            }
            Ecn::Ce => true,
            Ecn::NotEct => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn data_wire_size_includes_headers() {
        let p = Packet::data(n(0), n(1), FlowId(7), DATA_PRIORITY, 0, 1436);
        assert_eq!(p.wire(), 1500);
        assert!(matches!(p.kind, PacketKind::Data { payload: 1436, .. }));
        assert!(p.is_data());
        assert_eq!(p.ecn, Ecn::Ect);
    }

    /// Every constructor reads back its inputs at the edges of the
    /// narrowed fields: an empty and a largest-MTU payload, the last PSN,
    /// and ACK counts at `u16::MAX`.
    #[test]
    fn constructors_round_trip_at_the_range_edges() {
        let (src, dst, flow) = (n(usize::MAX), n(0), FlowId(u64::MAX));
        let largest = u64::from(MAX_PAYLOAD);
        for (psn, payload) in [(0, 0), (u64::MAX, largest), (u64::MAX, 0), (0, largest)] {
            let p = Packet::data(src, dst, flow, 7, psn, payload);
            let PacketKind::Data {
                psn: got,
                payload: carried,
                eom,
            } = p.kind
            else {
                panic!("{:?}", p.kind);
            };
            assert_eq!((got, u64::from(carried), eom), (psn, payload, false));
            assert_eq!(p.wire(), payload + HEADER_BYTES);
            assert_eq!((p.src, p.dst, p.flow, p.priority), (src, dst, flow, 7));
        }
        assert_eq!(
            Packet::data(src, dst, flow, 0, 0, largest).wire_bytes,
            u32::MAX
        );

        for (cum_psn, acked, marked) in [(0, 0, 0), (u64::MAX, u16::MAX, u16::MAX)] {
            let p = Packet::ack(src, dst, flow, cum_psn, acked, marked);
            let want = PacketKind::Ack {
                cum_psn,
                acked,
                marked,
            };
            assert_eq!((p.kind, p.src, p.dst, p.flow), (want, src, dst, flow));
        }
        for expected_psn in [0, u64::MAX] {
            let p = Packet::nack(src, dst, flow, expected_psn);
            assert_eq!(p.kind, PacketKind::Nack { expected_psn });
        }
        let p = Packet::cnp(src, dst, flow);
        assert_eq!(
            (p.kind, p.src, p.dst, p.flow),
            (PacketKind::Cnp, src, dst, flow)
        );
        let p = Packet::pfc(src, dst, u8::MAX, true);
        let want = PacketKind::Pfc {
            class: u8::MAX,
            pause: true,
        };
        assert_eq!((p.kind, p.src, p.dst), (want, src, dst));
    }

    #[test]
    fn control_frames_are_minimum_size_and_not_ect() {
        for p in [
            Packet::ack(n(0), n(1), FlowId(1), 10, 4, 1),
            Packet::nack(n(0), n(1), FlowId(1), 3),
            Packet::cnp(n(0), n(1), FlowId(1)),
            Packet::pfc(n(0), n(1), 3, true),
        ] {
            assert_eq!(p.wire_bytes, CONTROL_WIRE);
            assert_eq!(p.ecn, Ecn::NotEct);
            assert!(!p.is_data());
        }
    }

    #[test]
    fn pfc_frames_are_recognized() {
        let p = Packet::pfc(n(0), n(1), 3, false);
        match p.kind {
            PacketKind::Pfc { class, pause } => {
                assert_eq!(class, 3);
                assert!(!pause);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn marking_only_applies_to_ect() {
        let mut d = Packet::data(n(0), n(1), FlowId(1), 3, 0, 100);
        assert!(d.mark_ce());
        assert_eq!(d.ecn, Ecn::Ce);
        assert!(d.mark_ce(), "already-marked stays marked");

        let mut a = Packet::ack(n(0), n(1), FlowId(1), 1, 1, 0);
        assert!(!a.mark_ce());
        assert_eq!(a.ecn, Ecn::NotEct);
    }

    #[test]
    fn control_packets_use_control_priority() {
        assert_eq!(
            Packet::cnp(n(0), n(1), FlowId(1)).priority,
            CONTROL_PRIORITY
        );
        assert_eq!(
            Packet::ack(n(0), n(1), FlowId(1), 0, 0, 0).priority,
            CONTROL_PRIORITY
        );
    }
}
