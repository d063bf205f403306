//! The DCQCN notification point (NP) — the receiver-side CNP generator of
//! §3.1, Figure 6.
//!
//! When a CE-marked packet arrives for a flow and no CNP has been sent for
//! that flow in the last `N` microseconds, a CNP is sent immediately; at
//! most one CNP per `N` per flow is generated. Unmarked packets never
//! generate feedback ("no CNPs are generated in the common case of no
//! congestion").
//!
//! The state machine itself is `netsim::cc::NpState`, the one the
//! simulated receiving NIC runs (`netsim::host::Host::receive_data`) — so
//! Figure 6 as printed by `repro fig6`, the `dcqcn.np_on_packet_ns`
//! kernel and the simulator are one piece of code. It is re-exported here
//! because it is part of DCQCN, and its Figure 6 semantics are pinned by
//! the tests below.

pub use netsim::cc::NpState;

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::units::{Duration, Time};

    fn us(u: u64) -> Time {
        Time::from_micros(u)
    }

    #[test]
    fn first_marked_packet_fires_immediately() {
        let mut np = NpState::paper();
        assert!(np.on_packet(us(1), true));
        assert_eq!(np.last_cnp(), Some(us(1)));
    }

    #[test]
    fn unmarked_packets_never_fire() {
        let mut np = NpState::paper();
        for t in 0..1000 {
            assert!(!np.on_packet(us(t), false));
        }
        assert_eq!(np.last_cnp(), None);
    }

    #[test]
    fn at_most_one_cnp_per_interval() {
        let mut np = NpState::paper();
        assert!(np.on_packet(us(0), true));
        // A burst of marked packets within the window: suppressed.
        for t in 1..50 {
            assert!(!np.on_packet(us(t), true));
        }
        // Window elapsed: next marked packet fires.
        assert!(np.on_packet(us(50), true));
    }

    #[test]
    fn quiet_period_does_not_accumulate_credit() {
        let mut np = NpState::paper();
        assert!(np.on_packet(us(0), true));
        // Long silence, then two marked packets back to back: only one CNP.
        assert!(np.on_packet(us(500), true));
        assert!(!np.on_packet(us(501), true));
    }

    #[test]
    fn rate_is_bounded_by_interval() {
        let mut np = NpState::paper();
        let mut cnps = 0;
        // 1 ms of continuously marked packets every microsecond.
        for t in 0..1000 {
            if np.on_packet(us(t), true) {
                cnps += 1;
            }
        }
        assert_eq!(cnps, 20, "1000 µs / 50 µs per CNP");
    }

    #[test]
    fn custom_interval() {
        let mut np = NpState::new(Duration::from_micros(10));
        assert!(np.on_packet(us(0), true));
        assert!(!np.on_packet(us(9), true));
        assert!(np.on_packet(us(10), true));
    }
}
