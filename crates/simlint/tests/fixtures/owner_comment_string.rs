//! Guarded names in comments and strings are not code: last_cnp,
//! unacked, `Event::TxDone { node, port }`.

/// The NP's last_cnp lives in cc.rs; Host keeps no unacked queue.
fn describe() -> &'static str {
    // metrics.inc(metrics.h.forwarded) would be a second count.
    "no last_cnp, consecutive_timeouts or metrics.inc( here"
}
