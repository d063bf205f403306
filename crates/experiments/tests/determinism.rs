//! The parallel harness contract (see `src/runner.rs`): fanning runs out
//! across threads must reproduce a serial run exactly — same results, in
//! input order, bit-for-bit — and repeated parallel runs must agree with
//! each other. These tests exercise the contract with a *real* simulation
//! (the Clos unfairness scenario), not a toy closure, so they also pin the
//! underlying property that a run is a pure function of config + seed.

use experiments::common::CcChoice;
use experiments::runner::par_map;
use experiments::scenarios::{link_flap_run, unfairness_run};
use netsim::units::{Duration, Time};

/// One short-but-real run: 20 flows over the 3-tier Clos testbed.
fn run(&seed: &u64) -> Vec<f64> {
    unfairness_run(
        CcChoice::None,
        seed,
        Duration::from_millis(2),
        Duration::from_micros(500),
    )
}

/// Bit-exact comparison: `==` on f64 treats -0.0 == 0.0 and NaN != NaN;
/// the determinism guarantee is stronger than numeric equality.
fn assert_bits_eq(a: &[Vec<f64>], b: &[Vec<f64>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        let ba: Vec<u64> = ra.iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u64> = rb.iter().map(|v| v.to_bits()).collect();
        assert_eq!(ba, bb, "{what}: run {i} differs");
    }
}

#[test]
fn parallel_reproduces_serial_run_for_run() {
    let seeds: Vec<u64> = vec![11, 23, 31];

    // Ground truth: a plain serial map, no harness involved.
    let serial: Vec<Vec<f64>> = seeds.iter().map(run).collect();

    // The harness on one thread takes its serial fast path…
    let harness_serial = par_map(1, &seeds, run);
    assert_bits_eq(&serial, &harness_serial, "1 thread vs plain map");

    // …and on many threads (more workers than this box has cores, so the
    // scheduler genuinely interleaves) must still be bit-identical and in
    // seed order.
    let parallel = par_map(4, &seeds, run);
    assert_bits_eq(&serial, &parallel, "4 threads vs plain map");

    // Run-to-run: a second parallel pass agrees with the first.
    let again = par_map(4, &seeds, run);
    assert_bits_eq(&parallel, &again, "repeated parallel runs");
}

/// A run with an active fault plan — link down, reroute, link up, plus
/// the dedicated bit-error RNG stream — is still a pure function of
/// config + seed: fanned out across threads it reproduces the serial
/// timeline bit-for-bit.
#[test]
fn faulted_runs_are_deterministic_under_parallelism() {
    let faulted = |&seed: &u64| -> Vec<f64> {
        let r = link_flap_run(
            CcChoice::None,
            true,
            seed,
            Time::from_millis(1),
            Time::from_millis(3),
            Duration::from_millis(5),
        );
        let mut out = r.bins;
        out.push(r.aborts as f64);
        out.push(r.reroutes as f64);
        out.push(r.link_drops as f64);
        out
    };
    let seeds: Vec<u64> = vec![7, 19];
    let serial: Vec<Vec<f64>> = seeds.iter().map(faulted).collect();
    assert!(
        serial.iter().all(|r| r[r.len() - 1] > 0.0),
        "the flap really dropped packets on the wire"
    );
    let parallel = par_map(4, &seeds, faulted);
    assert_bits_eq(&serial, &parallel, "faulted 4 threads vs plain map");
    let again = par_map(4, &seeds, faulted);
    assert_bits_eq(&parallel, &again, "repeated faulted parallel runs");
}

#[test]
fn par_map_preserves_input_order_under_contention() {
    // Unequal work per item so fast items finish while slow ones are still
    // running — completion order is scrambled, output order must not be.
    let items: Vec<(u64, u32)> = (0..32).map(|i| (i, (i % 7) as u32)).collect();
    let out = par_map(8, &items, |&(seed, extra)| {
        let mut rng = netsim::rng::SplitMix64::new(seed);
        let spins = 1_000 + extra as usize * 10_000;
        (0..spins).map(|_| rng.next_u64() & 0xF).sum::<u64>()
    });
    let serial: Vec<u64> = items
        .iter()
        .map(|&(seed, extra)| {
            let mut rng = netsim::rng::SplitMix64::new(seed);
            let spins = 1_000 + extra as usize * 10_000;
            (0..spins).map(|_| rng.next_u64() & 0xF).sum::<u64>()
        })
        .collect();
    assert_eq!(out, serial);
}
