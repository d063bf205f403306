//! The parallel run harness: fan independent simulation runs out across
//! cores.
//!
//! Every experiment repeats the same simulation over independent inputs —
//! ECMP seeds, parameter points, schemes. Each run is a pure function of
//! its configuration and seed (`netsim`'s event queue is deterministic and
//! every random draw comes from a per-run `SplitMix64`), so runs share no
//! state and can execute in any order on any thread. The harness exploits
//! exactly that: [`par_map`] executes one closure per input on a scoped
//! worker pool and reassembles results **in input order**, so the printed
//! tables are byte-identical to a serial run — a property
//! `tests/determinism.rs` asserts.
//!
//! Thread count: the caller passes it. `repro` reads it once, with
//! [`threads_from_env`] — `REPRO_THREADS`, or all cores when that is unset
//! (`REPRO_THREADS=1` forces the serial path; useful for timing
//! comparisons and debugging) — into its [`crate::report::Run`], and
//! experiments pass `run.threads`. [`par_map`] uses at most one worker per
//! run.
//!
//! This is plain `std::thread::scope` rather than rayon: the container
//! this repo builds in has no crates.io access, and a work-stealing pool
//! buys nothing for coarse-grained whole-simulation tasks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The worker count `repro` runs with: `REPRO_THREADS` (≥ 1) when set,
/// else the detected core count. `Err` carries a one-line message for an
/// invalid value (`0`, empty, or unparseable), which `repro` turns into
/// exit 2 before anything runs instead of silently falling back to all
/// cores: someone setting `REPRO_THREADS=0` while chasing a determinism
/// bug means "serial", and granting them 32 threads instead is the worst
/// possible surprise. The only reader of `REPRO_THREADS`.
pub fn threads_from_env() -> Result<usize, String> {
    let set = parse_repro_threads(std::env::var("REPRO_THREADS").ok().as_deref())?;
    Ok(set.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())))
}

/// Parses a `REPRO_THREADS` value: `None` when unset (use detected
/// cores), `Some(n)` for a valid override, `Err` for anything else.
fn parse_repro_threads(var: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = var else {
        return Ok(None);
    };
    match raw.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        Ok(_) => Err(format!(
            "REPRO_THREADS={raw}: thread count must be >= 1 (use 1 for a serial run)"
        )),
        Err(_) => Err(format!(
            "REPRO_THREADS={raw:?}: expected a positive integer thread count"
        )),
    }
}

/// Runs `f` over every item on up to `threads` workers, returning results
/// in item order.
///
/// Results are reassembled by input index, so the output is identical to
/// `items.iter().map(f).collect()` no matter how threads interleave. `f`
/// must be a pure function of its item (all the experiment runs are: they
/// build a fresh `Network` from config + seed and consume it).
pub fn par_map<I, T, F>(threads: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let out = f(&items[i]);
                *slots[i].lock().unwrap() = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(4, &items, |&x| x * 3);
        assert_eq!(out, (0..64).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_matches_serial_map() {
        let seeds: Vec<u64> = (1..=20).collect();
        // A seed-dependent computation with enough work to actually
        // interleave threads.
        let run = |&seed: &u64| {
            let mut rng = netsim::rng::SplitMix64::new(seed);
            (0..10_000).map(|_| rng.next_u64() & 0xFF).sum::<u64>()
        };
        let serial: Vec<u64> = seeds.iter().map(run).collect();
        assert_eq!(par_map(4, &seeds, run), serial);
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u64> = Vec::new();
        assert_eq!(par_map(4, &empty, |&s| s).len(), 0);
        assert_eq!(par_map(4, &[7], |&s| s + 1), vec![8]);
    }

    #[test]
    fn thread_count_is_bounded_by_runs() {
        let me = std::thread::current().id();
        let on = |threads, runs: &[u8]| par_map(threads, runs, |_| std::thread::current().id());
        // One thread, or one run, takes the serial path on the caller.
        assert!(on(1, &[0, 1, 2]).iter().all(|&id| id == me));
        assert_eq!(on(8, &[0]), [me]);
        // More threads than runs: each run still runs once, on a worker.
        let ids = on(8, &[0, 1]);
        assert!(ids.len() == 2 && ids.iter().all(|&id| id != me));
    }

    #[test]
    fn valid_repro_threads_values_parse() {
        assert_eq!(parse_repro_threads(None), Ok(None));
        assert_eq!(parse_repro_threads(Some("1")), Ok(Some(1)));
        assert_eq!(parse_repro_threads(Some("8")), Ok(Some(8)));
    }

    #[test]
    fn invalid_repro_threads_values_are_rejected() {
        // Regression: these used to silently fall back to all cores —
        // `REPRO_THREADS=0` during a determinism hunt ran 32-wide.
        for bad in ["0", "", "all", "-1", "1.5"] {
            let err = parse_repro_threads(Some(bad)).expect_err(bad);
            assert!(err.contains("REPRO_THREADS"), "error names the var: {err}");
        }
    }
}
