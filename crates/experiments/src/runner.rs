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
//! Thread count: `min(available cores, number of runs)`, overridable with
//! the `REPRO_THREADS` environment variable (`REPRO_THREADS=1` forces the
//! serial path; useful for timing comparisons and debugging).
//!
//! This is plain `std::thread::scope` rather than rayon: the container
//! this repo builds in has no crates.io access, and a work-stealing pool
//! buys nothing for coarse-grained whole-simulation tasks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many worker threads [`par_map`] uses for `runs` independent runs.
///
/// `REPRO_THREADS` (≥ 1) overrides the detected core count. An invalid
/// value (`0`, empty, or unparseable) aborts the process with a clear
/// error instead of silently falling back to all cores: someone setting
/// `REPRO_THREADS=0` while chasing a determinism bug means "serial", and
/// granting them 32 threads instead is the worst possible surprise.
pub fn thread_count(runs: usize) -> usize {
    let cores = match threads_from_env() {
        Ok(Some(n)) => n,
        Ok(None) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    cores.min(runs.max(1))
}

/// The `REPRO_THREADS` override: `None` when unset, `Err` with a
/// one-line message when invalid. `repro` checks it before anything runs.
pub fn threads_from_env() -> Result<Option<usize>, String> {
    parse_repro_threads(std::env::var("REPRO_THREADS").ok().as_deref())
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

/// Runs `f` over every item, in parallel, returning results in item order.
///
/// Results are reassembled by input index, so the output is identical to
/// `items.iter().map(f).collect()` no matter how threads interleave. `f`
/// must be a pure function of its item (all the experiment runs are: they
/// build a fresh `Network` from config + seed and consume it).
pub fn par_map<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let threads = thread_count(items.len());
    if threads <= 1 || items.len() <= 1 {
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

/// Runs `f` once per seed, in parallel, returning results in seed order —
/// the common "repeat the experiment across ECMP draws" shape.
pub fn par_runs<T, F>(seeds: &[u64], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    par_map(seeds, |&s| f(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, |&x| x * 3);
        assert_eq!(out, (0..64).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_runs_matches_serial_map() {
        let seeds: Vec<u64> = (1..=20).collect();
        // A seed-dependent computation with enough work to actually
        // interleave threads.
        let run = |seed: u64| {
            let mut rng = netsim::rng::SplitMix64::new(seed);
            (0..10_000).map(|_| rng.next_u64() & 0xFF).sum::<u64>()
        };
        let serial: Vec<u64> = seeds.iter().map(|&s| run(s)).collect();
        assert_eq!(par_runs(&seeds, run), serial);
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u64> = Vec::new();
        assert_eq!(par_runs(&empty, |s| s).len(), 0);
        assert_eq!(par_runs(&[7], |s| s + 1), vec![8]);
    }

    #[test]
    fn thread_count_is_bounded_by_runs() {
        assert_eq!(thread_count(1), 1);
        assert!(thread_count(1000) >= 1);
        assert!(thread_count(2) <= 2);
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
