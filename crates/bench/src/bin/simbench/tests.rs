//! Tests of the benchmark itself: the workloads are deterministic, the
//! emitted names are the declared ones, and the helpers do what the
//! README says. Workloads run at a ~1 ms horizon here.

use crate::check::{verdict, BOUNDS};
use crate::kernels::KERNELS;
use crate::measure::{nearest_rank, Summary};
use crate::spans::Recorder;
use crate::workloads::{prepare, Outcome, Workload};
use crate::{declared, end_to_end, per_layer, repetition, BENCHMARK_JSON};
use netsim::telemetry::Json;

/// A small scale for `workload`: simulated µs, or chaos cases.
fn small(workload: Workload) -> u64 {
    match workload {
        Workload::ChaosCampaign => 3,
        _ => 1_000,
    }
}

/// Every simulated field of an outcome, bit for bit.
fn simulated(o: &Outcome) -> (u64, [u64; 3], [u64; 3], [u64; 9]) {
    let c = &o.counts;
    (
        o.digest,
        [o.goodput_gbps, o.fct_p50_us, o.fct_p99_us].map(f64::to_bits),
        [o.fct_samples, o.ops_attempted, o.ops_failed],
        [
            c.events,
            c.pkt_hops,
            c.ecn_marks,
            c.pause_tx,
            c.drops,
            c.retx_pkts,
            c.timeouts,
            c.nacks_sent,
            c.cnps_sent,
        ],
    )
}

fn once(workload: Workload, seed: u64, traced: bool) -> Outcome {
    let mut rec = Recorder::new(traced);
    prepare(workload, small(workload), seed, &mut rec).execute(&mut rec)
}

#[test]
fn workloads_are_deterministic_across_builds_and_tracing() {
    for workload in Workload::ALL {
        let a = once(workload, 1, false);
        let b = once(workload, 1, false);
        assert_eq!(simulated(&a), simulated(&b), "{}", workload.name());
        // The traced run slices `run_until`; the model must not notice.
        let traced = once(workload, 1, true);
        assert_eq!(simulated(&a), simulated(&traced), "{}", workload.name());
        assert!(
            a.counts.events > 0 && a.goodput_gbps > 0.0,
            "{}",
            workload.name()
        );
        assert_ne!(
            a.digest,
            once(workload, 2, false).digest,
            "{}",
            workload.name()
        );
    }
}

#[test]
fn observers_do_not_perturb_the_model() {
    let plain = once(Workload::ClosDcqcnMixed, 1, false);
    let observed = once(Workload::ClosDcqcnObserved, 1, false);
    assert_eq!(plain.digest, observed.digest);
    assert_eq!(plain.goodput_gbps, observed.goodput_gbps);
    assert!(observed.artifact_bytes > 0 && plain.artifact_bytes == 0);
    // Sampling ticks are events too; the digest leaves event counts out.
    assert!(observed.counts.events > plain.counts.events);
}

#[test]
fn fault_free_workloads_are_lossless() {
    for workload in Workload::ALL {
        if workload != Workload::ChaosCampaign {
            assert_eq!(
                once(workload, 1, false).counts.drops,
                0,
                "{}",
                workload.name()
            );
        }
    }
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !s.is_empty() && s.len() <= 64 && s.chars().all(ok)
}

#[test]
fn workload_names_are_the_declared_ones() {
    let spec = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let listed: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, ours);
    for name in ours {
        assert!(is_name(name), "{name}");
        assert_eq!(Workload::from_name(name).map(Workload::name), Some(name));
    }
}

/// Parses a result line and returns its metric names.
fn result_names(line: &str) -> Vec<String> {
    let parsed = Json::parse(line).expect("the result line is JSON");
    let Json::Obj(top) = &parsed else {
        panic!("not an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
        panic!("no metrics")
    };
    for (name, m) in metrics {
        assert!(is_name(name), "{name}");
        assert!(m.get("value").and_then(crate::json_num).is_some(), "{name}");
        assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
    }
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

fn sorted(mut names: Vec<String>) -> Vec<String> {
    names.sort();
    names
}

#[test]
fn emitted_metrics_are_exactly_the_declared_ones() {
    let workload = Workload::ClosDcqcnMixed;
    let mut rec = Recorder::new(true);
    let (setup_s, wall_s, outcome) = repetition(workload, small(workload), 1, &mut rec);

    let (wall, setup) = (Summary::of(&[wall_s]), Summary::of(&[setup_s]));
    let line = end_to_end(&wall, &setup, &outcome).result_line(true, 1, 0);
    let names = |list| sorted(declared(list).into_iter().map(|(n, _)| n).collect());
    assert_eq!(sorted(result_names(&line)), names("end_to_end"));

    let line = per_layer(&mut rec, &outcome, 0.0, 10_000).result_line(true, 1, 0);
    assert_eq!(sorted(result_names(&line)), names("per_layer"));
}

#[test]
fn kernel_table_is_constant_and_unambiguous() {
    for (i, k) in KERNELS.iter().enumerate() {
        assert!(k.ops > 0, "{}", k.span);
        assert!(k.span.starts_with("kernel."), "{}", k.span);
        assert!(
            KERNELS[..i].iter().all(|other| other.span != k.span),
            "{}",
            k.span
        );
    }
}

#[test]
fn nearest_rank_agrees_with_netsim_stats() {
    for n in 1..60usize {
        let values: Vec<f64> = (0..n).map(|i| ((i * 7919) % 101) as f64).collect();
        let mut ascending = values.clone();
        ascending.sort_by(f64::total_cmp);
        for p in [0.0, 1.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
            assert_eq!(
                nearest_rank(&ascending, p),
                netsim::stats::percentile(&values, p)
            );
        }
        let s = Summary::of(&values);
        assert_eq!(s.median, netsim::stats::median(&values));
        assert!(s.min <= s.q1 && s.q1 <= s.median && s.median <= s.q3);
    }
}

#[test]
fn self_times_add_up_to_the_root_span() {
    let mut rec = Recorder::new(true);
    repetition(Workload::ClosPfcIncast, 5_000, 1, &mut rec);
    let spans = rec.spans();
    assert_eq!((spans[0].name, spans[0].parent), ("workload", None));
    assert!(spans[1..].iter().all(|s| s.parent.is_some()));
    let slices = spans.iter().filter(|s| s.name == "run.slice").count();
    assert_eq!(slices, 5, "one span per simulated ms");
    assert_eq!(
        rec.self_times_ns().iter().sum::<u64>(),
        spans[0].duration_ns()
    );

    let mut off = Recorder::new(false);
    repetition(Workload::ClosPfcIncast, 1_000, 1, &mut off);
    assert!(off.spans().is_empty());
}

#[test]
fn check_verdicts() {
    let wall = &BOUNDS[0];
    assert_eq!(wall.metric, "wall_s");
    let tight = Some(0.01);
    assert_eq!(verdict(wall, (1.0, tight), (1.07, tight)), "ok");
    assert_eq!(verdict(wall, (1.0, tight), (0.5, tight)), "ok");
    assert_eq!(verdict(wall, (1.0, tight), (1.2, tight)), "regressed");
    assert_eq!(verdict(wall, (1.0, Some(0.2)), (1.2, tight)), "unresolved");
    // Absolute floors: 5 ms of set-up, 2 MB of memory.
    assert_eq!(verdict(&BOUNDS[1], (0.001, tight), (0.004, tight)), "ok");
    assert_eq!(verdict(&BOUNDS[2], (10.0, None), (11.9, None)), "ok");
    // Simulated metrics are exact; goodput is better when higher.
    let goodput = &BOUNDS[3];
    assert_eq!(verdict(goodput, (40.0, None), (40.0, None)), "ok");
    assert_eq!(verdict(goodput, (40.0, None), (41.0, None)), "ok");
    assert_eq!(verdict(goodput, (40.0, None), (39.9, None)), "regressed");
}

#[test]
fn goldens_cover_every_workload_for_seeds_1_and_2() {
    let goldens = Json::parse(crate::GOLDENS_JSON).expect("goldens.json parses");
    for workload in Workload::ALL {
        for seed in ["1", "2"] {
            let digest = goldens
                .get(workload.name())
                .and_then(|w| w.get(seed))
                .and_then(Json::as_str);
            let ok = |d: &str| d.len() == 16 && d.chars().all(|c| c.is_ascii_hexdigit());
            assert!(digest.is_some_and(ok), "{} seed {seed}", workload.name());
        }
    }
    // Observers do not perturb the model: the pair shares its digests.
    assert_eq!(
        goldens.get("clos_dcqcn_observed"),
        goldens.get("clos_dcqcn_mixed")
    );
}
