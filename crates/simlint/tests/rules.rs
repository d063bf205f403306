//! Fixture-based rule tests: every rule has a bad fixture it fires on
//! and a good fixture it stays silent on, plus false-positive fixtures
//! for string/raw-string literals, suppression scoping, and
//! `#[cfg(test)]` region tracking.

use simlint::rules::OWNERS;
use simlint::{analyze_sources, Analysis};

fn analyze_one(rel: &str, src: &str) -> Analysis {
    analyze_sources(&[(rel.to_owned(), src.to_owned())])
}

fn rules_fired(a: &Analysis) -> Vec<&'static str> {
    let mut v: Vec<&'static str> = a.findings.iter().map(|f| f.rule).collect();
    v.sort();
    v.dedup();
    v
}

#[test]
fn map_iter_fires_on_bad_and_not_on_good() {
    let bad = analyze_one("map_iter_bad.rs", include_str!("fixtures/map_iter_bad.rs"));
    assert_eq!(rules_fired(&bad), vec!["map-iter"], "{:#?}", bad.findings);
    assert_eq!(bad.findings.len(), 2, "method form + for-in form");

    let good = analyze_one(
        "map_iter_good.rs",
        include_str!("fixtures/map_iter_good.rs"),
    );
    assert!(good.findings.is_empty(), "{:#?}", good.findings);
}

#[test]
fn map_iter_sees_through_type_aliases() {
    let bad = analyze_one("map_iter_bad.rs", include_str!("fixtures/map_iter_bad.rs"));
    // The `routes` receiver is typed via the `RouteTable = HashMap` alias.
    assert!(
        bad.findings.iter().any(|f| f.msg.contains("routes")),
        "{:#?}",
        bad.findings
    );
}

#[test]
fn counter_arith_fires_on_bad_and_not_on_good() {
    let bad = analyze_one(
        "counter_arith_bad.rs",
        include_str!("fixtures/counter_arith_bad.rs"),
    );
    assert_eq!(
        rules_fired(&bad),
        vec!["counter-arith"],
        "{:#?}",
        bad.findings
    );
    assert_eq!(bad.findings.len(), 2, "+= and bare -");

    let good = analyze_one(
        "counter_arith_good.rs",
        include_str!("fixtures/counter_arith_good.rs"),
    );
    assert!(good.findings.is_empty(), "{:#?}", good.findings);
}

#[test]
fn counter_arith_scope_is_computed_from_field_decls() {
    // Same tokens, but no u64 counter field declared: out of scope.
    let a = analyze_one(
        "free.rs",
        "pub fn f(occupied: u32) -> u32 { occupied + 1 }\n",
    );
    assert!(a.findings.is_empty(), "{:#?}", a.findings);
}

#[test]
fn float_cmp_fires_on_bad_and_not_on_good() {
    // Stats-file scoping comes from the path, not the fixture name.
    let bad = analyze_one(
        "crates/netsim/src/stats.rs",
        include_str!("fixtures/float_cmp_bad.rs"),
    );
    assert_eq!(rules_fired(&bad), vec!["float-cmp"], "{:#?}", bad.findings);
    assert_eq!(bad.findings.len(), 2, "partial_cmp().unwrap() + literal ==");

    let good = analyze_one(
        "crates/netsim/src/stats.rs",
        include_str!("fixtures/float_cmp_good.rs"),
    );
    assert!(good.findings.is_empty(), "{:#?}", good.findings);

    // Outside stats code only the partial_cmp().unwrap() half applies.
    let elsewhere = analyze_one(
        "crates/netsim/src/other.rs",
        include_str!("fixtures/float_cmp_bad.rs"),
    );
    assert_eq!(elsewhere.findings.len(), 1, "{:#?}", elsewhere.findings);
}

#[test]
fn hot_unwrap_fires_on_bad_and_not_on_good() {
    let bad = analyze_one(
        "hot_unwrap_bad.rs",
        include_str!("fixtures/hot_unwrap_bad.rs"),
    );
    assert_eq!(rules_fired(&bad), vec!["hot-unwrap"], "{:#?}", bad.findings);
    let f = &bad.findings[0];
    assert!(
        f.chain
            .as_deref()
            .unwrap_or("")
            .starts_with("Network::run_until"),
        "chain should start at the root: {:?}",
        f.chain
    );

    let good = analyze_one(
        "hot_unwrap_good.rs",
        include_str!("fixtures/hot_unwrap_good.rs"),
    );
    assert!(
        good.findings.is_empty(),
        "cold unwrap + hot let-else must be clean: {:#?}",
        good.findings
    );
}

#[test]
fn metric_lookup_fires_on_bad_and_not_on_good() {
    let bad = analyze_one(
        "metric_lookup_bad.rs",
        include_str!("fixtures/metric_lookup_bad.rs"),
    );
    assert_eq!(
        rules_fired(&bad),
        vec!["metric-lookup"],
        "{:#?}",
        bad.findings
    );
    assert_eq!(bad.findings.len(), 2, "literal name + name variable");

    let good = analyze_one(
        "metric_lookup_good.rs",
        include_str!("fixtures/metric_lookup_good.rs"),
    );
    assert!(
        good.findings.is_empty(),
        "field access + cold by-name read must be clean: {:#?}",
        good.findings
    );
}

#[test]
fn determinism_taint_fires_with_call_chain() {
    let bad = analyze_one(
        "determinism_taint_bad.rs",
        include_str!("fixtures/determinism_taint_bad.rs"),
    );
    assert_eq!(
        rules_fired(&bad),
        vec!["determinism-taint"],
        "{:#?}",
        bad.findings
    );
    assert_eq!(bad.findings.len(), 2, "Instant + env read");
    for f in &bad.findings {
        assert_eq!(
            f.chain.as_deref(),
            Some("Network::run_until → Network::tick"),
            "{f:#?}"
        );
    }

    let good = analyze_one(
        "determinism_taint_good.rs",
        include_str!("fixtures/determinism_taint_good.rs"),
    );
    assert!(
        good.findings.is_empty(),
        "virtual clock + cold env read must be clean: {:#?}",
        good.findings
    );
}

#[test]
fn hot_alloc_fires_on_bad_and_not_on_good() {
    let bad = analyze_one(
        "hot_alloc_bad.rs",
        include_str!("fixtures/hot_alloc_bad.rs"),
    );
    assert_eq!(rules_fired(&bad), vec!["hot-alloc"], "{:#?}", bad.findings);
    let msgs: Vec<&str> = bad.findings.iter().map(|f| f.msg.as_str()).collect();
    for needle in ["Vec::new", "format!", "Box::new", ".clone()", ".collect()"] {
        assert!(
            msgs.iter().any(|m| m.contains(needle)),
            "missing {needle}: {msgs:#?}"
        );
    }

    let good = analyze_one(
        "hot_alloc_good.rs",
        include_str!("fixtures/hot_alloc_good.rs"),
    );
    assert!(
        good.findings.is_empty(),
        "scratch reuse + cold setup must be clean: {:#?}",
        good.findings
    );
}

#[test]
fn shard_safety_inventories_shared_state() {
    let bad = analyze_one(
        "shard_safety_bad.rs",
        include_str!("fixtures/shard_safety_bad.rs"),
    );
    assert_eq!(
        rules_fired(&bad),
        vec!["shard-safety"],
        "{:#?}",
        bad.findings
    );
    let msgs: Vec<&str> = bad.findings.iter().map(|f| f.msg.as_str()).collect();
    for needle in ["static mut", "thread_local!", "`Rc`", "`RefCell`"] {
        assert!(
            msgs.iter().any(|m| m.contains(needle)),
            "missing {needle}: {msgs:#?}"
        );
    }

    let good = analyze_one(
        "shard_safety_good.rs",
        include_str!("fixtures/shard_safety_good.rs"),
    );
    assert!(good.findings.is_empty(), "{:#?}", good.findings);
}

#[test]
fn string_and_raw_string_literals_cannot_false_positive() {
    let a = analyze_one(
        "string_literal_fp.rs",
        include_str!("fixtures/string_literal_fp.rs"),
    );
    assert!(
        a.findings.is_empty(),
        "literal contents are opaque to every rule: {:#?}",
        a.findings
    );
}

#[test]
fn suppression_matches_rule_names_exactly() {
    let a = analyze_one(
        "suppress_scoping.rs",
        include_str!("fixtures/suppress_scoping.rs"),
    );
    let of = |rule: &str| -> Vec<u32> {
        let hits = a.findings.iter().filter(|f| f.rule == rule);
        hits.map(|f| f.line).collect()
    };
    // += 2 (prefix "counter" is not the rule) and += 4 (wrong rule)
    // survive; += 1 (exact), += 3 (all), += 5 (comma list) are allowed.
    assert_eq!(of("counter-arith"), vec![9, 10], "{:#?}", a.findings);
    let lines: Vec<u32> = a.suppressed.iter().map(|s| s.line).collect();
    assert_eq!(lines, vec![7, 11, 13]);
    assert!(a.suppressed.iter().all(|s| s.reason == "fixture"));
    // The two allows that silenced nothing are findings themselves.
    assert_eq!(of("unused-allow"), vec![8, 10], "{:#?}", a.findings);
    assert_eq!(a.findings.len(), 4);
}

#[test]
fn allow_without_a_reason_does_not_suppress() {
    let src = |reason: &str| {
        format!(
            "pub struct B {{ occupied: u64 }}\n\
             impl B {{ pub fn f(&mut self) {{\n\
             // simlint: allow(counter-arith){reason}\n\
             self.occupied += 1;\n}} }}\n"
        )
    };
    let with = analyze_one("b.rs", &src(" reviewed: test scaffolding"));
    assert!(with.findings.is_empty(), "{:#?}", with.findings);
    assert_eq!(with.suppressed[0].reason, "reviewed: test scaffolding");
    assert_eq!(with.suppressed[0].line, 4);

    let without = analyze_one("b.rs", &src("  "));
    let fired: Vec<_> = without.findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(fired, vec![("unused-allow", 3), ("counter-arith", 4)]);
    assert!(without.suppressed.is_empty());
    assert!(without.findings[0].msg.contains("no reason"));
}

#[test]
fn allow_above_clean_code_is_reported_as_unused() {
    let a = analyze_one(
        "clean.rs",
        "// simlint: allow(hot-alloc) nothing here allocates\npub fn f() -> u32 { 1 }\n",
    );
    assert_eq!(rules_fired(&a), vec!["unused-allow"], "{:#?}", a.findings);
    assert_eq!(a.findings[0].line, 1);
    assert!(a.findings[0].msg.contains("allow(hot-alloc)"));
}

#[test]
fn cfg_test_exemption_ends_at_module_close() {
    let a = analyze_one(
        "cfg_test_scoping.rs",
        include_str!("fixtures/cfg_test_scoping.rs"),
    );
    assert_eq!(a.findings.len(), 1, "{:#?}", a.findings);
    assert_eq!(
        a.findings[0].line, 16,
        "only the post-test-module production code fires"
    );
}

const UNUSED_PUB_SURFACE: &str = include_str!("fixtures/unused_pub_surface.rs");

/// The `unused_pub_surface.rs` fixture as netsim's `lib.rs` (with
/// `surface` substituted when given), called from another crate, an
/// integration test and an example; `drop` leaves one caller out.
fn unused_pub_workspace(surface: Option<&str>, drop: Option<&str>) -> Analysis {
    let sources = [
        (
            "crates/netsim/src/lib.rs",
            surface.unwrap_or(UNUSED_PUB_SURFACE),
        ),
        (
            "crates/other/src/lib.rs",
            include_str!("fixtures/unused_pub_callers.rs"),
        ),
        (
            "crates/netsim/tests/it.rs",
            "#[test]\nfn t() { netsim::from_test(); }\n",
        ),
        (
            "examples/demo.rs",
            "fn main() { println!(\"{}\", netsim::FROM_EXAMPLE); }\n",
        ),
    ];
    let kept: Vec<(String, String)> = sources
        .iter()
        .filter(|(rel, _)| Some(*rel) != drop)
        .map(|(rel, src)| (rel.to_string(), src.to_string()))
        .collect();
    analyze_sources(&kept)
}

/// `pub <kind> <Owner::name>` of every unused-pub finding, in line order.
fn unused_pub_items(a: &Analysis) -> Vec<&str> {
    let hits = a.findings.iter().filter(|f| f.rule == "unused-pub");
    hits.map(|f| f.msg.split('`').nth(1).unwrap()).collect()
}

#[test]
fn unused_pub_fires_where_no_caller_names_the_item() {
    let a = unused_pub_workspace(None, None);
    // Silent: uses from another crate, an integration test, an example
    // and a doctest; `Report`, named only in a used signature; both
    // fields of the struct literal; the allowed, `pub(crate)` and test
    // items.
    assert_eq!(
        unused_pub_items(&a),
        [
            "pub fn in_a_text_block",
            "pub field Queue::depth",
            "pub fn Queue::enable",
            "pub field Report::unread",
            "pub struct Orphan",
            "pub field Orphan::x",
        ],
        "{:#?}",
        a.findings
    );
    assert_eq!(a.findings.len(), 6, "{:#?}", a.findings);
    let tolerated = UNUSED_PUB_SURFACE
        .lines()
        .position(|l| l.contains("pub fn tolerated"))
        .unwrap() as u32
        + 1;
    let suppressed: Vec<_> = a.suppressed.iter().map(|s| (s.rule, s.line)).collect();
    assert_eq!(suppressed, [("unused-pub", tolerated)]);
}

#[test]
fn unused_pub_fires_once_the_only_caller_is_gone() {
    for (caller, item) in [
        ("crates/other/src/lib.rs", "pub fn from_crate"),
        ("crates/netsim/tests/it.rs", "pub fn from_test"),
        ("examples/demo.rs", "pub const FROM_EXAMPLE"),
    ] {
        let a = unused_pub_workspace(None, Some(caller));
        assert!(
            unused_pub_items(&a).contains(&item),
            "{caller}: {a:#?}",
            a = a.findings
        );
    }
    let undocumented = UNUSED_PUB_SURFACE.replace("//! let q = netsim::Queue::new();\n", "");
    let a = unused_pub_workspace(Some(&undocumented), None);
    assert!(
        unused_pub_items(&a).contains(&"pub fn Queue::new"),
        "{:#?}",
        a.findings
    );
}

#[test]
fn unused_pub_only_audits_netsim() {
    let a = analyze_one("crates/other/src/lib.rs", "pub fn nobody_calls_me() {}\n");
    assert!(a.findings.is_empty(), "{:#?}", a.findings);
}

/// One `(file, source)` case where the row fires and one where it stays
/// quiet, for each row of `OWNERS`, in table order.
type OwnerCase = ((&'static str, &'static str), (&'static str, &'static str));
const OWNER_CASES: [OwnerCase; 17] = [
    (
        (
            "crates/netsim/src/switch.rs",
            "fn tx(q: &mut Q) { q.schedule(t, Event::TxDone { node, port }); }\n",
        ),
        (
            "crates/netsim/src/port.rs",
            "fn tx(q: &mut Q) { q.schedule(t, Event::TxDone { node, port }); }\n",
        ),
    ),
    (
        (
            "crates/netsim/src/host.rs",
            "fn d(e: Event) { match e { Event::Deliver { pkt, .. } => drop(pkt), _ => {} } }\n",
        ),
        (
            "crates/netsim/src/network.rs",
            "fn d(e: Event) { match e { Event::Deliver { pkt, .. } => drop(pkt), _ => {} } }\n",
        ),
    ),
    (
        (
            "crates/netsim/src/network.rs",
            "fn other() -> TraceEvent { TraceEvent { at, node } }\n",
        ),
        (
            "crates/netsim/src/network.rs",
            "struct Ctx;\nimpl Ctx { fn record_trace(&mut self) { let e = TraceEvent { at, node }; } }\n",
        ),
    ),
    (
        (
            "crates/netsim/src/host.rs",
            "struct Host { last_cnp: Option<Time> }\n",
        ),
        (
            "crates/netsim/src/cc.rs",
            "struct Np { last_cnp: Option<Time> }\n",
        ),
    ),
    (
        (
            "crates/netsim/src/host.rs",
            "fn f(q: &Qp) -> u32 { q.consecutive_timeouts }\n",
        ),
        (
            "crates/netsim/src/qp.rs",
            "fn f(q: &Qp) -> u32 { q.consecutive_timeouts }\n",
        ),
    ),
    (
        (
            "crates/netsim/src/switch.rs",
            "fn f(metrics: &mut M) { metrics.inc(metrics.h.forwarded); }\n",
        ),
        (
            "crates/netsim/src/network/converge.rs",
            "impl Network { fn check_convergence(&mut self) { metrics.inc(metrics.h.convergence_checks); } }\n",
        ),
    ),
    (
        (
            "crates/netsim/src/audit.rs",
            "struct Auditor { fault_drops: u64 }\n",
        ),
        (
            "crates/netsim/src/network/report.rs",
            "fn f(h: &H, id: u32) -> bool { id == h.fault_drops }\n",
        ),
    ),
    (
        ("crates/experiments/src/lib.rs", "fn banner(id: &str) {}\n"),
        ("crates/experiments/src/lib.rs", "fn main() { let banner = 1; }\n"),
    ),
    (
        (
            "crates/netsim/src/telemetry/spans.rs",
            "fn f(out: &mut Vec<Json>) {}\n",
        ),
        (
            "crates/netsim/src/network/report.rs",
            "fn f(out: &mut Vec<Json>) {}\n",
        ),
    ),
    (
        ("crates/netsim/src/chaos.rs", "fn shrink_case(case: &Case) {}\n"),
        (
            "crates/experiments/src/chaos.rs",
            "fn shrink_case(case: &Case) {}\n",
        ),
    ),
    (
        (
            "crates/experiments/src/fig05_red_curve.rs",
            "fn p(r: &Red, q: u64) -> f64 { (q - r.kmin_bytes) as f64 / (r.kmax_bytes - r.kmin_bytes) as f64 }\n",
        ),
        (
            "crates/netsim/src/ecn.rs",
            "fn p(r: &Red, q: u64) -> f64 { (q - r.kmin_bytes) as f64 / (r.kmax_bytes - r.kmin_bytes) as f64 }\n",
        ),
    ),
    (
        (
            "crates/experiments/src/fig07_rp_trace.rs",
            "fn cut(&mut self) { self.rc *= 1.0 - self.alpha / 2.0; }\n",
        ),
        (
            "crates/dcqcn/src/rp.rs",
            "fn cut(&mut self) { self.rc *= 1.0 - self.alpha / 2.0; }\n",
        ),
    ),
    (
        (
            "crates/dcqcn/src/params.rs",
            "fn paper() -> P { P { cnp_interval: Duration::from_micros(50) } }\n",
        ),
        (
            "crates/netsim/src/cc.rs",
            "const CNP_INTERVAL: Duration = Duration::from_micros(50);\n",
        ),
    ),
    (
        (
            "crates/experiments/src/common.rs",
            "fn f(cfg: &mut C) { cfg.buffer.threshold = PfcThreshold::Static(25_000); }\n",
        ),
        (
            "crates/experiments/src/common.rs",
            "fn f(cfg: &mut C) { cfg.buffer.threshold = PfcThreshold::Static(static_pfc_bound(&cfg.buffer)); }\n",
        ),
    ),
    (
        (
            "crates/netsim/src/telemetry/hist.rs",
            "fn rank(n: u64, p: f64) -> u64 { ((p.clamp(0.0, 100.0) / 100.0 * n as f64).ceil() as u64).max(1) }\n",
        ),
        (
            "crates/netsim/src/stats.rs",
            "fn rank(n: u64, p: f64) -> u64 { ((p.clamp(0.0, 100.0) / 100.0 * n as f64).ceil() as u64).max(1) }\n",
        ),
    ),
    (
        (
            "crates/netsim/src/switch.rs",
            "impl Switch { fn inject(&mut self, pkt: Packet) { self.ports[0].enqueue(Queued::new(pkt, None)); } }\n",
        ),
        (
            "crates/netsim/src/switch.rs",
            "impl Switch { fn receive(&mut self, pkt: Packet) { self.ports[0].enqueue(Queued::new(pkt, None)); } }\n",
        ),
    ),
    (
        (
            "crates/experiments/src/runner.rs",
            "fn serial() { std::env::set_var(\"REPRO_THREADS\", \"1\"); }\n",
        ),
        (
            "crates/experiments/src/runner.rs",
            "fn threads() -> Option<String> { std::env::var(\"REPRO_THREADS\").ok() }\n",
        ),
    ),
];

/// The paper rows stay quiet at their declared second copies, in a
/// label string, and in simbench's frozen kernels, which type 50 µs as a
/// loop step.
#[test]
fn owner_paper_rows_are_quiet_where_declared() {
    for (file, src) in [
        (
            "crates/fluid/src/params.rs",
            "fn p(&self, q: f64) -> f64 { self.pmax * (q - self.kmin_pkts) / (self.kmax_pkts - self.kmin_pkts) }\n",
        ),
        (
            "crates/fluid/src/fixedpoint.rs",
            "fn q(params: &P, p: f64) -> f64 { params.kmin_pkts + p / params.pmax * (params.kmax_pkts - params.kmin_pkts) }\n",
        ),
        (
            "crates/baselines/src/dctcp.rs",
            "fn on_ack(&mut self) { self.alpha = (1.0 - self.params.g) * self.alpha; self.cwnd *= 1.0 - self.alpha / 2.0; }\n",
        ),
        (
            "crates/experiments/src/fig07_rp_trace.rs",
            "fn run() { row(\"CNP\", Time::ZERO, &rp, \"cut: R_T=R_C_old, R_C*=(1-alpha/2)\"); }\n",
        ),
        (
            "crates/netsim/src/buffer.rs",
            "impl SharedBuffer { fn pfc_threshold(&self) -> u64 { self.config.shared_pool() } }\n",
        ),
        (
            "crates/bench/src/bin/simbench/kernels.rs",
            "fn np() { now += Duration::from_micros(50); b.threshold = PfcThreshold::Static(25_000); }\n",
        ),
    ] {
        let a = analyze_one(file, src);
        assert!(a.findings.is_empty(), "{file}: {:#?}", a.findings);
    }
}

#[test]
fn owner_fires_outside_each_home_and_not_inside_it() {
    assert_eq!(OWNER_CASES.len(), OWNERS.len(), "one case pair per row");
    for (row, (fires, quiet)) in OWNERS.iter().zip(OWNER_CASES) {
        let a = analyze_one(fires.0, fires.1);
        let hits: Vec<_> = a.findings.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(hits, [("owner", 1)], "{}: {:#?}", row.pattern, a.findings);
        assert!(a.findings[0].msg.contains(row.pattern), "{:#?}", a.findings);
        assert!(a.findings[0].msg.contains(row.why), "{:#?}", a.findings);
        let q = analyze_one(quiet.0, quiet.1);
        assert!(q.findings.is_empty(), "{}: {:#?}", row.pattern, q.findings);
    }
}

/// A `#[cfg(test)]` helper mid-file exempts only itself: the field after
/// it is still checked (a scan that stops at the first `#[cfg(test)]`
/// missed it).
#[test]
fn owner_reads_past_a_test_helper_in_the_middle_of_a_file() {
    let a = analyze_one(
        "crates/netsim/src/host.rs",
        include_str!("fixtures/owner_cfg_test_midfile.rs"),
    );
    let hits: Vec<_> = a.findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(hits, [("owner", 15)], "{:#?}", a.findings);
    assert!(a.findings[0].msg.contains("`last_cnp`"));
}

/// A guarded name that appears only in a comment or a string is not a
/// second copy (a text search fired on it).
#[test]
fn owner_ignores_comments_and_strings() {
    let a = analyze_one(
        "crates/netsim/src/host.rs",
        include_str!("fixtures/owner_comment_string.rs"),
    );
    assert!(a.findings.is_empty(), "{:#?}", a.findings);
}
