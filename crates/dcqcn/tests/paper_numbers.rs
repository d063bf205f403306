//! The numbers the paper prints, each beside the code that computes or
//! holds it: §4's buffer-threshold arithmetic, Eq. 5's marking curve on
//! the deployed RED, and every deployed row of PAPER.md's parameter
//! table (Fig. 14). A wrong value fails with its row's name.
//!
//! **Rounding rule.** The computed value, in decimal units (1 KB =
//! 1000 B), agrees with the printed value to within one unit of its last
//! printed digit: printed 24.47 KB admits 24.46 < x < 24.48 KB. A value
//! printed as `1/d` is checked as its reciprocal `d`.

use dcqcn::params::{red_deployed, DcqcnParams};
use dcqcn::thresholds;
use netsim::buffer::BufferConfig;
use netsim::units::Bandwidth;

/// Does `computed` agree with `printed` under the rounding rule?
fn agrees(printed: &str, computed: f64) -> bool {
    if let Some(den) = printed.strip_prefix("1/") {
        return agrees(den, 1.0 / computed);
    }
    let decimals = printed.split_once('.').map_or(0, |(_, frac)| frac.len());
    let digits: f64 = printed.replace('.', "").parse().expect("a printed number");
    let scaled = computed * 10f64.powi(decimals as i32);
    (scaled - digits).abs() < 1.0
}

/// Checks every `(row, printed, unit, computed)` and names each row that
/// disagrees.
fn check(rows: &[(&str, &str, &str, f64)]) {
    let wrong: Vec<String> = rows
        .iter()
        .filter(|(_, printed, _, computed)| !agrees(printed, *computed))
        .map(|(row, printed, unit, computed)| {
            format!("{row}: the paper prints {printed} {unit}, the code has {computed} {unit}")
        })
        .collect();
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

fn kb(bytes: u64) -> f64 {
    bytes as f64 / 1000.0
}

fn mbps(b: Bandwidth) -> f64 {
    b.0 as f64 / 1e6
}

/// §4 on the Trident II switch: t_flight, the static t_PFC bound, the
/// infeasible naive ECN bound and the β = 8 dynamic ECN bound.
#[test]
fn section_4_thresholds() {
    let r = thresholds::report(&BufferConfig::trident2(), 8.0);
    check(&[
        ("t_flight", "22.4", "KB", kb(r.t_flight)),
        ("static t_PFC bound", "24.47", "KB", kb(r.t_pfc_static)),
        ("naive t_ECN bound", "0.8", "KB", kb(r.t_ecn_naive)),
        ("β = 8 t_ECN bound", "21.7", "KB", kb(r.t_ecn_dynamic)),
    ]);
}

/// Every deployed row of PAPER.md's parameter table.
#[test]
fn figure_14_deployed_parameters() {
    let p = DcqcnParams::paper();
    let red = red_deployed();
    check(&[
        ("N", "50", "µs", p.cnp_interval.as_micros_f64()),
        ("K", "55", "µs", p.alpha_timer.as_micros_f64()),
        ("T", "55", "µs", p.rate_timer.as_micros_f64()),
        ("B", "10", "MB", p.byte_counter as f64 / 1e6),
        ("F", "5", "steps", f64::from(p.fast_recovery_steps)),
        ("R_AI", "40", "Mbps", mbps(p.rai)),
        ("R_HAI", "400", "Mbps", mbps(p.rhai)),
        ("g", "1/256", "", p.g),
        ("K_min", "5", "KB", kb(red.kmin_bytes)),
        ("K_max", "200", "KB", kb(red.kmax_bytes)),
        ("P_max", "1", "%", red.pmax * 100.0),
    ]);
}

/// Eq. 5 on the deployed RED: 0 at K_min, P_max/2 halfway, P_max at
/// K_max and 1 past it, with P_max as the paper prints it (1 %).
#[test]
fn equation_5_on_the_deployed_red() {
    let red = red_deployed();
    let (kmin, kmax) = (red.kmin_bytes, red.kmax_bytes);
    let pmax = 0.01;
    for (point, q, want) in [
        ("at K_min", kmin, 0.0),
        ("halfway", (kmin + kmax) / 2, pmax / 2.0),
        ("at K_max", kmax, pmax),
        ("past K_max", kmax + 1, 1.0),
    ] {
        let p = red.mark_probability(q);
        assert!(
            (p - want).abs() < 1e-12,
            "Eq. 5 {point} (q = {q} B): p = {p}, want {want}"
        );
    }
}
