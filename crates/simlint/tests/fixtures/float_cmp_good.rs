pub(crate) fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    if (xs[0] - 0.5).abs() < 1e-9 {
        return 0.5;
    }
    xs[xs.len() / 2]
}
