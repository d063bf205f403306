pub(crate) fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if xs[0] == 0.5 {
        return 0.5;
    }
    xs[xs.len() / 2]
}
