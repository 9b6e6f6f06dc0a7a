//! Summary statistics the metrics are reported with.

/// Minimum number of samples that must lie strictly above a reported
/// tail percentile: a tail read from fewer samples is one outlier.
pub const TAIL_MARGIN: usize = 10;

/// Sorted copy of `values` (NaN sorts last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle pair for an even count);
/// `None` on an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The highest-percentile sample that still has at least
/// [`TAIL_MARGIN`] samples beyond it: the element at sorted index
/// `n − 1 − TAIL_MARGIN`. Returns the sample and the percentile it
/// sits at (its 1-based rank over `n`, in percent). With
/// `TAIL_MARGIN` or fewer samples no percentile qualifies and the
/// maximum is returned at 100%, so a short run still reports a value.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let idx = n.saturating_sub(1 + TAIL_MARGIN);
    let idx = if n > TAIL_MARGIN { idx } else { n - 1 };
    Some((v[idx], 100.0 * (idx + 1) as f64 / n as f64))
}

/// Geometric mean of strictly positive values; `None` if empty or any
/// value is not positive and finite.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Arithmetic mean; 0 on an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples 1..=100: ten lie above the 90th, so the tail is 90.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&v).unwrap();
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), TAIL_MARGIN);
        // 1000 samples: the 99th percentile qualifies.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap(), (990.0, 99.0));
    }

    #[test]
    fn tail_of_a_short_sample_is_the_maximum() {
        let v = [5.0, 1.0, 9.0];
        assert_eq!(tail(&v).unwrap(), (9.0, 100.0));
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap(), (10.0, 100.0));
        // Eleven samples: exactly ten beyond the minimum.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().0, 1.0);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (1..=50).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail(&v).unwrap().0, 40.0);
    }

    #[test]
    fn geomean_rejects_non_positive() {
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
        assert_eq!(geomean(&[]), None);
    }
}
