//! Summary statistics for the benchmark's samples.

/// Fewest samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle two for an even count); `None`
/// for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `p` (0 < p < 100) of `values`.
///
/// Refuses (`None`) a percentile with fewer than [`MIN_BEYOND`] samples
/// ranked above it: with 40 samples p75 is the highest it reports, and
/// p90 needs at least 100.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if n == 0 || !(1..=n).contains(&rank) || n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// The highest of the usual percentiles that `values` supports, as
/// `(p, value)`.
pub fn highest_supported(values: &[f64]) -> Option<(f64, f64)> {
    [99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find_map(|p| percentile(values, p).map(|v| (p, v)))
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        // p95 of 100 leaves 5 samples beyond it.
        assert_eq!(percentile(&hundred, 95.0), None);
        // 99 samples: p90 is rank 90, with 9 beyond.
        assert_eq!(percentile(&hundred[..99], 90.0), None);
        let forty = &hundred[..40];
        assert_eq!(percentile(forty, 75.0), Some(30.0));
        assert_eq!(percentile(forty, 90.0), None);
        assert_eq!(percentile(&hundred[..10], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn highest_supported_percentile_follows_the_sample_count() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(highest_supported(&v), Some((75.0, 30.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(highest_supported(&v), Some((99.0, 990.0)));
        assert_eq!(highest_supported(&[1.0; 5]), None);
    }

    #[test]
    fn ratio_of_zero_base_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
