//! Order statistics over raw samples: no histograms, no estimation.

/// The nearest-rank `q`-quantile (0 < q <= 1) of ascending `sorted`: the
/// smallest sample with at least a `q` share of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many of `n` samples lie beyond the nearest-rank `q`-quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; fewer make it a statement about a handful of requests.
pub const MIN_BEYOND: usize = 10;

/// Whether `n` samples support the `q`-quantile as a tail figure.
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && samples_beyond(n, q) >= MIN_BEYOND
}

/// Sort a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median, interpolated between the middle pair for even counts.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads printed here match the
/// ones computed from the same values elsewhere.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 60 learns support p80 (12 beyond) but not p90 (6 beyond)
        assert_eq!(samples_beyond(60, 0.80), 12);
        assert!(supported(60, 0.80));
        assert!(!supported(60, 0.90));
        // p99 needs 1,000 samples
        assert!(!supported(999, 0.99));
        assert!(supported(1000, 0.99));
        assert!(!supported(0, 0.5));
        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.80), Some(48.0));
        assert_eq!(percentile(&v, 0.5), Some(30.0));
        assert_eq!(percentile(&v, 1.0), Some(60.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
