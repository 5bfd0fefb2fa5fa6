//! Order statistics over the samples of one run.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 when there are none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `p`-th percentile (0 to 100) of `values`, interpolating between
/// the two nearest ranks; 0 when there are none.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (below, above) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

/// The highest percentile that still has at least ten samples beyond
/// it, as `(percentile, value)`; `None` below twenty samples, where
/// that percentile would sit under the median.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 20 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let index = n - 11;
    Some((100.0 * (index + 1) as f64 / n as f64, sorted[index]))
}

/// First and third quartile, by the exclusive method Python's
/// `statistics.quantiles(values, n=4)` uses; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 75.0), 4.0);
        assert_eq!(percentile(&values, 90.0), 4.6);
        assert_eq!(percentile(&values, 50.0), median(&values));
        assert_eq!(percentile(&[], 75.0), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&values), Some((90.0, 90.0)));
        assert_eq!(tail(&values[..19]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
