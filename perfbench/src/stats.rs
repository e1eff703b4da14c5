//! Order statistics shared by every phase of the benchmark.

/// The median of `values` (the mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The percentiles a tail is reported at, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_PERCENTILES`] that leaves at least ten
/// samples strictly beyond it, with its value: `(percentile, value)`.
/// Falls back to the maximum when there are ten samples or fewer.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    for p in TAIL_PERCENTILES {
        // Nearest-rank percentile: the smallest value with at least p% of
        // the samples at or below it.
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        if n - rank >= 10 {
            return Some((p, v[rank - 1]));
        }
    }
    Some((100.0, v[n - 1]))
}

/// The value at quantile `q` (0..=1) by nearest rank.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    Some(v[rank.min(v.len()) - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples leaves exactly 10 beyond it; p95 leaves 5.
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        assert_eq!(tail(&[5.0, 7.0]), Some((100.0, 7.0)));
    }
}
