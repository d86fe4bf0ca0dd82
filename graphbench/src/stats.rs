//! Order statistics over latency samples.

/// Sort ascending; samples are finite by construction.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// Median of an ascending slice (mean of the two middle values when even);
/// 0 for an empty slice.
pub fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile of an ascending slice; 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of nanosecond samples, in the unit `ns_per_unit` nanoseconds long.
pub fn median_ns(samples: &[u64], ns_per_unit: f64) -> f64 {
    median(&sorted(samples.iter().map(|&ns| ns as f64).collect())) / ns_per_unit
}

/// Nearest-rank quantile of nanosecond samples, in the same unit.
pub fn quantile_ns(samples: &[u64], q: f64, ns_per_unit: f64) -> f64 {
    quantile(&sorted(samples.iter().map(|&ns| ns as f64).collect()), q) / ns_per_unit
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the rule the driver
/// applies to repeated runs). Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
        //   == [3.5, 24.0, 160.0]
        let v: Vec<f64> = (0..10).map(|i| f64::from(1 << i)).collect();
        assert_eq!(quartiles(&v), (3.5, 24.0, 160.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.95), 19.0);
        assert_eq!(quantile(&v, 0.5), 10.0);
        assert_eq!(median(&v), 10.5);
        assert_eq!(median_ns(&[3_000, 1_000, 2_000], 1e3), 2.0);
        assert_eq!(quantile_ns(&[3_000, 1_000, 2_000], 0.95, 1e3), 3.0);
    }
}
