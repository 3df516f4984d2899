//! Order statistics over latency samples.

/// Latency recorded for an op that failed: it misses every limit, so it
/// sorts above every real sample.
pub const FAILED_MS: f64 = 1e9;

/// Nearest-rank percentile (`q` in 0..=1): the smallest sample with at
/// least `q` of the samples at or below it. With `n` samples it leaves
/// `n - ceil(q n)` samples beyond it.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Checks that a percentile has at least ten samples beyond it.
pub fn supports(samples: usize, q: f64) -> bool {
    samples >= 1 && samples - ((q * samples as f64).ceil() as usize).min(samples) >= 10
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Mean of the last tenth of `samples` over the mean of the first tenth:
/// how a per-op cost grows over a run.
pub fn growth(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let tenth = (samples.len() / 10).max(1);
    mean(&samples[samples.len() - tenth..]) / mean(&samples[..tenth])
}

/// First and third quartiles as Python's `statistics.quantiles(data, n=4)`
/// computes them (the default "exclusive" method). Needs two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len() as i64;
    assert!(ld >= 2, "quartiles need at least two samples");
    let m = ld + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (data[(j - 1) as usize] * (4.0 - delta) + data[j as usize] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), (2.75, 8.25));
    }

    #[test]
    fn p90_of_100_leaves_ten_beyond() {
        let data: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&data, 0.9), 90.0);
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert!(supports(20, 0.5));
        assert!(supports(1000, 0.99));
    }
}
