//! Order statistics over timing samples.

/// How many samples must lie beyond a percentile for it to be reported
/// (choosing-metrics §1: "the highest percentile that has at least ten
/// samples beyond it").
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` at `q` in `(0, 1]`: the smallest
/// sample such that at least `q` of the sample is at or below it. `None`
/// for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let sorted = sorted(samples);
    rank(sorted.len(), q).map(|r| sorted[r - 1])
}

/// [`percentile`], withheld unless at least [`MIN_SAMPLES_BEYOND`] samples
/// lie strictly beyond the chosen rank — p99 needs 1,000 samples, p50 needs
/// 20.
pub fn percentile_guarded(samples: &[f64], q: f64) -> Option<f64> {
    let r = rank(samples.len(), q)?;
    if samples.len() - r < MIN_SAMPLES_BEYOND {
        return None;
    }
    percentile(samples, q)
}

/// The median as the mean of the two middle samples (or the middle one).
/// Used for repeated measurements of one quantity, where there are few
/// samples and no tail to describe. `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// One-based nearest rank for quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    Some(((q * n as f64).ceil() as usize).clamp(1, n))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so the functions must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.50), Some(50.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&ramp(7), 0.5), Some(4.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&s, 0.0), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 999 samples: rank 990, nine beyond — withheld.
        assert_eq!(percentile_guarded(&ramp(999), 0.99), None);
        // 1,000 samples: rank 990, ten beyond — reported.
        assert_eq!(percentile_guarded(&ramp(1000), 0.99), Some(990.0));
        // The same rule for the median: 19 samples leave nine beyond.
        assert_eq!(percentile_guarded(&ramp(19), 0.5), None);
        assert_eq!(percentile_guarded(&ramp(20), 0.5), Some(10.0));
    }

    #[test]
    fn median_interpolates_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
