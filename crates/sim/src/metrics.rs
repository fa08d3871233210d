//! Measurement accumulators.

/// A fixed-bin histogram over `[0, 1]`, used to accumulate the blame PDFs
/// of Figure 5: the unit-interval view of [`concilium_obs::Histogram`],
/// which owns the binning rule (`1.0` lands in the last bin).
///
/// # Examples
///
/// ```
/// use concilium_sim::Histogram;
///
/// let mut h = Histogram::new(10);
/// h.add(0.05);
/// h.add(0.95);
/// h.add(0.97);
/// assert_eq!(h.count(), 3);
/// assert!((h.fraction_at_least(0.9) - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram(concilium_obs::Histogram);

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    pub fn new(bins: usize) -> Self {
        Histogram(concilium_obs::Histogram::new(0.0, 1.0, bins))
    }

    /// Adds a sample. The bench drivers feed Eq. 2–3 blame values, which
    /// the combinator already guarantees to lie in `[0, 1]`: an
    /// out-of-range value there is a bug worth crashing on.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not in `[0, 1]`.
    pub fn add(&mut self, x: f64) {
        self.0.add(x);
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.0.count()
    }

    /// Sample mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        self.0.mean()
    }

    /// The normalised probability mass per bin (sums to 1), or all zeros
    /// when empty.
    pub fn pdf(&self) -> Vec<f64> {
        let total = self.count().max(1) as f64;
        self.bins().iter().map(|&b| b as f64 / total).collect()
    }

    /// The fraction of samples at or above `threshold` — e.g. the guilty
    /// rate at a 40% blame threshold.
    ///
    /// Computed from bins, so `threshold` should align with bin edges for
    /// exact results; non-aligned thresholds use the containing bin's
    /// lower edge.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not in `[0, 1]`.
    pub fn fraction_at_least(&self, threshold: f64) -> f64 {
        assert!((0.0..=1.0).contains(&threshold), "threshold {threshold} out of [0,1]");
        if self.count() == 0 {
            return 0.0;
        }
        let bins = self.bins();
        let start = ((threshold * bins.len() as f64).floor() as usize).min(bins.len() - 1);
        let above: u64 = bins[start..].iter().sum();
        above as f64 / self.count() as f64
    }

    /// The raw bin counts.
    pub fn bins(&self) -> &[u64] {
        self.0.bins()
    }

    /// Merges another histogram with the same binning into this one.
    ///
    /// # Panics
    ///
    /// Panics if bin counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        self.0.merge(&other.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_is_correct() {
        let mut h = Histogram::new(4);
        for x in [0.0, 0.1, 0.3, 0.6, 0.9, 1.0] {
            h.add(x);
        }
        assert_eq!(h.bins(), &[2, 1, 1, 2]);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn pdf_sums_to_one() {
        let mut h = Histogram::new(7);
        for i in 0..100 {
            h.add(i as f64 / 100.0);
        }
        let total: f64 = h.pdf().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_at_least_matches_manual_count() {
        let mut h = Histogram::new(10);
        for x in [0.05, 0.35, 0.45, 0.75, 0.95] {
            h.add(x);
        }
        assert!((h.fraction_at_least(0.4) - 3.0 / 5.0).abs() < 1e-12);
        assert!((h.fraction_at_least(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_and_empty_behaviour() {
        let mut h = Histogram::new(5);
        assert_eq!(h.mean(), None);
        assert_eq!(h.fraction_at_least(0.5), 0.0);
        h.add(0.25);
        h.add(0.75);
        assert!((h.mean().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Histogram::new(4);
        a.add(0.1);
        let mut b = Histogram::new(4);
        b.add(0.9);
        b.add(0.95);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.fraction_at_least(0.75) - 2.0 / 3.0).abs() < 1e-12);
    }
}
