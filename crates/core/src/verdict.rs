//! Verdicts, sliding windows, and the formal-accusation error model
//! (§3.4, §4.3, Figure 6).
//!
//! Per dropped message, the computed blame is thresholded into a binary
//! verdict (the paper uses a 40% threshold). A judge keeps a sliding
//! window of the last *w* verdicts per peer; accumulating *m* or more
//! guilty verdicts triggers a formal accusation. Because each verdict is
//! (approximately) an independent Bernoulli trial, the accusation error
//! rates follow a binomial law:
//!
//! ```text
//! Pr(false positive) = Pr(W ≥ m),  W ~ Binomial(w, p_good)
//! Pr(false negative) = Pr(W < m),  W ~ Binomial(w, p_faulty)
//! ```
//!
//! [`VerdictBook`] is the one statement of that rule: the node, the DST
//! explorer and the daemon each record into one and keep their own latch.

use std::collections::{BTreeMap, VecDeque};

use serde::{Deserialize, Serialize};

use crate::config::ConciliumConfig;

/// The binary judgment for one dropped message.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Verdict {
    /// The forwarder is held responsible for this drop.
    Guilty,
    /// The network is held responsible.
    Innocent,
}

impl Verdict {
    /// Thresholds a blame value: blame at or above `threshold` is guilty.
    ///
    /// # Panics
    ///
    /// Panics if either argument is outside `[0, 1]`.
    pub fn from_blame(blame: f64, threshold: f64) -> Self {
        assert!((0.0..=1.0).contains(&blame), "blame {blame} out of [0,1]");
        assert!((0.0..=1.0).contains(&threshold), "threshold {threshold} out of [0,1]");
        if blame >= threshold {
            Verdict::Guilty
        } else {
            Verdict::Innocent
        }
    }

    /// Whether this is a guilty verdict.
    pub fn is_guilty(&self) -> bool {
        matches!(self, Verdict::Guilty)
    }
}

/// A sliding window of the last `w` verdicts issued for one peer.
///
/// # Examples
///
/// ```
/// use concilium::{Verdict, VerdictWindow};
///
/// let mut w = VerdictWindow::new(100);
/// for _ in 0..5 {
///     w.push(Verdict::Guilty);
/// }
/// w.push(Verdict::Innocent);
/// assert_eq!(w.guilty_count(), 5);
/// assert!(!w.should_accuse(6));
/// w.push(Verdict::Guilty);
/// assert!(w.should_accuse(6));
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct VerdictWindow {
    verdicts: VecDeque<Verdict>,
    capacity: usize,
    guilty: usize,
}

impl VerdictWindow {
    /// Creates a window holding the last `capacity` verdicts.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        VerdictWindow { verdicts: VecDeque::with_capacity(capacity), capacity, guilty: 0 }
    }

    /// Records a verdict, evicting the oldest when full.
    pub fn push(&mut self, v: Verdict) {
        if self.verdicts.len() == self.capacity {
            if let Some(old) = self.verdicts.pop_front() {
                if old.is_guilty() {
                    self.guilty -= 1;
                }
            }
        }
        if v.is_guilty() {
            self.guilty += 1;
        }
        self.verdicts.push_back(v);
    }

    /// Number of verdicts currently held.
    pub fn len(&self) -> usize {
        self.verdicts.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.verdicts.is_empty()
    }

    /// Number of guilty verdicts in the window.
    pub fn guilty_count(&self) -> usize {
        self.guilty
    }

    /// Whether the peer has accumulated at least `m` guilty verdicts.
    pub fn should_accuse(&self, m: usize) -> bool {
        self.guilty >= m
    }

    /// The verdicts currently in the window, oldest first — a read-only
    /// view for invariant checkers that recount [`Self::guilty_count`]
    /// independently.
    pub fn verdicts(&self) -> impl Iterator<Item = Verdict> + '_ {
        self.verdicts.iter().copied()
    }

    /// Appends the window's canonical encoding to `out`: capacity,
    /// length, then one word per verdict (`1` = guilty), oldest first.
    /// The journalable state hook service-mode recovery compares —
    /// two windows encode identically iff they would judge identically.
    pub fn encode_to(&self, out: &mut Vec<u64>) {
        out.push(self.capacity as u64);
        out.push(self.verdicts.len() as u64);
        out.extend(self.verdicts.iter().map(|v| u64::from(v.is_guilty())));
    }
}

/// Whether `window`'s newest verdict is guilty and meets quota `m`: the
/// §3.4 trigger, met again by every guilty verdict while `m` or more are
/// held.
fn meets_quota(window: &VerdictWindow, m: usize) -> bool {
    window.verdicts.back().is_some_and(Verdict::is_guilty) && window.should_accuse(m)
}

/// The m-of-w rule of §3.4 over every judged peer: one [`VerdictWindow`]
/// of the configuration's `w` per key, judged against its `m`.
#[derive(Clone, Debug)]
pub struct VerdictBook<K> {
    windows: BTreeMap<K, VerdictWindow>,
    window: usize,
    quota: usize,
}

impl<K: Ord> VerdictBook<K> {
    /// An empty book with `config`'s window size `w` and quota `m`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid ([`ConciliumConfig::validate`]).
    pub fn new(config: &ConciliumConfig) -> Self {
        config.validate();
        VerdictBook { windows: BTreeMap::new(), window: config.window, quota: config.guilty_quota }
    }

    /// Records `verdict` in `key`'s window (opened on first use) and
    /// returns whether it meets the quota, with the window after the push.
    pub fn record(&mut self, key: K, verdict: Verdict) -> (bool, &VerdictWindow) {
        let window = self.windows.entry(key).or_insert_with(|| VerdictWindow::new(self.window));
        window.push(verdict);
        (meets_quota(window, self.quota), window)
    }

    /// Whether the verdict last recorded for `key` met the quota.
    pub fn quota_met(&self, key: &K) -> bool {
        self.windows.get(key).is_some_and(|w| meets_quota(w, self.quota))
    }

    /// The window for `key`, if any verdict was recorded.
    pub fn window(&self, key: &K) -> Option<&VerdictWindow> {
        self.windows.get(key)
    }

    /// Every window, in key order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&K, &VerdictWindow)> {
        self.windows.iter()
    }
}

/// `Pr(W ≥ m)` for `W ~ Binomial(w, p)` — the formal-accusation false
/// positive probability when `p = p_good` (Figure 6).
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]` or `m > w`.
pub fn binomial_tail_at_least(w: usize, m: usize, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability {p} out of [0,1]");
    assert!(m <= w, "m = {m} exceeds w = {w}");
    1.0 - binomial_cdf_below(w, m, p)
}

/// `Pr(W < m)` for `W ~ Binomial(w, p)` — the formal-accusation false
/// negative probability when `p = p_faulty` (Figure 6).
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]` or `m > w`.
pub fn binomial_cdf_below(w: usize, m: usize, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability {p} out of [0,1]");
    assert!(m <= w, "m = {m} exceeds w = {w}");
    if m == 0 {
        return 0.0;
    }
    // Iterate pmf terms with the recurrence
    // pmf(k+1) = pmf(k) · (w−k)/(k+1) · p/(1−p), in log space for safety.
    if p == 0.0 {
        return 1.0; // W = 0 < m (m ≥ 1 here)
    }
    #[expect(clippy::float_cmp, reason = "exact degenerate-case guard: p is a caller-supplied constant, not a computed value")]
    if p == 1.0 {
        return if m > w { 1.0 } else { 0.0 };
    }
    let mut acc = 0.0f64;
    let mut log_pmf = (w as f64) * (1.0 - p).ln(); // k = 0
    for k in 0..m {
        acc += log_pmf.exp();
        // advance to k+1
        log_pmf += ((w - k) as f64).ln() - ((k + 1) as f64).ln() + p.ln() - (1.0 - p).ln();
    }
    acc.min(1.0)
}

/// Sweeps `m` from 1 to `w` and returns, for each, the (false positive,
/// false negative) pair — the data series of Figure 6.
pub fn accusation_error_curve(w: usize, p_good: f64, p_faulty: f64) -> Vec<(usize, f64, f64)> {
    (1..=w)
        .map(|m| {
            (
                m,
                binomial_tail_at_least(w, m, p_good),
                binomial_cdf_below(w, m, p_faulty),
            )
        })
        .collect()
}

/// The smallest `m` driving both error rates below `target`, if any.
pub fn minimal_m(w: usize, p_good: f64, p_faulty: f64, target: f64) -> Option<usize> {
    (1..=w).find(|&m| {
        binomial_tail_at_least(w, m, p_good) < target
            && binomial_cdf_below(w, m, p_faulty) < target
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_thresholding() {
        assert_eq!(Verdict::from_blame(0.4, 0.4), Verdict::Guilty);
        assert_eq!(Verdict::from_blame(0.39, 0.4), Verdict::Innocent);
        assert!(Verdict::Guilty.is_guilty());
        assert!(!Verdict::Innocent.is_guilty());
    }

    #[test]
    fn window_eviction_keeps_counts_consistent() {
        let mut w = VerdictWindow::new(3);
        w.push(Verdict::Guilty);
        w.push(Verdict::Guilty);
        w.push(Verdict::Innocent);
        assert_eq!(w.guilty_count(), 2);
        // Evicts the first guilty.
        w.push(Verdict::Innocent);
        assert_eq!(w.len(), 3);
        assert_eq!(w.guilty_count(), 1);
        // Evicts the second guilty.
        w.push(Verdict::Innocent);
        assert_eq!(w.guilty_count(), 0);
        assert!(!w.should_accuse(1));
    }

    #[test]
    fn verdict_iteration_matches_cached_count() {
        let mut w = VerdictWindow::new(4);
        for v in [
            Verdict::Guilty,
            Verdict::Innocent,
            Verdict::Guilty,
            Verdict::Guilty,
            Verdict::Innocent, // evicts the first guilty
        ] {
            w.push(v);
            let recount = w.verdicts().filter(Verdict::is_guilty).count();
            assert_eq!(recount, w.guilty_count());
        }
        let order: Vec<Verdict> = w.verdicts().collect();
        assert_eq!(
            order,
            vec![Verdict::Innocent, Verdict::Guilty, Verdict::Guilty, Verdict::Innocent],
            "oldest first"
        );
    }

    #[test]
    fn binomial_matches_direct_computation() {
        // Small case cross-checked by brute force: w=4, p=0.3.
        let w = 4usize;
        let p: f64 = 0.3;
        let pmf = |k: u32| {
            let c = match k {
                0 | 4 => 1.0,
                1 | 3 => 4.0,
                2 => 6.0,
                _ => unreachable!(),
            };
            c * p.powi(k as i32) * (1.0 - p).powi(4 - k as i32)
        };
        for m in 0..=4usize {
            let want: f64 = (0..m as u32).map(pmf).sum();
            assert!(
                (binomial_cdf_below(w, m, p) - want).abs() < 1e-12,
                "m = {m}"
            );
        }
        assert!((binomial_tail_at_least(w, 2, p) - (1.0 - pmf(0) - pmf(1))).abs() < 1e-12);
    }

    #[test]
    fn paper_figure6_headline_numbers() {
        // §4.3: with faithful reporting, p_good ≈ 1.8% and
        // p_faulty ≈ 93.8%; m = 6 (w = 100) drives both errors below 1%.
        let m = minimal_m(100, 0.018, 0.938, 0.01).expect("an m exists");
        assert_eq!(m, 6, "faithful scenario");
        // With 20% collusion, p_good ≈ 8.4% and p_faulty ≈ 71.3%;
        // m = 16 suffices.
        let m = minimal_m(100, 0.084, 0.713, 0.01).expect("an m exists");
        assert_eq!(m, 16, "collusion scenario");
    }

    #[test]
    fn error_curve_is_monotone() {
        let curve = accusation_error_curve(100, 0.05, 0.8);
        for w in curve.windows(2) {
            let (_, fp0, fn0) = w[0];
            let (_, fp1, fn1) = w[1];
            assert!(fp1 <= fp0 + 1e-12, "fp should fall with m");
            assert!(fn1 + 1e-12 >= fn0, "fn should rise with m");
        }
    }

    #[test]
    fn degenerate_probabilities() {
        assert_eq!(binomial_cdf_below(10, 5, 0.0), 1.0);
        assert_eq!(binomial_cdf_below(10, 5, 1.0), 0.0);
        assert_eq!(binomial_tail_at_least(10, 0, 0.3), 1.0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn m_above_w_rejected() {
        let _ = binomial_cdf_below(10, 11, 0.5);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_window_rejected() {
        let _ = VerdictWindow::new(0);
    }

    #[test]
    fn encode_lists_capacity_length_and_verdicts_oldest_first() {
        let mut w = VerdictWindow::new(3);
        for v in [Verdict::Guilty, Verdict::Innocent, Verdict::Guilty, Verdict::Guilty] {
            w.push(v);
        }
        let mut encoded = Vec::new();
        w.encode_to(&mut encoded);
        assert_eq!(encoded, vec![3, 3, 0, 1, 1], "capacity, len, verdict bits oldest-first");
    }

    #[test]
    fn book_meets_the_quota_on_guilty_verdicts_per_key() {
        let config = ConciliumConfig { window: 5, guilty_quota: 2, ..ConciliumConfig::default() };
        let mut book = VerdictBook::new(&config);
        assert!(!book.record(1, Verdict::Guilty).0);
        // Innocent verdicts never meet m, even with m guilty held.
        assert!(book.record(1, Verdict::Guilty).0);
        assert!(!book.record(1, Verdict::Innocent).0);
        assert!(!book.quota_met(&1));
        // Every guilty verdict past m meets it again; the latch is the caller's.
        for _ in 0..3 {
            assert!(book.record(1, Verdict::Guilty).0);
        }
        assert!(book.quota_met(&1));
        // Keys are independent: key 2 starts from an empty window.
        assert!(!book.record(2, Verdict::Guilty).0);
        assert_eq!(book.window(&2).map(VerdictWindow::guilty_count), Some(1));
        assert_eq!(book.window(&1).map(VerdictWindow::guilty_count), Some(4));
        assert_eq!(book.iter().map(|(k, _)| *k).collect::<Vec<_>>(), [1, 2]);
        assert!(book.window(&3).is_none());
    }
}
