//! The paper's analytic jump-table occupancy model (§3.1, §4.1).
//!
//! Assuming identifiers are uniformly random, the probability that the slot
//! in row *i* of a jump table is filled is (Eq. 1)
//!
//! ```text
//! Pr(entry filled in row i) = 1 − [1 − (1/v)^(i+1)]^(N−1)
//! ```
//!
//! Each slot is treated as an independent Bernoulli variable, so total
//! occupancy follows a Poisson binomial distribution, which the paper
//! approximates with a normal distribution:
//!
//! ```text
//! μ  = (1/ℓv) Σ p_ij           σ² = (1/ℓv) Σ (p_ij − μ)²
//! μ_φ = ℓv·μ                   σ_φ² = ℓv·μ(1−μ) − ℓv·σ²
//! ```
//!
//! On top of the model sit the density-test error equations of §4.1:
//! the false-positive and false-negative probabilities of the
//! `γ·d_peer < d_local` test, and the γ optimiser used for
//! Figures 2(c) and 3(c).

use serde::{Deserialize, Serialize};

use concilium_types::IdSpace;

use crate::stats::normal_cdf;

/// The normal-approximated occupancy distribution of a jump table in an
/// overlay of `n` nodes.
///
/// # Examples
///
/// ```
/// use concilium_overlay::occupancy::OccupancyModel;
/// use concilium_types::IdSpace;
///
/// let m = OccupancyModel::new(IdSpace::DEFAULT, 100_000);
/// // §4.4: "in a 100,000 node overlay, the average node has 77 entries in
/// // its local routing state", i.e. μ_φ + 16 leaves ≈ 77.
/// assert!((m.mean_occupied() + 16.0 - 77.0).abs() < 2.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct OccupancyModel {
    space: IdSpace,
    n: usize,
    mu_phi: f64,
    sigma_phi: f64,
}

impl OccupancyModel {
    /// Builds the model for an overlay with `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (a single node has no peers to fill any slot).
    pub fn new(space: IdSpace, n: usize) -> Self {
        assert!(n >= 2, "occupancy model needs at least 2 nodes, got {n}");
        let slots = space.table_slots() as f64;
        let v = space.base() as f64;

        // Per-slot fill probabilities p_ij (identical across a row).
        let mut sum_p = 0.0;
        let mut sum_p2 = 0.0;
        for i in 0..space.digits() {
            let p = Self::row_fill(v, i, n);
            let cols = space.base() as f64;
            sum_p += p * cols;
            sum_p2 += p * p * cols;
        }
        let mu = sum_p / slots;
        let sigma2 = sum_p2 / slots - mu * mu;

        let mu_phi = slots * mu;
        let var_phi = (slots * mu * (1.0 - mu) - slots * sigma2).max(0.0);
        OccupancyModel {
            space,
            n,
            mu_phi,
            sigma_phi: var_phi.sqrt(),
        }
    }

    /// Eq. 1: the probability that a slot in (0-based) `row` of a base-`v`
    /// table is filled in an `n`-node overlay.
    fn row_fill(v: f64, row: u32, n: usize) -> f64 {
        // Eq. 1 with i+1 = row index + 1 (rows are 0-based here).
        let q = (1.0 / v).powi(row as i32 + 1);
        1.0 - (1.0 - q).powf((n - 1) as f64)
    }

    /// The identifier space this model describes.
    pub(crate) fn space(&self) -> IdSpace {
        self.space
    }

    /// μ_φ: the expected number of occupied slots.
    pub fn mean_occupied(&self) -> f64 {
        self.mu_phi
    }

    /// σ_φ: the standard deviation of the number of occupied slots.
    pub fn sd_occupied(&self) -> f64 {
        self.sigma_phi
    }

    /// The cumulative distribution function φ(μ_φ, σ_φ) evaluated at `d`
    /// occupied slots.
    pub(crate) fn cdf(&self, d: f64) -> f64 {
        normal_cdf(d, self.mu_phi, self.sigma_phi)
    }

    /// The probability that the table contains exactly `d` occupied slots,
    /// via the continuity-corrected normal approximation
    /// φ(d + ½) − φ(d − ½).
    pub(crate) fn pmf(&self, d: u32) -> f64 {
        self.cdf(d as f64 + 0.5) - self.cdf(d as f64 - 0.5)
    }
}

/// False-positive probability of the density test at threshold `gamma`:
/// the probability that an honest peer's table is flagged,
/// `Pr(γ·d_peer < d_local)` (§4.1).
///
/// `local` models the judging host's own table density and `peer` models
/// the judged (honest) peer's density.
///
/// # Panics
///
/// Panics if `gamma < 1.0` (the test requires γ > 1).
pub(crate) fn false_positive_rate(gamma: f64, local: &OccupancyModel, peer: &OccupancyModel) -> f64 {
    assert!(gamma >= 1.0, "gamma must be at least 1, got {gamma}");
    let slots = local.space().table_slots();
    let mut acc = 0.0;
    for d_i in 0..=slots {
        // Pr(local table has d_i slots) × Pr(peer density < d_i / γ).
        acc += local.pmf(d_i) * peer.cdf(d_i as f64 / gamma);
    }
    acc.clamp(0.0, 1.0)
}

/// False-negative probability of the density test at threshold `gamma`:
/// the probability that an attacker's fraudulent table passes,
/// `Pr(γ·d_peer ≥ d_local)` (§4.1).
///
/// `attacker` models the fraudulent table — "the density of the attacker's
/// fraudulent table is modeled as that of a legitimate table in an overlay
/// with N·c total hosts" — and `local` models the judge's baseline.
///
/// # Panics
///
/// Panics if `gamma < 1.0`.
pub(crate) fn false_negative_rate(
    gamma: f64,
    local: &OccupancyModel,
    attacker: &OccupancyModel,
) -> f64 {
    assert!(gamma >= 1.0, "gamma must be at least 1, got {gamma}");
    let slots = local.space().table_slots();
    let mut acc = 0.0;
    for d_i in 0..=slots {
        // Pr(attacker advertises d_i slots) × Pr(local density ≤ γ·d_i).
        acc += attacker.pmf(d_i) * local.cdf(gamma * d_i as f64);
    }
    acc.clamp(0.0, 1.0)
}

/// A density-test analysis scenario: overlay size, colluding fraction, and
/// whether the colluders mount suppression attacks (Figures 2 vs 3).
///
/// Under a suppression attack (§4.1, Figure 3), colluding nodes suppress
/// knowledge of identifiers to skew density estimates. The paper models
/// this by "supplying our false positive/negative equations with the
/// appropriately skewed versions of N". We adopt the adversary-optimal
/// skew for each error direction:
///
/// * false positives — attackers suppress their identifiers from the
///   *judged honest peer's* routing state, so its density looks like an
///   overlay of N·(1−c) nodes while the judge's baseline is built from N;
/// * false negatives — attackers suppress identifiers from the *judge*,
///   lowering its baseline to N·(1−c) while advertising their own N·c
///   table.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DensityScenario {
    /// Identifier-space parameters.
    pub space: IdSpace,
    /// Total overlay size N.
    pub n: usize,
    /// Fraction of colluding malicious nodes, c ∈ (0, 1).
    pub colluding_fraction: f64,
    /// Whether colluders mount suppression attacks.
    pub suppression: bool,
}

impl DensityScenario {
    /// Creates a scenario.
    ///
    /// # Panics
    ///
    /// Panics if `colluding_fraction` is outside `(0, 1)` or `n` is too
    /// small for the attacker model (`n × c ≥ 2`).
    pub fn new(space: IdSpace, n: usize, colluding_fraction: f64, suppression: bool) -> Self {
        assert!(
            colluding_fraction > 0.0 && colluding_fraction < 1.0,
            "colluding fraction must be in (0,1), got {colluding_fraction}"
        );
        assert!(
            (n as f64 * colluding_fraction) >= 2.0,
            "attacker population too small to model"
        );
        DensityScenario { space, n, colluding_fraction, suppression }
    }

    fn honest_model(&self) -> OccupancyModel {
        OccupancyModel::new(self.space, self.n)
    }

    fn suppressed_model(&self) -> OccupancyModel {
        let n = ((self.n as f64) * (1.0 - self.colluding_fraction)).round() as usize;
        OccupancyModel::new(self.space, n.max(2))
    }

    fn attacker_model(&self) -> OccupancyModel {
        let n = ((self.n as f64) * self.colluding_fraction).round() as usize;
        OccupancyModel::new(self.space, n.max(2))
    }

    /// False-positive rate at threshold `gamma`.
    pub fn false_positive(&self, gamma: f64) -> f64 {
        let local = self.honest_model();
        let peer = if self.suppression { self.suppressed_model() } else { self.honest_model() };
        false_positive_rate(gamma, &local, &peer)
    }

    /// False-negative rate at threshold `gamma`.
    pub fn false_negative(&self, gamma: f64) -> f64 {
        let local = if self.suppression { self.suppressed_model() } else { self.honest_model() };
        false_negative_rate(gamma, &local, &self.attacker_model())
    }

    /// Chooses γ on a grid to minimise `false_positive + false_negative`,
    /// the criterion behind Figures 2(c) and 3(c).
    pub fn optimal_gamma(&self) -> GammaChoice {
        let mut best = GammaChoice { gamma: 1.0, false_positive: 1.0, false_negative: 1.0 };
        let mut best_sum = f64::INFINITY;
        let mut g = 1.0;
        while g <= 8.0 {
            let fp = self.false_positive(g);
            let fnr = self.false_negative(g);
            if fp + fnr < best_sum {
                best_sum = fp + fnr;
                best = GammaChoice { gamma: g, false_positive: fp, false_negative: fnr };
            }
            g += 0.01;
        }
        best
    }
}

/// The outcome of γ optimisation: the chosen threshold and its error rates.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GammaChoice {
    /// The chosen γ.
    pub gamma: f64,
    /// False-positive rate at that γ.
    pub false_positive: f64,
    /// False-negative rate at that γ.
    pub false_negative: f64,
}

impl GammaChoice {
    /// The minimised misclassification sum.
    pub fn total_error(&self) -> f64 {
        self.false_positive + self.false_negative
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> IdSpace {
        IdSpace::DEFAULT
    }

    #[test]
    fn eq1_row_probabilities_decay() {
        let p = |row| OccupancyModel::row_fill(space().base() as f64, row, 1_131);
        let (p0, p1, p2, p5) = (p(0), p(1), p(2), p(5));
        assert!(p0 > 0.999, "row 0 nearly always filled, got {p0}");
        assert!(p1 > 0.95 && p1 < 1.0);
        assert!(p2 > 0.2 && p2 < 0.3, "row 2 ≈ 0.24, got {p2}");
        assert!(p5 < 1e-3);
        assert!(p0 > p1 && p1 > p2 && p2 > p5);
    }

    #[test]
    fn paper_scale_routing_state_size() {
        // §4.4: a 100,000-node overlay has ~77 routing-state entries,
        // i.e. μ_φ ≈ 61 plus 16 leaves.
        let m = OccupancyModel::new(space(), 100_000);
        assert!(
            (m.mean_occupied() - 61.0).abs() < 2.0,
            "μ_φ = {}, expected ≈ 61",
            m.mean_occupied()
        );
    }

    #[test]
    fn mean_grows_with_n() {
        let m1 = OccupancyModel::new(space(), 100);
        let m2 = OccupancyModel::new(space(), 10_000);
        assert!(m2.mean_occupied() > m1.mean_occupied());
    }

    #[test]
    fn variance_formula_matches_poisson_binomial() {
        // σ_φ² must equal Σ p_i (1 − p_i) computed directly.
        let m = OccupancyModel::new(space(), 5_000);
        let mut direct = 0.0;
        for i in 0..space().digits() {
            let p = OccupancyModel::row_fill(space().base() as f64, i, 5_000);
            direct += space().base() as f64 * p * (1.0 - p);
        }
        assert!(
            (m.sd_occupied().powi(2) - direct).abs() < 1e-6,
            "σ_φ² = {} vs direct {direct}",
            m.sd_occupied().powi(2)
        );
    }

    #[test]
    fn pmf_sums_to_one() {
        let m = OccupancyModel::new(space(), 1_131);
        let total: f64 = (0..=space().table_slots()).map(|d| m.pmf(d)).sum();
        assert!((total - 1.0).abs() < 1e-3, "pmf sums to {total}");
    }

    #[test]
    fn fp_decreases_with_gamma() {
        let s = DensityScenario::new(space(), 1_131, 0.2, false);
        let fp_low = s.false_positive(1.0);
        let fp_high = s.false_positive(2.0);
        assert!(fp_low > fp_high, "fp(1.0)={fp_low} fp(2.0)={fp_high}");
        // At γ=1 the test flags any peer sparser than the local table:
        // roughly half of honest peers.
        assert!(fp_low > 0.3 && fp_low < 0.7);
    }

    #[test]
    fn fn_increases_with_gamma() {
        let s = DensityScenario::new(space(), 1_131, 0.2, false);
        assert!(s.false_negative(1.0) < s.false_negative(3.0));
    }

    #[test]
    fn fn_grows_with_colluding_fraction() {
        // More colluders → denser fraudulent tables → harder to detect.
        let g = 1.3;
        let c20 = DensityScenario::new(space(), 1_131, 0.2, false).false_negative(g);
        let c30 = DensityScenario::new(space(), 1_131, 0.3, false).false_negative(g);
        assert!(c30 > c20, "c=0.3 fn {c30} should exceed c=0.2 fn {c20}");
    }

    #[test]
    fn fp_independent_of_c_without_suppression() {
        let g = 1.5;
        let a = DensityScenario::new(space(), 1_131, 0.1, false).false_positive(g);
        let b = DensityScenario::new(space(), 1_131, 0.3, false).false_positive(g);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn suppression_makes_everything_worse() {
        let base = DensityScenario::new(space(), 1_131, 0.2, false).optimal_gamma();
        let supp = DensityScenario::new(space(), 1_131, 0.2, true).optimal_gamma();
        assert!(supp.total_error() > base.total_error());
    }

    #[test]
    fn paper_headline_numbers_roughly_hold() {
        // "If 20% of hosts collude, the false negative rate decreases to
        // 3.5%" (no suppression, γ chosen to minimise the sum). The paper
        // does not state N for §4.1; at the evaluation's N = 1131 we expect
        // the same order of magnitude.
        let c20 = DensityScenario::new(space(), 1_131, 0.2, false).optimal_gamma();
        assert!(
            c20.false_negative < 0.12,
            "c=20% optimal fn = {}",
            c20.false_negative
        );
        // "If 30% of all peers are malicious ... false positive 8.5%,
        // false negative 14.8%" — check the same ballpark.
        let c30 = DensityScenario::new(space(), 1_131, 0.3, false).optimal_gamma();
        assert!(c30.false_negative > c20.false_negative);
        assert!(c30.total_error() < 0.6);
    }

    #[test]
    #[should_panic(expected = "gamma must be at least 1")]
    fn gamma_below_one_rejected() {
        let m = OccupancyModel::new(space(), 100);
        let _ = false_positive_rate(0.5, &m, &m);
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn tiny_overlay_rejected() {
        let _ = OccupancyModel::new(space(), 1);
    }
}
