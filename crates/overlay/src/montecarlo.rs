//! Monte-Carlo simulation of jump-table occupancy (the empirical side of
//! Figure 1).
//!
//! Rather than instantiating N full identifiers per trial, the sampler
//! exploits the prefix structure: conditioned on `m_i` peers sharing the
//! local host's first *i* digits, their next digits are uniform over the
//! v values, so the row-*i* bucket counts are multinomial and the peers in
//! the local host's own-digit bucket are exactly the `m_(i+1)` peers that
//! continue to the next row. A slot is *occupied* when at least one peer
//! has the corresponding (i+1)-digit prefix — the same convention as
//! Eq. 1, which models the existence of "an identifier with the
//! appropriate prefix".

use rand::Rng;
use rand_distr::{Binomial, Distribution};

use concilium_types::IdSpace;

/// Mean and standard deviation of sampled table occupancy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OccupancySample {
    /// Sample mean of occupied slots per table.
    pub mean: f64,
    /// Sample standard deviation.
    pub sd: f64,
    /// Number of tables sampled.
    pub trials: usize,
}

/// Samples the occupancy of one random jump table in an overlay of `n`
/// nodes.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn sample_occupancy_once<R: Rng + ?Sized>(space: IdSpace, n: usize, rng: &mut R) -> u32 {
    assert!(n >= 2, "need at least 2 nodes, got {n}");
    let v = space.base() as usize;
    let mut occupied = 0u32;
    // Peers sharing the (empty) 0-digit prefix: everyone else.
    let mut m = (n - 1) as u64;
    for _row in 0..space.digits() {
        if m == 0 {
            break;
        }
        // Multinomial split of m peers over v equally likely digit buckets,
        // via sequential binomials.
        let mut remaining = m;
        let mut continue_count = 0u64;
        // The local host's own next digit is symmetric; treat bucket 0 as
        // the continuation bucket without loss of generality.
        for j in 0..v {
            if remaining == 0 {
                break;
            }
            let p = 1.0 / (v - j) as f64;
            #[expect(clippy::expect_used, reason = "p = 1/(v-j) is in (0, 1] by construction and remaining > 0")]
            let count = if j == v - 1 {
                remaining
            } else {
                Binomial::new(remaining, p)
                    .expect("binomial parameters are valid")
                    .sample(rng)
            };
            if count > 0 {
                occupied += 1;
            }
            if j == 0 {
                continue_count = count;
            }
            remaining -= count;
        }
        m = continue_count;
    }
    occupied
}

/// Samples `trials` random tables and reports mean and standard deviation.
///
/// # Panics
///
/// Panics if `trials == 0` or `n < 2`.
///
/// # Examples
///
/// ```
/// use concilium_overlay::montecarlo::sample_occupancy;
/// use concilium_overlay::occupancy::OccupancyModel;
/// use concilium_types::IdSpace;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let sample = sample_occupancy(IdSpace::DEFAULT, 1_000, 200, &mut rng);
/// let model = OccupancyModel::new(IdSpace::DEFAULT, 1_000);
/// assert!((sample.mean - model.mean_occupied()).abs() < 2.0);
/// ```
pub fn sample_occupancy<R: Rng + ?Sized>(
    space: IdSpace,
    n: usize,
    trials: usize,
    rng: &mut R,
) -> OccupancySample {
    assert!(trials > 0, "need at least one trial");
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for _ in 0..trials {
        let occ = sample_occupancy_once(space, n, rng) as f64;
        sum += occ;
        sum_sq += occ * occ;
    }
    let mean = sum / trials as f64;
    let var = (sum_sq / trials as f64 - mean * mean).max(0.0);
    OccupancySample { mean, sd: var.sqrt(), trials }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occupancy::OccupancyModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_analytic_model_across_sizes() {
        // The heart of Figure 1: the normal approximation tracks the
        // Monte-Carlo occupancy closely across overlay sizes.
        let mut rng = StdRng::seed_from_u64(17);
        for n in [100usize, 1_000, 10_000] {
            let model = OccupancyModel::new(IdSpace::DEFAULT, n);
            let sample = sample_occupancy(IdSpace::DEFAULT, n, 400, &mut rng);
            assert!(
                (sample.mean - model.mean_occupied()).abs() < 1.5,
                "n={n}: MC mean {} vs model {}",
                sample.mean,
                model.mean_occupied()
            );
            assert!(
                (sample.sd - model.sd_occupied()).abs() < 1.0,
                "n={n}: MC sd {} vs model {}",
                sample.sd,
                model.sd_occupied()
            );
        }
    }

    #[test]
    fn occupancy_bounded_by_slots() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let occ = sample_occupancy_once(IdSpace::DEFAULT, 50_000, &mut rng);
            assert!(occ <= IdSpace::DEFAULT.table_slots());
        }
    }

    #[test]
    fn two_node_overlay_has_one_filled_chain() {
        // With N=2 the single peer fills exactly one slot per shared-prefix
        // row plus the slot where the ids diverge: total = common prefix
        // length + 1 ≥ 1. Statistically, almost always exactly 1.
        let mut rng = StdRng::seed_from_u64(4);
        let occ = sample_occupancy_once(IdSpace::DEFAULT, 2, &mut rng);
        assert!((1..=5).contains(&occ));
    }

    #[test]
    fn larger_overlays_are_denser() {
        let mut rng = StdRng::seed_from_u64(5);
        let small = sample_occupancy(IdSpace::DEFAULT, 64, 200, &mut rng);
        let large = sample_occupancy(IdSpace::DEFAULT, 8_192, 200, &mut rng);
        assert!(large.mean > small.mean + 10.0);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = sample_occupancy(IdSpace::DEFAULT, 100, 0, &mut rng);
    }
}
