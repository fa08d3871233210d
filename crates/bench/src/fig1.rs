//! Figure 1: modeling jump-table occupancy.
//!
//! Compares the analytic occupancy model (Eq. 1 + normal approximation of
//! the Poisson binomial) with Monte-Carlo simulations of table occupancy
//! across overlay sizes. The paper's finding: "the φ(μ_φ, σ_φ)
//! distribution accurately approximates real occupancy levels."

use concilium_overlay::montecarlo::sample_occupancy;
use concilium_overlay::occupancy::OccupancyModel;
use concilium_types::IdSpace;
use rand::Rng;

/// One row of the Figure 1 series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    /// Overlay size N.
    pub n: usize,
    /// Analytic mean occupancy μ_φ.
    pub model_mean: f64,
    /// Analytic standard deviation σ_φ.
    pub model_sd: f64,
    /// Monte-Carlo mean occupancy.
    pub mc_mean: f64,
    /// Monte-Carlo standard deviation.
    pub mc_sd: f64,
}

/// The overlay sizes swept (log-spaced, 100 → 100,000).
pub(crate) const SIZES: [usize; 7] = [100, 316, 1_000, 3_162, 10_000, 31_623, 100_000];

/// Runs the experiment with `trials` Monte-Carlo tables per size.
pub fn run<R: Rng + ?Sized>(trials: usize, rng: &mut R) -> Vec<Row> {
    SIZES
        .iter()
        .map(|&n| {
            let model = OccupancyModel::new(IdSpace::DEFAULT, n);
            let mc = sample_occupancy(IdSpace::DEFAULT, n, trials, rng);
            Row {
                n,
                model_mean: model.mean_occupied(),
                model_sd: model.sd_occupied(),
                mc_mean: mc.mean,
                mc_sd: mc.sd,
            }
        })
        .collect()
}

/// Prints the rows in the format recorded in `EXPERIMENTS.md`.
pub fn print(rows: &[Row]) {
    println!("Figure 1 — jump-table occupancy: analytic model vs Monte Carlo");
    println!("{:>8}  {:>12} {:>9}   {:>12} {:>9}   {:>7}", "N", "model mean", "model sd", "MC mean", "MC sd", "Δmean");
    for r in rows {
        println!(
            "{:>8}  {:>12.2} {:>9.2}   {:>12.2} {:>9.2}   {:>7.2}",
            r.n,
            r.model_mean,
            r.model_sd,
            r.mc_mean,
            r.mc_sd,
            (r.model_mean - r.mc_mean).abs()
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn model_matches_mc_at_every_size() {
        let mut rng = StdRng::seed_from_u64(301);
        for row in run(300, &mut rng) {
            assert!(
                (row.model_mean - row.mc_mean).abs() < 2.0,
                "n={}: model {} mc {}",
                row.n,
                row.model_mean,
                row.mc_mean
            );
        }
    }
}
