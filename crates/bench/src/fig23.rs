//! Figures 2 and 3: density-test error rates.
//!
//! Figure 2 sweeps the γ threshold and the colluding fraction c without
//! suppression attacks; Figure 3 repeats the sweep with suppression
//! attacks (the "appropriately skewed versions of N"). Panel (c) of each
//! figure picks, per c, the γ minimising the sum of the two error rates.

use concilium_overlay::occupancy::{DensityScenario, GammaChoice};
use concilium_types::IdSpace;

/// One (γ, c) grid point of panels (a) and (b).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct SweepRow {
    /// Colluding fraction c.
    pub c: f64,
    /// Density-test threshold γ.
    pub gamma: f64,
    /// False-positive rate.
    pub false_positive: f64,
    /// False-negative rate.
    pub false_negative: f64,
}

/// One panel-(c) point: the optimal γ for a colluding fraction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct OptimalRow {
    /// Colluding fraction c.
    pub(crate) c: f64,
    /// The γ minimising fp + fn, with its error rates.
    pub(crate) choice: GammaChoice,
}

/// Collusion fractions plotted by the paper's figures.
pub(crate) const FRACTIONS: [f64; 3] = [0.1, 0.2, 0.3];

/// Overlay size used for the analysis (the evaluation's 1,131 nodes).
pub(crate) const N: usize = 1_131;

/// Panels (a)+(b): γ sweep at each collusion fraction.
pub(crate) fn sweep(suppression: bool) -> Vec<SweepRow> {
    let mut out = Vec::new();
    for &c in &FRACTIONS {
        let scenario = DensityScenario::new(IdSpace::DEFAULT, N, c, suppression);
        let mut gamma = 1.0;
        while gamma <= 3.0 + 1e-9 {
            out.push(SweepRow {
                c,
                gamma,
                false_positive: scenario.false_positive(gamma),
                false_negative: scenario.false_negative(gamma),
            });
            gamma += 0.1;
        }
    }
    out
}

/// Panel (c): optimal-γ misclassification across collusion fractions.
pub(crate) fn optimal_curve(suppression: bool) -> Vec<OptimalRow> {
    (1..=8)
        .map(|k| {
            let c = k as f64 * 0.05;
            let choice =
                DensityScenario::new(IdSpace::DEFAULT, N, c, suppression).optimal_gamma();
            OptimalRow { c, choice }
        })
        .collect()
}

/// Prints both panels for one figure.
pub fn print(figure: &str, suppression: bool) {
    println!(
        "{figure} — density-test error rates ({}suppression attacks), N = {N}",
        if suppression { "with " } else { "no " }
    );
    println!("(a)+(b) γ sweep:");
    println!("{:>5} {:>6}  {:>10} {:>10}", "c", "γ", "false pos", "false neg");
    for row in sweep(suppression) {
        // Print a thinned grid for readability.
        if (row.gamma * 10.0).round() as i64 % 5 == 0 {
            println!(
                "{:>5.2} {:>6.2}  {:>10.4} {:>10.4}",
                row.c, row.gamma, row.false_positive, row.false_negative
            );
        }
    }
    println!("(c) optimal γ per c:");
    println!(
        "{:>5}  {:>6}  {:>10} {:>10} {:>10}",
        "c", "γ*", "false pos", "false neg", "sum"
    );
    for row in optimal_curve(suppression) {
        println!(
            "{:>5.2}  {:>6.2}  {:>10.4} {:>10.4} {:>10.4}",
            row.c,
            row.choice.gamma,
            row.choice.false_positive,
            row.choice.false_negative,
            row.choice.total_error()
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_has_expected_shape() {
        let rows = sweep(false);
        // At fixed c, fp falls and fn rises with γ.
        let c02: Vec<&SweepRow> = rows.iter().filter(|r| (r.c - 0.2).abs() < 1e-9).collect();
        assert!(c02.first().unwrap().false_positive > c02.last().unwrap().false_positive);
        assert!(c02.first().unwrap().false_negative < c02.last().unwrap().false_negative);
    }

    #[test]
    fn suppression_worsens_optimum() {
        let base = optimal_curve(false);
        let supp = optimal_curve(true);
        for (b, s) in base.iter().zip(&supp) {
            assert!(
                s.choice.total_error() >= b.choice.total_error() - 1e-9,
                "c={}: suppression should not help",
                b.c
            );
        }
    }
}
