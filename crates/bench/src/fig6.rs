//! Figure 6: formal-accusation error rates vs the guilty quota m
//! (sliding window w = 100).
//!
//! Uses the binomial model of §4.3 over the per-judgment guilty
//! probabilities measured by the Figure 5 experiment: p_good (an innocent
//! peer draws a guilty verdict) and p_faulty (a faulty peer does).

use concilium::verdict::{accusation_error_curve, minimal_m};

/// One point of the Figure 6 curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    /// The guilty quota m.
    pub m: usize,
    /// Formal-accusation false-positive rate Pr(W ≥ m), W ~ Bin(w, p_good).
    pub false_positive: f64,
    /// Formal-accusation false-negative rate Pr(W < m), W ~ Bin(w, p_faulty).
    pub false_negative: f64,
}

/// The window size used throughout the paper's Figure 6.
pub(crate) const W: usize = 100;

/// Runs the model for measured `(p_good, p_faulty)` and returns the curve
/// up to `max_m` plus the minimal m driving both errors below 1%.
pub fn run(p_good: f64, p_faulty: f64, max_m: usize) -> (Vec<Row>, Option<usize>) {
    let curve = accusation_error_curve(W, p_good, p_faulty)
        .into_iter()
        .take(max_m)
        .map(|(m, fp, fnr)| Row { m, false_positive: fp, false_negative: fnr })
        .collect();
    (curve, minimal_m(W, p_good, p_faulty, 0.01))
}

/// Prints one panel.
pub fn print(label: &str, p_good: f64, p_faulty: f64, rows: &[Row], best_m: Option<usize>) {
    println!(
        "Figure 6({label}) — accusation error vs m (w = {W}, p_good = {p_good:.3}, p_faulty = {p_faulty:.3})"
    );
    println!("{:>4}  {:>12} {:>12}", "m", "false pos", "false neg");
    for r in rows {
        println!(
            "{:>4}  {:>12.5} {:>12.5}{}",
            r.m,
            r.false_positive,
            r.false_negative,
            if Some(r.m) == best_m { "   ← first m with both < 1%" } else { "" }
        );
    }
    match best_m {
        Some(m) => println!("  minimal m with both error rates < 1%: {m}"),
        None => println!("  no m ≤ w drives both error rates below 1%"),
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_operating_points() {
        let (_, m_faithful) = run(0.018, 0.938, 30);
        assert_eq!(m_faithful, Some(6));
        let (_, m_collusion) = run(0.084, 0.713, 30);
        assert_eq!(m_collusion, Some(16));
    }

    #[test]
    fn curve_is_monotone() {
        let (rows, _) = run(0.05, 0.8, 30);
        for w in rows.windows(2) {
            assert!(w[1].false_positive <= w[0].false_positive + 1e-12);
            assert!(w[1].false_negative + 1e-12 >= w[0].false_negative);
        }
    }
}
