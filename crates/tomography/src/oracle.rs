//! Direct-evaluation oracles for the MINC estimator, used by the
//! deterministic-simulation-testing (DST) harness to cross-check
//! [`infer_pass_rates`](crate::infer::infer_pass_rates) against an
//! independently coded re-derivation.
//!
//! The production estimator computes the subtree-ack probabilities γ̂ by
//! a per-stripe post-order bit propagation and solves the MINC
//! fixed-point equation by bisection. This module deliberately shares
//! *none* of that code:
//!
//! * γ̂ is recomputed from its definition — for each node, collect the
//!   leaves of its subtree by recursion and count the stripes in which
//!   any of them acknowledged;
//! * two-child branching nodes use the closed form
//!   `A = γ₁γ₂ / (γ₁ + γ₂ − γ_k)` (solve the MINC equation's quadratic
//!   directly);
//! * wider branching nodes use the classical MINC fixed-point iteration
//!   `A ← γ_k / (1 − Π_j (1 − γ_j / A))` instead of bisection.
//!
//! The degenerate-case conventions (dead subtrees, single effective
//! children, noise pushing the bracket past 1) mirror the documented
//! behavior of the production code so the two paths are comparable to
//! floating-point tolerance on any input, not just clean ones.

use crate::infer::InferError;
use crate::probe::ProbeRecord;
use crate::tree::LogicalTree;

/// Oracle estimates: cumulative root→node pass probability per node and
/// per-edge pass rate (`edge` = child node − 1), in the same layout as
/// the production [`PassRates`](crate::infer::PassRates).
#[derive(Clone, Debug, PartialEq)]
pub struct OracleRates {
    /// Cumulative root→node pass probability, per node.
    pub cumulative: Vec<f64>,
    /// Per-edge pass rate.
    pub alpha: Vec<f64>,
}

/// The closed-form MINC solution at a node with exactly two effective
/// children: from `1 − γ_k/A = (1 − γ₁/A)(1 − γ₂/A)` it follows that
/// `A = γ₁γ₂ / (γ₁ + γ₂ − γ_k)`. Degenerate conventions match the
/// production estimator: a non-positive denominator or a solution above
/// one (sampling noise making the subtree look lossless) clamps to 1,
/// and `γ_k ≤ 0` yields 0.
pub(crate) fn binary_branch_cumulative(g_k: f64, g_1: f64, g_2: f64) -> f64 {
    if g_k <= 0.0 {
        return 0.0;
    }
    let denom = g_1 + g_2 - g_k;
    if denom <= 0.0 {
        return 1.0;
    }
    let a = g_1 * g_2 / denom;
    if a >= 1.0 {
        1.0
    } else {
        a
    }
}

/// Re-derives per-edge pass rates from first principles (see the module
/// docs). The result should match
/// [`infer_pass_rates`](crate::infer::infer_pass_rates) on the same
/// record to floating-point tolerance.
///
/// # Errors
///
/// Returns [`InferError::LeafMismatch`] if the record does not match the
/// tree.
pub fn oracle_pass_rates(
    tree: &LogicalTree,
    record: &ProbeRecord,
) -> Result<OracleRates, InferError> {
    if record.num_leaves() != tree.num_leaves() {
        return Err(InferError::LeafMismatch {
            tree: tree.num_leaves(),
            record: record.num_leaves(),
        });
    }
    let n_nodes = tree.num_nodes();
    let stripes = record.num_stripes();

    // γ̂ by definition: the fraction of stripes in which any leaf of the
    // node's subtree acknowledged.
    let mut gamma = vec![0.0; n_nodes];
    for (node, g) in gamma.iter_mut().enumerate() {
        let leaves = subtree_leaves(tree, node);
        let acked = (0..stripes)
            .filter(|&s| leaves.iter().any(|&l| record.received(s, l)))
            .count();
        *g = acked as f64 / stripes as f64;
    }
    let leaf_rates: Vec<f64> =
        (0..tree.num_leaves()).map(|l| record.leaf_ack_rate(l)).collect();

    // Cumulative rates top-down (the root passes by definition), then
    // per-edge rates with the dead-segment convention.
    let mut cumulative = vec![1.0; n_nodes];
    let mut alpha = vec![1.0; tree.num_edges()];
    let mut stack = vec![0usize];
    while let Some(node) = stack.pop() {
        for &child in tree.children(node) {
            cumulative[child] = oracle_cumulative(tree, &gamma, &leaf_rates, child);
            alpha[child - 1] = if cumulative[node] <= 0.0 {
                1.0 // unidentifiable below a dead segment
            } else {
                (cumulative[child] / cumulative[node]).clamp(0.0, 1.0)
            };
            stack.push(child);
        }
    }
    Ok(OracleRates { cumulative, alpha })
}

/// The leaves (record column indices) in `node`'s subtree, by recursion.
fn subtree_leaves(tree: &LogicalTree, node: usize) -> Vec<usize> {
    let mut leaves = Vec::new();
    if let Some(l) = tree.leaf_at(node) {
        leaves.push(l);
    }
    for &c in tree.children(node) {
        leaves.extend(subtree_leaves(tree, c));
    }
    leaves
}

/// A_k for a non-root node: closed form for two effective children, the
/// MINC fixed-point iteration for more.
fn oracle_cumulative(
    tree: &LogicalTree,
    gamma: &[f64],
    leaf_rates: &[f64],
    node: usize,
) -> f64 {
    let g_k = gamma[node];
    if g_k <= 0.0 {
        return 0.0;
    }
    let mut gs: Vec<f64> = tree.children(node).iter().map(|&c| gamma[c]).collect();
    if let Some(leaf) = tree.leaf_at(node) {
        if gs.is_empty() {
            return g_k; // a pure leaf: Â = γ̂ directly
        }
        // A leaf with children contributes its own direct stream as an
        // extra effective child.
        gs.push(leaf_rates[leaf]);
    }
    match gs.len() {
        0 | 1 => g_k.clamp(0.0, 1.0), // single effective child: unidentifiable here
        2 => binary_branch_cumulative(g_k, gs[0], gs[1]),
        _ => {
            // h(1) ≥ 0 means the subtree looks lossless above this node.
            let h1 = g_k - 1.0 + gs.iter().map(|&g| 1.0 - g).product::<f64>();
            if h1 >= 0.0 {
                return 1.0;
            }
            // A ← γ_k / (1 − Π (1 − γ_j / A)): decreasing from 1 and
            // convergent to the unique root in (max γ_j, 1).
            let mut a = 1.0f64;
            for _ in 0..200 {
                let miss = gs.iter().map(|&g| 1.0 - g / a).product::<f64>();
                let next = g_k / (1.0 - miss);
                if (next - a).abs() < 1e-14 {
                    return next.clamp(0.0, 1.0);
                }
                a = next;
            }
            a.clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::infer_pass_rates;
    use crate::probe::simulate_stripes;
    use crate::tree::ProbeTree;
    use concilium_topology::IpPath;
    use concilium_types::{Id, LinkId, RouterId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(routers: &[u32], links: &[u32]) -> IpPath {
        IpPath::new(
            routers.iter().copied().map(RouterId).collect(),
            links.iter().copied().map(LinkId).collect(),
        )
    }

    fn y_tree() -> LogicalTree {
        ProbeTree::from_paths(
            RouterId(0),
            vec![
                (Id::from_u64(1), p(&[0, 1, 2], &[0, 1])),
                (Id::from_u64(2), p(&[0, 1, 3], &[0, 2])),
            ],
        )
        .unwrap()
        .logical()
    }

    fn deep_tree() -> LogicalTree {
        ProbeTree::from_paths(
            RouterId(0),
            vec![
                (Id::from_u64(1), p(&[0, 1, 2, 4], &[0, 1, 3])),
                (Id::from_u64(2), p(&[0, 1, 2, 5], &[0, 1, 4])),
                (Id::from_u64(3), p(&[0, 1, 3, 6], &[0, 2, 5])),
                (Id::from_u64(4), p(&[0, 1, 3, 7], &[0, 2, 6])),
            ],
        )
        .unwrap()
        .logical()
    }

    /// One branch node fanning out to three leaves: exercises the
    /// fixed-point path (the production code bisects here).
    fn wide_tree() -> LogicalTree {
        ProbeTree::from_paths(
            RouterId(0),
            vec![
                (Id::from_u64(1), p(&[0, 1, 2], &[0, 1])),
                (Id::from_u64(2), p(&[0, 1, 3], &[0, 2])),
                (Id::from_u64(3), p(&[0, 1, 4], &[0, 3])),
            ],
        )
        .unwrap()
        .logical()
    }

    fn assert_matches_production(tree: &LogicalTree, rec: &ProbeRecord, tol: f64) {
        let prod = infer_pass_rates(tree, rec).unwrap();
        let oracle = oracle_pass_rates(tree, rec).unwrap();
        for e in 0..tree.num_edges() {
            assert!(
                (prod.edge_pass_rate(e) - oracle.alpha[e]).abs() < tol,
                "edge {e}: production {} vs oracle {}",
                prod.edge_pass_rate(e),
                oracle.alpha[e]
            );
        }
        for n in 0..tree.num_nodes() {
            assert!(
                (prod.cumulative(n) - oracle.cumulative[n]).abs() < tol,
                "node {n}: production {} vs oracle {}",
                prod.cumulative(n),
                oracle.cumulative[n]
            );
        }
    }

    #[test]
    fn closed_form_solves_the_binary_minc_equation() {
        // The closed form satisfies the defining equation exactly.
        for (g1, g2) in [(0.8, 0.7), (0.95, 0.5), (0.6, 0.6)] {
            // γ_k for independent children under cumulative A:
            // γ_k = A(1 − (1−γ1/A)(1−γ2/A)) — pick A, derive γ_k, invert.
            let a = 0.9;
            let g_k = a * (1.0 - (1.0 - g1 / a) * (1.0 - g2 / a));
            let solved = binary_branch_cumulative(g_k, g1, g2);
            assert!((solved - a).abs() < 1e-12, "({g1},{g2}): {solved}");
        }
        // Degenerate conventions.
        assert_eq!(binary_branch_cumulative(0.0, 0.5, 0.5), 0.0);
        assert_eq!(binary_branch_cumulative(0.99, 0.5, 0.4), 1.0, "denominator ≤ 0");
    }

    #[test]
    fn oracle_matches_production_on_binary_trees() {
        let tree = y_tree();
        let mut rng = StdRng::seed_from_u64(200);
        let pass = |l: LinkId| match l.0 {
            0 => 0.7,
            1 => 0.8,
            _ => 0.95,
        };
        let rec = simulate_stripes(&tree, &pass, 10_000, &mut rng);
        assert_matches_production(&tree, &rec, 1e-9);
    }

    #[test]
    fn oracle_matches_production_on_deep_trees() {
        let tree = deep_tree();
        let mut rng = StdRng::seed_from_u64(201);
        let pass = |l: LinkId| match l.0 {
            0 => 0.95,
            1 => 0.85,
            2 => 0.9,
            _ => 0.92,
        };
        let rec = simulate_stripes(&tree, &pass, 10_000, &mut rng);
        assert_matches_production(&tree, &rec, 1e-9);
    }

    #[test]
    fn fixed_point_matches_bisection_on_wide_branching() {
        let tree = wide_tree();
        let mut rng = StdRng::seed_from_u64(202);
        let pass = |l: LinkId| match l.0 {
            0 => 0.8,
            1 => 0.9,
            2 => 0.7,
            _ => 0.95,
        };
        let rec = simulate_stripes(&tree, &pass, 10_000, &mut rng);
        assert_matches_production(&tree, &rec, 1e-9);
    }

    #[test]
    fn oracle_follows_the_dead_segment_convention() {
        let tree = y_tree();
        let mut rng = StdRng::seed_from_u64(203);
        let pass = |l: LinkId| if l.0 == 0 { 0.0 } else { 0.9 };
        let rec = simulate_stripes(&tree, &pass, 500, &mut rng);
        assert_matches_production(&tree, &rec, 1e-12);
        let oracle = oracle_pass_rates(&tree, &rec).unwrap();
        assert!(oracle.alpha.iter().all(|a| (0.0..=1.0).contains(a)));
    }

    #[test]
    fn leaf_mismatch_is_typed() {
        let tree = y_tree();
        let rec = ProbeRecord::new(vec![vec![true; 3]]);
        assert_eq!(
            oracle_pass_rates(&tree, &rec).unwrap_err(),
            InferError::LeafMismatch { tree: 2, record: 3 }
        );
    }
}
