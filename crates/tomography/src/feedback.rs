//! Feedback verification: defending inference against lying leaves (§3.3).
//!
//! Striped-unicast tomography trusts leaves to acknowledge received
//! probes. Two attacks exist:
//!
//! * **Spurious acknowledgments** — a leaf acks probes that were actually
//!   lost. Defeated by per-probe nonces ([`NonceLedger`]): a leaf that
//!   never received a probe cannot know its nonce.
//! * **Acknowledgment suppression** — a leaf drops acks for probes it
//!   received, which "can ruin many inferences throughout the tree".
//!   Detected statistically ([`suspicious_leaves`], after Arya et al.):
//!   a suppressing leaf's acknowledgment rate, *conditioned on sibling
//!   subtrees demonstrating that the shared path was up*, is far below
//!   its peers'.

use std::collections::HashMap;

use rand::Rng;

use concilium_crypto::Nonce;
use concilium_types::Id;

use crate::error::TomographyError;
use crate::probe::ProbeRecord;
use crate::tree::LogicalTree;

/// Tracks the nonce issued with each probe and validates echoes.
///
/// # Examples
///
/// ```
/// use concilium_tomography::feedback::NonceLedger;
/// use concilium_types::Id;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut ledger = NonceLedger::new();
/// let n = ledger.issue(0, Id::from_u64(5), &mut rng);
/// assert!(ledger.validate(0, Id::from_u64(5), n));
/// // A fabricated ack with a guessed nonce is rejected and counted.
/// let forged = concilium_crypto::Nonce::from_raw(12345);
/// assert!(!ledger.validate(0, Id::from_u64(5), forged));
/// assert_eq!(ledger.spurious_count(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct NonceLedger {
    issued: HashMap<(usize, Id), Nonce>,
    spurious: u64,
}

impl NonceLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        NonceLedger::default()
    }

    /// Issues (and records) the nonce for probe `stripe` to `leaf`.
    pub fn issue<R: Rng + ?Sized>(&mut self, stripe: usize, leaf: Id, rng: &mut R) -> Nonce {
        let n = Nonce::random(rng);
        self.issued.insert((stripe, leaf), n);
        n
    }

    /// Validates an echoed nonce. Mismatches and echoes for never-issued
    /// probes count as spurious acknowledgments.
    pub fn validate(&mut self, stripe: usize, leaf: Id, echoed: Nonce) -> bool {
        match self.issued.get(&(stripe, leaf)) {
            Some(n) if n.matches(echoed) => true,
            _ => {
                self.spurious += 1;
                false
            }
        }
    }

    /// Number of spurious acknowledgments seen so far.
    pub fn spurious_count(&self) -> u64 {
        self.spurious
    }

    /// Number of nonces issued.
    pub fn issued_count(&self) -> usize {
        self.issued.len()
    }
}

/// Flags leaves whose acknowledgment behaviour is inconsistent with their
/// siblings': likely acknowledgment suppressors.
///
/// For each leaf, consider only the stripes where some *other* subtree of
/// the leaf's parent acknowledged — evidence that the stripe reached the
/// parent. The leaf's conditional ack rate over those stripes estimates
/// its last-edge pass rate. A leaf whose conditional rate is below
/// `ratio_threshold ×` the median conditional rate across comparable
/// leaves is flagged.
///
/// Leaves with fewer than `min_evidence` evidence stripes, or without
/// siblings, are never flagged (no basis for comparison).
///
/// Returns the indices of flagged leaves.
///
/// # Panics
///
/// Panics if the record's leaf count does not match the tree, or if
/// `ratio_threshold` is not in `(0, 1)`. Use [`try_suspicious_leaves`]
/// for records received from other hosts.
pub fn suspicious_leaves(
    tree: &LogicalTree,
    record: &ProbeRecord,
    min_evidence: usize,
    ratio_threshold: f64,
) -> Vec<usize> {
    match try_suspicious_leaves(tree, record, min_evidence, ratio_threshold) {
        Ok(flagged) => flagged,
        #[expect(clippy::panic, reason = "documented-panic convenience wrapper; try_suspicious_leaves is the protocol-input path")]
        Err(err) => panic!("{err}"),
    }
}

/// Fallible variant of [`suspicious_leaves`] for protocol input.
///
/// # Errors
///
/// [`TomographyError::LeafMismatch`] when the record does not match the
/// tree, [`TomographyError::BadThreshold`] when `ratio_threshold` is
/// outside `(0, 1)`.
pub fn try_suspicious_leaves(
    tree: &LogicalTree,
    record: &ProbeRecord,
    min_evidence: usize,
    ratio_threshold: f64,
) -> Result<Vec<usize>, TomographyError> {
    if record.num_leaves() != tree.num_leaves() {
        return Err(TomographyError::LeafMismatch {
            tree: tree.num_leaves(),
            record: record.num_leaves(),
        });
    }
    if !(ratio_threshold > 0.0 && ratio_threshold < 1.0) {
        return Err(TomographyError::BadThreshold { value: ratio_threshold });
    }

    // Parent of each node.
    let mut parent = vec![usize::MAX; tree.num_nodes()];
    let mut stack = vec![0usize];
    while let Some(n) = stack.pop() {
        for &c in tree.children(n) {
            parent[c] = n;
            stack.push(c);
        }
    }

    // Subtree-ack indicator per stripe, per node (bottom-up).
    let n_leaves = tree.num_leaves();
    let stripes = record.num_stripes();

    // For each leaf: evidence count and conditional acks.
    let mut evidence = vec![0usize; n_leaves];
    let mut cond_acks = vec![0usize; n_leaves];

    // Pre-compute for each stripe the set of "subtree acked" flags.
    let order = post_order(tree);
    let mut acked = vec![false; tree.num_nodes()];
    for s in 0..stripes {
        for &node in &order {
            let mut any = tree
                .leaf_at(node)
                .map(|leaf| record.received(s, leaf))
                .unwrap_or(false);
            if !any {
                any = tree.children(node).iter().any(|&c| acked[c]);
            }
            acked[node] = any;
        }
        for leaf in 0..n_leaves {
            let node = tree.leaf_node(leaf);
            let p = parent[node];
            if p == usize::MAX {
                continue;
            }
            // Sibling evidence: any other child subtree of p acked, or p
            // itself directly acked (p may be a leaf node too).
            let sibling_evidence = tree
                .children(p)
                .iter()
                .any(|&c| c != node && acked[c])
                || tree
                    .leaf_at(p)
                    .map(|l| record.received(s, l))
                    .unwrap_or(false);
            if sibling_evidence {
                evidence[leaf] += 1;
                if record.received(s, leaf) {
                    cond_acks[leaf] += 1;
                }
            }
        }
    }

    let rates: Vec<Option<f64>> = (0..n_leaves)
        .map(|l| {
            if evidence[l] >= min_evidence {
                Some(cond_acks[l] as f64 / evidence[l] as f64)
            } else {
                None
            }
        })
        .collect();

    let mut usable: Vec<f64> = rates.iter().filter_map(|r| *r).collect();
    if usable.len() < 2 {
        return Ok(Vec::new());
    }
    // Rates are ratios of non-negative counters and thus never NaN, but
    // `total_cmp` keeps the sort panic-free even if that ever changes.
    usable.sort_by(f64::total_cmp);
    let median = usable[usable.len() / 2];
    if median <= 0.0 {
        return Ok(Vec::new());
    }

    Ok((0..n_leaves)
        .filter(|&l| matches!(rates[l], Some(r) if r < ratio_threshold * median))
        .collect())
}

fn post_order(tree: &LogicalTree) -> Vec<usize> {
    let mut order = Vec::with_capacity(tree.num_nodes());
    let mut stack = vec![(0usize, false)];
    while let Some((node, expanded)) = stack.pop() {
        if expanded {
            order.push(node);
        } else {
            stack.push((node, true));
            for &c in tree.children(node) {
                stack.push((c, false));
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::simulate_stripes;
    use crate::tree::ProbeTree;
    use concilium_topology::IpPath;
    use concilium_types::{LinkId, RouterId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(routers: &[u32], links: &[u32]) -> IpPath {
        IpPath::new(
            routers.iter().copied().map(RouterId).collect(),
            links.iter().copied().map(LinkId).collect(),
        )
    }

    fn four_leaf_tree() -> LogicalTree {
        ProbeTree::from_paths(
            RouterId(0),
            vec![
                (Id::from_u64(1), p(&[0, 1, 2], &[0, 1])),
                (Id::from_u64(2), p(&[0, 1, 3], &[0, 2])),
                (Id::from_u64(3), p(&[0, 1, 4], &[0, 3])),
                (Id::from_u64(4), p(&[0, 1, 5], &[0, 4])),
            ],
        )
        .unwrap()
        .logical()
    }

    #[test]
    fn honest_leaves_not_flagged() {
        let tree = four_leaf_tree();
        let mut rng = StdRng::seed_from_u64(7);
        let rec = simulate_stripes(&tree, &|_| 0.9, 5_000, &mut rng);
        assert!(suspicious_leaves(&tree, &rec, 50, 0.5).is_empty());
    }

    #[test]
    fn suppressor_flagged() {
        let tree = four_leaf_tree();
        let mut rng = StdRng::seed_from_u64(8);
        let mut rec = simulate_stripes(&tree, &|_| 0.9, 5_000, &mut rng);
        rec.suppress_leaf(2);
        assert_eq!(suspicious_leaves(&tree, &rec, 50, 0.5), vec![2]);
    }

    #[test]
    fn genuinely_lossy_last_mile_not_flagged_at_loose_threshold() {
        // A leaf behind a 60%-pass last mile is lossy but not a suppressor;
        // with ratio 0.3 it should survive (0.6 > 0.3 × ~0.9).
        let tree = four_leaf_tree();
        let mut rng = StdRng::seed_from_u64(9);
        let pass = |l: LinkId| if l.0 == 3 { 0.6 } else { 0.9 };
        let rec = simulate_stripes(&tree, &pass, 5_000, &mut rng);
        assert!(suspicious_leaves(&tree, &rec, 50, 0.3).is_empty());
    }

    #[test]
    fn insufficient_evidence_never_flags() {
        let tree = four_leaf_tree();
        let mut rng = StdRng::seed_from_u64(10);
        let mut rec = simulate_stripes(&tree, &|_| 0.9, 30, &mut rng);
        rec.suppress_leaf(0);
        // min_evidence of 100 exceeds the 30 stripes available.
        assert!(suspicious_leaves(&tree, &rec, 100, 0.5).is_empty());
    }

    #[test]
    fn nonce_ledger_counts_spurious() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut ledger = NonceLedger::new();
        let leaf = Id::from_u64(1);
        let n0 = ledger.issue(0, leaf, &mut rng);
        let _n1 = ledger.issue(1, leaf, &mut rng);
        assert!(ledger.validate(0, leaf, n0));
        // Replaying stripe 0's nonce for stripe 1 fails.
        assert!(!ledger.validate(1, leaf, n0));
        // Acks for probes never issued fail.
        assert!(!ledger.validate(7, leaf, n0));
        assert_eq!(ledger.spurious_count(), 2);
        assert_eq!(ledger.issued_count(), 2);
    }

    #[test]
    #[should_panic(expected = "ratio threshold")]
    fn bad_threshold_rejected() {
        let tree = four_leaf_tree();
        let rec = ProbeRecord::new(vec![vec![true; 4]]);
        let _ = suspicious_leaves(&tree, &rec, 1, 1.5);
    }
}
