//! Striped-unicast probe simulation (§3.2).
//!
//! A probing host emulates multicast by sending back-to-back unicast
//! packets — one per routing peer. Because the packets of one stripe stay
//! close together as they traverse shared interior routers, they see the
//! *same* fate on shared links; that correlation is what lets the MINC
//! estimator attribute loss to interior links. The simulation reproduces
//! it directly: each stripe samples every logical edge once, and a leaf
//! receives its packet iff every edge on its path passed.

use rand::Rng;

use concilium_types::LinkId;

use crate::error::TomographyError;
use crate::tree::LogicalTree;

/// The acknowledgment record of a probing session: which leaves
/// acknowledged which stripes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProbeRecord {
    /// `outcomes[stripe][leaf]` — true iff the leaf acked that stripe.
    outcomes: Vec<Vec<bool>>,
    num_leaves: usize,
}

impl ProbeRecord {
    /// Creates a record from raw outcomes.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths or there are no stripes.
    /// Use `ProbeRecord::try_new` for records received from other
    /// hosts, where malformation is protocol input rather than a bug.
    pub fn new(outcomes: Vec<Vec<bool>>) -> Self {
        match Self::try_new(outcomes) {
            Ok(record) => record,
            #[expect(clippy::panic, reason = "documented-panic constructor; try_new is the protocol-input path")]
            Err(err) => panic!("{err}"),
        }
    }

    /// Creates a record from raw outcomes, validating shape.
    ///
    /// # Errors
    ///
    /// [`TomographyError::EmptyRecord`] with no stripes,
    /// [`TomographyError::NoLeaves`] with no leaves, and
    /// [`TomographyError::RaggedRecord`] when rows disagree on length.
    pub(crate) fn try_new(outcomes: Vec<Vec<bool>>) -> Result<Self, TomographyError> {
        if outcomes.is_empty() {
            return Err(TomographyError::EmptyRecord);
        }
        let num_leaves = outcomes[0].len();
        if num_leaves == 0 {
            return Err(TomographyError::NoLeaves);
        }
        for (stripe, row) in outcomes.iter().enumerate() {
            if row.len() != num_leaves {
                return Err(TomographyError::RaggedRecord {
                    stripe,
                    expected: num_leaves,
                    found: row.len(),
                });
            }
        }
        Ok(ProbeRecord { outcomes, num_leaves })
    }

    /// Number of stripes probed.
    pub(crate) fn num_stripes(&self) -> usize {
        self.outcomes.len()
    }

    /// Number of leaves probed.
    pub(crate) fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// Whether `leaf` acknowledged `stripe`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub(crate) fn received(&self, stripe: usize, leaf: usize) -> bool {
        self.outcomes[stripe][leaf]
    }

    /// Every stripe's outcomes across all leaves — the packed inference
    /// kernel transposes rows into per-leaf bitmasks in a single pass.
    pub(crate) fn rows(&self) -> &[Vec<bool>] {
        &self.outcomes
    }

    /// The fraction of stripes `leaf` acknowledged.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub(crate) fn leaf_ack_rate(&self, leaf: usize) -> f64 {
        let acks = self.outcomes.iter().filter(|row| row[leaf]).count();
        acks as f64 / self.num_stripes() as f64
    }

    /// Adversarial mutation: the leaf suppresses every acknowledgment
    /// (§3.3's "drop acknowledgments for probes that were received").
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub fn suppress_leaf(&mut self, leaf: usize) {
        assert!(leaf < self.num_leaves, "leaf {leaf} out of range");
        for row in &mut self.outcomes {
            row[leaf] = false;
        }
    }
}

/// A probe record with per-cell uncertainty: `Some(true)` — the leaf
/// acknowledged, `Some(false)` — the probing host *knows* the leaf did
/// not receive the stripe, `None` — the feedback channel itself failed
/// (the ack or its retransmissions were lost, the leaf was down), so the
/// stripe says nothing about that leaf.
///
/// Treating a lost ack as `false` is exactly the confusion the
/// fault-injection harness manufactures: it deflates the leaf's apparent
/// ack rate and skews every shared-segment estimate above it. Tolerant
/// inference ([`infer_pass_rates_tolerant_batch`]) discounts indeterminate
/// cells instead.
///
/// [`infer_pass_rates_tolerant_batch`]: crate::infer::infer_pass_rates_tolerant_batch
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartialProbeRecord {
    outcomes: Vec<Vec<Option<bool>>>,
    num_leaves: usize,
}

impl PartialProbeRecord {
    /// Creates a partial record from raw tri-state outcomes.
    ///
    /// # Errors
    ///
    /// Same shape validation as `ProbeRecord::try_new`.
    pub fn try_new(outcomes: Vec<Vec<Option<bool>>>) -> Result<Self, TomographyError> {
        if outcomes.is_empty() {
            return Err(TomographyError::EmptyRecord);
        }
        let num_leaves = outcomes[0].len();
        if num_leaves == 0 {
            return Err(TomographyError::NoLeaves);
        }
        for (stripe, row) in outcomes.iter().enumerate() {
            if row.len() != num_leaves {
                return Err(TomographyError::RaggedRecord {
                    stripe,
                    expected: num_leaves,
                    found: row.len(),
                });
            }
        }
        Ok(PartialProbeRecord { outcomes, num_leaves })
    }

    /// Lifts a complete record: every cell becomes known.
    pub fn from_complete(record: &ProbeRecord) -> Self {
        let outcomes = (0..record.num_stripes())
            .map(|s| (0..record.num_leaves()).map(|l| Some(record.received(s, l))).collect())
            .collect();
        PartialProbeRecord { outcomes, num_leaves: record.num_leaves() }
    }

    /// Number of leaves probed.
    pub(crate) fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// Every stripe's tri-state outcomes across all leaves — see
    /// [`ProbeRecord::rows`].
    pub(crate) fn rows(&self) -> &[Vec<Option<bool>>] {
        &self.outcomes
    }

    /// Censors each cell independently with probability `fraction` —
    /// the uniform feedback-loss model of the fault experiments.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn censor_random<R: Rng + ?Sized>(&mut self, fraction: f64, rng: &mut R) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "censor fraction must be in [0,1], got {fraction}"
        );
        for row in &mut self.outcomes {
            for cell in row.iter_mut() {
                if rng.gen_bool(fraction) {
                    *cell = None;
                }
            }
        }
    }
}

/// Simulates `stripes` striped-unicast probes over `tree`, where each
/// physical link passes a packet independently with `link_pass(link)`
/// probability, sampled **once per stripe per edge** (packets in a stripe
/// share fate on shared segments).
///
/// # Panics
///
/// Panics if `stripes == 0` or a pass rate is outside `[0, 1]`.
pub fn simulate_stripes<R: Rng + ?Sized>(
    tree: &LogicalTree,
    link_pass: &dyn Fn(LinkId) -> f64,
    stripes: usize,
    rng: &mut R,
) -> ProbeRecord {
    assert!(stripes > 0, "need at least one stripe");
    // Pre-compute per-edge pass rates: product over the physical segment.
    let edge_pass: Vec<f64> = (0..tree.num_edges())
        .map(|e| {
            tree.edge_links(e)
                .iter()
                .map(|&l| {
                    let p = link_pass(l);
                    assert!((0.0..=1.0).contains(&p), "pass rate {p} out of range");
                    p
                })
                .product()
        })
        .collect();
    // Pre-compute each leaf's edge path.
    let leaf_paths: Vec<Vec<usize>> =
        (0..tree.num_leaves()).map(|l| tree.leaf_edges(l)).collect();

    let mut outcomes = Vec::with_capacity(stripes);
    let mut edge_up = vec![false; tree.num_edges()];
    for _ in 0..stripes {
        for (e, up) in edge_up.iter_mut().enumerate() {
            *up = rng.gen_bool(edge_pass[e]);
        }
        let row: Vec<bool> = leaf_paths
            .iter()
            .map(|path| path.iter().all(|&e| edge_up[e]))
            .collect();
        outcomes.push(row);
    }
    ProbeRecord::new(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::ProbeTree;
    use concilium_topology::IpPath;
    use concilium_types::{Id, RouterId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_leaf_tree() -> LogicalTree {
        let p = |routers: &[u32], links: &[u32]| {
            IpPath::new(
                routers.iter().copied().map(RouterId).collect(),
                links.iter().copied().map(LinkId).collect(),
            )
        };
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

    #[test]
    fn perfect_links_always_ack() {
        let tree = two_leaf_tree();
        let mut rng = StdRng::seed_from_u64(1);
        let rec = simulate_stripes(&tree, &|_| 1.0, 100, &mut rng);
        for leaf in 0..2 {
            assert_eq!(rec.leaf_ack_rate(leaf), 1.0);
        }
    }

    #[test]
    fn dead_shared_link_kills_both_leaves() {
        let tree = two_leaf_tree();
        let mut rng = StdRng::seed_from_u64(2);
        let pass = |l: LinkId| if l == LinkId(0) { 0.0 } else { 1.0 };
        let rec = simulate_stripes(&tree, &pass, 50, &mut rng);
        assert_eq!(rec.leaf_ack_rate(0), 0.0);
        assert_eq!(rec.leaf_ack_rate(1), 0.0);
    }

    #[test]
    fn shared_loss_is_correlated() {
        // With the shared link at 50% and last miles perfect, the two
        // leaves must ack exactly the same stripes.
        let tree = two_leaf_tree();
        let mut rng = StdRng::seed_from_u64(3);
        let pass = |l: LinkId| if l == LinkId(0) { 0.5 } else { 1.0 };
        let rec = simulate_stripes(&tree, &pass, 500, &mut rng);
        for s in 0..rec.num_stripes() {
            assert_eq!(rec.received(s, 0), rec.received(s, 1), "stripe {s}");
        }
        let rate = rec.leaf_ack_rate(0);
        assert!((rate - 0.5).abs() < 0.07, "rate {rate}");
    }

    #[test]
    fn independent_last_mile_loss_is_uncorrelated() {
        let tree = two_leaf_tree();
        let mut rng = StdRng::seed_from_u64(4);
        let pass = |l: LinkId| if l == LinkId(0) { 1.0 } else { 0.5 };
        let rec = simulate_stripes(&tree, &pass, 2_000, &mut rng);
        // Joint ack rate should be ≈ 0.25, not 0.5.
        let both = (0..rec.num_stripes())
            .filter(|&s| rec.received(s, 0) && rec.received(s, 1))
            .count() as f64
            / rec.num_stripes() as f64;
        assert!((both - 0.25).abs() < 0.05, "joint rate {both}");
    }

    #[test]
    fn adversarial_mutations() {
        let tree = two_leaf_tree();
        let mut rng = StdRng::seed_from_u64(5);
        let mut rec = simulate_stripes(&tree, &|_| 0.7, 200, &mut rng);
        rec.suppress_leaf(0);
        assert_eq!(rec.leaf_ack_rate(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_record_rejected() {
        let _ = ProbeRecord::new(vec![vec![true, false], vec![true]]);
    }
}
