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

/// Words per leaf in a stripe-bit plane: 64 stripes each.
fn blocks(stripes: usize) -> usize {
    stripes.div_ceil(64)
}

/// Checks a stripe-major outcome table's shape; returns its leaf count.
fn leaves_of<T>(outcomes: &[Vec<T>]) -> Result<usize, TomographyError> {
    let Some(first) = outcomes.first() else {
        return Err(TomographyError::EmptyRecord);
    };
    let num_leaves = first.len();
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
    Ok(num_leaves)
}

/// The acknowledgment record of a probing session: which leaves
/// acknowledged which stripes.
///
/// Cells are stored leaf-major as bits, the layout the MINC kernel ORs up
/// the tree: stripe `s` of leaf `l` is bit `s % 64` of word
/// `l · ⌈stripes / 64⌉ + s / 64`. Bits past the last stripe are zero.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProbeRecord {
    /// The ack plane: a set bit means the leaf acked that stripe.
    acked: Vec<u64>,
    num_stripes: usize,
    num_leaves: usize,
}

impl ProbeRecord {
    /// Creates a record from raw outcomes, `outcomes[stripe][leaf]`.
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
        let mut record = ProbeRecord::lost(outcomes.len(), leaves_of(&outcomes)?);
        for (stripe, row) in outcomes.iter().enumerate() {
            for (leaf, &acked) in row.iter().enumerate() {
                if acked {
                    let (word, bit) = record.cell(stripe, leaf);
                    record.acked[word] |= bit;
                }
            }
        }
        Ok(record)
    }

    /// A record of `stripes × leaves` cells, none acknowledged.
    fn lost(stripes: usize, leaves: usize) -> Self {
        ProbeRecord {
            acked: vec![0; leaves * blocks(stripes)],
            num_stripes: stripes,
            num_leaves: leaves,
        }
    }

    /// The word index and bit mask of one cell.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    fn cell(&self, stripe: usize, leaf: usize) -> (usize, u64) {
        assert!(
            stripe < self.num_stripes && leaf < self.num_leaves,
            "cell ({stripe}, {leaf}) outside a {}×{} record",
            self.num_stripes,
            self.num_leaves
        );
        (leaf * blocks(self.num_stripes) + stripe / 64, 1 << (stripe % 64))
    }

    /// Number of stripes probed.
    pub(crate) fn num_stripes(&self) -> usize {
        self.num_stripes
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
        let (word, bit) = self.cell(stripe, leaf);
        self.acked[word] & bit != 0
    }

    /// The whole ack plane, one row of `⌈stripes / 64⌉` words per leaf.
    pub(crate) fn ack_plane(&self) -> &[u64] {
        &self.acked
    }

    /// The fraction of stripes `leaf` acknowledged.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub(crate) fn leaf_ack_rate(&self, leaf: usize) -> f64 {
        let acks = (0..self.num_stripes).filter(|&s| self.received(s, leaf)).count();
        acks as f64 / self.num_stripes as f64
    }

    /// Adversarial mutation: the leaf suppresses every acknowledgment
    /// (§3.3's "drop acknowledgments for probes that were received").
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub fn suppress_leaf(&mut self, leaf: usize) {
        assert!(leaf < self.num_leaves, "leaf {leaf} out of range");
        let row = blocks(self.num_stripes);
        self.acked[leaf * row..][..row].fill(0);
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
/// Stored as two [`ProbeRecord`]-layout planes: acks, and unknown cells
/// (whose ack bit is always clear).
///
/// [`infer_pass_rates_tolerant_batch`]: crate::infer::infer_pass_rates_tolerant_batch
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartialProbeRecord {
    /// The ack plane and the record's shape.
    known: ProbeRecord,
    /// The unknown plane: a set bit means that cell's feedback was lost.
    unknown: Vec<u64>,
}

impl PartialProbeRecord {
    /// Creates a partial record from raw tri-state outcomes,
    /// `outcomes[stripe][leaf]`.
    ///
    /// # Errors
    ///
    /// Same shape validation as `ProbeRecord::try_new`.
    pub fn try_new(outcomes: Vec<Vec<Option<bool>>>) -> Result<Self, TomographyError> {
        let known = ProbeRecord::lost(outcomes.len(), leaves_of(&outcomes)?);
        let mut record = PartialProbeRecord { unknown: vec![0; known.acked.len()], known };
        for (stripe, row) in outcomes.iter().enumerate() {
            for (leaf, &outcome) in row.iter().enumerate() {
                let (word, bit) = record.known.cell(stripe, leaf);
                match outcome {
                    Some(true) => record.known.acked[word] |= bit,
                    Some(false) => {}
                    None => record.unknown[word] |= bit,
                }
            }
        }
        Ok(record)
    }

    /// Lifts a complete record: every cell becomes known.
    pub fn from_complete(record: &ProbeRecord) -> Self {
        PartialProbeRecord { known: record.clone(), unknown: vec![0; record.acked.len()] }
    }

    /// Number of stripes probed.
    pub(crate) fn num_stripes(&self) -> usize {
        self.known.num_stripes
    }

    /// Number of leaves probed.
    pub(crate) fn num_leaves(&self) -> usize {
        self.known.num_leaves
    }

    /// The ack and unknown planes, laid out as [`ProbeRecord::ack_plane`].
    pub(crate) fn planes(&self) -> (&[u64], &[u64]) {
        (&self.known.acked, &self.unknown)
    }

    /// Censors each cell independently with probability `fraction` —
    /// the uniform feedback-loss model of the fault experiments. Cells are
    /// drawn stripe by stripe, each stripe's leaves in order.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn censor_random<R: Rng + ?Sized>(&mut self, fraction: f64, rng: &mut R) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "censor fraction must be in [0,1], got {fraction}"
        );
        for stripe in 0..self.known.num_stripes {
            for leaf in 0..self.known.num_leaves {
                if rng.gen_bool(fraction) {
                    let (word, bit) = self.known.cell(stripe, leaf);
                    self.known.acked[word] &= !bit;
                    self.unknown[word] |= bit;
                }
            }
        }
    }
}

#[cfg(test)]
impl PartialProbeRecord {
    /// One cell as a tri-state outcome.
    pub(crate) fn outcome(&self, stripe: usize, leaf: usize) -> Option<bool> {
        let (word, bit) = self.known.cell(stripe, leaf);
        (self.unknown[word] & bit == 0).then_some(self.known.acked[word] & bit != 0)
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

    let mut record = ProbeRecord::lost(stripes, tree.num_leaves());
    let mut edge_up = vec![false; tree.num_edges()];
    for stripe in 0..stripes {
        for (e, up) in edge_up.iter_mut().enumerate() {
            *up = rng.gen_bool(edge_pass[e]);
        }
        for (leaf, path) in leaf_paths.iter().enumerate() {
            if path.iter().all(|&e| edge_up[e]) {
                let (word, bit) = record.cell(stripe, leaf);
                record.acked[word] |= bit;
            }
        }
    }
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::ProbeTree;
    use concilium_topology::IpPath;
    use concilium_types::{Id, RouterId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn rows_round_trip_through_the_planes() {
        let mut rng = StdRng::seed_from_u64(6);
        for stripes in [1, 63, 64, 65, 300] {
            for leaves in [1, 64, 65] {
                let rows: Vec<Vec<bool>> = (0..stripes)
                    .map(|_| (0..leaves).map(|_| rng.gen_bool(0.5)).collect())
                    .collect();
                let rec = ProbeRecord::new(rows.clone());
                assert_eq!((rec.num_stripes(), rec.num_leaves()), (stripes, leaves));
                for (s, row) in rows.iter().enumerate() {
                    for (l, &acked) in row.iter().enumerate() {
                        assert_eq!(rec.received(s, l), acked, "{stripes}×{leaves} cell ({s}, {l})");
                    }
                }
                let acks = rows.iter().filter(|row| row[leaves - 1]).count();
                assert_eq!(rec.leaf_ack_rate(leaves - 1), acks as f64 / stripes as f64);

                let cells: Vec<Vec<Option<bool>>> = rows
                    .iter()
                    .map(|row| {
                        row.iter().map(|&a| (!a || rng.gen_bool(0.5)).then_some(a)).collect()
                    })
                    .collect();
                let partial = PartialProbeRecord::try_new(cells.clone()).unwrap();
                for (s, row) in cells.iter().enumerate() {
                    for (l, &cell) in row.iter().enumerate() {
                        let at = format!("{stripes}×{leaves} cell ({s}, {l})");
                        assert_eq!(partial.outcome(s, l), cell, "{at}");
                    }
                }
                let lifted =
                    rows.iter().map(|row| row.iter().map(|&a| Some(a)).collect()).collect();
                assert_eq!(
                    PartialProbeRecord::from_complete(&rec),
                    PartialProbeRecord::try_new(lifted).unwrap()
                );

                let mut suppressed = rec.clone();
                suppressed.suppress_leaf(0);
                for (s, row) in rows.iter().enumerate() {
                    assert!(!suppressed.received(s, 0));
                    for (l, &acked) in row.iter().enumerate().skip(1) {
                        assert_eq!(suppressed.received(s, l), acked);
                    }
                }
            }
        }
    }

    /// FNV-1a over a stripe-major sequence of cell codes.
    fn cell_digest(cells: impl Iterator<Item = u64>) -> u64 {
        cells.fold(0xcbf2_9ce4_8422_2325, |h, v| (h ^ v).wrapping_mul(0x0000_0100_0000_01b3))
    }

    /// Pins the rng draw order of `simulate_stripes` and `censor_random`:
    /// the digests were recorded when records were stored stripe-major as
    /// `Vec<Vec<bool>>`, before the planes.
    #[test]
    fn simulation_and_censoring_keep_their_draw_order() {
        let p = |routers: &[u32], links: &[u32]| {
            IpPath::new(
                routers.iter().copied().map(RouterId).collect(),
                links.iter().copied().map(LinkId).collect(),
            )
        };
        let tree = ProbeTree::from_paths(
            RouterId(0),
            vec![
                (Id::from_u64(1), p(&[0, 1, 2, 4], &[0, 1, 3])),
                (Id::from_u64(2), p(&[0, 1, 2, 5], &[0, 1, 4])),
                (Id::from_u64(3), p(&[0, 1, 3, 6], &[0, 2, 5])),
                (Id::from_u64(4), p(&[0, 1, 3, 7], &[0, 2, 6])),
                (Id::from_u64(5), p(&[0, 8], &[7])),
            ],
        )
        .unwrap()
        .logical();
        let mut rng = StdRng::seed_from_u64(2007);
        let pass = |l: LinkId| 0.6 + 0.05 * f64::from(l.0);
        let rec = simulate_stripes(&tree, &pass, 130, &mut rng);
        let cells = |f: &dyn Fn(usize, usize) -> u64| {
            cell_digest((0..130).flat_map(|s| (0..5).map(move |l| (s, l))).map(|(s, l)| f(s, l)))
        };
        assert_eq!(cells(&|s, l| u64::from(rec.received(s, l))), 0x11b1_834e_7f28_256b);
        let mut partial = PartialProbeRecord::from_complete(&rec);
        partial.censor_random(0.3, &mut rng);
        let code = |s, l| match partial.outcome(s, l) {
            Some(true) => 1,
            Some(false) => 0,
            None => 2,
        };
        assert_eq!(cells(&code), 0x7ce0_7564_140a_ce91);
        assert_eq!(rng.gen::<u64>(), 6_071_973_364_563_762_264);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_record_rejected() {
        let _ = ProbeRecord::new(vec![vec![true, false], vec![true]]);
    }
}
