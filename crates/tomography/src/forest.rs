//! Forests F_H: a host's tree together with its routing peers' trees.
//!
//! Figure 4 of the paper studies how forest link coverage grows as a host
//! incorporates tomographic results from more peer trees: a few trees
//! cover the highly shared core links, but many are needed for last-mile
//! links used by only a few hosts. [`Forest`] computes that coverage curve
//! and the per-link "vouching peer" counts.
//!
//! Everything is computed once, in [`Forest::new`], in one sweep over the
//! trees in order with a count per link in a table indexed by `LinkId`.
//! A link's first occurrence adds it to the union, and a running count
//! over the trees is the prefix table — after tree `k`, how many distinct
//! links and how many link occurrences trees `..=k` hold. That is O(N)
//! for N link occurrences, with no sort; every query afterwards is an
//! O(1) read of the table, so a whole coverage curve costs what a single
//! point used to.

use std::collections::HashMap;

use concilium_types::LinkId;

/// The forest F_H: the union of the host's own probe tree and the trees
/// rooted at each of its routing peers.
#[derive(Clone, Debug)]
pub struct Forest {
    /// Union of all links in the forest, in order of first occurrence.
    universe: Vec<LinkId>,
    /// Per `universe` entry: how many trees probe that link.
    vouchers: Vec<u32>,
    /// Entry `k`: `(distinct links, link occurrences)` over trees `..=k`;
    /// index 0 is the host's own tree.
    prefix: Vec<(usize, usize)>,
}

impl Forest {
    /// Builds the forest from the link set of the host's own tree and the
    /// link sets of its peers' trees (see `ProbeTree::link_set`), borrowed:
    /// a caller assembling many forests computes each tree's set once.
    pub fn new<'a>(own: &'a [LinkId], peers: impl IntoIterator<Item = &'a [LinkId]>) -> Self {
        let trees: Vec<&[LinkId]> = std::iter::once(own).chain(peers).collect();
        let links = trees.iter().flat_map(|ls| ls.iter());
        // Per `LinkId`: how many trees so far hold the link.
        let mut count = vec![0u32; links.map(|l| l.index() + 1).max().unwrap_or(0)];
        let mut universe = Vec::new();
        let mut prefix = Vec::with_capacity(trees.len());
        let mut total = 0;
        for ls in trees {
            for &link in ls {
                if count[link.index()] == 0 {
                    universe.push(link);
                }
                count[link.index()] += 1;
            }
            total += ls.len();
            prefix.push((universe.len(), total));
        }
        let vouchers = universe.iter().map(|l| count[l.index()]).collect();
        Forest { universe, vouchers, prefix }
    }

    /// Total number of distinct links in the forest.
    pub fn total_links(&self) -> usize {
        self.universe.len()
    }

    /// Number of trees in the forest (own + peers).
    pub fn num_trees(&self) -> usize {
        self.prefix.len()
    }

    /// `(distinct links, link occurrences)` over the host's own tree plus
    /// the first `peer_trees` peer trees.
    fn prefix_with(&self, peer_trees: usize) -> (usize, usize) {
        assert!(
            peer_trees < self.prefix.len(),
            "forest has only {} peer trees",
            self.prefix.len() - 1
        );
        self.prefix[peer_trees]
    }

    /// Fraction of forest links covered by the host's own tree plus the
    /// first `peer_trees` peer trees (in construction order).
    ///
    /// # Panics
    ///
    /// Panics if `peer_trees` exceeds the number of peer trees.
    pub fn coverage_with(&self, peer_trees: usize) -> f64 {
        let (distinct, _) = self.prefix_with(peer_trees);
        distinct as f64 / self.total_links() as f64
    }

    /// The full coverage curve: entry `k` is the coverage fraction with
    /// `k` peer trees included (entry 0 = own tree only).
    pub fn coverage_curve(&self) -> Vec<f64> {
        (0..self.num_trees()).map(|k| self.coverage_with(k)).collect()
    }

    /// For each forest link, how many trees probe it ("vouching peers").
    pub fn vouch_counts(&self) -> HashMap<LinkId, u32> {
        self.universe.iter().copied().zip(self.vouchers.iter().copied()).collect()
    }

    /// Mean number of vouching trees per covered link, when the host's own
    /// tree plus the first `peer_trees` peer trees are included.
    ///
    /// # Panics
    ///
    /// Panics if `peer_trees` exceeds the number of peer trees.
    pub fn mean_vouchers_with(&self, peer_trees: usize) -> f64 {
        let (distinct, occurrences) = self.prefix_with(peer_trees);
        if distinct == 0 {
            return 0.0;
        }
        occurrences as f64 / distinct as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::ProbeTree;
    use concilium_topology::IpPath;
    use concilium_types::{Id, RouterId};

    fn p(routers: &[u32], links: &[u32]) -> IpPath {
        IpPath::new(
            routers.iter().copied().map(RouterId).collect(),
            links.iter().copied().map(LinkId).collect(),
        )
    }

    fn tree(root: u32, leaves: Vec<(u64, IpPath)>) -> ProbeTree {
        ProbeTree::from_paths(
            RouterId(root),
            leaves.into_iter().map(|(i, path)| (Id::from_u64(i), path)).collect(),
        )
        .unwrap()
    }

    fn forest() -> Forest {
        // Own tree covers links {0,1}; peer 1 covers {0,2}; peer 2 {3,4}.
        let own = tree(0, vec![(1, p(&[0, 1, 2], &[0, 1]))]);
        let p1 = tree(5, vec![(2, p(&[5, 1, 6], &[2, 0]))]);
        let p2 = tree(7, vec![(3, p(&[7, 8, 9], &[3, 4]))]);
        let peers = [p1.link_set(), p2.link_set()];
        Forest::new(&own.link_set(), peers.iter().map(Vec::as_slice))
    }

    #[test]
    fn universe_is_union() {
        let f = forest();
        assert_eq!(f.total_links(), 5);
        assert_eq!(f.num_trees(), 3);
    }

    #[test]
    fn coverage_grows_monotonically() {
        let f = forest();
        let curve = f.coverage_curve();
        assert_eq!(curve.len(), 3);
        assert!((curve[0] - 2.0 / 5.0).abs() < 1e-12);
        assert!((curve[1] - 3.0 / 5.0).abs() < 1e-12);
        assert!((curve[2] - 1.0).abs() < 1e-12);
        for w in curve.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(f.coverage_with(1), curve[1]);
    }

    #[test]
    fn vouch_counts_count_trees() {
        let f = forest();
        let counts = f.vouch_counts();
        assert_eq!(counts[&LinkId(0)], 2); // shared by own tree and peer 1
        assert_eq!(counts[&LinkId(1)], 1);
        assert_eq!(counts[&LinkId(3)], 1);
    }

    #[test]
    fn mean_vouchers_increase_with_trees() {
        let f = forest();
        // Own tree only: links {0,1}, one voucher each.
        assert!((f.mean_vouchers_with(0) - 1.0).abs() < 1e-12);
        // Adding peer 1: links {0:2, 1:1, 2:1} → 4/3.
        assert!((f.mean_vouchers_with(1) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "peer trees")]
    fn coverage_bounds_checked() {
        let f = forest();
        let _ = f.coverage_with(3);
    }

    /// `coverage_with` as it was before the prefix table: re-collect, sort
    /// and dedup the first `k + 1` link sets on every call.
    fn coverage_reference(trees: &[Vec<LinkId>], k: usize) -> f64 {
        let distinct = |ts: &[Vec<LinkId>]| {
            let mut links: Vec<LinkId> = ts.iter().flat_map(|ls| ls.iter().copied()).collect();
            links.sort();
            links.dedup();
            links.len()
        };
        distinct(&trees[..=k]) as f64 / distinct(trees) as f64
    }

    /// `mean_vouchers_with` as it was before the prefix table: rebuild a
    /// per-link count map on every call and sum it as `f64`s.
    fn mean_vouchers_reference(trees: &[Vec<LinkId>], k: usize) -> f64 {
        let mut counts: HashMap<LinkId, u32> = HashMap::new();
        for ls in &trees[..=k] {
            for &l in ls {
                *counts.entry(l).or_insert(0) += 1;
            }
        }
        if counts.is_empty() {
            return 0.0;
        }
        counts.values().map(|&c| c as f64).sum::<f64>() / counts.len() as f64
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Link sets for a random forest. Raw ids come from a small range
        /// so trees share links; per tree, two bits of `shape` move it to
        /// a range of its own (disjoint links) or replace it with a copy
        /// of the own tree (duplicate trees). Empty trees occur naturally.
        fn link_sets(raw: &[Vec<u32>], shape: u64) -> Vec<Vec<LinkId>> {
            let mut trees: Vec<Vec<LinkId>> = Vec::with_capacity(raw.len());
            for (i, ids) in raw.iter().enumerate() {
                let bits = shape >> (2 * i) & 3;
                if bits == 3 && i > 0 {
                    trees.push(trees[0].clone());
                    continue;
                }
                let offset = if bits == 1 { 1000 * (i as u32 + 1) } else { 0 };
                let mut ls: Vec<LinkId> = ids.iter().map(|&l| LinkId(l + offset)).collect();
                ls.sort();
                ls.dedup();
                trees.push(ls);
            }
            trees
        }

        proptest! {
            #[test]
            fn prefix_table_matches_the_per_call_reference(
                raw in proptest::collection::vec(proptest::collection::vec(0u32..24, 0..10), 1..9),
                shape in any::<u64>(),
            ) {
                let trees = link_sets(&raw, shape);
                let f = Forest::new(&trees[0], trees[1..].iter().map(Vec::as_slice));
                prop_assert_eq!(f.num_trees(), trees.len());
                let curve = f.coverage_curve();
                prop_assert_eq!(curve.len(), trees.len());
                for (k, point) in curve.iter().enumerate() {
                    prop_assert_eq!(
                        f.coverage_with(k).to_bits(),
                        coverage_reference(&trees, k).to_bits(),
                        "coverage at k = {}", k
                    );
                    prop_assert_eq!(point.to_bits(), f.coverage_with(k).to_bits());
                    prop_assert_eq!(
                        f.mean_vouchers_with(k).to_bits(),
                        mean_vouchers_reference(&trees, k).to_bits(),
                        "vouchers at k = {}", k
                    );
                }
                let mut counts: HashMap<LinkId, u32> = HashMap::new();
                for &l in trees.iter().flatten() {
                    *counts.entry(l).or_insert(0) += 1;
                }
                prop_assert_eq!(f.vouch_counts(), counts);
            }
        }
    }
}
