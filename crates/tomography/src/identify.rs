//! Boolean-tomography identifiability analysis.
//!
//! Given the probe/route matrix — which measurement paths cross which
//! physical links — two links are *distinguishable* iff some path contains
//! one but not the other (Bartolini et al., Galesi et al.). Links with
//! identical path-membership rows form an **ambiguity class**: no
//! inference, however clever, can tell their losses apart, so blame can
//! only ever be assigned to whole classes. For a probe tree the classes
//! coincide with the unbranched segments the [`LogicalTree`] collapses —
//! a structural fact [`AmbiguityClasses::matches_logical`] checks and the
//! DST identifiability invariant enforces.

use std::collections::BTreeMap;

use concilium_types::LinkId;

use crate::tree::{LogicalTree, ProbeTree};

/// The partition of a link set into indistinguishability classes under a
/// fixed set of measurement paths.
///
/// Classes are stored sorted (by their smallest link), each class sorted by
/// link id, so the representation is canonical for a given path matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AmbiguityClasses {
    classes: Vec<Vec<LinkId>>,
    class_of: BTreeMap<LinkId, usize>,
}

impl AmbiguityClasses {
    /// Computes the classes for an arbitrary path matrix: `paths[i]` is
    /// the (ordered or unordered) set of links measurement path `i`
    /// crosses. Links never crossed by any path do not appear.
    pub(crate) fn from_paths<P: AsRef<[LinkId]>>(paths: &[P]) -> Self {
        // Row for a link = sorted set of path indices containing it. Links
        // sharing a row are mutually unidentifiable.
        let mut rows: BTreeMap<LinkId, Vec<usize>> = BTreeMap::new();
        for (i, path) in paths.iter().enumerate() {
            for &link in path.as_ref() {
                let row = rows.entry(link).or_default();
                if row.last() != Some(&i) {
                    row.push(i);
                }
            }
        }
        let mut by_row: BTreeMap<Vec<usize>, Vec<LinkId>> = BTreeMap::new();
        for (link, row) in rows {
            by_row.entry(row).or_default().push(link);
        }
        let mut classes: Vec<Vec<LinkId>> = by_row.into_values().collect();
        for class in &mut classes {
            class.sort_unstable();
        }
        classes.sort();
        let mut class_of = BTreeMap::new();
        for (idx, class) in classes.iter().enumerate() {
            for &link in class {
                class_of.insert(link, idx);
            }
        }
        AmbiguityClasses { classes, class_of }
    }

    /// Computes the classes induced by a probe tree's root-to-leaf paths —
    /// the measurement matrix Concilium's striped probes realise.
    pub fn from_probe_tree(tree: &ProbeTree) -> Self {
        let paths: Vec<Vec<LinkId>> =
            tree.leaves().iter().map(|(_, p)| p.links().to_vec()).collect();
        Self::from_paths(&paths)
    }

    /// Number of ambiguity classes (= the maximum number of independently
    /// estimable quantities this matrix admits).
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// The classes, each sorted, ordered by smallest member link.
    pub fn classes(&self) -> &[Vec<LinkId>] {
        &self.classes
    }

    /// The index of the class `link` belongs to, if the link is covered by
    /// any measurement path.
    pub(crate) fn class_of(&self, link: LinkId) -> Option<usize> {
        self.class_of.get(&link).copied()
    }

    /// Whether `links` (in any order, duplicates allowed) is exactly one
    /// whole ambiguity class — the only granularity at which blame is
    /// theoretically sound.
    pub fn is_whole_class(&self, links: &[LinkId]) -> bool {
        let Some(&first) = links.first() else {
            return false;
        };
        let Some(idx) = self.class_of(first) else {
            return false;
        };
        let mut sorted: Vec<LinkId> = links.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        sorted == self.classes[idx]
    }

    /// Structural theory check: for a tree matrix, the ambiguity classes
    /// must be exactly the per-edge link segments of the collapsed
    /// [`LogicalTree`] — links on one unbranched segment sit below the
    /// same leaves (identical rows), and a branching point separates rows.
    /// Returns `false` if either side has a class the other lacks.
    pub fn matches_logical(&self, logical: &LogicalTree) -> bool {
        let mut edges: Vec<Vec<LinkId>> = (0..logical.num_edges())
            .map(|e| {
                let mut seg = logical.edge_links(e).to_vec();
                seg.sort_unstable();
                seg
            })
            .collect();
        edges.sort();
        edges == self.classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concilium_topology::IpPath;
    use concilium_types::{Id, RouterId};

    fn l(ids: &[u32]) -> Vec<LinkId> {
        ids.iter().copied().map(LinkId).collect()
    }

    fn p(routers: &[u32], links: &[u32]) -> IpPath {
        IpPath::new(
            routers.iter().copied().map(RouterId).collect(),
            links.iter().copied().map(LinkId).collect(),
        )
    }

    #[test]
    fn shared_prefix_is_one_class() {
        // Two paths share links {0, 1}; tails {2} and {3} are separate.
        let a = AmbiguityClasses::from_paths(&[l(&[0, 1, 2]), l(&[0, 1, 3])]);
        assert_eq!(a.num_classes(), 3);
        assert_eq!(a.classes(), &[l(&[0, 1]), l(&[2]), l(&[3])]);
        assert_eq!(a.class_of(LinkId(0)), a.class_of(LinkId(1)));
        assert_ne!(a.class_of(LinkId(1)), a.class_of(LinkId(2)));
        assert!(a.is_whole_class(&l(&[1, 0])));
        assert!(!a.is_whole_class(&l(&[0])));
    }

    #[test]
    fn disjoint_paths_are_fully_ambiguous_within() {
        let a = AmbiguityClasses::from_paths(&[l(&[5, 6, 7]), l(&[8])]);
        assert_eq!(a.classes(), &[l(&[5, 6, 7]), l(&[8])]);
        assert!(a.class_of(LinkId(9)).is_none());
        assert!(!a.is_whole_class(&[]));
        assert!(!a.is_whole_class(&l(&[9])));
    }

    #[test]
    fn duplicate_links_within_a_path_are_handled() {
        let a = AmbiguityClasses::from_paths(&[l(&[0, 0, 1])]);
        assert_eq!(a.classes(), &[l(&[0, 1])]);
    }

    #[test]
    fn tree_classes_match_logical_edges() {
        // The sample tree from tree.rs: shared link 0, branch to {1} and
        // to shared {2} branching again to {3} / {4}.
        let tree = ProbeTree::from_paths(
            RouterId(0),
            vec![
                (Id::from_u64(1), p(&[0, 1, 2], &[0, 1])),
                (Id::from_u64(2), p(&[0, 1, 3, 4], &[0, 2, 3])),
                (Id::from_u64(3), p(&[0, 1, 3, 5], &[0, 2, 4])),
            ],
        )
        .unwrap();
        let a = AmbiguityClasses::from_probe_tree(&tree);
        assert_eq!(a.num_classes(), 5);
        assert!(a.matches_logical(&tree.logical()));
        // Collapsing a chain: one leaf behind 4 links → one class of 4.
        let chain = ProbeTree::from_paths(
            RouterId(0),
            vec![(Id::from_u64(1), p(&[0, 1, 2, 3, 4], &[0, 1, 2, 3]))],
        )
        .unwrap();
        let ac = AmbiguityClasses::from_probe_tree(&chain);
        assert_eq!(ac.classes(), &[l(&[0, 1, 2, 3])]);
        assert!(ac.matches_logical(&chain.logical()));
    }

    #[test]
    fn mismatched_partition_is_rejected() {
        let tree = ProbeTree::from_paths(
            RouterId(0),
            vec![
                (Id::from_u64(1), p(&[0, 1, 2], &[0, 1])),
                (Id::from_u64(2), p(&[0, 1, 3], &[0, 2])),
            ],
        )
        .unwrap();
        // Classes of a *different* matrix must not match this tree.
        let other = AmbiguityClasses::from_paths(&[l(&[0, 1, 2])]);
        assert!(!other.matches_logical(&tree.logical()));
    }
}
