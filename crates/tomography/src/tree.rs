//! Probe trees T_H and their collapsed logical form.

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use concilium_topology::IpPath;
use concilium_types::{Id, LinkId, RouterId};

/// The communication tree T_H: the IP paths from a root host to each of
/// its routing peers (§3.2).
///
/// Paths are stored verbatim; [`ProbeTree::logical`] collapses them into
/// the branching-point tree that the MINC estimator needs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ProbeTree {
    root: RouterId,
    leaves: Vec<(Id, IpPath)>,
}

impl ProbeTree {
    /// Builds a tree from the root's paths to its peers.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError`] if no paths are given, a path does not start
    /// at `root`, a trivial (zero-hop) path is supplied, a leaf identifier
    /// repeats, or two paths diverge and later re-merge (which would make
    /// the union a DAG, not a tree — real BFS route sets never do this).
    pub fn from_paths(root: RouterId, leaves: Vec<(Id, IpPath)>) -> Result<Self, TreeError> {
        if leaves.is_empty() {
            return Err(TreeError::Empty);
        }
        let mut seen = Vec::with_capacity(leaves.len());
        for (id, path) in &leaves {
            if path.source() != root {
                return Err(TreeError::WrongRoot { leaf: *id });
            }
            if path.hop_count() == 0 {
                return Err(TreeError::TrivialPath { leaf: *id });
            }
            if seen.contains(id) {
                return Err(TreeError::DuplicateLeaf { leaf: *id });
            }
            seen.push(*id);
        }
        let tree = ProbeTree { root, leaves };
        tree.check_tree_shape()?;
        Ok(tree)
    }

    /// Paths that diverge must never re-merge: for any two paths, once the
    /// routers differ at some depth, they must differ at all later depths.
    fn check_tree_shape(&self) -> Result<(), TreeError> {
        // parent[router] must be unique across all paths.
        let mut parent: HashMap<RouterId, (RouterId, LinkId)> = HashMap::new();
        for (id, path) in &self.leaves {
            let routers = path.routers();
            for (i, &link) in path.links().iter().enumerate() {
                let (from, to) = (routers[i], routers[i + 1]);
                match parent.get(&to) {
                    None => {
                        parent.insert(to, (from, link));
                    }
                    Some(&(pf, pl)) if pf == from && pl == link => {}
                    Some(_) => return Err(TreeError::Remerge { leaf: *id, router: to }),
                }
            }
        }
        Ok(())
    }

    /// The root router (the probing host's attachment point).
    pub fn root(&self) -> RouterId {
        self.root
    }

    /// The (leaf overlay id, path) pairs.
    pub fn leaves(&self) -> &[(Id, IpPath)] {
        &self.leaves
    }

    /// The number of leaves (routing peers).
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// The distinct physical links in the tree.
    pub fn link_set(&self) -> Vec<LinkId> {
        let mut links: Vec<LinkId> = self
            .leaves
            .iter()
            .flat_map(|(_, p)| p.links().iter().copied())
            .collect();
        links.sort();
        links.dedup();
        links
    }

    /// Collapses the tree to its logical form: maximal unbranched link
    /// segments become single logical edges.
    pub fn logical(&self) -> LogicalTree {
        LogicalTree::from_probe_tree(self)
    }
}

/// A node in a [`LogicalTree`].
#[derive(Clone, Debug, Serialize, Deserialize)]
struct LogicalNode {
    /// Physical links on the segment from the parent node to this node
    /// (empty only for the root).
    segment: Vec<LinkId>,
    children: Vec<usize>,
    /// Index into the leaf list when this node is a leaf.
    leaf: Option<usize>,
}

/// The collapsed (branching-point) form of a probe tree.
///
/// Node 0 is the root. Every other node has exactly one incoming *edge*
/// consisting of one or more physical links with no branching between
/// them; inference estimates one pass rate per edge. Edges are identified
/// by the index of their child node (1-based over nodes, but exposed as
/// `0..num_edges()` mapping to node `edge + 1`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LogicalTree {
    nodes: Vec<LogicalNode>,
    /// For each leaf, in the order used by probe records, the node index
    /// where it sits.
    leaf_nodes: Vec<usize>,
}

impl LogicalTree {
    fn from_probe_tree(tree: &ProbeTree) -> Self {
        // Build the full trie keyed by physical link sequence, then
        // collapse unbranched chains.
        #[derive(Default)]
        struct TrieNode {
            children: Vec<(LinkId, usize)>,
            leaf: Option<usize>,
        }
        let mut trie: Vec<TrieNode> = vec![TrieNode::default()];
        for (leaf_idx, (_, path)) in tree.leaves().iter().enumerate() {
            let mut cur = 0usize;
            for &link in path.links() {
                let next = match trie[cur].children.iter().find(|(l, _)| *l == link) {
                    Some(&(_, n)) => n,
                    None => {
                        let n = trie.len();
                        trie.push(TrieNode::default());
                        trie[cur].children.push((link, n));
                        n
                    }
                };
                cur = next;
            }
            trie[cur].leaf = Some(leaf_idx);
        }

        // Collapse: walk from the root; each child subtree becomes a
        // logical node whose segment is the chain of single-child,
        // non-leaf trie nodes.
        let mut nodes = vec![LogicalNode { segment: Vec::new(), children: Vec::new(), leaf: None }];
        let mut leaf_nodes = vec![usize::MAX; tree.num_leaves()];
        // Stack of (trie node, logical parent).
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        while let Some((t, parent)) = stack.pop() {
            for &(first_link, mut child) in &trie[t].children {
                let mut segment = vec![first_link];
                // Extend through unbranched, non-leaf chain.
                while trie[child].children.len() == 1 && trie[child].leaf.is_none() {
                    let (l, n) = trie[child].children[0];
                    segment.push(l);
                    child = n;
                }
                let idx = nodes.len();
                nodes.push(LogicalNode {
                    segment,
                    children: Vec::new(),
                    leaf: trie[child].leaf,
                });
                nodes[parent].children.push(idx);
                if let Some(li) = trie[child].leaf {
                    leaf_nodes[li] = idx;
                }
                stack.push((child, idx));
            }
        }
        debug_assert!(leaf_nodes.iter().all(|&n| n != usize::MAX));
        LogicalTree { nodes, leaf_nodes }
    }

    /// Number of logical nodes (including the root).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of logical edges (= nodes − 1).
    pub fn num_edges(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.leaf_nodes.len()
    }

    /// The physical links making up logical edge `edge`
    /// (`0 ≤ edge < num_edges()`).
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn edge_links(&self, edge: usize) -> &[LinkId] {
        &self.nodes[edge + 1].segment
    }

    /// The child node indices of node `node` (0 = root).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub(crate) fn children(&self, node: usize) -> &[usize] {
        &self.nodes[node].children
    }

    /// The leaf index at `node`, if that node is a leaf.
    pub(crate) fn leaf_at(&self, node: usize) -> Option<usize> {
        self.nodes[node].leaf
    }

    /// The node index where leaf `leaf` sits.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub(crate) fn leaf_node(&self, leaf: usize) -> usize {
        self.leaf_nodes[leaf]
    }

    /// The logical edges on the path from the root to leaf `leaf`.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub fn leaf_edges(&self, leaf: usize) -> Vec<usize> {
        // Walk down from root looking for the leaf; trees are small, a
        // simple DFS with path tracking suffices.
        let target = self.leaf_nodes[leaf];
        let mut path = Vec::new();
        self.find_path(0, target, &mut path);
        path
    }

    fn find_path(&self, node: usize, target: usize, path: &mut Vec<usize>) -> bool {
        if node == target {
            return true;
        }
        for &c in &self.nodes[node].children {
            path.push(c - 1); // edge index of child c is c - 1
            if self.find_path(c, target, path) {
                return true;
            }
            path.pop();
        }
        false
    }
}

/// Errors from probe-tree construction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TreeError {
    /// No paths supplied.
    Empty,
    /// A path does not start at the declared root.
    WrongRoot {
        /// The offending leaf.
        leaf: Id,
    },
    /// A zero-hop path was supplied.
    TrivialPath {
        /// The offending leaf.
        leaf: Id,
    },
    /// The same leaf id appears twice.
    DuplicateLeaf {
        /// The offending leaf.
        leaf: Id,
    },
    /// Two paths diverge and re-merge, so the union is not a tree.
    Remerge {
        /// A leaf whose path re-merges.
        leaf: Id,
        /// The router where the merge was detected.
        router: RouterId,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::Empty => f.write_str("a probe tree needs at least one leaf"),
            TreeError::WrongRoot { leaf } => {
                write!(f, "path to leaf {leaf} does not start at the root")
            }
            TreeError::TrivialPath { leaf } => {
                write!(f, "path to leaf {leaf} has no links")
            }
            TreeError::DuplicateLeaf { leaf } => write!(f, "duplicate leaf {leaf}"),
            TreeError::Remerge { leaf, router } => {
                write!(f, "path to leaf {leaf} re-merges at router {router}")
            }
        }
    }
}

impl std::error::Error for TreeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(routers: &[u32], links: &[u32]) -> IpPath {
        IpPath::new(
            routers.iter().copied().map(RouterId).collect(),
            links.iter().copied().map(LinkId).collect(),
        )
    }

    /// Root 0 → router 1 (link 0), then 1 → 2 (link 1, leaf A),
    /// 1 → 3 (link 2) → 4 (link 3, leaf B), 1 → 3 → 5 (link 4, leaf C).
    fn sample_tree() -> ProbeTree {
        ProbeTree::from_paths(
            RouterId(0),
            vec![
                (Id::from_u64(1), p(&[0, 1, 2], &[0, 1])),
                (Id::from_u64(2), p(&[0, 1, 3, 4], &[0, 2, 3])),
                (Id::from_u64(3), p(&[0, 1, 3, 5], &[0, 2, 4])),
            ],
        )
        .unwrap()
    }

    #[test]
    fn link_set_is_deduplicated() {
        let t = sample_tree();
        assert_eq!(
            t.link_set(),
            vec![LinkId(0), LinkId(1), LinkId(2), LinkId(3), LinkId(4)]
        );
    }

    #[test]
    fn logical_tree_collapses_chains() {
        let t = sample_tree();
        let l = t.logical();
        // Logical structure: root → branch at router 1.
        //   edge to leaf A: segment [link 0? no...]
        // Careful: link 0 is shared by all leaves, so the first logical
        // edge is [0] ending at the branch node; then [1] to leaf A, and
        // [2] to the second branch... wait, router 3 branches to 4 and 5,
        // so [2] is its own edge, then [3] and [4].
        assert_eq!(l.num_leaves(), 3);
        assert_eq!(l.num_edges(), 5);
        // Shared edge [0]: on every leaf's edge path.
        for leaf in 0..3 {
            let edges = l.leaf_edges(leaf);
            assert_eq!(l.edge_links(edges[0]), &[LinkId(0)]);
        }
        // Leaf A has 2 edges; B and C have 3.
        assert_eq!(l.leaf_edges(0).len(), 2);
        assert_eq!(l.leaf_edges(1).len(), 3);
        assert_eq!(l.leaf_edges(2).len(), 3);
    }

    #[test]
    fn long_chain_collapses_to_one_edge() {
        let t = ProbeTree::from_paths(
            RouterId(0),
            vec![(Id::from_u64(1), p(&[0, 1, 2, 3, 4], &[0, 1, 2, 3]))],
        )
        .unwrap();
        let l = t.logical();
        assert_eq!(l.num_edges(), 1);
        assert_eq!(
            l.edge_links(0),
            &[LinkId(0), LinkId(1), LinkId(2), LinkId(3)]
        );
        assert_eq!(l.leaf_edges(0), vec![0]);
    }

    #[test]
    fn errors_detected() {
        assert_eq!(ProbeTree::from_paths(RouterId(0), vec![]), Err(TreeError::Empty));

        let wrong_root = ProbeTree::from_paths(
            RouterId(9),
            vec![(Id::from_u64(1), p(&[0, 1], &[0]))],
        );
        assert_eq!(wrong_root, Err(TreeError::WrongRoot { leaf: Id::from_u64(1) }));

        let trivial = ProbeTree::from_paths(
            RouterId(0),
            vec![(Id::from_u64(1), p(&[0], &[]))],
        );
        assert_eq!(trivial, Err(TreeError::TrivialPath { leaf: Id::from_u64(1) }));

        let dup = ProbeTree::from_paths(
            RouterId(0),
            vec![
                (Id::from_u64(1), p(&[0, 1], &[0])),
                (Id::from_u64(1), p(&[0, 2], &[1])),
            ],
        );
        assert_eq!(dup, Err(TreeError::DuplicateLeaf { leaf: Id::from_u64(1) }));

        // Diverge at 0 (via links 0/1) then re-merge at router 3.
        let remerge = ProbeTree::from_paths(
            RouterId(0),
            vec![
                (Id::from_u64(1), p(&[0, 1, 3], &[0, 2])),
                (Id::from_u64(2), p(&[0, 2, 3], &[1, 3])),
            ],
        );
        assert!(matches!(remerge, Err(TreeError::Remerge { .. })));
    }

    // PartialEq needed for assert_eq on Results above.
    impl PartialEq for ProbeTree {
        fn eq(&self, other: &Self) -> bool {
            self.root == other.root && self.leaves == other.leaves
        }
    }
}
