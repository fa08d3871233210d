//! Single-source IP routing.
//!
//! Internet routes are stable for at least a day (§3.2 cites Zhang et al.),
//! so the reproduction computes static shortest paths once per host. A
//! [`BfsTree`] holds the parent pointers of a breadth-first search from a
//! source router; [`BfsTree::path_to`] extracts the router/link path that
//! the host's link map records.
//!
//! A tree costs 16 bytes per router, so a caller that searches from many
//! sources runs them through one [`BfsScratch`] — the per-router arrays are
//! allocated once and the tree of each run is only borrowed until the next
//! — and keeps per source a [`PrunedBfsTree`]: the parent pointers on the
//! paths to the routers it will ask about, nothing else.

use concilium_types::{LinkId, RouterId};

use crate::graph::Graph;
use crate::path::IpPath;

/// A shortest-path (BFS) tree rooted at a source router.
///
/// # Examples
///
/// ```
/// use concilium_topology::{GraphBuilder, BfsTree};
/// use concilium_types::RouterId;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_link(RouterId(0), RouterId(1));
/// b.add_link(RouterId(1), RouterId(2));
/// let g = b.build();
/// let tree = BfsTree::compute(&g, RouterId(0));
/// let path = tree.path_to(RouterId(2)).unwrap();
/// assert_eq!(path.hop_count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct BfsTree {
    source: RouterId,
    /// For each router: the (parent router, link to parent), or None if the
    /// router is the source or unreachable.
    parent: Vec<Option<(RouterId, LinkId)>>,
    /// Hop distance from the source; `u32::MAX` when unreachable.
    dist: Vec<u32>,
}

/// Reusable breadth-first search state: the per-router arrays of one
/// [`BfsTree`] plus the frontier, allocated on the first run and reused by
/// every later one.
///
/// # Examples
///
/// ```
/// use concilium_topology::{BfsScratch, BfsTree, GraphBuilder};
/// use concilium_types::RouterId;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_link(RouterId(0), RouterId(1));
/// b.add_link(RouterId(1), RouterId(2));
/// let g = b.build();
/// let mut scratch = BfsScratch::new();
/// for src in g.routers() {
///     let fresh = BfsTree::compute(&g, src);
///     let tree = scratch.run(&g, src);
///     assert_eq!(tree.path_to(RouterId(2)), fresh.path_to(RouterId(2)));
/// }
/// ```
#[derive(Debug)]
pub struct BfsScratch {
    tree: BfsTree,
    /// Routers in visit order; the search reads it as a queue.
    frontier: Vec<RouterId>,
}

impl Default for BfsScratch {
    fn default() -> Self {
        BfsScratch::new()
    }
}

impl BfsScratch {
    /// Empty scratch; the first [`BfsScratch::run`] sizes it.
    pub fn new() -> Self {
        let tree = BfsTree { source: RouterId(0), parent: Vec::new(), dist: Vec::new() };
        BfsScratch { tree, frontier: Vec::new() }
    }

    /// Runs a breadth-first search from `source`, overwriting the previous
    /// run's tree. The borrow ends the returned tree's life at the next
    /// run.
    ///
    /// Ties between equal-length paths are broken by adjacency order, which
    /// is deterministic for a given graph — all hosts deduce the same route
    /// between two routers, mirroring stable IP routing.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn run(&mut self, graph: &Graph, source: RouterId) -> &BfsTree {
        let _span = concilium_obs::span("topo.bfs");
        assert!(source.index() < graph.num_routers(), "router {source} out of range");
        let n = graph.num_routers();
        let BfsTree { parent, dist, .. } = &mut self.tree;
        parent.clear();
        parent.resize(n, None);
        dist.clear();
        dist.resize(n, u32::MAX);
        dist[source.index()] = 0;
        self.frontier.clear();
        self.frontier.push(source);
        let mut head = 0;
        while let Some(&r) = self.frontier.get(head) {
            head += 1;
            let d = dist[r.index()];
            for &(nbr, link) in graph.neighbors(r) {
                if dist[nbr.index()] == u32::MAX {
                    dist[nbr.index()] = d + 1;
                    parent[nbr.index()] = Some((r, link));
                    self.frontier.push(nbr);
                }
            }
        }
        self.tree.source = source;
        &self.tree
    }
}

impl BfsTree {
    /// Runs a breadth-first search from `source` into a tree of its own
    /// (see [`BfsScratch::run`] for the search and its tie-breaking).
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn compute(graph: &Graph, source: RouterId) -> Self {
        let mut scratch = BfsScratch::new();
        scratch.run(graph, source);
        scratch.tree
    }

    /// The source router.
    pub fn source(&self) -> RouterId {
        self.source
    }

    /// Hop distance from the source to `target`, or `None` if unreachable.
    pub fn distance(&self, target: RouterId) -> Option<u32> {
        match self.dist[target.index()] {
            u32::MAX => None,
            d => Some(d),
        }
    }

    /// Extracts the path from the source to `target`.
    ///
    /// Returns `None` if `target` is unreachable. The path runs source →
    /// target.
    pub fn path_to(&self, target: RouterId) -> Option<IpPath> {
        if self.dist[target.index()] == u32::MAX {
            return None;
        }
        Some(path_up(target, |r| self.parent[r.index()]))
    }

    /// The part of this tree that reaches `targets`: the parent pointers on
    /// the union of the source → target paths. At most `targets.len()` ×
    /// depth entries, where the tree itself has one per router of the
    /// graph. Unreachable targets are left out.
    pub fn pruned_to(&self, targets: &[RouterId]) -> PrunedBfsTree {
        let mut hops = Vec::new();
        let mut kept = vec![false; self.parent.len()];
        for &target in targets {
            // Up from the target until a router an earlier walk kept: the
            // rest of the way to the source is already in `hops`.
            let mut cur = target;
            while let Some((p, link)) = self.parent[cur.index()] {
                if std::mem::replace(&mut kept[cur.index()], true) {
                    break;
                }
                hops.push((cur, p, link));
                cur = p;
            }
        }
        hops.sort_unstable();
        hops.shrink_to_fit();
        PrunedBfsTree { source: self.source, hops }
    }
}

/// Walks parent pointers from `target` up to the router that has none and
/// returns the path in source → target order.
fn path_up(target: RouterId, parent: impl Fn(RouterId) -> Option<(RouterId, LinkId)>) -> IpPath {
    let mut routers = vec![target];
    let mut links = Vec::new();
    let mut cur = target;
    while let Some((p, link)) = parent(cur) {
        links.push(link);
        routers.push(p);
        cur = p;
    }
    routers.reverse();
    links.reverse();
    IpPath::new(routers, links)
}

/// The parent pointers of a [`BfsTree`] on the union of its paths to a
/// fixed set of targets (see [`BfsTree::pruned_to`]) — what a caller keeps
/// per source when it cannot afford the whole tree.
#[derive(Clone, Debug)]
pub struct PrunedBfsTree {
    source: RouterId,
    /// `(router, parent router, link to parent)`, sorted by router.
    hops: Vec<(RouterId, RouterId, LinkId)>,
}

impl PrunedBfsTree {
    /// The source router.
    pub fn source(&self) -> RouterId {
        self.source
    }

    /// The path from the source to `target`, equal to what the full tree's
    /// [`BfsTree::path_to`] returns.
    ///
    /// Returns `None` if `target` is not on a path to one of the targets
    /// the tree was pruned to.
    pub fn path_to(&self, target: RouterId) -> Option<IpPath> {
        let parent = |r: RouterId| {
            let i = self.hops.binary_search_by_key(&r, |&(router, _, _)| router).ok()?;
            Some((self.hops[i].1, self.hops[i].2))
        };
        if target != self.source && parent(target).is_none() {
            return None;
        }
        Some(path_up(target, parent))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, TransitStubConfig};
    use crate::graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line(n: u32) -> Graph {
        let mut b = GraphBuilder::new(n as usize);
        for i in 0..n - 1 {
            b.add_link(RouterId(i), RouterId(i + 1));
        }
        b.build()
    }

    #[test]
    fn distances_on_a_line() {
        let g = line(5);
        let t = BfsTree::compute(&g, RouterId(0));
        for i in 0..5 {
            assert_eq!(t.distance(RouterId(i)), Some(i));
        }
    }

    #[test]
    fn path_endpoints_and_length() {
        let g = line(5);
        let t = BfsTree::compute(&g, RouterId(0));
        let p = t.path_to(RouterId(4)).unwrap();
        assert_eq!(p.source(), RouterId(0));
        assert_eq!(p.destination(), RouterId(4));
        assert_eq!(p.hop_count(), 4);
    }

    #[test]
    fn path_to_self_is_trivial() {
        let g = line(3);
        let t = BfsTree::compute(&g, RouterId(1));
        let p = t.path_to(RouterId(1)).unwrap();
        assert_eq!(p.hop_count(), 0);
        assert_eq!(p.source(), RouterId(1));
    }

    #[test]
    fn unreachable_returns_none() {
        let mut b = GraphBuilder::new(3);
        b.add_link(RouterId(0), RouterId(1));
        let g = b.build(); // router 2 isolated
        let t = BfsTree::compute(&g, RouterId(0));
        assert_eq!(t.distance(RouterId(2)), None);
        assert!(t.path_to(RouterId(2)).is_none());
    }

    #[test]
    fn paths_are_consistent_with_graph() {
        let mut rng = StdRng::seed_from_u64(11);
        let topo = generate(&TransitStubConfig::tiny(), &mut rng);
        let g = &topo.graph;
        let src = topo.end_hosts[0];
        let tree = BfsTree::compute(g, src);
        for &dst in &topo.end_hosts {
            let p = tree.path_to(dst).expect("connected topology");
            // Every consecutive router pair must be joined by the claimed link.
            for (i, &link) in p.links().iter().enumerate() {
                let (a, b) = g.endpoints(link);
                let (x, y) = (p.routers()[i], p.routers()[i + 1]);
                assert!((a, b) == (x, y) || (a, b) == (y, x));
            }
            // BFS path length equals the reported distance.
            assert_eq!(p.hop_count() as u32, tree.distance(dst).unwrap());
        }
    }

    #[test]
    fn routes_are_symmetric_in_length() {
        let mut rng = StdRng::seed_from_u64(13);
        let topo = generate(&TransitStubConfig::tiny(), &mut rng);
        let a = topo.end_hosts[0];
        let b = topo.end_hosts[1];
        let ta = BfsTree::compute(&topo.graph, a);
        let tb = BfsTree::compute(&topo.graph, b);
        assert_eq!(ta.distance(b), tb.distance(a));
    }

    #[test]
    fn reused_scratch_and_pruned_tree_match_fresh_trees() {
        let mut rng = StdRng::seed_from_u64(17);
        let topo = generate(&TransitStubConfig::tiny(), &mut rng);
        let targets = &topo.end_hosts[..topo.end_hosts.len().min(12)];
        let mut scratch = BfsScratch::new();
        for &src in targets {
            let fresh = BfsTree::compute(&topo.graph, src);
            let reused = scratch.run(&topo.graph, src);
            let pruned = reused.pruned_to(targets);
            assert_eq!(pruned.source(), src);
            for r in topo.graph.routers() {
                assert_eq!(reused.distance(r), fresh.distance(r));
                assert_eq!(reused.path_to(r), fresh.path_to(r));
            }
            for &dst in targets {
                assert_eq!(pruned.path_to(dst), fresh.path_to(dst));
                // Every router on a kept path is answerable too.
                for &mid in fresh.path_to(dst).unwrap().routers() {
                    assert_eq!(pruned.path_to(mid), fresh.path_to(mid));
                }
            }
        }
    }

    #[test]
    fn pruned_tree_knows_only_its_targets() {
        let mut b = GraphBuilder::new(5);
        b.add_link(RouterId(0), RouterId(1));
        b.add_link(RouterId(1), RouterId(2));
        b.add_link(RouterId(1), RouterId(3));
        let g = b.build(); // router 4 isolated
        let pruned = BfsTree::compute(&g, RouterId(0)).pruned_to(&[RouterId(2), RouterId(4)]);
        assert_eq!(pruned.path_to(RouterId(2)).unwrap().hop_count(), 2);
        assert_eq!(pruned.path_to(RouterId(0)).unwrap().hop_count(), 0);
        assert!(pruned.path_to(RouterId(3)).is_none(), "off every kept path");
        assert!(pruned.path_to(RouterId(4)).is_none(), "unreachable");
    }
}
