//! IP routing: shortest paths from one source, or from 64 at a time.
//!
//! Internet routes are stable for at least a day (§3.2 cites Zhang et al.),
//! so the reproduction computes static shortest paths once per host. A
//! [`BfsTree`] holds the parent pointers of a breadth-first search from a
//! source router; [`BfsTree::path_to`] extracts the router/link path that
//! the host's link map records.
//!
//! A tree costs 16 bytes per router, and a world build needs one search
//! per overlay host. [`MultiBfs`] runs 64 of them per pass over the graph,
//! one bit per search in each router's word (Then et al., "The More the
//! Merrier", VLDB 2014), and answers a source's paths to a few targets
//! with a search restricted to their shortest-path ancestors — the same
//! paths [`BfsTree::path_to`] returns.

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

impl BfsTree {
    /// Runs a breadth-first search from `source`.
    ///
    /// Ties between equal-length paths are broken by adjacency order: a
    /// router's parent is the first router dequeued that links to it, over
    /// the first such link in that router's adjacency. This is
    /// deterministic for a given graph — all hosts deduce the same route
    /// between two routers, mirroring stable IP routing.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn compute(graph: &Graph, source: RouterId) -> Self {
        let _span = concilium_obs::span("topo.bfs");
        assert!(source.index() < graph.num_routers(), "router {source} out of range");
        let n = graph.num_routers();
        let mut parent = vec![None; n];
        let mut dist = vec![u32::MAX; n];
        dist[source.index()] = 0;
        let mut queue = vec![source];
        let mut head = 0;
        while let Some(&r) = queue.get(head) {
            head += 1;
            let d = dist[r.index()];
            for &(nbr, link) in graph.neighbors(r) {
                if dist[nbr.index()] == u32::MAX {
                    dist[nbr.index()] = d + 1;
                    parent[nbr.index()] = Some((r, link));
                    queue.push(nbr);
                }
            }
        }
        BfsTree { source, parent, dist }
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

/// Up to 64 breadth-first searches per pass over a graph, one per bit of
/// a `u64`.
///
/// A pass keeps three words per router: the searches that have `seen` it,
/// the searches whose frontier holds it (`visit`), and those reaching it
/// next level (`next`). Expanding a router pushes its whole `visit` word
/// to each neighbour at once, so 64 searches cost one scan of each
/// router's adjacency per level it is on a frontier, not 64 scans.
///
/// Besides the distances a pass reports as it goes, it keeps each search's
/// level of every router, mod 256: a `routers × 64` table of bytes, stored
/// as eight bit planes per router so that a router reached by many
/// searches at once is written in eight word operations. Neighbours differ
/// by at most one level, so "one level closer" is still decidable from
/// the byte. [`MultiBfs::paths_to`] uses it to give one search's paths to
/// a few targets without a tree per search.
///
/// # Examples
///
/// ```
/// use concilium_topology::{BfsTree, GraphBuilder, MultiBfs};
/// use concilium_types::RouterId;
///
/// let mut b = GraphBuilder::new(4);
/// b.add_link(RouterId(0), RouterId(1));
/// b.add_link(RouterId(1), RouterId(2));
/// b.add_link(RouterId(1), RouterId(3));
/// let g = b.build();
/// let sources = [RouterId(0), RouterId(3)];
/// let mut dist = [[0u32; 4]; 2];
/// let mut search = MultiBfs::new();
/// search.run(&g, &sources, |router, mut lanes, depth| {
///     while lanes != 0 {
///         dist[lanes.trailing_zeros() as usize][router.index()] = depth;
///         lanes &= lanes - 1;
///     }
/// });
/// assert_eq!(dist, [[0, 1, 2, 2], [2, 1, 2, 0]]);
/// let paths = search.paths_to(&g, 1, &[RouterId(2)]);
/// assert_eq!(paths[0], BfsTree::compute(&g, RouterId(3)).path_to(RouterId(2)));
/// ```
#[derive(Debug, Default)]
pub struct MultiBfs {
    sources: Vec<RouterId>,
    seen: Vec<u64>,
    visit: Vec<u64>,
    next: Vec<u64>,
    /// `level[r][k]` bit `lane`: bit `k` of the level, mod 256, at which
    /// search `lane` reached router `r`; meaningful only where `seen` has
    /// the bit.
    level: Vec<[u64; 8]>,
    /// Scratch of [`MultiBfs::paths_to`]: per router, whether it is an
    /// ancestor of a target and whether the restricted search found it.
    mark: Vec<Mark>,
    parent: Vec<(RouterId, LinkId)>,
    ancestors: Vec<RouterId>,
    queue: Vec<RouterId>,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Mark {
    #[default]
    Outside,
    Ancestor,
    Found,
}

impl MultiBfs {
    /// Searches per pass: one per bit of the word.
    pub const WIDTH: usize = 64;

    /// Empty state; the first [`MultiBfs::run`] sizes it.
    pub fn new() -> Self {
        MultiBfs::default()
    }

    /// Runs one breadth-first search from each of `sources` (search `i`
    /// is lane `i`), replacing the previous pass. Calls `reached(router,
    /// lanes, depth)` for every router and depth at which some searches
    /// first reach it, `lanes` holding their bits; depth 0 is a source.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MultiBfs::WIDTH`] sources or one is
    /// out of range.
    pub fn run(
        &mut self,
        graph: &Graph,
        sources: &[RouterId],
        mut reached: impl FnMut(RouterId, u64, u32),
    ) {
        let _span = concilium_obs::span("topo.bfs");
        assert!(sources.len() <= Self::WIDTH, "at most {} sources per pass", Self::WIDTH);
        let n = graph.num_routers();
        self.sources.clear();
        self.sources.extend_from_slice(sources);
        self.seen.clear();
        self.seen.resize(n, 0);
        self.visit.resize(n, 0);
        self.next.resize(n, 0);
        self.level.resize(n, [0; 8]);
        let mut frontier = Vec::new();
        for (lane, &s) in sources.iter().enumerate() {
            assert!(s.index() < n, "router {s} out of range");
            if self.visit[s.index()] == 0 {
                frontier.push(s);
            }
            self.visit[s.index()] |= 1 << lane;
        }
        let mut depth = 0;
        let mut upcoming = Vec::new();
        loop {
            for &r in &frontier {
                let lanes = self.visit[r.index()];
                self.seen[r.index()] |= lanes;
                for (k, plane) in self.level[r.index()].iter_mut().enumerate() {
                    let bit = 0u64.wrapping_sub(u64::from(depth >> k & 1));
                    *plane = *plane & !lanes | lanes & bit;
                }
                reached(r, lanes, depth);
            }
            for &r in &frontier {
                let lanes = self.visit[r.index()];
                for &(nbr, _) in graph.neighbors(r) {
                    let fresh = lanes & !self.seen[nbr.index()];
                    if fresh != 0 {
                        if self.next[nbr.index()] == 0 {
                            upcoming.push(nbr);
                        }
                        self.next[nbr.index()] |= fresh;
                    }
                }
            }
            if upcoming.is_empty() {
                break;
            }
            for &r in &frontier {
                self.visit[r.index()] = 0;
            }
            for &r in &upcoming {
                self.visit[r.index()] = std::mem::take(&mut self.next[r.index()]);
            }
            std::mem::swap(&mut frontier, &mut upcoming);
            upcoming.clear();
            depth += 1;
        }
        for &r in &frontier {
            self.visit[r.index()] = 0;
        }
    }

    /// Whether the last pass's search `lane` reached `target`.
    fn reaches(&self, lane: usize, target: RouterId) -> bool {
        lane < self.sources.len() && self.seen[target.index()] >> lane & 1 == 1
    }

    /// The paths from the last pass's search `lane` to each of `targets`,
    /// equal to what [`BfsTree::compute`] from that source and
    /// [`BfsTree::path_to`] return; `None` where a target is unreachable.
    /// `graph` must be the graph that pass searched.
    ///
    /// It collects A, the targets' shortest-path ancestors: every
    /// neighbour one level closer to the source than a member. A search
    /// from the source that scans adjacency in the same order but enqueues
    /// only members of A then gives each member the full search's parent.
    /// A member's candidate parents are all one level closer, hence in A;
    /// by induction on the level they are dequeued in the full search's
    /// relative order, so the first to find the member is the same router
    /// over the same link.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not a search of the last pass, if a target is
    /// out of range, or if `graph` has a different number of routers than
    /// the graph that pass searched.
    pub fn paths_to(
        &mut self,
        graph: &Graph,
        lane: usize,
        targets: &[RouterId],
    ) -> Vec<Option<IpPath>> {
        assert!(lane < self.sources.len(), "search {lane} was not run");
        assert_eq!(graph.num_routers(), self.seen.len(), "a different graph");
        let source = self.sources[lane];
        let level = |r: RouterId| {
            let planes = &self.level[r.index()];
            (0..8).fold(0u8, |byte, k| byte | ((planes[k] >> lane & 1) as u8) << k)
        };
        self.mark.resize(graph.num_routers(), Mark::Outside);
        self.parent.resize(graph.num_routers(), (source, LinkId(0)));

        self.ancestors.clear();
        self.ancestors.push(source);
        self.mark[source.index()] = Mark::Ancestor;
        for &t in targets {
            if self.reaches(lane, t) && self.mark[t.index()] == Mark::Outside {
                self.mark[t.index()] = Mark::Ancestor;
                self.ancestors.push(t);
            }
        }
        let mut head = 0;
        while let Some(&r) = self.ancestors.get(head) {
            head += 1;
            if r == source {
                continue;
            }
            let closer = level(r).wrapping_sub(1);
            for &(nbr, _) in graph.neighbors(r) {
                if self.mark[nbr.index()] == Mark::Outside && level(nbr) == closer {
                    self.mark[nbr.index()] = Mark::Ancestor;
                    self.ancestors.push(nbr);
                }
            }
        }

        self.queue.clear();
        self.queue.push(source);
        self.mark[source.index()] = Mark::Found;
        let mut head = 0;
        while let Some(&r) = self.queue.get(head) {
            head += 1;
            for &(nbr, link) in graph.neighbors(r) {
                if self.mark[nbr.index()] == Mark::Ancestor {
                    self.mark[nbr.index()] = Mark::Found;
                    self.parent[nbr.index()] = (r, link);
                    self.queue.push(nbr);
                }
            }
        }

        let paths = targets
            .iter()
            .map(|&t| {
                (self.mark[t.index()] == Mark::Found)
                    .then(|| path_up(t, |r| (r != source).then(|| self.parent[r.index()])))
            })
            .collect();
        for &r in &self.ancestors {
            self.mark[r.index()] = Mark::Outside;
        }
        paths
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

    /// Runs `sources` through [`MultiBfs`] 64 at a time and holds every
    /// search to a fresh [`BfsTree`]: each router reported once per search
    /// at its distance, `reaches` exactly where the tree does, and
    /// `paths_to` — over `targets` plus the source itself, asked lane by
    /// lane so each call starts from the previous one's scratch — equal to
    /// the tree's paths, `None` included.
    fn check_against_trees(
        g: &Graph,
        sources: &[RouterId],
        targets: &[RouterId],
    ) -> Result<(), String> {
        let n = g.num_routers();
        let mut search = MultiBfs::new();
        for chunk in sources.chunks(MultiBfs::WIDTH) {
            let mut dist = vec![vec![None; n]; chunk.len()];
            let mut repeated = None;
            search.run(g, chunk, |r, mut lanes, depth| {
                while lanes != 0 {
                    let lane = lanes.trailing_zeros() as usize;
                    if dist[lane][r.index()].replace(depth).is_some() {
                        repeated = Some((lane, r));
                    }
                    lanes &= lanes - 1;
                }
            });
            if let Some((lane, r)) = repeated {
                return Err(format!("search {lane} reached {r} twice"));
            }
            for (lane, &s) in chunk.iter().enumerate() {
                let tree = BfsTree::compute(g, s);
                for r in g.routers() {
                    let (got, want) = (dist[lane][r.index()], tree.distance(r));
                    if got != want {
                        return Err(format!("{s} → {r}: {got:?} vs {want:?}"));
                    }
                    if search.reaches(lane, r) != tree.distance(r).is_some() {
                        return Err(format!("{s} → {r}: reaches disagrees"));
                    }
                }
                let asked: Vec<RouterId> = targets.iter().copied().chain([s]).collect();
                for (&t, got) in asked.iter().zip(search.paths_to(g, lane, &asked)) {
                    if got != tree.path_to(t) {
                        return Err(format!("{s} → {t}: {got:?} vs {:?}", tree.path_to(t)));
                    }
                }
            }
        }
        Ok(())
    }

    #[test]
    fn multi_bfs_matches_fresh_trees() {
        let mut rng = StdRng::seed_from_u64(17);
        let topo = generate(&TransitStubConfig::tiny(), &mut rng);
        // Every router a source: a full pass and a partial one.
        let sources: Vec<RouterId> = topo.graph.routers().collect();
        assert!(sources.len() > MultiBfs::WIDTH);
        let targets = &topo.end_hosts[..topo.end_hosts.len().min(12)];
        check_against_trees(&topo.graph, &sources, targets).unwrap();
    }

    #[test]
    fn multi_bfs_levels_wrap_past_256_hops() {
        // A ladder 2 × 200 routers long, rungs doubled every seventh step:
        // paths of up to ~200 hops with many equal-length alternatives, so
        // "one level closer" is decided from bytes that have wrapped.
        let rungs = 200u32;
        let mut b = GraphBuilder::new(2 * rungs as usize);
        for k in 0..rungs {
            b.add_link(RouterId(2 * k), RouterId(2 * k + 1));
            if k % 7 == 0 {
                b.add_link(RouterId(2 * k + 1), RouterId(2 * k));
            }
            if k + 1 < rungs {
                b.add_link(RouterId(2 * k), RouterId(2 * k + 2));
                b.add_link(RouterId(2 * k + 3), RouterId(2 * k + 1));
            }
        }
        let ladder = b.build();
        let far = RouterId(2 * rungs - 1);
        let sources = [RouterId(0), far, RouterId(1), RouterId(rungs)];
        let targets = [RouterId(0), RouterId(2 * rungs - 2), far, RouterId(rungs + 1)];
        check_against_trees(&ladder, &sources, &targets).unwrap();
        // And a bare line longer than 256 hops.
        let (ends, targets) = ([RouterId(0), RouterId(299)], [RouterId(299), RouterId(257)]);
        check_against_trees(&line(300), &ends, &targets).unwrap();
    }

    #[test]
    fn multi_bfs_paths_skip_unreachable_targets() {
        let mut b = GraphBuilder::new(5);
        b.add_link(RouterId(0), RouterId(1));
        b.add_link(RouterId(1), RouterId(2));
        b.add_link(RouterId(1), RouterId(3));
        let g = b.build(); // router 4 isolated
        let mut search = MultiBfs::new();
        search.run(&g, &[RouterId(0), RouterId(4)], |_, _, _| {});
        let paths = search.paths_to(&g, 0, &[RouterId(2), RouterId(4), RouterId(0)]);
        assert_eq!(paths[0].as_ref().unwrap().hop_count(), 2);
        assert!(paths[1].is_none(), "unreachable");
        assert_eq!(paths[2].as_ref().unwrap().hop_count(), 0, "the source itself");
        assert!(!search.reaches(1, RouterId(0)) && search.reaches(1, RouterId(4)));
        let alone = IpPath::new(vec![RouterId(4)], vec![]);
        assert_eq!(search.paths_to(&g, 1, &[RouterId(4), RouterId(2)]), [Some(alone), None]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Random multigraphs, often disconnected, with parallel links
            /// wherever a pair repeats; up to 150 sources, so several
            /// passes, repeated sources sharing a router in one pass.
            #[test]
            fn multi_bfs_matches_bfs_tree(
                n in 2usize..48,
                pairs in proptest::collection::vec((any::<u16>(), any::<u16>()), 0..120),
                sources in proptest::collection::vec(any::<u16>(), 1..150),
                targets in proptest::collection::vec(any::<u16>(), 0..10),
            ) {
                let mut b = GraphBuilder::new(n);
                for (x, y) in pairs {
                    let (x, y) = (x as usize % n, y as usize % n);
                    if x != y {
                        b.add_link(RouterId(x as u32), RouterId(y as u32));
                    }
                }
                let g = b.build();
                let pick = |v: &[u16]| {
                    v.iter().map(|&r| RouterId((r as usize % n) as u32)).collect::<Vec<_>>()
                };
                let result = check_against_trees(&g, &pick(&sources), &pick(&targets));
                prop_assert!(result.is_ok(), "{}", result.unwrap_err());
            }
        }
    }
}
