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
//! Merrier", VLDB 2014), and keeps each pass as a [`BfsPass`]: every
//! search's level of every router, mod 4, in 16 bytes per router. From
//! that it answers a source's paths to a few targets with a search
//! restricted to their shortest-path ancestors — the same paths
//! [`BfsTree::path_to`] returns.

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
/// [`MultiBfs::run`] reports distances as they are found and returns the
/// pass's levels as a [`BfsPass`], which [`MultiBfs::paths_to`] reads for
/// one search's paths to a few targets without a tree per search; a
/// caller keeps a pass for as long as it has paths to ask of it.
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
/// let pass = search.run(&g, &sources, |router, mut lanes, depth| {
///     while lanes != 0 {
///         dist[lanes.trailing_zeros() as usize][router.index()] = depth;
///         lanes &= lanes - 1;
///     }
/// });
/// assert_eq!(dist, [[0, 1, 2, 2], [2, 1, 2, 0]]);
/// let paths = search.paths_to(&g, &pass, 1, &[RouterId(2)]);
/// assert_eq!(paths[0], BfsTree::compute(&g, RouterId(3)).path_to(RouterId(2)));
/// ```
#[derive(Debug, Default)]
pub struct MultiBfs {
    seen: Vec<u64>,
    visit: Vec<u64>,
    next: Vec<u64>,
    /// Scratch of [`MultiBfs::paths_to`]: per router, whether it is an
    /// ancestor of a target and whether the restricted search found it.
    mark: Vec<Mark>,
    parent: Vec<(RouterId, LinkId)>,
    ancestors: Vec<RouterId>,
    queue: Vec<RouterId>,
}

/// One [`MultiBfs`] pass, kept: its sources and each search's level of
/// every router, mod 4. A neighbour's level is one closer, equal or one
/// further: three distinct values mod 4, so two bits decide "one level
/// closer", all [`MultiBfs::paths_to`] asks. Bit `lane` of plane `k` is
/// bit `k` of search `lane`'s level: 16 bytes per router for 64 searches,
/// and a router reached by many searches at once is two word writes.
#[derive(Debug)]
pub struct BfsPass {
    sources: Vec<RouterId>,
    /// Zero where a search never reached the router.
    level: Vec<[u64; 2]>,
}

impl BfsPass {
    /// The pass's sources; search `lane` started at `sources()[lane]`.
    pub fn sources(&self) -> &[RouterId] {
        &self.sources
    }

    /// Search `lane`'s level of router `r`, mod 4.
    fn level(&self, lane: usize, r: RouterId) -> u8 {
        let [low, high] = self.level[r.index()];
        ((low >> lane & 1) | (high >> lane & 1) << 1) as u8
    }
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
    /// is lane `i`) and returns the pass's levels. Calls `reached(router,
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
    ) -> BfsPass {
        let _span = concilium_obs::span("topo.bfs");
        assert!(sources.len() <= Self::WIDTH, "at most {} sources per pass", Self::WIDTH);
        let n = graph.num_routers();
        let mut pass = BfsPass { sources: sources.to_vec(), level: vec![[0; 2]; n] };
        self.seen.clear();
        self.seen.resize(n, 0);
        self.visit.resize(n, 0);
        self.next.resize(n, 0);
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
            // A search reaches a router once, so its bits are still zero.
            let mask = [depth & 1, depth >> 1 & 1].map(|bit| 0u64.wrapping_sub(u64::from(bit)));
            for &r in &frontier {
                let lanes = self.visit[r.index()];
                self.seen[r.index()] |= lanes;
                for (plane, mask) in pass.level[r.index()].iter_mut().zip(mask) {
                    *plane |= lanes & mask;
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
        pass
    }

    /// The paths from `pass`'s search `lane` to each of `targets`, equal
    /// to what [`BfsTree::compute`] from that source and
    /// [`BfsTree::path_to`] return; `None` where a target is unreachable.
    /// `graph` must be the graph that pass searched; `pass` need not be
    /// the latest.
    ///
    /// It collects A, the targets' shortest-path ancestors: every
    /// neighbour one level closer to the source than a member. A search
    /// from the source that scans adjacency in the same order but enqueues
    /// only members of A then gives each member the full search's parent.
    /// A member's candidate parents are all one level closer, hence in A;
    /// by induction on the level they are dequeued in the full search's
    /// relative order, so the first to find the member is the same router
    /// over the same link. An unreachable target joins A alone (its
    /// component has no level one closer to anything) and the search never
    /// finds it.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not a search of `pass`, if a target is out of
    /// range, or if `graph` has a different number of routers than the
    /// graph `pass` searched.
    pub fn paths_to(
        &mut self,
        graph: &Graph,
        pass: &BfsPass,
        lane: usize,
        targets: &[RouterId],
    ) -> Vec<Option<IpPath>> {
        assert!(lane < pass.sources.len(), "search {lane} was not run");
        assert_eq!(graph.num_routers(), pass.level.len(), "a different graph");
        let source = pass.sources[lane];
        self.mark.resize(graph.num_routers(), Mark::Outside);
        self.parent.resize(graph.num_routers(), (source, LinkId(0)));

        self.ancestors.clear();
        self.ancestors.push(source);
        self.mark[source.index()] = Mark::Ancestor;
        for &t in targets {
            if self.mark[t.index()] == Mark::Outside {
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
            let closer = pass.level(lane, r).wrapping_sub(1) & 3;
            for &(nbr, _) in graph.neighbors(r) {
                if self.mark[nbr.index()] == Mark::Outside && pass.level(lane, nbr) == closer {
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

    /// Runs `sources` through [`MultiBfs`] 64 at a time, keeping every
    /// pass, then holds every search to a fresh [`BfsTree`]: each router
    /// reported once per search at its distance, its kept level equal to
    /// that distance mod 4 (zero where unreached), and `paths_to` — over
    /// `targets` plus the source itself — equal to the tree's paths,
    /// `None` included. The passes are read last to first, so every pass
    /// but the last is read after later passes ran, and lane by lane, so
    /// each call starts from the previous one's scratch.
    fn check_against_trees(
        g: &Graph,
        sources: &[RouterId],
        targets: &[RouterId],
    ) -> Result<(), String> {
        let n = g.num_routers();
        let mut search = MultiBfs::new();
        let mut passes = Vec::new();
        for chunk in sources.chunks(MultiBfs::WIDTH) {
            let mut dist = vec![vec![None; n]; chunk.len()];
            let mut repeated = None;
            let pass = search.run(g, chunk, |r, mut lanes, depth| {
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
            passes.push((pass, dist));
        }
        for (pass, dist) in passes.iter().rev() {
            for (lane, &s) in pass.sources().iter().enumerate() {
                let tree = BfsTree::compute(g, s);
                for r in g.routers() {
                    let (got, want) = (dist[lane][r.index()], tree.distance(r));
                    if got != want {
                        return Err(format!("{s} → {r}: {got:?} vs {want:?}"));
                    }
                    if u32::from(pass.level(lane, r)) != want.map_or(0, |d| d % 4) {
                        return Err(format!("{s} → {r}: level {} at {want:?}", pass.level(lane, r)));
                    }
                }
                let asked: Vec<RouterId> = targets.iter().copied().chain([s]).collect();
                for (&t, got) in asked.iter().zip(search.paths_to(g, pass, lane, &asked)) {
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
        // "one level closer" is decided from levels that have wrapped mod 4
        // fifty times.
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
        let pass = search.run(&g, &[RouterId(0), RouterId(4)], |_, _, _| {});
        let paths = search.paths_to(&g, &pass, 0, &[RouterId(2), RouterId(4), RouterId(0)]);
        assert_eq!(paths[0].as_ref().unwrap().hop_count(), 2);
        assert!(paths[1].is_none(), "unreachable");
        assert_eq!(paths[2].as_ref().unwrap().hop_count(), 0, "the source itself");
        let alone = IpPath::new(vec![RouterId(4)], vec![]);
        assert_eq!(search.paths_to(&g, &pass, 1, &[RouterId(4), RouterId(2)]), [Some(alone), None]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Random multigraphs, often disconnected, with parallel links
            /// wherever a pair repeats; up to 150 sources, so several
            /// passes, kept and read after later ones ran, and repeated
            /// sources sharing a router in one pass.
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
