//! Memoized shortest-path routing shared across episodes.
//!
//! IP routes in the reproduction are static per topology (see [`BfsTree`]:
//! stable for at least a day, §3.2), so a caller that asks for routes from
//! the same sources again and again need not search again.
//! A [`PathCache`] memoizes the per-source trees. Because [`BfsTree::compute`] is a pure,
//! deterministic function of `(graph, source)`, a cache hit returns exactly
//! the tree a fresh computation would have produced: caching is invisible
//! to results.
//!
//! **Invalidation:** a cache is valid for exactly one immutable [`Graph`].
//! Topologies in this workspace are never mutated after generation (link
//! *state* lives in [`FailureModel`](crate::FailureModel), not the graph),
//! so there is nothing to invalidate; the cache asserts it is always handed
//! the same graph shape and must simply be dropped with the topology it
//! belongs to.
//!
//! **Cost:** a retained tree is 16 bytes per router of the graph. The world
//! build, which searches once from each of hundreds of hosts, therefore
//! does not use this cache: it runs them 64 at a time through a
//! [`MultiBfs`](crate::MultiBfs) and keeps only distances and peer paths.

use concilium_types::RouterId;

use crate::graph::Graph;
use crate::routing::BfsTree;

/// Hit/miss counters for shortest-path tree lookups: the simulator's
/// world build reports its search work in this shape.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
}

/// A per-topology cache of BFS trees.
///
/// # Examples
///
/// ```
/// use concilium_topology::{generate, BfsTree, PathCache, TransitStubConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let topo = generate(&TransitStubConfig::tiny(), &mut rng);
/// let mut cache = PathCache::new();
/// let src = topo.end_hosts[0];
/// let dst = topo.end_hosts[1];
/// let fresh = BfsTree::compute(&topo.graph, src).path_to(dst);
/// assert_eq!(cache.tree(&topo.graph, src).path_to(dst), fresh);
/// // The second lookup is answered from the cache.
/// assert_eq!(cache.tree(&topo.graph, src).path_to(dst), fresh);
/// ```
#[derive(Debug, Default)]
pub struct PathCache {
    /// BFS tree per source router, indexed by `RouterId::index()`. Router
    /// ids are dense `u32`s assigned contiguously at generation time, so a
    /// flat slot vector replaces the former `HashMap` — no hashing on the
    /// per-message hot path, and no hash iteration order to worry
    /// about.
    trees: Vec<Option<BfsTree>>,
    /// Shape of the graph this cache was first used with.
    shape: Option<(usize, usize)>,
}

impl PathCache {
    /// An empty cache.
    pub fn new() -> Self {
        PathCache::default()
    }

    /// The BFS tree rooted at `source`, computing it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range, or if the cache is reused with a
    /// graph of a different shape than it was first used with.
    pub fn tree(&mut self, graph: &Graph, source: RouterId) -> &BfsTree {
        self.check_shape(graph);
        let slot = &mut self.trees[source.index()];
        if slot.is_none() {
            *slot = Some(BfsTree::compute(graph, source));
        }
        self.trees[source.index()]
            .as_ref()
            .expect("slot filled above")
    }

    fn check_shape(&mut self, graph: &Graph) {
        let shape = (graph.num_routers(), graph.num_links());
        match self.shape {
            None => {
                self.shape = Some(shape);
                self.trees.resize_with(shape.0, || None);
            }
            Some(seen) => assert_eq!(
                seen, shape,
                "PathCache reused across different graphs; use one cache per topology"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, TransitStubConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cached_tree_matches_fresh_compute() {
        let mut rng = StdRng::seed_from_u64(21);
        let topo = generate(&TransitStubConfig::tiny(), &mut rng);
        let mut cache = PathCache::new();
        for &src in topo.end_hosts.iter().take(4) {
            let fresh = BfsTree::compute(&topo.graph, src);
            let cached = cache.tree(&topo.graph, src);
            for &dst in &topo.end_hosts {
                assert_eq!(cached.distance(dst), fresh.distance(dst));
                assert_eq!(cached.path_to(dst), fresh.path_to(dst));
            }
        }
        assert_eq!(cache.trees.iter().flatten().count(), 4);
        // Second round: all hits, no new trees.
        for &src in topo.end_hosts.iter().take(4) {
            cache.tree(&topo.graph, src);
        }
        assert_eq!(cache.trees.iter().flatten().count(), 4);
    }

    #[test]
    #[should_panic(expected = "one cache per topology")]
    fn reuse_across_graphs_is_rejected() {
        let mut rng = StdRng::seed_from_u64(23);
        let a = generate(&TransitStubConfig::tiny(), &mut rng);
        let mut cfg = TransitStubConfig::tiny();
        cfg.stubs += 1;
        let b = generate(&cfg, &mut rng);
        let mut cache = PathCache::new();
        cache.tree(&a.graph, a.end_hosts[0]);
        cache.tree(&b.graph, b.end_hosts[0]);
    }
}
