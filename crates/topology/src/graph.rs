//! Undirected router-level graphs.

use serde::{Deserialize, Serialize};

use concilium_types::{LinkId, RouterId};

/// An undirected multigraph of routers and links with dense indices.
///
/// Built once (by [`generate`](crate::generate)) and immutable afterwards; the failure
/// process tracks link up/down state separately (see
/// [`LinkStatus`](crate::LinkStatus)) so a single graph can be shared by
/// every host in a simulation.
///
/// # Examples
///
/// ```
/// use concilium_topology::{generate, TransitStubConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let g = generate(&TransitStubConfig::tiny(), &mut rng).graph;
/// assert_eq!(g.links().count(), g.num_links());
/// assert!(g.num_links() >= g.num_routers() - 1, "connected");
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Graph {
    /// Endpoints of each link, indexed by `LinkId`.
    endpoints: Vec<(RouterId, RouterId)>,
    /// CSR adjacency offsets: router `r`'s incident pairs live at
    /// `adj_pairs[adj_offsets[r]..adj_offsets[r + 1]]`. One flat array
    /// instead of a `Vec` per router — BFS walks it without pointer
    /// chasing, and a million-router world is two allocations, not a
    /// million (ROADMAP item 1's SoA layout).
    adj_offsets: Vec<u32>,
    /// CSR adjacency payload: (neighbor, link) pairs for all routers,
    /// concatenated in router order, per-router insertion order preserved.
    adj_pairs: Vec<(RouterId, LinkId)>,
}

impl Graph {
    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.adj_offsets.len() - 1
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.endpoints.len()
    }

    /// The (neighbor, link) pairs incident to `router`, in the order the
    /// links were added (the CSR flattening preserves it, so BFS tie-break
    /// order — and with it every downstream route and trace digest — is
    /// unchanged from the per-router-`Vec` layout).
    ///
    /// # Panics
    ///
    /// Panics if `router` is out of range.
    pub(crate) fn neighbors(&self, router: RouterId) -> &[(RouterId, LinkId)] {
        let lo = self.adj_offsets[router.index()] as usize;
        let hi = self.adj_offsets[router.index() + 1] as usize;
        &self.adj_pairs[lo..hi]
    }

    /// Whether the graph is connected (true for the empty graph).
    pub(crate) fn is_connected(&self) -> bool {
        let n = self.num_routers();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![RouterId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(r) = stack.pop() {
            for &(nbr, _) in self.neighbors(r) {
                if !seen[nbr.index()] {
                    seen[nbr.index()] = true;
                    count += 1;
                    stack.push(nbr);
                }
            }
        }
        count == n
    }

    /// Iterates over all link ids.
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.num_links() as u32).map(LinkId)
    }
}

/// Incremental builder for [`Graph`].
#[derive(Clone, Debug, Default)]
pub(crate) struct GraphBuilder {
    endpoints: Vec<(RouterId, RouterId)>,
    adj: Vec<Vec<(RouterId, LinkId)>>,
}

impl GraphBuilder {
    /// Creates a builder pre-sized for `routers` routers (no links yet).
    pub(crate) fn new(routers: usize) -> Self {
        GraphBuilder {
            endpoints: Vec::new(),
            adj: vec![Vec::new(); routers],
        }
    }

    /// Adds an undirected link between `a` and `b`, returning its id.
    ///
    /// Parallel links are permitted (real router-level maps contain them),
    /// but self-loops are rejected.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either endpoint is out of range.
    pub(crate) fn add_link(&mut self, a: RouterId, b: RouterId) -> LinkId {
        assert_ne!(a, b, "self-loop at {a}");
        assert!(a.index() < self.adj.len(), "router {a} out of range");
        assert!(b.index() < self.adj.len(), "router {b} out of range");
        let id = LinkId(self.endpoints.len() as u32);
        self.endpoints.push((a, b));
        self.adj[a.index()].push((b, id));
        self.adj[b.index()].push((a, id));
        id
    }

    /// Whether `a` and `b` are already directly linked.
    pub(crate) fn has_link(&self, a: RouterId, b: RouterId) -> bool {
        self.adj[a.index()].iter().any(|&(nbr, _)| nbr == b)
    }

    /// Finalises the graph, flattening the per-router adjacency lists
    /// into the CSR layout (insertion order preserved within each
    /// router, so BFS and routing behave identically).
    pub(crate) fn build(self) -> Graph {
        let total: usize = self.adj.iter().map(Vec::len).sum();
        assert!(u32::try_from(total).is_ok(), "graph exceeds u32 adjacency capacity");
        let mut adj_offsets = Vec::with_capacity(self.adj.len() + 1);
        adj_offsets.push(0u32);
        let mut adj_pairs = Vec::with_capacity(total);
        for row in &self.adj {
            adj_pairs.extend_from_slice(row);
            adj_offsets.push(adj_pairs.len() as u32);
        }
        Graph { endpoints: self.endpoints, adj_offsets, adj_pairs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_link(RouterId(0), RouterId(1));
        b.add_link(RouterId(1), RouterId(2));
        b.add_link(RouterId(2), RouterId(0));
        b.build()
    }

    #[test]
    fn counts_and_degrees() {
        let g = triangle();
        assert_eq!(g.num_routers(), 3);
        assert_eq!(g.num_links(), 3);
        for r in 0..3 {
            assert_eq!(g.neighbors(RouterId(r)).len(), 2);
        }
    }

    #[test]
    fn endpoints_match_adjacency() {
        let g = triangle();
        for l in g.links() {
            let (a, b) = g.endpoints[l.index()];
            assert!(g.neighbors(a).iter().any(|&(n, ll)| n == b && ll == l));
            assert!(g.neighbors(b).iter().any(|&(n, ll)| n == a && ll == l));
        }
    }

    #[test]
    fn connectivity() {
        assert!(triangle().is_connected());
        // Two isolated routers are disconnected.
        let disconnected = GraphBuilder::new(2).build();
        assert!(!disconnected.is_connected());
        // A three-router graph missing one router's links is disconnected.
        let mut b = GraphBuilder::new(3);
        b.add_link(RouterId(0), RouterId(1));
        assert!(!b.build().is_connected());
        // Empty graph is connected by convention.
        assert!(GraphBuilder::new(0).build().is_connected());
    }

    #[test]
    fn parallel_links_allowed() {
        let mut b = GraphBuilder::new(2);
        b.add_link(RouterId(0), RouterId(1));
        b.add_link(RouterId(0), RouterId(1));
        let g = b.build();
        assert_eq!(g.num_links(), 2);
        assert_eq!(g.neighbors(RouterId(0)).len(), 2);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut b = GraphBuilder::new(1);
        b.add_link(RouterId(0), RouterId(0));
    }
}
