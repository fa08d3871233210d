//! Synthetic transit-stub topology generation.
//!
//! Substitute for the SCAN router-level Internet map used in §4.2 of the
//! paper. The generator produces a four-layer hierarchy:
//!
//! 1. A densely meshed **core** (a ring plus random chords), modelling
//!    tier-1 backbones whose links are shared by almost every path.
//! 2. **Transit** routers, each multihomed to two core routers and
//!    sometimes to a sibling transit router.
//! 3. **Stub** routers, each uplinked to a transit router and sometimes to
//!    a sibling stub router.
//! 4. **End hosts**: degree-1 routers hanging off stub routers — the
//!    "routers with only one link" from which the paper samples overlay
//!    nodes.
//!
//! The structure matters more than exact counts for reproducing Figure 4:
//! a few probing trees cover the highly shared core links, while many trees
//! are needed to cover last-mile links used by only a few hosts.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use concilium_types::RouterId;

use crate::graph::{Graph, GraphBuilder};

/// Parameters for [`generate`].
///
/// # Examples
///
/// ```
/// use concilium_topology::TransitStubConfig;
///
/// let cfg = TransitStubConfig::tiny();
/// assert!(cfg.end_hosts >= 32);
/// ```
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct TransitStubConfig {
    /// Number of core routers.
    pub core: usize,
    /// Random extra chords added to the core ring, per core router.
    pub core_chords_per_router: f64,
    /// Number of transit routers.
    pub transit: usize,
    /// Probability that a transit router also links to a sibling transit.
    pub transit_sibling_prob: f64,
    /// Number of stub routers.
    pub stubs: usize,
    /// Probability that a stub router also links to a sibling stub.
    pub stub_sibling_prob: f64,
    /// Probability that a stub router gets a second transit uplink.
    pub stub_multihome_prob: f64,
    /// Number of degree-1 end hosts.
    pub end_hosts: usize,
}

impl TransitStubConfig {
    /// Approximates the SCAN dataset used by the paper: ~112,969 routers
    /// and ~181,639 links, of which ~37,700 are degree-1 end hosts (so that
    /// sampling 3% of end hosts yields ~1,131 overlay nodes).
    pub fn paper_scale() -> Self {
        TransitStubConfig {
            core: 5_269,
            core_chords_per_router: 1.5,
            transit: 20_000,
            transit_sibling_prob: 0.5,
            stubs: 50_000,
            stub_sibling_prob: 0.6,
            stub_multihome_prob: 0.25,
            end_hosts: 37_700,
        }
    }

    /// A mid-sized topology for examples and medium experiments
    /// (~11,000 routers).
    pub fn medium() -> Self {
        TransitStubConfig {
            core: 520,
            core_chords_per_router: 1.5,
            transit: 2_000,
            transit_sibling_prob: 0.5,
            stubs: 5_000,
            stub_sibling_prob: 0.6,
            stub_multihome_prob: 0.25,
            end_hosts: 3_770,
        }
    }

    /// A small topology for fast unit tests (~500 routers).
    pub fn small() -> Self {
        TransitStubConfig {
            core: 24,
            core_chords_per_router: 1.5,
            transit: 80,
            transit_sibling_prob: 0.5,
            stubs: 220,
            stub_sibling_prob: 0.6,
            stub_multihome_prob: 0.25,
            end_hosts: 180,
        }
    }

    /// The smallest structurally valid topology (~90 routers), for
    /// doctests and property tests.
    pub fn tiny() -> Self {
        TransitStubConfig {
            core: 6,
            core_chords_per_router: 1.0,
            transit: 16,
            transit_sibling_prob: 0.5,
            stubs: 36,
            stub_sibling_prob: 0.5,
            stub_multihome_prob: 0.25,
            end_hosts: 32,
        }
    }

    /// Total number of routers this configuration will produce.
    pub(crate) fn total_routers(&self) -> usize {
        self.core + self.transit + self.stubs + self.end_hosts
    }

    fn validate(&self) {
        assert!(self.core >= 3, "core must have at least 3 routers");
        assert!(self.transit >= 1, "need at least one transit router");
        assert!(self.stubs >= 1, "need at least one stub router");
        assert!(self.end_hosts >= 1, "need at least one end host");
        for (name, p) in [
            ("core_chords_per_router", self.core_chords_per_router),
            ("transit_sibling_prob", self.transit_sibling_prob),
            ("stub_sibling_prob", self.stub_sibling_prob),
            ("stub_multihome_prob", self.stub_multihome_prob),
        ] {
            assert!(p >= 0.0 && p.is_finite(), "{name} must be non-negative, got {p}");
        }
    }
}

/// A generated topology: the graph plus the router-role partition.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Topology {
    /// The router-level graph.
    pub graph: Graph,
    /// Core routers (indices into the graph).
    pub core: Vec<RouterId>,
    /// Transit routers.
    pub transit: Vec<RouterId>,
    /// Stub routers.
    pub stubs: Vec<RouterId>,
    /// Degree-1 end hosts.
    pub end_hosts: Vec<RouterId>,
}

impl Topology {
    /// Samples `fraction` of the end hosts uniformly at random, the way the
    /// paper selects overlay nodes ("randomly selected 3% of these machines
    /// to be Pastry nodes").
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1]`.
    pub fn sample_end_hosts<R: Rng + ?Sized>(
        &self,
        fraction: f64,
        rng: &mut R,
    ) -> Vec<RouterId> {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1], got {fraction}"
        );
        let n = ((self.end_hosts.len() as f64 * fraction).round() as usize).max(1);
        let mut hosts = self.end_hosts.clone();
        hosts.shuffle(rng);
        hosts.truncate(n);
        hosts
    }
}

/// Generates a transit-stub topology.
///
/// The result is always connected: every layer links into the one above it
/// and the core starts as a ring.
///
/// # Panics
///
/// Panics if the configuration is structurally invalid (see
/// [`TransitStubConfig`] field docs).
pub fn generate<R: Rng + ?Sized>(cfg: &TransitStubConfig, rng: &mut R) -> Topology {
    cfg.validate();
    let mut b = GraphBuilder::new(cfg.total_routers());

    // Layer 1: core ring + random chords.
    let core: Vec<RouterId> = (0..cfg.core as u32).map(RouterId).collect();
    for i in 0..cfg.core {
        let a = core[i];
        let bnext = core[(i + 1) % cfg.core];
        b.add_link(a, bnext);
    }
    let chords = (cfg.core as f64 * cfg.core_chords_per_router).round() as usize;
    for _ in 0..chords {
        let a = core[rng.gen_range(0..cfg.core)];
        let c = core[rng.gen_range(0..cfg.core)];
        if a != c && !b.has_link(a, c) {
            b.add_link(a, c);
        }
    }

    // Layer 2: transit routers, multihomed to two distinct core routers.
    let base_t = cfg.core as u32;
    let transit: Vec<RouterId> = (0..cfg.transit as u32).map(|i| RouterId(base_t + i)).collect();
    for (i, &t) in transit.iter().enumerate() {
        let c1 = core[rng.gen_range(0..cfg.core)];
        let mut c2 = core[rng.gen_range(0..cfg.core)];
        while c2 == c1 {
            c2 = core[rng.gen_range(0..cfg.core)];
        }
        b.add_link(t, c1);
        b.add_link(t, c2);
        if i > 0 && rng.gen_bool(prob(cfg.transit_sibling_prob)) {
            let sib = transit[rng.gen_range(0..i)];
            if !b.has_link(t, sib) {
                b.add_link(t, sib);
            }
        }
    }

    // Layer 3: stub routers, uplinked to a transit router.
    let base_s = base_t + cfg.transit as u32;
    let stubs: Vec<RouterId> = (0..cfg.stubs as u32).map(|i| RouterId(base_s + i)).collect();
    for (i, &s) in stubs.iter().enumerate() {
        let t = transit[rng.gen_range(0..cfg.transit)];
        b.add_link(s, t);
        if rng.gen_bool(prob(cfg.stub_multihome_prob)) {
            let t2 = transit[rng.gen_range(0..cfg.transit)];
            if t2 != t && !b.has_link(s, t2) {
                b.add_link(s, t2);
            }
        }
        if i > 0 && rng.gen_bool(prob(cfg.stub_sibling_prob)) {
            let sib = stubs[rng.gen_range(0..i)];
            if !b.has_link(s, sib) {
                b.add_link(s, sib);
            }
        }
    }

    // Layer 4: end hosts, exactly one link each.
    let base_h = base_s + cfg.stubs as u32;
    let end_hosts: Vec<RouterId> =
        (0..cfg.end_hosts as u32).map(|i| RouterId(base_h + i)).collect();
    for &h in &end_hosts {
        let s = stubs[rng.gen_range(0..cfg.stubs)];
        b.add_link(h, s);
    }

    let graph = b.build();
    debug_assert!(graph.is_connected());
    Topology { graph, core, transit, stubs, end_hosts }
}

fn prob(p: f64) -> f64 {
    p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_topo(seed: u64) -> Topology {
        let mut rng = StdRng::seed_from_u64(seed);
        generate(&TransitStubConfig::small(), &mut rng)
    }

    #[test]
    fn generated_topology_is_connected() {
        let t = small_topo(1);
        assert!(t.graph.is_connected());
    }

    #[test]
    fn router_counts_match_config() {
        let cfg = TransitStubConfig::small();
        let t = small_topo(2);
        assert_eq!(t.graph.num_routers(), cfg.total_routers());
        assert_eq!(t.core.len(), cfg.core);
        assert_eq!(t.transit.len(), cfg.transit);
        assert_eq!(t.stubs.len(), cfg.stubs);
        assert_eq!(t.end_hosts.len(), cfg.end_hosts);
    }

    #[test]
    fn end_hosts_have_degree_one() {
        let t = small_topo(3);
        for &h in &t.end_hosts {
            assert_eq!(t.graph.neighbors(h).len(), 1, "end host {h} must be degree 1");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = small_topo(42);
        let b = small_topo(42);
        let wiring = |t: &Topology| {
            let routers = (0..t.graph.num_routers() as u32).map(RouterId);
            routers
                .map(|r| t.graph.neighbors(r).to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(wiring(&a), wiring(&b));
        // Different seeds virtually always differ in wiring.
        assert_ne!(wiring(&a), wiring(&small_topo(43)));
    }

    #[test]
    fn paper_scale_counts_are_close_to_scan() {
        // Don't generate the full graph in a unit test; just check the
        // configured totals match the SCAN counts to within a few percent.
        let cfg = TransitStubConfig::paper_scale();
        let routers = cfg.total_routers() as f64;
        assert!((routers - 112_969.0).abs() / 112_969.0 < 0.02);
    }

    #[test]
    fn sample_end_hosts_fraction() {
        let t = small_topo(5);
        let mut rng = StdRng::seed_from_u64(9);
        let picked = t.sample_end_hosts(0.1, &mut rng);
        let expect = (t.end_hosts.len() as f64 * 0.1).round() as usize;
        assert_eq!(picked.len(), expect);
        for h in &picked {
            assert!(t.end_hosts.contains(h));
        }
        // No duplicates.
        let mut sorted = picked.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), picked.len());
    }

    #[test]
    #[should_panic(expected = "fraction must be in")]
    fn sample_rejects_bad_fraction() {
        let t = small_topo(6);
        let mut rng = StdRng::seed_from_u64(1);
        let _ = t.sample_end_hosts(0.0, &mut rng);
    }

    #[test]
    fn core_is_densely_shared() {
        // Average core degree should comfortably exceed average stub degree:
        // that's the structural property Figure 4 relies on.
        let t = small_topo(7);
        let avg = |rs: &[RouterId]| {
            rs.iter()
                .map(|&r| t.graph.neighbors(r).len())
                .sum::<usize>() as f64
                / rs.len() as f64
        };
        assert!(avg(&t.core) > avg(&t.stubs), "core should be denser than stubs");
    }
}
