//! Extension experiment: secure vs standard routing stretch.
//!
//! §2 of the paper: "For performance reasons, peers maintain both secure
//! routing tables and 'standard' routing tables. Standard tables can use
//! techniques like proximity affinity to minimize routing latency...
//! Messages requiring Concilium's fault attribution must always be
//! forwarded using secure routing." This experiment quantifies the price
//! of that requirement: the IP-hop stretch of secure routes relative to
//! standard (proximity-optimised) routes and to the direct IP path.

use concilium_overlay::RoutingMode;
use concilium_sim::SimWorld;
use concilium_types::Id;
use rand::Rng;

/// Aggregate stretch statistics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StretchResult {
    /// Mean IP hops of secure overlay routes.
    pub secure_hops: f64,
    /// Mean IP hops of standard overlay routes (same src/target pairs).
    pub standard_hops: f64,
    /// Mean direct IP distance from source to the responsible node.
    pub direct_hops: f64,
    /// Mean overlay hop count (secure).
    pub secure_overlay_hops: f64,
    /// Number of routes measured.
    pub samples: usize,
}

impl StretchResult {
    /// Secure-route stretch over the direct IP path.
    pub(crate) fn secure_stretch(&self) -> f64 {
        self.secure_hops / self.direct_hops
    }

    /// Standard-route stretch over the direct IP path.
    pub(crate) fn standard_stretch(&self) -> f64 {
        self.standard_hops / self.direct_hops
    }
}

/// Measures stretch over `samples` random (source, key) pairs.
pub fn run<R: Rng + ?Sized>(world: &SimWorld, samples: usize, rng: &mut R) -> StretchResult {
    let n = world.num_hosts();
    let mut secure_hops = 0u64;
    let mut standard_hops = 0u64;
    let mut direct_hops = 0u64;
    let mut overlay_hops = 0u64;
    let mut measured = 0usize;
    let mut guard = 0usize;
    while measured < samples && guard < samples * 10 {
        guard += 1;
        let src = rng.gen_range(0..n);
        let target = Id::random(rng);
        let (Some(sec), Some(std)) = (
            world.route_via(src, target, RoutingMode::Secure),
            world.route_via(src, target, RoutingMode::Standard),
        ) else {
            continue;
        };
        let owner = *sec.last().expect("routes are non-empty");
        if owner == src {
            continue; // trivial route, no stretch to measure
        }
        secure_hops += world.route_ip_hops(&sec) as u64;
        standard_hops += world.route_ip_hops(&std) as u64;
        direct_hops += world.ip_distance(src, owner) as u64;
        overlay_hops += (sec.len() - 1) as u64;
        measured += 1;
    }
    StretchResult {
        secure_hops: secure_hops as f64 / measured as f64,
        standard_hops: standard_hops as f64 / measured as f64,
        direct_hops: direct_hops as f64 / measured as f64,
        secure_overlay_hops: overlay_hops as f64 / measured as f64,
        samples: measured,
    }
}

/// Prints the comparison.
pub fn print(r: &StretchResult) {
    println!("Extension — routing stretch: secure vs standard tables ({} routes)", r.samples);
    println!("  mean overlay hops (secure):    {:>6.2}", r.secure_overlay_hops);
    println!("  mean direct IP hops:           {:>6.2}", r.direct_hops);
    println!(
        "  mean IP hops, secure routing:  {:>6.2}  (stretch {:.2}×)",
        r.secure_hops,
        r.secure_stretch()
    );
    println!(
        "  mean IP hops, standard routing:{:>6.2}  (stretch {:.2}×)",
        r.standard_hops,
        r.standard_stretch()
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use concilium_sim::SimConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_routing_is_no_worse() {
        let mut rng = StdRng::seed_from_u64(801);
        let world = SimWorld::build(SimConfig::small(), &mut rng);
        let r = run(&world, 100, &mut rng);
        assert!(r.samples >= 80);
        assert!(r.standard_hops <= r.secure_hops + 1e-9);
        // Overlay routes cost more IP hops than the direct path.
        assert!(r.secure_stretch() >= 1.0);
        assert!(r.direct_hops > 0.0);
    }
}
