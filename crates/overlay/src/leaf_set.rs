//! Leaf sets: the peers numerically closest to the local identifier.

use serde::{Deserialize, Serialize};

use concilium_crypto::Certificate;
use concilium_types::Id;

/// The total ring size 2^160 as a float, for spacing statistics.
const RING_SIZE: f64 = 1.461_501_637_330_903e48; // 2^160

/// A Pastry-style leaf set: up to `capacity / 2` peers on each side of the
/// local identifier on the ring.
///
/// Besides routing, leaf sets carry two statistics the paper relies on:
/// the **average inter-identifier spacing** (the quantity Castro's density
/// test compares) and the derived **network-size estimate** (Mahajan et
/// al.), which feeds the jump-table occupancy model.
///
/// # Examples
///
/// ```
/// use concilium_crypto::{CertificateAuthority, KeyPair};
/// use concilium_overlay::build_overlay;
/// use concilium_types::{HostAddr, RouterId, SimTime};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let ca = CertificateAuthority::new(&mut rng);
/// let members: Vec<_> = (0..64)
///     .map(|i| {
///         let keys = KeyPair::generate(&mut rng);
///         (ca.issue(HostAddr(RouterId(i)), keys.public(), &mut rng), keys)
///     })
///     .collect();
/// let overlay = build_overlay(&members, 8, SimTime::ZERO, None, &mut rng);
/// let estimate = overlay[0].leaf_set().estimate_network_size().unwrap();
/// assert!((16.0..256.0).contains(&estimate), "{estimate}");
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LeafSet {
    local: Id,
    capacity: usize,
    /// Clockwise (numerically larger, mod ring) neighbours, closest first.
    cw: Vec<Certificate>,
    /// Counter-clockwise neighbours, closest first.
    ccw: Vec<Certificate>,
}

impl LeafSet {
    /// Creates an empty leaf set for `local` holding up to `capacity`
    /// peers (`capacity / 2` per side).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or odd.
    pub(crate) fn new(local: Id, capacity: usize) -> Self {
        assert!(capacity > 0 && capacity.is_multiple_of(2), "capacity must be even and positive");
        LeafSet { local, capacity, cw: Vec::new(), ccw: Vec::new() }
    }

    /// The local identifier this leaf set is centred on.
    pub(crate) fn local(&self) -> Id {
        self.local
    }

    /// Current number of peers held.
    pub(crate) fn len(&self) -> usize {
        self.cw.len() + self.ccw.len()
    }

    /// Offers a peer to the leaf set. Returns `true` if it was retained.
    ///
    /// The peer lands on the side (clockwise / counter-clockwise) where it
    /// is nearer to the local identifier; each side keeps its
    /// `capacity / 2` closest peers. The local identifier itself and
    /// duplicates are ignored.
    pub(crate) fn insert(&mut self, cert: Certificate) -> bool {
        let id = cert.id();
        if id == self.local || self.contains(id) {
            return false;
        }
        let d_cw = self.local.clockwise_distance(&id);
        let d_ccw = id.clockwise_distance(&self.local);
        let per_side = self.capacity / 2;
        let (side, local) = if d_cw <= d_ccw {
            (&mut self.cw, self.local)
        } else {
            (&mut self.ccw, self.local)
        };
        let key = |c: &Certificate| {
            if d_cw <= d_ccw {
                local.clockwise_distance(&c.id())
            } else {
                c.id().clockwise_distance(&local)
            }
        };
        let my_key = key(&cert);
        let pos = side.partition_point(|c| key(c) < my_key);
        if pos >= per_side {
            return false;
        }
        side.insert(pos, cert);
        side.truncate(per_side);
        true
    }

    /// Whether a peer with identifier `id` is present.
    pub(crate) fn contains(&self, id: Id) -> bool {
        self.cw.iter().chain(self.ccw.iter()).any(|c| c.id() == id)
    }

    /// Iterates over all member certificates.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Certificate> {
        self.ccw.iter().rev().chain(self.cw.iter())
    }

    /// Whether `target` falls within the arc covered by the leaf set
    /// (between the furthest counter-clockwise and furthest clockwise
    /// members). A leaf set with no member on one side covers only the
    /// other side's arc up to the local identifier.
    pub(crate) fn covers(&self, target: Id) -> bool {
        if target == self.local {
            return true;
        }
        let start = self.ccw.last().map(|c| c.id()).unwrap_or(self.local);
        let end = self.cw.last().map(|c| c.id()).unwrap_or(self.local);
        let arc = start.clockwise_distance(&end);
        let off = start.clockwise_distance(&target);
        off <= arc
    }

    /// The member (or the local node, represented by `None`) closest to
    /// `target` on the ring.
    pub(crate) fn closest_to(&self, target: Id) -> Option<&Certificate> {
        let local_d = self.local.ring_distance(&target);
        let best = self
            .iter()
            .min_by_key(|c| c.id().ring_distance(&target))?;
        if best.id().ring_distance(&target) < local_d {
            Some(best)
        } else {
            None
        }
    }

    /// Average inter-identifier spacing across the covered arc, or `None`
    /// if the set has fewer than 2 members.
    ///
    /// This is the statistic Castro's leaf-set density test compares: a
    /// leaf set whose spacing is significantly larger than the local one
    /// is "too sparse" and hence suspicious.
    pub(crate) fn mean_spacing(&self) -> Option<f64> {
        let count = self.len() + 1; // members plus local
        if count < 3 {
            return None;
        }
        let start = self.ccw.last().map(|c| c.id()).unwrap_or(self.local);
        let end = self.cw.last().map(|c| c.id()).unwrap_or(self.local);
        let arc = start.clockwise_distance(&end).to_f64();
        Some(arc / (count - 1) as f64)
    }

    /// Estimates the total overlay size from the leaf-set spacing
    /// (Mahajan et al.): N ≈ ring size / mean spacing.
    ///
    /// Returns `None` when the set is too small to estimate.
    pub fn estimate_network_size(&self) -> Option<f64> {
        self.mean_spacing().map(|s| RING_SIZE / s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concilium_crypto::{CertificateAuthority, KeyPair};
    use concilium_types::{HostAddr, RouterId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cert_with_id(ca: &CertificateAuthority, id: Id, rng: &mut StdRng) -> Certificate {
        let keys = KeyPair::generate(rng);
        ca.issue_with_id(id, HostAddr(RouterId(0)), keys.public(), rng)
    }

    fn setup() -> (CertificateAuthority, StdRng) {
        let mut rng = StdRng::seed_from_u64(21);
        let ca = CertificateAuthority::new(&mut rng);
        (ca, rng)
    }

    #[test]
    fn keeps_closest_per_side() {
        let (ca, mut rng) = setup();
        let mut ls = LeafSet::new(Id::from_u64(1000), 4);
        // Clockwise side: 1001 and 1002 are closest; 1005 should be evicted.
        for v in [1005u64, 1001, 1002] {
            ls.insert(cert_with_id(&ca, Id::from_u64(v), &mut rng));
        }
        assert_eq!(ls.len(), 2);
        assert!(ls.contains(Id::from_u64(1001)));
        assert!(ls.contains(Id::from_u64(1002)));
        assert!(!ls.contains(Id::from_u64(1005)));
    }

    #[test]
    fn ignores_self_and_duplicates() {
        let (ca, mut rng) = setup();
        let local = Id::from_u64(1000);
        let mut ls = LeafSet::new(local, 4);
        assert!(!ls.insert(cert_with_id(&ca, local, &mut rng)));
        let c = cert_with_id(&ca, Id::from_u64(1001), &mut rng);
        assert!(ls.insert(c));
        assert!(!ls.insert(cert_with_id(&ca, Id::from_u64(1001), &mut rng)));
        assert_eq!(ls.len(), 1);
    }

    #[test]
    fn sides_are_balanced() {
        let (ca, mut rng) = setup();
        let mut ls = LeafSet::new(Id::from_u64(1000), 4);
        for v in [1001u64, 1002, 1003, 999, 998, 997] {
            ls.insert(cert_with_id(&ca, Id::from_u64(v), &mut rng));
        }
        assert_eq!(ls.len(), 4);
        for v in [1001u64, 1002, 999, 998] {
            assert!(ls.contains(Id::from_u64(v)), "missing {v}");
        }
    }

    #[test]
    fn covers_detects_arc_membership() {
        let (ca, mut rng) = setup();
        let mut ls = LeafSet::new(Id::from_u64(1000), 4);
        for v in [1010u64, 1020, 990, 980] {
            ls.insert(cert_with_id(&ca, Id::from_u64(v), &mut rng));
        }
        assert!(ls.covers(Id::from_u64(1000)));
        assert!(ls.covers(Id::from_u64(1015)));
        assert!(ls.covers(Id::from_u64(985)));
        assert!(!ls.covers(Id::from_u64(2000)));
        assert!(!ls.covers(Id::from_u64(100)));
    }

    #[test]
    fn closest_to_picks_nearest_or_local() {
        let (ca, mut rng) = setup();
        let mut ls = LeafSet::new(Id::from_u64(1000), 4);
        for v in [1010u64, 990] {
            ls.insert(cert_with_id(&ca, Id::from_u64(v), &mut rng));
        }
        // 1008 is closest to 1010.
        assert_eq!(ls.closest_to(Id::from_u64(1008)).unwrap().id(), Id::from_u64(1010));
        // 1002 is closest to the local id → None.
        assert!(ls.closest_to(Id::from_u64(1002)).is_none());
    }

    #[test]
    fn spacing_and_size_estimate() {
        let (ca, mut rng) = setup();
        // Evenly spaced ring: ids k * 2^32, local at 0... use u64 range.
        let step = 1u64 << 32;
        let mut ls = LeafSet::new(Id::from_u64(10 * step), 8);
        for k in [6u64, 7, 8, 9, 11, 12, 13, 14] {
            ls.insert(cert_with_id(&ca, Id::from_u64(k * step), &mut rng));
        }
        let spacing = ls.mean_spacing().unwrap();
        assert!((spacing - step as f64).abs() / (step as f64) < 1e-9);
        // N estimate = ring / spacing = 2^160 / 2^32 = 2^128.
        let n = ls.estimate_network_size().unwrap();
        assert!((n.log2() - 128.0).abs() < 1e-6);
    }

    #[test]
    fn spacing_none_when_too_small() {
        let (ca, mut rng) = setup();
        let mut ls = LeafSet::new(Id::from_u64(0), 4);
        assert!(ls.mean_spacing().is_none());
        ls.insert(cert_with_id(&ca, Id::from_u64(5), &mut rng));
        assert!(ls.mean_spacing().is_none(), "one member is not enough");
        ls.insert(cert_with_id(&ca, Id::from_u64(10), &mut rng));
        assert!(ls.mean_spacing().is_some());
    }

    #[test]
    #[should_panic(expected = "even and positive")]
    fn odd_capacity_rejected() {
        let _ = LeafSet::new(Id::ZERO, 3);
    }

    #[test]
    fn iter_walks_ccw_then_cw() {
        let (ca, mut rng) = setup();
        let mut ls = LeafSet::new(Id::from_u64(1000), 4);
        for v in [1001u64, 999, 1002, 998] {
            ls.insert(cert_with_id(&ca, Id::from_u64(v), &mut rng));
        }
        let ids: Vec<Id> = ls.iter().map(|c| c.id()).collect();
        assert_eq!(
            ids,
            vec![
                Id::from_u64(998),
                Id::from_u64(999),
                Id::from_u64(1001),
                Id::from_u64(1002)
            ]
        );
    }
}
