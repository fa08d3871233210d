//! Per-node overlay state and prefix routing.

use std::collections::HashMap;

use concilium_crypto::{Certificate, KeyPair, PublicKey};
use concilium_types::{HostAddr, Id};

use crate::jump_table::JumpTable;
use crate::leaf_set::LeafSet;

/// Which routing table to consult.
///
/// "For performance reasons, peers maintain both secure routing tables and
/// 'standard' routing tables... Messages requiring Concilium's fault
/// attribution must always be forwarded using secure routing." (§2)
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum RoutingMode {
    /// Constrained secure-routing tables (required for Concilium traffic).
    #[default]
    Secure,
    /// Proximity-optimised standard tables.
    Standard,
}

/// The routing decision at one overlay hop.
#[derive(Clone, Debug, PartialEq)]
pub enum NextHop {
    /// The local node is the message's destination (or the numerically
    /// closest live node to the destination key).
    Deliver,
    /// Forward to this peer.
    Forward(Certificate),
}

/// A node's complete overlay state: certificate, keys, leaf set, and both
/// routing tables.
#[derive(Clone, Debug)]
pub struct OverlayNode {
    cert: Certificate,
    keys: KeyPair,
    leaf_set: LeafSet,
    secure_table: JumpTable,
    standard_table: JumpTable,
}

impl OverlayNode {
    /// Assembles a node from its parts (normally called by
    /// [`build_overlay`](crate::build_overlay)).
    ///
    /// # Panics
    ///
    /// Panics if the certificate, leaf set and tables disagree about the
    /// local identifier or key.
    pub(crate) fn new(
        cert: Certificate,
        keys: KeyPair,
        leaf_set: LeafSet,
        secure_table: JumpTable,
        standard_table: JumpTable,
    ) -> Self {
        assert_eq!(cert.public_key(), keys.public(), "certificate/key mismatch");
        assert_eq!(cert.id(), leaf_set.local(), "leaf set built for wrong id");
        assert_eq!(cert.id(), secure_table.local(), "secure table built for wrong id");
        assert_eq!(cert.id(), standard_table.local(), "standard table built for wrong id");
        OverlayNode { cert, keys, leaf_set, secure_table, standard_table }
    }

    /// The node's certificate.
    pub fn cert(&self) -> &Certificate {
        &self.cert
    }

    /// The node's overlay identifier.
    pub fn id(&self) -> Id {
        self.cert.id()
    }

    /// The node's network address.
    pub fn addr(&self) -> HostAddr {
        self.cert.addr()
    }

    /// The node's public key.
    pub fn public_key(&self) -> PublicKey {
        self.cert.public_key()
    }

    /// The node's key pair (for signing protocol messages).
    pub fn keys(&self) -> &KeyPair {
        &self.keys
    }

    /// The leaf set.
    pub fn leaf_set(&self) -> &LeafSet {
        &self.leaf_set
    }

    /// The secure jump table.
    pub fn jump_table(&self) -> &JumpTable {
        &self.secure_table
    }

    /// All distinct routing peers: leaf-set members plus jump-table
    /// entries of the given mode. These are the leaves of the node's
    /// tomography tree T_H.
    pub fn routing_peers(&self, mode: RoutingMode) -> Vec<Certificate> {
        let table = match mode {
            RoutingMode::Secure => &self.secure_table,
            RoutingMode::Standard => &self.standard_table,
        };
        let mut out: Vec<Certificate> = Vec::new();
        let mut seen: Vec<Id> = Vec::new();
        for c in self.leaf_set.iter().copied().chain(table.entries().map(|(_, _, e)| e.cert))
        {
            if !seen.contains(&c.id()) {
                seen.push(c.id());
                out.push(c);
            }
        }
        out
    }

    /// Computes the next hop for a message addressed to `target`,
    /// following Pastry's algorithm: exact match delivers; a target inside
    /// the leaf-set arc goes to the numerically closest leaf (or delivers
    /// locally); otherwise the jump table supplies a peer with a longer
    /// shared prefix; failing that, any known peer strictly closer to the
    /// target with at least as long a prefix is used.
    pub fn next_hop(&self, target: Id, mode: RoutingMode) -> NextHop {
        let local = self.id();
        if target == local {
            return NextHop::Deliver;
        }
        if self.leaf_set.covers(target) {
            return match self.leaf_set.closest_to(target) {
                Some(c) => NextHop::Forward(*c),
                None => NextHop::Deliver,
            };
        }
        let table = match mode {
            RoutingMode::Secure => &self.secure_table,
            RoutingMode::Standard => &self.standard_table,
        };
        if let Some(entry) = table.route(target) {
            return NextHop::Forward(entry.cert);
        }
        // Rare fallback: the slot is empty; use any known peer at least as
        // good on prefix and strictly closer numerically.
        let row = local.common_prefix_len(&target);
        let local_dist = local.ring_distance(&target);
        let candidate = self
            .routing_peers(mode)
            .into_iter()
            .filter(|c| c.id().common_prefix_len(&target) >= row)
            .filter(|c| c.id().ring_distance(&target) < local_dist)
            .min_by_key(|c| c.id().ring_distance(&target));
        match candidate {
            Some(c) => NextHop::Forward(c),
            None => NextHop::Deliver,
        }
    }
}

/// Walks a message from `source` to the node responsible for `target`,
/// returning the identifiers visited (including `source` and the final
/// node). Used by tests and by the simulator's route planner.
///
/// Returns `None` if routing fails to converge within a hop budget of
/// 4 × ℓ (which would indicate a routing-state bug or inconsistent
/// membership).
///
/// # Panics
///
/// Panics if `source` is not present in `nodes`.
pub fn compute_route(
    nodes: &HashMap<Id, OverlayNode>,
    source: Id,
    target: Id,
    mode: RoutingMode,
) -> Option<Vec<Id>> {
    let mut cur = source;
    let mut visited = vec![source];
    let budget = 4 * concilium_types::ID_DIGITS;
    for _ in 0..budget {
        #[expect(
            clippy::panic,
            reason = "documented caller contract: a route through a node absent from the membership map is memory corruption, not protocol input"
        )]
        let node = nodes
            .get(&cur)
            .unwrap_or_else(|| panic!("route passes through unknown node {cur}"));
        match node.next_hop(target, mode) {
            NextHop::Deliver => return Some(visited),
            NextHop::Forward(c) => {
                if visited.contains(&c.id()) {
                    return None; // routing loop
                }
                cur = c.id();
                visited.push(cur);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::build_overlay;
    use concilium_crypto::CertificateAuthority;
    use concilium_types::{RouterId, SimTime};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn overlay(n: usize, seed: u64) -> HashMap<Id, OverlayNode> {
        let mut rng = StdRng::seed_from_u64(seed);
        let ca = CertificateAuthority::new(&mut rng);
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let keys = KeyPair::generate(&mut rng);
            let cert = ca.issue(HostAddr(RouterId(i as u32)), keys.public(), &mut rng);
            nodes.push((cert, keys));
        }
        build_overlay(&nodes, 8, SimTime::ZERO, None, &mut rng)
            .into_iter()
            .map(|n| (n.id(), n))
            .collect()
    }

    #[test]
    fn routes_converge_to_numerically_closest() {
        let nodes = overlay(50, 9);
        let ids: Vec<Id> = nodes.keys().copied().collect();
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..50 {
            let target = Id::random(&mut rng);
            let src = ids[0];
            let route = compute_route(&nodes, src, target, RoutingMode::Secure)
                .expect("route must converge");
            let last = *route.last().unwrap();
            // The final node must be the globally closest to the target.
            let best = ids.iter().min_by_key(|i| i.ring_distance(&target)).unwrap();
            assert_eq!(last, *best, "target {target}");
        }
    }

    #[test]
    fn routes_to_member_ids_reach_them() {
        let nodes = overlay(50, 11);
        let ids: Vec<Id> = nodes.keys().copied().collect();
        for dst in ids.iter().take(10) {
            let route = compute_route(&nodes, ids[20], *dst, RoutingMode::Secure).unwrap();
            assert_eq!(route.last(), Some(dst));
        }
    }

    #[test]
    fn hop_count_is_logarithmic() {
        let nodes = overlay(128, 12);
        let ids: Vec<Id> = nodes.keys().copied().collect();
        let mut total = 0usize;
        let mut count = 0usize;
        for (i, dst) in ids.iter().enumerate().take(30) {
            let src = ids[(i + 64) % ids.len()];
            if src == *dst {
                continue;
            }
            let route = compute_route(&nodes, src, *dst, RoutingMode::Secure).unwrap();
            total += route.len() - 1;
            count += 1;
        }
        let avg = total as f64 / count as f64;
        // log16(128) ≈ 1.75; leaf-set hops add a little. Anything below 5
        // is healthy for 128 nodes.
        assert!(avg < 5.0, "average hops {avg}");
    }

    #[test]
    fn self_route_is_trivial() {
        let nodes = overlay(20, 13);
        let id = *nodes.keys().next().unwrap();
        let route = compute_route(&nodes, id, id, RoutingMode::Secure).unwrap();
        assert_eq!(route, vec![id]);
    }

    #[test]
    fn routing_peers_deduplicated() {
        let nodes = overlay(30, 14);
        for node in nodes.values() {
            let peers = node.routing_peers(RoutingMode::Secure);
            let mut ids: Vec<Id> = peers.iter().map(|c| c.id()).collect();
            let before = ids.len();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), before, "duplicate routing peers");
            assert!(!ids.contains(&node.id()), "node lists itself as a peer");
        }
    }

    #[test]
    fn standard_mode_also_converges() {
        let nodes = overlay(50, 15);
        let ids: Vec<Id> = nodes.keys().copied().collect();
        let route = compute_route(&nodes, ids[3], ids[40], RoutingMode::Standard).unwrap();
        assert_eq!(route.last(), Some(&ids[40]));
    }

    #[test]
    #[should_panic(expected = "certificate/key mismatch")]
    fn mismatched_keys_rejected() {
        let mut rng = StdRng::seed_from_u64(16);
        let ca = CertificateAuthority::new(&mut rng);
        let k1 = KeyPair::generate(&mut rng);
        let k2 = KeyPair::generate(&mut rng);
        let cert = ca.issue(HostAddr(RouterId(0)), k1.public(), &mut rng);
        let ls = LeafSet::new(cert.id(), 8);
        let jt = JumpTable::new(cert.id());
        let _ = OverlayNode::new(cert, k2, ls, jt.clone(), jt);
    }
}
