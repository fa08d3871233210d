//! Building per-node routing state from a global membership view.
//!
//! The reproduction bootstraps overlays the way simulators do: all
//! certificates are known, and each node's leaf set and (secure) jump
//! table are derived directly from the global view. This sidesteps the
//! join protocol — which the paper also does not evaluate — while
//! enforcing exactly the secure-routing slot constraints of §2: the entry
//! in row *i*, column *j* must be the online host whose identifier is
//! closest to point *p*.

use std::collections::HashMap;

use rand::Rng;

use concilium_crypto::{Certificate, KeyPair};
use concilium_types::{HostAddr, Id, SimTime};

use crate::freshness::FreshnessStamp;
use crate::jump_table::{JumpTable, JumpTableEntry};
use crate::leaf_set::LeafSet;
use crate::node::OverlayNode;

/// A sorted, searchable view of all overlay certificates.
#[derive(Clone, Debug)]
pub struct Membership {
    sorted: Vec<Certificate>,
}

impl Membership {
    /// Creates a membership view.
    ///
    /// # Panics
    ///
    /// Panics if two certificates share an identifier (the CA assigns
    /// unique random identifiers).
    pub(crate) fn new(mut certs: Vec<Certificate>) -> Self {
        certs.sort_by_key(|c| c.id());
        for w in certs.windows(2) {
            assert_ne!(w[0].id(), w[1].id(), "duplicate overlay identifier {}", w[0].id());
        }
        Membership { sorted: certs }
    }

    /// Iterates over certificates in identifier order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Certificate> {
        self.sorted.iter()
    }

    /// The certificates whose identifiers share at least the first
    /// `prefix_digits` digits with `point`.
    pub(crate) fn in_prefix_range(&self, point: Id, prefix_digits: usize) -> &[Certificate] {
        if prefix_digits == 0 {
            return &self.sorted;
        }
        let floor = fill_after_prefix(point, prefix_digits, 0x00);
        let ceil = fill_after_prefix(point, prefix_digits, 0xff);
        let lo = self.sorted.partition_point(|c| c.id() < floor);
        let hi = self.sorted.partition_point(|c| c.id() <= ceil);
        &self.sorted[lo..hi]
    }

    /// The secure-routing occupant of a slot: among hosts sharing the
    /// first `prefix_digits` digits of `point`, the one (other than
    /// `exclude`) whose identifier is closest to `point` on the ring; of
    /// two equally close, the lower identifier.
    ///
    /// Only the two members flanking `point` can be closest: the first
    /// candidate at or above it and the last below it. With a prefix the
    /// candidates lie in an interval under half the ring that holds
    /// `point`, where ring distance is plain distance; without one they
    /// are the whole ring, and the flanks wrap around it. Either way one
    /// search finds them, and skipping `exclude` moves a flank by at most
    /// one member.
    pub(crate) fn closest_in_prefix_range(
        &self,
        point: Id,
        prefix_digits: usize,
        exclude: Id,
    ) -> Option<&Certificate> {
        let range = self.in_prefix_range(point, prefix_digits);
        let (below, above) = range.split_at(range.partition_point(|c| c.id() < point));
        let wrap = if prefix_digits == 0 { range } else { &[] };
        let kept = |c: &&Certificate| c.id() != exclude;
        let up = above.iter().chain(wrap).find(kept);
        let down = below.iter().rev().chain(wrap.iter().rev()).find(kept);
        up.into_iter().chain(down).min_by_key(|c| (c.id().ring_distance(&point), c.id()))
    }
}

/// `point` with every digit from `digits` on set to `fill`'s nibble: its
/// prefix interval's floor (`0x00`) or ceiling (`0xff`). Whole bytes are
/// written at once; `digits` past [`ID_DIGITS`] changes nothing.
///
/// [`ID_DIGITS`]: concilium_types::ID_DIGITS
fn fill_after_prefix(point: Id, digits: usize, fill: u8) -> Id {
    let mut bytes = point.into_bytes();
    if digits % 2 == 1 && digits < concilium_types::ID_DIGITS {
        bytes[digits / 2] = bytes[digits / 2] & 0xf0 | fill & 0x0f;
    }
    bytes[digits.div_ceil(2).min(concilium_types::ID_BYTES)..].fill(fill);
    Id::from_bytes(bytes)
}

/// Builds the full overlay: one [`OverlayNode`] per input, with leaf sets
/// of `leaf_capacity` peers and secure jump tables, every jump-table entry
/// carrying a freshness stamp signed at `now` by the referenced peer.
///
/// `proximity` optionally supplies an IP-level distance oracle used to
/// build the *standard* (performance-optimised) routing tables; when
/// absent, standard tables equal the secure ones.
///
/// # Panics
///
/// Panics if fewer than 2 nodes are supplied, identifiers collide, or
/// `leaf_capacity` is odd.
pub fn build_overlay<R: Rng + ?Sized>(
    nodes: &[(Certificate, KeyPair)],
    leaf_capacity: usize,
    now: SimTime,
    proximity: Option<&dyn Fn(HostAddr, HostAddr) -> u64>,
    rng: &mut R,
) -> Vec<OverlayNode> {
    assert!(nodes.len() >= 2, "an overlay needs at least 2 nodes");
    let membership = Membership::new(nodes.iter().map(|(c, _)| *c).collect());
    let keys_by_id: HashMap<Id, &KeyPair> =
        nodes.iter().map(|(c, k)| (c.id(), k)).collect();
    assert_eq!(keys_by_id.len(), nodes.len(), "duplicate identifiers in input");

    let sorted: Vec<&Certificate> = membership.iter().collect();
    let index_of: HashMap<Id, usize> =
        sorted.iter().enumerate().map(|(i, c)| (c.id(), i)).collect();

    let mut out = Vec::with_capacity(nodes.len());
    for (cert, keys) in nodes {
        let local = cert.id();
        let n = sorted.len();

        // Leaf set: capacity/2 ring successors and predecessors.
        let mut leaf = LeafSet::new(local, leaf_capacity);
        let pos = index_of[&local];
        let per_side = (leaf_capacity / 2).min(n - 1);
        for k in 1..=per_side {
            leaf.insert(*sorted[(pos + k) % n]);
            leaf.insert(*sorted[(pos + n - k) % n]);
        }

        // Secure jump table.
        let mut secure = JumpTable::new(local);
        let mut standard = JumpTable::new(local);
        for row in 0..secure.space().digits() {
            // Any other host sharing `row` digits with the local id?
            let sharing = membership.in_prefix_range(local, row as usize);
            let others = sharing.iter().any(|c| c.id() != local);
            if !others {
                break;
            }
            for col in 0..16u8 {
                if col == local.digit(row as usize) {
                    continue;
                }
                let point = local.with_digit(row as usize, col);
                let Some(occupant) =
                    membership.closest_in_prefix_range(point, row as usize + 1, local)
                else {
                    continue;
                };
                let peer_keys = keys_by_id[&occupant.id()];
                let stamp = FreshnessStamp::issue(peer_keys, local, now, rng);
                secure.set_entry(
                    row,
                    col,
                    JumpTableEntry { cert: *occupant, freshness: stamp },
                );

                // Standard table: same candidate set, proximity-optimised
                // occupant when an oracle is available.
                let std_occupant = match proximity {
                    Some(dist) => membership
                        .in_prefix_range(point, row as usize + 1)
                        .iter()
                        .filter(|c| c.id() != local)
                        .min_by_key(|c| dist(cert.addr(), c.addr()))
                        .copied(),
                    None => Some(*occupant),
                };
                if let Some(so) = std_occupant {
                    let so_keys = keys_by_id[&so.id()];
                    let stamp = FreshnessStamp::issue(so_keys, local, now, rng);
                    standard.set_entry(row, col, JumpTableEntry { cert: so, freshness: stamp });
                }
            }
        }

        out.push(OverlayNode::new(*cert, keys.clone(), leaf, secure, standard));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::RoutingMode;
    use concilium_crypto::CertificateAuthority;
    use concilium_types::RouterId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make_nodes(n: usize, seed: u64) -> (Vec<(Certificate, KeyPair)>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ca = CertificateAuthority::new(&mut rng);
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let keys = KeyPair::generate(&mut rng);
            let cert = ca.issue(HostAddr(RouterId(i as u32)), keys.public(), &mut rng);
            nodes.push((cert, keys));
        }
        (nodes, rng)
    }

    #[test]
    fn prefix_range_is_exact() {
        let (nodes, _) = make_nodes(200, 2);
        let m = Membership::new(nodes.iter().map(|(c, _)| *c).collect());
        let point = nodes[0].0.id();
        for digits in 0..=concilium_types::ID_DIGITS {
            let in_range: Vec<Id> = m.in_prefix_range(point, digits).iter().map(|c| c.id()).collect();
            let expected: Vec<Id> = m
                .iter()
                .filter(|c| c.id().common_prefix_len(&point) >= digits)
                .map(|c| c.id())
                .collect();
            assert_eq!(in_range, expected, "digits={digits}");
        }
    }

    #[test]
    fn closest_in_range_minimises_distance() {
        let (nodes, _) = make_nodes(100, 3);
        let m = Membership::new(nodes.iter().map(|(c, _)| *c).collect());
        let local = nodes[5].0.id();
        let point = local.with_digit(0, (local.digit(0) + 1) % 16);
        if let Some(best) = m.closest_in_prefix_range(point, 1, local) {
            for c in m.in_prefix_range(point, 1) {
                if c.id() != local {
                    assert!(
                        best.id().ring_distance(&point) <= c.id().ring_distance(&point)
                    );
                }
            }
        }
    }

    #[test]
    fn build_overlay_constructs_valid_state() {
        let (nodes, mut rng) = make_nodes(64, 4);
        let overlay = build_overlay(&nodes, 8, SimTime::from_secs(1), None, &mut rng);
        assert_eq!(overlay.len(), 64);
        for node in &overlay {
            // Leaf sets are full (64 nodes >> capacity 8).
            assert_eq!(node.leaf_set().len(), 8);
            // Jump tables validate structurally.
            assert!(node
                .jump_table()
                .validate(SimTime::from_secs(2), concilium_types::SimDuration::from_secs(60))
                .is_ok());
            // Row 0 should be nearly full in a 64-node overlay.
            let row0 = (0..16u8)
                .filter(|&c| node.jump_table().entry(0, c).is_some())
                .count();
            assert!(row0 >= 10, "row 0 occupancy {row0}");
        }
    }

    #[test]
    fn secure_entries_are_closest_to_point() {
        let (nodes, mut rng) = make_nodes(64, 5);
        let overlay = build_overlay(&nodes, 8, SimTime::ZERO, None, &mut rng);
        let m = Membership::new(nodes.iter().map(|(c, _)| *c).collect());
        let node = &overlay[0];
        let local = node.id();
        for (row, col, entry) in node.jump_table().entries() {
            let point = local.with_digit(row as usize, col);
            let best = m
                .closest_in_prefix_range(point, row as usize + 1, local)
                .expect("entry exists, so a candidate exists");
            assert_eq!(entry.cert.id(), best.id(), "slot ({row},{col})");
        }
    }

    #[test]
    fn proximity_oracle_changes_standard_table() {
        let (nodes, mut rng) = make_nodes(64, 6);
        // Proximity oracle: router-index difference.
        let prox = |a: HostAddr, b: HostAddr| {
            (a.router().0 as i64 - b.router().0 as i64).unsigned_abs()
        };
        let overlay =
            build_overlay(&nodes, 8, SimTime::ZERO, Some(&prox), &mut rng);
        // At least one node's standard peers should differ from its secure
        // peers (proximity rarely agrees with id-closeness).
        let differs = overlay.iter().any(|node| {
            node.routing_peers(RoutingMode::Standard) != node.routing_peers(RoutingMode::Secure)
        });
        assert!(differs, "proximity oracle had no effect");
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn single_node_rejected() {
        let (nodes, mut rng) = make_nodes(1, 7);
        let _ = build_overlay(&nodes, 8, SimTime::ZERO, None, &mut rng);
    }

    mod props {
        use super::*;
        use concilium_types::ID_DIGITS;
        use proptest::prelude::*;

        proptest! {
            /// Memberships of 2–300 whose ids often copy a random-length
            /// prefix of an earlier member's (so deep prefixes have
            /// candidates), plus `centre ± gap`. Asked: every slot point
            /// of four members' tables at the row's prefix, and `centre`,
            /// members' own ids (exact hits) and raw ids at every prefix
            /// up to the first empty range; each excluding an absent id,
            /// then excluding the linear scan's answer, a flank.
            #[test]
            fn closest_in_prefix_range_matches_the_linear_scan(
                seed in any::<u64>(),
                n in 2usize..300,
                gap in 1u64..1_000_000,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut ids: Vec<Id> = Vec::with_capacity(n + 2);
                while ids.len() < n {
                    let mut id = Id::random(&mut rng);
                    if let Some(&parent) = ids.get(rng.gen_range(0..2 * ids.len() + 1)) {
                        for d in 0..rng.gen_range(0..=ID_DIGITS) {
                            id = id.with_digit(d, parent.digit(d));
                        }
                    }
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
                // Low eight bytes in [2^62, 2^63), so `± gap` carries nowhere.
                let mut bytes = Id::random(&mut rng).into_bytes();
                let mut at = |low: u64| {
                    bytes[12..].copy_from_slice(&low.to_be_bytes());
                    Id::from_bytes(bytes)
                };
                let low = 1u64 << 62 | rng.gen::<u64>() >> 2;
                let (centre, lower) = (at(low), at(low - gap));
                ids.extend([lower, at(low + gap)]);
                let ca = CertificateAuthority::new(&mut rng);
                let keys = KeyPair::generate(&mut rng);
                let addr = HostAddr(RouterId(0));
                let certs = ids.iter().map(|&id| ca.issue_with_id(id, addr, keys.public(), &mut rng));
                let m = Membership::new(certs.collect());

                let mut asked = Vec::new();
                for &local in &ids[..4.min(n)] {
                    for row in (0..ID_DIGITS).take_while(|&r| m.in_prefix_range(local, r).len() > 1) {
                        let cols = (0..16).filter(|&c| c != local.digit(row));
                        asked.extend(cols.map(|c| (local.with_digit(row, c), row + 1)));
                    }
                }
                let raw: Vec<Id> = (0..8).map(|_| Id::random(&mut rng)).collect();
                for point in [centre, ids[0], ids[n - 1]].into_iter().chain(raw) {
                    let empty = (0..ID_DIGITS).find(|&d| m.in_prefix_range(point, d).is_empty());
                    asked.extend((0..=empty.unwrap_or(ID_DIGITS)).map(|d| (point, d)));
                }
                let absent = Id::random(&mut rng);
                for (point, digits) in asked {
                    let mut exclude = absent;
                    for _ in 0..2 {
                        let candidates = m.in_prefix_range(point, digits).iter().map(|c| c.id());
                        let scan = candidates
                            .filter(|&c| c != exclude)
                            .min_by_key(|c| c.ring_distance(&point));
                        let got = m.closest_in_prefix_range(point, digits, exclude).map(|c| c.id());
                        prop_assert_eq!(got, scan, "{} prefix {} excluding {}", point, digits, exclude);
                        let Some(flank) = scan else { break };
                        exclude = flank;
                    }
                }
                let tie = m.closest_in_prefix_range(centre, 0, absent).map(|c| c.id());
                prop_assert_eq!(tie, Some(lower), "centre ± {} ties to the lower id", gap);
            }
        }
    }
}
