//! The routing-state density tests (§3.1).
//!
//! Hosts validate the routing state their peers self-report:
//!
//! * **Leaf sets** use Castro's test: a peer whose advertised leaf set has
//!   a significantly *larger* average inter-identifier spacing than the
//!   local one has probably suppressed identifiers it does not control.
//! * **Jump tables** use Concilium's new occupancy test: an advertised
//!   table is deemed invalid when `γ · d_peer < d_local` for a small
//!   γ > 1, where `d` counts occupied slots.
//!
//! Choosing γ trades false positives against false negatives; the analytic
//! machinery for that trade-off lives in [`occupancy`](crate::occupancy).

use crate::leaf_set::LeafSet;

/// Concilium's jump-table density test: is the advertised density
/// `d_peer` suspiciously sparse relative to the local density `d_local`?
///
/// Returns `true` (suspicious) when `γ · d_peer < d_local`.
///
/// # Panics
///
/// Panics if `gamma < 1.0`.
///
/// # Examples
///
/// ```
/// use concilium_overlay::density::jump_table_too_sparse;
///
/// // Local table has 40 entries; a peer advertising 12 at γ = 1.5 fails.
/// assert!(jump_table_too_sparse(12, 40, 1.5));
/// assert!(!jump_table_too_sparse(35, 40, 1.5));
/// ```
pub fn jump_table_too_sparse(d_peer: u32, d_local: u32, gamma: f64) -> bool {
    assert!(gamma >= 1.0, "gamma must be at least 1, got {gamma}");
    gamma * (d_peer as f64) < d_local as f64
}

/// Castro's leaf-set density test: is the peer's average spacing
/// suspiciously large (i.e. the set too sparse)?
///
/// Returns `true` (suspicious) when `peer_spacing > γ · local_spacing`.
///
/// # Panics
///
/// Panics if `gamma < 1.0` or either spacing is not finite and positive.
pub fn leaf_set_too_sparse(peer_spacing: f64, local_spacing: f64, gamma: f64) -> bool {
    assert!(gamma >= 1.0, "gamma must be at least 1, got {gamma}");
    assert!(
        peer_spacing.is_finite() && peer_spacing > 0.0,
        "peer spacing must be positive, got {peer_spacing}"
    );
    assert!(
        local_spacing.is_finite() && local_spacing > 0.0,
        "local spacing must be positive, got {local_spacing}"
    );
    peer_spacing > gamma * local_spacing
}

/// Convenience wrapper running Castro's test on concrete leaf sets.
///
/// Returns `None` when either set is too small to compute a spacing (the
/// caller should fall back to other evidence).
///
/// # Panics
///
/// Panics if `gamma < 1.0`.
pub fn check_leaf_sets(peer: &LeafSet, local: &LeafSet, gamma: f64) -> Option<bool> {
    let p = peer.mean_spacing()?;
    let l = local.mean_spacing()?;
    Some(leaf_set_too_sparse(p, l, gamma))
}

#[cfg(test)]
mod tests {
    use super::*;
    use concilium_crypto::{CertificateAuthority, KeyPair};
    use concilium_types::{HostAddr, Id, RouterId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn jump_table_test_boundary() {
        // γ d_peer == d_local is NOT suspicious (strict inequality).
        assert!(!jump_table_too_sparse(20, 30, 1.5));
        assert!(jump_table_too_sparse(19, 30, 1.5));
        // Empty peer table is always suspicious against a non-empty local.
        assert!(jump_table_too_sparse(0, 1, 2.0));
        // Both empty: not suspicious.
        assert!(!jump_table_too_sparse(0, 0, 2.0));
    }

    #[test]
    fn leaf_set_test_boundary() {
        assert!(!leaf_set_too_sparse(15.0, 10.0, 1.5));
        assert!(leaf_set_too_sparse(15.1, 10.0, 1.5));
    }

    #[test]
    #[should_panic(expected = "gamma must be at least 1")]
    fn bad_gamma_rejected() {
        let _ = jump_table_too_sparse(1, 1, 0.9);
    }

    #[test]
    fn concrete_leaf_sets() {
        let mut rng = StdRng::seed_from_u64(12);
        let ca = CertificateAuthority::new(&mut rng);
        let mut issue = |id: u64| {
            let keys = KeyPair::generate(&mut rng);
            let mut r2 = StdRng::seed_from_u64(id);
            ca.issue_with_id(Id::from_u64(id), HostAddr(RouterId(0)), keys.public(), &mut r2)
        };

        // Dense local set (spacing 10), sparse peer set (spacing 100).
        let mut local = LeafSet::new(Id::from_u64(1_000), 4);
        for v in [980u64, 990, 1010, 1020] {
            local.insert(issue(v));
        }
        let mut peer = LeafSet::new(Id::from_u64(5_000), 4);
        for v in [4800u64, 4900, 5100, 5200] {
            peer.insert(issue(v));
        }
        assert_eq!(check_leaf_sets(&peer, &local, 2.0), Some(true));
        assert_eq!(check_leaf_sets(&local, &peer, 2.0), Some(false));

        let empty = LeafSet::new(Id::from_u64(0), 4);
        assert_eq!(check_leaf_sets(&empty, &local, 2.0), None);
    }
}
