//! Snapshot diffs (§4.4).
//!
//! "This overhead can be decreased by sending diffs for updated entries
//! instead of entire tables." A [`SnapshotDelta`] carries only the link
//! observations that changed since a base snapshot (plus links that left
//! the tree), signed like a full snapshot so receivers can still hold the
//! origin to its words.

use serde::{Deserialize, Serialize};

use concilium_crypto::{KeyPair, PublicKey, Signable, Signature};
use concilium_types::{Id, LinkId, SimTime};

use crate::snapshot::{LinkObservation, TomographySnapshot};

/// A signed delta between two snapshots from the same origin.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct SnapshotDelta {
    origin: Id,
    /// Time of the base snapshot this delta applies to.
    base_time: SimTime,
    /// Time of the resulting snapshot.
    time: SimTime,
    /// New or changed observations.
    changed: Vec<LinkObservation>,
    /// Links no longer in the origin's tree.
    removed: Vec<LinkId>,
    sig: Signature,
}

impl SnapshotDelta {
    /// Computes the delta that turns `base` into `new`, signed by the
    /// origin.
    ///
    /// # Panics
    ///
    /// Panics if the snapshots have different origins or `new` is not
    /// strictly newer than `base`.
    pub fn between<R: rand::Rng + ?Sized>(
        base: &TomographySnapshot,
        new: &TomographySnapshot,
        origin_keys: &KeyPair,
        rng: &mut R,
    ) -> Self {
        assert_eq!(base.origin(), new.origin(), "snapshots from different origins");
        assert!(new.time() > base.time(), "delta must move time forward");
        let changed: Vec<LinkObservation> = new
            .observations()
            .iter()
            .filter(|obs| base.observation_for(obs.link) != Some(*obs))
            .copied()
            .collect();
        let removed: Vec<LinkId> = base
            .observations()
            .iter()
            .filter(|obs| new.observation_for(obs.link).is_none())
            .map(|obs| obs.link)
            .collect();
        let mut delta = SnapshotDelta {
            origin: base.origin(),
            base_time: base.time(),
            time: new.time(),
            changed,
            removed,
            sig: Signature::dummy(),
        };
        delta.sig = origin_keys.sign(&delta.to_signable_vec(), rng);
        delta
    }

    /// Verifies the origin's signature.
    pub fn verify(&self, origin_key: &PublicKey) -> bool {
        origin_key.verify(&self.to_signable_vec(), &self.sig)
    }

    /// Applies the delta to its base, reconstructing the new snapshot's
    /// observation list. Returns `None` when `base` is not the snapshot
    /// this delta was computed against (wrong origin or time).
    pub fn apply(&self, base: &TomographySnapshot) -> Option<Vec<LinkObservation>> {
        if base.origin() != self.origin || base.time() != self.base_time {
            return None;
        }
        let mut out: Vec<LinkObservation> = base
            .observations()
            .iter()
            .filter(|obs| !self.removed.contains(&obs.link))
            .map(|obs| {
                self.changed
                    .iter()
                    .find(|c| c.link == obs.link)
                    .copied()
                    .unwrap_or(*obs)
            })
            .collect();
        for c in &self.changed {
            if base.observation_for(c.link).is_none() {
                out.push(*c);
            }
        }
        Some(out)
    }
}

impl Signable for SnapshotDelta {
    fn signable_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"snapdelta");
        out.extend_from_slice(self.origin.as_bytes());
        out.extend_from_slice(&self.base_time.as_micros().to_be_bytes());
        out.extend_from_slice(&self.time.as_micros().to_be_bytes());
        out.extend_from_slice(&(self.changed.len() as u64).to_be_bytes());
        for obs in &self.changed {
            out.extend_from_slice(&obs.link.0.to_be_bytes());
            out.push(obs.bucket.code());
        }
        out.extend_from_slice(&(self.removed.len() as u64).to_be_bytes());
        for l in &self.removed {
            out.extend_from_slice(&l.0.to_be_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn snapshot(
        keys: &KeyPair,
        t: u64,
        obs: &[(u32, bool)],
        rng: &mut StdRng,
    ) -> TomographySnapshot {
        TomographySnapshot::new_signed(
            Id::from_u64(7),
            SimTime::from_secs(t),
            obs.iter().map(|&(l, up)| LinkObservation::binary(LinkId(l), up)).collect(),
            keys,
            rng,
        )
    }

    #[test]
    fn delta_round_trips() {
        let mut rng = StdRng::seed_from_u64(71);
        let keys = KeyPair::generate(&mut rng);
        let base = snapshot(&keys, 100, &[(1, true), (2, true), (3, false)], &mut rng);
        // Link 2 flips down, link 3 leaves the tree, link 4 appears.
        let new = snapshot(&keys, 160, &[(1, true), (2, false), (4, true)], &mut rng);
        let delta = SnapshotDelta::between(&base, &new, &keys, &mut rng);
        assert!(delta.verify(&keys.public()));
        assert_eq!(delta.changed.len(), 2); // links 2 and 4

        let mut rebuilt = delta.apply(&base).unwrap();
        rebuilt.sort_by_key(|o| o.link);
        let mut want: Vec<LinkObservation> = new.observations().to_vec();
        want.sort_by_key(|o| o.link);
        assert_eq!(rebuilt, want);
    }

    #[test]
    fn delta_is_smaller_than_full_snapshot_for_small_changes() {
        let mut rng = StdRng::seed_from_u64(72);
        let keys = KeyPair::generate(&mut rng);
        let many: Vec<(u32, bool)> = (0..600).map(|i| (i, true)).collect();
        let base = snapshot(&keys, 100, &many, &mut rng);
        let mut changed = many.clone();
        changed[5].1 = false;
        let new = snapshot(&keys, 160, &changed, &mut rng);
        let delta = SnapshotDelta::between(&base, &new, &keys, &mut rng);
        // The full table carries 600 observations; the delta carries one.
        assert_eq!(delta.changed.len(), 1);
        assert!(delta.removed.is_empty());
    }

    #[test]
    fn apply_rejects_wrong_base() {
        let mut rng = StdRng::seed_from_u64(73);
        let keys = KeyPair::generate(&mut rng);
        let base = snapshot(&keys, 100, &[(1, true)], &mut rng);
        let new = snapshot(&keys, 160, &[(1, false)], &mut rng);
        let other_base = snapshot(&keys, 130, &[(1, true)], &mut rng);
        let delta = SnapshotDelta::between(&base, &new, &keys, &mut rng);
        assert!(delta.apply(&other_base).is_none());
    }

    #[test]
    fn tampered_delta_rejected() {
        let mut rng = StdRng::seed_from_u64(74);
        let keys = KeyPair::generate(&mut rng);
        let base = snapshot(&keys, 100, &[(1, true), (2, true)], &mut rng);
        let new = snapshot(&keys, 160, &[(1, true), (2, false)], &mut rng);
        let delta = SnapshotDelta::between(&base, &new, &keys, &mut rng);
        let mut forged = delta.clone();
        forged.changed[0] = LinkObservation::binary(LinkId(2), true);
        assert!(!forged.verify(&keys.public()));
    }

    #[test]
    #[should_panic(expected = "move time forward")]
    fn backwards_delta_rejected() {
        let mut rng = StdRng::seed_from_u64(75);
        let keys = KeyPair::generate(&mut rng);
        let base = snapshot(&keys, 100, &[(1, true)], &mut rng);
        let old = snapshot(&keys, 50, &[(1, true)], &mut rng);
        let _ = SnapshotDelta::between(&base, &old, &keys, &mut rng);
    }
}
