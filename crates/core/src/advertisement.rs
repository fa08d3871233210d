//! Validated routing-state advertisements (§3.1–3.2).
//!
//! "Each leaf node in T_H is one of H's routing peers, so H implicitly
//! advertises its forwarding state when it publishes its tomographic
//! data." A [`RoutingAdvertisement`] bundles the advertised jump table
//! (with its peer-signed freshness stamps), the advertised leaf-set
//! spacing, and the tomographic snapshot, all under the origin's
//! signature. Receivers run the full §3.1 validation pipeline: signature,
//! freshness, prefix constraints, and both density tests.

use std::fmt;

use serde::{Deserialize, Serialize};

use concilium_crypto::{KeyPair, PublicKey, Signable, Signature};
use concilium_overlay::density::{jump_table_too_sparse, leaf_set_too_sparse};
use concilium_overlay::{JumpTable, JumpTableViolation};
use concilium_tomography::TomographySnapshot;
use concilium_types::SimTime;

use crate::config::ConciliumConfig;

/// A signed advertisement of one host's routing state and probe results.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RoutingAdvertisement {
    table: JumpTable,
    /// Advertised mean leaf-set spacing (None when the leaf set is too
    /// small to compute one).
    leaf_spacing: Option<f64>,
    snapshot: TomographySnapshot,
    sig: Signature,
}

impl RoutingAdvertisement {
    /// Builds and signs an advertisement.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's origin differs from the table's owner.
    pub fn build<R: rand::Rng + ?Sized>(
        table: JumpTable,
        leaf_spacing: Option<f64>,
        snapshot: TomographySnapshot,
        origin_keys: &KeyPair,
        rng: &mut R,
    ) -> Self {
        assert_eq!(
            snapshot.origin(),
            table.local(),
            "snapshot and table must have the same origin"
        );
        let mut ad = RoutingAdvertisement {
            table,
            leaf_spacing,
            snapshot,
            sig: Signature::dummy(),
        };
        ad.sig = origin_keys.sign(&ad.to_signable_vec(), rng);
        ad
    }

    /// Runs the full receiver-side validation pipeline:
    ///
    /// 1. the origin's signature over the whole advertisement;
    /// 2. the jump table's structural invariants — prefix constraints and
    ///    peer-signed freshness stamps (defeating inflation attacks);
    /// 3. Concilium's jump-table density test against the receiver's own
    ///    density (defeating suppression of table entries);
    /// 4. Castro's leaf-set spacing test, when both sides have one.
    ///
    /// # Errors
    ///
    /// Returns the first failure.
    pub fn validate(
        &self,
        origin_key: &PublicKey,
        local_table_density: u32,
        local_leaf_spacing: Option<f64>,
        now: SimTime,
        config: &ConciliumConfig,
    ) -> Result<(), AdvertisementError> {
        if !origin_key.verify(&self.to_signable_vec(), &self.sig) {
            return Err(AdvertisementError::BadSignature);
        }
        self.table
            .validate(now, config.freshness_max_age)
            .map_err(AdvertisementError::Table)?;
        if jump_table_too_sparse(self.table.occupied(), local_table_density, config.density_gamma)
        {
            return Err(AdvertisementError::TableTooSparse {
                advertised: self.table.occupied(),
                local: local_table_density,
            });
        }
        if let (Some(peer), Some(local)) = (self.leaf_spacing, local_leaf_spacing) {
            if leaf_set_too_sparse(peer, local, config.leaf_gamma) {
                return Err(AdvertisementError::LeafSetTooSparse);
            }
        }
        Ok(())
    }
}

impl Signable for RoutingAdvertisement {
    fn signable_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"advert");
        out.extend_from_slice(self.table.local().as_bytes());
        // Bind every table slot: coordinates, occupant, stamp time.
        for (row, col, entry) in self.table.entries() {
            out.extend_from_slice(&row.to_be_bytes());
            out.push(col);
            out.extend_from_slice(entry.cert.id().as_bytes());
            out.extend_from_slice(&entry.freshness.time().as_micros().to_be_bytes());
        }
        match self.leaf_spacing {
            Some(s) => {
                out.push(1);
                out.extend_from_slice(&s.to_be_bytes());
            }
            None => out.push(0),
        }
        self.snapshot.signable_bytes(out);
    }
}

/// Why an advertisement was rejected.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum AdvertisementError {
    /// The origin's signature over the advertisement is invalid.
    BadSignature,
    /// The jump table violates a structural invariant.
    Table(JumpTableViolation),
    /// The advertised table fails the density test.
    TableTooSparse {
        /// The advertised occupancy.
        advertised: u32,
        /// The receiver's local occupancy.
        local: u32,
    },
    /// The advertised leaf set fails Castro's spacing test.
    LeafSetTooSparse,
}

impl fmt::Display for AdvertisementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdvertisementError::BadSignature => {
                f.write_str("advertisement signature is invalid")
            }
            AdvertisementError::Table(v) => write!(f, "jump table invalid: {v}"),
            AdvertisementError::TableTooSparse { advertised, local } => write!(
                f,
                "advertised table density {advertised} is suspiciously sparse (local {local})"
            ),
            AdvertisementError::LeafSetTooSparse => {
                f.write_str("advertised leaf set is suspiciously sparse")
            }
        }
    }
}

impl std::error::Error for AdvertisementError {}

#[cfg(test)]
mod tests {
    use super::*;
    use concilium_crypto::CertificateAuthority;
    use concilium_overlay::freshness::FreshnessStamp;
    use concilium_overlay::JumpTableEntry;
    use concilium_tomography::LinkObservation;
    use concilium_types::{HostAddr, Id, LinkId, RouterId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fx {
        rng: StdRng,
        ca: CertificateAuthority,
        origin: Id,
        origin_keys: KeyPair,
        config: ConciliumConfig,
    }

    fn fx() -> Fx {
        let mut rng = StdRng::seed_from_u64(151);
        let ca = CertificateAuthority::new(&mut rng);
        let origin_keys = KeyPair::generate(&mut rng);
        Fx {
            ca,
            origin: Id::from_hex("0000000000000000000000000000000000000000").unwrap(),
            origin_keys,
            rng,
            config: ConciliumConfig::default(),
        }
    }

    impl Fx {
        /// A table with `cols` fresh entries in row 0.
        fn table(&mut self, cols: u8, stamp_time: SimTime) -> JumpTable {
            let mut jt = JumpTable::new(self.origin);
            for col in 1..=cols {
                let id = self.origin.with_digit(0, col);
                let peer_keys = KeyPair::generate(&mut self.rng);
                let cert = self.ca.issue_with_id(
                    id,
                    HostAddr(RouterId(col as u32)),
                    peer_keys.public(),
                    &mut self.rng,
                );
                let stamp =
                    FreshnessStamp::issue(&peer_keys, self.origin, stamp_time, &mut self.rng);
                jt.set_entry(0, col, JumpTableEntry { cert, freshness: stamp });
            }
            jt
        }

        fn snapshot(&mut self, t: SimTime) -> TomographySnapshot {
            TomographySnapshot::new_signed(
                self.origin,
                t,
                vec![LinkObservation::binary(LinkId(1), true)],
                &self.origin_keys,
                &mut self.rng,
            )
        }

        fn advertisement(&mut self, cols: u8, t: SimTime) -> RoutingAdvertisement {
            let table = self.table(cols, t);
            let snap = self.snapshot(t);
            let keys = self.origin_keys.clone();
            RoutingAdvertisement::build(table, Some(100.0), snap, &keys, &mut self.rng)
        }
    }

    #[test]
    fn honest_advertisement_validates() {
        let mut f = fx();
        let t = SimTime::from_secs(100);
        let ad = f.advertisement(10, t);
        assert_eq!(
            ad.validate(&f.origin_keys.public(), 12, Some(110.0), t, &f.config),
            Ok(())
        );
    }

    #[test]
    fn sparse_table_rejected() {
        let mut f = fx();
        let t = SimTime::from_secs(100);
        let ad = f.advertisement(3, t);
        // Local density 12 vs advertised 3: 1.5 × 3 < 12 → too sparse.
        assert_eq!(
            ad.validate(&f.origin_keys.public(), 12, None, t, &f.config),
            Err(AdvertisementError::TableTooSparse { advertised: 3, local: 12 })
        );
    }

    #[test]
    fn sparse_leaf_set_rejected() {
        let mut f = fx();
        let t = SimTime::from_secs(100);
        let ad = f.advertisement(10, t);
        // Peer spacing 100 vs local 10: peer set is 10× sparser.
        assert_eq!(
            ad.validate(&f.origin_keys.public(), 10, Some(10.0), t, &f.config),
            Err(AdvertisementError::LeafSetTooSparse)
        );
    }

    #[test]
    fn stale_stamps_rejected() {
        let mut f = fx();
        let ad = f.advertisement(10, SimTime::from_secs(100));
        let much_later = SimTime::from_secs(100_000);
        assert!(matches!(
            ad.validate(&f.origin_keys.public(), 10, None, much_later, &f.config),
            Err(AdvertisementError::Table(JumpTableViolation::StampStale { .. }))
        ));
    }

    #[test]
    fn resigned_table_swap_rejected() {
        // An attacker replaying someone's advertisement with a swapped
        // table fails the signature check.
        let mut f = fx();
        let t = SimTime::from_secs(100);
        let ad = f.advertisement(10, t);
        let denser_table = f.table(12, t);
        let forged = RoutingAdvertisement {
            table: denser_table,
            leaf_spacing: ad.leaf_spacing,
            snapshot: ad.snapshot.clone(),
            sig: ad.sig,
        };
        assert_eq!(
            forged.validate(&f.origin_keys.public(), 10, None, t, &f.config),
            Err(AdvertisementError::BadSignature)
        );
    }

    #[test]
    fn accessors() {
        let mut f = fx();
        let t = SimTime::from_secs(100);
        let ad = f.advertisement(5, t);
        assert_eq!(ad.table.occupied(), 5);
        assert_eq!(ad.leaf_spacing, Some(100.0));
        assert_eq!(ad.snapshot.origin(), f.origin);
    }
}
