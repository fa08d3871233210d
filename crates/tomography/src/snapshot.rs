//! Signed tomographic snapshots (§3.2).
//!
//! After probing its tree, a host sends its routing peers a timestamped
//! snapshot of the tree and the summarised probe results. The snapshot is
//! signed both to prevent spoofing and so the origin cannot later disavow
//! the results it advertised. "The probe results for each path can be
//! encoded in a few bits representing predefined loss rates" — the
//! [`LossBucket`] encoding.

use serde::{Deserialize, Serialize};

use concilium_crypto::{KeyPair, PublicKey, Signable, Signature};
use concilium_types::{Id, LinkId, SimTime};

/// A 2-bit loss-rate bucket: the predefined loss levels snapshots carry.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum LossBucket {
    /// Loss below 5%: the link is healthy.
    Up,
    /// Loss in [5%, 30%): degraded but mostly passing.
    Light,
    /// Loss in [30%, 90%): heavily lossy.
    Heavy,
    /// Loss at or above 90%: effectively down.
    Down,
}

impl LossBucket {
    /// Whether the bucket counts as "up" for the binary verdicts of the
    /// evaluation (`Up` and `Light`).
    pub(crate) fn is_up(&self) -> bool {
        matches!(self, LossBucket::Up | LossBucket::Light)
    }

    /// The 2-bit wire encoding.
    pub(crate) fn code(&self) -> u8 {
        match self {
            LossBucket::Up => 0,
            LossBucket::Light => 1,
            LossBucket::Heavy => 2,
            LossBucket::Down => 3,
        }
    }
}

/// One probed link's status as advertised in a snapshot.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct LinkObservation {
    /// The probed link.
    pub link: LinkId,
    /// The bucketed loss level.
    pub bucket: LossBucket,
}

impl LinkObservation {
    /// Convenience: a binary up/down observation.
    pub fn binary(link: LinkId, up: bool) -> Self {
        LinkObservation {
            link,
            bucket: if up { LossBucket::Up } else { LossBucket::Down },
        }
    }

    /// Whether the observation reports the link as up.
    pub fn is_up(&self) -> bool {
        self.bucket.is_up()
    }
}

/// A signed, timestamped tomographic snapshot from one probing host.
///
/// # Examples
///
/// ```
/// use concilium_tomography::{LinkObservation, TomographySnapshot};
/// use concilium_crypto::KeyPair;
/// use concilium_types::{Id, LinkId, SimTime};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// let keys = KeyPair::generate(&mut rng);
/// let snap = TomographySnapshot::new_signed(
///     Id::from_u64(1),
///     SimTime::from_secs(60),
///     vec![LinkObservation::binary(LinkId(7), true)],
///     &keys,
///     &mut rng,
/// );
/// assert!(snap.verify(&keys.public()));
/// assert!(snap.observation_for(LinkId(7)).unwrap().is_up());
/// ```
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct TomographySnapshot {
    origin: Id,
    time: SimTime,
    observations: Vec<LinkObservation>,
    sig: Signature,
}

impl TomographySnapshot {
    /// Creates and signs a snapshot.
    pub fn new_signed<R: rand::Rng + ?Sized>(
        origin: Id,
        time: SimTime,
        observations: Vec<LinkObservation>,
        keys: &KeyPair,
        rng: &mut R,
    ) -> Self {
        let mut snap =
            TomographySnapshot { origin, time, observations, sig: Signature::dummy() };
        snap.sig = keys.sign(&snap.to_signable_vec(), rng);
        snap
    }

    /// The identifier of the probing host.
    pub fn origin(&self) -> Id {
        self.origin
    }

    /// When the probing happened.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// The advertised per-link observations.
    pub(crate) fn observations(&self) -> &[LinkObservation] {
        &self.observations
    }

    /// Looks up the observation for a specific link.
    pub fn observation_for(&self, link: LinkId) -> Option<&LinkObservation> {
        self.observations.iter().find(|o| o.link == link)
    }

    /// Verifies the origin's signature.
    ///
    /// Snapshots are re-verified at every chain link and after each DHT
    /// refetch, so this goes through the thread-local verification memo;
    /// the outcome is identical to an uncached [`PublicKey::verify`].
    pub fn verify(&self, origin_key: &PublicKey) -> bool {
        concilium_crypto::verify_cached(origin_key, &self.to_signable_vec(), &self.sig)
    }
}

impl Signable for TomographySnapshot {
    fn signable_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"snapshot");
        out.extend_from_slice(self.origin.as_bytes());
        out.extend_from_slice(&self.time.as_micros().to_be_bytes());
        out.extend_from_slice(&(self.observations.len() as u64).to_be_bytes());
        for obs in &self.observations {
            out.extend_from_slice(&obs.link.0.to_be_bytes());
            out.push(obs.bucket.code());
        }
        // The signature itself is excluded: these bytes are what gets
        // signed.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn snap(keys: &KeyPair, rng: &mut StdRng) -> TomographySnapshot {
        TomographySnapshot::new_signed(
            Id::from_u64(9),
            SimTime::from_secs(30),
            vec![
                LinkObservation::binary(LinkId(1), true),
                LinkObservation::binary(LinkId(2), false),
            ],
            keys,
            rng,
        )
    }

    #[test]
    fn sign_verify_round_trip() {
        let mut rng = StdRng::seed_from_u64(41);
        let keys = KeyPair::generate(&mut rng);
        let s = snap(&keys, &mut rng);
        assert!(s.verify(&keys.public()));
        assert_eq!(s.origin(), Id::from_u64(9));
        assert_eq!(s.time(), SimTime::from_secs(30));
    }

    #[test]
    fn tampered_observation_rejected() {
        let mut rng = StdRng::seed_from_u64(42);
        let keys = KeyPair::generate(&mut rng);
        let s = snap(&keys, &mut rng);
        // Flip the down link to up.
        let mut tampered = s.clone();
        tampered.observations[1] = LinkObservation::binary(LinkId(2), true);
        assert!(!tampered.verify(&keys.public()));
        // Change the timestamp.
        let mut redated = s.clone();
        redated.time = SimTime::from_secs(31);
        assert!(!redated.verify(&keys.public()));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut rng = StdRng::seed_from_u64(43);
        let keys = KeyPair::generate(&mut rng);
        let other = KeyPair::generate(&mut rng);
        let s = snap(&keys, &mut rng);
        assert!(!s.verify(&other.public()));
    }

    #[test]
    fn observation_lookup() {
        let mut rng = StdRng::seed_from_u64(44);
        let keys = KeyPair::generate(&mut rng);
        let s = snap(&keys, &mut rng);
        assert!(s.observation_for(LinkId(1)).unwrap().is_up());
        assert!(!s.observation_for(LinkId(2)).unwrap().is_up());
        assert!(s.observation_for(LinkId(3)).is_none());
    }

    #[test]
    fn loss_buckets() {
        let all = [LossBucket::Up, LossBucket::Light, LossBucket::Heavy, LossBucket::Down];
        assert_eq!(all.map(|b| b.code()), [0, 1, 2, 3]);
        assert!(LossBucket::Light.is_up());
        assert!(!LossBucket::Heavy.is_up());
    }
}
