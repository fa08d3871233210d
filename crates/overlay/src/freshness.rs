//! Signed freshness timestamps on jump-table entries (§3.1).
//!
//! A misbehaving host cannot fabricate identifiers for arbitrary slots
//! (identifiers are centrally issued), but it can *replay* identifiers of
//! peers that have gone offline to inflate its advertised table density.
//! To defeat such inflation attacks, a jump-table entry referencing peer H
//! must carry a timestamp recently signed by H itself: whenever host G
//! probes H for availability, H piggybacks a signed timestamp on the probe
//! response, and G includes those stamps when it advertises its table.
//! Peers reject tables with stale or forged stamps.

use serde::{Deserialize, Serialize};

use concilium_crypto::{KeyPair, PublicKey, Signature};
use concilium_types::{Id, SimDuration, SimTime};

/// A freshness stamp: peer `signer` attests at `time` that it is alive and
/// willing to appear in `holder`'s routing state.
///
/// # Examples
///
/// ```
/// use concilium_overlay::freshness::FreshnessStamp;
/// use concilium_crypto::KeyPair;
/// use concilium_types::{Id, SimTime};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let peer = KeyPair::generate(&mut rng);
/// let holder = Id::from_u64(42);
/// let stamp = FreshnessStamp::issue(&peer, holder, SimTime::from_secs(100), &mut rng);
/// assert_eq!(stamp.time(), SimTime::from_secs(100));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct FreshnessStamp {
    holder: Id,
    time: SimTime,
    sig: Signature,
}

impl FreshnessStamp {
    /// Issues a stamp: `peer` signs that at `time` it agreed to appear in
    /// `holder`'s routing state.
    pub fn issue<R: rand::Rng + ?Sized>(
        peer: &KeyPair,
        holder: Id,
        time: SimTime,
        rng: &mut R,
    ) -> Self {
        let body = Self::body(holder, time);
        FreshnessStamp { holder, time, sig: peer.sign(&body, rng) }
    }

    /// The routing-state holder this stamp was issued to.
    pub(crate) fn holder(&self) -> Id {
        self.holder
    }

    /// When the stamp was signed.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// Verifies that `signer` (the referenced peer's certified key)
    /// produced this stamp.
    pub(crate) fn verify(&self, signer: &PublicKey) -> bool {
        signer.verify(&Self::body(self.holder, self.time), &self.sig)
    }

    /// Whether the stamp is recent enough at time `now`.
    ///
    /// Stamps from the future (holder clock skew or forgery) are stale.
    pub(crate) fn is_fresh(&self, now: SimTime, max_age: SimDuration) -> bool {
        now >= self.time && now.abs_diff(self.time) <= max_age
    }

    fn body(holder: Id, time: SimTime) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.extend_from_slice(b"fresh");
        out.extend_from_slice(holder.as_bytes());
        out.extend_from_slice(&time.as_micros().to_be_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (KeyPair, KeyPair, StdRng) {
        let mut rng = StdRng::seed_from_u64(31);
        let a = KeyPair::generate(&mut rng);
        let b = KeyPair::generate(&mut rng);
        (a, b, rng)
    }

    #[test]
    fn issue_and_verify() {
        let (peer, _, mut rng) = setup();
        let stamp = FreshnessStamp::issue(&peer, Id::from_u64(7), SimTime::from_secs(5), &mut rng);
        assert!(stamp.verify(&peer.public()));
        assert_eq!(stamp.holder(), Id::from_u64(7));
        assert_eq!(stamp.time(), SimTime::from_secs(5));
    }

    #[test]
    fn wrong_signer_rejected() {
        let (peer, other, mut rng) = setup();
        let stamp = FreshnessStamp::issue(&peer, Id::from_u64(7), SimTime::from_secs(5), &mut rng);
        assert!(!stamp.verify(&other.public()));
    }

    #[test]
    fn replay_to_other_holder_rejected() {
        // An inflation attacker holding a stamp issued to a departed node
        // cannot present it as its own: the holder id is signed.
        let (peer, _, mut rng) = setup();
        let stamp = FreshnessStamp::issue(&peer, Id::from_u64(7), SimTime::from_secs(5), &mut rng);
        let stolen = FreshnessStamp { holder: Id::from_u64(8), ..stamp };
        assert!(!stolen.verify(&peer.public()));
    }

    #[test]
    fn staleness_window() {
        let (peer, _, mut rng) = setup();
        let stamp =
            FreshnessStamp::issue(&peer, Id::from_u64(1), SimTime::from_secs(100), &mut rng);
        let max = SimDuration::from_secs(120);
        assert!(stamp.is_fresh(SimTime::from_secs(100), max));
        assert!(stamp.is_fresh(SimTime::from_secs(220), max));
        assert!(!stamp.is_fresh(SimTime::from_secs(221), max));
        // Future-dated stamps are not fresh.
        assert!(!stamp.is_fresh(SimTime::from_secs(99), max));
    }

    #[test]
    fn backdated_time_field_breaks_signature() {
        let (peer, _, mut rng) = setup();
        let stamp =
            FreshnessStamp::issue(&peer, Id::from_u64(1), SimTime::from_secs(100), &mut rng);
        let forged = FreshnessStamp { time: SimTime::from_secs(9000), ..stamp };
        assert!(!forged.verify(&peer.public()));
    }
}
