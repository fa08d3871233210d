//! Forwarding commitments (§3.6).
//!
//! Without commitments, A could accuse B of dropping a message A never
//! sent: other nodes would verify A's (genuine) tomographic data, derive
//! the same high blame, and convict an innocent B. A forwarding
//! commitment is B's signed statement that it agreed to forward a
//! specific message — B "can only be blamed for dropping messages that it
//! agreed to forward". Commitments are batchable and piggybacked on
//! availability-probe responses.

use serde::{Deserialize, Serialize};

use concilium_crypto::{KeyPair, PublicKey, Signable, Signature};
use concilium_types::{Id, MsgId, SimTime};

/// B's signed agreement to forward message `msg` from `src` toward `dest`.
///
/// # Examples
///
/// ```
/// use concilium::ForwardingCommitment;
/// use concilium_crypto::KeyPair;
/// use concilium_types::{Id, MsgId, SimTime};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(6);
/// let b_keys = KeyPair::generate(&mut rng);
/// let commitment = ForwardingCommitment::issue(
///     MsgId(7),
///     Id::from_u64(1),          // A
///     Id::from_u64(2),          // B (the forwarder)
///     Id::from_u64(9),          // Z (final destination)
///     SimTime::from_secs(100),
///     &b_keys,
///     &mut rng,
/// );
/// // A judge checks it against B's key inside `Accusation::verify`.
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ForwardingCommitment {
    msg: MsgId,
    src: Id,
    forwarder: Id,
    dest: Id,
    time: SimTime,
    sig: Signature,
}

impl ForwardingCommitment {
    /// The forwarder signs its willingness to forward.
    pub fn issue<R: rand::Rng + ?Sized>(
        msg: MsgId,
        src: Id,
        forwarder: Id,
        dest: Id,
        time: SimTime,
        forwarder_keys: &KeyPair,
        rng: &mut R,
    ) -> Self {
        let mut c =
            ForwardingCommitment { msg, src, forwarder, dest, time, sig: Signature::dummy() };
        c.sig = forwarder_keys.sign(&c.to_signable_vec(), rng);
        c
    }

    /// The committed message.
    pub(crate) fn msg(&self) -> MsgId {
        self.msg
    }

    /// The message's sender (the upstream peer).
    pub(crate) fn src(&self) -> Id {
        self.src
    }

    /// The committing forwarder.
    pub(crate) fn forwarder(&self) -> Id {
        self.forwarder
    }

    /// The message's final destination.
    pub(crate) fn dest(&self) -> Id {
        self.dest
    }

    /// Verifies the forwarder's signature.
    ///
    /// Commitments are re-checked by the judge and every consulted peer, so
    /// this goes through the thread-local verification memo; the outcome is
    /// identical to an uncached [`PublicKey::verify`].
    pub(crate) fn verify(&self, forwarder_key: &PublicKey) -> bool {
        concilium_crypto::verify_cached(forwarder_key, &self.to_signable_vec(), &self.sig)
    }
}

impl Signable for ForwardingCommitment {
    fn signable_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"commit");
        out.extend_from_slice(&self.msg.0.to_be_bytes());
        out.extend_from_slice(self.src.as_bytes());
        out.extend_from_slice(self.forwarder.as_bytes());
        out.extend_from_slice(self.dest.as_bytes());
        out.extend_from_slice(&self.time.as_micros().to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn commitment(keys: &KeyPair, rng: &mut StdRng) -> ForwardingCommitment {
        ForwardingCommitment::issue(
            MsgId(1),
            Id::from_u64(10),
            Id::from_u64(20),
            Id::from_u64(30),
            SimTime::from_secs(5),
            keys,
            rng,
        )
    }

    #[test]
    fn issue_and_verify() {
        let mut rng = StdRng::seed_from_u64(61);
        let keys = KeyPair::generate(&mut rng);
        let c = commitment(&keys, &mut rng);
        assert!(c.verify(&keys.public()));
        assert_eq!(c.msg(), MsgId(1));
        assert_eq!(c.forwarder(), Id::from_u64(20));
    }

    #[test]
    fn retargeting_is_detected() {
        // A cannot reuse B's commitment for a different message or route.
        let mut rng = StdRng::seed_from_u64(62);
        let keys = KeyPair::generate(&mut rng);
        let c = commitment(&keys, &mut rng);
        let other_msg = ForwardingCommitment { msg: MsgId(2), ..c };
        assert!(!other_msg.verify(&keys.public()));
        let other_dest = ForwardingCommitment { dest: Id::from_u64(31), ..c };
        assert!(!other_dest.verify(&keys.public()));
        let other_src = ForwardingCommitment { src: Id::from_u64(11), ..c };
        assert!(!other_src.verify(&keys.public()));
    }

    #[test]
    fn commitment_from_wrong_signer_rejected() {
        // A cannot forge a commitment on B's behalf.
        let mut rng = StdRng::seed_from_u64(63);
        let a_keys = KeyPair::generate(&mut rng);
        let b_keys = KeyPair::generate(&mut rng);
        let forged = commitment(&a_keys, &mut rng);
        // Claimed forwarder is 20, whose real key is b_keys.
        assert!(!forged.verify(&b_keys.public()));
    }
}
