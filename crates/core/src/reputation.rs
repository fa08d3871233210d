//! A minimal decentralized reputation ledger (§3.6).
//!
//! When a malicious forwarder refuses to issue forwarding commitments,
//! Concilium cannot adjudicate — there is no signed evidence either way.
//! The paper's answer is an external reputation system (it cites
//! Credence): the sender casts a vote of no confidence, and honest hosts
//! eventually learn to avoid the peer. This module is the smallest ledger
//! that exercises that code path; it is *not* a reproduction of Credence.

use std::fmt;

use serde::{Deserialize, Serialize};

use concilium_crypto::{KeyPair, PublicKey, Signable, Signature};
use concilium_types::{Id, SimTime};

/// A signed confidence vote about a peer.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Vote {
    voter: Id,
    subject: Id,
    confident: bool,
    time: SimTime,
    sig: Signature,
}

impl Vote {
    /// Casts a signed vote.
    pub fn cast<R: rand::Rng + ?Sized>(
        voter: Id,
        subject: Id,
        confident: bool,
        time: SimTime,
        voter_keys: &KeyPair,
        rng: &mut R,
    ) -> Self {
        let mut v = Vote { voter, subject, confident, time, sig: Signature::dummy() };
        v.sig = voter_keys.sign(&v.to_signable_vec(), rng);
        v
    }

    /// Verifies the voter's signature.
    pub(crate) fn verify(&self, voter_key: &PublicKey) -> bool {
        voter_key.verify(&self.to_signable_vec(), &self.sig)
    }
}

impl Signable for Vote {
    fn signable_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"vote");
        out.extend_from_slice(self.voter.as_bytes());
        out.extend_from_slice(self.subject.as_bytes());
        out.push(self.confident as u8);
        out.extend_from_slice(&self.time.as_micros().to_be_bytes());
    }
}

/// A tally of verified votes about one subject.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Tally {
    /// Confidence votes.
    pub confident: usize,
    /// No-confidence votes.
    pub no_confidence: usize,
}

impl Tally {
    /// Total verified votes.
    pub(crate) fn total(&self) -> usize {
        self.confident + self.no_confidence
    }
}

/// A host's local ledger of received votes.
///
/// One vote per (voter, subject) is retained — a newer vote replaces an
/// older one, so hosts can change their minds.
#[derive(Clone, Debug, Default)]
pub struct ReputationLedger {
    votes: Vec<Vote>,
}

impl ReputationLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        ReputationLedger::default()
    }

    /// Records a vote after verifying its signature.
    ///
    /// # Errors
    ///
    /// Returns [`VoteError::BadSignature`] on signature failure.
    pub fn record(&mut self, vote: Vote, voter_key: &PublicKey) -> Result<(), VoteError> {
        if !vote.verify(voter_key) {
            return Err(VoteError::BadSignature);
        }
        if let Some(existing) = self
            .votes
            .iter_mut()
            .find(|v| v.voter == vote.voter && v.subject == vote.subject)
        {
            if vote.time >= existing.time {
                *existing = vote;
            }
        } else {
            self.votes.push(vote);
        }
        Ok(())
    }

    /// Tallies votes about `subject`.
    pub fn tally(&self, subject: Id) -> Tally {
        let mut t = Tally::default();
        for v in self.votes.iter().filter(|v| v.subject == subject) {
            if v.confident {
                t.confident += 1;
            } else {
                t.no_confidence += 1;
            }
        }
        t
    }

    /// Policy: a subject is distrusted once at least `min_votes` exist and
    /// the no-confidence fraction reaches `threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not in `(0, 1]`.
    pub fn distrusted(&self, subject: Id, min_votes: usize, threshold: f64) -> bool {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "threshold must be in (0,1], got {threshold}"
        );
        let t = self.tally(subject);
        t.total() >= min_votes
            && (t.no_confidence as f64) >= threshold * t.total() as f64
    }
}

/// Vote processing errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VoteError {
    /// The vote's signature does not verify.
    BadSignature,
}

impl fmt::Display for VoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VoteError::BadSignature => f.write_str("vote signature is invalid"),
        }
    }
}

impl std::error::Error for VoteError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Vec<KeyPair>, StdRng) {
        let mut rng = StdRng::seed_from_u64(121);
        let keys = (0..5).map(|_| KeyPair::generate(&mut rng)).collect();
        (keys, rng)
    }

    #[test]
    fn votes_accumulate_and_tally() {
        let (keys, mut rng) = setup();
        let subject = Id::from_u64(9);
        let mut ledger = ReputationLedger::new();
        for (i, k) in keys.iter().enumerate() {
            let v = Vote::cast(
                Id::from_u64(i as u64),
                subject,
                i % 2 == 0,
                SimTime::from_secs(1),
                k,
                &mut rng,
            );
            ledger.record(v, &k.public()).unwrap();
        }
        let t = ledger.tally(subject);
        assert_eq!(t.confident, 3);
        assert_eq!(t.no_confidence, 2);
        assert!(!ledger.distrusted(subject, 3, 0.5));
    }

    #[test]
    fn distrust_threshold() {
        let (keys, mut rng) = setup();
        let subject = Id::from_u64(9);
        let mut ledger = ReputationLedger::new();
        for (i, k) in keys.iter().enumerate().take(4) {
            let v = Vote::cast(
                Id::from_u64(i as u64),
                subject,
                false,
                SimTime::from_secs(1),
                k,
                &mut rng,
            );
            ledger.record(v, &k.public()).unwrap();
        }
        assert!(ledger.distrusted(subject, 3, 0.75));
        assert!(!ledger.distrusted(subject, 5, 0.75), "too few votes");
    }

    #[test]
    fn newer_vote_replaces_older() {
        let (keys, mut rng) = setup();
        let subject = Id::from_u64(9);
        let voter = Id::from_u64(0);
        let mut ledger = ReputationLedger::new();
        let v1 = Vote::cast(voter, subject, false, SimTime::from_secs(1), &keys[0], &mut rng);
        let v2 = Vote::cast(voter, subject, true, SimTime::from_secs(2), &keys[0], &mut rng);
        ledger.record(v1, &keys[0].public()).unwrap();
        ledger.record(v2, &keys[0].public()).unwrap();
        assert_eq!(ledger.votes.len(), 1);
        assert_eq!(ledger.tally(subject).confident, 1);
        // Stale votes do not roll back newer ones.
        let v0 = Vote::cast(voter, subject, false, SimTime::from_secs(0), &keys[0], &mut rng);
        ledger.record(v0, &keys[0].public()).unwrap();
        assert_eq!(ledger.tally(subject).confident, 1);
    }

    #[test]
    fn forged_vote_rejected() {
        let (keys, mut rng) = setup();
        let mut ledger = ReputationLedger::new();
        // Vote claims voter 0 but is signed by key 1.
        let forged =
            Vote::cast(Id::from_u64(0), Id::from_u64(9), false, SimTime::from_secs(1), &keys[1], &mut rng);
        assert_eq!(
            ledger.record(forged, &keys[0].public()),
            Err(VoteError::BadSignature)
        );
        assert!(ledger.votes.is_empty());
    }
}
