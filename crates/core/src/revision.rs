//! Recursive stewardship and accusation revision (§3.5).
//!
//! A judge can only ascribe blame to its immediate next hop, so an honest
//! forwarder whose *downstream* dropped the message would be blamed
//! unfairly. Under recursive stewardship every forwarder awaits the
//! destination's acknowledgment; when it never arrives, a *chain* of
//! guilty verdicts forms along the route: A blames B, B blames C, C blames
//! D. The chain stops at the true culprit D, because D's peers have not
//! probed any links as down and D cannot fabricate such probes (its own
//! probes are inadmissible against it). Each innocent node pushes its
//! verdict upstream; upstream nodes verify it and amend their accusations.
//! The amended accusation carries the signed data of every step, making it
//! self-verifying end to end.

use std::fmt;

use serde::{Deserialize, Serialize};

use concilium_crypto::PublicKey;
use concilium_types::Id;

use crate::accusation::{Accusation, AccusationError};
use crate::config::ConciliumConfig;
use crate::retry::RetryPolicy;

/// Projects an identifier onto the low 8 bytes of its ring position —
/// the word [`AccusationChain::encode_to`] journals per participant.
/// (Identifiers built with [`Id::from_u64`] round-trip exactly.)
fn id_word(id: Id) -> u64 {
    let bytes = id.as_bytes();
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[bytes.len() - 8..]);
    u64::from_be_bytes(word)
}

/// How a retried steward handoff ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandoffOutcome {
    /// The blamed node's revision arrived and was appended.
    Amended {
        /// Fetch attempts used.
        attempts: u32,
    },
    /// Every fetch attempt went unanswered: the blamed node withheld its
    /// revision, the chain stands, and — per §3.5 — the withholder keeps
    /// the blame. Silence is self-punishing, so exhausting the retries is
    /// a legitimate terminal state, not an error.
    Withheld {
        /// Fetch attempts used.
        attempts: u32,
    },
}

/// An amended accusation: the original plus the revisions pushed upstream,
/// ordered from the original judge's verdict down to the verdict against
/// the true culprit.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct AccusationChain {
    links: Vec<Accusation>,
}

impl AccusationChain {
    /// Starts a chain from the original accusation.
    pub fn new(original: Accusation) -> Self {
        AccusationChain { links: vec![original] }
    }

    /// Appends a downstream revision: the last accused node's own verdict
    /// against *its* next hop.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::BrokenLinkage`] if the revision's accuser is
    /// not the currently blamed node, or [`ChainError::ContextMismatch`]
    /// if it concerns a different message or destination.
    pub fn amend(&mut self, revision: Accusation) -> Result<(), ChainError> {
        #[expect(clippy::expect_used, reason = "constructor seeds links with one entry and nothing removes")]
        let last = self.links.last().expect("chains are never empty");
        if revision.accuser() != last.accused() {
            return Err(ChainError::BrokenLinkage {
                expected_accuser: last.accused(),
                found: revision.accuser(),
            });
        }
        if revision.context().msg != last.context().msg
            || revision.context().dest != last.context().dest
        {
            return Err(ChainError::ContextMismatch { at: self.links.len() });
        }
        self.links.push(revision);
        Ok(())
    }

    /// The node currently held responsible: the last link's accused.
    #[expect(clippy::expect_used, reason = "constructor seeds links with one entry and nothing removes")]
    pub fn culprit(&self) -> Id {
        self.links.last().expect("chains are never empty").accused()
    }

    /// The original judge who started the chain.
    pub fn original_accuser(&self) -> Id {
        self.links[0].accuser()
    }

    /// The accusations, original first.
    pub fn links(&self) -> &[Accusation] {
        &self.links
    }

    /// Number of links in the chain.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Chains always hold at least the original accusation.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Appends the chain's canonical encoding to `out`: length, then per
    /// link the accuser, accused, message id, and drop time. The
    /// journalable state hook service-mode checkpointing uses — two
    /// chains encode identically iff they tell the same blame story,
    /// signatures aside (those are re-verified on load, not re-hashed).
    pub fn encode_to(&self, out: &mut Vec<u64>) {
        out.push(self.links.len() as u64);
        for link in &self.links {
            let ctx = link.context();
            out.push(id_word(link.accuser()));
            out.push(id_word(ctx.accused));
            out.push(ctx.msg.0);
            out.push(ctx.at.as_micros());
        }
    }

    /// Retried steward handoff: asks the currently blamed node for its
    /// own revision, retrying unanswered requests on `policy`'s backoff
    /// schedule. `fetch` is called as `fetch(blamed, attempt)` (attempt
    /// one-based) and returns the revision if it arrived; the
    /// fault-injection harness models transport loss and withholders
    /// here. A revision that arrives is validated by
    /// [`AccusationChain::amend`] before it counts.
    ///
    /// # Errors
    ///
    /// Returns a [`ChainError`] only when an *arrived* revision fails the
    /// linkage checks — never for silence, which resolves to
    /// [`HandoffOutcome::Withheld`].
    pub fn amend_with_retry<R, F>(
        &mut self,
        policy: &RetryPolicy,
        mut fetch: F,
        rng: &mut R,
    ) -> Result<HandoffOutcome, ChainError>
    where
        R: rand::Rng + ?Sized,
        F: FnMut(Id, u32) -> Option<Accusation>,
    {
        let blamed = self.culprit();
        match policy.run(rng, |attempt| fetch(blamed, attempt).ok_or(())) {
            Ok((revision, attempts)) => {
                self.amend(revision)?;
                Ok(HandoffOutcome::Amended { attempts })
            }
            Err(err) => Ok(HandoffOutcome::Withheld { attempts: err.attempts }),
        }
    }

    /// Fully verifies the chain as a third party: every link verifies
    /// individually (commitments, signatures, reproducible blame) and the
    /// linkage invariants hold.
    ///
    /// # Errors
    ///
    /// Returns the first problem found.
    pub fn verify(
        &self,
        key_of: &dyn Fn(Id) -> Option<PublicKey>,
        config: &ConciliumConfig,
    ) -> Result<(), ChainError> {
        let _span = concilium_obs::span("chain.verify");
        for (i, link) in self.links.iter().enumerate() {
            link.verify(key_of, config)
                .map_err(|err| ChainError::LinkInvalid { at: i, err })?;
            if i > 0 {
                let prev = &self.links[i - 1];
                if link.accuser() != prev.accused() {
                    return Err(ChainError::BrokenLinkage {
                        expected_accuser: prev.accused(),
                        found: link.accuser(),
                    });
                }
                if link.context().msg != prev.context().msg
                    || link.context().dest != prev.context().dest
                {
                    return Err(ChainError::ContextMismatch { at: i });
                }
            }
        }
        Ok(())
    }
}

/// Why a chain (or an amendment) is invalid.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ChainError {
    /// A revision's accuser is not the currently blamed node.
    BrokenLinkage {
        /// Who should have issued the revision.
        expected_accuser: Id,
        /// Who actually did.
        found: Id,
    },
    /// A revision concerns a different message or destination.
    ContextMismatch {
        /// Index of the offending link.
        at: usize,
    },
    /// A link fails individual verification.
    LinkInvalid {
        /// Index of the offending link.
        at: usize,
        /// The underlying error.
        err: AccusationError,
    },
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::BrokenLinkage { expected_accuser, found } => write!(
                f,
                "revision must come from {expected_accuser}, came from {found}"
            ),
            ChainError::ContextMismatch { at } => {
                write!(f, "link {at} concerns a different message")
            }
            ChainError::LinkInvalid { at, err } => write!(f, "link {at} is invalid: {err}"),
        }
    }
}

impl std::error::Error for ChainError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accusation::DropContext;
    use crate::commitment::ForwardingCommitment;
    use concilium_crypto::KeyPair;
    use concilium_types::{MsgId, SimTime};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    /// Builds the §3.5 scenario: route A → B → C → D → Z with all IP
    /// links good, D drops the message.
    struct Scenario {
        rng: StdRng,
        keys: HashMap<Id, KeyPair>,
        config: ConciliumConfig,
    }

    const A: u64 = 1;
    const B: u64 = 2;
    const C: u64 = 3;
    const D: u64 = 4;
    const Z: u64 = 9;

    impl Scenario {
        fn new() -> Self {
            let mut rng = StdRng::seed_from_u64(81);
            let mut keys = HashMap::new();
            for i in [A, B, C, D, Z] {
                keys.insert(Id::from_u64(i), KeyPair::generate(&mut rng));
            }
            Scenario { rng, keys, config: ConciliumConfig::default() }
        }

        fn key_of(&self) -> impl Fn(Id) -> Option<PublicKey> + '_ {
            |id| self.keys.get(&id).map(|k| k.public())
        }

        /// `accuser` blames `accused` (whose next hop is `next`) with no
        /// down-probed links — the "path was good" case that yields full
        /// blame. Each link carries the accused's forwarding commitment.
        fn accuse(&mut self, accuser: u64, accused: u64, next: u64) -> Accusation {
            let ctx = DropContext {
                msg: MsgId(42),
                accuser: Id::from_u64(accuser),
                accused: Id::from_u64(accused),
                next_hop: Id::from_u64(next),
                dest: Id::from_u64(Z),
                at: SimTime::from_secs(100),
            };
            let commitment = ForwardingCommitment::issue(
                ctx.msg,
                ctx.accuser,
                ctx.accused,
                ctx.dest,
                SimTime::from_secs(99),
                &self.keys[&ctx.accused].clone(),
                &mut self.rng,
            );
            let accuser_keys = self.keys[&ctx.accuser].clone();
            Accusation::build(
                ctx,
                commitment,
                vec![],
                vec![],
                &self.config,
                &accuser_keys,
                &mut self.rng,
            )
        }
    }

    #[test]
    fn blame_migrates_to_the_culprit() {
        let mut s = Scenario::new();
        let mut chain = AccusationChain::new(s.accuse(A, B, C));
        assert_eq!(chain.culprit(), Id::from_u64(B));
        chain.amend(s.accuse(B, C, D)).unwrap();
        assert_eq!(chain.culprit(), Id::from_u64(C));
        chain.amend(s.accuse(C, D, Z)).unwrap();
        // Blame lands on D, the true culprit.
        assert_eq!(chain.culprit(), Id::from_u64(D));
        assert_eq!(chain.original_accuser(), Id::from_u64(A));
        assert_eq!(chain.len(), 3);
        // The whole amended accusation is self-verifying.
        assert_eq!(chain.verify(&s.key_of(), &s.config), Ok(()));
    }

    #[test]
    fn out_of_order_revision_rejected() {
        let mut s = Scenario::new();
        let mut chain = AccusationChain::new(s.accuse(A, B, C));
        // C's verdict cannot amend a chain currently blaming B.
        let bad = s.accuse(C, D, Z);
        assert!(matches!(
            chain.amend(bad),
            Err(ChainError::BrokenLinkage { .. })
        ));
    }

    #[test]
    fn cross_message_revision_rejected() {
        let mut s = Scenario::new();
        let mut chain = AccusationChain::new(s.accuse(A, B, C));
        // B's verdict about a different message cannot exonerate it here.
        let mut other = s.accuse(B, C, D);
        // Rebuild with a different msg id.
        let ctx = DropContext { msg: MsgId(7), ..*other.context() };
        let commitment = ForwardingCommitment::issue(
            ctx.msg,
            ctx.accuser,
            ctx.accused,
            ctx.dest,
            SimTime::from_secs(99),
            &s.keys[&ctx.accused].clone(),
            &mut s.rng,
        );
        let keys = s.keys[&ctx.accuser].clone();
        other = Accusation::build(
            ctx,
            commitment,
            vec![],
            vec![],
            &s.config,
            &keys,
            &mut s.rng,
        );
        assert_eq!(
            chain.amend(other),
            Err(ChainError::ContextMismatch { at: 1 })
        );
    }

    #[test]
    fn chain_verification_catches_bad_links() {
        let mut s = Scenario::new();
        let mut chain = AccusationChain::new(s.accuse(A, B, C));
        chain.amend(s.accuse(B, C, D)).unwrap();
        // Remove C's key: the chain can no longer be verified.
        let partial_keys: HashMap<Id, PublicKey> = s
            .keys
            .iter()
            .filter(|(id, _)| **id != Id::from_u64(C))
            .map(|(id, k)| (*id, k.public()))
            .collect();
        let lookup = |id: Id| partial_keys.get(&id).copied();
        assert!(matches!(
            chain.verify(&lookup, &s.config),
            Err(ChainError::LinkInvalid { .. })
        ));
    }

    #[test]
    fn handoff_retry_recovers_a_lost_revision() {
        let mut s = Scenario::new();
        let mut chain = AccusationChain::new(s.accuse(A, B, C));
        let revision = s.accuse(B, C, D);
        // The first two handoff requests are lost in transit.
        let mut requests = 0u32;
        let out = chain
            .amend_with_retry(
                &RetryPolicy::default(),
                |blamed, attempt| {
                    assert_eq!(blamed, Id::from_u64(B));
                    requests += 1;
                    (attempt >= 3).then(|| revision.clone())
                },
                &mut s.rng,
            )
            .unwrap();
        assert_eq!(out, HandoffOutcome::Amended { attempts: 3 });
        assert_eq!(requests, 3);
        assert_eq!(chain.culprit(), Id::from_u64(C), "blame migrated");
    }

    #[test]
    fn handoff_silence_leaves_the_withholder_blamed() {
        let mut s = Scenario::new();
        let mut chain = AccusationChain::new(s.accuse(A, B, C));
        let out = chain
            .amend_with_retry(&RetryPolicy::default(), |_, _| None, &mut s.rng)
            .unwrap();
        assert_eq!(out, HandoffOutcome::Withheld { attempts: 4 });
        assert_eq!(chain.culprit(), Id::from_u64(B), "silence is self-punishing");
    }

    #[test]
    fn handoff_rejects_an_arrived_but_invalid_revision() {
        let mut s = Scenario::new();
        let mut chain = AccusationChain::new(s.accuse(A, B, C));
        // C answers in B's stead: linkage is broken even though the
        // transport succeeded.
        let bogus = s.accuse(C, D, Z);
        let err = chain
            .amend_with_retry(&RetryPolicy::default(), |_, _| Some(bogus.clone()), &mut s.rng)
            .unwrap_err();
        assert!(matches!(err, ChainError::BrokenLinkage { .. }));
        assert_eq!(chain.culprit(), Id::from_u64(B), "the chain is untouched");
    }

    #[test]
    fn faulty_node_withholding_revision_stays_blamed() {
        // §3.5: if C does not push its verdict against D upstream, the
        // chain ends at C and C keeps the blame — refusing to revise is
        // self-punishing.
        let mut s = Scenario::new();
        let mut chain = AccusationChain::new(s.accuse(A, B, C));
        chain.amend(s.accuse(B, C, D)).unwrap();
        // No revision from C arrives.
        assert_eq!(chain.culprit(), Id::from_u64(C));
        assert_eq!(chain.verify(&s.key_of(), &s.config), Ok(()));
    }

    #[test]
    fn encode_to_captures_the_blame_story() {
        let mut s = Scenario::new();
        let mut chain = AccusationChain::new(s.accuse(A, B, C));
        let mut one = Vec::new();
        chain.encode_to(&mut one);
        assert_eq!(one, vec![1, A, B, 42, 100_000_000]);

        chain.amend(s.accuse(B, C, D)).unwrap();
        let mut two = Vec::new();
        chain.encode_to(&mut two);
        assert_eq!(two, vec![2, A, B, 42, 100_000_000, B, C, 42, 100_000_000]);
        assert_ne!(one, two, "amending must change the encoding");
    }
}
