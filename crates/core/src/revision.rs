//! Recursive stewardship and accusation revision (§3.5).
//!
//! A judge can only blame its immediate next hop, so an honest forwarder
//! whose *downstream* dropped the message would be blamed unfairly. §3.5's
//! remedy, as the statements [`steward`]'s rules cite:
//!
//! - **S1.** Every forwarder awaits the destination's ack; when none comes,
//!   a chain of verdicts forms (A blames B, B blames C, C blames D), each
//!   innocent node pushing its verdict upstream as an amendment.
//! - **S2.** A node proves it passed the message on with its next hop's
//!   forwarding commitment; without one, the loss lies on the path between.
//! - **S3.** Tomography showing that path down blames the network.
//! - **S4.** The chain stops at the culprit, whose own probes cannot clear
//!   it. The destination, once committed, owes the ack and can re-issue it.
//! - **S5.** A node that does not push its verdict upstream keeps the blame.
//!
//! The amended accusation carries every step's signed data, so it is
//! self-verifying end to end.

use std::fmt;

use serde::{Deserialize, Serialize};

use concilium_crypto::PublicKey;
use concilium_types::Id;

use crate::accusation::{Accusation, AccusationError};
use crate::config::ConciliumConfig;
use crate::retry::RetryPolicy;

/// An evidence window a defence reads, in the order [`steward`] asks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Window {
    /// The midpoint of the failed-retry span; the batch a revision cites.
    Midpoint,
    /// The send instant.
    Send,
    /// The expiry.
    Expiry,
}

/// Where [`steward`] leaves the blame for a dropped message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resting {
    /// No host keeps it.
    Dissolved,
    /// The host at this route position keeps it.
    Standing(usize),
}

/// What the `k`-th revision (route position `k + 1` against `k + 2`) cites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Amendment {
    /// The reviser's [`Window::Midpoint`] evidence about its next hop.
    Evidence,
    /// The destination's receive commitment alone.
    Commitment,
}

/// Decides where the blame for a dropped message comes to rest (§3.5).
///
/// `answers[p]`: the host at route position `p` answers revision requests
/// (it is up and forwards). `received_upto`: the last position holding the
/// message. `dest_reacks`: the destination can re-issue its ack.
/// `implicates(judge, accused, next, window)`: whether `judge`'s evidence
/// from `window` about the path `accused → next` blames `accused`, asked
/// lazily in route order. The rules, tagged with the module doc's
/// statements:
///
/// 1. The destination can re-ack: the drop was phantom; dissolve (S4).
/// 2. A blamed host X that does not answer keeps the blame (S5).
/// 3. X's next hop Y never received: the judge's evidence about X → Y
///    keeps the blame on X or dissolves the chain (S2, S3).
/// 4. X holds the destination's commitment: X's revision cites it alone,
///    and the blame moves on (S2, S4).
/// 5. X holds Y's commitment: if X's evidence about Y → Z implicates, X's
///    revision cites it and the blame moves to Y (S1); if not, dissolve (S3).
/// 6. Blame that reaches the destination rests there (S4).
/// 7. *Beyond the paper:* a defence implicates only if every [`Window`]
///    does, and the first that exonerates ends it. One Δ window straddling
///    an outage boundary, or serial outages on different links, would
///    otherwise leave residual blame on an honest forwarder.
///
/// Returns the resting place and, when blame stands, the amendments that
/// carry the chain from position 1 to it.
pub fn steward(
    received_upto: usize,
    answers: &[bool],
    dest_reacks: bool,
    mut implicates: impl FnMut(usize, usize, usize, Window) -> bool,
) -> (Resting, Vec<Amendment>) {
    let windows = [Window::Midpoint, Window::Send, Window::Expiry];
    let mut defends = |j, a, n| windows.into_iter().all(|w| implicates(j, a, n, w)); // rule 7
    let dissolved = || (Resting::Dissolved, Vec::new());
    if dest_reacks {
        return dissolved(); // rule 1
    }
    let last = answers.len().saturating_sub(1);
    let mut amendments = Vec::new();
    for (x, &answers_x) in answers.iter().enumerate().take(last).skip(1) {
        if !answers_x {
            return (Resting::Standing(x), amendments); // rule 2
        }
        if received_upto <= x {
            let stands = defends(0, x, x + 1); // rule 3
            return if stands { (Resting::Standing(x), amendments) } else { dissolved() };
        }
        if x + 1 == last {
            amendments.push(Amendment::Commitment); // rule 4
        } else if defends(x, x + 1, x + 2) {
            amendments.push(Amendment::Evidence); // rule 5
        } else {
            return dissolved();
        }
    }
    (Resting::Standing(last), amendments) // rule 6
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
            out.push(link.accuser().low_u64());
            out.push(ctx.accused.low_u64());
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
    use std::collections::{BTreeMap, BTreeSet, HashMap};

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

    /// §3.5 read literally, one evidence window per defence: blame starts
    /// on route position 1 and walks down to the first host that is silent
    /// (S5), is the destination (S4), holds no commitment from its next hop
    /// (S2), or whose evidence clears its next hop's onward path (S3).
    /// `midpoint(judge, accused)` is that one window's verdict.
    fn literal(
        received_upto: usize,
        answers: &[bool],
        dest_reacks: bool,
        midpoint: impl Fn(usize, usize) -> bool,
    ) -> (Resting, Vec<Amendment>) {
        let last = answers.len() - 1;
        if dest_reacks {
            return (Resting::Dissolved, vec![]); // S4: the ack is re-issued, nothing dropped
        }
        let stops = |k: usize| {
            !answers[k] || k == last || received_upto <= k || (k + 1 < last && !midpoint(k, k + 1))
        };
        let stop = (1..=last).find(|&k| stops(k)).expect("the destination ends every chain");
        // Silent (S5), the destination (S4), or no commitment from the next
        // hop while the path to it was up (S2, S3). Otherwise the network
        // was at fault (S3).
        let standing = !answers[stop] || stop == last || (received_upto <= stop && midpoint(0, stop));
        if !standing {
            return (Resting::Dissolved, vec![]);
        }
        // Each host above the culprit revised (S1), citing the
        // destination's commitment when that is whom it blamed (S2, S4).
        let chain = (1..stop)
            .map(|k| if k + 1 == last { Amendment::Commitment } else { Amendment::Evidence })
            .collect();
        (Resting::Standing(stop), chain)
    }

    /// Where `steward` departs from [`literal`], as (route length, the
    /// defence (judge, accused) at which `steward` dissolves the chain, the
    /// position the literal reading convicts, distinct cases). In every one
    /// that defence's midpoint window implicates and its send or expiry
    /// window exonerates: rule 7. DESIGN.md §10 prints the same rows.
    const DISAGREEMENTS: &[(usize, (usize, usize), usize, usize)] = &[
        (3, (0, 1), 1, 8),
        (4, (0, 1), 1, 16),
        (4, (0, 2), 2, 4),
        (4, (1, 2), 2, 12),
        (4, (1, 2), 3, 4),
        (5, (0, 1), 1, 32),
        (5, (0, 2), 2, 8),
        (5, (0, 3), 3, 4),
        (5, (1, 2), 2, 32),
        (5, (1, 2), 3, 12),
        (5, (1, 2), 4, 4),
        (5, (2, 3), 3, 12),
        (5, (2, 3), 4, 4),
    ];

    #[test]
    fn steward_matches_the_literal_reading_but_for_the_pinned_rows() {
        const WINDOWS: [Window; 3] = [Window::Midpoint, Window::Send, Window::Expiry];
        // A case is what the two readings observe, so defences neither
        // asks about do not multiply it.
        let mut found: BTreeMap<_, BTreeSet<Vec<usize>>> = BTreeMap::new();
        for n in 3..=5usize {
            let last = n - 1;
            // Every defence `steward` may ask for: a forwarder's of its next
            // hop (x, x + 1), and the judge's rebuttal evidence (0, x).
            let defences: Vec<(usize, usize)> =
                (1..last - 1).map(|x| (x, x + 1)).chain((1..last).map(|x| (0, x))).collect();
            let facts = (0..n).flat_map(|recv| {
                (0..1usize << last).flat_map(move |mask| [(recv, mask, false), (recv, mask, true)])
            });
            for (received_upto, mask, dest_reacks) in facts {
                let answers: Vec<bool> = (0..n).map(|p| p == 0 || mask >> (p - 1) & 1 == 1).collect();
                // Base-4 digit k: the index of the first window that
                // exonerates in defence k, 3 when none does.
                for code in 0..4usize.pow(defences.len() as u32) {
                    let digit = |d: (usize, usize)| {
                        let k = defences.iter().position(|&e| e == d).expect("a known defence");
                        code / 4usize.pow(k as u32) % 4
                    };
                    let mut asked = Vec::new();
                    let got = steward(received_upto, &answers, dest_reacks, |j, a, next, w| {
                        assert_eq!(next, a + 1, "a defence is about the accused's next hop");
                        asked.push((j, a, w));
                        WINDOWS.iter().position(|&v| v == w) < Some(digit((j, a)))
                    });
                    // Lazy: each defence once, windows in order up to
                    // the first that exonerates.
                    let mut lazy: Vec<(usize, usize, Window)> = Vec::new();
                    for &(j, a, _) in &asked {
                        if !lazy.iter().any(|&(lj, la, _)| (lj, la) == (j, a)) {
                            let upto = digit((j, a)).min(2);
                            lazy.extend(WINDOWS[..=upto].iter().map(|&w| (j, a, w)));
                        }
                    }
                    assert_eq!(asked, lazy);
                    let read = std::cell::RefCell::new(BTreeSet::new());
                    let want = literal(received_upto, &answers, dest_reacks, |j, a| {
                        read.borrow_mut().insert((j, a));
                        digit((j, a)) > 0
                    });
                    if got == want {
                        continue;
                    }
                    // The one departure allowed: rule 7 dissolves at a
                    // defence whose midpoint window implicates.
                    let case = format!("n={n} recv={received_upto} answers={answers:?} code={code}");
                    let (Resting::Standing(pos), Some(&(j, a, w))) = (want.0, asked.last()) else {
                        panic!("{case}: steward {got:?}, literal {want:?}");
                    };
                    assert!(got == (Resting::Dissolved, vec![]) && w != Window::Midpoint, "{case}");
                    // What the readings observed: the first exonerating
                    // window where `steward` asked, the midpoint where only
                    // `literal` read.
                    let seen: Vec<usize> = defences
                        .iter()
                        .map(|&d| {
                            if asked.iter().any(|&(j, a, _)| (j, a) == d) {
                                digit(d)
                            } else if read.borrow().contains(&d) {
                                4 + usize::from(digit(d) > 0)
                            } else {
                                6
                            }
                        })
                        .chain([received_upto, mask])
                        .collect();
                    found.entry((n, (j, a), pos)).or_default().insert(seen);
                }
            }
        }
        let found: Vec<_> =
            found.into_iter().map(|((n, d, pos), cases)| (n, d, pos, cases.len())).collect();
        assert_eq!(found, DISAGREEMENTS);
    }
}
