//! Self-verifying formal fault accusations (§3.4).
//!
//! When a peer accumulates enough guilty verdicts, the judge inserts a
//! formal accusation into the DHT, keyed by the accused host's public
//! key. The accusation carries *everything a third party needs to verify
//! it independently*: the drop context, the accused's forwarding
//! commitment, the advertised B→C link map, and the signed tomographic
//! snapshots the blame was derived from. Verifiers recompute the blame
//! from the quoted evidence and check it crosses the guilty threshold.

use std::fmt;

use serde::{Deserialize, Serialize};

use concilium_crypto::{KeyPair, PublicKey, Signable, Signature};
use concilium_tomography::TomographySnapshot;
use concilium_types::{Id, LinkId, MsgId, SimTime};

use crate::blame::{blame_from_path_evidence, LinkEvidence};
use crate::commitment::ForwardingCommitment;
use crate::config::ConciliumConfig;

/// The identifying facts of one judged message drop.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct DropContext {
    /// The dropped message.
    pub msg: MsgId,
    /// The judge issuing the accusation (A).
    pub accuser: Id,
    /// The accused forwarder (B).
    pub accused: Id,
    /// The hop B should have forwarded to (C), read from B's advertised
    /// routing state.
    pub next_hop: Id,
    /// The message's final destination (Z).
    pub dest: Id,
    /// When the drop was detected.
    pub at: SimTime,
}

/// A formal, self-verifying fault accusation.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Accusation {
    context: DropContext,
    commitment: ForwardingCommitment,
    /// The link map of the B→C path, from B's advertised routing state.
    path_links: Vec<LinkId>,
    /// The signed snapshots whose observations the blame was derived from.
    evidence: Vec<TomographySnapshot>,
    /// The blame the accuser derived (must be reproducible from the
    /// evidence).
    blame: f64,
    sig: Signature,
}

impl Accusation {
    /// Assembles and signs an accusation.
    ///
    /// The blame is *computed here* from the supplied evidence so that the
    /// structure is self-verifying by construction; dishonest accusers
    /// that quote doctored evidence are caught by signature checks, and
    /// ones that quote real evidence cannot inflate the number: each
    /// snapshot counts once, since [`Accusation::verify`] refuses a quote
    /// of the same snapshot twice.
    pub fn build<R: rand::Rng + ?Sized>(
        context: DropContext,
        commitment: ForwardingCommitment,
        path_links: Vec<LinkId>,
        evidence: Vec<TomographySnapshot>,
        config: &ConciliumConfig,
        accuser_keys: &KeyPair,
        rng: &mut R,
    ) -> Self {
        let blame = recompute_blame(&path_links, &evidence, context.accused, config);
        let mut a = Accusation {
            context,
            commitment,
            path_links,
            evidence,
            blame,
            sig: Signature::dummy(),
        };
        a.sig = accuser_keys.sign(&a.to_signable_vec(), rng);
        a
    }

    /// The drop context.
    pub fn context(&self) -> &DropContext {
        &self.context
    }

    /// The accused host.
    pub fn accused(&self) -> Id {
        self.context.accused
    }

    /// The accusing host.
    pub fn accuser(&self) -> Id {
        self.context.accuser
    }

    /// The blame value derived from the quoted evidence.
    pub fn blame(&self) -> f64 {
        self.blame
    }

    /// Independently verifies the accusation, as any third party would
    /// before trusting it. `key_of` resolves overlay identifiers to
    /// certified public keys (from certificates).
    ///
    /// # Errors
    ///
    /// Returns the first [`AccusationError`] found.
    pub fn verify(
        &self,
        key_of: &dyn Fn(Id) -> Option<PublicKey>,
        config: &ConciliumConfig,
    ) -> Result<(), AccusationError> {
        // 1. The commitment must bind the accused to this exact message.
        let accused_key =
            key_of(self.context.accused).ok_or(AccusationError::UnknownHost(self.context.accused))?;
        if !self.commitment.verify(&accused_key) {
            return Err(AccusationError::BadCommitment);
        }
        if self.commitment.msg() != self.context.msg
            || self.commitment.forwarder() != self.context.accused
            || self.commitment.src() != self.context.accuser
            || self.commitment.dest() != self.context.dest
        {
            return Err(AccusationError::CommitmentMismatch);
        }

        // 2. Every quoted snapshot must be authentic, timely, quoted once,
        //    and not originate from the accused (whose probes are
        //    inadmissible). A repeat would count as another probe in Eq. 3.
        for (i, snap) in self.evidence.iter().enumerate() {
            if self.evidence[..i].contains(snap) {
                return Err(AccusationError::DuplicateEvidence(snap.origin()));
            }
            if snap.origin() == self.context.accused {
                return Err(AccusationError::EvidenceFromAccused);
            }
            let okey =
                key_of(snap.origin()).ok_or(AccusationError::UnknownHost(snap.origin()))?;
            if !snap.verify(&okey) {
                return Err(AccusationError::BadSnapshotSignature(snap.origin()));
            }
            if snap.time().abs_diff(self.context.at) > config.delta {
                return Err(AccusationError::EvidenceOutsideWindow(snap.origin()));
            }
        }

        // 3. The blame must be reproducible and above threshold.
        let recomputed =
            recompute_blame(&self.path_links, &self.evidence, self.context.accused, config);
        if (recomputed - self.blame).abs() > 1e-9 {
            return Err(AccusationError::BlameMismatch {
                claimed: self.blame,
                recomputed,
            });
        }
        if self.blame < config.blame_threshold {
            return Err(AccusationError::BelowThreshold(self.blame));
        }

        // 4. The accuser's signature covers everything above.
        let akey =
            key_of(self.context.accuser).ok_or(AccusationError::UnknownHost(self.context.accuser))?;
        if !concilium_crypto::verify_cached(&akey, &self.to_signable_vec(), &self.sig) {
            return Err(AccusationError::BadAccuserSignature);
        }
        Ok(())
    }
}

/// Eq. 2 blame from quoted snapshots over the path's link map, ignoring
/// the accused's own: the judge's verdict and the verifier's check are
/// this one fold.
pub(crate) fn recompute_blame(
    path_links: &[LinkId],
    evidence: &[TomographySnapshot],
    accused: Id,
    config: &ConciliumConfig,
) -> f64 {
    let per_link: Vec<LinkEvidence> = path_links
        .iter()
        .map(|&link| LinkEvidence {
            link,
            observations: evidence
                .iter()
                .filter(|s| s.origin() != accused)
                .filter_map(|s| s.observation_for(link))
                .map(|o| o.is_up())
                .collect(),
        })
        .collect();
    blame_from_path_evidence(&per_link, config.probe_accuracy)
}

impl Signable for Accusation {
    fn signable_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"accuse");
        out.extend_from_slice(&self.context.msg.0.to_be_bytes());
        out.extend_from_slice(self.context.accuser.as_bytes());
        out.extend_from_slice(self.context.accused.as_bytes());
        out.extend_from_slice(self.context.next_hop.as_bytes());
        out.extend_from_slice(self.context.dest.as_bytes());
        out.extend_from_slice(&self.context.at.as_micros().to_be_bytes());
        self.commitment.signable_bytes(out);
        out.extend_from_slice(&(self.path_links.len() as u64).to_be_bytes());
        for l in &self.path_links {
            out.extend_from_slice(&l.0.to_be_bytes());
        }
        out.extend_from_slice(&(self.evidence.len() as u64).to_be_bytes());
        for s in &self.evidence {
            s.signable_bytes(out);
        }
        out.extend_from_slice(&self.blame.to_be_bytes());
    }
}

/// Why an accusation failed third-party verification.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum AccusationError {
    /// A referenced host has no known certificate.
    UnknownHost(Id),
    /// The forwarding commitment's signature is invalid.
    BadCommitment,
    /// The commitment does not bind the accused to this message.
    CommitmentMismatch,
    /// The accusation quotes the accused's own probes.
    EvidenceFromAccused,
    /// A quoted snapshot's signature is invalid.
    BadSnapshotSignature(Id),
    /// A quoted snapshot falls outside `[t − Δ, t + Δ]`.
    EvidenceOutsideWindow(Id),
    /// The same signed snapshot is quoted more than once.
    DuplicateEvidence(Id),
    /// The claimed blame is not reproducible from the evidence.
    BlameMismatch {
        /// What the accusation claims.
        claimed: f64,
        /// What the evidence yields.
        recomputed: f64,
    },
    /// The (reproducible) blame does not reach the guilty threshold.
    BelowThreshold(f64),
    /// The accuser's signature is invalid.
    BadAccuserSignature,
}

impl fmt::Display for AccusationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccusationError::UnknownHost(id) => write!(f, "no certificate for host {id}"),
            AccusationError::BadCommitment => f.write_str("forwarding commitment is invalid"),
            AccusationError::CommitmentMismatch => {
                f.write_str("commitment does not match the drop context")
            }
            AccusationError::EvidenceFromAccused => {
                f.write_str("accusation quotes the accused's own probes")
            }
            AccusationError::BadSnapshotSignature(id) => {
                write!(f, "snapshot from {id} has an invalid signature")
            }
            AccusationError::EvidenceOutsideWindow(id) => {
                write!(f, "snapshot from {id} is outside the evidence window")
            }
            AccusationError::DuplicateEvidence(id) => {
                write!(f, "snapshot from {id} is quoted more than once")
            }
            AccusationError::BlameMismatch { claimed, recomputed } => write!(
                f,
                "claimed blame {claimed} is not reproducible (evidence yields {recomputed})"
            ),
            AccusationError::BelowThreshold(b) => {
                write!(f, "blame {b} is below the guilty threshold")
            }
            AccusationError::BadAccuserSignature => f.write_str("accuser signature is invalid"),
        }
    }
}

impl std::error::Error for AccusationError {}

#[cfg(test)]
mod tests {
    use super::*;
    use concilium_tomography::LinkObservation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    struct Fixture {
        rng: StdRng,
        keys: HashMap<Id, KeyPair>,
        config: ConciliumConfig,
    }

    impl Fixture {
        fn new() -> Self {
            let mut rng = StdRng::seed_from_u64(71);
            let mut keys = HashMap::new();
            for i in 1..=5u64 {
                keys.insert(Id::from_u64(i), KeyPair::generate(&mut rng));
            }
            Fixture { rng, keys, config: ConciliumConfig::default() }
        }

        fn key_of(&self) -> impl Fn(Id) -> Option<PublicKey> + '_ {
            |id| self.keys.get(&id).map(|k| k.public())
        }

        fn context(&self) -> DropContext {
            DropContext {
                msg: MsgId(1),
                accuser: Id::from_u64(1),
                accused: Id::from_u64(2),
                next_hop: Id::from_u64(3),
                dest: Id::from_u64(5),
                at: SimTime::from_secs(100),
            }
        }

        fn commitment(&mut self) -> ForwardingCommitment {
            let ctx = self.context();
            let b = self.keys[&ctx.accused].clone();
            ForwardingCommitment::issue(
                ctx.msg,
                ctx.accuser,
                ctx.accused,
                ctx.dest,
                SimTime::from_secs(99),
                &b,
                &mut self.rng,
            )
        }

        /// A snapshot from host `origin` observing both path links up.
        fn snapshot(&mut self, origin: u64, at: SimTime, up: bool) -> TomographySnapshot {
            let keys = self.keys[&Id::from_u64(origin)].clone();
            TomographySnapshot::new_signed(
                Id::from_u64(origin),
                at,
                vec![
                    LinkObservation::binary(LinkId(10), up),
                    LinkObservation::binary(LinkId(11), up),
                ],
                &keys,
                &mut self.rng,
            )
        }

        fn build(&mut self, evidence: Vec<TomographySnapshot>) -> Accusation {
            let ctx = self.context();
            let commitment = self.commitment();
            let accuser = self.keys[&ctx.accuser].clone();
            Accusation::build(
                ctx,
                commitment,
                vec![LinkId(10), LinkId(11)],
                evidence,
                &self.config,
                &accuser,
                &mut self.rng,
            )
        }
    }

    #[test]
    fn valid_accusation_verifies() {
        let mut fx = Fixture::new();
        let t = SimTime::from_secs(100);
        // Two honest witnesses probed the path links as up → high blame.
        let ev = vec![fx.snapshot(3, t, true), fx.snapshot(4, t, true)];
        let a = fx.build(ev);
        assert!((a.blame() - 0.9).abs() < 1e-12);
        assert_eq!(a.verify(&fx.key_of(), &fx.config), Ok(()));
    }

    #[test]
    fn below_threshold_rejected() {
        let mut fx = Fixture::new();
        let t = SimTime::from_secs(100);
        // Witnesses saw the links down → low blame, accusation unjustified.
        let ev = vec![fx.snapshot(3, t, false)];
        let a = fx.build(ev);
        assert!(a.blame() < 0.4);
        assert_eq!(
            a.verify(&fx.key_of(), &fx.config),
            Err(AccusationError::BelowThreshold(a.blame()))
        );
    }

    #[test]
    fn repeated_snapshots_cannot_inflate_blame() {
        let mut fx = Fixture::new();
        let t = SimTime::from_secs(100);
        // Witness 3 saw both links up, witnesses 4 and 5 saw them down.
        let (s3, s4, s5) = (fx.snapshot(3, t, true), fx.snapshot(4, t, false), fx.snapshot(5, t, false));
        let honest = fx.build(vec![s3.clone(), s4.clone(), s5.clone()]);
        assert!((honest.blame() - 0.367).abs() < 1e-3, "blame {}", honest.blame());
        assert_eq!(
            honest.verify(&fx.key_of(), &fx.config),
            Err(AccusationError::BelowThreshold(honest.blame()))
        );
        // Quoting s3 three times would count it as three probes in Eq. 3
        // and carry the blame over the threshold.
        let inflated = fx.build(vec![s3.clone(), s3.clone(), s3, s4, s5]);
        assert!(inflated.blame() > fx.config.blame_threshold, "blame {}", inflated.blame());
        assert_eq!(
            inflated.verify(&fx.key_of(), &fx.config),
            Err(AccusationError::DuplicateEvidence(Id::from_u64(3)))
        );
    }

    #[test]
    fn stale_evidence_rejected() {
        let mut fx = Fixture::new();
        // Evidence probed 5 minutes after the drop: outside Δ = 60 s.
        let ev = vec![fx.snapshot(3, SimTime::from_secs(100), true),
                      fx.snapshot(4, SimTime::from_secs(400), true)];
        let a = fx.build(ev);
        assert_eq!(
            a.verify(&fx.key_of(), &fx.config),
            Err(AccusationError::EvidenceOutsideWindow(Id::from_u64(4)))
        );
    }

    #[test]
    fn accused_own_probes_inadmissible() {
        let mut fx = Fixture::new();
        let t = SimTime::from_secs(100);
        // Accusation quoting a snapshot by the accused (host 2) is
        // rejected wholesale by third parties.
        let ev = vec![fx.snapshot(3, t, true), fx.snapshot(2, t, true)];
        let a = fx.build(ev);
        assert_eq!(
            a.verify(&fx.key_of(), &fx.config),
            Err(AccusationError::EvidenceFromAccused)
        );
    }

    #[test]
    fn inflated_blame_detected() {
        let mut fx = Fixture::new();
        let t = SimTime::from_secs(100);
        let ev = vec![fx.snapshot(3, t, false)]; // real blame is low
        let mut a = fx.build(ev);
        a.blame = 0.95; // accuser lies about the number
        let err = a.verify(&fx.key_of(), &fx.config).unwrap_err();
        assert!(
            matches!(err, AccusationError::BlameMismatch { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn tampered_evidence_detected() {
        let mut fx = Fixture::new();
        let t = SimTime::from_secs(100);
        let good = fx.snapshot(3, t, true);
        // Substitute a snapshot whose contents were altered post-signing:
        // build a different snapshot and graft its observations... easiest
        // route: serialize-level tamper via clone-and-replace observation
        // is covered in the tomography tests; here check a wrong-origin
        // forgery: host 4's snapshot re-attributed to host 3.
        let forged = {
            let keys = fx.keys[&Id::from_u64(4)].clone();
            TomographySnapshot::new_signed(
                Id::from_u64(3), // claims origin 3
                t,
                vec![
                    LinkObservation::binary(LinkId(10), true),
                    LinkObservation::binary(LinkId(11), true),
                ],
                &keys, // but signed by 4
                &mut fx.rng,
            )
        };
        let a = fx.build(vec![good, forged]);
        assert_eq!(
            a.verify(&fx.key_of(), &fx.config),
            Err(AccusationError::BadSnapshotSignature(Id::from_u64(3)))
        );
    }

    #[test]
    fn missing_commitment_binding_detected() {
        let mut fx = Fixture::new();
        let t = SimTime::from_secs(100);
        let ev = vec![fx.snapshot(3, t, true)];
        let mut a = fx.build(ev);
        // Rebind the context to a different message id: the commitment no
        // longer matches (and the accuser's signature breaks too, but the
        // commitment check fires first).
        a.context.msg = MsgId(999);
        assert_eq!(
            a.verify(&fx.key_of(), &fx.config),
            Err(AccusationError::CommitmentMismatch)
        );
    }

    #[test]
    fn unknown_hosts_detected() {
        let mut fx = Fixture::new();
        let t = SimTime::from_secs(100);
        let ev = vec![fx.snapshot(3, t, true)];
        let a = fx.build(ev);
        let no_keys = |_: Id| -> Option<PublicKey> { None };
        assert_eq!(
            a.verify(&no_keys, &fx.config),
            Err(AccusationError::UnknownHost(Id::from_u64(2)))
        );
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// For any witness observation pattern, the built accusation
            /// either verifies cleanly or fails with exactly
            /// `BelowThreshold` — never with an integrity error.
            #[test]
            fn built_accusations_are_internally_consistent(
                observations in proptest::collection::vec(
                    proptest::collection::vec(any::<bool>(), 2), 0..4),
            ) {
                let mut fx = Fixture::new();
                let t = SimTime::from_secs(100);
                let evidence: Vec<TomographySnapshot> = observations
                    .iter()
                    .enumerate()
                    .map(|(i, obs)| {
                        let origin = 3 + (i as u64 % 2); // hosts 3 and 4
                        let keys = fx.keys[&Id::from_u64(origin)].clone();
                        TomographySnapshot::new_signed(
                            Id::from_u64(origin),
                            t,
                            vec![
                                LinkObservation::binary(LinkId(10), obs[0]),
                                LinkObservation::binary(LinkId(11), obs[1]),
                            ],
                            &keys,
                            &mut fx.rng,
                        )
                    })
                    .collect();
                let a = fx.build(evidence);
                let config = fx.config;
                let keys = fx.keys.clone();
                let key_of = move |id: Id| keys.get(&id).map(|k| k.public());
                prop_assert!((0.0..=1.0).contains(&a.blame()));
                match a.verify(&key_of, &config) {
                    Ok(()) => prop_assert!(a.blame() >= config.blame_threshold),
                    Err(AccusationError::BelowThreshold(b)) => {
                        prop_assert!(b < config.blame_threshold)
                    }
                    Err(other) => prop_assert!(false, "unexpected error {other:?}"),
                }
            }

            /// Any perturbation of the claimed blame is detected.
            #[test]
            fn blame_perturbations_detected(delta_millis in 1i32..999) {
                let mut fx = Fixture::new();
                let t = SimTime::from_secs(100);
                let ev = vec![fx.snapshot(3, t, true)];
                let mut a = fx.build(ev);
                let perturbed = (a.blame + delta_millis as f64 / 1000.0) % 1.0;
                prop_assume!((perturbed - a.blame).abs() > 1e-6);
                a.blame = perturbed;
                let config = fx.config;
                let keys = fx.keys.clone();
                let key_of = move |id: Id| keys.get(&id).map(|k| k.public());
                let err = a.verify(&key_of, &config).unwrap_err();
                prop_assert!(
                    matches!(
                        err,
                        AccusationError::BlameMismatch { .. }
                            | AccusationError::BelowThreshold(_)
                    ),
                    "got {err:?}"
                );
            }
        }
    }

    #[test]
    fn no_evidence_still_verifies_with_full_blame() {
        // §3.5: at the end of a revision chain, the culprit D has no
        // incriminating tomographic data — the accusation against D
        // carries no snapshots and full blame.
        let mut fx = Fixture::new();
        let a = fx.build(Vec::new());
        assert_eq!(a.blame(), 1.0);
        assert_eq!(a.verify(&fx.key_of(), &fx.config), Ok(()));
    }
}
