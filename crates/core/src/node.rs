//! Per-node Concilium protocol state.
//!
//! [`ConciliumNode`] is the stateful heart of the protocol on one host:
//! it archives validated snapshots from routing peers, judges message
//! drops against that archive (Eqs. 2–3), keeps per-peer verdict windows,
//! and escalates to formal accusations when the m-of-w quota fills. It
//! also archives the accusations it issues so it can rebut unfair blame
//! later (§3.5).

use std::collections::HashMap;
use std::fmt;

use concilium_crypto::{Certificate, KeyPair, PublicKey};
use concilium_tomography::TomographySnapshot;
use concilium_types::{Id, LinkId, SimTime};

use crate::accusation::{recompute_blame, Accusation, DropContext};
use crate::commitment::ForwardingCommitment;
use crate::config::ConciliumConfig;
use crate::verdict::{Verdict, VerdictBook, VerdictWindow};

/// The result of judging one dropped message.
#[derive(Clone, Debug)]
pub struct JudgeOutcome {
    /// The Eq. 2 blame assigned to the forwarder.
    pub blame: f64,
    /// The thresholded verdict.
    pub verdict: Verdict,
    /// A formal accusation, when the verdict window crossed the m-of-w
    /// quota.
    pub accusation: Option<Accusation>,
}

/// Why a received snapshot was rejected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnapshotError {
    /// The signature does not match the claimed origin.
    BadSignature,
    /// The snapshot is too old (or future-dated) to archive.
    Stale,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadSignature => f.write_str("snapshot signature is invalid"),
            SnapshotError::Stale => f.write_str("snapshot is stale"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One host's Concilium state.
pub struct ConciliumNode {
    cert: Certificate,
    keys: KeyPair,
    config: ConciliumConfig,
    /// Archived snapshots, per origin, sorted by time.
    archive: HashMap<Id, Vec<TomographySnapshot>>,
    /// Sliding verdict windows, per judged peer.
    windows: VerdictBook<Id>,
    /// Accusations this node issued (its rebuttal archive).
    issued: Vec<Accusation>,
}

impl ConciliumNode {
    /// Creates a node.
    ///
    /// # Panics
    ///
    /// Panics if the certificate and key pair disagree, or the
    /// configuration is invalid.
    pub fn new(cert: Certificate, keys: KeyPair, config: ConciliumConfig) -> Self {
        assert_eq!(cert.public_key(), keys.public(), "certificate/key mismatch");
        ConciliumNode {
            cert,
            keys,
            windows: VerdictBook::new(&config),
            config,
            archive: HashMap::new(),
            issued: Vec::new(),
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> Id {
        self.cert.id()
    }

    /// The protocol configuration.
    pub fn config(&self) -> &ConciliumConfig {
        &self.config
    }

    /// Receives a tomographic snapshot from a peer (or from the local
    /// prober — a node archives its own snapshots the same way).
    ///
    /// # Errors
    ///
    /// Rejects snapshots with bad signatures or outside a freshness
    /// horizon of 10×Δ.
    pub fn receive_snapshot(
        &mut self,
        snap: TomographySnapshot,
        origin_key: &PublicKey,
        now: SimTime,
    ) -> Result<(), SnapshotError> {
        if !snap.verify(origin_key) {
            return Err(SnapshotError::BadSignature);
        }
        let horizon = self.config.delta.mul(10);
        if now.abs_diff(snap.time()) > horizon {
            return Err(SnapshotError::Stale);
        }
        let entry = self.archive.entry(snap.origin()).or_default();
        let pos = entry.partition_point(|s| s.time() <= snap.time());
        entry.insert(pos, snap);
        Ok(())
    }

    /// Number of archived snapshots.
    pub fn archived_snapshots(&self) -> usize {
        self.archive.values().map(Vec::len).sum()
    }

    /// The snapshots admissible as evidence for a drop at `at` judging
    /// `accused`: within `[at − Δ, at + Δ]`, not originated by the
    /// accused, and covering at least one of `path_links`.
    pub fn admissible_evidence(
        &self,
        accused: Id,
        path_links: &[LinkId],
        at: SimTime,
    ) -> Vec<TomographySnapshot> {
        let mut out = Vec::new();
        for (origin, snaps) in &self.archive {
            if *origin == accused {
                continue;
            }
            for s in snaps {
                if s.time().abs_diff(at) <= self.config.delta
                    && path_links.iter().any(|&l| s.observation_for(l).is_some())
                {
                    out.push(s.clone());
                }
            }
        }
        // Deterministic order regardless of HashMap iteration.
        out.sort_by_key(|s| (s.origin(), s.time()));
        out
    }

    /// Judges a message drop: computes blame from the archived evidence,
    /// records the verdict in the accused's window, and — when the m-of-w
    /// quota fills — builds a formal accusation quoting the evidence.
    ///
    /// `commitment` is the accused's forwarding commitment for the
    /// message; `path_links` is the B→C link map from the accused's
    /// validated routing advertisement.
    ///
    /// # Panics
    ///
    /// Panics if the context does not name this node as the accuser.
    pub fn judge<R: rand::Rng + ?Sized>(
        &mut self,
        context: DropContext,
        path_links: &[LinkId],
        commitment: ForwardingCommitment,
        rng: &mut R,
    ) -> JudgeOutcome {
        assert_eq!(context.accuser, self.id(), "only the local node may judge here");
        let evidence = self.admissible_evidence(context.accused, path_links, context.at);
        let blame = recompute_blame(path_links, &evidence, context.accused, &self.config);
        let verdict = Verdict::from_blame(blame, self.config.blame_threshold);

        // Every verdict meeting the quota accuses again (§3.7's rate
        // sanctions count the repeats).
        let accusation = if self.windows.record(context.accused, verdict).0 {
            let acc = Accusation::build(
                context,
                commitment,
                path_links.to_vec(),
                evidence,
                &self.config,
                &self.keys,
                rng,
            );
            self.issued.push(acc.clone());
            Some(acc)
        } else {
            None
        };

        JudgeOutcome { blame, verdict, accusation }
    }

    /// The verdict window for `peer`, if any verdicts were issued.
    pub fn window_for(&self, peer: Id) -> Option<&VerdictWindow> {
        self.windows.window(&peer)
    }

    /// Looks up an archived accusation usable to rebut `against` (same
    /// message and destination, issued by this node).
    pub fn rebuttal_for(&self, against: &Accusation) -> Option<&Accusation> {
        self.issued.iter().find(|a| {
            a.context().msg == against.context().msg
                && a.context().dest == against.context().dest
        })
    }

    /// All accusations this node has issued.
    pub fn issued_accusations(&self) -> &[Accusation] {
        &self.issued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concilium_crypto::CertificateAuthority;
    use concilium_tomography::LinkObservation;
    use concilium_types::{HostAddr, MsgId, RouterId, SimDuration};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fx {
        rng: StdRng,
        node: ConciliumNode,
        peers: HashMap<Id, KeyPair>,
    }

    impl Fx {
        fn new() -> Self {
            let mut rng = StdRng::seed_from_u64(131);
            let ca = CertificateAuthority::new(&mut rng);
            let keys = KeyPair::generate(&mut rng);
            let cert = ca.issue_with_id(
                Id::from_u64(1),
                HostAddr(RouterId(0)),
                keys.public(),
                &mut rng,
            );
            let node = ConciliumNode::new(cert, keys, ConciliumConfig::default());
            let mut peers = HashMap::new();
            for i in 2..=6u64 {
                peers.insert(Id::from_u64(i), KeyPair::generate(&mut rng));
            }
            Fx { rng, node, peers }
        }

        fn snapshot(&mut self, origin: u64, at: SimTime, link: u32, up: bool) -> TomographySnapshot {
            let keys = self.peers[&Id::from_u64(origin)].clone();
            TomographySnapshot::new_signed(
                Id::from_u64(origin),
                at,
                vec![LinkObservation::binary(LinkId(link), up)],
                &keys,
                &mut self.rng,
            )
        }

        fn feed(&mut self, origin: u64, at: SimTime, link: u32, up: bool) {
            let key = self.peers[&Id::from_u64(origin)].public();
            let s = self.snapshot(origin, at, link, up);
            self.node.receive_snapshot(s, &key, at).unwrap();
        }

        fn context(&self, at: SimTime) -> DropContext {
            DropContext {
                msg: MsgId(1),
                accuser: Id::from_u64(1),
                accused: Id::from_u64(2),
                next_hop: Id::from_u64(3),
                dest: Id::from_u64(6),
                at,
            }
        }

        fn commitment(&mut self, at: SimTime) -> ForwardingCommitment {
            let ctx = self.context(at);
            let b = self.peers[&ctx.accused].clone();
            ForwardingCommitment::issue(
                ctx.msg, ctx.accuser, ctx.accused, ctx.dest, at, &b, &mut self.rng,
            )
        }
    }

    #[test]
    fn snapshot_validation() {
        let mut fx = Fx::new();
        let t = SimTime::from_secs(100);
        let good = fx.snapshot(2, t, 7, true);
        let right_key = fx.peers[&Id::from_u64(2)].public();
        let wrong_key = fx.peers[&Id::from_u64(3)].public();
        assert_eq!(
            fx.node.receive_snapshot(good.clone(), &wrong_key, t),
            Err(SnapshotError::BadSignature)
        );
        assert_eq!(fx.node.receive_snapshot(good.clone(), &right_key, t), Ok(()));
        // Much later, the same snapshot is stale (horizon = 10Δ = 600 s).
        assert_eq!(
            fx.node
                .receive_snapshot(good, &right_key, t + SimDuration::from_secs(700)),
            Err(SnapshotError::Stale)
        );
        assert_eq!(fx.node.archived_snapshots(), 1);
    }

    #[test]
    fn judge_blames_network_when_links_probed_down() {
        let mut fx = Fx::new();
        let t = SimTime::from_secs(100);
        fx.feed(3, t, 7, false);
        fx.feed(4, t, 7, false);
        let ctx = fx.context(t);
        let commitment = fx.commitment(t);
        let mut rng = StdRng::seed_from_u64(1);
        let out = fx.node.judge(ctx, &[LinkId(7)], commitment, &mut rng);
        assert!((out.blame - 0.1).abs() < 1e-12);
        assert_eq!(out.verdict, Verdict::Innocent);
        assert!(out.accusation.is_none());
    }

    #[test]
    fn judge_blames_forwarder_when_path_good() {
        let mut fx = Fx::new();
        let t = SimTime::from_secs(100);
        fx.feed(3, t, 7, true);
        let ctx = fx.context(t);
        let commitment = fx.commitment(t);
        let mut rng = StdRng::seed_from_u64(2);
        let out = fx.node.judge(ctx, &[LinkId(7)], commitment, &mut rng);
        assert!((out.blame - 0.9).abs() < 1e-12);
        assert_eq!(out.verdict, Verdict::Guilty);
        // First guilty verdict; quota (6) not reached yet.
        assert!(out.accusation.is_none());
        assert_eq!(fx.node.window_for(Id::from_u64(2)).unwrap().guilty_count(), 1);
    }

    #[test]
    fn accused_own_snapshots_are_ignored() {
        let mut fx = Fx::new();
        let t = SimTime::from_secs(100);
        // Only the accused (host 2) claims the link was down.
        fx.feed(2, t, 7, false);
        let ctx = fx.context(t);
        let commitment = fx.commitment(t);
        let mut rng = StdRng::seed_from_u64(3);
        let out = fx.node.judge(ctx, &[LinkId(7)], commitment, &mut rng);
        // No admissible evidence → full blame; B cannot exonerate itself.
        assert_eq!(out.blame, 1.0);
        assert_eq!(out.verdict, Verdict::Guilty);
    }

    #[test]
    fn quota_triggers_self_verifying_accusation() {
        let mut fx = Fx::new();
        let mut rng = StdRng::seed_from_u64(4);
        let mut accusation = None;
        for k in 0..6u64 {
            let t = SimTime::from_secs(100 + k * 10);
            fx.feed(3, t, 7, true);
            fx.feed(4, t, 7, true);
            let mut ctx = fx.context(t);
            ctx.msg = MsgId(k);
            let b = fx.peers[&ctx.accused].clone();
            let commitment = ForwardingCommitment::issue(
                ctx.msg, ctx.accuser, ctx.accused, ctx.dest, t, &b, &mut fx.rng,
            );
            let out = fx.node.judge(ctx, &[LinkId(7)], commitment, &mut rng);
            assert_eq!(out.verdict, Verdict::Guilty);
            if k < 5 {
                assert!(out.accusation.is_none(), "k={k}");
            } else {
                accusation = out.accusation;
            }
        }
        let acc = accusation.expect("6th guilty verdict triggers accusation");
        // The accusation verifies for third parties.
        let peers = fx.peers.clone();
        let node_key = fx.node.keys.public();
        let key_of = move |id: Id| {
            if id == Id::from_u64(1) {
                Some(node_key)
            } else {
                peers.get(&id).map(|k| k.public())
            }
        };
        assert_eq!(acc.verify(&key_of, fx.node.config()), Ok(()));
        // And it is archived for future rebuttals.
        assert_eq!(fx.node.issued_accusations().len(), 1);
        assert!(fx.node.rebuttal_for(&acc).is_some());
    }

    #[test]
    fn evidence_window_excludes_distant_probes() {
        let mut fx = Fx::new();
        let t = SimTime::from_secs(1_000);
        fx.feed(3, SimTime::from_secs(500), 7, false); // far outside Δ
        let ev = fx.node.admissible_evidence(Id::from_u64(2), &[LinkId(7)], t);
        assert!(ev.is_empty());
        fx.feed(4, SimTime::from_secs(950), 7, false); // inside Δ = 60 s
        let ev = fx.node.admissible_evidence(Id::from_u64(2), &[LinkId(7)], t);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].origin(), Id::from_u64(4));
    }
}
