//! Adversary assignments.

#![expect(
    clippy::disallowed_types,
    reason = "adversary sets answer membership only; nothing on the digest path iterates them"
)]

use std::collections::HashSet;

use rand::seq::SliceRandom;
use rand::Rng;

/// Which hosts misbehave, and how.
///
/// * **Droppers** silently discard application messages they should
///   forward (the faulty forwarders Figure 5 judges).
/// * **Colluders** submit malicious probe results when judgments involve
///   their co-conspirators: claiming links *up* when an innocent node is
///   judged and *down* when a fellow colluder is judged (§4.3).
/// * **Ack withholders** deliver messages but never acknowledge them,
///   manufacturing phantom drops that frame their upstream forwarders.
/// * **Probe delayers** sit on their snapshots until the observations
///   fall outside the judge's admissibility window `[t − Δ, t + Δ]`,
///   starving judgments of evidence without overtly lying.
/// * **Stale replayers** answer snapshot requests with old archives,
///   re-signing observations whose timestamps predate the freshness
///   horizon — detected by [`ConciliumNode::receive_snapshot`]'s
///   staleness check.
///
/// Droppers and colluders coincide in the paper's Figure 5(b) scenario
/// ("20% of peers colluded to maliciously flip their probe results") but
/// are kept separate so the ablation benches can vary them independently;
/// the remaining roles drive the fault-injection harness ([`crate::faults`]).
///
/// [`ConciliumNode::receive_snapshot`]: https://docs.rs/concilium
#[derive(Clone, Debug, Default)]
pub struct AdversarySets {
    /// Hosts (by index) that drop forwarded messages.
    pub droppers: HashSet<usize>,
    /// Hosts (by index) that flip probe results in collusion.
    pub colluders: HashSet<usize>,
    /// Hosts (by index) that deliver but never acknowledge.
    pub ack_withholders: HashSet<usize>,
    /// Hosts (by index) whose snapshots arrive too late to be admissible.
    pub probe_delayers: HashSet<usize>,
    /// Hosts (by index) that replay outdated snapshots.
    pub stale_replayers: HashSet<usize>,
    /// Hosts (by index) in a colluding accuser coalition: they withhold
    /// acknowledgments to manufacture phantom drops *and* flip their
    /// probe results in the resulting judgments — framing non-members
    /// and shielding members in one coordinated attack.
    pub coalition: HashSet<usize>,
    /// Hosts (by index) that drop forwarded messages only while no
    /// vantage has probed their neighbourhood recently — adaptive
    /// adversaries that behave whenever they might be observed.
    pub adaptive_droppers: HashSet<usize>,
}

impl AdversarySets {
    /// No adversaries at all.
    pub fn none() -> Self {
        AdversarySets::default()
    }

    /// Samples adversary sets: `dropper_fraction` of hosts drop messages
    /// and `colluder_fraction` flip probe results. When both fractions are
    /// equal the same hosts play both roles (the paper's model).
    ///
    /// # Panics
    ///
    /// Panics if either fraction is outside `[0, 1]`.
    pub fn sample<R: Rng + ?Sized>(
        num_hosts: usize,
        dropper_fraction: f64,
        colluder_fraction: f64,
        rng: &mut R,
    ) -> Self {
        for (name, f) in [("dropper", dropper_fraction), ("colluder", colluder_fraction)] {
            assert!(
                (0.0..=1.0).contains(&f),
                "{name} fraction must be in [0,1], got {f}"
            );
        }
        let mut order: Vec<usize> = (0..num_hosts).collect();
        order.shuffle(rng);
        let d = (num_hosts as f64 * dropper_fraction).round() as usize;
        let c = (num_hosts as f64 * colluder_fraction).round() as usize;
        // Overlap by construction: the first min(d, c) hosts are both.
        AdversarySets {
            droppers: order.iter().copied().take(d).collect(),
            colluders: order.iter().copied().take(c).collect(),
            ..AdversarySets::default()
        }
    }

    /// Samples the Byzantine roles of the fault-injection harness on top
    /// of existing assignments: `withholder_fraction` of hosts withhold
    /// acknowledgments, `delayer_fraction` delay their snapshots past the
    /// admissibility window, and `replayer_fraction` replay stale
    /// snapshots. The three draws are independent of each other and of the
    /// dropper/colluder sets.
    ///
    /// # Panics
    ///
    /// Panics if any fraction is outside `[0, 1]`.
    pub fn sample_byzantine<R: Rng + ?Sized>(
        mut self,
        num_hosts: usize,
        withholder_fraction: f64,
        delayer_fraction: f64,
        replayer_fraction: f64,
        rng: &mut R,
    ) -> Self {
        let draw = |name: &str, fraction: f64, rng: &mut R| -> HashSet<usize> {
            assert!(
                (0.0..=1.0).contains(&fraction),
                "{name} fraction must be in [0,1], got {fraction}"
            );
            let mut order: Vec<usize> = (0..num_hosts).collect();
            order.shuffle(rng);
            let k = (num_hosts as f64 * fraction).round() as usize;
            order.into_iter().take(k).collect()
        };
        self.ack_withholders = draw("ack withholder", withholder_fraction, rng);
        self.probe_delayers = draw("probe delayer", delayer_fraction, rng);
        self.stale_replayers = draw("stale replayer", replayer_fraction, rng);
        self
    }

    /// Samples the extended scenario-family roles the fuzzer opens:
    /// `coalition_fraction` of hosts form a colluding accuser coalition
    /// and `adaptive_fraction` drop messages only while unprobed. Both
    /// draws are independent of every other role set.
    ///
    /// # Panics
    ///
    /// Panics if either fraction is outside `[0, 1]`.
    pub fn sample_extended<R: Rng + ?Sized>(
        mut self,
        num_hosts: usize,
        coalition_fraction: f64,
        adaptive_fraction: f64,
        rng: &mut R,
    ) -> Self {
        let draw = |name: &str, fraction: f64, rng: &mut R| -> HashSet<usize> {
            assert!(
                (0.0..=1.0).contains(&fraction),
                "{name} fraction must be in [0,1], got {fraction}"
            );
            let mut order: Vec<usize> = (0..num_hosts).collect();
            order.shuffle(rng);
            let k = (num_hosts as f64 * fraction).round() as usize;
            order.into_iter().take(k).collect()
        };
        self.coalition = draw("coalition", coalition_fraction, rng);
        self.adaptive_droppers = draw("adaptive dropper", adaptive_fraction, rng);
        self
    }

    /// Whether host `h` drops messages.
    pub fn is_dropper(&self, h: usize) -> bool {
        self.droppers.contains(&h)
    }

    /// Whether host `h` colludes on probe results.
    pub fn is_colluder(&self, h: usize) -> bool {
        self.colluders.contains(&h)
    }

    /// Whether host `h` withholds acknowledgments for delivered messages.
    pub fn is_ack_withholder(&self, h: usize) -> bool {
        self.ack_withholders.contains(&h)
    }

    /// Whether host `h` delays its snapshots past admissibility.
    pub fn is_probe_delayer(&self, h: usize) -> bool {
        self.probe_delayers.contains(&h)
    }

    /// Whether host `h` replays stale snapshots.
    pub fn is_stale_replayer(&self, h: usize) -> bool {
        self.stale_replayers.contains(&h)
    }

    /// Whether host `h` belongs to the colluding accuser coalition.
    pub fn is_coalition(&self, h: usize) -> bool {
        self.coalition.contains(&h)
    }

    /// Whether host `h` drops messages adaptively (only while unprobed).
    pub fn is_adaptive_dropper(&self, h: usize) -> bool {
        self.adaptive_droppers.contains(&h)
    }

    /// Whether host `h` lies in probe snapshots — plain colluders and
    /// coalition members share the §4.3 flip rule.
    pub fn lies_in_snapshots(&self, h: usize) -> bool {
        self.is_colluder(h) || self.is_coalition(h)
    }

    /// Whether host `h` is protected by the lie: colluders shield fellow
    /// colluders, the coalition shields its members.
    pub fn is_shielded(&self, h: usize) -> bool {
        self.is_colluder(h) || self.is_coalition(h)
    }

    /// Whether host `h` plays any adversarial role at all — the complement
    /// of the explorer's "honest host" predicate.
    pub fn is_adversarial(&self, h: usize) -> bool {
        self.is_dropper(h)
            || self.is_colluder(h)
            || self.is_ack_withholder(h)
            || self.is_probe_delayer(h)
            || self.is_stale_replayer(h)
            || self.is_coalition(h)
            || self.is_adaptive_dropper(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_sizes_match_fractions() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = AdversarySets::sample(100, 0.2, 0.2, &mut rng);
        assert_eq!(a.droppers.len(), 20);
        assert_eq!(a.colluders.len(), 20);
        // Equal fractions → identical sets (the paper's model).
        assert_eq!(a.droppers, a.colluders);
    }

    #[test]
    fn unequal_fractions_nest() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = AdversarySets::sample(100, 0.1, 0.3, &mut rng);
        assert_eq!(a.droppers.len(), 10);
        assert_eq!(a.colluders.len(), 30);
        assert!(a.droppers.is_subset(&a.colluders));
    }

    #[test]
    fn none_has_no_adversaries() {
        let a = AdversarySets::none();
        assert!(!a.is_dropper(0));
        assert!(!a.is_colluder(0));
        assert!(!a.is_ack_withholder(0));
        assert!(!a.is_probe_delayer(0));
        assert!(!a.is_stale_replayer(0));
    }

    #[test]
    fn byzantine_roles_sample_independently() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = AdversarySets::sample(100, 0.2, 0.0, &mut rng)
            .sample_byzantine(100, 0.1, 0.3, 0.05, &mut rng);
        assert_eq!(a.droppers.len(), 20);
        assert_eq!(a.ack_withholders.len(), 10);
        assert_eq!(a.probe_delayers.len(), 30);
        assert_eq!(a.stale_replayers.len(), 5);
        let w: Vec<usize> = a.ack_withholders.iter().copied().collect();
        assert!(w.iter().all(|&h| h < 100));
    }

    #[test]
    fn extended_roles_sample_independently() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = AdversarySets::sample(100, 0.1, 0.0, &mut rng)
            .sample_extended(100, 0.15, 0.2, &mut rng);
        assert_eq!(a.coalition.len(), 15);
        assert_eq!(a.adaptive_droppers.len(), 20);
        let c = *a.coalition.iter().next().unwrap();
        assert!(a.is_coalition(c));
        assert!(a.lies_in_snapshots(c));
        assert!(a.is_shielded(c));
        assert!(a.is_adversarial(c));
        let honest = (0..100)
            .find(|&h| !a.is_adversarial(h))
            .expect("most hosts stay honest");
        assert!(!a.is_coalition(honest));
        assert!(!a.is_adaptive_dropper(honest));
    }

    #[test]
    #[should_panic(expected = "coalition fraction")]
    fn bad_coalition_fraction_rejected() {
        let mut rng = StdRng::seed_from_u64(12);
        let _ = AdversarySets::none().sample_extended(10, 1.5, 0.0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "ack withholder fraction")]
    fn bad_byzantine_fraction_rejected() {
        let mut rng = StdRng::seed_from_u64(8);
        let _ = AdversarySets::none().sample_byzantine(10, -0.1, 0.0, 0.0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "fraction must be in")]
    fn bad_fraction_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let _ = AdversarySets::sample(10, 1.5, 0.0, &mut rng);
    }
}
