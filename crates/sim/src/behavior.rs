//! Adversary assignments.

use std::fmt;

use rand::seq::SliceRandom;
use rand::Rng;

/// A set of host indices as a dense bitset: membership is one word read,
/// and iteration is in ascending order.
#[derive(Clone, Default)]
pub struct HostSet {
    words: Vec<u64>,
}

impl HostSet {
    /// The empty set.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds host `h`; returns whether it was absent.
    pub fn insert(&mut self, h: usize) -> bool {
        let (word, bit) = (h / 64, 1u64 << (h % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let absent = self.words[word] & bit == 0;
        self.words[word] |= bit;
        absent
    }

    /// Whether host `h` is in the set.
    pub(crate) fn contains(&self, h: usize) -> bool {
        self.words.get(h / 64).is_some_and(|w| w >> (h % 64) & 1 == 1)
    }

    /// Number of hosts in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set holds no host.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The hosts in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    i * 64 + bit
                })
            })
        })
    }
}

/// Equal sets are equal however far either one's storage grew.
impl PartialEq for HostSet {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        long[..short.len()] == short[..] && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for HostSet {}

impl fmt::Debug for HostSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for HostSet {
    fn from_iter<I: IntoIterator<Item = usize>>(hosts: I) -> Self {
        let mut set = HostSet::new();
        for h in hosts {
            set.insert(h);
        }
        set
    }
}

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
    pub droppers: HostSet,
    /// Hosts (by index) that flip probe results in collusion.
    pub colluders: HostSet,
    /// Hosts (by index) that deliver but never acknowledge.
    pub ack_withholders: HostSet,
    /// Hosts (by index) whose snapshots arrive too late to be admissible.
    pub probe_delayers: HostSet,
    /// Hosts (by index) that replay outdated snapshots.
    pub stale_replayers: HostSet,
    /// Hosts (by index) in a colluding accuser coalition: they withhold
    /// acknowledgments to manufacture phantom drops *and* flip their
    /// probe results in the resulting judgments — framing non-members
    /// and shielding members in one coordinated attack.
    pub coalition: HostSet,
    /// Hosts (by index) that drop forwarded messages only while no
    /// vantage has probed their neighbourhood recently — adaptive
    /// adversaries that behave whenever they might be observed.
    pub adaptive_droppers: HostSet,
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
    pub(crate) fn sample_byzantine<R: Rng + ?Sized>(
        mut self,
        num_hosts: usize,
        withholder_fraction: f64,
        delayer_fraction: f64,
        replayer_fraction: f64,
        rng: &mut R,
    ) -> Self {
        self.ack_withholders = draw("ack withholder", num_hosts, withholder_fraction, rng);
        self.probe_delayers = draw("probe delayer", num_hosts, delayer_fraction, rng);
        self.stale_replayers = draw("stale replayer", num_hosts, replayer_fraction, rng);
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
    pub(crate) fn sample_extended<R: Rng + ?Sized>(
        mut self,
        num_hosts: usize,
        coalition_fraction: f64,
        adaptive_fraction: f64,
        rng: &mut R,
    ) -> Self {
        self.coalition = draw("coalition", num_hosts, coalition_fraction, rng);
        self.adaptive_droppers = draw("adaptive dropper", num_hosts, adaptive_fraction, rng);
        self
    }

    /// Whether host `h` drops messages.
    pub fn is_dropper(&self, h: usize) -> bool {
        self.droppers.contains(h)
    }

    /// Whether host `h` colludes on probe results.
    pub fn is_colluder(&self, h: usize) -> bool {
        self.colluders.contains(h)
    }

    /// Whether host `h` withholds acknowledgments for delivered messages.
    pub(crate) fn is_ack_withholder(&self, h: usize) -> bool {
        self.ack_withholders.contains(h)
    }

    /// Whether host `h` delays its snapshots past admissibility.
    pub(crate) fn is_probe_delayer(&self, h: usize) -> bool {
        self.probe_delayers.contains(h)
    }

    /// Whether host `h` replays stale snapshots.
    pub(crate) fn is_stale_replayer(&self, h: usize) -> bool {
        self.stale_replayers.contains(h)
    }

    /// Whether host `h` belongs to the colluding accuser coalition.
    pub(crate) fn is_coalition(&self, h: usize) -> bool {
        self.coalition.contains(h)
    }

    /// Whether host `h` drops messages adaptively (only while unprobed).
    pub(crate) fn is_adaptive_dropper(&self, h: usize) -> bool {
        self.adaptive_droppers.contains(h)
    }

    /// Whether host `h` lies in probe snapshots — plain colluders and
    /// coalition members share the §4.3 flip rule.
    pub(crate) fn lies_in_snapshots(&self, h: usize) -> bool {
        self.is_colluder(h) || self.is_coalition(h)
    }

    /// Whether host `h` is protected by the lie: colluders shield fellow
    /// colluders, the coalition shields its members.
    pub(crate) fn is_shielded(&self, h: usize) -> bool {
        self.is_colluder(h) || self.is_coalition(h)
    }

    /// Whether host `h` plays any adversarial role at all — the complement
    /// of the explorer's "honest host" predicate.
    pub(crate) fn is_adversarial(&self, h: usize) -> bool {
        self.is_dropper(h)
            || self.is_colluder(h)
            || self.is_ack_withholder(h)
            || self.is_probe_delayer(h)
            || self.is_stale_replayer(h)
            || self.is_coalition(h)
            || self.is_adaptive_dropper(h)
    }
}

/// `fraction` of `num_hosts`, the head of one shuffle of every host.
///
/// # Panics
///
/// Panics if `fraction` is outside `[0, 1]`.
fn draw<R: Rng + ?Sized>(name: &str, num_hosts: usize, fraction: f64, rng: &mut R) -> HostSet {
    assert!((0.0..=1.0).contains(&fraction), "{name} fraction must be in [0,1], got {fraction}");
    let mut order: Vec<usize> = (0..num_hosts).collect();
    order.shuffle(rng);
    let k = (num_hosts as f64 * fraction).round() as usize;
    order.into_iter().take(k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn subset(a: &HostSet, b: &HostSet) -> bool {
        a.iter().all(|h| b.contains(h))
    }

    #[test]
    fn host_set_is_a_set() {
        let mut s = HostSet::new();
        assert!(s.is_empty() && s.iter().next().is_none());
        for h in [130, 3, 64, 63, 3, 0] {
            s.insert(h);
        }
        assert!(!s.insert(64), "a second insert reports presence");
        assert_eq!(s.len(), 5);
        assert_eq!(s.iter().collect::<Vec<_>>(), [0, 3, 63, 64, 130], "ascending");
        assert!(s.contains(63) && s.contains(130) && !s.contains(65) && !s.contains(10_000));
        assert_eq!(format!("{s:?}"), "{0, 3, 63, 64, 130}");

        // Equality ignores storage grown past the last member.
        let mut wide: HostSet = [0, 3, 63, 64, 130].into_iter().collect();
        wide.insert(5_000);
        assert_ne!(s, wide);
        assert!(subset(&s, &wide) && !subset(&wide, &s));
        let narrow: HostSet = [3, 64].into_iter().collect();
        assert!(subset(&narrow, &s) && !subset(&s, &narrow));
        let grown_empty = HostSet { words: vec![0; 12] };
        assert_eq!(grown_empty, HostSet::new());
        assert_eq!(HostSet::new(), grown_empty);
        assert!(grown_empty.is_empty() && subset(&grown_empty, &HostSet::new()));
        let same = HostSet { words: [s.words.clone(), vec![0; 4]].concat() };
        assert_eq!(s, same);
        assert_eq!(same, s);
    }

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
        assert!(subset(&a.droppers, &a.colluders));
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
        assert!(a.ack_withholders.iter().all(|h| h < 100));
    }

    #[test]
    fn extended_roles_sample_independently() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = AdversarySets::sample(100, 0.1, 0.0, &mut rng)
            .sample_extended(100, 0.15, 0.2, &mut rng);
        assert_eq!(a.coalition.len(), 15);
        assert_eq!(a.adaptive_droppers.len(), 20);
        let c = a.coalition.iter().next().unwrap();
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
