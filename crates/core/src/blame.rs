//! The fuzzy-logic blame calculation (§3.4, Equations 2–3).
//!
//! When A's message through B toward Z is never acknowledged, A consults
//! the probe results covering the links of B→C (the path to the hop B
//! should have used) within the window `[t − Δ, t + Δ]`:
//!
//! ```text
//! Pr(B faulty) = Pr(B→C good) = 1 − Pr(B→C has ≥ 1 bad link)        (Eq. 2)
//!
//! Pr(B→C has ≥ 1 bad link) =
//!     max_{l ∈ B→C}  (Σ_{p ∈ probes(l)} [p.l_up·(1−a) + (1−p.l_up)·a])
//!                    ──────────────────────────────────────────────
//!                                 |probes(l)|                        (Eq. 3)
//! ```
//!
//! `max` is the fuzzy-logic OR: it selects the link the judge is most
//! confident was bad, weighing each probe equally. Crucially, B's own
//! probe results are excluded when judging B, so B cannot talk its way
//! out of blame — the caller is responsible for that exclusion (see
//! [`SimWorld::path_evidence`]).
//!
//! [`SimWorld::path_evidence`]: https://docs.rs/concilium-sim

use concilium_types::LinkId;

/// The probe observations available for one link of the B→C path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkEvidence {
    /// The link these observations cover.
    pub link: LinkId,
    /// Each probe's judgment: `true` = probed up, `false` = probed down.
    pub observations: Vec<bool>,
}

/// The inner sum of Eq. 3: the judge's confidence that a link was *bad*,
/// given its probe observations and the probe accuracy `a`.
///
/// Returns `None` when there are no observations for the link (links
/// without probes contribute nothing to the max).
///
/// # Panics
///
/// Panics if `accuracy` is not in `(0.5, 1]`.
///
/// # Examples
///
/// ```
/// use concilium::blame::link_bad_confidence;
///
/// // The paper's worked example: Q and R probe a link as down, S as up,
/// // a = 0.8 → confidence (0.8·2 + (1−0.8)) / 3 = 0.6. Note the "up"
/// // probe contributes 1 − a = 0.2, not a.
/// let c = link_bad_confidence(&[false, false, true], 0.8).unwrap();
/// assert!((c - 0.6).abs() < 1e-12);
///
/// // An unprobed link yields no confidence at all — `None`, not 0.0 —
/// // so it contributes nothing to the fuzzy max of Eq. 3.
/// assert_eq!(link_bad_confidence(&[], 0.8), None);
///
/// // Unanimous "down" at accuracy 0.8 converges on 0.8, never 1.0:
/// // probe noise caps the confidence at the accuracy itself.
/// let c = link_bad_confidence(&[false, false, false, false], 0.8).unwrap();
/// assert!((c - 0.8).abs() < 1e-12);
/// ```
pub fn link_bad_confidence(observations: &[bool], accuracy: f64) -> Option<f64> {
    bad_confidence(observations.iter().copied(), accuracy)
}

/// [`link_bad_confidence`] over any sequence of observations: one pass,
/// summing in sequence order.
fn bad_confidence(observations: impl IntoIterator<Item = bool>, accuracy: f64) -> Option<f64> {
    assert!(
        accuracy > 0.5 && accuracy <= 1.0,
        "probe accuracy must be in (0.5, 1], got {accuracy}"
    );
    let mut count = 0usize;
    let sum: f64 = observations
        .into_iter()
        .inspect(|_| count += 1)
        .map(|up| if up { 1.0 - accuracy } else { accuracy })
        .sum();
    (count > 0).then(|| sum / count as f64)
}

/// Eq. 2 over a whole path: the blame assigned to the forwarder given the
/// per-link evidence.
///
/// Links with no observations are skipped. If *no* link has any
/// observations, the path cannot be shown bad, and the forwarder receives
/// full blame (1.0) — this is what pins the accusation chain on the true
/// culprit in §3.5: the culprit's peers "will not have probed any links as
/// down", and the culprit cannot fabricate such probes because its own
/// probes are ignored.
///
/// # Panics
///
/// Panics if `accuracy` is not in `(0.5, 1]`.
pub fn blame_from_path_evidence(evidence: &[LinkEvidence], accuracy: f64) -> f64 {
    blame_from_observations(evidence.iter().map(|e| e.observations.iter().copied()), accuracy)
}

/// [`blame_from_path_evidence`] over observations that need not be
/// materialised: `links` yields, per path link, that link's probe
/// judgments in the order Eq. 3 sums them. The same additions in the same
/// order, so the result is bit-identical to building the [`LinkEvidence`]
/// list first.
///
/// # Panics
///
/// Panics if `accuracy` is not in `(0.5, 1]`.
pub fn blame_from_observations<L>(links: L, accuracy: f64) -> f64
where
    L: IntoIterator,
    L::Item: IntoIterator<Item = bool>,
{
    let path_bad = links
        .into_iter()
        .filter_map(|observations| bad_confidence(observations, accuracy))
        .fold(0.0f64, f64::max); // fuzzy OR
    1.0 - path_bad
}

/// Ablation variant: probabilistic (noisy-OR) combination instead of the
/// fuzzy max, for the `blame_or_ablation` bench. Not part of the paper's
/// protocol.
///
/// # Panics
///
/// Panics if `accuracy` is not in `(0.5, 1]`.
pub fn blame_with_noisy_or(evidence: &[LinkEvidence], accuracy: f64) -> f64 {
    let path_good: f64 = evidence
        .iter()
        .filter_map(|e| link_bad_confidence(&e.observations, accuracy))
        .map(|bad| 1.0 - bad)
        .product();
    path_good
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(link: u32, obs: &[bool]) -> LinkEvidence {
        LinkEvidence { link: LinkId(link), observations: obs.to_vec() }
    }

    #[test]
    fn paper_worked_example() {
        // Q, R probe down; S probes up; a = 0.8 → badness 0.6.
        assert!((link_bad_confidence(&[false, false, true], 0.8).unwrap() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn all_up_observations_give_low_badness() {
        // Unanimous "up" at accuracy 0.9 → badness 0.1 → blame 0.9.
        let blame = blame_from_path_evidence(&[ev(0, &[true, true, true])], 0.9);
        assert!((blame - 0.9).abs() < 1e-12);
    }

    #[test]
    fn all_down_observations_exonerate() {
        let blame = blame_from_path_evidence(&[ev(0, &[false, false])], 0.9);
        assert!((blame - 0.1).abs() < 1e-12);
    }

    #[test]
    fn max_selects_worst_link() {
        let blame = blame_from_path_evidence(
            &[
                ev(0, &[true, true]),          // badness 0.1
                ev(1, &[false, true]),         // badness 0.5
                ev(2, &[false, false, false]), // badness 0.9
            ],
            0.9,
        );
        assert!((blame - (1.0 - 0.9)).abs() < 1e-12);
    }

    #[test]
    fn unprobed_links_are_skipped() {
        let blame = blame_from_path_evidence(&[ev(0, &[]), ev(1, &[true])], 0.9);
        assert!((blame - 0.9).abs() < 1e-12);
    }

    #[test]
    fn no_evidence_at_all_means_full_blame() {
        assert_eq!(blame_from_path_evidence(&[ev(0, &[]), ev(1, &[])], 0.9), 1.0);
        assert_eq!(blame_from_path_evidence(&[], 0.9), 1.0);
    }

    #[test]
    fn noisy_or_is_at_most_fuzzy_blame() {
        // Product of goods ≤ min of goods = 1 − max of bads.
        let evidence = vec![ev(0, &[false, true]), ev(1, &[true]), ev(2, &[false])];
        let fuzzy = blame_from_path_evidence(&evidence, 0.85);
        let noisy = blame_with_noisy_or(&evidence, 0.85);
        assert!(noisy <= fuzzy + 1e-12, "noisy {noisy} > fuzzy {fuzzy}");
    }

    #[test]
    #[should_panic(expected = "probe accuracy")]
    fn bad_accuracy_rejected() {
        let _ = link_bad_confidence(&[true], 0.5);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn blame_is_a_probability(
                obs in proptest::collection::vec(
                    proptest::collection::vec(any::<bool>(), 0..10), 0..6),
                acc in 0.51f64..1.0,
            ) {
                let evidence: Vec<LinkEvidence> = obs
                    .into_iter()
                    .enumerate()
                    .map(|(i, o)| LinkEvidence { link: LinkId(i as u32), observations: o })
                    .collect();
                let b = blame_from_path_evidence(&evidence, acc);
                prop_assert!((0.0..=1.0).contains(&b));
            }

            #[test]
            fn streamed_fold_is_bit_identical_to_the_slice_formula(
                obs in proptest::collection::vec(
                    proptest::collection::vec(any::<bool>(), 0..40), 0..12),
                acc in 0.51f64..=1.0,
            ) {
                // Eq. 2–3 written out over slices, as the code read before
                // the fold took iterators.
                let mut path_bad = 0.0f64;
                for o in obs.iter().filter(|o| !o.is_empty()) {
                    let sum: f64 = o.iter().map(|&up| if up { 1.0 - acc } else { acc }).sum();
                    path_bad = path_bad.max(sum / o.len() as f64);
                }
                let want = (1.0 - path_bad).to_bits();

                let evidence: Vec<LinkEvidence> = obs
                    .iter()
                    .enumerate()
                    .map(|(i, o)| LinkEvidence { link: LinkId(i as u32), observations: o.clone() })
                    .collect();
                prop_assert_eq!(blame_from_path_evidence(&evidence, acc).to_bits(), want);
                let streamed =
                    blame_from_observations(obs.iter().map(|o| o.iter().copied()), acc);
                prop_assert_eq!(streamed.to_bits(), want);
            }

            #[test]
            fn more_down_probes_reduce_blame(
                ups in 0usize..6,
                downs in 1usize..6,
                acc in 0.51f64..1.0,
            ) {
                // Adding a down observation to a link can only increase its
                // badness, hence weakly decrease blame.
                let mut obs: Vec<bool> = vec![true; ups];
                obs.extend(std::iter::repeat_n(false, downs));
                let less_down = {
                    let mut o = obs.clone();
                    o.pop(); // remove one down
                    blame_from_path_evidence(
                        &[LinkEvidence { link: LinkId(0), observations: o }], acc)
                };
                let more_down = blame_from_path_evidence(
                    &[LinkEvidence { link: LinkId(0), observations: obs }], acc);
                prop_assert!(more_down <= less_down + 1e-12);
            }
        }
    }
}
