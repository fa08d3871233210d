//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! * **Probe exclusion** — §3.4 ignores the judged node's own probes so it
//!   cannot talk its way out of blame. The ablation includes them (with
//!   the accused lying "down" about its path) and measures how far the
//!   faulty-guilty rate collapses.
//! * **Fuzzy max vs noisy-OR** — Eq. 3 combines per-link confidences with
//!   the fuzzy OR (max). The ablation swaps in the probabilistic
//!   noisy-OR and compares both error directions.
//! * **Window size** — Figure 6 fixes w = 100. The ablation sweeps w and
//!   reports the minimal quota m achieving sub-1% errors at each size.

use concilium::blame::{blame_from_path_evidence, blame_with_noisy_or, LinkEvidence};
use concilium::verdict::minimal_m;
use concilium_sim::{Histogram, PathEvidence, SimWorld};
use concilium_types::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Guilty rates for one blame-combination rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RuleOutcome {
    /// Fraction of faulty-forwarder judgments crossing the threshold.
    pub p_faulty_guilty: f64,
    /// Fraction of network-fault judgments crossing the threshold.
    pub p_good_guilty: f64,
}

/// Result of the exclusion + OR-rule ablations (collected in one pass).
#[derive(Clone, Debug)]
pub struct BlameAblation {
    /// The paper's rule: own probes excluded, fuzzy max.
    pub paper: RuleOutcome,
    /// Own probes included (the accused lies "down" when guilty).
    pub no_exclusion: RuleOutcome,
    /// Noisy-OR combination instead of fuzzy max.
    pub noisy_or: RuleOutcome,
    /// Judgments evaluated per class (faulty, nonfaulty).
    pub samples: (u64, u64),
}

/// Runs the blame-rule ablations over sampled (A, B, C) triples.
///
/// Every judged B is treated as an *intentional* dropper, so under
/// "no exclusion" it fabricates down-probes for its whole path.
///
/// Triples are sampled in fixed chunks, each from its own RNG stream
/// derived from `seed` and the chunk index; per-chunk histograms are merged
/// in chunk order, so the result depends only on `seed`, never on `jobs`.
pub fn blame_rules_par(
    world: &SimWorld,
    triples: usize,
    seed: u64,
    jobs: usize,
) -> BlameAblation {
    const CHUNK: usize = 256;
    let chunks = crate::fig5::chunk_sizes(triples, CHUNK);
    let partials = concilium_par::par_map(jobs, &chunks, |i, &len| {
        let mut rng = StdRng::seed_from_u64(concilium_par::derive_seed(seed, i as u64));
        let mut hist = vec![Histogram::new(20); 6]; // [rule][class] flattened
        sample_rules(world, len, &mut rng, &mut hist);
        hist
    });
    let mut hist = vec![Histogram::new(20); 6];
    for part in &partials {
        for (acc, p) in hist.iter_mut().zip(part) {
            acc.merge(p);
        }
    }
    let threshold = 0.4;
    let idx = |rule: usize, faulty: bool| rule * 2 + usize::from(!faulty);
    let outcome = |rule: usize| RuleOutcome {
        p_faulty_guilty: hist[idx(rule, true)].fraction_at_least(threshold),
        p_good_guilty: hist[idx(rule, false)].fraction_at_least(threshold),
    };
    BlameAblation {
        paper: outcome(0),
        no_exclusion: outcome(1),
        noisy_or: outcome(2),
        samples: (hist[0].count(), hist[1].count()),
    }
}

/// The sampling loop of one chunk of [`blame_rules_par`].
fn sample_rules<R: Rng + ?Sized>(
    world: &SimWorld,
    triples: usize,
    rng: &mut R,
    hist: &mut [Histogram],
) {
    let n = world.num_hosts();
    let delta = SimDuration::from_secs(60);
    let accuracy = 0.9;
    let instants = crate::fig5::judgment_micros(world.config().duration, delta);
    let idx = |rule: usize, faulty: bool| rule * 2 + usize::from(!faulty);

    let mut evidence = PathEvidence::new();
    let mut sampled = 0usize;
    let mut guard = 0usize;
    while sampled < triples && guard < triples * 20 {
        guard += 1;
        let a = rng.gen_range(0..n);
        let peers_a = world.peers_of(a);
        if peers_a.is_empty() {
            continue;
        }
        let b = peers_a[rng.gen_range(0..peers_a.len())];
        let peers_b = world.peers_of(b);
        if peers_b.is_empty() {
            continue;
        }
        let c = peers_b[rng.gen_range(0..peers_b.len())];
        if c == a || c == b {
            continue;
        }
        sampled += 1;
        let t = SimTime::from_micros(rng.gen_range(instants.clone()));
        let path = world.peer_path(b, c).expect("C is B's peer");
        let faulty = world.path_up_at(path, t);

        // Evidence under the paper's rule (B excluded).
        world.path_evidence(a, path.links(), t, delta, Some(b), &mut evidence);
        let honest: Vec<LinkEvidence> = path
            .links()
            .iter()
            .zip(evidence.per_link())
            .map(|(&link, observations)| LinkEvidence {
                link,
                observations: observations.iter().map(|&(_, up)| up).collect(),
            })
            .collect();
        // Evidence with B included: B's own (lying) probes claim every
        // path link was down whenever B is guilty; when B is innocent it
        // reports honestly (its tree covers the B→C path by definition).
        // B contributes one observation per probe round it ran inside the
        // evidence window, matching the cadence of honest witnesses.
        let b_rounds = world.archive(b).rounds_in_window(t, delta).len().max(1);
        let with_b: Vec<LinkEvidence> = honest
            .iter()
            .map(|e| {
                let mut obs = e.observations.clone();
                for _ in 0..b_rounds {
                    obs.push(if faulty { false } else { !world.link_up_at(e.link, t) });
                }
                LinkEvidence { link: e.link, observations: obs }
            })
            .collect();

        hist[idx(0, faulty)].add(blame_from_path_evidence(&honest, accuracy));
        hist[idx(1, faulty)].add(blame_from_path_evidence(&with_b, accuracy));
        hist[idx(2, faulty)].add(blame_with_noisy_or(&honest, accuracy));
    }
}

/// The window-size ablation: minimal m for sub-1% errors per window size.
pub(crate) fn window_sweep(p_good: f64, p_faulty: f64) -> Vec<(usize, Option<usize>)> {
    [20usize, 50, 100, 200, 500]
        .into_iter()
        .map(|w| (w, minimal_m(w, p_good, p_faulty, 0.01)))
        .collect()
}

/// Prints everything.
pub fn print(ablation: &BlameAblation) {
    println!("Ablation — blame rules (threshold 40%)");
    println!(
        "  samples: {} faulty-B judgments, {} network-fault judgments",
        ablation.samples.0, ablation.samples.1
    );
    println!(
        "{:>28}  {:>14} {:>14}",
        "rule", "faulty guilty", "innocent guilty"
    );
    for (name, o) in [
        ("paper (exclude B, fuzzy max)", ablation.paper),
        ("include accused's probes", ablation.no_exclusion),
        ("noisy-OR combination", ablation.noisy_or),
    ] {
        println!(
            "{:>28}  {:>13.1}% {:>13.1}%",
            name,
            100.0 * o.p_faulty_guilty,
            100.0 * o.p_good_guilty
        );
    }
    println!();
    println!("Ablation — window size (p_good = 0.018, p_faulty = 0.938)");
    println!("{:>6}  {:>10}", "w", "minimal m");
    for (w, m) in window_sweep(0.018, 0.938) {
        match m {
            Some(m) => println!("{w:>6}  {m:>10}"),
            None => println!("{w:>6}  {:>10}", "none"),
        }
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use concilium_sim::SimConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exclusion_rule_matters() {
        let mut rng = StdRng::seed_from_u64(601);
        let world = SimWorld::build(SimConfig::small(), &mut rng);
        let ab = blame_rules_par(&world, 1_500, 601, 1);
        // Letting the accused vote lets guilty nodes escape: the faulty
        // guilty rate must drop. The effect is bounded by how much honest
        // evidence dilutes the lies, so require a clear but modest gap.
        assert!(
            ab.no_exclusion.p_faulty_guilty < ab.paper.p_faulty_guilty - 0.02,
            "paper {} vs no-exclusion {}",
            ab.paper.p_faulty_guilty,
            ab.no_exclusion.p_faulty_guilty
        );
        // The paper rule itself convicts most guilty forwarders.
        assert!(ab.paper.p_faulty_guilty > 0.7);
    }

    #[test]
    fn exclusion_is_decisive_at_the_chain_end() {
        // §3.5: the true culprit D has no incriminating evidence against
        // it. With exclusion, no evidence → blame 1.0. Without exclusion,
        // D's own fabricated down-probes would fully exonerate it.
        let lying_only = vec![LinkEvidence {
            link: concilium_types::LinkId(0),
            observations: vec![false, false],
        }];
        let with_lies = blame_from_path_evidence(&lying_only, 0.9);
        let excluded = blame_from_path_evidence(
            &[LinkEvidence { link: concilium_types::LinkId(0), observations: vec![] }],
            0.9,
        );
        assert!(with_lies < 0.4, "lies exonerate: {with_lies}");
        assert_eq!(excluded, 1.0, "exclusion pins the culprit");
    }

    #[test]
    fn parallel_ablation_is_jobs_invariant() {
        let mut rng = StdRng::seed_from_u64(603);
        let world = SimWorld::build(SimConfig::small(), &mut rng);
        let serial = blame_rules_par(&world, 600, 42, 1);
        let parallel = blame_rules_par(&world, 600, 42, 4);
        assert_eq!(serial.paper, parallel.paper);
        assert_eq!(serial.no_exclusion, parallel.no_exclusion);
        assert_eq!(serial.noisy_or, parallel.noisy_or);
        assert_eq!(serial.samples, parallel.samples);
        // The parallel path still reproduces the ablation's headline effect.
        assert!(serial.no_exclusion.p_faulty_guilty < serial.paper.p_faulty_guilty);
    }

    #[test]
    fn noisy_or_blames_hosts_less() {
        let mut rng = StdRng::seed_from_u64(602);
        let world = SimWorld::build(SimConfig::small(), &mut rng);
        let ab = blame_rules_par(&world, 1_500, 602, 1);
        // Noisy-OR multiplies per-link goods, so blame ≤ fuzzy blame:
        // fewer guilty verdicts in BOTH classes.
        assert!(ab.noisy_or.p_faulty_guilty <= ab.paper.p_faulty_guilty + 1e-9);
        assert!(ab.noisy_or.p_good_guilty <= ab.paper.p_good_guilty + 1e-9);
    }

    #[test]
    fn larger_windows_need_proportionally_larger_m() {
        let sweep = window_sweep(0.018, 0.938);
        let at = |w: usize| sweep.iter().find(|(sw, _)| *sw == w).unwrap().1;
        assert!(at(20).is_some());
        let m100 = at(100).unwrap();
        let m500 = at(500).unwrap();
        assert!(m500 > m100, "m grows with w");
    }
}
