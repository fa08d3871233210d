//! Figure 5: blame PDFs for faulty and non-faulty forwarders.
//!
//! "We generated the pdf by taking each triple of hosts (A, B, C) and
//! picking ten random times within the simulation period for A to route a
//! message through B → C. By comparing the actual link state along B → C
//! to the tomographic information available to A at that time, we
//! determined the amount of blame that A would assign to B if A did not
//! receive an acknowledgment... B was a faulty node if it dropped a
//! message despite B → C being good; it was non-faulty if at least one
//! link in B → C was bad."
//!
//! Panel (b) adds 20% colluders who flip their probe results: claiming
//! links *up* when an innocent node is judged (raising false positives)
//! and *down* when a fellow colluder is judged (raising false negatives).
//!
//! The full triple space is quadratic in routing-state size; the harness
//! samples `triples` random triples (uniformly over A, then B ∈ A's
//! routing state, C ∈ B's routing state — the paper's constraint) and
//! reports how many were evaluated.

use concilium::blame::blame_from_observations;
use concilium_sim::{AdversarySets, Histogram, PathEvidence, SimWorld};
use concilium_types::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a Figure 5 run.
#[derive(Clone, Copy, Debug)]
pub struct Fig5Params {
    /// Number of (A, B, C) triples to sample.
    pub triples: usize,
    /// Random judgment times per triple (paper: 10).
    pub times_per_triple: usize,
    /// Probe accuracy a (paper: 0.9).
    pub accuracy: f64,
    /// Evidence window Δ (paper: 60 s).
    pub delta: SimDuration,
    /// Blame threshold for the headline guilty rates (paper: 40%).
    pub threshold: f64,
    /// Histogram bins for the PDFs.
    pub bins: usize,
}

impl Default for Fig5Params {
    fn default() -> Self {
        Fig5Params {
            triples: 20_000,
            times_per_triple: 10,
            accuracy: 0.9,
            delta: SimDuration::from_secs(60),
            threshold: 0.4,
            bins: 20,
        }
    }
}

/// The outcome of a Figure 5 run.
#[derive(Clone, Debug)]
pub struct Fig5Result {
    /// Blame PDF over judgments where B was faulty (B→C good).
    pub faulty: Histogram,
    /// Blame PDF over judgments where the network was at fault.
    pub nonfaulty: Histogram,
    /// Fraction of faulty judgments crossing the threshold
    /// (paper: 93.8% faithful / 71.3% with collusion).
    pub p_faulty_guilty: f64,
    /// Fraction of non-faulty judgments crossing the threshold
    /// (paper: 1.8% faithful / 8.4% with collusion).
    pub p_good_guilty: f64,
}

/// [`run`] over fixed chunks of triples, each from its own RNG stream
/// derived from `seed` and the chunk index, so the result depends only on
/// `seed` — never on `jobs` or thread timing. This is the stream the
/// `experiments` binary prints from; [`run`]'s one contiguous stream
/// samples different triples at the same seed.
pub fn run_par(
    world: &SimWorld,
    adversaries: &AdversarySets,
    params: &Fig5Params,
    seed: u64,
    jobs: usize,
) -> Fig5Result {
    const CHUNK: usize = 256;
    let chunks: Vec<usize> = chunk_sizes(params.triples, CHUNK);
    let partials = concilium_par::par_map(jobs, &chunks, |i, &triples| {
        let mut rng = StdRng::seed_from_u64(concilium_par::derive_seed(seed, i as u64));
        run(world, adversaries, &Fig5Params { triples, ..*params }, &mut rng)
    });
    let mut faulty = Histogram::new(params.bins);
    let mut nonfaulty = Histogram::new(params.bins);
    for part in &partials {
        faulty.merge(&part.faulty);
        nonfaulty.merge(&part.nonfaulty);
    }
    finish(faulty, nonfaulty, params)
}

/// Splits `total` work items into chunks of at most `chunk` each.
pub(crate) fn chunk_sizes(total: usize, chunk: usize) -> Vec<usize> {
    let mut sizes = Vec::with_capacity(total.div_ceil(chunk.max(1)));
    let mut left = total;
    while left > 0 {
        let take = left.min(chunk);
        sizes.push(take);
        left -= take;
    }
    sizes
}

fn finish(faulty: Histogram, nonfaulty: Histogram, params: &Fig5Params) -> Fig5Result {
    let p_faulty_guilty = faulty.fraction_at_least(params.threshold);
    let p_good_guilty = nonfaulty.fraction_at_least(params.threshold);
    Fig5Result { faulty, nonfaulty, p_faulty_guilty, p_good_guilty }
}

/// Runs the experiment on one RNG stream: draws up to `params.triples`
/// valid (A, B, C) triples and accumulates blame judgments into the two
/// class histograms. Pass an empty adversary set for panel (a) and a
/// 20%-colluder set for panel (b).
pub fn run<R: Rng + ?Sized>(
    world: &SimWorld,
    adversaries: &AdversarySets,
    params: &Fig5Params,
    rng: &mut R,
) -> Fig5Result {
    let mut faulty = Histogram::new(params.bins);
    let mut nonfaulty = Histogram::new(params.bins);
    let n = world.num_hosts();
    let duration = world.config().duration;
    let t_lo = params.delta.as_micros();
    let t_hi = duration.as_micros().saturating_sub(params.delta.as_micros());

    let mut evidence = PathEvidence::new();
    let mut sampled = 0usize;
    let mut guard = 0usize;
    while sampled < params.triples && guard < params.triples * 20 {
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

        let path = world.peer_path(b, c).expect("C is in B's routing state");
        let b_is_colluder = adversaries.is_colluder(b);

        for _ in 0..params.times_per_triple {
            let t = SimTime::from_micros(rng.gen_range(t_lo..t_hi));
            let path_good = world.path_up_at(path, t);
            world.path_evidence(a, path.links(), t, params.delta, Some(b), &mut evidence);
            let blame = reported_blame(&evidence, adversaries, b_is_colluder, params.accuracy);
            if path_good {
                // A good path plus a missing acknowledgment means B
                // dropped the message. In the adversarial scenario only
                // malicious hosts drop, so the faulty class is restricted
                // to droppers (the paper's droppers and colluders are the
                // same 20%); with no adversaries the hypothetical drop can
                // come from any B.
                if adversaries.droppers.is_empty() || adversaries.is_dropper(b) {
                    faulty.add(blame);
                }
            } else {
                nonfaulty.add(blame);
            }
        }
    }
    finish(faulty, nonfaulty, params)
}

/// Eq. 2–3 over `evidence` as its origins report it under the §4.3
/// collusion model: a colluder swears every link down when a fellow
/// colluder is judged (protecting it) and up when anyone else is (framing
/// the innocent). One origin's observations are contiguous, so membership
/// is decided once per run, not once per observation.
fn reported_blame(
    evidence: &PathEvidence,
    adversaries: &AdversarySets,
    b_is_colluder: bool,
    accuracy: f64,
) -> f64 {
    let per_link = evidence.per_link().map(|observations| {
        let mut run = (usize::MAX, false);
        observations.iter().map(move |&(origin, up)| {
            if origin != run.0 {
                run = (origin, adversaries.is_colluder(origin));
            }
            if run.1 {
                !b_is_colluder
            } else {
                up
            }
        })
    });
    blame_from_observations(per_link, accuracy)
}

/// Prints one panel.
pub fn print(label: &str, result: &Fig5Result, params: &Fig5Params) {
    println!("Figure 5({label}) — blame PDFs (threshold {:.0}%)", 100.0 * params.threshold);
    println!(
        "  faulty-B judgments:     {:>8}   guilty rate {:>6.1}%",
        result.faulty.count(),
        100.0 * result.p_faulty_guilty
    );
    println!(
        "  non-faulty judgments:   {:>8}   guilty rate {:>6.1}%",
        result.nonfaulty.count(),
        100.0 * result.p_good_guilty
    );
    println!("  blame bin        pdf(faulty B)   pdf(non-faulty B)");
    let fpdf = result.faulty.pdf();
    let npdf = result.nonfaulty.pdf();
    for (i, (f, nf)) in fpdf.iter().zip(&npdf).enumerate() {
        let lo = i as f64 / fpdf.len() as f64;
        let hi = (i + 1) as f64 / fpdf.len() as f64;
        println!("  [{lo:.2},{hi:.2})   {:>13.4}   {:>17.4}", f, nf);
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
    fn faithful_reporting_separates_classes() {
        let mut rng = StdRng::seed_from_u64(501);
        let world = SimWorld::build(SimConfig::small(), &mut rng);
        let params = Fig5Params { triples: 400, ..Default::default() };
        let r = run(&world, &AdversarySets::none(), &params, &mut rng);
        assert!(r.faulty.count() > 100 && r.nonfaulty.count() > 100);
        assert!(r.p_faulty_guilty > 0.8, "faulty guilty rate {}", r.p_faulty_guilty);
        assert!(r.p_good_guilty < 0.15, "innocent guilty rate {}", r.p_good_guilty);
    }

    #[test]
    fn reported_blame_matches_the_materialised_judgment() {
        use concilium::blame::{blame_from_path_evidence, LinkEvidence};
        let mut rng = StdRng::seed_from_u64(504);
        let world = SimWorld::build(SimConfig::small(), &mut rng);
        let colluders = AdversarySets::sample(world.num_hosts(), 0.2, 0.2, &mut rng);
        let delta = SimDuration::from_secs(60);
        let mut evidence = PathEvidence::new();
        let mut lied = 0usize;
        for adversaries in [&AdversarySets::none(), &colluders] {
            for k in 0..1_500 {
                let a = k % world.num_hosts();
                let b = world.peers_of(a)[k % world.peers_of(a).len()];
                let c = world.peers_of(b)[(k / 3) % world.peers_of(b).len()];
                let path = world.peer_path(b, c).expect("C is B's peer");
                let t = SimTime::from_secs(rng.gen_range(60..1_740));
                world.path_evidence(a, path.links(), t, delta, Some(b), &mut evidence);
                // Membership asked per observation, evidence materialised.
                let materialised: Vec<LinkEvidence> = path
                    .links()
                    .iter()
                    .zip(evidence.per_link())
                    .map(|(&link, obs)| LinkEvidence {
                        link,
                        observations: obs
                            .iter()
                            .map(|&(origin, up)| {
                                if adversaries.is_colluder(origin) {
                                    lied += 1;
                                    !adversaries.is_colluder(b)
                                } else {
                                    up
                                }
                            })
                            .collect(),
                    })
                    .collect();
                let folded =
                    reported_blame(&evidence, adversaries, adversaries.is_colluder(b), 0.9);
                assert_eq!(
                    folded.to_bits(),
                    blame_from_path_evidence(&materialised, 0.9).to_bits(),
                    "judge {a}, forwarder {b}, next {c}, t {t:?}"
                );
            }
        }
        assert!(lied > 1_000, "colluders must appear among the origins ({lied})");
    }

    #[test]
    fn parallel_result_is_jobs_invariant() {
        let mut rng = StdRng::seed_from_u64(503);
        let world = SimWorld::build(SimConfig::small(), &mut rng);
        let params = Fig5Params { triples: 600, ..Default::default() };
        let serial = run_par(&world, &AdversarySets::none(), &params, 99, 1);
        let parallel = run_par(&world, &AdversarySets::none(), &params, 99, 4);
        assert_eq!(serial.faulty.bins(), parallel.faulty.bins());
        assert_eq!(serial.nonfaulty.bins(), parallel.nonfaulty.bins());
        assert_eq!(serial.p_faulty_guilty, parallel.p_faulty_guilty);
        assert_eq!(serial.p_good_guilty, parallel.p_good_guilty);
        // And the parallel path still separates the classes.
        assert!(serial.p_faulty_guilty > 0.8);
        assert!(serial.p_good_guilty < 0.15);
    }

    #[test]
    fn chunk_sizes_cover_total() {
        assert_eq!(chunk_sizes(0, 256), Vec::<usize>::new());
        assert_eq!(chunk_sizes(600, 256), vec![256, 256, 88]);
        assert_eq!(chunk_sizes(256, 256), vec![256]);
        assert_eq!(chunk_sizes(1, 256), vec![1]);
    }

    #[test]
    fn collusion_degrades_both_rates() {
        let mut rng = StdRng::seed_from_u64(502);
        let world = SimWorld::build(SimConfig::small(), &mut rng);
        let params = Fig5Params { triples: 1_500, ..Default::default() };
        // Same sampling stream for both panels so the comparison is paired.
        let mut rng_a = StdRng::seed_from_u64(777);
        let clean = run(&world, &AdversarySets::none(), &params, &mut rng_a);
        let adv = AdversarySets::sample(world.num_hosts(), 0.2, 0.2, &mut rng);
        let mut rng_b = StdRng::seed_from_u64(777);
        let polluted = run(&world, &adv, &params, &mut rng_b);
        assert!(
            polluted.p_faulty_guilty < clean.p_faulty_guilty + 0.02,
            "collusion should lower the faulty guilty rate: {} vs {}",
            polluted.p_faulty_guilty,
            clean.p_faulty_guilty
        );
        assert!(
            polluted.p_good_guilty > clean.p_good_guilty - 0.02,
            "collusion should raise the innocent guilty rate: {} vs {}",
            polluted.p_good_guilty,
            clean.p_good_guilty
        );
    }
}
