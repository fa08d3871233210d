//! Small-scale sanity checks that the shapes of the paper's figures hold.
//! The full-scale regenerations live in the `concilium-bench` experiments
//! binary; these tests run the same machinery at test-friendly sizes.

use concilium::blame::{blame_from_path_evidence, LinkEvidence};
use concilium_overlay::montecarlo::sample_occupancy;
use concilium_overlay::occupancy::{DensityScenario, OccupancyModel};
use concilium_sim::{AdversarySets, Histogram, PathEvidence, SimConfig, SimWorld};
use concilium_tomography::Forest;
use concilium_topology::BfsTree;
use concilium_types::{IdSpace, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Figure 1's shape: the analytic occupancy model tracks Monte-Carlo
/// occupancy across overlay sizes.
#[test]
fn fig1_model_tracks_monte_carlo() {
    let mut rng = StdRng::seed_from_u64(201);
    for n in [64usize, 512, 4_096] {
        let model = OccupancyModel::new(IdSpace::DEFAULT, n);
        let mc = sample_occupancy(IdSpace::DEFAULT, n, 300, &mut rng);
        assert!(
            (mc.mean - model.mean_occupied()).abs() < 2.0,
            "n={n}: mc {} vs model {}",
            mc.mean,
            model.mean_occupied()
        );
    }
}

/// Figures 2 and 3's shape: suppression attacks strictly worsen the
/// optimal misclassification, and more colluders always hurt.
#[test]
fn fig2_fig3_error_ordering() {
    let space = IdSpace::DEFAULT;
    let n = 1_131;
    let base_20 = DensityScenario::new(space, n, 0.2, false).optimal_gamma();
    let base_30 = DensityScenario::new(space, n, 0.3, false).optimal_gamma();
    let supp_20 = DensityScenario::new(space, n, 0.2, true).optimal_gamma();
    assert!(base_30.total_error() > base_20.total_error(), "more colluders hurt");
    assert!(supp_20.total_error() > base_20.total_error(), "suppression hurts");
}

/// Figure 4's shape: coverage grows monotonically with diminishing
/// returns — the first few trees add more than the last few.
#[test]
fn fig4_coverage_has_diminishing_returns() {
    let mut rng = StdRng::seed_from_u64(202);
    let world = SimWorld::build(SimConfig::small(), &mut rng);
    let host = 0usize;
    let peer_trees: Vec<_> = world
        .peers_of(host)
        .iter()
        .map(|&p| world.tree(p).link_set())
        .collect();
    assert!(peer_trees.len() >= 6, "need several peers for the curve");
    let forest = Forest::new(
        &world.tree(host).link_set(),
        peer_trees.iter().map(Vec::as_slice),
    );
    let curve = forest.coverage_curve();

    // Monotone.
    for w in curve.windows(2) {
        assert!(w[1] + 1e-12 >= w[0]);
    }
    // Own tree alone covers a meaningful fraction but far from all.
    assert!(curve[0] > 0.05 && curve[0] < 0.9, "own-tree coverage {}", curve[0]);
    // Diminishing returns: the first half of the trees adds more coverage
    // than the second half.
    let mid = curve.len() / 2;
    let first_half = curve[mid] - curve[0];
    let second_half = curve[curve.len() - 1] - curve[mid];
    assert!(
        first_half >= second_half,
        "first half adds {first_half}, second {second_half}"
    );
    // Vouching peers grow with included trees.
    assert!(forest.mean_vouchers_with(peer_trees.len()) > forest.mean_vouchers_with(0));
}

/// Paper scale as a check: one `SimConfig::paper_scale()` build (112,969
/// routers, 1,131 hosts) peaks under a gigabyte of resident memory. The
/// build keeps no per-router array per host: it searches 64 hosts per
/// pass, where retaining one tree per host was 2 GB of the 2.3 this build
/// used to hold. At this scale paths run longest and a pass's searches
/// spread widest, so 32 sampled hosts' distances to every host and paths
/// to every routing peer are cross-checked against a single-source
/// `BfsTree`. The evidence index (link → vouching hosts, and every host's rank
/// among every judge's vantages) is resident in that peak, and this is
/// the world where its voucher lists are longest, so 2,000 sampled
/// (A, B, C) triples, each planned once and read at three instants, are
/// cross-checked here against the per-peer archive scan the index
/// replaced. Ignored by default (a few seconds in
/// release, far longer in debug); CI runs it by name in its own process,
/// so `VmHWM` is this build's peak.
#[test]
#[ignore = "paper-scale world build; run in release with -- --ignored paper_scale"]
fn paper_scale_build_fits_in_a_gigabyte() {
    let mut rng = StdRng::seed_from_u64(2007);
    let world = SimWorld::build(SimConfig::paper_scale(), &mut rng);
    assert_eq!(world.num_hosts(), 1_131);

    let delta = SimDuration::from_secs(60);
    let end = world.config().duration.as_micros();
    let mut evidence = PathEvidence::new();
    let (mut judgments, mut observations) = (0, 0usize);
    while judgments < 2_000 {
        let a = rng.gen_range(0..world.num_hosts());
        let b = world.peers_of(a)[rng.gen_range(0..world.peers_of(a).len())];
        let c = world.peers_of(b)[rng.gen_range(0..world.peers_of(b).len())];
        if c == a || c == b {
            continue;
        }
        judgments += 1;
        let path = world.peer_path(b, c).expect("c is b's peer");
        // One plan per triple, read at three instants, as Figure 5 does.
        world.plan_evidence(a, path.links(), Some(b), &mut evidence);
        for _ in 0..3 {
            let t = SimTime::from_micros(rng.gen_range(0..end));
            world.evidence_at(t, delta, &mut evidence);
            for (&link, got) in path.links().iter().zip(evidence.per_link()) {
                let scan: Vec<(usize, bool)> = std::iter::once(a)
                    .chain(world.peers_of(a).iter().copied())
                    .filter(|&origin| origin != b)
                    .flat_map(|origin| {
                        let seen = world.archive(origin).observations_in_window(link, t, delta);
                        seen.into_iter().map(move |up| (origin, up))
                    })
                    .collect();
                assert_eq!(got, &scan[..], "judge {a}, forwarder {b}, next {c}, {link:?} at {t:?}");
                observations += scan.len();
            }
        }
    }
    assert!(observations > 60_000, "the sampled judgments must carry evidence");

    let graph = &world.topology().graph;
    let mut peer_paths = 0;
    for _ in 0..32 {
        let a = rng.gen_range(0..world.num_hosts());
        let tree = BfsTree::compute(graph, world.node(a).addr().router());
        for b in 0..world.num_hosts() {
            let to = world.node(b).addr().router();
            assert_eq!(Some(world.ip_distance(a, b)), tree.distance(to), "distance {a} → {b}");
            if let Some(path) = world.peer_path(a, b) {
                assert_eq!(Some(path), tree.path_to(to).as_ref(), "peer path {a} → {b}");
                peer_paths += 1;
            }
        }
    }
    assert!(peer_paths > 32 * 16, "the sampled hosts must have peer paths ({peer_paths})");

    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        eprintln!("paper_scale_build_fits_in_a_gigabyte: no /proc/self/status, peak memory not checked");
        return;
    };
    let hwm_kb: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmHWM line in /proc/self/status");
    assert!(hwm_kb < 1_024 * 1_024, "peak resident set is {} MB", hwm_kb / 1_024);
}

/// Figure 5's shape: blame concentrates high for faulty forwarders and
/// low for non-faulty ones, separable at the 40% threshold.
#[test]
fn fig5_blame_distributions_separate() {
    let mut rng = StdRng::seed_from_u64(203);
    let config = concilium::ConciliumConfig::default();
    let world = SimWorld::build(SimConfig::small(), &mut rng);
    let n = world.num_hosts();

    let mut faulty = Histogram::new(20);
    let mut nonfaulty = Histogram::new(20);

    let end = world.config().duration.as_secs_f64() as u64;
    let mut attempts = 0;
    while (faulty.count() < 60 || nonfaulty.count() < 60) && attempts < 60_000 {
        attempts += 1;
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
        let t = SimTime::from_secs(rng.gen_range(300..end.saturating_sub(300)));
        let c_id = world.node(c).id();
        let path = world.path_to_peer(b, c_id).expect("c is b's peer");

        // Ground truth: was B→C good at t?
        let path_good = world.path_up_at(path, t);

        // A's evidence (excluding B's probes).
        let per_link: Vec<LinkEvidence> = path
            .links()
            .iter()
            .map(|&link| LinkEvidence {
                link,
                observations: world
                    .probe_evidence(a, link, t, config.delta, Some(b))
                    .into_iter()
                    .map(|(_, up)| up)
                    .collect(),
            })
            .collect();
        let blame = blame_from_path_evidence(&per_link, config.probe_accuracy);

        if path_good {
            faulty.add(blame); // B dropped despite a good path → B faulty
        } else {
            nonfaulty.add(blame); // the network really was at fault
        }
    }
    assert!(faulty.count() >= 60 && nonfaulty.count() >= 60, "enough samples");

    let p_faulty = faulty.fraction_at_least(0.4);
    let p_good = nonfaulty.fraction_at_least(0.4);
    // The paper reports 93.8% vs 1.8% at paper scale; at test scale we
    // only require a wide separation in the right direction.
    assert!(
        p_faulty > 0.7,
        "faulty forwarders found guilty only {p_faulty} of the time"
    );
    assert!(
        p_good < 0.3,
        "innocent forwarders found guilty {p_good} of the time"
    );
    assert!(faulty.mean().unwrap() > nonfaulty.mean().unwrap() + 0.3);
}

/// Figure 6's shape: a larger m tolerates more collusion noise; at the
/// paper's operating points both error rates drop below 1%.
#[test]
fn fig6_error_rates_below_one_percent_at_paper_m() {
    use concilium::verdict::{binomial_cdf_below, binomial_tail_at_least};
    // Faithful: p_good = 1.8%, p_faulty = 93.8%, m = 6.
    assert!(binomial_tail_at_least(100, 6, 0.018) < 0.01);
    assert!(binomial_cdf_below(100, 6, 0.938) < 0.01);
    // Collusion: p_good = 8.4%, p_faulty = 71.3%, m = 16.
    assert!(binomial_tail_at_least(100, 16, 0.084) < 0.01);
    assert!(binomial_cdf_below(100, 16, 0.713) < 0.01);
    // And m = 6 would NOT suffice under collusion.
    assert!(binomial_tail_at_least(100, 6, 0.084) > 0.01);
}

/// Colluding probe-flippers blur the Figure 5 separation but do not erase
/// it (the Figure 5(b) scenario).
#[test]
fn fig5b_collusion_blurs_but_preserves_separation() {
    let mut rng = StdRng::seed_from_u64(204);
    let config = concilium::ConciliumConfig::default();
    let world = SimWorld::build(SimConfig::small(), &mut rng);
    let n = world.num_hosts();
    let adversaries = AdversarySets::sample(n, 0.2, 0.2, &mut rng);

    let mut clean_faulty = Histogram::new(20);
    let mut polluted_faulty = Histogram::new(20);

    let end = world.config().duration.as_secs_f64() as u64;
    let mut attempts = 0;
    while polluted_faulty.count() < 80 && attempts < 60_000 {
        attempts += 1;
        let a = rng.gen_range(0..n);
        let peers_a = world.peers_of(a);
        if peers_a.is_empty() {
            continue;
        }
        let b = peers_a[rng.gen_range(0..peers_a.len())];
        // Judge a colluder: its co-conspirators will lie "down".
        if !adversaries.is_colluder(b) {
            continue;
        }
        let peers_b = world.peers_of(b);
        if peers_b.is_empty() {
            continue;
        }
        let c = peers_b[rng.gen_range(0..peers_b.len())];
        if c == a || c == b {
            continue;
        }
        let t = SimTime::from_secs(rng.gen_range(300..end.saturating_sub(300)));
        let c_id = world.node(c).id();
        let path = world.path_to_peer(b, c_id).expect("c is b's peer");
        if !world.path_up_at(path, t) {
            continue; // we only compare the faulty-B scenario
        }

        let blame_with = |lie: bool| {
            let per_link: Vec<LinkEvidence> = path
                .links()
                .iter()
                .map(|&link| LinkEvidence {
                    link,
                    observations: world
                        .probe_evidence(a, link, t, config.delta, Some(b))
                        .into_iter()
                        .map(|(origin, up)| {
                            if lie && adversaries.is_colluder(origin) {
                                false // colluders claim links down
                            } else {
                                up
                            }
                        })
                        .collect(),
                })
                .collect();
            blame_from_path_evidence(&per_link, config.probe_accuracy)
        };
        clean_faulty.add(blame_with(false));
        polluted_faulty.add(blame_with(true));
    }
    assert!(polluted_faulty.count() >= 80, "enough samples");
    // Collusion lowers blame on the guilty...
    assert!(polluted_faulty.mean().unwrap() < clean_faulty.mean().unwrap());
    // ...but most guilty parties still cross the 40% threshold.
    assert!(polluted_faulty.fraction_at_least(0.4) > 0.5);
}
