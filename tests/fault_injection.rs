//! Fault-injection acceptance: the retry layer keeps diagnosis honest
//! under ack-transport loss, and lossy runs stay deterministic.
//!
//! The steward-side failure mode under test: a message is *delivered*,
//! but the acknowledgment is lost in transit. A steward that judges on
//! first silence reads the healthy B→C evidence, computes blame ≈ 1 (no
//! link was down — Eq. 3's fuzzy OR finds nothing to excuse), and issues
//! a guilty verdict against an innocent forwarder. Retransmitting before
//! judging shrinks that to `p^k`: with 10% ack loss and four attempts,
//! one false drop per ten thousand deliveries.

use concilium::blame::{blame_from_path_evidence, LinkEvidence};
use concilium::retry::RetryPolicy;
use concilium::{ConciliumConfig, Verdict};
use concilium_par::derive_seed;
use concilium_sim::faults::{FaultConfig, FaultPlan};
use concilium_sim::{AdversarySets, RouteFate, SimConfig, SimWorld};
use concilium_types::{Id, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WORLD_SEED: u64 = 4242;
const PLAN_SEED: u64 = 77;
const MESSAGES: usize = 4_000;

/// One arm of the experiment: how many sampled messages were handled,
/// and how many of those were handled *correctly* — delivered-and-acked
/// counts as correct, a judgment counts as correct when its verdict
/// matches ground truth (guilty iff the accused actually dropped).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
struct Tally {
    handled: usize,
    correct: usize,
    false_accusations: usize,
    /// Per-message trace for the determinism test: (outcome tag, acked,
    /// verdict as 0/1/2 for none/innocent/guilty).
    trace: Vec<(u8, bool, u8)>,
}

impl Tally {
    fn accuracy(&self) -> f64 {
        self.correct as f64 / self.handled as f64
    }
}

/// Runs the steward pipeline over `MESSAGES` sampled messages:
/// ground-truth outcome from the world, ack fate from the fault plan
/// (retried `ack_attempts` times), judgment by collaborative evidence
/// when no ack ever arrives.
fn run_arm(ack_drop: f64, ack_attempts: u32) -> Tally {
    let mut rng = StdRng::seed_from_u64(WORLD_SEED);
    // Turn the ambient link-failure rate down (as the bench harness does)
    // so the experiment measures the ack fault machinery, not a saturated
    // failure environment.
    let mut sim_cfg = SimConfig::small();
    sim_cfg.failure.fraction_bad = 0.005;
    let world = SimWorld::build(sim_cfg, &mut rng);
    let n = world.num_hosts();
    let config = ConciliumConfig::default();
    let delta = config.delta;
    let duration = world.config().duration;

    let mut adv_rng = StdRng::seed_from_u64(WORLD_SEED ^ 1);
    let adversaries = AdversarySets::sample(n, 0.15, 0.0, &mut adv_rng);

    let fault_cfg = FaultConfig { ack_drop_probability: ack_drop, ..Default::default() };
    let plan = FaultPlan::new(fault_cfg, PLAN_SEED, n, duration).unwrap();

    let mut msg_rng = StdRng::seed_from_u64(WORLD_SEED ^ 2);
    let mut tally = Tally::default();

    for i in 0..MESSAGES as u64 {
        let src = msg_rng.gen_range(0..n);
        let target = Id::random(&mut msg_rng);
        let t = SimTime::from_micros(
            msg_rng.gen_range(delta.as_micros()..duration.as_micros() - delta.as_micros()),
        );
        let Some(planned) = world.route(src, target) else {
            continue;
        };
        let fate = world.route_fate_on_route(&planned, t, &adversaries);

        // The ack path: only delivered messages can be acknowledged; each
        // retransmission re-solicits the ack, re-rolling transport loss
        // with its own (message, attempt) key.
        let dest = *planned.last().expect("routes are non-empty");
        let ack_key = |attempt| derive_seed(derive_seed(PLAN_SEED, i), u64::from(attempt));
        let acked = fate.delivered()
            && (0..ack_attempts).any(|a| plan.ack_arrives(&adversaries, dest, ack_key(a)));

        if acked {
            tally.handled += 1;
            tally.correct += 1;
            tally.trace.push((0, true, 0));
            continue;
        }

        // Silence: the steward judges. Identify the judged pair exactly as
        // the system harness does — the failure point's upstream steward
        // judges the failure point; a phantom drop (delivered, ack lost)
        // has no failure point, so the source judges its own next hop.
        let (judge, accused, truly_guilty, tag) = match fate {
            RouteFate::Delivered { hops } => {
                if hops < 3 {
                    continue;
                }
                (planned[0], planned[1], false, 1u8)
            }
            RouteFate::DroppedByHost { hops, at } => {
                if hops < 2 {
                    continue;
                }
                (planned[hops - 2], at, true, 2u8)
            }
            RouteFate::DroppedByNetwork { hops, from, .. } => {
                if hops < 2 {
                    continue;
                }
                (planned[hops - 2], from, false, 3u8)
            }
        };
        if judge == accused {
            continue;
        }
        let pos = planned.iter().position(|&h| h == accused).expect("accused on route");
        let Some(&next) = planned.get(pos + 1) else {
            continue;
        };
        let next_id = world.node(next).id();
        let Some(path) = world.path_to_peer(accused, next_id) else {
            continue;
        };

        // Collaborative evidence for the accused→next links. Judgments
        // without full per-link coverage are provisional in the real
        // protocol (revision resolves them); this harness skips them.
        let per_link: Vec<LinkEvidence> = path
            .links()
            .iter()
            .map(|&link| LinkEvidence {
                link,
                observations: world
                    .probe_evidence(judge, link, t, delta, Some(accused))
                    .into_iter()
                    .map(|(_, up)| up)
                    .collect(),
            })
            .collect();
        if per_link.iter().any(|e| e.observations.is_empty()) {
            continue;
        }

        let blame = blame_from_path_evidence(&per_link, config.probe_accuracy);
        let verdict = Verdict::from_blame(blame, config.blame_threshold);
        tally.handled += 1;
        let correct = (verdict == Verdict::Guilty) == truly_guilty;
        tally.correct += usize::from(correct);
        if verdict == Verdict::Guilty && !truly_guilty {
            tally.false_accusations += 1;
        }
        tally.trace.push((tag, false, if verdict == Verdict::Guilty { 2 } else { 1 }));
    }
    tally
}

#[test]
fn retry_keeps_verdict_accuracy_near_the_zero_fault_baseline() {
    let retry = RetryPolicy::default();
    let baseline = run_arm(0.0, retry.max_attempts);
    let no_retry = run_arm(0.10, RetryPolicy::disabled().max_attempts);
    let with_retry = run_arm(0.10, retry.max_attempts);

    assert!(baseline.handled > 1_000, "baseline sample too small: {baseline:?}");
    let acc_base = baseline.accuracy();
    let acc_none = no_retry.accuracy();
    let acc_retry = with_retry.accuracy();

    assert!(acc_base > 0.9, "baseline accuracy {acc_base}");
    // 10% ack loss with retransmission: within 5 pp of the clean run.
    assert!(
        (acc_base - acc_retry).abs() <= 0.05,
        "retry arm drifted: baseline {acc_base}, retry {acc_retry}"
    );
    // The same loss without retransmission measurably degrades accuracy
    // (the coverage gate absorbs part of the hit: phantom drops whose
    // evidence is incomplete are skipped rather than misjudged) …
    assert!(
        acc_base - acc_none >= 0.01,
        "no-retry arm should degrade: baseline {acc_base}, no-retry {acc_none}"
    );
    // … specifically through guilty verdicts against innocent forwarders.
    assert!(
        no_retry.false_accusations > with_retry.false_accusations * 5,
        "phantom drops should dominate the no-retry arm: {} vs {}",
        no_retry.false_accusations,
        with_retry.false_accusations
    );
    assert!(
        acc_retry > acc_none,
        "retry must beat no retry: {acc_retry} vs {acc_none}"
    );
}

#[test]
fn same_seed_and_plan_give_bit_identical_runs() {
    let a = run_arm(0.10, 4);
    let b = run_arm(0.10, 4);
    assert_eq!(a, b, "the full per-message trace must be reproducible");
}
