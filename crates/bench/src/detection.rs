//! Extension experiment: detection latency vs the guilty quota m.
//!
//! The paper analyses the *error rates* of the m-of-w accusation rule
//! (Figure 6) but not its *latency* — how many drops a misbehaving
//! forwarder gets away with before the formal accusation fires. This
//! experiment drives the real per-node machinery ([`ConciliumNode`])
//! against a designated dropper and measures, for a sweep of m, the mean
//! number of judged drops until accusation.
//!
//! Run this on a world with a *gentle* failure rate
//! ([`gentle_config`]): under the paper's 5%-down regime, overlay access
//! links are saturated-down and most drops are (correctly) attributed to
//! the network, which measures the failure environment rather than the
//! accusation machinery.
//!
//! [`ConciliumNode`]: concilium::ConciliumNode

use concilium::accusation::DropContext;
use concilium::{ConciliumConfig, ConciliumNode, ForwardingCommitment};
use concilium_sim::{PathEvidence, SimWorld};
use concilium_tomography::{LinkObservation, TomographySnapshot};
use concilium_sim::SimConfig;
use concilium_types::{MsgId, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A copy of `base` with the link-failure rate turned down to 0.5% so
/// that drop judgments reflect the accusation machinery, not a saturated
/// failure environment.
pub fn gentle_config(mut base: SimConfig) -> SimConfig {
    base.failure.fraction_bad = 0.005;
    base
}

/// One row of the latency sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    /// The guilty quota m.
    pub m: usize,
    /// Mean judged drops before the accusation fired.
    pub mean_drops_to_accusation: f64,
    /// Fraction of (judge, dropper) pairs where the accusation fired
    /// within the drop budget.
    pub fired_fraction: f64,
}

/// Runs the sweep: for each m, `pairs` random (judge, dropper) peer pairs
/// are driven for up to `max_drops` judged drops each.
///
/// Each (m, pair) cell gets its own RNG stream derived from `seed` and the
/// cell index, so rows depend only on `seed` — never on `jobs` or thread
/// timing.
pub fn run_par(
    world: &SimWorld,
    ms: &[usize],
    pairs: usize,
    max_drops: usize,
    seed: u64,
    jobs: usize,
) -> Vec<Row> {
    let cells: Vec<usize> = (0..ms.len() * pairs).collect();
    let outcomes = concilium_par::par_map(jobs, &cells, |i, _| {
        let mut rng = StdRng::seed_from_u64(concilium_par::derive_seed(seed, i as u64));
        drive_pair(world, ms[i / pairs], max_drops, &mut rng)
    });
    ms.iter()
        .enumerate()
        .map(|(mi, &m)| {
            let mut total_drops = 0usize;
            let mut fired = 0usize;
            for outcome in outcomes[mi * pairs..(mi + 1) * pairs].iter().flatten() {
                total_drops += outcome.0;
                fired += usize::from(outcome.1);
            }
            Row {
                m,
                mean_drops_to_accusation: total_drops as f64 / pairs as f64,
                fired_fraction: fired as f64 / pairs as f64,
            }
        })
        .collect()
}

/// Drives one (judge, dropper) pair at quota `m` for up to `max_drops`
/// judged drops. Returns `None` if the sampled pair was unusable (no
/// peers / degenerate triangle — such pairs still count in the caller's
/// denominator), otherwise
/// `Some((judged drops consumed, accusation fired))`.
fn drive_pair<R: Rng + ?Sized>(
    world: &SimWorld,
    m: usize,
    max_drops: usize,
    rng: &mut R,
) -> Option<(usize, bool)> {
    let delta = SimDuration::from_secs(60);
    let duration = world.config().duration.as_micros();
    let config = ConciliumConfig { guilty_quota: m, window: 100, ..Default::default() };

    // A judge and a dropper peer with at least one onward hop.
    let judge_idx = rng.gen_range(0..world.num_hosts());
    let peers = world.peers_of(judge_idx);
    if peers.is_empty() {
        return None;
    }
    let dropper = peers[rng.gen_range(0..peers.len())];
    let dpeers = world.peers_of(dropper);
    if dpeers.is_empty() {
        return None;
    }
    let next = dpeers[rng.gen_range(0..dpeers.len())];
    if next == judge_idx {
        return None;
    }
    let next_id = world.node(next).id();
    let path = world.peer_path(dropper, next).expect("next is dropper's peer");
    let dropper_id = world.node(dropper).id();

    let mut judge = ConciliumNode::new(
        *world.node(judge_idx).cert(),
        world.node(judge_idx).keys().clone(),
        config,
    );
    let mut evidence = PathEvidence::new();

    for k in 0..max_drops {
        let t = SimTime::from_micros(
            rng.gen_range(delta.as_micros()..duration - delta.as_micros()),
        );
        // Peers' snapshots for the B→C links around t.
        world.path_evidence(judge_idx, path.links(), t, delta, Some(dropper), &mut evidence);
        for (&link, observations) in path.links().iter().zip(evidence.per_link()) {
            for &(origin, up) in observations {
                let snap = TomographySnapshot::new_signed(
                    world.node(origin).id(),
                    t,
                    vec![LinkObservation::binary(link, up)],
                    world.node(origin).keys(),
                    rng,
                );
                let _ = judge.receive_snapshot(
                    snap,
                    &world.node(origin).public_key(),
                    t,
                );
            }
        }
        let commitment = ForwardingCommitment::issue(
            MsgId(k as u64),
            judge.id(),
            dropper_id,
            next_id,
            t,
            world.node(dropper).keys(),
            rng,
        );
        let ctx = DropContext {
            msg: MsgId(k as u64),
            accuser: judge.id(),
            accused: dropper_id,
            next_hop: next_id,
            dest: next_id,
            at: t,
        };
        let out = judge.judge(ctx, path.links(), commitment, rng);
        if out.accusation.is_some() {
            return Some((k + 1, true));
        }
    }
    Some((max_drops, false))
}

/// Prints the sweep.
pub fn print(rows: &[Row], max_drops: usize) {
    println!("Extension — detection latency vs guilty quota m (budget {max_drops} drops)");
    println!("{:>4}  {:>22} {:>12}", "m", "mean drops to accuse", "fired");
    for r in rows {
        println!(
            "{:>4}  {:>22.1} {:>11.0}%",
            r.m,
            r.mean_drops_to_accusation,
            100.0 * r.fired_fraction
        );
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
    fn latency_grows_with_quota() {
        let mut rng = StdRng::seed_from_u64(701);
        let world = SimWorld::build(gentle_config(SimConfig::small()), &mut rng);
        let rows = run_par(&world, &[2, 6], 12, 60, 701, 1);
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].mean_drops_to_accusation > rows[0].mean_drops_to_accusation,
            "m=6 must take longer than m=2: {rows:?}"
        );
        // Persistent droppers are eventually accused at both quotas.
        assert!(rows[0].fired_fraction > 0.7, "{rows:?}");
    }

    #[test]
    fn parallel_latency_sweep_is_jobs_invariant() {
        let mut rng = StdRng::seed_from_u64(702);
        let world = SimWorld::build(gentle_config(SimConfig::small()), &mut rng);
        let serial = run_par(&world, &[2, 6], 8, 40, 11, 1);
        let parallel = run_par(&world, &[2, 6], 8, 40, 11, 4);
        assert_eq!(serial, parallel);
        // The parallel path preserves the latency ordering.
        assert!(
            serial[1].mean_drops_to_accusation > serial[0].mean_drops_to_accusation,
            "{serial:?}"
        );
    }
}
