//! End-to-end integration: the full Concilium pipeline over a simulated
//! world — snapshot exchange, judgment, escalation, DHT storage,
//! third-party verification, and revision.

use concilium::accusation::DropContext;
use concilium::dht::AccusationDht;
use concilium::revision::AccusationChain;
use concilium::{ConciliumConfig, ConciliumNode, ForwardingCommitment, Verdict};
use concilium_crypto::PublicKey;
use concilium_sim::{AdversarySets, RouteFate, SimConfig, SimWorld};
use concilium_tomography::{LinkObservation, TomographySnapshot};
use concilium_types::{Id, MsgId, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Drives the full §3 pipeline against a designated dropper and asserts a
/// verifiable accusation comes out the other end.
#[test]
fn dropper_is_formally_accused_and_verifiable() {
    let mut rng = StdRng::seed_from_u64(77);
    let config = ConciliumConfig { guilty_quota: 3, window: 20, ..Default::default() };
    let world = SimWorld::build(SimConfig::small(), &mut rng);
    let n = world.num_hosts();

    let dropper = 3usize;
    let mut adversaries = AdversarySets::none();
    adversaries.droppers.insert(dropper);
    let dropper_id = world.node(dropper).id();

    // Find a judge whose route to some key crosses the dropper mid-route.
    let mut found = None;
    'outer: for judge in 0..n {
        for _ in 0..200 {
            let target = Id::random(&mut rng);
            if let Some(route) = world.route(judge, target) {
                if route.len() >= 3 && route[1] == dropper {
                    found = Some((judge, target));
                    break 'outer;
                }
            }
        }
    }
    let (judge_idx, dest) = found.expect("some route crosses the dropper");

    let mut judge = ConciliumNode::new(
        *world.node(judge_idx).cert(),
        world.node(judge_idx).keys().clone(),
        config,
    );
    let members: Vec<Id> = (0..n).map(|h| world.node(h).id()).collect();
    let mut dht = AccusationDht::new(members, config.dht_replication);

    let mut accusation = None;
    let mut guilty_seen = 0;
    for k in 0..100u64 {
        let t = SimTime::from_secs(200 + k * 60);
        let route = world.route(judge_idx, dest).unwrap();
        let RouteFate::DroppedByHost { at, .. } =
            world.route_fate_on_route(&route, t, &adversaries)
        else {
            continue;
        };
        assert_eq!(at, dropper, "only the designated dropper drops");

        let next = route[2];
        let next_id = world.node(next).id();
        let path = world.path_to_peer(dropper, next_id).unwrap().clone();

        // Peers publish signed snapshots of their probe results for the
        // B→C links; the judge archives them.
        for &link in path.links() {
            for (origin, up) in
                world.probe_evidence(judge_idx, link, t, config.delta, Some(dropper))
            {
                let snap = TomographySnapshot::new_signed(
                    world.node(origin).id(),
                    t,
                    vec![LinkObservation::binary(link, up)],
                    world.node(origin).keys(),
                    &mut rng,
                );
                judge
                    .receive_snapshot(snap, &world.node(origin).public_key(), t)
                    .expect("honest snapshots are accepted");
            }
        }

        let commitment = ForwardingCommitment::issue(
            MsgId(k),
            judge.id(),
            dropper_id,
            dest,
            t,
            world.node(dropper).keys(),
            &mut rng,
        );
        let ctx = DropContext {
            msg: MsgId(k),
            accuser: judge.id(),
            accused: dropper_id,
            next_hop: next_id,
            dest,
            at: t,
        };
        let out = judge.judge(ctx, path.links(), commitment, &mut rng);
        if out.verdict == Verdict::Guilty {
            guilty_seen += 1;
        }
        if let Some(acc) = out.accusation {
            accusation = Some(acc);
            break;
        }
    }
    assert!(guilty_seen >= 3, "guilty verdicts accumulated");
    let accusation = accusation.expect("the quota fires within 100 rounds");

    // Store, fetch, verify as a third party.
    let stored = dht.insert(&world.node(dropper).public_key(), accusation);
    assert_eq!(stored, config.dht_replication);
    let fetched = dht.fetch(&world.node(dropper).public_key());
    assert_eq!(fetched.len(), 1);

    let key_of = |id: Id| -> Option<PublicKey> {
        (0..n)
            .map(|h| world.node(h))
            .find(|nd| nd.id() == id)
            .map(|nd| nd.public_key())
    };
    assert_eq!(fetched[0].verify(&key_of, &config), Ok(()));
    assert_eq!(fetched[0].accused(), dropper_id);
}

/// Network-caused drops must NOT lead to guilty verdicts (the judge sees
/// the failed link in the collaborative evidence).
#[test]
fn network_drops_exonerate_the_forwarder() {
    let mut rng = StdRng::seed_from_u64(99);
    let config = ConciliumConfig::default();
    let world = SimWorld::build(SimConfig::small(), &mut rng);

    // Collect network-dropped messages and judge the first hop each time.
    let mut innocent = 0;
    let mut guilty = 0;
    let mut trials = 0;
    'outer: for src in 0..world.num_hosts() {
        // Judgeable network drops (route length ≥ 2 with a distinct
        // upstream judge) are rare in the small world; sweep the whole
        // 30-minute run, wrapping the probe-time offset, to collect a
        // meaningful sample regardless of where the downtime lands.
        for k in 0..600u64 {
            let t = SimTime::from_secs(120 + (k * 7) % 1_560);
            let target = Id::random(&mut rng);
            let route = world.route(src, target).expect("routes converge");
            let RouteFate::DroppedByNetwork { hops, from, to, .. } =
                world.route_fate_on_route(&route, t, &AdversarySets::none())
            else {
                continue;
            };
            // Judge `to` from the perspective of `from`'s upstream... we
            // judge the hop (from → to): evidence over that hop's links.
            if hops < 2 {
                continue; // the failed hop left the source: no upstream judge
            }
            let judge = route[hops - 2];
            let accused = from;
            if judge == accused {
                continue;
            }
            let to_id = world.node(to).id();
            let path = world.path_to_peer(accused, to_id).unwrap();
            let per_link: Vec<concilium::blame::LinkEvidence> = path
                .links()
                .iter()
                .map(|&link| concilium::blame::LinkEvidence {
                    link,
                    observations: world
                        .probe_evidence(judge, link, t, config.delta, Some(accused))
                        .into_iter()
                        .map(|(_, up)| up)
                        .collect(),
                })
                .collect();
            let blame =
                concilium::blame::blame_from_path_evidence(&per_link, config.probe_accuracy);
            match Verdict::from_blame(blame, config.blame_threshold) {
                Verdict::Innocent => innocent += 1,
                Verdict::Guilty => guilty += 1,
            }
            trials += 1;
            if trials >= 30 {
                break 'outer;
            }
        }
    }
    assert!(trials >= 10, "found only {trials} network drops");
    // The vast majority of network drops must be recognised as such.
    assert!(
        innocent as f64 >= 0.7 * trials as f64,
        "{innocent}/{trials} network drops judged innocent ({guilty} guilty)"
    );
}

/// Blame migrates along a revision chain built from real-world judgments.
#[test]
fn revision_chain_over_simulated_route() {
    let mut rng = StdRng::seed_from_u64(123);
    let config = ConciliumConfig::default();
    let world = SimWorld::build(SimConfig::small(), &mut rng);
    let n = world.num_hosts();

    // Find a 4-hop route (A → B → C → dest-owner).
    let mut found = None;
    'outer: for src in 0..n {
        for _ in 0..400 {
            let target = Id::random(&mut rng);
            if let Some(route) = world.route(src, target) {
                if route.len() >= 4 {
                    found = Some((route, target));
                    break 'outer;
                }
            }
        }
    }
    let Some((route, dest)) = found else {
        // Small overlays may route everything in ≤3 hops; nothing to test.
        return;
    };
    let t = SimTime::from_secs(500);
    let msg = MsgId(1);

    // The third host on the route is the culprit; all links assumed good
    // (we pass no down-evidence, which yields full blame at each step).
    let make = |accuser: usize, accused: usize, next: usize, rng: &mut StdRng| {
        let ctx = DropContext {
            msg,
            accuser: world.node(accuser).id(),
            accused: world.node(accused).id(),
            next_hop: world.node(next).id(),
            dest,
            at: t,
        };
        let commitment = ForwardingCommitment::issue(
            msg,
            ctx.accuser,
            ctx.accused,
            dest,
            t,
            world.node(accused).keys(),
            rng,
        );
        concilium::Accusation::build(
            ctx,
            commitment,
            vec![],
            vec![],
            &config,
            world.node(accuser).keys(),
            rng,
        )
    };

    let mut chain = AccusationChain::new(make(route[0], route[1], route[2], &mut rng));
    chain
        .amend(make(route[1], route[2], route[3], &mut rng))
        .expect("revision links");
    assert_eq!(chain.culprit(), world.node(route[2]).id());

    let key_of = |id: Id| -> Option<PublicKey> {
        (0..n)
            .map(|h| world.node(h))
            .find(|nd| nd.id() == id)
            .map(|nd| nd.public_key())
    };
    assert_eq!(chain.verify(&key_of, &config), Ok(()));
}
