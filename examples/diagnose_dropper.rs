//! End-to-end diagnosis of a message-dropping host, exercising the full
//! protocol pipeline of §3: snapshot exchange, repeated judgments, the
//! m-of-w sliding window, a formal accusation stored in the DHT, and
//! third-party verification of that accusation.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example diagnose_dropper
//! ```

use concilium::accusation::DropContext;
use concilium::dht::AccusationDht;
use concilium::{ConciliumConfig, ConciliumNode, ForwardingCommitment};
use concilium_crypto::PublicKey;
use concilium_sim::{AdversarySets, RouteFate, SimConfig, SimWorld};
use concilium_tomography::{LinkObservation, TomographySnapshot};
use concilium_types::{Id, MsgId, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(77);
    // A small quota so the demo escalates quickly.
    let config = ConciliumConfig { guilty_quota: 3, window: 20, ..Default::default() };

    println!("building world...");
    let world = SimWorld::build(SimConfig::small(), &mut rng);
    let n = world.num_hosts();
    println!("  {} overlay hosts\n", n);

    // One designated dropper.
    let dropper = 3usize;
    let mut adversaries = AdversarySets::none();
    adversaries.droppers.insert(dropper);
    let dropper_id = world.node(dropper).id();
    println!("host {dropper} ({dropper_id:?}) silently drops everything it should forward\n");

    // The judge: some host that routes through the dropper. Find one by
    // probing destinations until the dropper appears mid-route.
    let mut judge_and_dest = None;
    'outer: for judge in 0..n {
        for _ in 0..200 {
            let target = Id::random(&mut rng);
            if let Some(route) = world.route(judge, target) {
                if route.len() >= 3 && route[1] == dropper {
                    judge_and_dest = Some((judge, target, route));
                    break 'outer;
                }
            }
        }
    }
    let (judge_idx, dest, route) = judge_and_dest.expect("some route crosses the dropper");
    println!(
        "host {judge_idx} routes to {dest:?} via {:?} — hop 1 is the dropper",
        route
    );

    // Set up the judge's Concilium node and the accusation DHT.
    let mut judge = ConciliumNode::new(
        *world.node(judge_idx).cert(),
        world.node(judge_idx).keys().clone(),
        config,
    );
    let members: Vec<Id> = (0..n).map(|h| world.node(h).id()).collect();
    let mut dht = AccusationDht::new(members, config.dht_replication);

    // Key lookup for third-party verification.
    let key_of = |id: Id| -> Option<PublicKey> {
        (0..n).map(|h| world.node(h)).find(|nd| nd.id() == id).map(|nd| nd.public_key())
    };

    // Drive the protocol: send messages, feed snapshots, judge drops.
    let mut accusation = None;
    for k in 0..100u64 {
        let t = SimTime::from_secs(200 + k * 60);
        let fate = world.route_fate_on_route(&route, t, &adversaries);
        let RouteFate::DroppedByHost { at, .. } = fate else {
            println!("  t={t}: message got through ({fate:?})");
            continue;
        };
        assert_eq!(at, dropper);

        // Snapshot exchange: the judge's peers publish their latest probe
        // results for the links of the dropper's next IP path.
        let next = route[2];
        let next_id = world.node(next).id();
        let path = world.path_to_peer(dropper, next_id).unwrap().clone();
        for (origin, link, up) in path.links().iter().flat_map(|&l| {
            world
                .probe_evidence(judge_idx, l, t, config.delta, Some(dropper))
                .into_iter()
                .map(move |(o, up)| (o, l, up))
        }) {
            let snap = TomographySnapshot::new_signed(
                world.node(origin).id(),
                t,
                vec![LinkObservation::binary(link, up)],
                world.node(origin).keys(),
                &mut rng,
            );
            let okey = world.node(origin).public_key();
            let _ = judge.receive_snapshot(snap, &okey, t);
        }

        // The dropper did commit to forwarding (it wants to appear honest).
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
        println!(
            "  t={t}: drop judged — blame {:.2} → {:?} (guilty count {})",
            out.blame,
            out.verdict,
            judge.window_for(dropper_id).map(|w| w.guilty_count()).unwrap_or(0),
        );
        if let Some(acc) = out.accusation {
            accusation = Some(acc);
            break;
        }
    }

    let accusation = accusation.expect("the m-of-w quota fires");
    println!("\nformal accusation issued against {dropper_id:?}");

    // Store it in the DHT and verify as an unrelated third party.
    let stored = dht.insert(&world.node(dropper).public_key(), accusation);
    println!("stored at {stored} DHT replicas");
    let fetched = dht.fetch(&world.node(dropper).public_key());
    assert_eq!(fetched.len(), 1);
    match fetched[0].verify(&key_of, &config) {
        Ok(()) => println!("third-party verification: ACCEPTED — {dropper_id:?} is a bad peer"),
        Err(e) => println!("third-party verification failed: {e}"),
    }
}
