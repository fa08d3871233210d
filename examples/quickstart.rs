//! Quickstart: build a small world, drop a message, and watch Concilium
//! decide whether to blame the forwarder or the network.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use concilium::blame::{blame_from_path_evidence, LinkEvidence};
use concilium::{ConciliumConfig, Verdict};
use concilium_sim::{AdversarySets, RouteFate, SimConfig, SimWorld};
use concilium_types::{Id, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(2007);
    let config = ConciliumConfig::default();

    println!("building a small simulated Internet + secure Pastry overlay...");
    let world = SimWorld::build(SimConfig::small(), &mut rng);
    println!(
        "  topology: {} routers, {} links; overlay: {} hosts",
        world.topology().graph.num_routers(),
        world.topology().graph.num_links(),
        world.num_hosts()
    );

    // Make 20% of hosts message-droppers.
    let adversaries = AdversarySets::sample(world.num_hosts(), 0.2, 0.0, &mut rng);
    println!("  droppers: {} hosts\n", adversaries.droppers.len());

    // Send a few messages and judge every drop the way §3.4 prescribes.
    let mut sent = 0;
    let mut judged = 0;
    while judged < 8 && sent < 400 {
        sent += 1;
        let src = rng.gen_range(0..world.num_hosts());
        let target = Id::random(&mut rng);
        let t = SimTime::from_secs(rng.gen_range(300..1500));
        let accused_route = world.route(src, target).expect("routes converge");
        let fate = world.route_fate_on_route(&accused_route, t, &adversaries);

        let (faulty_host, first_hop) = match fate {
            RouteFate::Delivered { .. } => continue,
            RouteFate::DroppedByHost { hops, at } => (Some(at), accused_route[hops - 2]),
            RouteFate::DroppedByNetwork { from, .. } => (None, from),
        };

        // The upstream neighbour of the failure point judges its next hop:
        // gather probe evidence for the links of the accused's next IP
        // path, excluding the accused's own probes.
        let judge = first_hop;
        let pos = accused_route.iter().position(|&h| h == judge).expect("judge on route");
        let Some(&accused) = accused_route.get(pos + 1) else { continue };
        let Some(&next) = accused_route.get(pos + 2) else {
            // The accused is the last hop: there is no B→C path to check,
            // so this drop teaches nothing. Skip it.
            continue;
        };
        judged += 1;

        let next_id = world.node(next).id();
        let path = world
            .path_to_peer(accused, next_id)
            .expect("next hops are peers")
            .clone();
        let evidence: Vec<LinkEvidence> = path
            .links()
            .iter()
            .map(|&link| LinkEvidence {
                link,
                observations: world
                    .probe_evidence(judge, link, t, config.delta, Some(accused))
                    .into_iter()
                    .map(|(_, up)| up)
                    .collect(),
            })
            .collect();

        let blame = blame_from_path_evidence(&evidence, config.probe_accuracy);
        let verdict = Verdict::from_blame(blame, config.blame_threshold);
        let truth = match faulty_host {
            Some(h) if h == accused => "host drop (accused is the culprit)",
            Some(_) => "host drop (downstream culprit)",
            None => "network drop",
        };
        println!(
            "drop #{judged}: host {judge} judges host {accused}: blame {blame:.2} → {verdict:?}   [ground truth: {truth}]"
        );
    }
    println!("\nsent {sent} messages, judged {judged} drops");
}
