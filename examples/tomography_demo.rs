//! Collaborative tomography on a real probe tree (§3.2–3.3): striped
//! unicast probing, MLE link-loss inference, forest coverage, and the
//! feedback-verification defences against lying leaves.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example tomography_demo
//! ```

use concilium_sim::{SimConfig, SimWorld};
use concilium_tomography::feedback::suspicious_leaves;
use concilium_tomography::infer::infer_pass_rates;
use concilium_tomography::probe::simulate_stripes;
use concilium_tomography::Forest;
use concilium_types::LinkId;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(12);
    println!("building world...");
    let world = SimWorld::build(SimConfig::small(), &mut rng);
    let host = 0usize;
    let tree = world.tree(host);
    println!(
        "host {host}: probe tree with {} leaves over {} physical links",
        tree.num_leaves(),
        tree.link_set().len()
    );

    // --- Heavyweight probing + MLE inference -------------------------
    let logical = tree.logical();
    println!(
        "logical tree: {} edges after collapsing unbranched segments",
        logical.num_edges()
    );

    // Ground-truth pass rates: one lossy link, the rest clean.
    let lossy = tree.link_set()[tree.link_set().len() / 2];
    let pass = |l: LinkId| if l == lossy { 0.55 } else { 0.98 };
    let record = simulate_stripes(&logical, &pass, 20_000, &mut rng);
    let rates = infer_pass_rates(&logical, &record).expect("record matches tree");

    println!("\nMLE inference (true lossy link: {lossy}, pass 0.55):");
    for e in 0..logical.num_edges() {
        let links = logical.edge_links(e);
        if links.contains(&lossy) || rates.edge_pass_rate(e) < 0.9 {
            println!(
                "  edge {e} {:?}: inferred pass {:.3}",
                links,
                rates.edge_pass_rate(e)
            );
        }
    }

    // --- Feedback verification ---------------------------------------
    let mut poisoned = record.clone();
    let liar = 0usize;
    poisoned.suppress_leaf(liar);
    let flagged = suspicious_leaves(&logical, &poisoned, 100, 0.5);
    println!(
        "\nleaf {liar} suppresses acknowledgments → consistency test flags leaves {flagged:?}"
    );

    // --- Forest coverage (the Figure 4 mechanic) ----------------------
    let peer_trees: Vec<_> = world
        .peers_of(host)
        .iter()
        .map(|&p| world.tree(p).link_set())
        .collect();
    let forest = Forest::new(&tree.link_set(), peer_trees.iter().map(Vec::as_slice));
    let _curve = forest.coverage_curve();
    println!(
        "\nforest F_H: {} links across {} trees",
        forest.total_links(),
        forest.num_trees()
    );
    for k in [0, 1, 2, 4, 8, peer_trees.len()] {
        if k <= peer_trees.len() {
            println!(
                "  own tree + {k:2} peer trees → {:5.1}% coverage, {:.2} vouchers/link",
                100.0 * forest.coverage_with(k),
                forest.mean_vouchers_with(k)
            );
        }
    }
}
