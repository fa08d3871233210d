//! Figure 4: trees sampled vs forest coverage.
//!
//! "If a node probes only its own tree, it can gather tomographic data
//! for 25% of its forest links. Increasing the number of included peer
//! trees results in large initial gains, but the improvement in coverage
//! diminishes as more trees are included."

use concilium_sim::SimWorld;
use concilium_tomography::Forest;

/// One point of the coverage curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    /// Number of peer trees included (0 = own tree only).
    pub trees: usize,
    /// Mean fraction of forest links covered, over sampled hosts.
    pub coverage: f64,
    /// Mean vouching trees per covered link.
    pub vouchers: f64,
    /// Hosts contributing to this point (hosts with ≥ `trees` peers).
    pub hosts: usize,
}

/// Runs the experiment over up to `host_sample` hosts of a built world.
pub fn run(world: &SimWorld, host_sample: usize) -> Vec<Row> {
    run_jobs(world, host_sample, 1)
}

/// [`run`] with the link-set and forest construction spread over `jobs`
/// workers. Both are pure functions of the world, so the rows are
/// identical at any worker count.
pub fn run_jobs(world: &SimWorld, host_sample: usize, jobs: usize) -> Vec<Row> {
    let forests = {
        let _span = concilium_obs::span("fig4.forest");
        // One link set per tree, borrowed by every forest the tree is in;
        // a sampled host's peers can be any host.
        let all: Vec<usize> = (0..world.num_hosts()).collect();
        let link_sets = concilium_par::par_map(jobs, &all, |_, &h| world.tree(h).link_set());
        let sampled = &all[..world.num_hosts().min(host_sample)];
        concilium_par::par_map(jobs, sampled, |_, &h| {
            Forest::new(
                &link_sets[h],
                world.peers_of(h).iter().map(|&p| link_sets[p].as_slice()),
            )
        })
    };
    // num_trees counts the host's own tree too; peers = num_trees - 1.
    let max_peers = forests.iter().map(|f| f.num_trees() - 1).max().unwrap_or(0);

    let _span = concilium_obs::span("fig4.rows");
    let mut rows = Vec::new();
    for k in 0..=max_peers {
        let mut cov = 0.0;
        let mut vouch = 0.0;
        let mut count = 0usize;
        for f in &forests {
            if k < f.num_trees() {
                cov += f.coverage_with(k);
                vouch += f.mean_vouchers_with(k);
                count += 1;
            }
        }
        if count == 0 {
            break;
        }
        rows.push(Row {
            trees: k,
            coverage: cov / count as f64,
            vouchers: vouch / count as f64,
            hosts: count,
        });
    }
    rows
}

/// Prints the curve, thinned for readability.
pub fn print(rows: &[Row]) {
    println!("Figure 4 — trees sampled vs forest coverage");
    println!(
        "{:>11}  {:>10} {:>14} {:>7}",
        "peer trees", "coverage", "vouchers/link", "hosts"
    );
    for (i, r) in rows.iter().enumerate() {
        let thin = rows.len() > 30 && i % (rows.len() / 25).max(1) != 0 && i != rows.len() - 1;
        if !thin {
            println!(
                "{:>11}  {:>9.1}% {:>14.2} {:>7}",
                r.trees,
                100.0 * r.coverage,
                r.vouchers,
                r.hosts
            );
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
    fn coverage_curve_shape() {
        let mut rng = StdRng::seed_from_u64(401);
        let world = SimWorld::build(SimConfig::small(), &mut rng);
        let rows = run(&world, 10);
        assert!(rows.len() > 4);
        // Monotone coverage, growing vouchers.
        for w in rows.windows(2) {
            assert!(w[1].coverage + 1e-9 >= w[0].coverage);
        }
        assert!(rows.last().unwrap().vouchers > rows[0].vouchers);
        // Own tree covers a strict subset of the forest.
        assert!(rows[0].coverage < 0.9);
    }

    #[test]
    fn parallel_rows_match_serial() {
        let mut rng = StdRng::seed_from_u64(402);
        let world = SimWorld::build(SimConfig::small(), &mut rng);
        assert_eq!(run(&world, 10), run_jobs(&world, 10, 4));
    }
}
