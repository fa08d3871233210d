//! §4.4 bandwidth requirements (the paper's table-style analysis).
//!
//! Reproduces the routing-state advertisement cost and the tomographic
//! probing cost, both analytically (the paper's wire constants) and —
//! when a world is supplied — against the tree sizes the simulator
//! actually produced.

use concilium::bandwidth::BandwidthModel;
use concilium_sim::SimWorld;

/// One overlay-size row of the bandwidth analysis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    /// Overlay size N.
    pub n: usize,
    /// Expected routing-state entries (μ_φ + 16).
    pub entries: f64,
    /// Advertised routing-state bytes.
    pub table_bytes: f64,
    /// Heavyweight probe cost for a tree with that many leaves, in bytes.
    pub probe_bytes: u64,
}

/// The overlay sizes reported.
pub(crate) const SIZES: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// Runs the analytic model.
pub fn run(model: &BandwidthModel) -> Vec<Row> {
    SIZES
        .iter()
        .map(|&n| {
            let entries = model.expected_entries(n);
            Row {
                n,
                entries,
                table_bytes: model.expected_routing_state_bytes(n),
                probe_bytes: model.heavyweight_probe_bytes(entries.round() as u64),
            }
        })
        .collect()
}

/// Prints the analytic table plus measured tree statistics for a world.
pub fn print(rows: &[Row], world: Option<&SimWorld>) {
    const MIB: f64 = 1024.0 * 1024.0;
    println!("§4.4 — bandwidth requirements (analytic model)");
    println!(
        "{:>9}  {:>9} {:>12} {:>16}",
        "N", "entries", "table bytes", "probe MiB/tree"
    );
    for r in rows {
        println!(
            "{:>9}  {:>9.1} {:>12.0} {:>16.2}",
            r.n,
            r.entries,
            r.table_bytes,
            r.probe_bytes as f64 / MIB
        );
    }
    println!("  lightweight probing: 0 additional bytes (reuses availability probes)");

    if let Some(w) = world {
        let model = BandwidthModel::default();
        let n = w.num_hosts();
        let mut leaves = 0usize;
        let mut probe_bytes = 0u64;
        for h in 0..n {
            let l = w.tree(h).num_leaves();
            leaves += l;
            probe_bytes += model.heavyweight_probe_bytes(l as u64);
        }
        println!(
            "  measured ({} hosts): mean {:.1} routing peers/tree, mean heavyweight probe {:.2} MiB/tree",
            n,
            leaves as f64 / n as f64,
            probe_bytes as f64 / n as f64 / MIB
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers_reproduced() {
        let rows = run(&BandwidthModel::default());
        let at_100k = rows.iter().find(|r| r.n == 100_000).unwrap();
        assert!((at_100k.entries - 77.0).abs() < 2.0);
        assert!((at_100k.table_bytes - 11_500.0).abs() < 1_000.0);
        let mib = at_100k.probe_bytes as f64 / (1024.0 * 1024.0);
        assert!((mib - 16.7).abs() < 0.5, "heavyweight {mib} MiB");
    }

    #[test]
    fn costs_grow_with_n() {
        let rows = run(&BandwidthModel::default());
        for w in rows.windows(2) {
            assert!(w[1].entries > w[0].entries);
            assert!(w[1].table_bytes > w[0].table_bytes);
        }
    }
}
