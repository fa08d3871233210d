//! The §4.4 bandwidth model.
//!
//! Concilium's two overheads are (1) exchanging signed, timestamped
//! routing state and (2) tomographic probing. The paper's accounting:
//!
//! * local routing state references μ_φ + 16 peers;
//! * each entry is a 16-byte identifier plus a 4-byte freshness timestamp,
//!   which together with a PSS-R (1024-bit) signature consume 144 bytes;
//! * each entry's path probe summary takes 1 byte;
//! * heavyweight probing of a tree costs
//!   `C(|leaves|, 2) · stripes_per_pair · stripe_size · pkt_size` outgoing
//!   bytes, with 100 stripes per ordered pair, 2 UDP probes per stripe,
//!   and 30-byte probes (28 bytes IP+UDP headers + 16-bit nonce).
//!
//! At 100,000 nodes this yields ≈77 routing entries, ≈11.5 kB advertised
//! tables, and ≈16.7 MiB per heavyweight tree probe — the numbers this
//! module's tests pin down.

use serde::{Deserialize, Serialize};

use concilium_overlay::occupancy::OccupancyModel;
use concilium_types::IdSpace;

/// Wire-size constants of the paper's §4.4 analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BandwidthModel {
    /// Node identifier bytes (paper: 16).
    pub id_bytes: u64,
    /// Freshness timestamp bytes (paper: 4).
    pub timestamp_bytes: u64,
    /// Identifier + timestamp + PSS-R signature, total (paper: 144).
    pub signed_entry_bytes: u64,
    /// Per-path probe summary (paper: 1 byte, "a few bits").
    pub path_summary_bytes: u64,
    /// Leaf-set size added to μ_φ (paper: 16).
    pub leaf_entries: u64,
    /// Stripes sent per ordered pair of peers (paper: 100).
    pub stripes_per_pair: u64,
    /// Probe packets per stripe (paper: 2).
    pub packets_per_stripe: u64,
    /// Bytes per probe packet (paper: 30 = 28 IP+UDP + 16-bit nonce).
    pub probe_packet_bytes: u64,
}

impl Default for BandwidthModel {
    fn default() -> Self {
        BandwidthModel {
            id_bytes: 16,
            timestamp_bytes: 4,
            signed_entry_bytes: 144,
            path_summary_bytes: 1,
            leaf_entries: 16,
            stripes_per_pair: 100,
            packets_per_stripe: 2,
            probe_packet_bytes: 30,
        }
    }
}

impl BandwidthModel {
    /// Expected routing-state entries in an overlay of `n` nodes:
    /// μ_φ + the leaf-set size.
    pub fn expected_entries(&self, n: usize) -> f64 {
        OccupancyModel::new(IdSpace::DEFAULT, n).mean_occupied() + self.leaf_entries as f64
    }

    /// Bytes to advertise the expected routing table in an `n`-node
    /// overlay.
    pub fn expected_routing_state_bytes(&self, n: usize) -> f64 {
        self.expected_entries(n)
            * (self.signed_entry_bytes + self.path_summary_bytes) as f64
    }

    /// Outgoing bytes for one heavyweight striped probe of a tree with
    /// `leaves` leaves: `C(leaves, 2) · stripes · packets · packet bytes`.
    pub fn heavyweight_probe_bytes(&self, leaves: u64) -> u64 {
        let pairs = leaves * leaves.saturating_sub(1) / 2;
        pairs * self.stripes_per_pair * self.packets_per_stripe * self.probe_packet_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: f64 = 1024.0 * 1024.0;

    #[test]
    fn hundred_k_overlay_has_77_entries() {
        let m = BandwidthModel::default();
        let entries = m.expected_entries(100_000);
        assert!(
            (entries - 77.0).abs() < 2.0,
            "expected ≈77 entries, got {entries}"
        );
    }

    #[test]
    fn advertised_table_is_about_11_5_kb() {
        // "an entire advertised routing table is about 11.5 kilobytes"
        let m = BandwidthModel::default();
        let bytes = m.expected_routing_state_bytes(100_000);
        assert!(
            (10_500.0..12_500.0).contains(&bytes),
            "table size {bytes} B"
        );
    }

    #[test]
    fn heavyweight_probe_is_about_16_7_mib() {
        // "Probing an entire tree will require 16.7 MB of outgoing network
        // traffic" (77 peers, 100 stripes/pair, 2 packets, 30 bytes).
        let m = BandwidthModel::default();
        let bytes = m.heavyweight_probe_bytes(77) as f64;
        assert!(
            (bytes / MIB - 16.7).abs() < 0.2,
            "heavyweight probing {} MiB",
            bytes / MIB
        );
    }

    #[test]
    fn costs_scale_with_tree_size() {
        let m = BandwidthModel::default();
        assert!(m.heavyweight_probe_bytes(20) < m.heavyweight_probe_bytes(77));
        assert_eq!(m.heavyweight_probe_bytes(0), 0);
        assert_eq!(m.heavyweight_probe_bytes(1), 0);
    }

    #[test]
    fn entry_arithmetic() {
        let m = BandwidthModel::default();
        // id + timestamp fit inside the signed entry.
        assert!(m.id_bytes + m.timestamp_bytes <= m.signed_entry_bytes);
    }
}
