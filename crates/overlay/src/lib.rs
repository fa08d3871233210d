//! Secure Pastry-style overlay substrate for the Concilium reproduction.
//!
//! Implements the secure structured overlay of §2 of the paper (after
//! Castro et al., OSDI '02) together with Concilium's own routing-state
//! validation from §3.1:
//!
//! * [`LeafSet`] — the peers numerically closest to the local identifier,
//!   with the spacing statistics behind Castro's leaf-set density test and
//!   the network-size estimator (Mahajan et al.).
//! * [`JumpTable`] — the prefix-routing table. In the secure variant, the
//!   entry in row *i*, column *j* must be the online host whose identifier
//!   is closest to point *p* (the local identifier with digit *i*
//!   substituted by *j*).
//! * [`occupancy`] — the paper's analytic occupancy model: Eq. 1, the
//!   Poisson-binomial mean/variance, the normal approximation
//!   φ(μ_φ, σ_φ), the false-positive/false-negative equations of §4.1, and
//!   the γ optimiser (Figures 1–3).
//! * [`montecarlo`] — Monte-Carlo sampling of real table occupancy, the
//!   empirical side of Figure 1.
//! * [`density`] — the leaf-set and jump-table density tests themselves.
//! * [`freshness`] — signed freshness timestamps on jump-table entries,
//!   defeating inflation attacks that replay identifiers of departed hosts.
//! * [`OverlayNode`] / [`build_overlay`] — per-node routing state
//!   constructed from the global membership, plus prefix routing
//!   (secure and proximity-aware standard variants).
//!
//! # Examples
//!
//! ```
//! use concilium_overlay::occupancy::OccupancyModel;
//! use concilium_types::IdSpace;
//!
//! // Expected occupied slots in a 1,131-node overlay (Fig. 1 model).
//! let model = OccupancyModel::new(IdSpace::DEFAULT, 1_131);
//! let mean = model.mean_occupied();
//! assert!(mean > 28.0 && mean < 45.0);
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod density;
pub mod freshness;
mod jump_table;
mod leaf_set;
mod membership;
pub mod montecarlo;
mod node;
pub mod occupancy;
mod stats;

pub use jump_table::{JumpTable, JumpTableEntry, JumpTableViolation};
pub use leaf_set::LeafSet;
pub use membership::{build_overlay, Membership};
pub use node::{compute_route, NextHop, OverlayNode, RoutingMode};
pub use stats::normal_cdf;
