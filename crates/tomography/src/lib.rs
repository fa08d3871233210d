//! Collaborative network tomography for the Concilium reproduction (§3.2–3.3).
//!
//! Each host H is connected to its routing peers by IP links that induce a
//! communication tree T_H rooted at H; the forest F_H unions H's tree with
//! the trees of its routing peers. Hosts probe their own trees with
//! striped unicast probes (Duffield et al.) and exchange signed snapshots
//! of the results, giving every host a collaborative map of link quality
//! across its forest.
//!
//! * [`ProbeTree`] / [`LogicalTree`] — the tree induced by the IP paths
//!   from a root to its routing peers, and its collapsed logical form
//!   (branching points only) on which inference runs.
//! * [`Forest`] — the union of trees with per-link coverage counts
//!   (Figure 4's "vouching peers").
//! * [`probe`] — striped-unicast probe simulation: per-stripe link
//!   outcomes shared across back-to-back packets, emulating multicast.
//! * [`infer`] — the MINC maximum-likelihood estimator recovering
//!   per-edge pass rates from leaf acknowledgment patterns: one
//!   bit-packed kernel behind [`infer_pass_rates`] (complete records)
//!   and [`infer_pass_rates_tolerant`] (partial records), each with a
//!   `_batch` form that reuses an [`InferScratch`] across a verdict
//!   window.
//! * [`snapshot`] — signed, timestamped tomographic snapshots with the
//!   compact loss-bucket encoding of §4.4.
//! * [`feedback`] — defences against lying leaves: probe nonces and the
//!   Arya-style consistency test that flags leaves suppressing
//!   acknowledgments.
//! * [`identify`] — Boolean-tomography identifiability: which link
//!   subsets the probe/route matrix can distinguish at all, as ambiguity
//!   classes bounding how finely any inference may assign blame.
//! * [`PartialProbeRecord`] / [`infer_pass_rates_tolerant`] — inference
//!   under *missing* feedback: stripes whose acknowledgment fate is
//!   unknown (lost acks, crashed leaves) are discounted rather than
//!   misread as loss, with [`TomographyError`] replacing panics on
//!   malformed protocol input.
//!
//! # Examples
//!
//! ```
//! use concilium_tomography::{ProbeTree, probe::simulate_stripes, infer::infer_pass_rates};
//! use concilium_topology::IpPath;
//! use concilium_types::{Id, LinkId, RouterId};
//! use rand::SeedableRng;
//!
//! // Root r0 with two leaves behind a shared link l0.
//! let paths = vec![
//!     (Id::from_u64(1), IpPath::new(vec![RouterId(0), RouterId(1), RouterId(2)],
//!                                   vec![LinkId(0), LinkId(1)])),
//!     (Id::from_u64(2), IpPath::new(vec![RouterId(0), RouterId(1), RouterId(3)],
//!                                   vec![LinkId(0), LinkId(2)])),
//! ];
//! let tree = ProbeTree::from_paths(RouterId(0), paths).unwrap();
//! let logical = tree.logical();
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(5);
//! let record = simulate_stripes(&logical, &|_| 0.95, 4_000, &mut rng);
//! let rates = infer_pass_rates(&logical, &record).unwrap();
//! for edge in 0..logical.num_edges() {
//!     assert!((rates.edge_pass_rate(edge) - 0.95).abs() < 0.03);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]
#![warn(missing_docs)]

pub mod delta;
mod error;
pub mod feedback;
mod forest;
pub mod identify;
pub mod infer;
pub mod oracle;
pub mod probe;
pub mod schedule;
pub mod snapshot;
mod tree;

pub use error::TomographyError;
pub use forest::Forest;
pub use identify::AmbiguityClasses;
pub use infer::{
    infer_pass_rates, infer_pass_rates_batch, infer_pass_rates_tolerant,
    infer_pass_rates_tolerant_batch, InferScratch,
};
pub use probe::PartialProbeRecord;
pub use snapshot::{LinkObservation, LossBucket, TomographySnapshot};
pub use tree::{LogicalTree, ProbeTree, TreeError};
