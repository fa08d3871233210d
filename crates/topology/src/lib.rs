//! Router-level Internet topology substrate for the Concilium reproduction.
//!
//! The paper's evaluation (§4.2) places a Pastry overlay atop an IP
//! topology gathered by the SCAN project: 112,969 routers connected by
//! 181,639 links, with end hosts defined as routers with only one link.
//! The SCAN dataset is not available here, so this crate provides:
//!
//! * [`Graph`] — an undirected router-level graph with dense router/link
//!   indices.
//! * [`TransitStubConfig`] / [`generate`] — a synthetic transit-stub
//!   topology generator whose [`TransitStubConfig::paper_scale`] preset
//!   approximates the SCAN counts and, more importantly, reproduces the
//!   structural property the experiments depend on: a highly shared core
//!   plus many degree-1 last-mile links.
//! * [`BfsTree`] / [`IpPath`] — single-source shortest-path routing and the
//!   router/link paths that overlay hosts learn (the RocketFuel substitute);
//!   [`MultiBfs`] for searching from many sources: 64 bit-parallel
//!   searches per pass over the graph, each pass kept as a [`BfsPass`] of
//!   levels mod 4, and each source's paths to a few targets from a search
//!   over only their shortest-path ancestors — equal to
//!   [`BfsTree::path_to`], without a per-router array per source.
//! * [`LinkStatus`] / [`FailureModel`] — the link-failure process of §4.2:
//!   a target fraction of links down at any moment, normally distributed
//!   downtimes, and Beta(0.9, 0.6)-distributed failure depth biased toward
//!   the network edge.
//!
//! # Examples
//!
//! ```
//! use concilium_topology::{generate, TransitStubConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let topo = generate(&TransitStubConfig::tiny(), &mut rng);
//! assert!(topo.graph.is_connected());
//! assert!(!topo.end_hosts.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod failure;
mod gen;
mod graph;
mod path;
mod routing;

pub use cache::{CacheStats, PathCache};
pub use failure::{FailureModel, FailureModelConfig, LinkStatus, PendingRepair};
pub use gen::{generate, Topology, TransitStubConfig};
pub use graph::{Graph, GraphBuilder};
pub use path::IpPath;
pub use routing::{BfsPass, BfsTree, MultiBfs};
