//! Discrete-event simulation of a secure overlay atop a failing Internet
//! (§4.2 of the paper).
//!
//! "The simulator modeled link failure, tomographic probing, the
//! collaborative dissemination of probe results, and three types of
//! message events (message sent, message acknowledged, message not
//! acknowledged). The simulator placed a Pastry overlay atop an IP
//! topology... 5% of links were bad at any moment... Simulations lasted
//! for two virtual hours."
//!
//! This crate provides:
//!
//! * [`EventQueue`] — a generic discrete-event queue with a virtual clock:
//!   a binary heap popping in exact `(time, insertion order)` order, the
//!   order every trace digest depends on.
//! * [`SimConfig`] — all evaluation parameters, with presets matching the
//!   paper ([`SimConfig::paper_scale`]) and fast test sizes.
//! * [`SimWorld`] — the assembled world: topology, overlay, per-host probe
//!   trees, the full two-hour link-failure history, and every host's
//!   probe archive (per-link up/down observations at the paper's 90%
//!   accuracy), and the link → voucher index that answers Eq. 3's "who
//!   probed this link" for a whole B→C path in one query
//!   ([`SimWorld::path_evidence`] into a reusable [`PathEvidence`]).
//! * [`AdversarySets`] — which hosts drop messages, collude on probe
//!   results, withhold acks, delay snapshots, or replay stale ones.
//! * [`FaultPlan`] — seeded, deterministic fault injection: message drop,
//!   latency, duplication, reordering, and crash/restart churn.
//! * [`Histogram`] — the blame-PDF accumulator used by Figure 5.
//! * [`invariants`] — whole-system invariant checkers and direct-evaluation
//!   oracles (Eq. 2–3 blame, binomial verdict tail) for simulation testing.
//! * [`explorer`] — deterministic simulation testing: seeded fault-plan
//!   episodes running the full diagnose–accuse–revise pipeline, a seed ×
//!   configuration sweep ([`explore_jobs`]), and counterexample shrinking
//!   ([`shrink`]) down to a copy-pasteable reproducer.
//! * [`mod@fuzz`] — coverage-guided scenario fuzzing: a seeded loop mutating
//!   episode configurations toward novel trace/metric coverage, with a
//!   replayable corpus, coverage-preserving shrinking, and the AS-like
//!   shared-bottleneck world ([`bottleneck_world`]).
//!
//! # Examples
//!
//! ```
//! use concilium_sim::{SimConfig, SimWorld};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let world = SimWorld::build(SimConfig::tiny(), &mut rng);
//! assert!(world.num_hosts() >= 4);
//! // Every host has a probe tree over its routing peers.
//! assert!(world.tree(0).num_leaves() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod archive;
mod behavior;
mod config;
mod engine;
mod evidence;
pub mod explorer;
mod failhist;
pub mod faults;
pub mod fuzz;
pub mod invariants;
mod metrics;
mod world;

pub use archive::ProbeArchive;
pub use behavior::{AdversarySets, HostSet};
pub use config::SimConfig;
pub use engine::{EventQueue, ScheduleError};
pub use evidence::PathEvidence;
pub use explorer::{
    dst_world, explore_jobs, run_episode, shrink, EpisodeConfig, EpisodeOptions,
    EpisodeReport, EpisodeStats, EpisodeTrace, ExploreOutcome, FailingCase,
};
pub use failhist::IndexedHistory;
pub use faults::{
    BurstConfig, ChurnConfig, FaultConfig, FaultError, FaultPlan, MessageFate, StormConfig,
};
pub use fuzz::{
    bottleneck_world, episode_coverage, fuzz, grid_coverage, CorpusEntry, FuzzConfig, FuzzOutcome,
    WorldKind,
};
pub use invariants::{check_serve_conservation, InvariantKind, TraceHasher, Violation};
pub use metrics::Histogram;
pub use world::{RouteFate, SimWorld, ADAPTIVE_GUARD};
