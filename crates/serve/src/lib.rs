//! `concilium-serve`: the crash-safe, overload-tolerant diagnosis daemon.
//!
//! Everything before this crate ran Concilium's machinery episodically —
//! one seeded episode, one verdict pass, exit. This crate runs it as a
//! *service*: a long-lived daemon ingesting a stream of message-failure
//! reports, batching blame evaluation (Eqs. 2–3) across reports that
//! share an evidence window, and maintaining verdict windows plus the
//! accusation ledger online. The three robustness pillars:
//!
//! - **Backpressure** ([`mailbox`]): a bounded ingest queue with
//!   deadline-based admission control. Overload sheds deterministically
//!   with typed reasons — never silent drops.
//! - **Journaled recovery** ([`journal`], [`state`]): every state
//!   mutation is a checksummed write-ahead record; a crash at any byte
//!   boundary recovers by truncate-to-commit and idempotent replay, to
//!   byte-identical state.
//! - **Supervision** ([`supervisor`]): panic capture with a bounded
//!   restart budget, escalating to degraded read-only mode when spent.
//!
//! The [`chaos`] module wires kill/recover schedules into the DST
//! style: for every seed, a chaos-ridden run must leave the same
//! journal and state digests as an uninterrupted one, at any `--jobs`.
//!
//! The crate is under every determinism rule (DESIGN.md §13): no wall-clock,
//! no `unwrap`/`expect`/`panic!` (outside the two explicit chaos
//! injection points), no iteration-order-dependent hashing.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod chaos;
pub mod daemon;
pub mod flight;
pub mod journal;
pub mod mailbox;
pub mod report;
pub mod state;
pub mod supervisor;
pub mod workload;

pub use chaos::{chaos_episode, chaos_plan, chaos_sweep, ChaosOutcome, ChaosSweepReport};
pub use daemon::{Counters, Daemon, Health, PanicSite, RecoveryStats};
pub use flight::{records_to_traced, FlightEntry, FlightRecorder, FLIGHT_CAPACITY, PANIC_FLUSH};
pub use journal::{records_digest, Journal, Record, Recovery, SharedStore};
pub use mailbox::Mailbox;
pub use report::{FailureReport, LinkObs};
pub use state::{Filing, ServeState};
pub use supervisor::{KillPoint, SupervisedRun, Supervisor};
pub use workload::{Shape, WorkloadSpec};

use concilium_types::SimDuration;

/// Daemon configuration: service-time model, admission policy, verdict
/// quota, placement, and supervision budget.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeConfig {
    /// Bounded mailbox capacity (reports).
    pub mailbox_capacity: usize,
    /// Admission deadline: a report predicted to wait longer is shed.
    pub admission_deadline: SimDuration,
    /// Fixed service cost per report evaluation.
    pub base_service: SimDuration,
    /// Additional service cost per probe observation in the evidence.
    pub per_observation: SimDuration,
    /// Reports whose evidence timestamps fall within this window are
    /// batched into one evaluation pass.
    pub evidence_window: SimDuration,
    /// Verdict window capacity `w` (paper §5).
    pub window_capacity: usize,
    /// Guilty-verdict quota `m`: crossing it files a formal accusation.
    pub accuse_threshold: usize,
    /// Probe accuracy fed to the Eq. 2–3 blame combinator.
    pub accuracy: f64,
    /// Blame threshold above which a verdict is guilty.
    pub blame_threshold: f64,
    /// Overlay population size for accusation placement.
    pub members: usize,
    /// DHT replication factor for filed accusations.
    pub replication: usize,
    /// Restarts the supervisor allows before degrading to read-only.
    pub restart_budget: usize,
    /// Trace ring capacity.
    pub trace_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            mailbox_capacity: 64,
            admission_deadline: SimDuration::from_secs(2),
            base_service: SimDuration::from_millis(20),
            per_observation: SimDuration::from_millis(1),
            evidence_window: SimDuration::from_millis(500),
            window_capacity: 20,
            accuse_threshold: 3,
            accuracy: 0.9,
            blame_threshold: 0.5,
            members: 32,
            replication: 3,
            restart_budget: 3,
            trace_capacity: 2048,
        }
    }
}
