//! Deterministic observability for the Concilium reproduction.
//!
//! Three instruments, with sharply different relationships to the
//! determinism contract (DESIGN.md §12):
//!
//! - **Structured tracing** ([`Trace`], [`TraceEvent`]): typed protocol
//!   events timestamped in *virtual* time. Traces are bit-identical
//!   across worker counts; their canonical u64 encodings
//!   ([`TraceEvent::hash_fields`]) are what the simulator's per-kind
//!   trace fingerprint consumes, so the trace *is* the digest's input,
//!   not a side channel.
//! - **Metrics** ([`Registry`]): named counters/gauges/histograms with
//!   deterministic (sorted) ordering. Deterministic exactly when their
//!   inputs are — per-episode protocol counters reproduce exactly;
//!   process-wide cache statistics do not and must stay out of digests.
//! - **Profiling** ([`span`]): wall-clock phase timers, explicitly
//!   *outside* the contract, never hashed, off unless enabled.
//!
//! Layered on top of the trace stream, the [`causal`] module recovers
//! *why* from the *what*: correlation keys, per-entity timelines,
//! cause→effect links, and the `explain message/blame/shed` query engine
//! — all pure functions of the event sequence, so explanations are as
//! deterministic as the traces they index.
//!
//! The crate is std-only by design: everything else in the workspace
//! links against it, including hot-path crates, so it must be free of
//! dependency cycles and build cost.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causal;
pub mod coverage;
pub mod event;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use causal::{
    entities, explain, AmbiguityNote, CausalIndex, CausalLedger, CausalOrphan, EntityKind,
    EntityRef, ExplainChain, ExplainQuery, Explanation,
};
pub use coverage::CoverageSet;
pub use event::{
    ppb, traced_from_json_line, FaultKind, LinkObsSummary, ShedReason, TraceEvent, Traced,
};
pub use metrics::{Histogram, Metric, Registry};
pub use profile::{
    profile_report_json, profile_snapshot, reset_profile, set_profiling, span, PhaseTotals,
    SpanGuard,
};
pub use trace::{Trace, DEFAULT_TRACE_CAPACITY};
