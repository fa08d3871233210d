//! The whole-system benchmark of the Concilium reproduction.
//!
//! Six named workloads, each reporting the same end-to-end metrics, plus
//! per-layer kernels and a traced run that attributes time to layers. The
//! harness only *calls* public functions of the crates; it adds no code,
//! span or switch to them. See `README.md` in this directory for the one
//! command, the workload table and the layer → end-to-end predictions.
//!
//! Two binaries share this library: the untraced one (`src/main.rs`, system
//! allocator, profiling never on) measures every end-to-end metric, and the
//! traced one (`src/bin/traced.rs`) measures every per-layer metric.

pub mod cli;
pub mod compare;
pub mod kernels;
pub mod result;
pub mod spec;
pub mod stats;
pub mod tracer;
pub mod workloads;
