//! The tracing-overhead micro-benchmark, reported as `bench.trace.*`
//! spans in `BENCH_profile.json`.
//!
//! `dst-sweep --profile` runs it after the sweep so the committed profile
//! carries the number alongside the episode phases:
//!
//! * `bench.trace.on` / `bench.trace.off` — identical DST episodes with
//!   the structured trace ring at its default capacity versus capacity
//!   0 (events still hashed and counted, never retained), with the
//!   trace hashes asserted identical — the observability layer's
//!   retention cost, and proof the ring never feeds the digest.
//!
//! The event queue and the MLE kernel are timed by the repository
//! benchmark instead (`benchmark/`: `sim.queue_*_ns_per_op`,
//! `tomography.infer_batch_us`).
//!
//! Everything here is seeded and std-only; wall-clock time enters only
//! through the sanctioned [`concilium_obs::span`] timers.

use concilium_sim::{run_episode, EpisodeConfig, EpisodeOptions, SimWorld};

/// Aggregate outcome of [`trace_overhead`].
#[derive(Debug)]
pub struct TraceBenchReport {
    /// Episodes run per tracing mode.
    pub episodes: usize,
    /// Repetitions of the whole grid.
    pub reps: usize,
}

/// Tracing-overhead A/B: the full standard grid at `seeds` seeds, run
/// once with the trace ring at its default capacity (`bench.trace.on`)
/// and once with capacity 0 (`bench.trace.off` — events are still
/// hashed, counted, and causally checked, just never retained).
///
/// # Panics
///
/// Panics if any episode's trace hash differs between the two modes:
/// ring capacity is retention only and must never feed the digest.
pub fn trace_overhead(world: &SimWorld, seeds: u64, reps: usize) -> TraceBenchReport {
    let grid = EpisodeConfig::standard_grid();
    let on_opts = EpisodeOptions::default();
    let off_opts = EpisodeOptions { trace_capacity: 0, ..EpisodeOptions::default() };
    let mut episodes = 0;
    for _ in 0..reps {
        for (name, cfg) in &grid {
            for seed in 0..seeds {
                let on = {
                    let _span = concilium_obs::span("bench.trace.on");
                    run_episode(world, cfg, seed, &on_opts)
                };
                let off = {
                    let _span = concilium_obs::span("bench.trace.off");
                    run_episode(world, cfg, seed, &off_opts)
                };
                assert_eq!(
                    on.trace_hash, off.trace_hash,
                    "trace ring capacity changed the digest on arm {name} seed {seed}"
                );
                episodes += 1;
            }
        }
    }
    TraceBenchReport { episodes, reps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concilium_sim::dst_world;

    #[test]
    fn trace_overhead_modes_share_a_digest() {
        // The assert inside trace_overhead is the test: ring capacity 0
        // and the default capacity must hash identically.
        let world = dst_world(77);
        let report = trace_overhead(&world, 1, 1);
        assert_eq!(report.episodes, 4, "one episode per standard grid arm");
    }
}
