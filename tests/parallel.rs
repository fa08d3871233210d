//! Determinism acceptance suite for the parallel execution layer.
//!
//! The contract (DESIGN.md §11): a sweep run at any worker count is
//! bit-identical to the serial sweep — same episodes, same aggregate
//! counters, same trace digest, and, when an invariant breaks, the same
//! first failing case with the same shrunk reproducer.

use std::sync::OnceLock;

use concilium::blame::LinkEvidence;
use concilium_sim::{
    dst_world, explore_jobs, shrink, EpisodeConfig, EpisodeOptions, InvariantKind,
    SimWorld,
};

fn world() -> &'static SimWorld {
    static WORLD: OnceLock<SimWorld> = OnceLock::new();
    WORLD.get_or_init(|| dst_world(77))
}

fn seeds(n: u64) -> Vec<u64> {
    (0..n).collect()
}

/// A broken Eq. 2–3 combinator: blames the accused path unconditionally.
fn broken_blame(_: &[LinkEvidence], _: f64) -> f64 {
    1.0
}

#[test]
fn honest_sweep_is_bit_identical_across_worker_counts() {
    let grid = EpisodeConfig::standard_grid();
    let opts = EpisodeOptions::default();
    let serial = explore_jobs(world(), &grid, &seeds(32), &opts, 1);
    let parallel = explore_jobs(world(), &grid, &seeds(32), &opts, 4);

    assert_eq!(serial.episodes_run, parallel.episodes_run);
    assert_eq!(serial.totals, parallel.totals);
    assert_eq!(
        serial.trace_digest, parallel.trace_digest,
        "jobs=1 and jobs=4 sweeps must fold identical per-episode traces"
    );
    assert!(serial.failure.is_none());
    assert!(parallel.failure.is_none());
}

#[test]
fn failing_sweep_reports_the_same_first_violation_at_any_worker_count() {
    // Disable the per-judgment oracle so the broken combinator runs long
    // enough to convict an honest host; the sweep then stops at the first
    // violating (arm, seed) cell in submission order — which must be the
    // same cell no matter how many workers raced past it.
    let opts = EpisodeOptions {
        blame_fn: broken_blame,
        check_blame_oracle: false,
        ..EpisodeOptions::default()
    };
    let grid = EpisodeConfig::standard_grid();
    let serial = explore_jobs(world(), &grid, &seeds(32), &opts, 1);
    let parallel = explore_jobs(world(), &grid, &seeds(32), &opts, 4);

    let a = serial.failure.expect("serial sweep must fail under broken blame");
    let b = parallel.failure.expect("parallel sweep must fail under broken blame");
    assert_eq!(a.name, b.name, "same failing grid arm");
    assert_eq!(a.seed, b.seed, "same failing seed");
    assert_eq!(a.violation.kind, b.violation.kind);
    assert_eq!(a.violation.kind, InvariantKind::FalseAccusation);
    assert_eq!(a.trace_hash, b.trace_hash);
    assert_eq!(a.config.to_literal(a.seed), b.config.to_literal(b.seed));

    // Identical failing cases shrink to identical reproducers.
    let sa = shrink(world(), &a, &opts);
    let sb = shrink(world(), &b, &opts);
    assert_eq!(sa.reproducer(), sb.reproducer());

    // The sweeps agree on everything that ran before the violation too:
    // both fold exactly the prefix up to and including the failing cell.
    assert_eq!(serial.episodes_run, parallel.episodes_run);
    assert_eq!(serial.totals, parallel.totals);
    assert_eq!(serial.trace_digest, parallel.trace_digest);
}

#[test]
fn jobs_resolution_prefers_explicit_over_env() {
    // Explicit beats everything; zero is ignored.
    assert_eq!(concilium_par::Jobs::resolve(Some(3)).get(), 3);
    assert!(concilium_par::Jobs::resolve(None).get() >= 1);
}

#[test]
fn cache_statistics_never_perturb_trace_digests() {
    // Hit/miss/evict counters on the hot caches are observational: a run
    // with cold caches and a run with warm ones must fold the exact same
    // digest. The signature memo is thread-local, so the serial re-run
    // below hits a warm memo that the first run populated.
    let grid = EpisodeConfig::standard_grid();
    let opts = EpisodeOptions::default();

    concilium_crypto::memo_reset();
    let cold = explore_jobs(world(), &grid, &seeds(8), &opts, 1);
    let stats_after_first = concilium_crypto::memo_stats_full();
    let warm = explore_jobs(world(), &grid, &seeds(8), &opts, 1);
    let stats_after_second = concilium_crypto::memo_stats_full();

    assert_ne!(
        stats_after_first, stats_after_second,
        "the two sweeps must have moved the cache counters"
    );
    assert_eq!(
        cold.trace_digest, warm.trace_digest,
        "cache statistics are outside the determinism contract"
    );
    assert_eq!(cold.metrics, warm.metrics, "registries never contain cache counters");
}

#[test]
fn merged_registry_is_identical_and_ordered_at_any_worker_count() {
    let grid = EpisodeConfig::standard_grid();
    let opts = EpisodeOptions::default();
    let serial = explore_jobs(world(), &grid, &seeds(16), &opts, 1);
    let parallel = explore_jobs(world(), &grid, &seeds(16), &opts, 4);

    assert_eq!(
        serial.metrics, parallel.metrics,
        "merged per-episode registries must be independent of worker count"
    );
    let keys: Vec<&str> = serial.metrics.keys().collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted, "registry iteration order is canonical (sorted)");
    assert_eq!(serial.metrics.to_json(), parallel.metrics.to_json());

    // Event-derived counters agree with the sweep's own totals.
    assert_eq!(
        serial.metrics.counter("episode.expired"),
        serial.totals.expired as u64
    );
    assert_eq!(serial.metrics.counter("episode.judged"), serial.totals.judged as u64);
}

#[test]
fn trace_jsonl_export_is_byte_identical_across_worker_counts() {
    let grid = EpisodeConfig::standard_grid();
    let opts = EpisodeOptions { collect_traces: true, ..EpisodeOptions::default() };
    let serial = explore_jobs(world(), &grid, &seeds(4), &opts, 1);
    let parallel = explore_jobs(world(), &grid, &seeds(4), &opts, 4);

    let render = |out: &concilium_sim::ExploreOutcome| {
        let mut jsonl = String::new();
        for et in &out.traces {
            jsonl.push_str(
                &et.trace
                    .to_jsonl(&[("episode", &et.name), ("seed", &et.seed.to_string())]),
            );
        }
        jsonl
    };
    let a = render(&serial);
    let b = render(&parallel);
    assert!(!a.is_empty(), "collect_traces must populate the export");
    assert_eq!(a, b, "--trace-out JSONL must be byte-identical at any --jobs value");
}
