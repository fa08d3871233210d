//! Deterministic-simulation-testing acceptance suite.
//!
//! Drives the seeded fault-plan explorer end to end: an honest 32-seed
//! sweep over the standard fault grid must satisfy every whole-system
//! invariant, episodes must replay bit-identically, and a deliberately
//! broken blame combinator must be caught — by the direct Eq. 2–3 oracle
//! when it is enabled, and by the no-false-blame invariant (with a shrunk,
//! copy-pasteable reproducer) when it is not.

use std::sync::OnceLock;

use concilium::blame::LinkEvidence;
use concilium_sim::{
    dst_world, explore_jobs, run_episode, shrink, EpisodeConfig, EpisodeOptions, InvariantKind,
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
fn honest_sweep_satisfies_all_invariants() {
    let grid = EpisodeConfig::standard_grid();
    let out = explore_jobs(world(), &grid, &seeds(32), &EpisodeOptions::default(), 1);
    assert_eq!(out.episodes_run, 32 * grid.len());
    if let Some(failure) = &out.failure {
        panic!("honest sweep violated an invariant:\n{}", failure.reproducer());
    }
    // The sweep must actually exercise the protocol, not vacuously pass.
    assert!(out.totals.sent > 0);
    assert!(out.totals.expired > 0, "fault grid must expire some messages");
    assert!(out.totals.judged > 0, "expiries must produce verdicts");
}

#[test]
fn episodes_replay_bit_identically() {
    let opts = EpisodeOptions::default();
    for (name, cfg) in EpisodeConfig::standard_grid() {
        let a = run_episode(world(), &cfg, 5, &opts);
        let b = run_episode(world(), &cfg, 5, &opts);
        assert_eq!(
            a.trace_hash, b.trace_hash,
            "{name}: same seed and configuration must replay bit-identically"
        );
        assert_eq!(a.stats.sent, b.stats.sent);
        assert_eq!(a.stats.settled, b.stats.settled);
        assert_eq!(a.stats.expired, b.stats.expired);
    }
}

#[test]
fn trace_ring_capacity_never_feeds_the_digest() {
    // Capacity 0 still hashes, counts and causally checks every event; it
    // only stops retaining them. Retention must be invisible to the digest.
    let retained = EpisodeOptions::default();
    let unretained = EpisodeOptions { trace_capacity: 0, ..EpisodeOptions::default() };
    for (name, cfg) in EpisodeConfig::standard_grid() {
        let on = run_episode(world(), &cfg, 0, &retained);
        let off = run_episode(world(), &cfg, 0, &unretained);
        assert_eq!(
            on.trace_hash, off.trace_hash,
            "{name}: trace ring capacity changed the digest"
        );
    }
}

#[test]
fn blame_oracle_catches_broken_combinator() {
    let opts = EpisodeOptions { blame_fn: broken_blame, ..EpisodeOptions::default() };
    let out = explore_jobs(world(), &EpisodeConfig::standard_grid(), &seeds(32), &opts, 1);
    let failure = out.failure.expect("the Eq. 2–3 oracle must flag a constant-1.0 combinator");
    assert_eq!(failure.violation.kind, InvariantKind::BlameOracle);
}

#[test]
fn false_blame_invariant_catches_broken_combinator_and_shrinks() {
    // Disable the per-judgment oracle so the broken combinator runs long
    // enough to convict an honest host, exercising the end-to-end
    // no-false-blame invariant and the shrinker.
    let opts = EpisodeOptions {
        blame_fn: broken_blame,
        check_blame_oracle: false,
        ..EpisodeOptions::default()
    };
    let out = explore_jobs(world(), &EpisodeConfig::standard_grid(), &seeds(32), &opts, 1);
    let failure = out
        .failure
        .expect("a combinator that always blames must eventually convict an honest host");
    assert_eq!(failure.violation.kind, InvariantKind::FalseAccusation);

    let shrunk = shrink(world(), &failure, &opts);
    assert_eq!(shrunk.violation.kind, InvariantKind::FalseAccusation);
    assert!(
        shrunk.config.active_dimensions() <= 2,
        "shrinking must reduce the reproducer to at most 2 active fault dimensions, got {}:\n{}",
        shrunk.config.active_dimensions(),
        shrunk.reproducer()
    );

    // The reproducer must be self-contained: the seed and every knob.
    let repro = shrunk.reproducer();
    assert!(repro.contains(&format!("// seed: {}", shrunk.seed)));
    assert!(repro.contains("EpisodeConfig {"));
    assert!(repro.contains("drop_probability"));
    assert!(repro.contains(&shrunk.trace_hash));

    // The reproducer carries the violating run's virtual-time event trace:
    // the causal tail ends at the false accusation left standing.
    assert!(
        repro.contains("// events leading to the violation:"),
        "reproducer must embed the structured trace:\n{repro}"
    );
    assert!(
        repro.contains("standing"),
        "the trace tail must show the culprit left standing:\n{repro}"
    );
    assert!(!shrunk.trace.is_empty(), "the failing case keeps its trace");
    let last = shrunk
        .trace
        .events()
        .last()
        .expect("non-empty trace")
        .render();
    assert!(
        last.starts_with('['),
        "events render with a virtual timestamp, got: {last}"
    );

    // And it must replay deterministically: two fresh runs of the shrunk
    // case give the same trace hash and the same violation kind.
    let a = run_episode(world(), &shrunk.config, shrunk.seed, &opts);
    let b = run_episode(world(), &shrunk.config, shrunk.seed, &opts);
    assert_eq!(a.trace_hash, b.trace_hash);
    assert_eq!(a.trace_hash, shrunk.trace_hash);
    assert_eq!(
        a.violation.expect("shrunk case must still fail").kind,
        InvariantKind::FalseAccusation
    );
    assert_eq!(
        b.violation.expect("shrunk case must still fail").kind,
        InvariantKind::FalseAccusation
    );
}

#[test]
fn episode_metrics_round_trip_and_match_bookkeeping() {
    let opts = EpisodeOptions::default();
    let report = run_episode(world(), &EpisodeConfig::lossy(), 11, &opts);
    assert!(report.violation.is_none(), "{:?}", report.violation);

    // Event-derived counters agree with the episode's own bookkeeping
    // (the in-episode metrics-conservation invariant enforces the full
    // set; spot-check the mapping here).
    assert_eq!(report.metrics.counter("episode.expired"), report.stats.expired as u64);
    assert_eq!(report.metrics.counter("episode.judged"), report.stats.judged as u64);
    assert_eq!(
        report.metrics.counter("episode.retries") > 0,
        report.stats.expired > 0,
        "a lossy episode retries before expiring"
    );

    // The registry survives a JSON round-trip exactly, including the
    // queue-pressure gauge.
    let json = report.metrics.to_json();
    let back = concilium_obs::Registry::from_json(&json)
        .expect("registry JSON must parse back");
    assert_eq!(back, report.metrics);
    assert!(report.metrics.gauge("queue.depth_high_water").unwrap_or(0.0) > 0.0);
}
