//! The failing path of the DST engine, pinned byte for byte. Honest sweeps
//! never reach a `Violation`, so every other pinned digest exercises only
//! the passing path. This plants the constant-1.0 blame mutant on
//! `dst_world(77)` — oracle on (`BlameOracle`), oracle off
//! (`FalseAccusation`), then the shrink of the second — and compares what
//! the engine reports with `fixtures/failing_cases.golden`, recorded at
//! c36bfef.

use std::fmt::Write as _;

use concilium::blame::LinkEvidence;
use concilium_sim::{
    dst_world, explore_jobs, run_episode, shrink, EpisodeConfig, EpisodeOptions, FailingCase,
    SimWorld,
};

fn broken_blame(_: &[LinkEvidence], _: f64) -> f64 {
    1.0
}

/// One block per failing case: what broke, the replayed episode's own
/// counters, and the whole reproducer.
fn render_case(world: &SimWorld, case: &FailingCase, opts: &EpisodeOptions, out: &mut String) {
    let replay = run_episode(world, &case.config, case.seed, opts);
    assert_eq!(replay.trace_hash, case.trace_hash, "{}: replay diverged", case.name);
    let _ = writeln!(out, "arm: {}", case.name);
    let _ = writeln!(out, "seed: {}", case.seed);
    let _ = writeln!(out, "violation: {}", case.violation);
    let _ = writeln!(out, "trace_hash: {}", case.trace_hash);
    let _ = writeln!(out, "stats: {:?}", replay.stats);
    let _ = writeln!(out, "reproducer:\n{}", case.reproducer());
}

/// The standard grid × seeds 0..32 under `opts`: the sweep's own figures,
/// then its failing case.
fn render_sweep(world: &SimWorld, opts: &EpisodeOptions, out: &mut String) -> FailingCase {
    let seeds: Vec<u64> = (0..32).collect();
    let sweep = explore_jobs(world, &EpisodeConfig::standard_grid(), &seeds, opts, 1);
    let failure = sweep.failure.expect("the planted mutant must be caught");
    let _ = writeln!(out, "episodes_run: {}", sweep.episodes_run);
    let _ = writeln!(out, "trace_digest: {}", sweep.trace_digest);
    let _ = writeln!(out, "totals: {:?}", sweep.totals);
    render_case(world, &failure, opts, out);
    failure
}

#[test]
fn planted_failures_match_the_golden_fixture() {
    let world = dst_world(77);
    let mut out = String::new();

    let oracle_on = EpisodeOptions { blame_fn: broken_blame, ..EpisodeOptions::default() };
    out.push_str("== blame-oracle\n");
    render_sweep(&world, &oracle_on, &mut out);

    let oracle_off = EpisodeOptions { check_blame_oracle: false, ..oracle_on };
    out.push_str("== false-accusation\n");
    let failure = render_sweep(&world, &oracle_off, &mut out);

    out.push_str("== false-accusation shrunk\n");
    render_case(&world, &shrink(&world, &failure, &oracle_off), &oracle_off, &mut out);

    assert_eq!(out, include_str!("../fixtures/failing_cases.golden"));
}
