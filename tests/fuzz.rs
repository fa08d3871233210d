//! Acceptance suite for the coverage-guided scenario fuzzer.
//!
//! Four contracts, mirroring DESIGN.md §15:
//!
//! 1. **Corpus regression** — every committed entry under `tests/corpus/`
//!    parses, replays on its recorded world to its recorded trace hash and
//!    its recorded novel coverage buckets, and does so bit-identically
//!    whether the batch is replayed serially or fanned out over four
//!    `concilium-par` workers.
//! 2. **Coverage beats the grid** — a fixed seed and budget reach
//!    strictly more coverage buckets than the static four-arm grid given
//!    the same episode count.
//! 3. **Negative control** — re-planting the constant-1.0 blame mutant
//!    must produce a violating episode within a small CI budget.
//! 4. **Round trips** — `FailingCase::reproducer()` /
//!    `EpisodeConfig::to_literal` output parses back and replays to the
//!    same trace hash, and `EpisodeStats::absorb` is order-insensitive.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use concilium::blame::LinkEvidence;
use concilium_sim::{
    dst_world, episode_coverage, fuzz, grid_coverage, run_episode, CorpusEntry, EpisodeConfig,
    EpisodeOptions, EpisodeStats, FuzzConfig, InvariantKind, SimWorld, WorldKind,
};

fn dst() -> &'static SimWorld {
    static WORLD: OnceLock<SimWorld> = OnceLock::new();
    WORLD.get_or_init(|| dst_world(77))
}

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn load_corpus() -> Vec<(String, CorpusEntry, WorldKind, u64)> {
    let mut entries = Vec::new();
    let dir = corpus_dir();
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|d| d.expect("corpus dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "corpus"))
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let (entry, world, world_seed) = CorpusEntry::parse(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        entries.push((path.display().to_string(), entry, world, world_seed));
    }
    entries
}

/// The deliberately broken combinator: every judged hop maximally guilty.
fn broken_blame(_: &[LinkEvidence], _: f64) -> f64 {
    1.0
}

/// Contract 1: every committed corpus entry replays to its recorded trace
/// hash, and the whole batch replays bit-identically at 1 and 4 workers.
#[test]
fn corpus_replays_bit_identically_at_any_worker_count() {
    let entries = load_corpus();
    assert!(
        entries.len() >= 5,
        "the committed corpus must hold at least 5 episodes, found {}",
        entries.len()
    );
    // Build each referenced world once.
    let mut worlds: BTreeMap<(&'static str, u64), SimWorld> = BTreeMap::new();
    for (_, _, world, world_seed) in &entries {
        worlds
            .entry((world.name(), *world_seed))
            .or_insert_with(|| world.build(*world_seed));
    }
    let opts = EpisodeOptions::default();
    let replay = |jobs: usize| -> Vec<String> {
        concilium_par::par_map(jobs, &entries, |_, (_, entry, world, world_seed)| {
            let w = &worlds[&(world.name(), *world_seed)];
            run_episode(w, &entry.config, entry.seed, &opts).trace_hash
        })
    };
    let serial = replay(1);
    let fanned = replay(4);
    assert_eq!(serial, fanned, "corpus replay must not depend on worker count");
    for ((path, entry, _, _), hash) in entries.iter().zip(&serial) {
        assert_eq!(
            hash, &entry.trace_hash,
            "{path}: replay diverged from the recorded trace hash"
        );
    }
    // Replayed corpus episodes are regressions: they must still pass, and
    // still exercise every bucket id their `// novel-buckets:` header
    // recorded (the ids are a function of the coverage fold's hashing).
    for (path, entry, world, world_seed) in &entries {
        let w = &worlds[&(world.name(), *world_seed)];
        let report = run_episode(w, &entry.config, entry.seed, &opts);
        assert!(
            report.violation.is_none(),
            "{path}: corpus episode now violates an invariant: {:?}",
            report.violation
        );
        assert!(!entry.novel.is_empty(), "{path}: no novel buckets recorded");
        let coverage = episode_coverage(&report);
        for &bucket in &entry.novel {
            assert!(
                coverage.contains(bucket),
                "{path}: replay no longer reaches recorded bucket {bucket:#018x}"
            );
        }
    }
}

/// Contract 2: with a fixed seed and budget, the fuzzer reaches strictly
/// more coverage buckets than the static four-arm grid does with the same
/// number of episodes.
#[test]
fn fuzzer_beats_static_grid_coverage() {
    let world = dst();
    let opts = EpisodeOptions { tomography_stripes: 60, ..EpisodeOptions::default() };
    let budget = 32;
    let out = fuzz(
        world,
        &FuzzConfig {
            budget,
            seed: 5,
            jobs: 2,
            batch: 8,
            shrink_corpus: false,
            max_corpus: 64,
        },
        &opts,
    );
    assert!(out.failures.is_empty(), "honest fuzz run must pass: {:?}", out.failures);
    let grid = EpisodeConfig::standard_grid();
    let seeds: Vec<u64> = (0..(budget as u64 / grid.len() as u64)).collect();
    let grid_cov = grid_coverage(world, &grid, &seeds, &opts);
    assert!(
        out.coverage.len() > grid_cov.len(),
        "fuzzer must beat the grid: fuzz {} buckets vs grid {}",
        out.coverage.len(),
        grid_cov.len()
    );
    let fuzz_only = grid_cov.novelty_of(&out.coverage);
    assert!(
        fuzz_only > 0,
        "the extended families must exercise buckets the grid cannot reach"
    );
}

/// Contract 3 (negative control): the constant-1.0 blame mutant is found
/// within a small CI budget, and the shrunk finding still reproduces.
#[test]
fn fuzzer_catches_replanted_blame_mutant() {
    let world = dst();
    let opts = EpisodeOptions {
        blame_fn: broken_blame,
        tomography_stripes: 60,
        ..EpisodeOptions::default()
    };
    let out = fuzz(
        world,
        &FuzzConfig {
            budget: 12,
            seed: 3,
            jobs: 2,
            batch: 8,
            shrink_corpus: false,
            max_corpus: 8,
        },
        &opts,
    );
    assert!(
        !out.failures.is_empty(),
        "planted constant-1.0 blame mutant must be caught within 12 episodes"
    );
    let case = &out.failures[0];
    assert_eq!(case.violation.kind, InvariantKind::BlameOracle);
    // The shrunk case still reproduces the same violation kind.
    let report = run_episode(world, &case.config, case.seed, &opts);
    assert_eq!(
        report.violation.as_ref().map(|v| v.kind),
        Some(InvariantKind::BlameOracle),
        "shrunk reproducer must still fail the same way"
    );
}

/// Contract 4a: a `FailingCase::reproducer()` document — headers, config
/// literal, and the rendered event trace — parses back and replays to the
/// same trace hash.
#[test]
fn reproducer_round_trips_to_same_trace_hash() {
    let world = dst();
    let opts = EpisodeOptions {
        blame_fn: broken_blame,
        tomography_stripes: 60,
        ..EpisodeOptions::default()
    };
    let out = fuzz(
        world,
        &FuzzConfig {
            budget: 6,
            seed: 3,
            jobs: 1,
            batch: 4,
            shrink_corpus: false,
            max_corpus: 8,
        },
        &opts,
    );
    let case = out.failures.first().expect("mutant run must fail");
    let text = case.reproducer();
    let (cfg, seed) = EpisodeConfig::parse_literal(&text)
        .expect("reproducer output must parse back");
    assert_eq!(seed, case.seed);
    let replay = run_episode(world, &cfg, seed, &opts);
    assert_eq!(
        replay.trace_hash, case.trace_hash,
        "parsed reproducer must replay to the recorded trace hash"
    );
}

/// Contract 4b: `to_literal` round-trips every extended-family preset and
/// every committed corpus configuration exactly (field-for-field, via
/// re-rendering), fuzzed values like `0.3423735262278522` included.
#[test]
fn literal_round_trips_every_preset() {
    let presets = EpisodeConfig::extended_grid().into_iter().map(|(n, c)| (n.to_string(), c));
    let corpus = load_corpus().into_iter().map(|(path, entry, ..)| (path, entry.config));
    for (name, cfg) in presets.chain(corpus) {
        let literal = cfg.to_literal(99);
        let (parsed, seed) = EpisodeConfig::parse_literal(&literal)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(seed, 99);
        assert_eq!(
            parsed.to_literal(seed),
            literal,
            "{name}: parse → render must be the identity"
        );
    }
}

/// Contract 4b': a literal with a knob out of range is refused by name
/// instead of parsing into an episode that panics (and so is a malformed
/// or unterminated one), and an episode handed such a configuration
/// directly names the knob in its panic.
#[test]
fn out_of_range_literals_are_refused_by_name() {
    let lossy = EpisodeConfig::lossy().to_literal(5);
    let churning = EpisodeConfig::churning().to_literal(5);
    let (outage, longer) = ("min_outage: SimDuration::from_micros(", "min_outage: SimDuration::from_micros(9");
    for (literal, from, to, knob) in [
        (&lossy, "\n        drop_probability: 0.15", "\n        drop_probability: 1.5", "faults.drop_probability"),
        (&lossy, "dropper_fraction: 0.0", "dropper_fraction: NaN", "dropper_fraction"),
        (&churning, outage, longer, "outage"),
        (&lossy, "flows: 6,", "flows 6,", "malformed line `flows 6,`"),
        (&lossy, "\n}", "", "unterminated"),
    ] {
        assert!(literal.contains(from), "the edit for {knob} must land");
        let text = literal.replacen(from, to, 1);
        let parsed = std::panic::catch_unwind(|| EpisodeConfig::parse_literal(&text));
        let err = parsed.expect("must not panic").expect_err("must not parse");
        assert!(err.contains(knob), "`{err}` must name {knob}");
    }
    let mut bad = EpisodeConfig::lossy();
    bad.faults.drop_probability = 1.5;
    let opts = EpisodeOptions::default();
    let panic = std::panic::catch_unwind(|| run_episode(dst(), &bad, 5, &opts));
    let message = panic.expect_err("an invalid configuration cannot run");
    let message = message.downcast::<String>().expect("a formatted panic message");
    assert!(message.contains("faults.drop_probability must be in [0,1], got 1.5"), "{message}");
}

/// A literal names each knob once and carries one `// seed:` header; a
/// repeat is refused by name instead of letting the last value win.
#[test]
fn repeated_fields_are_refused_by_name() {
    let lossy = EpisodeConfig::lossy().to_literal(5);
    let drop = "\n        drop_probability: 0.15,";
    for (from, to, refusal) in [
        ("flows: 6,", "flows: 6,\n    flows: 2,", "flows given twice"),
        (drop, &format!("{drop}{drop}")[..], "faults.drop_probability given twice"),
        ("// seed: 5", "// seed: 5\n// seed: 7", "`// seed:` given twice"),
    ] {
        assert!(lossy.contains(from), "the edit `{from}` must land");
        let err = EpisodeConfig::parse_literal(&lossy.replacen(from, to, 1)).expect_err(refusal);
        assert_eq!(err, refusal);
    }
}

/// Contract 4c: `EpisodeStats::absorb` is order-insensitive — merging the
/// same episode reports in any order yields identical totals.
#[test]
fn episode_stats_absorb_is_order_insensitive() {
    let world = dst();
    let opts = EpisodeOptions { tomography_stripes: 60, ..EpisodeOptions::default() };
    let reports: Vec<EpisodeStats> = [
        (EpisodeConfig::lossy(), 1u64),
        (EpisodeConfig::byzantine(), 2),
        (EpisodeConfig::bursty(), 3),
        (EpisodeConfig::churning(), 4),
    ]
    .iter()
    .map(|(cfg, seed)| run_episode(world, cfg, *seed, &opts).stats)
    .collect();
    let merge = |order: &[usize]| {
        let mut total = EpisodeStats::default();
        for &i in order {
            total.absorb(&reports[i]);
        }
        total
    };
    let forward = merge(&[0, 1, 2, 3]);
    assert_eq!(forward, merge(&[3, 2, 1, 0]));
    assert_eq!(forward, merge(&[2, 0, 3, 1]));
    assert!(forward.sent > 0);
}
