//! Coverage-guided scenario fuzzer (DESIGN.md §15).
//!
//! The static grid in [`EpisodeConfig::standard_grid`] exercises four
//! hand-picked fault regimes. This module *searches* the scenario space
//! instead: a seeded loop mutates episode configurations, runs full DST
//! episodes under the whole invariant suite, and keeps a corpus of the
//! episodes that exercised behaviour nothing before them did.
//!
//! *Coverage* is the [`CoverageSet`] extracted from the typed trace
//! events and metrics counters the `concilium-obs` layer records:
//! event-kind bigrams, log2-bucketed shed/retry/revision counters, and
//! verdict-window shapes. An episode is *novel* — and enters the corpus —
//! iff it exercises at least one bucket the accumulated set lacks.
//!
//! Determinism contract: a fuzz run is a pure function of
//! `(world, FuzzConfig, EpisodeOptions)`. Candidate generation happens in
//! deterministic batches on the master RNG; batch evaluation fans out via
//! `concilium-par`, whose submission-order merge makes corpus admission,
//! coverage accumulation, and every reported failure bit-identical at any
//! [`FuzzConfig::jobs`] value. Corpus entries serialize as replayable
//! [`EpisodeConfig::to_literal`] documents (committed under
//! `tests/corpus/`) and are minimised with a *coverage-preserving* variant
//! of the greedy shrinker: a shrink step is accepted only while the
//! episode still passes and still exercises every bucket the entry was
//! admitted for.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use concilium_obs::CoverageSet;
use concilium_topology::TransitStubConfig;
use concilium_types::SimDuration;

use crate::explorer::{
    dst_world, run_episode, shrink_candidates, EpisodeConfig, EpisodeOptions, EpisodeReport,
    FailingCase, ROLES, TRANSPORT,
};
use crate::invariants::TraceHasher;
use crate::{SimConfig, SimWorld};

/// Salt separating the fuzzer's master RNG stream from the episode
/// streams it seeds.
const FUZZ_SALT: u64 = 0x2545_f491_4f6c_dd1d;

/// How many violations are greedily shrunk before further findings are
/// reported as-is (shrinking replays whole episodes and is the expensive
/// part of a fuzz run).
const MAX_SHRUNK_FAILURES: usize = 3;

/// Which prebuilt world a fuzz run — and every corpus entry it emits —
/// drives. Recorded in corpus headers so replay rebuilds the same world.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorldKind {
    /// The standard DST world: [`dst_world`], densely probed, fully
    /// meshed at tiny scale.
    Dst,
    /// The AS-like shared-bottleneck world: [`bottleneck_world`], a
    /// narrow transit core every overlay path funnels through, probed
    /// sparsely enough that adaptive adversaries find unobserved windows.
    Bottleneck,
}

impl WorldKind {
    /// Stable name used in corpus headers and `--world` flags.
    pub fn name(self) -> &'static str {
        match self {
            WorldKind::Dst => "dst",
            WorldKind::Bottleneck => "bottleneck",
        }
    }

    /// Parses a [`WorldKind::name`] rendering.
    pub fn parse(s: &str) -> Option<WorldKind> {
        match s {
            "dst" => Some(WorldKind::Dst),
            "bottleneck" => Some(WorldKind::Bottleneck),
            _ => None,
        }
    }

    /// Builds the world this kind denotes.
    pub fn build(self, world_seed: u64) -> SimWorld {
        match self {
            WorldKind::Dst => dst_world(world_seed),
            WorldKind::Bottleneck => bottleneck_world(world_seed),
        }
    }
}

/// An AS-like shared-bottleneck world: three core routers and four
/// transit routers funnel every inter-stub overlay path through a handful
/// of shared links, so distinct overlay routes overlap heavily and the
/// probe/route matrix develops multi-link ambiguity classes (serial links
/// no probe set can tell apart). Probing is deliberately sparse —
/// [`SimConfig::max_probe_time`] of 240 s against a 10-minute run — so
/// adaptive droppers (which forward only while a peer probed nearby) find
/// genuine unobserved windows to misbehave in.
///
/// Ambient failures are tuned like [`dst_world`]'s: rare and long-lived,
/// so an expired message implies a sustained outage that dominates its Δ
/// evidence window.
pub fn bottleneck_world(world_seed: u64) -> SimWorld {
    let mut cfg = SimConfig::tiny();
    cfg.topology = TransitStubConfig {
        core: 3,
        core_chords_per_router: 1.0,
        transit: 4,
        transit_sibling_prob: 0.2,
        stubs: 36,
        stub_sibling_prob: 0.1,
        stub_multihome_prob: 0.0,
        end_hosts: 48,
    };
    cfg.overlay_fraction = 0.25;
    cfg.max_probe_time = SimDuration::from_secs(240);
    cfg.failure.fraction_bad = 0.02;
    cfg.failure.mean_downtime = SimDuration::from_secs(240);
    cfg.failure.sd_downtime = SimDuration::from_secs(30);
    cfg.failure.min_downtime = SimDuration::from_secs(180);
    let mut rng = StdRng::seed_from_u64(world_seed);
    SimWorld::build(cfg, &mut rng)
}

/// Knobs of a fuzz run.
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// Total episodes to run (the budget), counting the seed round.
    /// Shrinking replays (corpus minimisation, failure minimisation) are
    /// not charged against it.
    pub budget: usize,
    /// Master seed: drives parent selection, mutation, and episode seeds.
    pub seed: u64,
    /// Worker threads for batch evaluation. Any value reproduces the
    /// `jobs = 1` run bit-identically.
    pub jobs: usize,
    /// Candidates generated per synchronisation point. Generation is
    /// batched so the master RNG never races evaluation: larger batches
    /// fan out better, smaller ones react to fresh coverage sooner.
    pub batch: usize,
    /// Whether admitted corpus entries are minimised with the
    /// coverage-preserving shrinker before being returned.
    pub shrink_corpus: bool,
    /// Keep at most this many corpus entries (the most novel survive).
    pub max_corpus: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            budget: 200,
            seed: 1,
            jobs: 1,
            batch: 16,
            shrink_corpus: true,
            max_corpus: 32,
        }
    }
}

/// A corpus entry: one passing episode that exercised novel coverage,
/// replayable from `(world kind, world seed, config, seed)` alone.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    /// Stable entry name (`fuzz-NNNNNN`, the episode's budget index).
    pub name: String,
    /// The (possibly shrunk) episode configuration.
    pub config: EpisodeConfig,
    /// The episode seed.
    pub seed: u64,
    /// Trace hash of the replayed episode — the regression fingerprint.
    pub trace_hash: String,
    /// The coverage buckets this entry contributed when admitted (the
    /// buckets its shrunk form is required to preserve).
    pub novel: Vec<u64>,
}

impl CorpusEntry {
    /// Renders the entry as a committed corpus file: a header naming the
    /// world and fingerprint, then the replayable config literal.
    pub fn render(&self, world: WorldKind, world_seed: u64) -> String {
        let novel = self
            .novel
            .iter()
            .map(|b| format!("{b:#018x}"))
            .collect::<Vec<_>>()
            .join(" ");
        format!(
            "// fuzz-corpus-v1: {}\n// world: {}\n// world-seed: {}\n// trace: {}\n\
             // novel-buckets: {}\n{}\n",
            self.name,
            world.name(),
            world_seed,
            self.trace_hash,
            novel,
            self.config.to_literal(self.seed)
        )
    }

    /// Parses a [`CorpusEntry::render`] document back into a replayable
    /// entry plus the world it ran on.
    pub fn parse(text: &str) -> Result<(CorpusEntry, WorldKind, u64), String> {
        let mut name = None;
        let mut world = None;
        let mut world_seed = None;
        let mut trace_hash = None;
        let mut novel = Vec::new();
        for raw in text.lines() {
            let line = raw.trim();
            if let Some(rest) = line.strip_prefix("// fuzz-corpus-v1:") {
                name = Some(rest.trim().to_string());
            } else if let Some(rest) = line.strip_prefix("// world:") {
                let w = rest.trim();
                world =
                    Some(WorldKind::parse(w).ok_or_else(|| format!("unknown world `{w}`"))?);
            } else if let Some(rest) = line.strip_prefix("// world-seed:") {
                world_seed =
                    Some(rest.trim().parse::<u64>().map_err(|e| format!("world-seed: {e}"))?);
            } else if let Some(rest) = line.strip_prefix("// trace:") {
                trace_hash = Some(rest.trim().to_string());
            } else if let Some(rest) = line.strip_prefix("// novel-buckets:") {
                for tok in rest.split_whitespace() {
                    let hex = tok.strip_prefix("0x").unwrap_or(tok);
                    novel.push(
                        u64::from_str_radix(&hex.replace('_', ""), 16)
                            .map_err(|e| format!("novel-buckets: {e}"))?,
                    );
                }
            }
        }
        let (config, seed) = EpisodeConfig::parse_literal(text)?;
        Ok((
            CorpusEntry {
                name: name.ok_or("missing `// fuzz-corpus-v1:` header")?,
                config,
                seed,
                trace_hash: trace_hash.ok_or("missing `// trace:` header")?,
                novel,
            },
            world.ok_or("missing `// world:` header")?,
            world_seed.ok_or("missing `// world-seed:` header")?,
        ))
    }
}

/// Outcome of a fuzz run.
#[derive(Clone, Debug)]
pub struct FuzzOutcome {
    /// Episodes actually run against the budget.
    pub episodes_run: usize,
    /// Union of every episode's coverage.
    pub coverage: CoverageSet,
    /// Passing episodes that contributed novel coverage, in admission
    /// order (minimised when [`FuzzConfig::shrink_corpus`] is set).
    pub corpus: Vec<CorpusEntry>,
    /// Invariant violations found, in discovery order; the first
    /// `MAX_SHRUNK_FAILURES` are greedily shrunk.
    pub failures: Vec<FailingCase>,
    /// Every budgeted episode's lanes folded in submission order, as
    /// [`crate::ExploreOutcome::digest`] folds a sweep's.
    pub digest: TraceHasher,
}

/// Extracts the coverage of one finished episode.
pub fn episode_coverage(report: &EpisodeReport) -> CoverageSet {
    let mut cov = CoverageSet::new();
    cov.absorb_trace(report.trace.events());
    cov.absorb_metrics(&report.metrics);
    cov
}

/// The accumulated coverage of a static grid over a seed list — the
/// baseline the fuzzer is measured against.
pub fn grid_coverage(
    world: &SimWorld,
    grid: &[(&str, EpisodeConfig)],
    seeds: &[u64],
    opts: &EpisodeOptions,
) -> CoverageSet {
    let mut cov = CoverageSet::new();
    for (_, cfg) in grid {
        for &seed in seeds {
            let report = run_episode(world, cfg, seed, opts);
            cov.absorb(&episode_coverage(&report));
        }
    }
    cov
}

/// One multiplicative-or-resample edit of a probability-like knob,
/// clamped to `[0, hi]`.
fn scale_knob(rng: &mut StdRng, v: f64, hi: f64) -> f64 {
    match rng.gen_range(0u8..4) {
        0 => 0.0,
        1 => if v == 0.0 { hi / 8.0 } else { (v * 0.5).max(1e-3) },
        2 => if v == 0.0 { hi / 4.0 } else { (v * 2.0).min(hi) },
        _ => rng.gen_range(0.0..=hi),
    }
}

fn pick_duration(rng: &mut StdRng, choices: &[u64]) -> SimDuration {
    SimDuration::from_secs(choices[rng.gen_range(0..choices.len())])
}

/// Applies 1–3 random edits to a parent configuration. Each edit scales
/// one transport probability or role fraction, retunes churn, the
/// Gilbert–Elliott burst channel or the eclipse-style storm as a group, or
/// picks a new workload size. The snapshot skews (`delayer_shift`,
/// `replay_age`) are never mutated.
fn mutate(parent: &EpisodeConfig, rng: &mut StdRng) -> EpisodeConfig {
    let mut cfg = parent.clone();
    let edits = 1 + rng.gen_range(0usize..3);
    for _ in 0..edits {
        match rng.gen_range(0u8..14) {
            2 => {
                cfg.faults.churn.crash_fraction =
                    scale_knob(rng, cfg.faults.churn.crash_fraction, 0.4);
                if cfg.faults.churn.crash_fraction > 0.0 {
                    cfg.faults.churn.min_outage = SimDuration::from_secs(10);
                    cfg.faults.churn.mean_outage = pick_duration(rng, &[60, 90, 150, 240]);
                }
            }
            3 => {
                // Toggle or retune the Gilbert–Elliott channel.
                if cfg.faults.burst.enabled() && rng.gen_bool(0.25) {
                    cfg.faults.burst = crate::BurstConfig::default();
                } else {
                    cfg.faults.burst.good_to_bad = rng.gen_range(0.01..=0.2);
                    cfg.faults.burst.bad_to_good = rng.gen_range(0.05..=0.5);
                    cfg.faults.burst.bad_loss = rng.gen_range(0.3..=1.0);
                }
            }
            4 => {
                // Toggle or retune the eclipse-style storm.
                if cfg.faults.storm.fraction > 0.0 && rng.gen_bool(0.25) {
                    cfg.faults.storm = crate::StormConfig::default();
                } else {
                    cfg.faults.storm.fraction = rng.gen_range(0.1..=0.8);
                    cfg.faults.storm.start_frac = rng.gen_range(0.1..=0.8);
                    cfg.faults.storm.duration = pick_duration(rng, &[30, 60, 120, 240]);
                }
            }
            12 => cfg.flows = [2, 4, 6, 9, 12][rng.gen_range(0usize..5)],
            13 => cfg.messages_per_flow = [10, 20, 40, 60][rng.gen_range(0usize..4)],
            // Arms 0–1 scale the transport probabilities, 5–11 the roles.
            arm => {
                let arm = usize::from(arm);
                let v = cfg.p(if arm < 2 { TRANSPORT.start + arm } else { ROLES.start + arm - 5 });
                *v = scale_knob(rng, *v, 0.4);
            }
        }
    }
    cfg
}

/// Minimises a corpus entry while preserving the coverage it was admitted
/// for: a shrink candidate is accepted iff its episode still passes every
/// invariant *and* still exercises each of the entry's novel buckets.
fn shrink_corpus_entry(
    world: &SimWorld,
    entry: CorpusEntry,
    opts: &EpisodeOptions,
) -> CorpusEntry {
    let mut best = entry.config;
    let mut best_hash = entry.trace_hash;
    loop {
        let mut improved = false;
        for cand in shrink_candidates(&best) {
            let report = run_episode(world, &cand, entry.seed, opts);
            if report.violation.is_some() {
                continue;
            }
            let cov = episode_coverage(&report);
            if entry.novel.iter().all(|&b| cov.contains(b)) {
                best = cand;
                best_hash = report.trace_hash;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    CorpusEntry { config: best, trace_hash: best_hash, ..entry }
}

/// Runs the coverage-guided fuzz loop.
///
/// The first batch is the extended grid itself (so the fuzzer starts from
/// every known family); each later batch mutates parents drawn from the
/// pool of coverage-contributing configurations. Results are merged in
/// submission order, so the outcome is bit-identical at any
/// [`FuzzConfig::jobs`] value.
pub fn fuzz(world: &SimWorld, cfg: &FuzzConfig, opts: &EpisodeOptions) -> FuzzOutcome {
    let _span = concilium_obs::span("fuzz.run");
    let mut master = StdRng::seed_from_u64(cfg.seed ^ FUZZ_SALT);
    let mut coverage = CoverageSet::new();
    let mut corpus: Vec<CorpusEntry> = Vec::new();
    let mut failures: Vec<FailingCase> = Vec::new();
    let mut pool: Vec<EpisodeConfig> =
        EpisodeConfig::extended_grid().into_iter().map(|(_, c)| c).collect();
    let mut episodes_run = 0usize;
    let mut digest = TraceHasher::new();

    // Seed round: one episode per extended-grid arm.
    let mut pending: Vec<(EpisodeConfig, u64)> =
        pool.iter().map(|c| (c.clone(), master.gen())).collect();

    while episodes_run < cfg.budget {
        pending.truncate(cfg.budget - episodes_run);
        if pending.is_empty() {
            break;
        }
        let evaluated: Vec<(EpisodeReport, CoverageSet)> =
            concilium_par::par_map(cfg.jobs.max(1), &pending, |_, (c, s)| {
                let report = run_episode(world, c, *s, opts);
                let cov = episode_coverage(&report);
                (report, cov)
            });
        // Submission-order merge: admissions, coverage, and failures land
        // identically regardless of worker count.
        for ((c, s), (report, cov)) in pending.iter().zip(evaluated) {
            episodes_run += 1;
            digest.absorb(&report.digest);
            let novel = cov.difference(&coverage);
            coverage.absorb(&cov);
            let name = format!("fuzz-{episodes_run:06}");
            if let Some(case) = FailingCase::from_report(&name, c, *s, &report) {
                let case = if failures.len() < MAX_SHRUNK_FAILURES {
                    crate::explorer::shrink(world, &case, opts)
                } else {
                    case
                };
                failures.push(case);
                continue;
            }
            if !novel.is_empty() {
                corpus.push(CorpusEntry {
                    name,
                    config: c.clone(),
                    seed: *s,
                    trace_hash: report.trace_hash,
                    novel,
                });
                pool.push(c.clone());
            }
        }
        // Next batch: mutations of coverage-contributing parents.
        pending = (0..cfg.batch.max(1))
            .map(|_| {
                let parent = &pool[master.gen_range(0..pool.len())];
                let child = mutate(parent, &mut master);
                let seed: u64 = master.gen();
                (child, seed)
            })
            .collect();
    }

    // Keep the most novel entries, then minimise the survivors.
    if corpus.len() > cfg.max_corpus {
        let mut ranked: Vec<(usize, usize)> =
            corpus.iter().enumerate().map(|(i, e)| (e.novel.len(), i)).collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut keep: Vec<usize> = ranked.into_iter().take(cfg.max_corpus).map(|(_, i)| i).collect();
        keep.sort_unstable();
        let mut kept = Vec::with_capacity(keep.len());
        for (i, entry) in corpus.into_iter().enumerate() {
            if keep.binary_search(&i).is_ok() {
                kept.push(entry);
            }
        }
        corpus = kept;
    }
    if cfg.shrink_corpus {
        corpus = corpus
            .into_iter()
            .map(|entry| shrink_corpus_entry(world, entry, opts))
            .collect();
    }

    FuzzOutcome { episodes_run, coverage, corpus, failures, digest }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(budget: usize, jobs: usize) -> FuzzConfig {
        FuzzConfig { budget, jobs, batch: 8, shrink_corpus: false, max_corpus: 64, seed: 9 }
    }

    fn quick_opts() -> EpisodeOptions {
        EpisodeOptions { tomography_stripes: 60, ..EpisodeOptions::default() }
    }

    #[test]
    fn fuzz_is_bit_identical_across_jobs() {
        let world = dst_world(77);
        let opts = quick_opts();
        let a = fuzz(&world, &quick_cfg(20, 1), &opts);
        let b = fuzz(&world, &quick_cfg(20, 4), &opts);
        assert_eq!(a.episodes_run, b.episodes_run);
        assert_eq!(a.coverage, b.coverage, "coverage must not depend on worker count");
        assert_eq!(a.corpus.len(), b.corpus.len());
        for (x, y) in a.corpus.iter().zip(&b.corpus) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.trace_hash, y.trace_hash);
            assert_eq!(x.novel, y.novel);
        }
        assert_eq!(a.failures.len(), b.failures.len());
        assert_eq!(a.digest, b.digest, "the run's lanes must not depend on worker count");
    }

    #[test]
    fn seed_round_populates_corpus_and_coverage() {
        let world = dst_world(77);
        let out = fuzz(&world, &quick_cfg(7, 2), &quick_opts());
        assert_eq!(out.episodes_run, 7, "budget is an exact episode count");
        assert!(!out.coverage.is_empty());
        // The very first episode always contributes everything it covers.
        assert!(!out.corpus.is_empty());
        assert!(out.failures.is_empty(), "extended grid arms must pass: {:?}", out.failures);
    }

    #[test]
    fn corpus_entry_round_trips_through_render_and_parse() {
        let entry = CorpusEntry {
            name: "fuzz-000004".into(),
            config: EpisodeConfig::coalition_storm(),
            seed: 1234,
            trace_hash: "deadbeef".into(),
            novel: vec![3, 0xfeed_face_cafe_f00d],
        };
        let text = entry.render(WorldKind::Bottleneck, 42);
        let (parsed, world, world_seed) = CorpusEntry::parse(&text).expect("round trip");
        assert_eq!(parsed.name, entry.name);
        assert_eq!(world, WorldKind::Bottleneck);
        assert_eq!(world_seed, 42);
        assert_eq!(parsed.seed, entry.seed);
        assert_eq!(parsed.trace_hash, entry.trace_hash);
        assert_eq!(parsed.novel, entry.novel);
        assert_eq!(
            parsed.config.to_literal(parsed.seed),
            entry.config.to_literal(entry.seed),
            "parsed config must re-render identically"
        );
    }

    #[test]
    fn bottleneck_world_funnels_paths_and_probes_sparsely() {
        let world = bottleneck_world(7);
        assert!(world.num_hosts() >= 6, "got {} hosts", world.num_hosts());
        assert_eq!(world.config().max_probe_time, SimDuration::from_secs(240));
        // The narrow core forces shared links: at least one host's probe
        // tree must contain a logical edge spanning several IP links — a
        // multi-link ambiguity class.
        let shared = (0..world.num_hosts()).any(|h| {
            let logical = world.tree(h).logical();
            (0..logical.num_edges()).any(|e| logical.edge_links(e).len() > 1)
        });
        assert!(shared, "bottleneck world must exhibit multi-link ambiguity classes");
    }

    #[test]
    fn mutation_is_deterministic_and_stays_valid() {
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        let mut cfg_a = EpisodeConfig::default();
        let mut cfg_b = EpisodeConfig::default();
        for _ in 0..200 {
            cfg_a = mutate(&cfg_a, &mut a);
            cfg_b = mutate(&cfg_b, &mut b);
            assert_eq!(cfg_a.to_literal(0), cfg_b.to_literal(0));
            assert_eq!(cfg_a.validate(), Ok(()), "every mutant is in range");
        }
    }

    /// Pins `mutate`'s draw order and `shrink_candidates`' candidate
    /// order: one SHA-256 over 2,000 mutants of the extended grid, each
    /// rendered with its rng's next word (pinning the draw count too),
    /// and every shrink candidate of each, in order.
    #[test]
    fn mutation_draws_and_shrink_candidates_are_pinned() {
        let (grid, mut h) = (EpisodeConfig::extended_grid(), concilium_crypto::Sha256::new());
        for seed in 0..2_000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let child = mutate(&grid[seed as usize % grid.len()].1, &mut rng);
            h.update(child.to_literal(rng.gen()).as_bytes());
            for cand in shrink_candidates(&child) {
                h.update(cand.to_literal(seed).as_bytes());
            }
        }
        let pinned = "0e3095472d338edd2618c65c58992f8db3911c148faba094c69ff9552d0a86b4";
        assert_eq!(h.finalize().to_hex(), pinned);
    }
}
