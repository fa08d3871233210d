//! Seeded fault-plan explorer: full diagnose–accuse–revise episodes under
//! deterministic fault injection, with whole-system invariant checking and
//! counterexample shrinking.
//!
//! An *episode* replays the Concilium protocol over a pre-built
//! [`SimWorld`]: stewards send application messages along overlay routes,
//! retransmit unacknowledged ones with capped backoff, judge the first
//! forwarder when every attempt expires, accumulate verdicts in m-of-w
//! windows, and escalate to formal accusations that walk the §3.5
//! revision chain and land in the accusation DHT. A seeded
//! [`crate::FaultPlan`] perturbs the transport (drops, duplicates,
//! reordering, latency, churn) and an [`crate::AdversarySets`] assigns
//! Byzantine roles. Every invariant from [`crate::invariants`] is
//! evaluated as the episode runs, and the types carry the abort: each
//! step of the engine returns `Result<(), Violation>`, so the first
//! violation stops the step that found it and every caller above it. That
//! includes `emit`: a handler that emits a causally orphaned event ends at
//! that event, which is still hashed, counted and kept in the trace ring.
//!
//! Episodes are bit-deterministic: the same world, seed, and
//! [`EpisodeConfig`] produce the same chained trace hash. The
//! [`explore_jobs`] sweep runs a seed × configuration grid and reports the
//! first failure; [`shrink`] then minimises the failing configuration —
//! dropping adversary roles, zeroing fault knobs, halving magnitudes and
//! churn windows — until no smaller configuration reproduces the same
//! invariant violation, and prints a copy-pasteable reproducer.

mod config;
mod episode;
mod shrink;

use rand::rngs::StdRng;
use rand::SeedableRng;

use concilium::blame::{blame_from_path_evidence, LinkEvidence};
use concilium_obs::{Registry, Trace};
use concilium_types::SimDuration;

pub use self::config::EpisodeConfig;
pub(crate) use self::shrink::shrink_candidates;
pub use self::shrink::{shrink, FailingCase};
use crate::invariants::{TraceHasher, Violation};
use crate::SimWorld;

/// The blame combinator under test: maps per-link evidence and the probe
/// accuracy to a blame value. Production episodes use
/// [`concilium::blame::blame_from_path_evidence`]; tests can substitute a
/// deliberately broken mutant to prove the invariants catch it.
pub(crate) type BlameFn = fn(&[LinkEvidence], f64) -> f64;

fn production_blame(evidence: &[LinkEvidence], accuracy: f64) -> f64 {
    blame_from_path_evidence(evidence, accuracy)
}

/// Hooks controlling how an episode evaluates the system under test.
#[derive(Clone, Copy, Debug)]
pub struct EpisodeOptions {
    /// The blame combinator the judging nodes use.
    pub blame_fn: BlameFn,
    /// Whether every blame value is cross-checked against the direct
    /// Eq. 2–3 oracle (disable to let a broken combinator run long enough
    /// to be caught downstream by the no-false-blame invariant).
    pub check_blame_oracle: bool,
    /// Stripes per tree for the end-of-episode tomography cross-check.
    pub tomography_stripes: usize,
    /// Ring capacity of each episode's structured trace. The ring keeps
    /// the newest events, so a failing episode always retains the causal
    /// tail that led to the violation. 0 disables recording (the trace
    /// hash is unaffected — it absorbs every event either way).
    pub trace_capacity: usize,
    /// Whether [`explore_jobs`] keeps the traces of *passing* episodes in
    /// [`ExploreOutcome::traces`] (for `--trace-out` exports). Failing
    /// episodes always keep theirs.
    pub collect_traces: bool,
}

impl Default for EpisodeOptions {
    fn default() -> Self {
        EpisodeOptions {
            blame_fn: production_blame,
            check_blame_oracle: true,
            tomography_stripes: 300,
            trace_capacity: concilium_obs::DEFAULT_TRACE_CAPACITY,
            collect_traces: false,
        }
    }
}

/// Event and bookkeeping counters accumulated over an episode.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpisodeStats {
    /// Events popped from the queue.
    pub events: usize,
    /// Messages registered with the steward.
    pub sent: usize,
    /// Sends skipped because a route host was crashed at send time.
    pub churn_blocked: usize,
    /// Messages that truly reached their destination.
    pub delivered: usize,
    /// Messages settled by a verified acknowledgment.
    pub settled: usize,
    /// Messages whose retry schedule expired.
    pub expired: usize,
    /// Expiries that produced a verdict.
    pub judged: usize,
    /// Guilty verdicts among them.
    pub guilty: usize,
    /// Expiries skipped: route too short to have an intermediate hop.
    pub skipped_short_route: usize,
    /// Expiries skipped: the first forwarder never received the message,
    /// so no forwarding commitment exists to judge against.
    pub skipped_uncommitted: usize,
    /// Expiries skipped: some path link had no admissible evidence.
    pub skipped_uncovered: usize,
    /// Expiries skipped: the judging steward was crashed.
    pub skipped_judge_down: usize,
    /// Verdict windows that crossed the accusation quota.
    pub escalations: usize,
    /// Escalations dissolved (ack proof or network exoneration).
    pub dissolved: usize,
    /// Accusation chains built, verified, and stored.
    pub chains_checked: usize,
    /// Revision handoffs lost to the transport (chain stands early).
    pub handoffs_withheld: usize,
    /// DHT writes that reported a typed quorum failure.
    pub dht_refused: usize,
    /// Honest hosts left standing as culprits under ambient transport
    /// loss — the paper's false-positive rate, a violation only in
    /// network-only configurations.
    pub false_standings: usize,
}

impl EpisodeStats {
    /// Adds another episode's counters into this accumulator.
    pub fn absorb(&mut self, other: &EpisodeStats) {
        self.events += other.events;
        self.sent += other.sent;
        self.churn_blocked += other.churn_blocked;
        self.delivered += other.delivered;
        self.settled += other.settled;
        self.expired += other.expired;
        self.judged += other.judged;
        self.guilty += other.guilty;
        self.skipped_short_route += other.skipped_short_route;
        self.skipped_uncommitted += other.skipped_uncommitted;
        self.skipped_uncovered += other.skipped_uncovered;
        self.skipped_judge_down += other.skipped_judge_down;
        self.escalations += other.escalations;
        self.dissolved += other.dissolved;
        self.chains_checked += other.chains_checked;
        self.handoffs_withheld += other.handoffs_withheld;
        self.dht_refused += other.dht_refused;
        self.false_standings += other.false_standings;
    }
}

/// The result of running one episode.
#[derive(Clone, Debug)]
pub struct EpisodeReport {
    /// The first invariant violation, if any.
    pub violation: Option<Violation>,
    /// Chained hash of the full event trace (replay fingerprint).
    pub trace_hash: String,
    /// Counters accumulated while the episode ran.
    pub stats: EpisodeStats,
    /// Ring-buffered structured trace — the newest
    /// [`EpisodeOptions::trace_capacity`] events in virtual-time order.
    pub trace: Trace,
    /// Event-derived metrics for this episode. Every key is a function of
    /// virtual time and the seed, so registries from the same episode are
    /// identical regardless of worker count.
    pub metrics: Registry,
}

/// One passing episode's trace, kept by [`explore_jobs`] when
/// [`EpisodeOptions::collect_traces`] is set (for `--trace-out` exports).
#[derive(Clone, Debug)]
pub struct EpisodeTrace {
    /// Grid-arm name.
    pub name: String,
    /// Episode seed.
    pub seed: u64,
    /// The episode's structured trace.
    pub trace: Trace,
}

/// Outcome of a seed × configuration sweep.
#[derive(Clone, Debug)]
pub struct ExploreOutcome {
    /// Episodes completed (including the failing one, if any).
    pub episodes_run: usize,
    /// The first failing case found, stopping the sweep.
    pub failure: Option<FailingCase>,
    /// Counters summed over every episode run.
    pub totals: EpisodeStats,
    /// Chained hash over every episode's trace hash, in sweep submission
    /// order. Two sweeps over the same grid and seeds are bit-identical
    /// iff their digests match — the equality CI checks between `--jobs 1`
    /// and `--jobs N` runs.
    pub trace_digest: String,
    /// Per-episode metrics merged in submission order (counters add,
    /// gauges keep the maximum), so the merged registry is independent of
    /// worker count.
    pub metrics: Registry,
    /// Every episode's trace in submission order, populated only when
    /// [`EpisodeOptions::collect_traces`] is set.
    pub traces: Vec<EpisodeTrace>,
}

/// Builds the canonical DST world: [`crate::SimConfig::tiny`] with link
/// repairs fast enough to matter inside the ten-minute run.
///
/// The paper's ambient failure model (5% of links bad, 15-minute mean
/// downtime) never repairs a link within a tiny run, which starves the
/// protocol: multi-hop routes that start dark stay dark, nothing is
/// delivered or acknowledged, and stewardship never escalates. DST wants
/// the opposite — every protocol path exercised — so the explorer's world
/// keeps the depth-weighted failure process but makes outages short and
/// rarer (2% of links, ~60-second downtime).
pub fn dst_world(world_seed: u64) -> SimWorld {
    let mut cfg = crate::SimConfig::tiny();
    cfg.failure.fraction_bad = 0.02;
    // Outages must outlast the episode retry horizon: an expired message
    // then implies a *sustained* outage, one long enough to dominate the
    // Δ evidence window, so tolerant rebuttals reliably exonerate honest
    // forwarders instead of drowning the down-link in pre-outage samples.
    cfg.failure.mean_downtime = SimDuration::from_secs(240);
    cfg.failure.sd_downtime = SimDuration::from_secs(30);
    cfg.failure.min_downtime = SimDuration::from_secs(180);
    let mut rng = StdRng::seed_from_u64(world_seed);
    SimWorld::build(cfg, &mut rng)
}

/// Runs one episode of `cfg` with `seed` over `world` and reports the
/// first invariant violation, the trace hash, and the episode counters.
pub fn run_episode(
    world: &SimWorld,
    cfg: &EpisodeConfig,
    seed: u64,
    opts: &EpisodeOptions,
) -> EpisodeReport {
    let episode = {
        let _span = concilium_obs::span("episode.setup");
        episode::Episode::new(world, cfg, seed, opts)
    };
    episode.run()
}

/// Sweeps `grid` × `seeds` on up to `jobs` workers, stopping at the first
/// violation, with output bit-identical to the serial sweep.
///
/// Episodes are independent (each builds its own RNG from its seed and
/// borrows the immutable world), so they are farmed out with
/// [`concilium_par::par_map_while`]. Cancellation is by *minimum violating
/// index*: workers that find a violation publish their sweep index, tasks
/// beyond the current minimum are skipped, and the result is truncated to
/// the prefix ending at the smallest violating index — exactly the episodes
/// the serial sweep would have run, absorbed in the same order. Everything
/// in the outcome (`episodes_run`, `totals`, the failing case, the trace
/// digest) is therefore independent of `jobs`.
pub fn explore_jobs(
    world: &SimWorld,
    grid: &[(&str, EpisodeConfig)],
    seeds: &[u64],
    opts: &EpisodeOptions,
    jobs: usize,
) -> ExploreOutcome {
    // Grid-major, seed-minor: the same submission order as the serial loop.
    let tasks: Vec<(usize, u64)> = (0..grid.len())
        .flat_map(|arm| seeds.iter().map(move |&seed| (arm, seed)))
        .collect();
    let (reports, stopped) = concilium_par::par_map_while(jobs, &tasks, |_, &(arm, seed)| {
        let report = run_episode(world, &grid[arm].1, seed, opts);
        let stop = report.violation.is_some();
        (report, stop)
    });

    let mut totals = EpisodeStats::default();
    let mut digest = TraceHasher::new();
    let mut failure = None;
    let mut metrics = Registry::new();
    let mut traces = Vec::new();
    for (i, report) in reports.iter().enumerate() {
        totals.absorb(&report.stats);
        digest.record(&report.trace_hash, &[i as u64]);
        metrics.merge(&report.metrics);
        let (arm, seed) = tasks[i];
        let (name, config) = &grid[arm];
        if opts.collect_traces {
            traces.push(EpisodeTrace { name: name.to_string(), seed, trace: report.trace.clone() });
        }
        if let Some(case) = FailingCase::from_report(name, config, seed, report) {
            debug_assert_eq!(Some(i), stopped, "violations only at the stop index");
            failure = Some(case);
        }
    }
    ExploreOutcome {
        episodes_run: reports.len(),
        failure,
        totals,
        trace_digest: digest.hex(),
        metrics,
        traces,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InvariantKind;

    fn world() -> SimWorld {
        dst_world(77)
    }

    #[test]
    fn episode_is_deterministic_and_clean_when_honest() {
        let w = world();
        let cfg = EpisodeConfig::lossy();
        let opts = EpisodeOptions::default();
        let a = run_episode(&w, &cfg, 11, &opts);
        let b = run_episode(&w, &cfg, 11, &opts);
        assert_eq!(a.trace_hash, b.trace_hash, "same seed must replay bit-identically");
        assert!(
            a.violation.is_none(),
            "honest lossy episode must satisfy every invariant: {:?}",
            a.violation
        );
        assert!(a.stats.sent > 0, "episode must drive traffic");
        assert!(a.stats.expired > 0, "a lossy plan must expire some messages");
        let c = run_episode(&w, &cfg, 12, &opts);
        assert_ne!(a.trace_hash, c.trace_hash, "different seeds must diverge");
    }

    #[test]
    fn oracle_catches_broken_blame_combinator() {
        fn mutant(_: &[LinkEvidence], _: f64) -> f64 {
            1.0
        }
        let w = world();
        let opts = EpisodeOptions { blame_fn: mutant, ..EpisodeOptions::default() };
        let grid = EpisodeConfig::standard_grid();
        let seeds: Vec<u64> = (0..8).collect();
        let out = explore_jobs(&w, &grid, &seeds, &opts, 1);
        let failure = out.failure.expect("a broken combinator must trip an invariant");
        assert_eq!(failure.violation.kind, InvariantKind::BlameOracle);
    }

    #[test]
    fn literal_is_copy_pasteable() {
        let text = EpisodeConfig::byzantine().to_literal(42);
        assert!(text.contains("// seed: 42"));
        assert!(text.contains("drop_probability: 0.05"));
        assert!(text.contains("dropper_fraction: 0.2"));
        assert!(text.contains("ChurnConfig"));
    }

    #[test]
    fn active_dimensions_counts_nonzero_knobs() {
        assert_eq!(EpisodeConfig::transparent().active_dimensions(), 0);
        assert_eq!(EpisodeConfig::churning().active_dimensions(), 1);
        assert!(EpisodeConfig::byzantine().active_dimensions() >= 5);
    }
}
