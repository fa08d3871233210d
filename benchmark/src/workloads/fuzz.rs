//! `fuzz-bottleneck`: the coverage-guided fuzzer on the sparse world.
//!
//! Op = one fuzz episode. A timed unit is one call of
//! `concilium_sim::fuzz` on the canonical bottleneck world with its own master
//! seed and a budget of 150 episodes: the same episode engine as
//! `dst-sweep` used differently — mutated configs from all seven grid
//! families, traces retained and folded into `CoverageSet`, sparse probing
//! so the tolerant MLE and `AmbiguityClasses` do real work. Corpus
//! shrinking is off because its replays are not counted in `episodes_run`.
//!
//! The fuzzer exposes no per-episode boundary, so the unit is a whole call;
//! two dozen calls rather than one long one give `unit_ms_p50` a sample.

use concilium_sim::{bottleneck_world, fuzz, EpisodeOptions, FuzzConfig, SimWorld};

use super::sweep::DST_WORLD_SEED;
use super::{derive, timed, Outcome, SeedSpace, SimDigest, Size, Stream, Workload};
use crate::tracer::Tracer;

const EPISODES_PER_UNIT: usize = 150;
/// Units in the nominal ten-second run (3,600 episodes).
const NOMINAL_UNITS: usize = 24;

/// Fuzz master seeds 0..1,536: 64 windows of one nominal run each. Every one
/// was run at this budget when the benchmark was defined and found no
/// violation (see `SeedSpace`).
const MASTER_SEEDS: SeedSpace = SeedSpace {
    base: 0,
    window: NOMINAL_UNITS as u64,
    windows: 64,
};

pub struct FuzzBottleneck;

pub struct Input {
    world: SimWorld,
    opts: EpisodeOptions,
}

fn config(budget: usize, seed: u64) -> FuzzConfig {
    FuzzConfig {
        budget,
        seed,
        jobs: 1,
        batch: 16,
        shrink_corpus: false,
        max_corpus: 32,
    }
}

impl Workload for FuzzBottleneck {
    type Input = Input;
    const NAME: &'static str = "fuzz-bottleneck";

    fn setup(seed: u64, _size: &Size) -> Input {
        let input = Input {
            world: bottleneck_world(DST_WORLD_SEED),
            opts: EpisodeOptions::default(),
        };
        // One seed round: an episode of each grid family.
        let warm = fuzz(
            &input.world,
            &config(7, derive(seed, Stream::WarmUp, 0)),
            &input.opts,
        );
        std::hint::black_box(warm);
        input
    }

    fn run<T: Tracer>(input: &Input, seed: u64, size: &Size, tracer: &mut T) -> Outcome {
        let (units, budget) = if size.smoke {
            (1, size.count(NOMINAL_UNITS * EPISODES_PER_UNIT))
        } else {
            (size.count(NOMINAL_UNITS), EPISODES_PER_UNIT)
        };
        let mut out = Outcome {
            unit_ops: budget as u64,
            ..Outcome::default()
        };
        let mut digest = SimDigest::new("fuzz-bottleneck");
        for unit in 0..units as u64 {
            let cfg = config(budget, MASTER_SEEDS.seed(seed, unit));
            let (outcome, ms) = timed(|| {
                let span = tracer.enter("sim.fuzz", unit);
                let o = fuzz(&input.world, &cfg, &input.opts);
                tracer.exit(span);
                o
            });
            out.unit_ms.push(ms);
            out.timed_s += ms / 1e3;
            out.ops_attempted += budget as u64;
            out.check(outcome.episodes_run == budget, budget as u64, || {
                format!(
                    "unit {unit} ran {} of {budget} episodes",
                    outcome.episodes_run
                )
            });
            for case in &outcome.failures {
                out.fail(
                    1,
                    format!(
                        "unit {unit}: {} seed {}: {:?}",
                        case.name, case.seed, case.violation
                    ),
                );
            }
            digest.u64(outcome.coverage.len() as u64);
            for entry in &outcome.corpus {
                digest.str(&entry.trace_hash);
            }
        }
        out.sim_digest = digest.hex();
        out
    }
}
