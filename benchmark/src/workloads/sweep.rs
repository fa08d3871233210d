//! `dst-sweep`: the standard grid × seeds on the small DST world.
//!
//! Op = one `concilium_sim::run_episode` on the canonical DST world, in
//! grid-major order with default `EpisodeOptions`, on the window of episode
//! seeds that `--seed` picks: the full send→ack→blame→verdict→accuse→store
//! pipeline, and almost no topology or world-build work.

use concilium_sim::{dst_world, run_episode, EpisodeConfig, EpisodeOptions, SimWorld};

use super::{derive, timed, Outcome, SeedSpace, SimDigest, Size, Stream, Workload};
use crate::tracer::Tracer;

/// Seeds per grid arm in the nominal ten-second run (× 4 arms = 3,712 ops).
const NOMINAL_SEEDS: usize = 928;
/// The world of the repository's own `dst-sweep` driver. The world is not
/// drawn from `--seed`: on some other DST worlds the end-of-episode
/// MLE-versus-closed-form cross-check trips its 1e-6 tolerance (by 1.4e-6 to
/// 2.6e-4 on the world of seed 102's stream), and a benchmark needs
/// workloads on which no op fails. That is a finding for the robustness
/// work, not something to measure around silently.
pub const DST_WORLD_SEED: u64 = 77;
/// Episode seeds 4,096..29,152: 27 windows of one nominal run each. All four
/// arms were run on every seed in 0..59,392 when the benchmark was defined;
/// the churning arm violated `FalseAccusation` at seeds 3,507, 29,788 and
/// 52,316 (each time "honest host 1 (route position 1 of [6, 1, 3]) ends the
/// accusation chain as culprit" for a message sent near t = 347 s), and at
/// the one random 64-bit seed that first showed it,
/// 11629426927533757754. This space lies between the first two. Like the
/// world above, that is a finding for the robustness work.
const EPISODE_SEEDS: SeedSpace = SeedSpace {
    base: 4_096,
    window: NOMINAL_SEEDS as u64,
    windows: 27,
};
/// Ops re-run after the timed pass to show the trace hashes reproduce.
const REPLAYED: usize = 32;

pub struct DstSweep;

pub struct Input {
    world: SimWorld,
    grid: Vec<(&'static str, EpisodeConfig)>,
    opts: EpisodeOptions,
}

impl Workload for DstSweep {
    type Input = Input;
    const NAME: &'static str = "dst-sweep";

    fn setup(seed: u64, _size: &Size) -> Input {
        let input = Input {
            world: dst_world(DST_WORLD_SEED),
            grid: EpisodeConfig::standard_grid(),
            opts: EpisodeOptions::default(),
        };
        for (arm, (_, cfg)) in input.grid.iter().enumerate() {
            let report = run_episode(
                &input.world,
                cfg,
                derive(seed, Stream::WarmUp, arm as u64),
                &input.opts,
            );
            std::hint::black_box(report);
        }
        input
    }

    fn run<T: Tracer>(input: &Input, seed: u64, size: &Size, tracer: &mut T) -> Outcome {
        let seeds = size.count(NOMINAL_SEEDS);
        let mut out = Outcome {
            unit_ops: 1,
            ..Outcome::default()
        };
        let mut digest = SimDigest::new("dst-sweep");
        let mut first_hashes = Vec::with_capacity(REPLAYED);
        let mut op = 0u64;
        for (name, cfg) in &input.grid {
            for s in 0..seeds as u64 {
                let episode_seed = EPISODE_SEEDS.seed(seed, s);
                let (report, ms) = timed(|| {
                    let span = tracer.enter("sim.run_episode", op);
                    let r = run_episode(&input.world, cfg, episode_seed, &input.opts);
                    tracer.exit(span);
                    r
                });
                out.unit_ms.push(ms);
                out.timed_s += ms / 1e3;
                out.ops_attempted += 1;
                if let Some(v) = &report.violation {
                    out.fail(1, format!("arm {name} seed {episode_seed}: {v:?}"));
                }
                digest.str(&report.trace_hash);
                if first_hashes.len() < REPLAYED {
                    first_hashes.push((cfg, episode_seed, report.trace_hash));
                }
                op += 1;
            }
        }
        out.sim_digest = digest.hex();

        for (i, (cfg, episode_seed, hash)) in first_hashes.iter().enumerate() {
            let again = run_episode(&input.world, cfg, *episode_seed, &input.opts);
            out.check(again.trace_hash == *hash, 1, || {
                format!("op {i} did not reproduce its trace hash")
            });
        }
        out
    }
}
