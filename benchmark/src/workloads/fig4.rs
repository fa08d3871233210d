//! `fig4-large`: build the large world, then measure forest coverage.
//!
//! Op = `SimWorld::build` of the large configuration on a fresh seed,
//! followed by `fig4::run(&world, 200)`. This is the construct side of the
//! layers `fig5-large` only reads: `topology::generate`, one BFS per host
//! through `PathCache`, `overlay::build_overlay`, key and certificate
//! issue, `ProbeTree::from_paths`, the failure process through a deep
//! `EventQueue`, `ProbeArchive::record_round`, then `tomography::Forest`.

use concilium_bench::fig4::{self, Row};
use concilium_sim::{SimConfig, SimWorld};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{derive, timed, Outcome, SimDigest, Size, Stream, Workload};
use crate::tracer::Tracer;

/// Ops in the nominal ten-second run.
const NOMINAL_OPS: usize = 3;
const HOST_SAMPLE: usize = 200;

pub struct Fig4Large;

fn build_and_cover<T: Tracer>(cfg: SimConfig, op_seed: u64, op: u64, tracer: &mut T) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(op_seed);
    let span = tracer.enter("sim.world_build", op);
    let world = SimWorld::build(cfg, &mut rng);
    tracer.exit(span);
    let span = tracer.enter("bench.fig4_run", op);
    let rows = fig4::run(&world, HOST_SAMPLE);
    tracer.exit(span);
    rows
}

impl Workload for Fig4Large {
    /// Nothing outlives set-up: every op builds its own world.
    type Input = ();
    const NAME: &'static str = "fig4-large";

    /// The warm-up unit is a build of the *medium* world: enough to fill
    /// the crates' lazy tables, a sixth of the cost of an op. (An op-sized
    /// warm-up, repeated for the `setup_s` median, would double the run.)
    fn setup(seed: u64, size: &Size) {
        let cfg = if size.smoke {
            SimConfig::tiny()
        } else {
            SimConfig::medium()
        };
        let rows = build_and_cover(
            cfg,
            derive(seed, Stream::WarmUp, 0),
            0,
            &mut crate::tracer::NoTrace,
        );
        std::hint::black_box(rows);
    }

    fn run<T: Tracer>(_input: &(), seed: u64, size: &Size, tracer: &mut T) -> Outcome {
        let ops = size.count(NOMINAL_OPS);
        let mut out = Outcome {
            unit_ops: 1,
            ..Outcome::default()
        };
        let mut digest = SimDigest::new("fig4-large");
        for op in 0..ops as u64 {
            let (rows, ms) = timed(|| {
                build_and_cover(
                    size.large_world(),
                    derive(seed, Stream::Ops, op),
                    op,
                    tracer,
                )
            });
            out.unit_ms.push(ms);
            out.timed_s += ms / 1e3;
            out.ops_attempted += 1;

            // Each host's curve is monotone; a row averages the hosts that
            // have that many peers, so the mean is held to it only between
            // rows the same hosts contribute to.
            let monotone = rows
                .windows(2)
                .all(|w| w[1].hosts != w[0].hosts || w[1].coverage + 1e-9 >= w[0].coverage);
            out.check(monotone, 1, || format!("op {op}: coverage is not monotone"));
            let (first, last) = (rows.first(), rows.last());
            out.check(
                last.is_some_and(|r| (r.coverage - 1.0).abs() < 1e-9),
                1,
                || {
                    format!(
                        "op {op}: coverage ends at {:?}, not 100%",
                        last.map(|r| r.coverage)
                    )
                },
            );
            out.check(
                first
                    .zip(last)
                    .is_some_and(|(f, l)| l.vouchers > f.vouchers),
                1,
                || format!("op {op}: vouchers per link do not grow"),
            );
            for r in &rows {
                digest.u64(r.trees as u64);
                digest.f64(r.coverage);
                digest.f64(r.vouchers);
                digest.u64(r.hosts as u64);
            }
        }
        out.sim_digest = digest.hex();
        out
    }
}
