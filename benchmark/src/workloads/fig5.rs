//! `fig5-large`: the paper's blame PDFs on the large world.
//!
//! Op = one blame judgment. A timed unit is `concilium_bench::fig5::run`
//! over 64 triples × 10 judgment times, alternating panel (a), faithful
//! reporting, with panel (b), 20% colluding droppers. The world is built in
//! set-up and only read here: `SimWorld::probe_evidence`, `path_up_at`,
//! `ProbeArchive`, `IndexedHistory` and `core::blame`.

use concilium_bench::fig5::{self, Fig5Params};
use concilium_sim::{AdversarySets, Histogram, SimWorld};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{derive, timed, Outcome, SimDigest, Size, Stream, Workload};
use crate::tracer::Tracer;

const TRIPLES_PER_UNIT: usize = 64;
/// Units in the nominal ten-second run: 32,000 triples per panel.
const NOMINAL_UNITS: usize = 1_000;

pub struct Fig5Large;

pub struct Input {
    world: SimWorld,
    /// Panel (a): nobody misbehaves. Panel (b): 20% drop and collude.
    panels: [AdversarySets; 2],
    params: Fig5Params,
}

fn run_unit(input: &Input, panel: usize, unit_seed: u64) -> fig5::Fig5Result {
    let mut rng = StdRng::seed_from_u64(unit_seed);
    fig5::run(&input.world, &input.panels[panel], &input.params, &mut rng)
}

/// Sampling variance of a histogram's guilty rate, with the rate pulled off
/// 0 and 1 (add-one smoothing) so a unanimous small sample is not taken for
/// a certain one.
fn rate_variance(h: &Histogram, threshold: f64) -> f64 {
    let n = h.count() as f64;
    let p = (h.fraction_at_least(threshold) * n + 1.0) / (n + 2.0);
    p * (1.0 - p) / n.max(1.0)
}

impl Workload for Fig5Large {
    type Input = Input;
    const NAME: &'static str = "fig5-large";

    fn setup(seed: u64, size: &Size) -> Input {
        let mut rng = StdRng::seed_from_u64(derive(seed, Stream::World, 0));
        let world = SimWorld::build(size.large_world(), &mut rng);
        let mut adv_rng = StdRng::seed_from_u64(derive(seed, Stream::Adversaries, 0));
        let colluders = AdversarySets::sample(world.num_hosts(), 0.2, 0.2, &mut adv_rng);
        let input = Input {
            world,
            panels: [AdversarySets::none(), colluders],
            params: Fig5Params {
                triples: TRIPLES_PER_UNIT,
                ..Fig5Params::default()
            },
        };
        for panel in 0..2 {
            std::hint::black_box(run_unit(
                &input,
                panel,
                derive(seed, Stream::WarmUp, panel as u64),
            ));
        }
        input
    }

    fn run<T: Tracer>(input: &Input, seed: u64, size: &Size, tracer: &mut T) -> Outcome {
        // Never so few that a class of judgments could stay empty.
        let units = size.count(NOMINAL_UNITS).max(20);
        let per_unit = (TRIPLES_PER_UNIT * input.params.times_per_triple) as u64;
        let bins = input.params.bins;
        let mut out = Outcome {
            unit_ops: per_unit,
            ..Outcome::default()
        };
        // Per panel: (faulty, non-faulty) blame histograms over all units.
        let mut pdfs: [(Histogram, Histogram); 2] =
            std::array::from_fn(|_| (Histogram::new(bins), Histogram::new(bins)));

        for unit in 0..units {
            let panel = unit % 2;
            let unit_seed = derive(seed, Stream::Ops, unit as u64);
            let (result, ms) = timed(|| {
                let span = tracer.enter("bench.fig5_run", unit as u64);
                let r = run_unit(input, panel, unit_seed);
                tracer.exit(span);
                r
            });
            out.unit_ms.push(ms);
            out.timed_s += ms / 1e3;
            out.ops_attempted += per_unit;

            // Every judgment of panel (a) lands in one histogram; panel (b)
            // leaves out good-path judgments of forwarders that never drop.
            let judged = result.faulty.count() + result.nonfaulty.count();
            let sampled_all = if panel == 0 {
                judged == per_unit
            } else {
                judged > 0 && judged <= per_unit
            };
            out.check(sampled_all, per_unit, || {
                format!("unit {unit} (panel {panel}) judged {judged} of {per_unit}")
            });
            pdfs[panel].0.merge(&result.faulty);
            pdfs[panel].1.merge(&result.nonfaulty);
        }

        let threshold = input.params.threshold;
        let rate = |h: &Histogram| h.fraction_at_least(threshold);
        let [(a_faulty, a_good), (b_faulty, b_good)] = &pdfs;
        let all = out.ops_attempted;
        out.check(
            [a_faulty, a_good, b_faulty, b_good]
                .iter()
                .all(|h| h.count() > 0),
            all,
            || "a blame histogram is empty".to_string(),
        );
        out.check(rate(a_good) < 0.15, all, || {
            format!(
                "panel (a) convicts {:.3} of innocent forwarders",
                rate(a_good)
            )
        });
        // The directions crates/bench and tests/figure_shapes.rs assert:
        // collusion shields the guilty and frames the innocent. Their 0.02
        // slack is widened by three standard errors of the difference, which
        // is nothing at full size and decisive on the small smoke world.
        let slack = |x: &Histogram, y: &Histogram| {
            0.02 + 3.0 * (rate_variance(x, threshold) + rate_variance(y, threshold)).sqrt()
        };
        out.check(
            rate(b_faulty) < rate(a_faulty) + slack(a_faulty, b_faulty),
            all,
            || {
                format!(
                    "collusion raised the faulty guilty rate: {:.3} vs {:.3}",
                    rate(b_faulty),
                    rate(a_faulty)
                )
            },
        );
        out.check(
            rate(b_good) > rate(a_good) - slack(a_good, b_good),
            all,
            || {
                format!(
                    "collusion lowered the innocent guilty rate: {:.3} vs {:.3}",
                    rate(b_good),
                    rate(a_good)
                )
            },
        );

        let mut digest = SimDigest::new("fig5-large");
        for (faulty, good) in &pdfs {
            for h in [faulty, good] {
                h.bins().iter().for_each(|&b| digest.u64(b));
            }
        }
        out.sim_digest = digest.hex();
        out
    }
}
