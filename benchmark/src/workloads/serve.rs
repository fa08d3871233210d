//! `serve-steady` and `serve-overload`: the diagnosis daemon at 1× and 2×.
//!
//! Op = one offered report. The report stream is generated once in set-up
//! and reused by every round. A round boots a fresh
//! `Daemon::recover(cfg, SharedStore::new())`, offers the stream through
//! `run` on growing prefixes in 1,024-report steps (`run` skips the
//! committed prefix, so each step is a timed unit of 1,024 ops), then
//! `finish`es. At 1× under 2% of reports are shed; at 2× about half are, and
//! each shed also journals a `FlightTail`, so the pair shows a change that
//! helps one path and taxes the other.

use concilium_serve::{Daemon, FailureReport, ServeConfig, Shape, SharedStore, WorkloadSpec};

use super::{derive, timed, Outcome, SimDigest, Size, Stream, Workload};
use crate::result::Metric;
use crate::tracer::{NoTrace, Tracer};

const STEP: usize = 1_024;
const REPORTS: usize = 131_072;
const SMOKE_REPORTS: usize = 4 * STEP;
/// Steps of the warm-up round.
const WARM_UP_STEPS: usize = 8;

pub struct ServeSteady;
pub struct ServeOverload;

pub struct Input {
    cfg: ServeConfig,
    reports: Vec<FailureReport>,
}

struct Round {
    daemon: Daemon,
    store: SharedStore,
}

/// One round over `reports`; unit times go to `out` when given.
fn round<T: Tracer>(
    cfg: &ServeConfig,
    reports: &[FailureReport],
    op_base: u64,
    tracer: &mut T,
    mut out: Option<&mut Outcome>,
) -> Round {
    let store = SharedStore::new();
    let span = tracer.enter("serve.recover", op_base);
    let (mut daemon, _) = Daemon::recover(cfg.clone(), store.clone());
    tracer.exit(span);
    for (step, end) in (STEP..=reports.len()).step_by(STEP).enumerate() {
        let ((), ms) = timed(|| {
            let span = tracer.enter("serve.run", op_base + step as u64);
            daemon.run(&reports[..end]);
            tracer.exit(span);
        });
        if let Some(out) = out.as_deref_mut() {
            out.unit_ms.push(ms);
            out.timed_s += ms / 1e3;
            out.ops_attempted += STEP as u64;
        }
    }
    let ((), ms) = timed(|| {
        let span = tracer.enter("serve.finish", op_base);
        daemon.finish();
        tracer.exit(span);
    });
    if let Some(out) = out {
        out.timed_s += ms / 1e3;
    }
    Round { daemon, store }
}

fn setup(seed: u64, size: &Size, load: f64) -> Input {
    let cfg = ServeConfig::default();
    let spec = WorkloadSpec {
        reports: if size.smoke { SMOKE_REPORTS } else { REPORTS },
        shape: Shape::Uniform,
        load,
        ..WorkloadSpec::default()
    };
    let reports = spec.generate(&cfg, derive(seed, Stream::Ops, 0));
    let warm = (WARM_UP_STEPS * STEP).min(reports.len());
    std::hint::black_box(
        round(&cfg, &reports[..warm], 0, &mut NoTrace, None)
            .daemon
            .counters(),
    );
    Input { cfg, reports }
}

fn run<T: Tracer>(
    name: &str,
    nominal_rounds: usize,
    overload: bool,
    input: &Input,
    size: &Size,
    tracer: &mut T,
) -> Outcome {
    let rounds = size.count(nominal_rounds);
    let per_round = input.reports.len() as u64;
    let mut out = Outcome {
        unit_ops: STEP as u64,
        ..Outcome::default()
    };
    let mut digest = SimDigest::new(name);
    let mut first: Option<(usize, String)> = None;
    let mut bytes_per_report = 0.0;

    for r in 0..rounds as u64 {
        let done = round(
            &input.cfg,
            &input.reports,
            r * per_round / STEP as u64,
            tracer,
            Some(&mut out),
        );

        // Verification, untimed.
        let c = done.daemon.counters();
        out.ops_refused += c.shed;
        out.check(
            c.offered == per_round && c.offered == c.admitted + c.shed,
            per_round,
            || {
                format!(
                    "round {r}: offered {} != admitted {} + shed {}",
                    c.offered, c.admitted, c.shed
                )
            },
        );
        out.check(c.completed == c.admitted, per_round, || {
            format!(
                "round {r}: completed {} of {} admitted",
                c.completed, c.admitted
            )
        });
        let shed_share = c.shed as f64 / c.offered.max(1) as f64;
        let shed_ok = if overload {
            c.shed > 0
        } else {
            shed_share < 0.02
        };
        out.check(shed_ok, per_round, || {
            format!("round {r}: shed share {shed_share:.4}")
        });

        // The journal digest re-hashes every record, so it is taken once;
        // later rounds are held to the first by journal length and state
        // digest, and the last round's journal must also recover to that
        // state.
        let state = done.daemon.state().digest_hex();
        let journal_len = done.store.len();
        match &first {
            None => {
                digest.str(&done.daemon.journal_digest());
                digest.str(&state);
                bytes_per_report = journal_len as f64 / c.offered.max(1) as f64;
                first = Some((journal_len, state.clone()));
            }
            Some(first) => out.check(*first == (journal_len, state.clone()), per_round, || {
                format!("round {r} left a different journal or state than round 0")
            }),
        }
        if r + 1 == rounds as u64 {
            let (recovered, _) = Daemon::recover(input.cfg.clone(), done.store.clone());
            out.check(recovered.state().digest_hex() == state, per_round, || {
                "recovery over the finished journal did not reproduce the state digest".to_string()
            });
        }
    }
    out.extras.push(Metric::measured(
        "serve.journal_bytes_per_report",
        bytes_per_report,
    ));
    out.sim_digest = digest.hex();
    out
}

impl Workload for ServeSteady {
    type Input = Input;
    const NAME: &'static str = "serve-steady";

    fn setup(seed: u64, size: &Size) -> Input {
        setup(seed, size, 1.0)
    }

    fn run<T: Tracer>(input: &Input, _seed: u64, size: &Size, tracer: &mut T) -> Outcome {
        run(Self::NAME, 24, false, input, size, tracer)
    }
}

impl Workload for ServeOverload {
    type Input = Input;
    const NAME: &'static str = "serve-overload";

    fn setup(seed: u64, size: &Size) -> Input {
        setup(seed, size, 2.0)
    }

    fn run<T: Tracer>(input: &Input, _seed: u64, size: &Size, tracer: &mut T) -> Outcome {
        run(Self::NAME, 14, true, input, size, tracer)
    }
}
