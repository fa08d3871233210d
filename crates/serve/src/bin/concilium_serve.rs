//! `concilium-serve` — run the diagnosis daemon over a seeded workload.
//!
//! The binary is the operational face of the crate: it regenerates the
//! seeded open-loop workload, recovers the journal file (if one exists
//! from a previous — possibly crashed — invocation), runs the daemon to
//! quiescence, and persists the journal back. Because the workload is
//! derived from the seed and the journal carries the resume point, a
//! kill/rerun cycle at the same seed continues the same run and ends
//! with the same digests an uninterrupted invocation prints.
//!
//! ```text
//! concilium-serve --seed 7 --reports 256 --shape bursty --load 2.0 \
//!     --journal /tmp/serve.wal --kill-at 100 --metrics-out /tmp/serve.json
//! ```
//!
//! `--kill-at N` injects a chaos panic before input `N` (captured by
//! the in-process supervisor), for demonstrating recovery end to end.
//! Virtual time only: the daemon clock is simulated, so runs are
//! bit-reproducible regardless of host speed.

use std::process::ExitCode;

use concilium_obs::{explain, CausalIndex, ExplainQuery};
use concilium_serve::{
    records_to_traced, Journal, KillPoint, PanicSite, Record, ServeConfig, Shape, SharedStore,
    Supervisor, WorkloadSpec, PANIC_FLUSH,
};

struct Args {
    seed: u64,
    reports: usize,
    shape: Shape,
    load: f64,
    journal: Option<String>,
    kill_at: Option<u64>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    explain: Option<ExplainQuery>,
    quiet: bool,
}

fn usage() -> &'static str {
    "usage: concilium-serve [--seed N] [--reports N] [--shape uniform|bursty|diurnal]\n\
     \u{20}                      [--load F] [--journal PATH] [--kill-at N]\n\
     \u{20}                      [--metrics-out PATH] [--trace-out PATH]\n\
     \u{20}                      [--explain report:N] [--quiet]\n\
     \n\
     --explain answers from the journal alone (admit → complete → commit,\n\
     or shed with its flushed flight-recorder tail), so it works on a WAL\n\
     left behind by a crashed run; pass --reports 0 with --journal to\n\
     explain without processing further inputs."
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 7,
        reports: 256,
        shape: Shape::Uniform,
        load: 1.0,
        journal: None,
        kill_at: None,
        metrics_out: None,
        trace_out: None,
        explain: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| format!("{name} requires a value\n{}", usage()))
        };
        match flag.as_str() {
            "--seed" => args.seed = parse_num(&value("--seed")?)?,
            "--reports" => args.reports = parse_num::<usize>(&value("--reports")?)?,
            "--shape" => {
                let s = value("--shape")?;
                args.shape = Shape::from_name(&s)
                    .ok_or_else(|| format!("unknown shape {s:?}\n{}", usage()))?;
            }
            "--load" => {
                let s = value("--load")?;
                args.load =
                    s.parse().map_err(|_| format!("bad --load {s:?}\n{}", usage()))?;
            }
            "--journal" => args.journal = Some(value("--journal")?),
            "--kill-at" => args.kill_at = Some(parse_num(&value("--kill-at")?)?),
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")?),
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--explain" => {
                let token = value("--explain")?;
                args.explain = Some(ExplainQuery::parse_token(&token).ok_or_else(|| {
                    format!("bad --explain {token:?} (want e.g. shed:9 or report:9)\n{}", usage())
                })?);
            }
            "--quiet" => args.quiet = true,
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad numeric argument {s:?}\n{}", usage()))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let cfg = ServeConfig::default();
    let spec = WorkloadSpec {
        reports: args.reports,
        shape: args.shape,
        load: args.load,
        ..WorkloadSpec::default()
    };
    let inputs = spec.generate(&cfg, args.seed);

    // Recover an existing journal image if one is on disk: the daemon
    // resumes exactly where the last (possibly killed) run committed.
    let store = match &args.journal {
        Some(path) => match std::fs::read(path) {
            Ok(bytes) => SharedStore::from_bytes(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => SharedStore::new(),
            Err(e) => return Err(format!("reading journal {path:?}: {e}")),
        },
        None => SharedStore::new(),
    };

    let kills = args
        .kill_at
        .map(|input| {
            vec![KillPoint { input, site: PanicSite::BeforeInput, torn_garbage: Vec::new() }]
        })
        .unwrap_or_default();
    let injected = kills.len();

    let run = Supervisor::new(cfg, store.clone(), kills).run(&inputs);

    if let Some(path) = &args.journal {
        std::fs::write(path, store.snapshot())
            .map_err(|e| format!("writing journal {path:?}: {e}"))?;
    }
    if let Some(path) = &args.metrics_out {
        std::fs::write(path, run.metrics.to_json())
            .map_err(|e| format!("writing metrics {path:?}: {e}"))?;
    }
    if let Some(path) = &args.trace_out {
        let seed_s = args.seed.to_string();
        std::fs::write(path, run.trace.to_jsonl(&[("episode", "serve"), ("seed", &seed_s)]))
            .map_err(|e| format!("writing trace {path:?}: {e}"))?;
    }
    if let Some(query) = &args.explain {
        // Answer from the WAL alone: derive the daemon's causal event
        // stream from the journal records and walk the index. This is
        // the post-crash path — the in-memory trace ring of a crashed
        // incarnation is gone, but its journal (including any flushed
        // flight-recorder tails) is not.
        let (records, _) = Journal::over(store.clone()).scan();
        let traced = records_to_traced(&records);
        let index = CausalIndex::from_events(traced.iter());
        let explanation = explain(&index, query);
        println!("{}", explanation.render_text());
        for rec in &records {
            if let Record::FlightTail { report_id, entries, .. } = rec {
                let about = match (query, report_id) {
                    (_, id) if *id == PANIC_FLUSH => true,
                    (ExplainQuery::Shed(want), id) => id == want,
                    _ => false,
                };
                if !about {
                    continue;
                }
                let trigger = if *report_id == PANIC_FLUSH {
                    "panic".to_string()
                } else {
                    format!("shed of report {report_id}")
                };
                println!("flight recorder tail at {trigger}:");
                for e in entries {
                    println!("  {}", e.render());
                }
            }
        }
    }

    if !args.quiet {
        let c = run.counters;
        println!(
            "concilium-serve seed={} reports={} shape={} load={}",
            args.seed,
            args.reports,
            args.shape.name(),
            args.load
        );
        println!(
            "  offered={} admitted={} shed={} completed={} accusations={}",
            c.offered,
            c.admitted,
            c.shed + run.degraded_shed,
            c.completed,
            c.accusations
        );
        println!(
            "  incidents={} injected_kills={injected} degraded={}",
            run.incidents, run.degraded
        );
        println!("  journal_digest={}", run.journal_digest);
        let state_hex: String =
            run.state_digest.iter().map(|b| format!("{b:02x}")).collect();
        println!("  state_digest={state_hex}");
    }
    if run.degraded {
        return Err("daemon ended degraded: restart budget exhausted".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
