//! Deterministic-simulation-testing sweep driver.
//!
//! Runs the standard fault grid across a configurable number of seeds,
//! checks every whole-system invariant, verifies replay determinism on
//! each grid arm, and exits non-zero with a copy-pasteable reproducer if
//! anything breaks.
//!
//! With `--jobs N` the sweep fans episodes out over N worker threads; the
//! deterministic parallel layer guarantees bit-identical results at any
//! worker count, so stdout (bar the worker-count banner) and the
//! `--trace-out`/`--metrics-out`/`--explain-out` files of two runs at
//! different `--jobs` values must `cmp` equal. The sweep is never timed
//! here: wall-clock numbers come from `benchmark/` only.
//!
//! ```text
//! cargo run --release -p concilium-bench --bin dst-sweep -- \
//!     --seeds 32 --jobs 4 --trace-out dst_trace.jsonl
//! ```

use std::process::ExitCode;

use concilium_obs::{explain, json, CausalIndex, ExplainQuery};
use concilium_par::Jobs;
use concilium_serve::{chaos_sweep, ServeConfig, WorkloadSpec};
use concilium_sim::{
    dst_world, explore_jobs, run_episode, EpisodeConfig, EpisodeOptions, ExploreOutcome,
};

const WORLD_SEED: u64 = 77;

struct Options {
    seeds: u64,
    jobs: Option<usize>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    explain: Option<String>,
    explain_out: Option<String>,
    verbose: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        seeds: 32,
        jobs: None,
        trace_out: None,
        metrics_out: None,
        explain: None,
        explain_out: None,
        verbose: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => {
                let value = args.next().ok_or("--seeds requires a value")?;
                opts.seeds = value
                    .parse()
                    .map_err(|_| format!("invalid --seeds value: {value}"))?;
                if opts.seeds == 0 {
                    return Err("--seeds must be at least 1".into());
                }
            }
            "--jobs" => {
                let value = args.next().ok_or("--jobs requires a value")?;
                let jobs: usize = value
                    .parse()
                    .map_err(|_| format!("invalid --jobs value: {value}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                opts.jobs = Some(jobs);
            }
            "--trace-out" => {
                let value = args.next().ok_or("--trace-out requires a path")?;
                opts.trace_out = Some(value);
            }
            "--metrics-out" => {
                let value = args.next().ok_or("--metrics-out requires a path")?;
                opts.metrics_out = Some(value);
            }
            "--explain" => {
                let value = args.next().ok_or("--explain requires an entity")?;
                opts.explain = Some(value);
            }
            "--explain-out" => {
                let value = args.next().ok_or("--explain-out requires a path")?;
                opts.explain_out = Some(value);
            }
            "--verbose" | "-v" => opts.verbose = true,
            "--help" | "-h" => {
                println!(
                    "usage: dst-sweep [--seeds N] [--jobs N]\n\
                     \x20                [--trace-out PATH] [--metrics-out PATH]\n\
                     \x20                [--explain ENTITY] [--explain-out PATH]\n\
                     \x20                [--verbose|-v] [--help|-h]\n\
                     \n\
                     --seeds N        seeds per grid arm (default: 32)\n\
                     --jobs N         worker threads (default: CONCILIUM_JOBS or all cores)\n\
                     --trace-out P    write every episode's structured trace as JSONL to P\n\
                     \x20                (byte-identical at any --jobs value)\n\
                     --metrics-out P  write the merged deterministic metrics registry to P\n\
                     --explain E      explain entity E (message:3 | blame:4 | shed:9) from\n\
                     \x20                every collected episode trace, as canonical JSON\n\
                     \x20                lines (byte-identical at any --jobs value)\n\
                     --explain-out P  write the explanation (and, on an invariant\n\
                     \x20                violation, the causal-chain reproducer) to P —\n\
                     \x20                the CI failure artifact\n\
                     --verbose, -v    per-arm progress lines and cache statistics\n\
                     --help, -h       print this help"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(opts)
}

fn print_outcome(out: &ExploreOutcome) {
    let t = &out.totals;
    println!(
        "  episodes {}  sent {}  delivered {}  settled {}  expired {}",
        out.episodes_run, t.sent, t.delivered, t.settled, t.expired
    );
    println!(
        "  judged {}  guilty {}  escalations {}  dissolved {}  chains {}  dht-refused {}",
        t.judged, t.guilty, t.escalations, t.dissolved, t.chains_checked, t.dht_refused
    );
    println!("  trace digest {}", out.trace_digest);
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(err) => {
            eprintln!("dst-sweep: {err}");
            return ExitCode::FAILURE;
        }
    };
    let jobs = Jobs::resolve(opts.jobs).get();

    // Validate an --explain query before the sweep spends any time.
    let explain_query = match &opts.explain {
        Some(token) => match ExplainQuery::parse_token(token) {
            Some(q) => Some(q),
            None => {
                eprintln!(
                    "dst-sweep: bad --explain {token:?} (want message:<id>, blame:<host>, \
                     or shed:<report>)"
                );
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let world = dst_world(WORLD_SEED);
    let episode_opts = EpisodeOptions {
        collect_traces: opts.trace_out.is_some() || explain_query.is_some(),
        ..EpisodeOptions::default()
    };
    let grid = EpisodeConfig::standard_grid();
    let seeds: Vec<u64> = (0..opts.seeds).collect();

    println!(
        "dst-sweep: {} hosts, {} grid arms x {} seeds (world seed {WORLD_SEED}, {jobs} worker{})",
        world.num_hosts(),
        grid.len(),
        opts.seeds,
        if jobs == 1 { "" } else { "s" }
    );

    // Replay-determinism check: the first seed of every arm, run twice,
    // must produce identical trace hashes.
    for (name, cfg) in &grid {
        let a = run_episode(&world, cfg, seeds[0], &episode_opts);
        let b = run_episode(&world, cfg, seeds[0], &episode_opts);
        if a.trace_hash != b.trace_hash {
            eprintln!(
                "dst-sweep: REPLAY MISMATCH on arm '{name}' seed {}:\n  {}\n  {}",
                seeds[0], a.trace_hash, b.trace_hash
            );
            return ExitCode::FAILURE;
        }
        if opts.verbose {
            println!("  {name:<12} replay ok  trace {}", &a.trace_hash[..16]);
        }
    }

    let out = explore_jobs(&world, &grid, &seeds, &episode_opts, jobs);

    print_outcome(&out);

    if let Some(path) = &opts.trace_out {
        // One JSONL line per event, episodes in sweep submission order:
        // byte-identical output at any --jobs value.
        let mut jsonl = String::new();
        for et in &out.traces {
            jsonl.push_str(&et.trace.to_jsonl(&[
                ("episode", &et.name),
                ("seed", &et.seed.to_string()),
            ]));
        }
        if let Err(err) = std::fs::write(path, &jsonl) {
            eprintln!("dst-sweep: cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!(
            "  trace JSONL written to {path} ({} episodes, {} events)",
            out.traces.len(),
            jsonl.lines().count()
        );
    }

    if let Some(path) = &opts.metrics_out {
        if let Err(err) = std::fs::write(path, out.metrics.to_json()) {
            eprintln!("dst-sweep: cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("  metrics registry written to {path} ({} keys)", out.metrics.len());
    }

    if explain_query.is_some() || opts.explain_out.is_some() {
        // Deterministic explain passthrough: the causal chain for the
        // requested entity from every collected episode trace, in sweep
        // submission order — the same canonical JSON `concilium-explain
        // --json` renders, byte-identical at any --jobs value. On an
        // invariant violation the causal-chain reproducer is appended,
        // which is what CI uploads as the failure artifact.
        let mut payload = String::new();
        if let Some(query) = &explain_query {
            for et in &out.traces {
                let index = CausalIndex::from_events(et.trace.events());
                let ex = explain(&index, query);
                if !ex.found() {
                    continue;
                }
                payload.push_str(&format!(
                    "{{\"episode\":{},\"seed\":{},\"explanation\":{}}}\n",
                    json::escape(&et.name),
                    json::escape(&et.seed.to_string()),
                    ex.render_json()
                ));
            }
            if payload.is_empty() {
                println!(
                    "  explain {}: no events about it in {} collected trace(s)",
                    opts.explain.as_deref().unwrap_or(""),
                    out.traces.len()
                );
            }
        }
        if let Some(failure) = &out.failure {
            payload.push_str(&failure.reproducer());
            payload.push('\n');
        }
        match &opts.explain_out {
            Some(path) => {
                if let Err(err) = std::fs::write(path, &payload) {
                    eprintln!("dst-sweep: cannot write {path}: {err}");
                    return ExitCode::FAILURE;
                }
                println!(
                    "  explanation written to {path} ({} line(s))",
                    payload.lines().count()
                );
            }
            None => print!("{payload}"),
        }
    }

    if opts.verbose {
        // Thread-dependent cache statistics: useful for tuning, but
        // deliberately outside the deterministic registry and digests.
        let memo = concilium_crypto::memo_stats_full();
        eprintln!(
            "  [caches] signature memo: {} hits, {} misses, {} evictions",
            memo.hits, memo.misses, memo.evictions
        );
        let tree = world.build_tree_stats();
        eprintln!(
            "  [caches] world-build BFS trees: {} reuses, {} searches",
            tree.hits, tree.misses
        );
    }

    // Service-mode chaos arm: seeded kill/recover schedules against the
    // diagnosis daemon. Each seed's supervised run must leave the same
    // journal and state digests as an uninterrupted baseline, and the
    // aggregate digest must be identical at any worker count.
    let serve_cfg = ServeConfig::default();
    let serve_spec = WorkloadSpec { reports: 64, ..WorkloadSpec::default() };
    let serve_serial = chaos_sweep(&serve_cfg, &serve_spec, WORLD_SEED, opts.seeds as usize, 1);
    let serve_fanned = chaos_sweep(&serve_cfg, &serve_spec, WORLD_SEED, opts.seeds as usize, jobs);
    println!(
        "  serve-chaos: {} seeds, {} kills injected, {} violations",
        opts.seeds, serve_serial.total_kills, serve_serial.total_violations
    );
    println!("  serve-chaos digest {}", serve_serial.aggregate_digest);
    if serve_serial.total_violations > 0 {
        for o in &serve_serial.outcomes {
            for v in &o.violations {
                eprintln!("dst-sweep: SERVE CHAOS VIOLATION seed {}: {v}", o.seed);
            }
        }
        return ExitCode::FAILURE;
    }
    if serve_serial.aggregate_digest != serve_fanned.aggregate_digest {
        eprintln!(
            "dst-sweep: SERVE CHAOS DIGEST MISMATCH between jobs=1 and jobs={jobs}:\n  {}\n  {}",
            serve_serial.aggregate_digest, serve_fanned.aggregate_digest
        );
        return ExitCode::FAILURE;
    }

    match out.failure {
        None => {
            println!("dst-sweep: all invariants held");
            ExitCode::SUCCESS
        }
        Some(failure) => {
            eprintln!("dst-sweep: INVARIANT VIOLATION\n{}", failure.reproducer());
            ExitCode::FAILURE
        }
    }
}
