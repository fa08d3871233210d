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
//! `--trace-out`/`--metrics-out` files of two runs at different `--jobs`
//! values must `cmp` equal. "Why?" is answered from the trace file by
//! `concilium-explain`, never here. The sweep is never timed here:
//! wall-clock numbers come from `benchmark/` only.
//!
//! ```text
//! cargo run --release -p concilium-bench --bin dst-sweep -- \
//!     --seeds 32 --jobs 4 --trace-out dst_trace.jsonl
//! ```

use std::process::ExitCode;

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
    verbose: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        seeds: 32,
        jobs: None,
        trace_out: None,
        metrics_out: None,
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
            "--verbose" | "-v" => opts.verbose = true,
            "--help" | "-h" => {
                println!(
                    "usage: dst-sweep [--seeds N] [--jobs N]\n\
                     \x20                [--trace-out PATH] [--metrics-out PATH]\n\
                     \x20                [--verbose|-v] [--help|-h]\n\
                     \n\
                     --seeds N        seeds per grid arm (default: 32)\n\
                     --jobs N         worker threads (default: CONCILIUM_JOBS or all cores)\n\
                     --trace-out P    write every episode's structured trace as JSONL to P\n\
                     \x20                (byte-identical at any --jobs value; query it\n\
                     \x20                with concilium-explain)\n\
                     --metrics-out P  write the merged deterministic metrics registry to P\n\
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

    let world = dst_world(WORLD_SEED);
    let mut episode_opts = EpisodeOptions::default();
    if opts.trace_out.is_some() {
        // An export holds whole episodes; from the default ring's tail
        // `concilium-explain --orphans` reads every evicted send as one.
        episode_opts.collect_traces = true;
        episode_opts.trace_capacity = usize::MAX;
    }
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

    if opts.verbose {
        // Thread-dependent cache statistics: useful for tuning, but
        // deliberately outside the deterministic registry and digests.
        let memo = concilium_crypto::memo_stats_full();
        eprintln!(
            "  [caches] signature memo: {} hits, {} misses, {} evictions",
            memo.hits, memo.misses, memo.evictions
        );
    }

    // Service-mode chaos arm: seeded kill/recover schedules against the
    // diagnosis daemon. Each seed's supervised run must leave the same
    // journal and state digests as an uninterrupted baseline.
    let serve_cfg = ServeConfig::default();
    let serve_spec = WorkloadSpec { reports: 64, ..WorkloadSpec::default() };
    let chaos = chaos_sweep(&serve_cfg, &serve_spec, WORLD_SEED, opts.seeds as usize, jobs);
    println!(
        "  serve-chaos: {} seeds, {} kills injected, {} violations",
        opts.seeds, chaos.total_kills, chaos.total_violations
    );
    println!("  serve-chaos digest {}", chaos.aggregate_digest);
    if chaos.total_violations > 0 {
        for o in &chaos.outcomes {
            for v in &o.violations {
                eprintln!("dst-sweep: SERVE CHAOS VIOLATION seed {}: {v}", o.seed);
            }
        }
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
