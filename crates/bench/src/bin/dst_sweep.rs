//! Deterministic-simulation-testing sweep driver.
//!
//! Runs the standard fault grid across a configurable number of seeds,
//! checks every whole-system invariant, verifies replay determinism on
//! each grid arm, and exits non-zero with a copy-pasteable reproducer if
//! anything breaks.
//!
//! With `--jobs N` the sweep fans episodes out over N worker threads; the
//! deterministic parallel layer guarantees bit-identical results at any
//! worker count. With `--bench-json PATH` the sweep is additionally timed
//! serially (jobs = 1) and in parallel, the two trace digests are compared
//! (non-zero exit on mismatch), and a JSON benchmark report is written.
//!
//! ```text
//! cargo run --release -p concilium-bench --bin dst-sweep -- \
//!     --seeds 32 --jobs 4 --bench-json BENCH_dst_sweep.json
//! ```

use std::process::ExitCode;
use std::time::Instant;

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
    bench_json: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    explain: Option<String>,
    explain_out: Option<String>,
    before_secs: Option<f64>,
    profile: bool,
    verbose: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        seeds: 32,
        jobs: None,
        bench_json: None,
        trace_out: None,
        metrics_out: None,
        explain: None,
        explain_out: None,
        before_secs: None,
        profile: false,
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
            "--bench-json" => {
                let value = args.next().ok_or("--bench-json requires a path")?;
                opts.bench_json = Some(value);
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
            "--before-secs" => {
                let value = args.next().ok_or("--before-secs requires a number")?;
                let secs: f64 =
                    value.parse().map_err(|e| format!("--before-secs: {e}"))?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err("--before-secs must be a positive number".into());
                }
                opts.before_secs = Some(secs);
            }
            "--profile" => opts.profile = true,
            "--verbose" | "-v" => opts.verbose = true,
            "--help" | "-h" => {
                println!(
                    "usage: dst-sweep [--seeds N] [--jobs N] [--bench-json PATH]\n\
                     \x20                [--trace-out PATH] [--metrics-out PATH]\n\
                     \x20                [--profile] [--verbose]\n\
                     \n\
                     --seeds N        seeds per grid arm (default: 32)\n\
                     --jobs N         worker threads (default: CONCILIUM_JOBS or all cores)\n\
                     --bench-json P   time serial vs parallel, assert identical trace\n\
                     \x20                digests, and write a JSON benchmark report to P\n\
                     --trace-out P    write every episode's structured trace as JSONL to P\n\
                     \x20                (byte-identical at any --jobs value)\n\
                     --metrics-out P  write the merged deterministic metrics registry to P\n\
                     --explain E      explain entity E (message:3 | blame:4 | shed:9) from\n\
                     \x20                every collected episode trace, as canonical JSON\n\
                     \x20                lines (byte-identical at any --jobs value)\n\
                     --explain-out P  write the explanation (and, on an invariant\n\
                     \x20                violation, the causal-chain reproducer) to P —\n\
                     \x20                the CI failure artifact\n\
                     --before-secs S  embed a pre-rewrite serial baseline (seconds) in the\n\
                     \x20                bench report, with the resulting improvement factor\n\
                     --profile        enable wall-clock span timers (outside the\n\
                     \x20                determinism contract) and write BENCH_profile.json\n\
                     --verbose        per-arm progress lines and cache statistics"
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

/// Hand-formatted JSON (the workspace deliberately has no JSON dependency;
/// every emitted value is a number, a bool, or a hex/ASCII string).
#[allow(clippy::too_many_arguments)]
fn bench_report(
    seeds: u64,
    arms: usize,
    jobs: usize,
    host_cores: usize,
    serial_secs: f64,
    parallel_secs: f64,
    before_secs: Option<f64>,
    serial: &ExploreOutcome,
    parallel: &ExploreOutcome,
) -> String {
    let speedup = if parallel_secs > 0.0 { serial_secs / parallel_secs } else { 0.0 };
    // The pre-rewrite baseline is an input, not a measurement this run can
    // make itself; when provided it records the A/B result alongside the
    // fresh numbers so the committed report is self-describing.
    let before = before_secs.map_or(String::new(), |b| {
        let improvement = if serial_secs > 0.0 { b / serial_secs } else { 0.0 };
        format!(
            "  \"before_serial_secs\": {b:.6},\n  \
             \"serial_improvement_x\": {improvement:.4},\n"
        )
    });
    format!(
        "{{\n  \"benchmark\": \"dst_sweep\",\n  \"world_seed\": {WORLD_SEED},\n  \
         \"seeds_per_arm\": {seeds},\n  \"grid_arms\": {arms},\n  \
         \"episodes\": {episodes},\n  \"jobs\": {jobs},\n  \
         \"host_cores\": {host_cores},\n  \"serial_secs\": {serial_secs:.6},\n  \
         \"parallel_secs\": {parallel_secs:.6},\n  \"speedup\": {speedup:.4},\n\
         {before}  \
         \"serial_trace_digest\": \"{sd}\",\n  \"parallel_trace_digest\": \"{pd}\",\n  \
         \"digests_match\": {ok}\n}}\n",
        episodes = serial.episodes_run,
        sd = serial.trace_digest,
        pd = parallel.trace_digest,
        ok = serial.trace_digest == parallel.trace_digest,
    )
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
    if opts.profile {
        concilium_obs::set_profiling(true);
    }

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

    let out = if let Some(path) = &opts.bench_json {
        // Benchmark mode: timed serial baseline, then the timed parallel
        // sweep, then a digest-equality check between the two.
        let t0 = Instant::now();
        let serial = explore_jobs(&world, &grid, &seeds, &episode_opts, 1);
        let serial_secs = t0.elapsed().as_secs_f64();
        println!("  serial   ({} episodes) {serial_secs:.3}s", serial.episodes_run);

        let t1 = Instant::now();
        let parallel = explore_jobs(&world, &grid, &seeds, &episode_opts, jobs);
        let parallel_secs = t1.elapsed().as_secs_f64();
        let speedup = if parallel_secs > 0.0 { serial_secs / parallel_secs } else { 0.0 };
        println!(
            "  parallel ({} episodes, {jobs} jobs) {parallel_secs:.3}s  speedup {speedup:.2}x",
            parallel.episodes_run
        );

        let host_cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let report = bench_report(
            opts.seeds,
            grid.len(),
            jobs,
            host_cores,
            serial_secs,
            parallel_secs,
            opts.before_secs,
            &serial,
            &parallel,
        );
        if let Err(err) = std::fs::write(path, &report) {
            eprintln!("dst-sweep: cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("  bench report written to {path}");

        if serial.trace_digest != parallel.trace_digest {
            eprintln!(
                "dst-sweep: TRACE DIGEST MISMATCH between jobs=1 and jobs={jobs}:\n  {}\n  {}",
                serial.trace_digest, parallel.trace_digest
            );
            return ExitCode::FAILURE;
        }
        println!("  digests match across jobs=1 and jobs={jobs}");
        parallel
    } else {
        explore_jobs(&world, &grid, &seeds, &episode_opts, jobs)
    };

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
            "  [caches] world-build path cache: {} hits, {} misses",
            tree.hits, tree.misses
        );
    }

    if opts.profile {
        // Tracing-overhead A/B: ring at default capacity vs capacity 0,
        // hash-equality asserted, so the profile carries the causal
        // layer's retention cost explicitly.
        let tr = concilium_bench::micro::trace_overhead(&world, 4, 4);
        println!(
            "  micro: trace on/off {} episodes x{} reps, digests identical",
            tr.episodes, tr.reps
        );
        let path = "BENCH_profile.json";
        let report = concilium_obs::profile_report_json();
        if let Err(err) = std::fs::write(path, &report) {
            eprintln!("dst-sweep: cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
        let phases = concilium_obs::profile_snapshot().len();
        println!("  profile ({phases} phases) written to {path}");
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
