//! Coverage-guided scenario-fuzzing driver.
//!
//! Runs the seeded fuzz loop from `concilium_sim::fuzz` against a chosen
//! world, prints coverage/corpus/failure summaries, optionally writes the
//! corpus as replayable `.corpus` files and failures as reproducers, and
//! exits non-zero if any invariant violation was found.
//!
//! With `--plant-mutant` the episode blame combinator is replaced by the
//! constant-1.0 mutant (every judged hop maximally guilty) as a negative
//! control: the run then *must* find a violation within the budget, and
//! the exit code inverts.
//!
//! ```text
//! cargo run --release -p concilium-bench --bin fuzz -- \
//!     --fuzz-budget 120 --seed 1 --jobs 4 --corpus-out tests/corpus
//! ```

use std::collections::BTreeSet;
use std::process::ExitCode;

use concilium::blame::LinkEvidence;
use concilium_obs::{json, Trace, TraceEvent};
use concilium_par::Jobs;
use concilium_sim::{
    fuzz::fuzz, run_episode, EpisodeConfig, EpisodeOptions, FuzzConfig, SimWorld, WorldKind,
};
use concilium_tomography::AmbiguityClasses;

struct Options {
    budget: usize,
    seed: u64,
    jobs: Option<usize>,
    batch: usize,
    world: WorldKind,
    world_seed: u64,
    corpus_out: Option<String>,
    findings_out: Option<String>,
    trace_out: Option<String>,
    max_corpus: usize,
    no_shrink: bool,
    plant_mutant: bool,
    compare_grid: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        budget: 200,
        seed: 1,
        jobs: None,
        batch: 16,
        world: WorldKind::Dst,
        world_seed: 77,
        corpus_out: None,
        findings_out: None,
        trace_out: None,
        max_corpus: 32,
        no_shrink: false,
        plant_mutant: false,
        compare_grid: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| args.next().ok_or(format!("{name} requires a value"));
        match arg.as_str() {
            "--fuzz-budget" => {
                let v = take("--fuzz-budget")?;
                opts.budget =
                    v.parse().map_err(|_| format!("invalid --fuzz-budget value: {v}"))?;
                if opts.budget == 0 {
                    return Err("--fuzz-budget must be at least 1".into());
                }
            }
            "--seed" => {
                let v = take("--seed")?;
                opts.seed = v.parse().map_err(|_| format!("invalid --seed value: {v}"))?;
            }
            "--jobs" => {
                let v = take("--jobs")?;
                let jobs: usize = v.parse().map_err(|_| format!("invalid --jobs value: {v}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                opts.jobs = Some(jobs);
            }
            "--batch" => {
                let v = take("--batch")?;
                opts.batch = v.parse().map_err(|_| format!("invalid --batch value: {v}"))?;
                if opts.batch == 0 {
                    return Err("--batch must be at least 1".into());
                }
            }
            "--world" => {
                let v = take("--world")?;
                opts.world = WorldKind::parse(&v)
                    .ok_or(format!("unknown --world `{v}` (dst | bottleneck)"))?;
            }
            "--world-seed" => {
                let v = take("--world-seed")?;
                opts.world_seed =
                    v.parse().map_err(|_| format!("invalid --world-seed value: {v}"))?;
            }
            "--corpus-out" => opts.corpus_out = Some(take("--corpus-out")?),
            "--findings-out" => opts.findings_out = Some(take("--findings-out")?),
            "--trace-out" => opts.trace_out = Some(take("--trace-out")?),
            "--max-corpus" => {
                let v = take("--max-corpus")?;
                opts.max_corpus =
                    v.parse().map_err(|_| format!("invalid --max-corpus value: {v}"))?;
            }
            "--no-shrink" => opts.no_shrink = true,
            "--plant-mutant" => opts.plant_mutant = true,
            "--compare-grid" => opts.compare_grid = true,
            "--help" | "-h" => {
                println!(
                    "usage: fuzz [--fuzz-budget N] [--seed N] [--jobs N] [--batch N]\n\
                     \x20           [--world dst|bottleneck] [--world-seed N]\n\
                     \x20           [--corpus-out DIR] [--findings-out PATH]\n\
                     \x20           [--trace-out PATH] [--max-corpus N] [--no-shrink]\n\
                     \x20           [--plant-mutant] [--compare-grid] [--help|-h]\n\
                     \n\
                     --fuzz-budget N  episodes to run (default: 200)\n\
                     --seed N         master fuzz seed (default: 1)\n\
                     --jobs N         worker threads; results are bit-identical at any N\n\
                     --batch N        candidates per synchronisation point (default: 16)\n\
                     --world W        dst (default) or bottleneck (AS-like shared links,\n\
                     \x20               sparse probing)\n\
                     --world-seed N   world build seed (default: 77)\n\
                     --corpus-out D   write each corpus entry to D/<name>.corpus\n\
                     --findings-out P write failure reproducers (with causal chains) to P\n\
                     --trace-out P    replay the corpus and write every entry's trace,\n\
                     \x20               then every failing case's, as JSONL to P, with\n\
                     \x20               meta-ambiguity sidecar lines (the per-judge\n\
                     \x20               identifiability partition) when a judge's probe\n\
                     \x20               matrix is ambiguous — bottleneck worlds; query it\n\
                     \x20               with concilium-explain\n\
                     --max-corpus N   keep at most N corpus entries (default: 32)\n\
                     --no-shrink      skip coverage-preserving corpus minimisation\n\
                     --plant-mutant   negative control: plant the constant-1.0 blame\n\
                     \x20               mutant; exit 0 iff the fuzzer catches it\n\
                     --compare-grid   also run the static 4-arm grid on the same seeds\n\
                     \x20               and report the coverage delta"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(opts)
}

/// The deliberately broken combinator: every judged hop maximally guilty.
fn mutant_blame(_evidence: &[LinkEvidence], _accuracy: f64) -> f64 {
    1.0
}

/// Appends one episode stream to a `--trace-out` file: the trace as
/// JSONL, followed by `meta-ambiguity` sidecar lines — for every judge
/// that accumulated a verdict in the stream, the identifiability
/// partition its probe matrix admits, but only when a class is genuinely
/// ambiguous (more than one link), which is the bottleneck-world
/// signature. `concilium-explain` folds the sidecars into its answers.
fn push_stream(jsonl: &mut String, world: &SimWorld, name: &str, seed: u64, trace: &Trace) {
    let seed_s = seed.to_string();
    jsonl.push_str(&trace.to_jsonl(&[("episode", name), ("seed", &seed_s)]));
    let mut judges: BTreeSet<u64> = BTreeSet::new();
    for t in trace.events() {
        if let TraceEvent::VerdictAccumulated { judge, .. } = &t.event {
            judges.insert(*judge);
        }
    }
    for judge in judges {
        let classes = AmbiguityClasses::from_probe_tree(world.tree(judge as usize));
        if classes.classes().iter().all(|c| c.len() < 2) {
            continue;
        }
        let rendered: Vec<String> = classes
            .classes()
            .iter()
            .map(|c| {
                let links: Vec<String> = c.iter().map(|l| l.0.to_string()).collect();
                format!("[{}]", links.join(","))
            })
            .collect();
        jsonl.push_str(&format!(
            "{{\"kind\":\"meta-ambiguity\",\"episode\":{},\"seed\":{},\
             \"judge\":{judge},\"classes\":[{}]}}\n",
            json::escape(name),
            json::escape(&seed_s),
            rendered.join(",")
        ));
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(err) => {
            eprintln!("fuzz: {err}");
            return ExitCode::FAILURE;
        }
    };
    let jobs = Jobs::resolve(opts.jobs).get();
    let world = opts.world.build(opts.world_seed);
    let mut episode_opts = EpisodeOptions::default();
    if opts.plant_mutant {
        episode_opts.blame_fn = mutant_blame;
    }
    let fuzz_cfg = FuzzConfig {
        budget: opts.budget,
        seed: opts.seed,
        jobs,
        batch: opts.batch,
        shrink_corpus: !opts.no_shrink,
        max_corpus: opts.max_corpus,
    };

    println!(
        "fuzz: world {} (seed {}), {} hosts, budget {} episodes, batch {}, {jobs} worker{}{}",
        opts.world.name(),
        opts.world_seed,
        world.num_hosts(),
        opts.budget,
        opts.batch,
        if jobs == 1 { "" } else { "s" },
        if opts.plant_mutant { ", constant-1.0 blame mutant planted" } else { "" },
    );

    let out = fuzz(&world, &fuzz_cfg, &episode_opts);
    println!(
        "  {} episodes, {} coverage buckets, {} corpus entries, {} failure{}",
        out.episodes_run,
        out.coverage.len(),
        out.corpus.len(),
        out.failures.len(),
        if out.failures.len() == 1 { "" } else { "s" },
    );

    if opts.compare_grid {
        let seeds: Vec<u64> = (0..8).collect();
        let grid = EpisodeConfig::standard_grid();
        let grid_cov =
            concilium_sim::grid_coverage(&world, &grid, &seeds, &EpisodeOptions::default());
        println!(
            "  static 4-arm grid x {} seeds: {} buckets; fuzz-only buckets: {}",
            seeds.len(),
            grid_cov.len(),
            grid_cov.novelty_of(&out.coverage),
        );
    }

    if let Some(dir) = &opts.corpus_out {
        if let Err(err) = std::fs::create_dir_all(dir) {
            eprintln!("fuzz: cannot create {dir}: {err}");
            return ExitCode::FAILURE;
        }
        for entry in &out.corpus {
            let path = format!("{dir}/{}.corpus", entry.name);
            if let Err(err) = std::fs::write(&path, entry.render(opts.world, opts.world_seed)) {
                eprintln!("fuzz: cannot write {path}: {err}");
                return ExitCode::FAILURE;
            }
        }
        println!("  corpus written to {dir} ({} entries)", out.corpus.len());
    }

    if let Some(path) = &opts.trace_out {
        // Every corpus entry, then every failing case, replayed with its
        // whole trace retained (the fuzz loop itself keeps only the ring
        // tail), one JSONL stream each.
        let whole = EpisodeOptions { trace_capacity: usize::MAX, ..episode_opts };
        let replays = out
            .corpus
            .iter()
            .map(|e| (&e.name, &e.config, e.seed))
            .chain(out.failures.iter().map(|c| (&c.name, &c.config, c.seed)));
        let mut jsonl = String::new();
        for (name, config, seed) in replays {
            let ep = run_episode(&world, config, seed, &whole);
            push_stream(&mut jsonl, &world, name, seed, &ep.trace);
        }
        if let Err(err) = std::fs::write(path, &jsonl) {
            eprintln!("fuzz: cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!(
            "  traces written to {path} ({} corpus entries, {} failing cases, {} lines)",
            out.corpus.len(),
            out.failures.len(),
            jsonl.lines().count()
        );
    }

    let mut findings = String::new();
    for case in &out.failures {
        findings.push_str(&case.reproducer());
        findings.push_str("\n\n");
    }
    if let Some(path) = &opts.findings_out {
        if let Err(err) = std::fs::write(path, &findings) {
            eprintln!("fuzz: cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("  findings written to {path}");
    }

    if opts.plant_mutant {
        // Negative control: the run must catch the planted mutant.
        return if out.failures.is_empty() {
            eprintln!("fuzz: planted constant-1.0 blame mutant was NOT caught in budget");
            ExitCode::FAILURE
        } else {
            println!(
                "  planted mutant caught: {} ({})",
                out.failures[0].violation, out.failures[0].name
            );
            ExitCode::SUCCESS
        };
    }

    if out.failures.is_empty() {
        println!("fuzz: all invariants held");
        ExitCode::SUCCESS
    } else {
        eprintln!("fuzz: INVARIANT VIOLATIONS\n{findings}");
        ExitCode::FAILURE
    }
}
