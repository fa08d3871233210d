//! Regenerates every figure and table of the paper's evaluation (§4).
//!
//! ```sh
//! cargo run --release -p concilium-bench --bin experiments -- all
//! cargo run --release -p concilium-bench --bin experiments -- fig5 --scale paper
//! ```
//!
//! Subcommands: `fig1 fig2 fig3 fig4 fig5 fig6 bandwidth all`.
//! Options: `--scale tiny|small|medium|paper` (default `medium`),
//! `--seed N` (default 2007), `--triples N` (Figure 5 sample size),
//! `--jobs N` (worker threads; default `CONCILIUM_JOBS` or all cores).
//! Sampling is chunked on seeds derived from `--seed`, so every number
//! printed depends only on the seed, never on N.

use concilium::bandwidth::BandwidthModel;
use concilium_bench::{ablation, detection, fig1, fig23, fig4, fig5, fig6, stretch, system, tables, Scale};
use concilium_sim::{AdversarySets, SimWorld};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Options {
    command: String,
    scale: Scale,
    seed: u64,
    triples: Option<usize>,
    jobs: usize,
    verbose: bool,
    profile: bool,
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut scale = Scale::Medium;
    let mut seed = 2007u64;
    let mut triples = None;
    let mut jobs = None;
    let mut verbose = false;
    let mut profile = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--verbose" | "-v" => verbose = true,
            "--profile" => profile = true,
            "--scale" => {
                i += 1;
                scale = Scale::parse(args.get(i).map(String::as_str).unwrap_or(""))
                    .unwrap_or_else(|| die("--scale expects tiny|small|medium|paper"));
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed expects an integer"));
            }
            "--triples" => {
                i += 1;
                triples = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--triples expects an integer")),
                );
            }
            "--jobs" => {
                i += 1;
                jobs = args.get(i).and_then(|s| s.parse().ok()).filter(|&n| n >= 1);
                if jobs.is_none() {
                    die("--jobs expects an integer >= 1");
                }
            }
            cmd if command.is_none() && !cmd.starts_with('-') => {
                command = Some(cmd.to_string());
            }
            other => die(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    Options {
        command: command.unwrap_or_else(|| "all".to_string()),
        scale,
        seed,
        triples,
        jobs: concilium_par::Jobs::resolve(jobs).get(),
        verbose,
        profile,
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: experiments [fig1|fig2|fig3|fig4|fig5|fig6|bandwidth|ablation|detection|stretch|system|all] [--scale tiny|small|medium|paper] [--seed N] [--triples N] [--jobs N] [--verbose|-v] [--profile]");
    std::process::exit(2);
}

/// Builds the world once for the experiments that need it. Progress goes
/// to stderr only under `--verbose`; results always go to stdout.
fn build_world(opts: &Options) -> SimWorld {
    if opts.verbose {
        eprintln!(
            "building world (scale {:?}, seed {}) — topology, overlay, failures, probes...",
            opts.scale, opts.seed
        );
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "the world-build time goes to stderr under --verbose, never to stdout or a digest"
    )]
    let start = std::time::Instant::now();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let world = SimWorld::build(opts.scale.sim_config(), &mut rng);
    if opts.verbose {
        eprintln!(
            "world ready in {:.1}s: {} routers, {} links, {} overlay hosts\n",
            start.elapsed().as_secs_f64(),
            world.topology().graph.num_routers(),
            world.topology().graph.num_links(),
            world.num_hosts()
        );
    }
    world
}

fn run_fig1(opts: &Options) {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let rows = fig1::run(1_000, &mut rng);
    fig1::print(&rows);
}

fn run_fig5_and_6(opts: &Options, world: &SimWorld) {
    // Under the paper's failure regime (5% of links down, biased onto
    // overlay paths) good B→C paths are rare, so the faulty-B class needs
    // many samples at scale. Judgments are ~20 µs each.
    let default_triples = match opts.scale {
        Scale::Tiny => 500,
        Scale::Small => 2_000,
        Scale::Medium => 30_000,
        Scale::Paper => 400_000,
    };
    let params = fig5::Fig5Params {
        triples: opts.triples.unwrap_or(default_triples),
        ..Default::default()
    };

    let clean =
        fig5::run_par(world, &AdversarySets::none(), &params, opts.seed + 5, opts.jobs);
    fig5::print("a: faithful reporting", &clean, &params);

    let mut rng = StdRng::seed_from_u64(opts.seed + 5);
    let adversaries = AdversarySets::sample(world.num_hosts(), 0.2, 0.2, &mut rng);
    // Same sampling seed as panel (a): the comparison is paired.
    let polluted = fig5::run_par(world, &adversaries, &params, opts.seed + 5, opts.jobs);
    fig5::print("b: 20% colluders flip probe results", &polluted, &params);

    // Figure 6 from the measured per-judgment rates.
    let (rows, best) = fig6::run(clean.p_good_guilty, clean.p_faulty_guilty, 30);
    fig6::print(
        "a: faithful, measured rates",
        clean.p_good_guilty,
        clean.p_faulty_guilty,
        &rows,
        best,
    );
    let (rows, best) = fig6::run(polluted.p_good_guilty, polluted.p_faulty_guilty, 30);
    fig6::print(
        "b: 20% collusion, measured rates",
        polluted.p_good_guilty,
        polluted.p_faulty_guilty,
        &rows,
        best,
    );
}

fn run_fig4(opts: &Options, world: &SimWorld) {
    let rows = fig4::run_jobs(world, 200, opts.jobs);
    fig4::print(&rows);
}

fn run_ablation(opts: &Options, world: &SimWorld) {
    let triples = opts.triples.unwrap_or(20_000);
    let ab = ablation::blame_rules_par(world, triples, opts.seed + 9, opts.jobs);
    ablation::print(&ab);
}

fn run_detection(opts: &Options, gentle: &SimWorld) {
    let ms = [2, 4, 6, 10, 16];
    let rows = detection::run_par(gentle, &ms, 30, 120, opts.seed + 11, opts.jobs);
    detection::print(&rows, 120);
}

fn main() {
    let opts = parse_args();
    if opts.profile {
        concilium_obs::set_profiling(true);
    }
    match opts.command.as_str() {
        "fig1" => run_fig1(&opts),
        "fig2" => fig23::print("Figure 2", false),
        "fig3" => fig23::print("Figure 3", true),
        "fig4" => {
            let world = build_world(&opts);
            run_fig4(&opts, &world);
        }
        "fig5" | "fig6" => {
            let world = build_world(&opts);
            run_fig5_and_6(&opts, &world);
        }
        "bandwidth" => {
            let rows = tables::run(&BandwidthModel::default());
            tables::print(&rows, None);
        }
        "system" => {
            if opts.verbose {
                eprintln!("building gentle-failure world for the system run...");
            }
            let mut rng = StdRng::seed_from_u64(opts.seed);
            let world =
                SimWorld::build(detection::gentle_config(opts.scale.sim_config()), &mut rng);
            let mut rng = StdRng::seed_from_u64(opts.seed + 17);
            let r = system::run(&world, &system::SystemRunConfig::default(), &mut rng);
            system::print(&r);
        }
        "stretch" => {
            let world = build_world(&opts);
            let mut rng = StdRng::seed_from_u64(opts.seed + 13);
            let r = stretch::run(&world, 2_000, &mut rng);
            stretch::print(&r);
        }
        "detection" => {
            if opts.verbose {
                eprintln!("building gentle-failure world for the latency sweep...");
            }
            let mut rng = StdRng::seed_from_u64(opts.seed);
            let world =
                SimWorld::build(detection::gentle_config(opts.scale.sim_config()), &mut rng);
            run_detection(&opts, &world);
        }
        "ablation" => {
            let world = build_world(&opts);
            run_ablation(&opts, &world);
        }
        "all" => {
            run_fig1(&opts);
            fig23::print("Figure 2", false);
            fig23::print("Figure 3", true);
            let world = build_world(&opts);
            run_fig4(&opts, &world);
            run_fig5_and_6(&opts, &world);
            let rows = tables::run(&BandwidthModel::default());
            tables::print(&rows, Some(&world));
            run_ablation(&opts, &world);
            let mut rng = StdRng::seed_from_u64(opts.seed + 13);
            let r = stretch::run(&world, 2_000, &mut rng);
            stretch::print(&r);
            if opts.verbose {
                eprintln!("building gentle-failure world for the latency sweep...");
            }
            let mut rng = StdRng::seed_from_u64(opts.seed);
            let gentle =
                SimWorld::build(detection::gentle_config(opts.scale.sim_config()), &mut rng);
            run_detection(&opts, &gentle);
            let mut rng = StdRng::seed_from_u64(opts.seed + 17);
            let r = system::run(&gentle, &system::SystemRunConfig::default(), &mut rng);
            system::print(&r);
        }
        other => die(&format!("unknown command {other}")),
    }
    if opts.profile {
        let path = "BENCH_profile.json";
        let report = concilium_obs::profile_report_json();
        if let Err(err) = std::fs::write(path, &report) {
            die(&format!("cannot write {path}: {err}"));
        }
        eprintln!(
            "profile ({} phases) written to {path}",
            concilium_obs::profile_snapshot().len()
        );
    }
}
