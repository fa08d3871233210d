//! The untraced binary: `all`, `compare`, and one workload's end-to-end
//! metrics. System allocator; nothing here switches profiling on. A
//! `--trace 1` run is handed to the traced binary, built on demand.

use std::path::{Path, PathBuf};
use std::process::{Command as Process, ExitCode, Stdio};

use concilium_benchmark::cli::{self, Command, Kernels, RunArgs};
use concilium_benchmark::compare::compare;
use concilium_benchmark::result::{Meta, ResultSet, WorkloadResult, DETAIL_PREFIX};
use concilium_benchmark::workloads::measure;
use concilium_benchmark::{spec, with_workload};

const TRACED_BIN: &str = "concilium-benchmark-traced";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match cli::parse(&args) {
        Ok(Command::Help) => {
            println!("{}", cli::USAGE);
            Ok(true)
        }
        Ok(Command::Compare { a, b }) => run_compare(&a, &b),
        Ok(Command::Run(run)) if run.trace => traced_binary().and_then(|bin| {
            let status = Process::new(bin)
                .args(&args)
                .status()
                .map_err(|e| e.to_string())?;
            Ok(status.success())
        }),
        Ok(Command::Run(run)) => run_workload(&run),
        Ok(Command::All {
            seed,
            seconds,
            traced,
            smoke,
            out,
        }) => run_all(seed, seconds, traced, smoke, out),
        Err(err) => Err(format!("{err}\n\n{}", cli::USAGE)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!("concilium-benchmark: {err}");
            ExitCode::FAILURE
        }
    }
}

/// One workload in this process, so `peak_rss_mb` is its own.
fn run_workload(run: &RunArgs) -> Result<bool, String> {
    if run.workload == cli::KERNELS_ONLY {
        return Err("the kernels run only in the traced binary (--trace 1)".to_string());
    }
    let result = with_workload!(run.workload.as_str(), W => measure::<W>(run.seed, &run.size()))
        .expect("the parser admits only known workloads");
    result.emit(spec::DRIVER_END_TO_END);
    Ok(result.correct)
}

fn run_compare(a: &Path, b: &Path) -> Result<bool, String> {
    let read = |path: &Path| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        ResultSet::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let comparison = compare(&read(a)?, &read(b)?);
    print!("{}", comparison.table);
    for failure in &comparison.failures {
        println!("FAIL {failure}");
    }
    println!(
        "{}",
        if comparison.passed() {
            "compare: B is within every bound of A"
        } else {
            "compare: B FAILS against A"
        }
    );
    Ok(comparison.passed())
}

/// Every workload, each in a child process; then, with `traced`, the traced
/// binary on every workload and once for the kernels at full effort.
fn run_all(
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
) -> Result<bool, String> {
    let out = out.unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("out"));
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let names = || spec::WORKLOADS.iter().map(|w| w.name);

    let mut all_correct = true;
    let mut sweep =
        |bin: &Path, is_traced: bool, runs: &[(&str, Kernels)], file: &str| -> Result<(), String> {
            let mut set = ResultSet {
                meta: Meta::capture(seed, seconds, is_traced, smoke),
                workloads: Vec::new(),
            };
            for &(workload, kernels) in runs {
                let run = RunArgs {
                    workload: workload.to_string(),
                    seed,
                    seconds,
                    trace: is_traced,
                    smoke,
                    kernels,
                };
                let result = run_child(bin, &run)?;
                print_result(&result);
                all_correct &= result.correct;
                set.workloads.push(result);
            }
            let path = out.join(file);
            std::fs::write(&path, set.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("result set written to {}\n", path.display());
            Ok(())
        };

    let untraced: Vec<(&str, Kernels)> = names().map(|n| (n, Kernels::Off)).collect();
    sweep(&me, false, &untraced, "results.json")?;
    if traced {
        let mut runs = untraced;
        runs.push((
            cli::KERNELS_ONLY,
            if smoke { Kernels::Quick } else { Kernels::Full },
        ));
        sweep(&traced_binary()?, true, &runs, "results-traced.json")?;
    }
    Ok(all_correct)
}

fn run_child(bin: &Path, run: &RunArgs) -> Result<WorkloadResult, String> {
    let mut cmd = Process::new(bin);
    cmd.args(["--workload", &run.workload])
        .args(["--seed", &run.seed.to_string()])
        .args(["--seconds", &run.seconds.to_string()])
        .args(["--trace", if run.trace { "1" } else { "0" }]);
    if run.trace {
        let kernels = match run.kernels {
            Kernels::Off => "off",
            Kernels::Quick => "quick",
            Kernels::Full => "full",
        };
        cmd.args(["--kernels", kernels]);
    }
    if run.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or_else(|| {
            format!(
                "{}: run ended ({}) without a result",
                run.workload, output.status
            )
        })?;
    WorkloadResult::from_line(detail)
}

fn print_result(r: &WorkloadResult) {
    println!(
        "{} — {}: {} ops attempted, {} failed, {} refused; {} units of {} ops; {} set-ups",
        r.name,
        if r.correct { "correct" } else { "INCORRECT" },
        r.ops_attempted,
        r.ops_failed,
        r.ops_refused,
        r.units,
        r.unit_ops,
        r.setup_samples
    );
    if !r.sim_digest.is_empty() {
        println!("  {:<38} {}", "sim_digest", r.sim_digest);
    }
    for m in &r.metrics {
        println!("  {:<38} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!();
}

/// The traced binary, next to this one. `cargo run` builds only the binary
/// it runs, so the traced one is built (or refreshed) here, with the same
/// profile and target directory.
fn traced_binary() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut build = Process::new(cargo);
    build
        .args(["build", "--quiet", "--bin", TRACED_BIN, "--manifest-path"])
        .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"));
    if !cfg!(debug_assertions) {
        build.arg("--release");
    }
    // Cargo's chatter must not end up on the stdout the driver parses.
    let status = build
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("building {TRACED_BIN} failed ({status})"));
    }
    let bin = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name(TRACED_BIN);
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!(
            "{} was built but is not at {}",
            TRACED_BIN,
            bin.display()
        ))
    }
}
