//! The drivers' and the trace tool's command lines: every flag a parser
//! matches is in its usage text and the reverse, and the flags whose work
//! moved to `concilium-explain` (and the second trace exporter), or that
//! `concilium-explain list` made redundant, are refused.
//! Those invocations stop in the argument parser; the one that runs an
//! experiment (tiny scale) checks that `--jobs` only sets a worker count,
//! the one that runs the evidence-reading figures (small scale) replays
//! `fixtures/experiments_small.golden` byte for byte, and the one that
//! runs a two-seed sweep checks that `--trace-out` holds whole episodes,
//! by asking `concilium-explain --orphans`, and that `concilium-explain
//! list` reads it back byte for byte — as it does a killed and recovered
//! `concilium-serve` run's trace, whose WAL `--explain shed:N` reads.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One command-line tool; the flag lists are whitespace-separated.
struct Cli {
    exe: PathBuf,
    /// The argument that makes the binary print its usage text.
    usage: &'static str,
    /// Flags that take a value.
    valued: &'static str,
    /// Flags that take none.
    switches: &'static str,
    deleted: &'static str,
}

fn clis() -> [Cli; 4] {
    [
        Cli {
            exe: env!("CARGO_BIN_EXE_dst-sweep").into(),
            usage: "--help",
            valued: "--seeds --jobs --trace-out --metrics-out",
            switches: "--verbose --help",
            deleted: "--explain --explain-out",
        },
        Cli {
            exe: env!("CARGO_BIN_EXE_fuzz").into(),
            usage: "--help",
            valued: "--fuzz-budget --seed --jobs --batch --world --world-seed --corpus-out \
                     --findings-out --trace-out --max-corpus",
            switches: "--no-shrink --plant-mutant --compare-grid --help",
            deleted: "--explain --explain-out",
        },
        Cli {
            // No --help: an unknown subcommand prints the usage line.
            exe: env!("CARGO_BIN_EXE_experiments").into(),
            usage: "no-such-figure",
            valued: "--scale --seed --triples --jobs",
            switches: "--verbose --profile",
            deleted: "--trace-out",
        },
        Cli {
            exe: explain_exe(),
            usage: "--help",
            valued: "--episode --seed --kind --id --after-us",
            switches: "--json --orphans --stats --help",
            // Now `--id message:N` and `| grep`; `--before-us` had no caller.
            deleted: "--msg --grep --before-us",
        },
    ]
}

/// Runs the tool; returns whether it exited zero, and stdout + stderr.
fn run(exe: &Path, args: &[&str]) -> (bool, String) {
    let out = Command::new(exe).args(args).output().expect("binary runs");
    let text = [out.stdout, out.stderr].concat();
    (out.status.success(), String::from_utf8_lossy(&text).into_owned())
}

#[test]
fn usage_lists_exactly_the_flags_the_parser_matches() {
    for cli in &clis() {
        let (_, usage) = run(&cli.exe, &[cli.usage]);
        let listed: BTreeSet<&str> = usage
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.starts_with("--"))
            .collect();
        let matched: BTreeSet<&str> =
            cli.valued.split_whitespace().chain(cli.switches.split_whitespace()).collect();
        assert_eq!(listed, matched, "{}: usage text vs parser", cli.exe.display());

        // A valued flag with its value missing is refused by name; a
        // switch is consumed, so the refusal names the flag after it (an
        // unmatched switch would be the one refused).
        for flag in cli.valued.split_whitespace() {
            let (ok, text) = run(&cli.exe, &[flag]);
            assert!(!ok && text.contains(flag) && !text.contains("unknown"), "{flag}: {text}");
        }
        for flag in cli.switches.split_whitespace().filter(|f| *f != "--help") {
            let (ok, text) = run(&cli.exe, &[flag, "--no-such-flag"]);
            assert!(!ok && text.contains("--no-such-flag"), "{flag}: {text}");
        }
    }
}

#[test]
fn deleted_flags_are_refused() {
    for cli in &clis() {
        for flag in cli.deleted.split_whitespace() {
            let (ok, text) = run(&cli.exe, &[flag, "message:3"]);
            let exe = cli.exe.display();
            assert!(!ok && text.contains("unknown argument"), "{exe} {flag}: {text}");
        }
    }
}

/// `--jobs` chooses how many workers sample, never what is sampled: the
/// default, one worker and two print the same Figure 5 and 6.
#[test]
fn experiments_print_the_same_figures_at_any_worker_count() {
    let exe = env!("CARGO_BIN_EXE_experiments");
    let fig5 = |jobs: &[&str]| {
        let args = [&["fig5", "--scale", "tiny"], jobs].concat();
        let out = Command::new(exe).args(&args).output().expect("experiments runs");
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("utf-8 tables")
    };
    let default = fig5(&[]);
    assert!(default.contains("Figure 5(a") && default.contains("Figure 6"), "{default}");
    assert_eq!(default, fig5(&["--jobs", "1"]));
    assert_eq!(default, fig5(&["--jobs", "2"]));
}

/// The figures that read tomographic evidence — Figure 5 (both panels) with
/// Figure 6, the blame-rule ablation, the detection sweep and the system
/// run — print, at small scale, byte for byte what the fixture recorded at
/// the commit before the evidence query became an index read.
#[test]
fn small_scale_figures_match_the_golden() {
    let mut printed = Vec::new();
    for figure in ["fig5", "ablation", "detection", "system"] {
        let args = [figure, "--scale", "small", "--seed", "2007", "--jobs", "1"];
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("experiments runs");
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        printed.extend(out.stdout);
    }
    let golden = include_str!("../fixtures/experiments_small.golden");
    assert_eq!(String::from_utf8(printed).expect("utf-8 tables"), golden);
}

/// Binary `bin` of another workspace package, which cargo builds for this
/// package's tests only when asked: same profile, same directory as the
/// driver binaries it did build.
fn workspace_exe(package: &str, bin: &str) -> PathBuf {
    let bin_dir = Path::new(env!("CARGO_BIN_EXE_dst-sweep")).parent().expect("binary directory");
    let mut build = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()));
    build.args(["build", "--quiet", "--offline", "-p", package, "--bin", bin, "--target-dir"]);
    build.arg(bin_dir.parent().expect("target directory"));
    if !cfg!(debug_assertions) {
        build.arg("--release");
    }
    assert!(build.status().expect("cargo runs").success(), "building {bin}");
    bin_dir.join(bin)
}

fn explain_exe() -> PathBuf {
    workspace_exe("concilium-obs", "concilium-explain")
}

/// An exported trace holds whole episodes, not ring tails: the offline
/// half of the causal invariant finds no orphan in it, and every episode
/// stream opens with the send its later events descend from. The trace
/// tool reads it back whole: an unfiltered `list --json` re-serialises
/// the file byte for byte, `list --stats` counts every line, and the list
/// filters are refused on an explain query.
#[test]
fn trace_out_exports_whole_episodes() {
    let trace = std::env::temp_dir().join(format!("dst_trace_{}.jsonl", std::process::id()));
    let path = trace.to_str().expect("utf-8 temp path");
    let (ok, text) =
        run(Path::new(env!("CARGO_BIN_EXE_dst-sweep")), &["--seeds", "2", "--trace-out", path]);
    assert!(ok, "{text}");
    let explain = explain_exe();
    let (ok, text) = run(&explain, &[path, "message:0", "--orphans"]);
    assert!(ok, "{text}");
    let listed = Command::new(&explain).args([path, "list", "--json"]).output().expect("runs");
    let (ok, stats) = run(&explain, &[path, "list", "--stats"]);
    assert!(ok, "{stats}");
    for filter in [["--kind", "send"], ["--id", "host:1"]] {
        let (ok, text) = run(&explain, &[&[path, "message:0"][..], &filter].concat());
        assert!(!ok && text.contains("only to the `list` query"), "{filter:?}: {text}");
    }

    let jsonl = std::fs::read_to_string(&trace).expect("trace written");
    std::fs::remove_file(&trace).expect("trace removed");
    assert!(listed.status.success(), "{}", String::from_utf8_lossy(&listed.stderr));
    assert!(listed.stdout == jsonl.as_bytes(), "list --json differs from the export");
    let lines = jsonl.lines().count();
    let total = format!("{lines} of {lines} event(s) listed");
    assert_eq!(stats.lines().last(), Some(total.as_str()));
    let mut streams = BTreeSet::new();
    for line in jsonl.lines() {
        // What precedes the timestamp names the stream: episode and seed.
        let (stream, event) = line.split_once("\"t_us\"").expect("timestamped line");
        if streams.insert(stream) {
            assert!(event.contains("\"kind\":\"send\""), "a stream opens mid-episode: {line}");
        }
    }
    assert_eq!(streams.len(), 8, "4 arms x 2 seeds");
}

/// `--kind` takes the trace's kind labels and nothing else: `blame`, the
/// word a `judge` event renders as, is refused with the labels listed,
/// where it used to list nothing and exit 0.
#[test]
fn list_refuses_an_unknown_kind() {
    let explain = explain_exe();
    let (ok, text) = run(&explain, &["-", "list", "--kind", "judge,blame"]);
    assert!(!ok && text.contains("unknown kind `blame`"), "{text}");
    let labels: Vec<&str> = concilium_obs::event::KINDS.iter().map(|row| row.0).collect();
    assert!(text.contains(&format!("(kinds: {})", labels.join(","))), "{text}");
    let (ok, text) = run(&explain, &["-", "list", "--kind", "judge,verdict", "--stats"]);
    assert!(ok && text.ends_with("0 of 0 event(s) listed\n"), "{text}");
}

/// A daemon trace goes through the binaries whole: a killed and recovered
/// `concilium-serve` run's `--trace-out` lists back byte for byte, and
/// holds every daemon kind the run produces. It is read from the journal,
/// so the incarnation the kill ended is in it too: one `admit` line per
/// admitted report, and the `restart` stamped at the recovery's clock.
#[test]
fn a_daemon_trace_reads_back_through_explain() {
    let trace = std::env::temp_dir().join(format!("serve_trace_{}.jsonl", std::process::id()));
    let path = trace.to_str().expect("utf-8 temp path");
    let serve = workspace_exe("concilium-serve", "concilium-serve");
    let args = ["--seed", "3", "--reports", "192", "--load", "2.0", "--kill-at", "96"];
    let (ok, text) = run(&serve, &[&args[..], &["--trace-out", path]].concat());
    assert!(ok, "{text}");
    let explain = explain_exe();
    let listed = Command::new(&explain).args([path, "list", "--json"]).output().expect("runs");
    let (ok, stats) = run(&explain, &[path, "list", "--stats"]);
    let jsonl = std::fs::read(&trace).expect("trace written");
    std::fs::remove_file(&trace).expect("trace removed");
    assert!(listed.status.success(), "{}", String::from_utf8_lossy(&listed.stderr));
    assert!(listed.stdout == jsonl, "list --json differs from the daemon's export");
    assert!(ok, "{stats}");
    let counted: BTreeSet<&str> = stats
        .lines()
        .skip_while(|l| *l != "---")
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    for kind in ["admit", "shed", "complete", "journal-commit", "recovered"] {
        assert!(counted.contains(kind), "no `{kind}` in the daemon trace's stats:\n{stats}");
    }
    let jsonl = String::from_utf8(jsonl).expect("utf-8 trace");
    let admits = jsonl.lines().filter(|l| l.contains("\"kind\":\"admit\"")).count();
    assert!(text.contains(&format!(" admitted={admits} ")), "{admits} admit lines:\n{text}");
    let restarts: Vec<&str> =
        jsonl.lines().filter(|l| l.contains("\"kind\":\"restart\"")).collect();
    assert_eq!(restarts.len(), 1, "{restarts:?}");
    assert!(!restarts[0].contains("\"t_us\":0,"), "{}", restarts[0]);
}

/// `--explain shed:N` answers from a WAL alone: after the run above, with
/// `--reports 0` so nothing more is processed, it prints the 32 journal
/// records that end at the shed and leaves the journal as it found it.
#[test]
fn explain_shed_prints_the_journal_records_that_end_at_it() {
    let wal = std::env::temp_dir().join(format!("serve_explain_{}.wal", std::process::id()));
    let path = wal.to_str().expect("utf-8 temp path");
    let serve = workspace_exe("concilium-serve", "concilium-serve");
    let args = ["--seed", "3", "--reports", "192", "--load", "2.0", "--kill-at", "96"];
    let (ok, text) = run(&serve, &[&args[..], &["--journal", path]].concat());
    assert!(ok, "{text}");
    let written = std::fs::read(&wal).expect("journal written");
    let query = ["--explain", "shed:144", "--reports", "0", "--journal", path, "--quiet"];
    let (ok, text) = run(&serve, &query);
    let after = std::fs::read(&wal).expect("journal kept");
    std::fs::remove_file(&wal).expect("journal removed");
    assert!(ok, "{text}");
    assert!(after == written, "explaining rewrote the journal");
    assert!(text.contains("] shed        report=144 reason=mailbox-full"), "{text}");
    let (_, tail) = text.split_once("tail at shed of report 144:\n").expect("a tail");
    let tail: Vec<&str> = tail.lines().map(str::trim).collect();
    assert_eq!(tail.len(), 32, "{text}");
    assert_eq!(tail[0], "#302 commit next_input=129 clock=1460115us");
    assert_eq!(tail[31], "#333 shed report 144 (reason mailbox-full)");
}
