//! `concilium-lint` CLI: scan the workspace (default) or explicit files.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use concilium_lint::{find_workspace_root, lint_file_set, lint_workspace_full, relative_to, LintOutcome};

const USAGE: &str = "\
concilium-lint — determinism/safety static analysis for the Concilium workspace

USAGE:
    concilium-lint [OPTIONS] [FILES...]

With no FILES, walks crates/, src/ and tests/ under the workspace root
applying the per-path rule scoping documented in DESIGN.md §13/§18.
Explicit FILES are linted with every rule enabled regardless of path, as
one combined index — cross-file call chains and load/store pairings
resolve across the given set (this is how the fixture corpus is
exercised).

OPTIONS:
    --root <DIR>        workspace root (default: nearest ancestor with a
                        [workspace] Cargo.toml)
    --json <PATH>       also write a machine-readable report to PATH
    --graph-out <PATH>  also write the conservative call graph as JSON
    --quiet             suppress per-finding output (exit code still set)
    -h, --help          this help

RULES:
    wall-clock       no Instant::now/SystemTime/UNIX_EPOCH outside obs::profile + bench bins
    hash-iter        no HashMap/HashSet in digest-feeding modules
    relaxed-atomic   no unjustified Ordering::Relaxed on coordination atomics
    float-cmp        no partial_cmp().unwrap(); no float == in diagnosis math
    no-panic         no unwrap/expect/panic! in de-panicked library code
    stub-hygiene     no rand::thread_rng, no std::process::abort
    digest-taint     no nondeterminism source reachable from a digest sink (call graph)
    atomic-ordering  Acquire loads pair with Release stores per atomic field

Suppress with `// lint:allow(<rule>, reason = \"…\")` on or above the line.
Reasons are audited: missing, shorter than 15 characters, or restating the
rule id is itself a finding and suppresses nothing.
";

struct Args {
    root: Option<PathBuf>,
    json: Option<PathBuf>,
    graph_out: Option<PathBuf>,
    quiet: bool,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args =
        Args { root: None, json: None, graph_out: None, quiet: false, files: Vec::new() };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--quiet" => args.quiet = true,
            "--root" => {
                let v = it.next().ok_or("--root needs a directory argument")?;
                args.root = Some(PathBuf::from(v));
            }
            "--json" => {
                let v = it.next().ok_or("--json needs a file argument")?;
                args.json = Some(PathBuf::from(v));
            }
            "--graph-out" => {
                let v = it.next().ok_or("--graph-out needs a file argument")?;
                args.graph_out = Some(PathBuf::from(v));
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}` (try --help)"));
            }
            other => args.files.push(PathBuf::from(other)),
        }
    }
    Ok(Some(args))
}

fn run(args: &Args) -> Result<LintOutcome, String> {
    if args.files.is_empty() {
        let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
        let root = match &args.root {
            Some(r) => r.clone(),
            None => find_workspace_root(&cwd)
                .ok_or("no [workspace] Cargo.toml found above the current directory; pass --root")?
        };
        lint_workspace_full(&root).map_err(|e| format!("scan failed: {e}"))
    } else {
        // Explicit files: every rule applies; diagnostics use the path as
        // given (relative to the root only when one was passed).
        let files: Vec<(PathBuf, String)> = args
            .files
            .iter()
            .map(|file| {
                let rel = match &args.root {
                    Some(root) => relative_to(file, root),
                    None => relative_to(file, Path::new("")),
                };
                (file.clone(), rel)
            })
            .collect();
        lint_file_set(&files).map_err(|e| format!("{e}"))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("concilium-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(msg) => {
            eprintln!("concilium-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    let report = &outcome.report;
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, report.render_json()) {
            eprintln!("concilium-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(path) = &args.graph_out {
        if let Err(e) = std::fs::write(path, &outcome.graph_json) {
            eprintln!("concilium-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if !args.quiet {
        print!("{}", report.render_text());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
