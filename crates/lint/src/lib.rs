//! `concilium-lint`: static enforcement of the determinism contract.
//!
//! PRs 2–4 built a contract — every DST episode produces a bit-identical
//! chained trace hash at any `--jobs` count — and enforced it dynamically,
//! by running sweeps and comparing digests. This crate enforces the
//! *patterns that break it* at build time instead, in the spirit of the
//! compile-time predicate checks of replay debuggers like Friday and D3S:
//!
//! | rule | policy |
//! |------|--------|
//! | `wall-clock` (L1) | no `Instant::now`/`SystemTime`/`UNIX_EPOCH` outside `obs::profile` and the bench bins |
//! | `hash-iter` (L2) | no `HashMap`/`HashSet` in digest-feeding modules (`obs::*`, `sim::explorer`, `sim::metrics`) |
//! | `relaxed-atomic` (L3) | no unjustified `Ordering::Relaxed` on coordination atomics (`par`, `obs`) |
//! | `float-cmp` (L4) | no `partial_cmp(…).unwrap()` anywhere; no float `==` in blame/verdict/tomography math |
//! | `no-panic` (L5) | no `unwrap()`/`expect()`/`panic!` in non-test library code of the de-panicked crates |
//! | `stub-hygiene` (L6) | no `rand::thread_rng`, no `std::process::abort` |
//! | `digest-taint` (L7) | no nondeterminism source reachable from a digest sink through the call graph |
//! | `atomic-ordering` (L9) | Acquire loads pair with Release stores on the same atomic field |
//!
//! L1–L6 are token-stream matchers with per-path scoping. L7 and L9 are
//! *parse-aware*: a lightweight item parser ([`parser`]) builds a
//! workspace index and conservative call graph ([`graph`]), on which the
//! taint ([`taint`]) and ordering ([`atomics`]) analyses run. (L8, which
//! checked that every event kind had a named arm at every causal
//! consumer, is retired: those consumers now carry
//! `#[deny(clippy::wildcard_enum_match_arm)]`, so rustc's exhaustiveness
//! check and clippy enforce it.) The difference matters: L1 exempts `obs::profile` by
//! path, but L7 still fires if a profiler helper that reads the clock
//! becomes *reachable from* the trace-hash choke point — path scoping
//! can be laundered through a helper two crates away, reachability
//! cannot.
//!
//! Violations are suppressed inline with a mandatory, audited reason:
//!
//! ```text
//! // lint:allow(relaxed-atomic, reason = "test-only tally; ordering is irrelevant")
//! executed.fetch_add(1, Ordering::Relaxed);
//! ```
//!
//! A directive suppresses matching findings on its own line and on the
//! line directly below. A directive without a non-empty reason
//! suppresses nothing and is itself a finding (`allow-without-reason`);
//! so is one whose reason is too short to audit or merely restates the
//! rule id (`weak-reason`), and one naming a rule that does not exist
//! (`unknown-rule`).
//!
//! The scanner is a hand-rolled lexer plus token-stream matchers and a
//! hand-rolled item parser — no `syn`, no registry dependencies (the
//! build environment has none; see the vendored-stub policy from PR 1).
//! The rules match *names*, not resolved types, so resolution is
//! conservative by construction (documented per-analysis). The dynamic
//! digest comparison in CI stays as the backstop for what a syntactic
//! pass cannot see; Miri and TSan cover the UB/data-race axis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomics;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod taint;

pub use report::{Finding, Report, REPORT_VERSION};
pub use rules::{FileScope, Rule};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The workspace sub-trees the scanner walks.
pub const SCAN_ROOTS: &[&str] = &["crates", "src", "tests"];

/// Directory names skipped during the walk: build output, offline dep
/// stand-ins, and the linter's own deliberately-bad fixture corpus.
pub const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", ".git"];

/// Minimum length (in characters) of an auditable `lint:allow` reason.
pub const MIN_REASON_CHARS: usize = 15;

/// The outcome of linting a file set: the report plus the call graph
/// evidence the verdict was based on.
pub struct LintOutcome {
    /// Findings, counts, and suppression stats.
    pub report: Report,
    /// The conservative call graph as JSON (`--graph-out`, CI artifact).
    pub graph_json: String,
}

/// Lints one file's source text. `scope.all_rules` decides whether path
/// scoping applies (workspace scan) or every rule runs (explicit file).
pub fn lint_source(scope: &FileScope, src: &str) -> Vec<Finding> {
    lint_source_counted(scope, src).0
}

/// Like [`lint_source`], additionally returning how many `lint:allow`
/// directives suppressed at least one finding.
pub fn lint_source_counted(scope: &FileScope, src: &str) -> (Vec<Finding>, usize) {
    let (findings, used, _) = lint_set(vec![(scope.clone(), src.to_string())]);
    (findings, used)
}

/// Lints a single file on disk. `rel` is the path recorded in
/// diagnostics; `all_rules` disables path scoping.
pub fn lint_file(path: &Path, rel: &str, all_rules: bool) -> io::Result<Vec<Finding>> {
    let src = fs::read_to_string(path)?;
    let scope = FileScope { rel: rel.to_string(), all_rules };
    Ok(lint_source(&scope, &src))
}

/// The full pipeline over a prepared file set: per-file token rules,
/// then the parse-aware workspace analyses over the combined index, then
/// suppression with the reason audit.
///
/// Returns `(findings, suppressions_used, graph_json)`.
fn lint_set(inputs: Vec<(FileScope, String)>) -> (Vec<Finding>, usize, String) {
    let mut scopes = Vec::with_capacity(inputs.len());
    let mut lexeds = Vec::with_capacity(inputs.len());
    let mut indexed = Vec::with_capacity(inputs.len());
    for (scope, src) in inputs {
        let mut lexed = lexer::lex(&src);
        lexer::mark_test_scope(&mut lexed.toks);
        let parsed = parser::parse(&lexed.toks);
        indexed.push(graph::IndexedFile { rel: scope.rel.clone(), parsed });
        scopes.push(scope);
        lexeds.push(lexed);
    }
    let index = graph::WorkspaceIndex::build(indexed);
    let call_graph = graph::CallGraph::build(&index);
    let all_rules = scopes.iter().any(|s| s.all_rules);

    let mut findings = Vec::new();
    for (scope, lexed) in scopes.iter().zip(&lexeds) {
        let mut fs = rules::run_rules(scope, &lexed.toks);
        for f in &mut fs {
            f.file.clone_from(&scope.rel);
        }
        findings.extend(fs);
    }
    taint::check(&index, &call_graph, &lexeds, all_rules, &mut findings);
    let atomic_files: Vec<(String, &lexer::LexedFile, bool)> = scopes
        .iter()
        .zip(&lexeds)
        .map(|(s, l)| (s.rel.clone(), l, s.atomic_ordering_applies()))
        .collect();
    atomics::check(&atomic_files, &mut findings);

    let mut used = 0usize;
    for (scope, lexed) in scopes.iter().zip(&lexeds) {
        apply_allows(&scope.rel, &lexed.allows, &mut findings, &mut used);
    }
    (findings, used, call_graph.render_json(&index))
}

/// Applies one file's `lint:allow` directives to the combined finding
/// list, auditing each directive first: unknown rules, missing reasons,
/// and weak reasons are themselves findings and suppress nothing.
fn apply_allows(
    rel: &str,
    allows: &[lexer::AllowDirective],
    findings: &mut Vec<Finding>,
    used: &mut usize,
) {
    for allow in allows {
        for rule in &allow.rules {
            if !Rule::suppressible().contains(&rule.as_str()) {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: allow.line,
                    rule: Rule::UnknownRule,
                    message: format!(
                        "lint:allow names unknown rule `{rule}`; known rules: {}",
                        Rule::suppressible().join(", ")
                    ),
                });
            }
        }
        if !allow.has_reason {
            findings.push(Finding {
                file: rel.to_string(),
                line: allow.line,
                rule: Rule::AllowWithoutReason,
                message: "lint:allow without a reason; write `lint:allow(<rule>, reason = \"why this is safe\")`".into(),
            });
            continue;
        }
        if let Some(why) = weak_reason(allow) {
            findings.push(Finding {
                file: rel.to_string(),
                line: allow.line,
                rule: Rule::WeakReason,
                message: format!(
                    "lint:allow reason \"{}\" {why}; a reason must let a reviewer \
                     audit the suppression without reading the surrounding code",
                    allow.reason
                ),
            });
            continue;
        }
        let before = findings.len();
        findings.retain(|f| {
            let file_match = f.file == rel;
            let line_match = f.line == allow.line || f.line == allow.line + 1;
            let rule_match = allow.rules.iter().any(|r| r == f.rule.as_str());
            !(file_match && line_match && rule_match)
        });
        if findings.len() < before {
            *used += 1;
        }
    }
}

/// Why a non-empty reason fails the audit, or `None` if it passes.
fn weak_reason(allow: &lexer::AllowDirective) -> Option<&'static str> {
    if allow.reason.chars().count() < MIN_REASON_CHARS {
        return Some("is too short to audit (minimum 15 characters)");
    }
    let restates = Rule::suppressible().contains(&allow.reason.as_str())
        || allow.rules.iter().any(|r| r == &allow.reason);
    if restates {
        return Some("merely restates the rule id");
    }
    None
}

/// Walks `root`'s scan sub-trees ([`SCAN_ROOTS`]) and lints every `.rs`
/// file with workspace path scoping. The walk order is sorted, so the
/// report is deterministic — the linter holds itself to the contract it
/// enforces.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    Ok(lint_workspace_full(root)?.report)
}

/// Like [`lint_workspace`], additionally returning the call-graph JSON.
pub fn lint_workspace_full(root: &Path) -> io::Result<LintOutcome> {
    let mut files = Vec::new();
    for sub in SCAN_ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();

    let mut inputs = Vec::with_capacity(files.len());
    for path in &files {
        let rel = relative_to(path, root);
        let src = fs::read_to_string(path)?;
        inputs.push((FileScope { rel, all_rules: false }, src));
    }
    let files_scanned = inputs.len();
    let (findings, used, graph_json) = lint_set(inputs);
    let mut report = Report { findings, files_scanned, suppressions_used: used };
    report.finalize();
    Ok(LintOutcome { report, graph_json })
}

/// Lints an explicit file set (CLI arguments) with every rule enabled;
/// the parse-aware analyses see the set as one combined index, so
/// cross-file pairings (a laundered helper, an Acquire load and its
/// store) work across the given files.
pub fn lint_file_set(files: &[(PathBuf, String)]) -> io::Result<LintOutcome> {
    let mut inputs = Vec::with_capacity(files.len());
    for (path, rel) in files {
        let src = fs::read_to_string(path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        inputs.push((FileScope { rel: rel.clone(), all_rules: true }, src));
    }
    let files_scanned = inputs.len();
    let (findings, used, graph_json) = lint_set(inputs);
    let mut report = Report { findings, files_scanned, suppressions_used: used };
    report.finalize();
    Ok(LintOutcome { report, graph_json })
}

/// Recursively collects `.rs` files under `dir`, skipping [`SKIP_DIRS`].
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated, for stable diagnostics.
pub fn relative_to(path: &Path, root: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Finds the workspace root by walking up from `start` until a directory
/// containing a `Cargo.toml` with a `[workspace]` table is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(src: &str) -> Vec<Finding> {
        lint_source(&FileScope { rel: "explicit.rs".into(), all_rules: true }, src)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn string_and_comment_traps_do_not_fire() {
        let src = r#"
            // Instant::now() and HashMap and Ordering::Relaxed in a comment
            pub fn f() -> String {
                let a = "Instant::now() SystemTime HashMap thread_rng panic!";
                a.to_string()
            }
        "#;
        assert!(all(src).is_empty(), "got: {:?}", all(src));
    }

    #[test]
    fn each_rule_fires_on_a_minimal_snippet() {
        assert_eq!(rules_of(&all("fn f() { let _ = Instant::now(); }")), vec!["wall-clock"]);
        assert_eq!(rules_of(&all("use std::collections::HashMap;")), vec!["hash-iter"]);
        assert_eq!(rules_of(&all("fn f(c: &A) { c.load(Ordering::Relaxed); }")), vec!["relaxed-atomic"]);
        // In all-rules mode the `.unwrap()` also trips no-panic.
        assert_eq!(
            rules_of(&all("fn f(a: f64, b: f64) { a.partial_cmp(&b).unwrap(); }")),
            vec!["float-cmp", "no-panic"]
        );
        assert_eq!(rules_of(&all("fn f(a: f64) -> bool { a == 0.5 }")), vec!["float-cmp"]);
        assert_eq!(rules_of(&all("fn f(o: Option<u8>) { o.unwrap(); }")), vec!["no-panic"]);
        assert_eq!(rules_of(&all("fn f() { panic!(\"boom\"); }")), vec!["no-panic"]);
        assert_eq!(rules_of(&all("fn f() { let _ = rand::thread_rng(); }")), vec!["stub-hygiene"]);
        assert_eq!(rules_of(&all("fn f() { std::process::abort(); }")), vec!["stub-hygiene"]);
    }

    #[test]
    fn parse_aware_rules_fire_on_minimal_snippets() {
        // L7: emit() reaches a helper that reads the environment.
        let src = "fn emit(x: u64) { stamp(x); }\nfn stamp(x: u64) { let _ = std::env::var(\"X\"); }";
        assert_eq!(rules_of(&all(src)), vec!["digest-taint"]);
        // L9: Acquire load paired with a Relaxed store. The Relaxed token
        // itself also trips L3 in all-rules mode.
        let src = "fn r(f: &A) -> bool { f.load(Ordering::Acquire) }\nfn w(f: &A) { f.store(true, Ordering::Relaxed); }";
        let mut got = rules_of(&all(src));
        got.sort_unstable();
        assert_eq!(got, vec!["atomic-ordering", "relaxed-atomic"]);
    }

    #[test]
    fn taint_is_scoped_by_reachability_not_path() {
        // The same clock helper is clean when nothing on the digest path
        // can reach it…
        let src = "fn emit(x: u64) { fold(x); }\nfn fold(x: u64) -> u64 { x }\nfn unrelated() -> Instant { Instant::now() }";
        assert_eq!(rules_of(&all(src)), vec!["wall-clock"], "L1 still fires, L7 must not");
        // …and tainted when a call chain connects them.
        let src = "fn emit(x: u64) { fold(x); }\nfn fold(x: u64) { stamp(); }\nfn stamp() -> Instant { Instant::now() }";
        let mut got = rules_of(&all(src));
        got.sort_unstable();
        assert_eq!(got, vec!["digest-taint", "wall-clock"]);
    }

    #[test]
    fn taint_chain_is_named_in_the_message() {
        let src = "fn emit(x: u64) { fold(x); }\nfn fold(x: u64) { stamp(); }\nfn stamp() { let _ = std::env::var(\"X\"); }";
        let got = all(src);
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("emit → fold → stamp"), "{}", got[0].message);
        assert_eq!(got[0].line, 3, "finding sits at the source construct");
    }

    #[test]
    fn integer_equality_is_not_float_cmp() {
        assert!(all("fn f(l: L) -> f64 { if l.0 == 3 { 0.6 } else { 0.9 } }").is_empty());
        assert!(all("fn f(x: u32) -> bool { x == 3 }").is_empty());
    }

    #[test]
    fn partial_cmp_definition_is_not_flagged() {
        let src = "impl PartialOrd for S { fn partial_cmp(&self, other: &Self) -> Option<Ordering> { Some(self.cmp(other)) } }";
        assert!(all(src).is_empty());
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        assert!(all("fn f(o: Option<u8>) -> u8 { o.unwrap_or(0).max(o.unwrap_or_default()) }").is_empty());
    }

    #[test]
    fn cfg_test_code_is_exempt_from_no_panic_but_not_relaxed() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}";
        assert!(all(src).is_empty());
        let src = "#[cfg(test)]\nmod tests {\n    fn t(c: &A) { c.load(Ordering::Relaxed); }\n}";
        assert_eq!(rules_of(&all(src)), vec!["relaxed-atomic"]);
    }

    #[test]
    fn allow_with_reason_suppresses_same_and_next_line() {
        let same = "fn f(c: &A) { c.load(Ordering::Relaxed); } // lint:allow(relaxed-atomic, reason = \"snippet exercises the suppression path\")";
        assert!(all(same).is_empty());
        let above = "fn f(c: &A) {\n    // lint:allow(relaxed-atomic, reason = \"snippet exercises the suppression path\")\n    c.load(Ordering::Relaxed);\n}";
        assert!(all(above).is_empty());
        let far = "// lint:allow(relaxed-atomic, reason = \"snippet exercises the suppression path\")\n\n\nfn f(c: &A) { c.load(Ordering::Relaxed); }";
        assert_eq!(rules_of(&all(far)), vec!["relaxed-atomic"]);
    }

    #[test]
    fn allow_without_reason_is_a_finding_and_suppresses_nothing() {
        let src = "// lint:allow(relaxed-atomic)\nfn f(c: &A) { c.load(Ordering::Relaxed); }";
        let mut got = rules_of(&all(src));
        got.sort_unstable();
        assert_eq!(got, vec!["allow-without-reason", "relaxed-atomic"]);
    }

    #[test]
    fn short_reason_is_weak_and_suppresses_nothing() {
        let src = "// lint:allow(relaxed-atomic, reason = \"fine\")\nfn f(c: &A) { c.load(Ordering::Relaxed); }";
        let mut got = rules_of(&all(src));
        got.sort_unstable();
        assert_eq!(got, vec!["relaxed-atomic", "weak-reason"]);
    }

    #[test]
    fn rule_id_as_reason_is_weak() {
        // Long enough to pass the length check, but it restates the id.
        let src = "// lint:allow(atomic-ordering, reason = \"atomic-ordering\")\nfn f() {}";
        assert_eq!(rules_of(&all(src)), vec!["weak-reason"]);
    }

    #[test]
    fn allow_for_unknown_rule_is_flagged() {
        let src = "// lint:allow(no-such-rule, reason = \"typo in the rule name\")\nfn f() {}";
        assert_eq!(rules_of(&all(src)), vec!["unknown-rule"]);
    }

    #[test]
    fn new_rules_are_suppressible_with_audited_reasons() {
        let src = "fn emit(x: u64) { stamp(x); }\n// lint:allow(digest-taint, reason = \"sweep timing metadata, not folded into the digest\")\nfn stamp(x: u64) { let _ = std::env::var(\"X\"); }";
        // The directive sits on the line above the env read inside stamp.
        let got = all(src);
        assert!(got.is_empty(), "got: {:?}", rules_of(&got));
    }

    #[test]
    fn workspace_scoping_exempts_profiler_and_bench_bins() {
        let src = "fn f() { let t = Instant::now(); }";
        let profiler = FileScope { rel: "crates/obs/src/profile.rs".into(), all_rules: false };
        assert!(lint_source(&profiler, src).is_empty());
        let bench = FileScope { rel: "crates/bench/src/bin/dst_sweep.rs".into(), all_rules: false };
        assert!(lint_source(&bench, src).is_empty());
        let elsewhere = FileScope { rel: "crates/sim/src/world.rs".into(), all_rules: false };
        assert_eq!(lint_source(&elsewhere, src).len(), 1);
    }

    #[test]
    fn hash_iter_only_applies_to_digest_modules_in_workspace_mode() {
        let src = "use std::collections::HashMap;";
        let digest = FileScope { rel: "crates/obs/src/metrics.rs".into(), all_rules: false };
        assert_eq!(lint_source(&digest, src).len(), 1);
        let lookup_only = FileScope { rel: "crates/sim/src/world.rs".into(), all_rules: false };
        assert!(lint_source(&lookup_only, src).is_empty());
    }

    #[test]
    fn serve_crate_is_in_the_no_panic_and_hash_iter_scopes() {
        let panicky = "fn f() { x.unwrap(); }";
        let serve = FileScope { rel: "crates/serve/src/daemon.rs".into(), all_rules: false };
        assert_eq!(lint_source(&serve, panicky).len(), 1);
        let hashy = "use std::collections::HashSet;";
        assert_eq!(lint_source(&serve, hashy).len(), 1);
        // And the daemon binary is *not* wall-clock exempt: service time
        // is virtual like everything else on the determinism path.
        let clocky = "fn f() { let t = Instant::now(); }";
        let bin = FileScope { rel: "crates/serve/src/bin/concilium_serve.rs".into(), all_rules: false };
        assert_eq!(lint_source(&bin, clocky).len(), 1);
    }
}
