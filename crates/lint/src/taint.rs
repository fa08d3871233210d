//! Digest-taint dataflow: no nondeterminism source may be reachable from
//! a digest sink.
//!
//! PR 5's rules scoped nondeterminism *by file path* — which a helper
//! function two crates away trivially launders: `emit()` calls
//! `profile::stamp()`, `stamp()` reads `Instant::now()` inside the
//! wall-clock-exempt profiler file, and nothing fires even though real
//! time just flowed into the trace hash. This analysis replaces the path
//! criterion with a reachability criterion over the
//! [`crate::graph::CallGraph`]:
//!
//! * **Sinks** are the functions whose outputs must be bit-identical
//!   across runs: the `emit()` event choke point in
//!   `crates/sim/src/explorer/episode.rs` (it feeds the chained trace
//!   hash, the metrics tallies, and the causal ledger), every
//!   `TraceHasher` method in `crates/sim/src/invariants.rs` (the hash
//!   itself, also used for the sweep-digest fold and corpus replay
//!   hashes), and every function in `crates/serve/src/journal.rs` (WAL
//!   framing: bytes written there are replayed byte-exact on recovery).
//! * **Sources** are constructs whose value depends on the host rather
//!   than the seed: wall-clock reads, `HashMap`/`HashSet` (iteration
//!   order is per-process random), `available_parallelism`, environment
//!   reads, and pointer-address formatting (`{:p}`).
//! * A finding is emitted **at the source construct** in any function
//!   reachable from a sink, with the full call chain in the message.
//!
//! Functions in test scope are never treated as tainted: a test may read
//! the clock freely, and a sink cannot reach `#[cfg(test)]` code in a
//! production build anyway.

use crate::graph::{CallGraph, WorkspaceIndex};
use crate::lexer::LexedFile;
use crate::report::Finding;
use crate::rules::Rule;

/// Where digest sinks live in this workspace: `(file, impl, fn)` patterns
/// with `None` as a wildcard (see module docs for why each is a sink).
const WORKSPACE_SINKS: &[(Option<&str>, Option<&str>, Option<&str>)] = &[
    (Some("crates/sim/src/explorer/episode.rs"), None, Some("emit")),
    (Some("crates/sim/src/invariants.rs"), Some("TraceHasher"), None),
    (Some("crates/serve/src/journal.rs"), None, None),
];

/// One nondeterminism source found in a function body.
struct Seed {
    line: u32,
    what: &'static str,
    detail: String,
}

/// Runs the analysis. `lexed` must parallel `index.files`. When
/// `all_rules` is set (explicit files, fixtures), any function named
/// `emit` is additionally treated as a sink so the fixture corpus can
/// exercise the rule without recreating workspace paths.
pub fn check(
    index: &WorkspaceIndex,
    graph: &CallGraph,
    lexed: &[LexedFile],
    all_rules: bool,
    out: &mut Vec<Finding>,
) {
    let mut sinks: Vec<usize> = Vec::new();
    for (rel, impl_ty, name) in WORKSPACE_SINKS {
        sinks.extend(index.matching(*rel, *impl_ty, *name));
    }
    if all_rules {
        sinks.extend(index.named("emit").iter().copied());
    }
    sinks.retain(|&id| !index.fns[id].is_test);
    sinks.sort_unstable();
    sinks.dedup();
    if sinks.is_empty() {
        return;
    }

    let (reached, parent) = graph.reach(&sinks);
    for (id, node) in index.fns.iter().enumerate() {
        if !reached[id] || node.is_test {
            continue;
        }
        let file = &index.files[node.file];
        let seeds = seeds_of(file.parsed.fns[node.local].body, &lexed[node.file]);
        for seed in seeds {
            let chain = CallGraph::chain(index, &parent, id);
            out.push(Finding {
                file: file.rel.clone(),
                line: seed.line,
                rule: Rule::DigestTaint,
                message: format!(
                    "{} in `{}` is reachable from a digest sink via {chain}; \
                     nondeterminism on this path leaks into reproducible digests — \
                     hoist the value out of the digest path or justify with \
                     `lint:allow(digest-taint, reason = …)`{}",
                    seed.what,
                    node.qualified(),
                    seed.detail,
                ),
            });
        }
    }
}

/// Scans one function body's token range for nondeterminism sources.
fn seeds_of(body: Option<(usize, usize)>, lexed: &LexedFile) -> Vec<Seed> {
    let Some((start, end)) = body else { return Vec::new() };
    let toks = &lexed.toks;
    let end = end.min(toks.len());
    let mut out = Vec::new();
    for i in start..end {
        let t = &toks[i];
        if t.test_scope {
            continue;
        }
        let ident = |s: &str| t.is_ident(s);
        let path_to = |j: usize, name: &str| {
            toks.get(j).is_some_and(|t| t.is_punct(':'))
                && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(j + 2).is_some_and(|t| t.is_ident(name))
        };
        if ident("Instant") && path_to(i + 1, "now") {
            out.push(Seed { line: t.line, what: "wall-clock read `Instant::now()`", detail: String::new() });
        } else if ident("SystemTime") || ident("UNIX_EPOCH") {
            out.push(Seed {
                line: t.line,
                what: "wall-clock access",
                detail: format!(" (`{}`)", t.text),
            });
        } else if ident("HashMap") || ident("HashSet") {
            out.push(Seed {
                line: t.line,
                what: "randomized-iteration container",
                detail: format!(" (`{}`)", t.text),
            });
        } else if ident("available_parallelism") {
            out.push(Seed {
                line: t.line,
                what: "host-dependent `available_parallelism()`",
                detail: String::new(),
            });
        } else if ident("env") && (path_to(i + 1, "var") || path_to(i + 1, "var_os") || path_to(i + 1, "vars")) {
            out.push(Seed { line: t.line, what: "environment read `env::var`", detail: String::new() });
        }
    }
    // Pointer-address formatting: `{:p}` (or `{x:p}`) inside a string
    // literal in this body prints an ASLR-randomized address.
    for (tok_idx, text) in &lexed.strings {
        if *tok_idx < start || *tok_idx >= end || toks[*tok_idx].test_scope {
            continue;
        }
        if text.contains(":p}") {
            out.push(Seed {
                line: toks[*tok_idx].line,
                what: "pointer-address format spec `{:p}`",
                detail: String::new(),
            });
        }
    }
    out.sort_by_key(|s| s.line);
    out
}
