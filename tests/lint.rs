//! Workspace gate for the determinism contract's static half: `cargo
//! test` fails if any first-party source violates the concilium-lint
//! rules (DESIGN.md §13). The dynamic half — the jobs=1 vs jobs=2 trace
//! digest comparison — lives in CI; this test is the compile-time twin.

use std::fs;
use std::path::{Path, PathBuf};

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = concilium_lint::lint_workspace(root).expect("workspace scan must succeed");
    assert!(
        report.is_clean(),
        "concilium-lint found {} violation(s):\n{}",
        report.findings.len(),
        report.render_text()
    );
    // Guard against the scan silently going blind (e.g. a rename of the
    // scan roots): the workspace has well over 100 first-party files.
    assert!(
        report.files_scanned >= 100,
        "scan looks truncated: only {} files visited",
        report.files_scanned
    );
}

#[test]
fn suppressions_are_pinned() {
    // The tree carries justified `lint:allow` comments (documented-panic
    // constructors, test-only tallies, the profiler's span clock). Every
    // one of them passed the reason audit — at least 15 characters, not
    // a restatement of the rule id. The count is pinned exactly: a drop
    // means the lint stopped parsing directives (which would also mask
    // accidental suppressions elsewhere); a rise means a new suppression
    // landed and must be re-audited here. Update the number only after
    // reading the new directive's reason.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = concilium_lint::lint_workspace(root).expect("workspace scan must succeed");
    assert_eq!(
        report.suppressions_used, 19,
        "suppression count changed — audit the new/removed `lint:allow` \
         directives, then update this pin"
    );
}

/// Every first-party `.rs` file under `dir`, skipping what the linter skips
/// (`target`, `vendor`, lint fixtures).
fn first_party_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("readable directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if path.is_dir() {
            if !concilium_lint::SKIP_DIRS.contains(&name) {
                first_party_sources(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[test]
fn the_only_unsafe_is_the_sha_ni_dispatch() {
    // The SHA-NI kernel is safe code; its one caller must vouch for the
    // CPU features (`crates/crypto/src/sha256.rs`). That call is the whole
    // unsafe budget: the keyword appears once in first-party code, under
    // its `// SAFETY:` line, and every library crate but `crypto` (which
    // holds the one `#[allow]`) still forbids it outright. `benchmark/` is
    // its own workspace with its own counting allocator and is not scanned.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for sub in concilium_lint::SCAN_ROOTS.iter().chain(&["examples"]) {
        first_party_sources(&root.join(sub), &mut files);
    }
    files.sort();
    assert!(files.len() >= 100, "scan looks truncated: only {} files visited", files.len());

    let mut sites = Vec::new();
    for path in &files {
        let rel = concilium_lint::relative_to(path, root);
        let src = fs::read_to_string(path).expect("readable source file");
        let lines: Vec<&str> = src.lines().collect();
        // Lexed, so comments, strings and `unsafe_code` never count.
        for tok in concilium_lint::lexer::lex(&src).toks.iter().filter(|t| t.is_ident("unsafe")) {
            let above = (tok.line as usize).checked_sub(2).and_then(|i| lines.get(i));
            let documented = above.is_some_and(|l| l.trim_start().starts_with("// SAFETY:"));
            sites.push((rel.clone(), tok.line, documented));
        }
        if rel.ends_with("src/lib.rs") {
            let level = if rel == "crates/crypto/src/lib.rs" { "deny" } else { "forbid" };
            let attr = format!("#![{level}(unsafe_code)]");
            assert!(src.contains(&attr), "{rel} must carry {attr}");
        }
    }
    match sites.as_slice() {
        [(file, _, true)] if file == "crates/crypto/src/sha256.rs" => {}
        other => panic!(
            "expected exactly one `unsafe`, in crates/crypto/src/sha256.rs under a \
             `// SAFETY:` line; found (file, line, documented): {other:?}"
        ),
    }
}

#[test]
fn every_per_kind_consumer_denies_wildcard_arms() {
    // What lint rule L8 checked by reading source, the compiler checks: a
    // `match` naming every `TraceEvent`/`Record` kind stops compiling when
    // a kind is added, and `#[deny(clippy::wildcard_enum_match_arm)]`
    // keeps a catch-all arm out. Only CI's clippy step reads that
    // attribute, so its place on each per-kind consumer is pinned here.
    const CONSUMERS: &[(&str, &str)] = &[
        ("crates/obs/src/causal.rs", "pub fn entities("),
        ("crates/obs/src/causal.rs", "fn step("),
        ("crates/sim/src/explorer/episode.rs", "fn count("),
        ("crates/serve/src/flight.rs", "pub(crate) fn trace_event("),
        ("crates/serve/src/flight.rs", "pub fn from_record("),
        ("crates/serve/src/daemon.rs", "fn absorb("),
        ("crates/serve/src/state.rs", "pub fn apply("),
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (rel, signature) in CONSUMERS {
        let src = fs::read_to_string(root.join(rel)).expect("readable source file");
        // Lexed, so neither comments nor layout come between the two.
        let code: String =
            concilium_lint::lexer::lex(&src).toks.iter().map(|t| t.text.as_str()).collect();
        let attributed =
            format!("#[deny(clippy::wildcard_enum_match_arm)]{}", signature.replace(' ', ""));
        assert!(code.contains(&attributed), "{rel}: `{signature}` lost its deny attribute");
    }
}
