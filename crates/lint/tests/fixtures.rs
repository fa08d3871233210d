//! The lint's own test harness: every bad fixture must trip its rule,
//! every good fixture must be clean, the binary must exit non-zero with
//! `file:line` diagnostics on bad input, and the linter must be clean on
//! its own source under workspace scoping.

use std::path::{Path, PathBuf};
use std::process::Command;

use concilium_lint::{lint_file, lint_source_counted, lint_workspace, FileScope};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// (fixture file, rule expected among its findings)
const BAD: &[(&str, &str)] = &[
    ("l1_wall_clock.rs", "wall-clock"),
    ("l2_hash_iter.rs", "hash-iter"),
    ("l3_relaxed.rs", "relaxed-atomic"),
    ("l4_float_cmp.rs", "float-cmp"),
    ("l5_panic.rs", "no-panic"),
    ("l6_stub_hygiene.rs", "stub-hygiene"),
    ("l7_digest_taint.rs", "digest-taint"),
    ("l9_atomic_ordering.rs", "atomic-ordering"),
    ("missing_reason.rs", "allow-without-reason"),
    ("weak_reason.rs", "weak-reason"),
];

/// Planted-mutant mini-workspaces: each must produce exactly one finding
/// with this rule at this file:line under a full workspace scan.
const WS_BAD: &[(&str, &str, &str, u32)] = &[
    ("laundered_clock", "digest-taint", "crates/obs/src/profile.rs", 8),
    ("downgraded_store", "atomic-ordering", "crates/par/src/cancel.rs", 16),
];

/// Sanctioned-pattern mini-workspaces: each must scan clean.
const WS_GOOD: &[&str] = &["profile_clock", "sanctioned_map"];

#[test]
fn every_bad_fixture_trips_its_rule() {
    for (name, rule) in BAD {
        let path = fixtures_dir().join("bad").join(name);
        let findings = lint_file(&path, name, true).expect("fixture readable");
        assert!(
            findings.iter().any(|f| f.rule.as_str() == *rule),
            "{name}: expected a `{rule}` finding, got: {:?}",
            findings.iter().map(|f| f.render()).collect::<Vec<_>>()
        );
        for f in &findings {
            assert!(f.line >= 1, "{name}: finding without a line");
            assert_eq!(f.file, *name);
        }
    }
}

#[test]
fn bad_fixture_corpus_is_complete() {
    let dir = fixtures_dir().join("bad");
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .expect("bad fixture dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let mut listed: Vec<String> = BAD.iter().map(|(n, _)| (*n).to_string()).collect();
    listed.sort();
    assert_eq!(on_disk, listed, "every bad fixture must be asserted on (and vice versa)");
}

#[test]
fn every_good_fixture_is_clean() {
    let dir = fixtures_dir().join("good");
    let mut checked = 0usize;
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("good fixture dir")
        .map(|e| e.expect("entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let findings = lint_file(&path, &name, true).expect("fixture readable");
        assert!(
            findings.is_empty(),
            "{name}: expected clean, got: {:?}",
            findings.iter().map(|f| f.render()).collect::<Vec<_>>()
        );
        checked += 1;
    }
    assert!(checked >= 8, "good corpus shrank: only {checked} fixtures");
}

/// Each planted mutant is caught by exactly the analysis it was built to
/// defeat, at the exact source location — under the same workspace
/// scoping CI uses, where the per-path rules (L1–L6) are silent on it.
#[test]
fn planted_mutant_workspaces_are_caught_precisely() {
    for (ws, rule, file, line) in WS_BAD {
        let root = fixtures_dir().join("ws_bad").join(ws);
        let report = lint_workspace(&root).expect("mutant workspace scans");
        assert_eq!(
            report.findings.len(),
            1,
            "{ws}: expected exactly one finding, got: {:?}",
            report.findings.iter().map(|f| f.render()).collect::<Vec<_>>()
        );
        let f = &report.findings[0];
        assert_eq!(f.rule.as_str(), *rule, "{ws}: wrong rule: {}", f.render());
        assert_eq!(f.file, *file, "{ws}: wrong file: {}", f.render());
        assert_eq!(f.line, *line, "{ws}: wrong line: {}", f.render());
    }
}

/// The sanctioned patterns the parse-aware rules must NOT flag: profiler
/// wall-clock use unreachable from any digest sink, and a lookup-only
/// `HashMap` outside every digest path.
#[test]
fn sanctioned_pattern_workspaces_are_clean() {
    for ws in WS_GOOD {
        let root = fixtures_dir().join("ws_good").join(ws);
        let report = lint_workspace(&root).expect("good workspace scans");
        assert!(
            report.is_clean(),
            "{ws}: expected clean, got: {:?}",
            report.findings.iter().map(|f| f.render()).collect::<Vec<_>>()
        );
    }
}

/// A weak reason both survives as its own finding and fails to suppress
/// the underlying one.
#[test]
fn weak_reason_does_not_suppress() {
    let path = fixtures_dir().join("bad").join("weak_reason.rs");
    let findings = lint_file(&path, "weak_reason.rs", true).expect("fixture readable");
    let mut rules: Vec<&str> = findings.iter().map(|f| f.rule.as_str()).collect();
    rules.sort_unstable();
    assert_eq!(rules, vec!["relaxed-atomic", "weak-reason"]);
}

#[test]
fn suppressions_in_good_corpus_are_counted() {
    let path = fixtures_dir().join("good").join("l3_allowed.rs");
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    let scope = FileScope { rel: "l3_allowed.rs".into(), all_rules: true };
    let (findings, used) = lint_source_counted(&scope, &src);
    assert!(findings.is_empty());
    assert_eq!(used, 2, "both allow placements (same-line, line-above) must engage");
}

#[test]
fn binary_exits_nonzero_with_file_line_diagnostics() {
    let bad = fixtures_dir().join("bad").join("l3_relaxed.rs");
    let out = Command::new(env!("CARGO_BIN_EXE_concilium-lint"))
        .arg(&bad)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "bad fixture must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("l3_relaxed.rs:6: [relaxed-atomic]"),
        "diagnostic must carry file:line, got:\n{stdout}"
    );
}

#[test]
fn binary_is_clean_on_good_fixture_and_writes_json() {
    let good = fixtures_dir().join("good").join("l1_string_trap.rs");
    let json_path = std::env::temp_dir().join(format!("concilium_lint_test_{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_concilium-lint"))
        .arg("--json")
        .arg(&json_path)
        .arg(&good)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "good fixture must exit 0");
    let json = std::fs::read_to_string(&json_path).expect("json report written");
    let _ = std::fs::remove_file(&json_path);
    assert!(json.contains("\"findings_count\": 0"), "report: {json}");
    assert!(json.contains("\"files_scanned\": 1"));
}

/// `--graph-out` writes the conservative call graph: the laundered-clock
/// workspace's `emit → stamp` edge must appear as an edge between the
/// two named functions.
#[test]
fn binary_writes_call_graph_artifact() {
    let root = fixtures_dir().join("ws_bad").join("laundered_clock");
    let graph_path =
        std::env::temp_dir().join(format!("concilium_lint_graph_{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_concilium-lint"))
        .arg("--root")
        .arg(&root)
        .arg("--graph-out")
        .arg(&graph_path)
        .arg("--quiet")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "mutant workspace must still exit 1");
    let graph = std::fs::read_to_string(&graph_path).expect("graph written");
    let _ = std::fs::remove_file(&graph_path);
    assert!(graph.contains("\"graph_version\": 1"), "graph: {graph}");
    assert!(graph.contains("\"name\": \"emit\""));
    assert!(graph.contains("\"name\": \"stamp\""));
    assert!(graph.contains("\"edges\""));
}

/// The self-check: under the same workspace scoping CI uses, the linter's
/// own source produces zero findings.
#[test]
fn linter_is_clean_on_its_own_source() {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = crate_dir.parent().unwrap().parent().unwrap();
    for entry in std::fs::read_dir(crate_dir.join("src")).expect("src dir") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let rel = concilium_lint::relative_to(&path, root);
        let findings = lint_file(&path, &rel, false).expect("readable");
        assert!(
            findings.is_empty(),
            "linter source {rel} is not lint-clean: {:?}",
            findings.iter().map(|f| f.render()).collect::<Vec<_>>()
        );
    }
}
