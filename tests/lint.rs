//! The determinism contract's static half is the toolchain's: clippy.toml
//! bans the wall clock, hash-ordered maps, `abort` and environment reads
//! (root, plus crates/{obs,serve,sim}); the five no-panic crate roots warn
//! on `unwrap`/`expect`/`panic!`; `[workspace.lints]` turns every
//! exemption into an `#[expect]` with a reason (DESIGN.md §13). Those
//! attributes and config files only bite under CI's `cargo clippy -D
//! warnings`, so this file pins them in place over plain source text,
//! together with the two rules clippy has no lint for (atomics never
//! `Relaxed` in `par`/`obs`; no `partial_cmp` call). The dynamic half —
//! the jobs=1 vs jobs=2 trace comparison — lives in CI.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// Directories never scanned: build output, offline dependency stand-ins,
/// golden fixtures, and the negative-control crate, which breaks every
/// rule on purpose.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", ".git", "clippy_bad"];

/// The negative-control crate's one source file (see its Cargo.toml).
const CLIPPY_BAD: &str = "tests/clippy_bad/src/lib.rs";

/// Every first-party `.rs` file under `crates`, `src`, `tests` and
/// `examples`, as (workspace-relative path, contents), sorted by path.
fn first_party_sources() -> Vec<(String, String)> {
    let files = sources_under(&["crates", "src", "tests", "examples"]);
    assert!(files.len() >= 100, "scan looks truncated: only {} files visited", files.len());
    files
}

/// Every `.rs` file under the workspace-relative directories `subs`, as
/// (workspace-relative path, contents), sorted by path.
fn sources_under(subs: &[&str]) -> Vec<(String, String)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
        for entry in fs::read_dir(dir).expect("readable source directory") {
            let path = entry.expect("readable directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name) {
                    walk(root, &path, out);
                }
            } else if name.ends_with(".rs") {
                let rel = path.strip_prefix(root).expect("under the root").to_string_lossy();
                let rel = rel.replace('\\', "/");
                // This file spells out every needle it searches for.
                if rel != "tests/lint.rs" {
                    let src = fs::read_to_string(&path).expect("readable source file");
                    out.push((rel, src));
                }
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for sub in subs {
        walk(root, &root.join(sub), &mut files);
    }
    files.sort();
    files
}

fn read(rel: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The source with `//` comments and all whitespace removed, so layout
/// and prose never decide a match.
fn code(src: &str) -> String {
    src.lines().flat_map(|l| l.split("//").next()).flat_map(str::split_whitespace).collect()
}

/// The part of a file before its first `#[cfg(test)]`: every test module
/// in the tree sits at the end of its file.
fn non_test(src: &str) -> &str {
    match src.find("\n#[cfg(test)]") {
        Some(i) => &src[..i],
        None => src,
    }
}

/// Where the two text-pinned rules are broken in `src`: `Relaxed` (only
/// checked where `relaxed_scope` holds) and any `.partial_cmp(` call.
fn text_pin_hits(src: &str, relaxed_scope: bool) -> Vec<&'static str> {
    let code = code(src);
    let mut hits = Vec::new();
    if relaxed_scope && code.contains("Relaxed") {
        hits.push("Relaxed atomic");
    }
    if code.contains(".partial_cmp(") {
        hits.push("partial_cmp call");
    }
    hits
}

#[test]
fn workspace_is_lint_clean() {
    // The two rules clippy cannot express. `par` and `obs` hold the
    // workspace's coordination atomics (SeqCst horizon, AcqRel claim
    // counter, the profiler's Release/Acquire flag); a `Relaxed` there —
    // test tallies included — is the only way to break an
    // acquire/release pairing, so it is refused outright. `partial_cmp`
    // has no caller: floats sort with `total_cmp`.
    let mut found = Vec::new();
    for (rel, src) in first_party_sources() {
        let relaxed_scope = rel.starts_with("crates/par/src/") || rel.starts_with("crates/obs/src/");
        for hit in text_pin_hits(&src, relaxed_scope) {
            found.push(format!("{rel}: {hit}"));
        }
    }
    assert!(found.is_empty(), "text-pinned rules broken:\n{}", found.join("\n"));

    // The pins are not blind: the negative-control crate trips both.
    assert_eq!(
        text_pin_hits(&read(CLIPPY_BAD), true),
        ["Relaxed atomic", "partial_cmp call"],
        "{CLIPPY_BAD} must trip both text pins"
    );
}

#[test]
fn suppressions_are_pinned() {
    // Every exemption in first-party non-test code is an `#[expect(lint,
    // reason = "…")]` (`#[allow]` is refused by clippy::allow_attributes),
    // and each one passed a reason audit: documented-panic constructors,
    // the SHA-NI dispatch, the profiler's span clock, the lookup-only
    // map module in `sim`. The count is pinned exactly: a
    // rise means a new exemption landed and must be audited here; a drop
    // means one was removed (clippy's unfulfilled_lint_expectations
    // already refuses a stale one). Update the number only after reading
    // the new attribute's reason.
    let mut sites = Vec::new();
    for (rel, src) in first_party_sources() {
        if rel.starts_with("tests/") || rel.contains("/tests/") {
            continue;
        }
        let code = code(non_test(&src));
        // `,expect(` is the `cfg_attr(<predicate>, expect(…))` form.
        let n = ["#[expect(", "#![expect(", ",expect("].iter().map(|p| code.matches(p).count()).sum::<usize>();
        if n > 0 {
            sites.push((rel, n));
        }
    }
    let total: usize = sites.iter().map(|(_, n)| n).sum();
    assert_eq!(
        total, 18,
        "exemption count changed — audit the new/removed `#[expect(` \
         attributes, then update this pin; per file: {sites:?}"
    );
}

#[test]
fn the_only_unsafe_is_the_sha_ni_dispatch() {
    // The SHA-NI kernel is safe code; its one caller must vouch for the
    // CPU features (`crates/crypto/src/sha256.rs`). That call is the whole
    // unsafe budget. `unsafe_code` is denied in every target by
    // `[workspace.lints.rust]` and forbidden outright by every library
    // root but `crypto`'s, which denies it so the dispatch can carry the
    // tree's one `#[expect(unsafe_code)]`; `#[allow]` is refused by
    // clippy. So that attribute is pinned to one place, directly above
    // its `// SAFETY:` line and the block.
    let mut sites = Vec::new();
    for (rel, src) in first_party_sources() {
        if code(&src).contains("expect(unsafe_code") {
            sites.push(rel.clone());
        }
        if rel.ends_with("src/lib.rs") {
            let level = if rel == "crates/crypto/src/lib.rs" { "deny" } else { "forbid" };
            let attr = format!("#![{level}(unsafe_code)]");
            assert!(src.contains(&attr), "{rel} must carry {attr}");
        }
    }
    assert_eq!(sites, ["crates/crypto/src/sha256.rs"], "files holding `expect(unsafe_code`");

    let src = read("crates/crypto/src/sha256.rs");
    assert_eq!(code(&src).matches("expect(unsafe_code").count(), 1, "one exemption in sha256.rs");
    let lines: Vec<&str> = src.lines().map(str::trim).collect();
    let safety = lines.iter().position(|l| l.starts_with("// SAFETY: ")).expect("a `// SAFETY:` line");
    let attr_start = lines[..safety].iter().rposition(|l| l.starts_with("#[")).expect("an attribute");
    let attr = lines[attr_start..safety].concat();
    assert!(
        attr.starts_with("#[expect(unsafe_code,") && attr.ends_with(")]") && lines[safety + 1] == "unsafe {",
        "sha256.rs: `#[expect(unsafe_code, …)]` must sit directly above `// SAFETY:` and `unsafe {{`"
    );
}

#[test]
fn every_per_kind_consumer_denies_wildcard_arms() {
    // A `match` naming every `TraceEvent`/`Record` kind stops compiling
    // when a kind is added, and `#[deny(clippy::wildcard_enum_match_arm)]`
    // keeps a catch-all arm out. Only CI's clippy step reads that
    // attribute, so its place directly on each per-kind consumer is
    // pinned here.
    const CONSUMERS: &[(&str, &str)] = &[
        ("crates/obs/src/causal.rs", "pub fn entities("),
        ("crates/obs/src/causal.rs", "fn step("),
        ("crates/sim/src/explorer/episode.rs", "fn count("),
        ("crates/serve/src/flight.rs", "pub(crate) fn trace_event("),
        ("crates/serve/src/flight.rs", "pub fn from_record("),
        ("crates/serve/src/daemon.rs", "fn absorb("),
        ("crates/serve/src/state.rs", "pub fn apply("),
    ];
    for (rel, signature) in CONSUMERS {
        let attributed =
            format!("#[deny(clippy::wildcard_enum_match_arm)]{}", signature.replace(' ', ""));
        assert!(code(&read(rel)).contains(&attributed), "{rel}: `{signature}` lost its deny attribute");
    }
}

#[test]
fn clippy_config_is_pinned() {
    // Clippy reads the nearest clippy.toml and does not merge, so each
    // digest-path crate repeats the root's entries. Losing one — or a
    // whole file, or a crate root's warn line — silently retires a rule;
    // this fails instead.
    const ROOT_ENTRIES: &[&str] = &[
        "path = \"std::time::Instant::now\"",
        "path = \"std::time::SystemTime::now\"",
        "path = \"std::process::abort\"",
        "allow-unwrap-in-tests = true",
        "allow-expect-in-tests = true",
        "allow-panic-in-tests = true",
    ];
    const DIGEST_ENTRIES: &[&str] = &[
        "path = \"std::env::var\"",
        "path = \"std::collections::HashMap\"",
        "path = \"std::collections::HashSet\"",
    ];
    let configs: [(&str, &[&str]); 4] = [
        ("clippy.toml", &[]),
        ("crates/obs/clippy.toml", DIGEST_ENTRIES),
        ("crates/serve/clippy.toml", DIGEST_ENTRIES),
        ("crates/sim/clippy.toml", DIGEST_ENTRIES),
    ];
    for (rel, extra) in configs {
        let live: String =
            read(rel).lines().filter(|l| !l.trim_start().starts_with('#')).collect::<Vec<_>>().join("\n");
        for entry in ROOT_ENTRIES.iter().chain(extra) {
            assert!(live.contains(entry), "{rel} lost `{entry}`");
        }
    }

    const NO_PANIC: &str = "#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]";
    const FLOAT_CMP: &str = "#![cfg_attr(not(test), warn(clippy::float_cmp))]";
    for krate in ["core", "tomography", "crypto", "overlay", "serve"] {
        let rel = format!("crates/{krate}/src/lib.rs");
        let src = read(&rel);
        assert!(src.contains(NO_PANIC), "{rel} lost {NO_PANIC}");
        if matches!(krate, "core" | "tomography") {
            assert!(src.contains(FLOAT_CMP), "{rel} lost {FLOAT_CMP}");
        }
    }

    let manifest = code(&read("Cargo.toml"));
    for entry in [
        "[workspace.lints.clippy]",
        "allow_attributes=\"warn\"",
        "allow_attributes_without_reason=\"warn\"",
        "undocumented_unsafe_blocks=\"warn\"",
        "[workspace.lints.rust]",
        "unsafe_code=\"deny\"",
    ] {
        assert!(manifest.contains(entry), "Cargo.toml lost `{entry}`");
    }
    let mut manifests = vec!["Cargo.toml".to_string()];
    for entry in fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("crates")).expect("crates/") {
        let name = entry.expect("readable directory entry").file_name();
        manifests.push(format!("crates/{}/Cargo.toml", name.to_string_lossy()));
    }
    for rel in manifests {
        assert!(code(&read(&rel)).contains("[lints]workspace=true"), "{rel} must inherit [workspace.lints]");
    }
}

#[test]
fn stewardship_is_decided_once() {
    // Where §3.5's blame comes to rest has one statement,
    // `core::revision::steward`, checked exhaustively there. The simulator
    // gathers the route's facts and evidence for it and decides nothing:
    // its old walk result and private defence rule stay gone.
    let mut defined = Vec::new();
    for (rel, src) in first_party_sources() {
        let code = code(&src);
        if rel.starts_with("crates/sim/") {
            for gone in ["WalkEnd", "fndefense("] {
                assert!(!code.contains(gone), "{rel}: `{gone}` is back; use core::revision::steward");
            }
        }
        for _ in code.matches("fnsteward(") {
            defined.push(rel.clone());
        }
    }
    assert_eq!(defined, ["crates/core/src/revision.rs"], "files defining `fn steward(`");
}

#[test]
fn the_m_of_w_rule_is_decided_once() {
    // §3.4's windows and quota live in `core::verdict::VerdictBook`; each
    // driver records into a book and keeps only its own latch.
    let mut opened = Vec::new();
    let mut asked = Vec::new();
    for (rel, src) in first_party_sources() {
        if rel.starts_with("crates/sim/") {
            assert!(!code(&src).contains("PairState"), "{rel}: `PairState` is back; use a VerdictBook");
        }
        let production =
            rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/"));
        if production {
            let code = code(non_test(&src));
            if code.contains("VerdictWindow::new(") {
                opened.push(rel.clone());
            }
            if code.contains(".should_accuse(") {
                asked.push(rel.clone());
            }
        }
    }
    assert_eq!(opened, ["crates/core/src/verdict.rs"], "production files calling `VerdictWindow::new(`");
    assert_eq!(asked, ["crates/core/src/verdict.rs"], "production files calling `should_accuse(`");
}

#[test]
fn the_journal_is_framed_once() {
    // `serve::journal` writes frames in place and reads them with one
    // walker; digest, recovery and the panic flush all go through it, and
    // nothing on the production path copies the store.
    let (mut framers, mut copiers, mut scanners) = (Vec::new(), Vec::new(), Vec::new());
    for (rel, src) in first_party_sources() {
        let production =
            rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/"));
        if !production {
            continue;
        }
        let code = code(non_test(&src));
        if code.contains("Record::decode(") || code.contains("u32::from_le_bytes(") {
            framers.push(rel.clone());
        }
        if code.contains(".snapshot(") {
            copiers.push(rel.clone());
        }
        if code.contains(".scan(") {
            scanners.push(rel.clone());
        }
    }
    assert_eq!(framers, ["crates/serve/src/journal.rs"], "production files parsing journal frames");
    assert!(copiers.is_empty(), "production files copying a store with `.snapshot(`: {copiers:?}");
    let bin = "crates/serve/src/bin/concilium_serve.rs";
    assert_eq!(scanners, [bin], "production files materialising a journal with `.scan(`");
    // In the binary, the one scan answers `--explain`.
    let bin = code(&read(bin));
    let explain = bin.find("ifletSome(query)=&args.explain{").expect("the --explain branch");
    assert_eq!(bin.matches(".scan(").count(), 1);
    assert!(bin.find(".scan(").is_some_and(|at| at > explain), "`.scan(` outside --explain");
}

/// `pub fn`s that no file outside their crate's library names, kept by
/// decision. Each entry is (file, function, reason); the reason is the
/// DESIGN.md §18 census row that says why the function stays
/// (`concilium::blame`), or the ROADMAP item that will call it
/// (`ROADMAP 22`).
const UNCALLED_BY_DECISION: &[(&str, &str, &str)] = &[
    ("crates/core/src/blame.rs", "link_bad_confidence", "concilium::blame"),
    ("crates/core/src/rebuttal.rs", "evaluate_rebuttal", "concilium::rebuttal"),
    ("crates/sim/src/archive.rs", "round_time", "ROADMAP 22"),
    ("crates/tomography/src/probe.rs", "try_new", "concilium_tomography::probe"),
];

/// The library a source file belongs to (`crates/core/src` for
/// `crates/core/src/blame.rs`), or `None` outside every library: a
/// crate's `src/bin`, its `tests`, and everything outside `crates`.
fn library_of(rel: &str) -> Option<&str> {
    let mut parts = rel.splitn(4, '/');
    let (top, _, src, rest) = (parts.next()?, parts.next()?, parts.next()?, parts.next()?);
    let inside = top == "crates" && src == "src" && !rest.starts_with("bin/");
    inside.then(|| &rel[..rel.len() - rest.len() - 1])
}

/// The identifier-shaped words of `src`, prose included.
fn words(src: &str) -> BTreeSet<&str> {
    src.split(|c: char| !(c.is_alphanumeric() || c == '_')).filter(|w| !w.is_empty()).collect()
}

/// The names of the `pub fn`s and `pub const fn`s `src` declares outside
/// `//` comments; a `pub(crate) fn` is not one.
fn pub_fns(src: &str) -> Vec<&str> {
    src.lines()
        .flat_map(|l| l.split("//").next())
        .flat_map(|l| l.split("pub ").skip(1))
        .flat_map(|rest| rest.strip_prefix("const ").unwrap_or(rest).strip_prefix("fn "))
        .flat_map(|rest| rest.split(|c: char| !(c.is_alphanumeric() || c == '_')).next())
        .filter(|name| !name.is_empty())
        .collect()
}

/// Every `pub fn` of a crate library in `files` whose name no file outside
/// that library contains, as (path, name). rustc's `dead_code` lint cannot
/// see these: they are `pub` in a library.
fn orphan_pub_fns(files: &[(String, String)]) -> Vec<(String, String)> {
    let vocab: Vec<(Option<&str>, BTreeSet<&str>)> =
        files.iter().map(|(rel, src)| (library_of(rel), words(src))).collect();
    let mut orphans = Vec::new();
    for (rel, src) in files {
        let Some(library) = library_of(rel) else {
            continue;
        };
        for name in pub_fns(src) {
            let outside = vocab.iter().any(|(lib, w)| *lib != Some(library) && w.contains(name));
            if !outside {
                orphans.push((rel.clone(), name.to_string()));
            }
        }
    }
    orphans
}

/// The module column of DESIGN.md's census table (§18), backticks
/// stripped: `concilium::blame`, `concilium_tomography::delta`, …
fn census_rows() -> Vec<String> {
    let design = read("DESIGN.md");
    let at = design.find("\n## 18. ").expect("DESIGN.md has its §18 census");
    design[at + 1..]
        .lines()
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|l| l.split('`').next())
        .map(str::to_string)
        .collect()
}

#[test]
fn every_pub_fn_is_named_outside_its_crate() {
    // A `pub fn` that nothing outside its crate's library names is
    // crate-private in all but name; as `pub(crate)`, `dead_code` judges
    // it. The crate's bins, every other crate, `tests/`, `examples/` and
    // `benchmark/` compile against the library, so they count as callers.
    // Only the allow-list may stay public without one.
    assert!(UNCALLED_BY_DECISION.len() <= 12, "the allow-list is capped at 12 entries");
    let census = census_rows();
    let roadmap = read("ROADMAP.md");
    let mut allowed = Vec::new();
    for &(file, name, reason) in UNCALLED_BY_DECISION {
        let cited = match reason.strip_prefix("ROADMAP ") {
            Some(item) => roadmap.contains(&format!("\n{item}. **")),
            None => census.iter().any(|row| row == reason),
        };
        assert!(cited, "`{name}` cites `{reason}`: no such census row or ROADMAP item");
        allowed.push((file.to_string(), name.to_string()));
    }
    let mut files = first_party_sources();
    files.extend(sources_under(&["benchmark/src", "benchmark/tests"]));
    let orphans = orphan_pub_fns(&files);
    let unlisted: Vec<&(String, String)> = orphans.iter().filter(|o| !allowed.contains(o)).collect();
    assert!(
        unlisted.is_empty(),
        "`pub fn`s no file outside their crate's library names: make them `pub(crate)` and \
         delete what `cargo check --workspace --lib --bins --examples` then reports as dead: \
         {unlisted:?}"
    );
    let stale: Vec<&(String, String)> = allowed.iter().filter(|a| !orphans.contains(a)).collect();
    assert!(stale.is_empty(), "allow-list entries with an outside caller now, or gone: {stale:?}");

    // Nothing silences the lint that judges the demoted items.
    for (rel, src) in &files {
        if rel.starts_with("crates/") && rel.split('/').nth(2) == Some("src") {
            let code = code(src);
            assert!(
                !code.contains("allow(dead_code") && !code.contains("expect(dead_code"),
                "{rel}: `dead_code` is suppressed"
            );
        }
    }

    // The scanner is not blind: it reports a name only a sibling module of
    // the same library uses, and neither one its own bin calls, a
    // `pub(crate) fn`, nor a commented-out one.
    let lib = "pub fn called() {}\npub fn orphan() {}\npub fn sibling_only() {}\n\
               pub const fn bin_only() {}\npub(crate) fn private() {}\n// pub fn old() {}\n";
    let synthetic = [
        ("crates/x/src/lib.rs", lib),
        ("crates/x/src/other.rs", "fn f() { crate::sibling_only(); }\n"),
        ("crates/x/src/bin/x.rs", "fn main() { x::bin_only(); }\n"),
        ("tests/x.rs", "fn main() { x::called(); }\n"),
    ]
    .map(|(rel, src)| (rel.to_string(), src.to_string()));
    let at = |name: &str| ("crates/x/src/lib.rs".to_string(), name.to_string());
    assert_eq!(orphan_pub_fns(&synthetic), [at("orphan"), at("sibling_only")]);
}

#[test]
fn the_module_map_matches_the_modules() {
    // `concilium`'s crate docs map paper sections to modules; the table
    // names exactly the `pub mod`s the crate declares, and each has a
    // census row in DESIGN.md §18.
    let lib = read("crates/core/src/lib.rs");
    let mut declared: Vec<&str> =
        lib.lines().filter_map(|l| l.strip_prefix("pub mod ")?.strip_suffix(';')).collect();
    let map = lib.find("//! # Module map").expect("crates/core/src/lib.rs has a `# Module map`");
    let mut mapped: Vec<&str> = lib[map..]
        .lines()
        .take_while(|l| l.starts_with("//!"))
        .filter(|l| l.starts_with("//! |"))
        .filter_map(|l| l.split("[`").nth(1)?.split("`]").next())
        .collect();
    declared.sort_unstable();
    mapped.sort_unstable();
    assert!(declared.len() >= 10, "only {} `pub mod`s found", declared.len());
    assert_eq!(mapped, declared, "the module map and the `pub mod`s disagree");
    let census = census_rows();
    for module in declared {
        let row = format!("concilium::{module}");
        assert!(census.contains(&row), "DESIGN.md's census has no row for `{row}`");
    }
}
