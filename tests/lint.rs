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
    for sub in ["crates", "src", "tests", "examples"] {
        walk(root, &root.join(sub), &mut files);
    }
    files.sort();
    assert!(files.len() >= 100, "scan looks truncated: only {} files visited", files.len());
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
    // the SHA-NI dispatch, the profiler's span clock, the two
    // lookup-only map modules in `sim`. The count is pinned exactly: a
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
        total, 20,
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
