//! Causal-schema conformance: every event kind must be handled, by name,
//! everywhere the causal machinery consumes events.
//!
//! PR 9's explain pipeline only works if three functions in
//! `crates/obs/src/causal.rs` keep pace with the `TraceEvent` enum —
//! `entities()` (which entities an event touches), `CausalLedger::observe`
//! (happens-before ingestion), and `CausalIndex::push` (parent-link
//! rules) — and if `trace_event` in `crates/serve/src/flight.rs`
//! keeps pace with the WAL `Record` enum. All of them compile happily
//! with a `_ => {}` arm while silently dropping a newly added kind, which
//! is exactly how a causal-reachability invariant rots.
//!
//! The check is purely syntactic and deliberately strict: a variant
//! counts as covered only when the consumer's body names it as
//! `Enum::Variant` (including inside `|` or-patterns). Wildcards do not
//! count — adding an event kind must be a visible, reviewed decision at
//! every consumer.

use crate::graph::WorkspaceIndex;
use crate::lexer::LexedFile;
use crate::report::Finding;
use crate::rules::Rule;

/// One conformance pairing: the enum and the consumer function that must
/// name every variant of it.
struct Check {
    enum_name: &'static str,
    enum_file: &'static str,
    fn_name: &'static str,
    fn_impl: Option<&'static str>,
    fn_file: &'static str,
    what: &'static str,
}

const CHECKS: &[Check] = &[
    Check {
        enum_name: "TraceEvent",
        enum_file: "crates/obs/src/event.rs",
        fn_name: "entities",
        fn_impl: None,
        fn_file: "crates/obs/src/causal.rs",
        what: "entity extraction",
    },
    Check {
        enum_name: "TraceEvent",
        enum_file: "crates/obs/src/event.rs",
        fn_name: "observe",
        fn_impl: Some("CausalLedger"),
        fn_file: "crates/obs/src/causal.rs",
        what: "causal ledger ingestion",
    },
    Check {
        enum_name: "TraceEvent",
        enum_file: "crates/obs/src/event.rs",
        fn_name: "push",
        fn_impl: Some("CausalIndex"),
        fn_file: "crates/obs/src/causal.rs",
        what: "parent-link rules",
    },
    Check {
        enum_name: "Record",
        enum_file: "crates/serve/src/journal.rs",
        fn_name: "trace_event",
        fn_impl: None,
        fn_file: "crates/serve/src/flight.rs",
        what: "WAL-to-trace projection",
    },
];

/// Runs the conformance checks over the indexed file set.
///
/// In workspace mode (`all_rules == false`) the anchors are looked up at
/// their canonical paths; on a full workspace scan (`anchored == true`) a
/// *missing* anchor is itself a finding — a rename must not silently
/// disable the check. In all-rules mode (explicit files, fixtures)
/// anchors are matched by name anywhere in the set, and a pairing is
/// skipped quietly when either side is absent, so single-file fixtures
/// can exercise one pairing in isolation. `anchored` is false for
/// partial file sets, where an absent anchor just means the file wasn't
/// given.
pub fn check(
    index: &WorkspaceIndex,
    lexed: &[LexedFile],
    all_rules: bool,
    anchored: bool,
    out: &mut Vec<Finding>,
) {
    for c in CHECKS {
        let enum_item = index.files.iter().enumerate().find_map(|(fi, f)| {
            if !all_rules && f.rel != c.enum_file {
                return None;
            }
            f.parsed.enums.iter().find(|e| e.name == c.enum_name && !e.is_test).map(|e| (fi, e))
        });
        let fn_rel = if all_rules { None } else { Some(c.fn_file) };
        let fn_ids = index.matching(fn_rel, c.fn_impl, Some(c.fn_name));
        let fn_id = fn_ids.iter().copied().find(|&id| !index.fns[id].is_test);

        match (enum_item, fn_id) {
            (Some((efi, e)), Some(id)) => {
                let node = &index.fns[id];
                let file = &index.files[node.file];
                let body = file.parsed.fns[node.local].body;
                for (variant, vline) in &e.variants {
                    if !names_variant(&lexed[node.file], body, c.enum_name, variant) {
                        out.push(Finding {
                            file: file.rel.clone(),
                            line: node.line,
                            rule: Rule::CausalSchema,
                            message: format!(
                                "`{}::{}` (declared at {}:{}) has no named arm in \
                                 `{}` ({}); wildcard matches don't count as schema \
                                 coverage — add an explicit arm or justify with \
                                 `lint:allow(causal-schema, reason = …)`",
                                c.enum_name,
                                variant,
                                index.files[efi].rel,
                                vline,
                                node.qualified(),
                                c.what,
                            ),
                        });
                    }
                }
            }
            (Some((efi, e)), None) if anchored && !all_rules => out.push(Finding {
                file: index.files[efi].rel.clone(),
                line: e.line,
                rule: Rule::CausalSchema,
                message: format!(
                    "conformance anchor missing: no fn `{}{}` found in {} to check \
                     `{}` coverage ({}); if the consumer moved, update the schema \
                     check's anchor table in crates/lint/src/schema.rs",
                    c.fn_impl.map(|t| format!("{t}::")).unwrap_or_default(),
                    c.fn_name,
                    c.fn_file,
                    c.enum_name,
                    c.what,
                ),
            }),
            (None, _) if anchored && !all_rules => out.push(Finding {
                file: c.enum_file.to_string(),
                line: 1,
                rule: Rule::CausalSchema,
                message: format!(
                    "conformance anchor missing: enum `{}` not found in {}; if it \
                     moved, update the schema check's anchor table in \
                     crates/lint/src/schema.rs",
                    c.enum_name, c.enum_file,
                ),
            }),
            _ => {}
        }
    }
}

/// Whether the token range names `Enum::Variant` anywhere.
fn names_variant(
    lexed: &LexedFile,
    body: Option<(usize, usize)>,
    enum_name: &str,
    variant: &str,
) -> bool {
    let Some((start, end)) = body else { return false };
    let toks = &lexed.toks;
    let end = end.min(toks.len());
    for i in start..end.saturating_sub(3) {
        if toks[i].is_ident(enum_name)
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident(variant)
        {
            return true;
        }
    }
    false
}
