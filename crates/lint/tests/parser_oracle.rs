//! Differential tests for the item parser: an independent token-stream
//! oracle re-derives function counts and body spans over every `.rs`
//! file in the workspace, and property tests feed the parser malformed
//! input to prove it never panics and never produces inverted spans.
//!
//! The oracle is deliberately dumber than the parser — a flat scan for
//! `fn <ident>` outside `macro_rules!` bodies, plus an independent brace
//! matcher for spans — so the two can only agree by both being right
//! about the token stream.

use std::path::{Path, PathBuf};

use concilium_lint::lexer::{self, Tok, TokKind};
use concilium_lint::parser;
use proptest::prelude::*;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap().to_path_buf()
}

fn workspace_rs_files() -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let mut entries: Vec<PathBuf> =
            std::fs::read_dir(dir).expect("readable dir").map(|e| e.expect("entry").path()).collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
                if concilium_lint::SKIP_DIRS.contains(&name) {
                    continue;
                }
                walk(&path, out);
            } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
                out.push(path);
            }
        }
    }
    let root = workspace_root();
    let mut files = Vec::new();
    for sub in concilium_lint::SCAN_ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            walk(&dir, &mut files);
        }
    }
    assert!(files.len() > 100, "workspace walk looks broken: {} files", files.len());
    files
}

fn lex(src: &str) -> Vec<Tok> {
    let mut lexed = lexer::lex(src);
    lexer::mark_test_scope(&mut lexed.toks);
    lexed.toks
}

/// Token indices that sit inside a `macro_rules! name { … }` body — the
/// parser treats those as opaque, so the oracle must too.
fn macro_rules_body_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("macro_rules") && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            // Skip to the body `{` and mask through its matching `}`.
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') {
                j += 1;
            }
            let mut depth = 0isize;
            while j < toks.len() {
                if toks[j].is_punct('{') {
                    depth += 1;
                } else if toks[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        mask[j] = true;
                        break;
                    }
                }
                mask[j] = true;
                j += 1;
            }
            i = j;
        }
        i += 1;
    }
    mask
}

/// Oracle: count `fn <ident>` items outside macro bodies.
fn oracle_fn_count(toks: &[Tok]) -> usize {
    let mask = macro_rules_body_mask(toks);
    let mut n = 0usize;
    for i in 0..toks.len() {
        if !mask[i]
            && toks[i].is_ident("fn")
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
        {
            n += 1;
        }
    }
    n
}

/// Oracle: the matching `}` for the `{` at `open`, by flat brace count.
fn oracle_match_brace(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0isize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Every function the oracle sees, the parser sees — and vice versa —
/// across the entire real workspace.
#[test]
fn fn_counts_match_oracle_on_every_workspace_file() {
    for path in workspace_rs_files() {
        let src = std::fs::read_to_string(&path).expect("readable");
        let toks = lex(&src);
        let parsed = parser::parse(&toks);
        let rel = path.display();
        assert_eq!(
            parsed.fns.len(),
            oracle_fn_count(&toks),
            "{rel}: fn count diverges from the token-stream oracle"
        );
    }
}

/// Every parsed body span closes at exactly the brace an independent
/// matcher finds, and the recorded name/line agree with the token.
#[test]
fn fn_spans_match_independent_brace_matcher_on_every_workspace_file() {
    let mut bodies_checked = 0usize;
    for path in workspace_rs_files() {
        let src = std::fs::read_to_string(&path).expect("readable");
        let toks = lex(&src);
        let parsed = parser::parse(&toks);
        let rel = path.display();
        for f in &parsed.fns {
            assert_eq!(toks[f.name_tok].text, f.name, "{rel}: name token mismatch");
            assert_eq!(toks[f.name_tok].line, f.line, "{rel}: line mismatch for `{}`", f.name);
            if let Some((open, close)) = f.body {
                assert!(toks[open].is_punct('{'), "{rel}: `{}` body does not open at a brace", f.name);
                assert_eq!(
                    oracle_match_brace(&toks, open),
                    Some(close),
                    "{rel}: `{}` body span diverges from the brace matcher",
                    f.name
                );
                assert_eq!(toks[close].line, f.end_line, "{rel}: `{}` end line mismatch", f.name);
                bodies_checked += 1;
            }
        }
    }
    assert!(bodies_checked > 1000, "only {bodies_checked} fn bodies checked — walk broken?");
}

/// Structural invariants that must hold for *any* input, well-formed or
/// not.
fn assert_parse_invariants(src: &str) {
    let toks = lex(src);
    let parsed = parser::parse(&toks);
    for f in &parsed.fns {
        assert!(f.name_tok < toks.len());
        assert_eq!(toks[f.name_tok].text, f.name);
        if let Some((open, close)) = f.body {
            assert!(open <= close, "inverted span for `{}` on {src:?}", f.name);
            assert!(open < toks.len());
            assert!(toks[open].is_punct('{'));
        }
    }
    for c in &parsed.calls {
        assert!(c.caller < parsed.fns.len(), "dangling caller on {src:?}");
    }
}

/// A vocabulary dense in the constructs the parser special-cases, so
/// random juxtapositions hit the interesting state transitions (unclosed
/// impls, stray braces, turbofish fragments, attribute openers…).
const SOUP: &[&str] = &[
    "fn", "impl", "mod", "enum", "struct", "use", "for", "where", "as", "self",
    "macro_rules", "match", "pub", "crate", "name", "x", "Type", "Ordering",
    "{", "}", "(", ")", "[", "]", "<", ">", "::", ":", ";", ",", ".", "!", "#",
    "->", "=>", "=", "|", "&", "'a", "\"s\"", "0", "1.5", "//c\n",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random token soup: the parser must neither panic nor emit
    /// structurally invalid items.
    #[test]
    fn parser_survives_token_soup(picks in proptest::collection::vec(0usize..34, 0..120)) {
        let src: String =
            picks.iter().map(|&i| SOUP[i % SOUP.len()]).collect::<Vec<_>>().join(" ");
        assert_parse_invariants(&src);
    }

    /// Random bytes (lossily decoded): the lexer+parser stack must
    /// accept arbitrary garbage without panicking.
    #[test]
    fn parser_survives_random_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        assert_parse_invariants(&src);
    }
}
