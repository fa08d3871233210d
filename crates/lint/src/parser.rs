//! A recursive-descent *item* parser over the lexed token stream.
//!
//! This is deliberately not a Rust grammar. The analyses built on top of
//! it ([`crate::graph`], [`crate::taint`], [`crate::atomics`]) need
//! exactly three structural facts that the flat token stream cannot give
//! them:
//!
//! 1. **Function extents** — which tokens belong to which `fn`, so a
//!    nondeterminism source can be attributed to the function containing
//!    it rather than to a file.
//! 2. **Impl context** — the `Self` type a method is defined on, so
//!    `TraceHasher::record` and `Reputation::record` are distinct nodes.
//! 3. **Call expressions** — `foo(`, `Path::foo(`, `.foo(` sites with
//!    enough of the path kept to resolve them conservatively.
//!
//! Like the lexer, the parser is *forgiving*: malformed input produces a
//! best-effort item list, never a panic, because everything it scans has
//! already been through `rustc`. Constructs it does not model (macro
//! bodies, `struct`/`enum` interiors, token soup in
//! attributes) are skipped wholesale rather than half-parsed — a skipped
//! region can hide a call edge, which is why the dynamic digest gate in
//! CI remains the backstop, but it can never *invent* one.

use crate::lexer::{Tok, TokKind};

/// One `fn` item (free function, inherent/trait method, or trait
/// declaration without a body).
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Self type of the enclosing `impl` block, if any. For
    /// `impl Trait for Type` this is `Type`.
    pub impl_type: Option<String>,
    /// `::`-joined inline-module path (`"tests"`, `""` at top level).
    pub module: String,
    /// Token index of the name identifier.
    pub name_tok: usize,
    /// 1-based line of the name.
    pub line: u32,
    /// Token range `[open_brace, close_brace]` of the body, `None` for
    /// body-less declarations (`fn f(&self);` in a trait).
    pub body: Option<(usize, usize)>,
    /// 1-based line of the body's closing brace (or of the name when
    /// there is no body).
    pub end_line: u32,
    /// Whether the name token sits in `#[cfg(test)]`/`#[test]` scope.
    pub is_test: bool,
}

/// How a call expression is written at the call site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(…)` — a bare path of one segment.
    Free,
    /// `Qualifier::foo(…)` — the last qualifying segment is kept.
    Path,
    /// `recv.foo(…)` — a method call; the receiver's type is unknown.
    Method,
}

/// One call expression inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    /// Index into [`ParsedFile::fns`] of the enclosing function.
    pub caller: usize,
    /// The called name (last path segment).
    pub name: String,
    /// For [`CallKind::Path`]: the segment before the name (`Instant` in
    /// `Instant::now(`, `Self`, a module name…). `None` otherwise.
    pub qualifier: Option<String>,
    /// Call shape.
    pub kind: CallKind,
    /// 1-based line of the called name.
    pub line: u32,
}

/// One `use` declaration leaf: the name it binds locally and the full
/// path it stands for.
#[derive(Clone, Debug)]
pub struct UseItem {
    /// The local binding (`Map` for `use …::HashMap as Map`).
    pub alias: String,
    /// Path segments, last one being the real name.
    pub path: Vec<String>,
}

/// Everything the item parser extracts from one file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// All functions, in source order (nested fns appear after their
    /// enclosing fn).
    pub fns: Vec<FnItem>,
    /// All call expressions found inside function bodies.
    pub calls: Vec<Call>,
    /// All `use` leaves.
    pub uses: Vec<UseItem>,
}

/// Identifiers that look like calls syntactically but never are (control
/// keywords) or that name tuple-enum constructors of the standard
/// prelude rather than workspace functions.
const NON_CALL_IDENTS: &[&str] = &[
    "as", "async", "await", "box", "break", "continue", "crate", "dyn", "else", "enum", "false",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "static", "struct", "super", "trait", "true", "type", "union", "unsafe",
    "use", "where", "while", "yield", "Some", "None", "Ok", "Err",
];

enum ScopeKind {
    Module(String),
    Impl(Option<String>),
    Fn(usize),
}

struct Scope {
    kind: ScopeKind,
    /// Brace depth *inside* the scope's body; the scope closes when a `}`
    /// brings the depth back below this.
    inside_depth: isize,
}

fn punct_of(t: &Tok) -> Option<u8> {
    if t.kind == TokKind::Punct {
        t.text.as_bytes().first().copied()
    } else {
        None
    }
}

fn is_kw(t: &Tok, kw: &str) -> bool {
    t.kind == TokKind::Ident && t.text == kw
}

/// Parses the token stream of one file into items.
pub fn parse(toks: &[Tok]) -> ParsedFile {
    let mut out = ParsedFile::default();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut depth: isize = 0;
    let mut i = 0usize;

    while i < toks.len() {
        let t = &toks[i];

        if let Some(p) = punct_of(t) {
            match p {
                b'{' => {
                    depth += 1;
                    i += 1;
                }
                b'}' => {
                    depth -= 1;
                    while scopes.last().is_some_and(|s| s.inside_depth > depth) {
                        if let Some(Scope { kind: ScopeKind::Fn(idx), .. }) = scopes.pop() {
                            if let Some(f) = out.fns.get_mut(idx) {
                                if let Some((open, _)) = f.body {
                                    f.body = Some((open, i));
                                }
                                f.end_line = t.line;
                            }
                        }
                    }
                    i += 1;
                }
                b'#' => {
                    // Attribute `#[…]` / `#![…]`: skip so its contents
                    // (`derive(Debug)`, `cfg(test)`) don't read as calls.
                    let mut j = i + 1;
                    if toks.get(j).is_some_and(|t| t.is_punct('!')) {
                        j += 1;
                    }
                    if toks.get(j).is_some_and(|t| t.is_punct('[')) {
                        i = skip_delims(toks, j, b'[', b']');
                    } else {
                        i += 1;
                    }
                }
                _ => i += 1,
            }
            continue;
        }

        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }

        match t.text.as_str() {
            "macro_rules" => {
                // `macro_rules! name { token soup }`: the body is patterns
                // and templates, not items — skip it entirely.
                let mut j = i + 1;
                while j < toks.len() && !toks[j].is_punct('{') {
                    j += 1;
                }
                i = skip_delims(toks, j, b'{', b'}');
            }
            "mod" if toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) => {
                let name = toks[i + 1].text.clone();
                if toks.get(i + 2).is_some_and(|t| t.is_punct('{')) {
                    scopes.push(Scope {
                        kind: ScopeKind::Module(name),
                        inside_depth: depth + 1,
                    });
                    i += 2; // land on `{`, handled by the punct branch
                } else {
                    i += 2; // `mod name;` — out-of-line, nothing to scope
                }
            }
            "impl" => {
                let (self_ty, brace) = parse_impl_header(toks, i);
                match brace {
                    Some(b) => {
                        scopes.push(Scope {
                            kind: ScopeKind::Impl(self_ty),
                            inside_depth: depth + 1,
                        });
                        i = b; // land on `{`
                    }
                    None => i += 1,
                }
            }
            "fn" if toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) => {
                let name_tok = i + 1;
                let impl_type = scopes
                    .iter()
                    .rev()
                    .find_map(|s| match &s.kind {
                        ScopeKind::Impl(ty) => Some(ty.clone()),
                        _ => None,
                    })
                    .flatten();
                let module = scopes
                    .iter()
                    .filter_map(|s| match &s.kind {
                        ScopeKind::Module(m) => Some(m.as_str()),
                        _ => None,
                    })
                    .collect::<Vec<_>>()
                    .join("::");
                let item = FnItem {
                    name: toks[name_tok].text.clone(),
                    impl_type,
                    module,
                    name_tok,
                    line: toks[name_tok].line,
                    body: None,
                    end_line: toks[name_tok].line,
                    is_test: toks[name_tok].test_scope,
                };
                let idx = out.fns.len();
                out.fns.push(item);
                // Scan the signature for its body `{` or terminating `;`
                // at zero paren/bracket depth.
                let mut j = name_tok + 1;
                let (mut paren, mut bracket) = (0isize, 0isize);
                let mut opened = None;
                while j < toks.len() {
                    match punct_of(&toks[j]) {
                        Some(b'(') => paren += 1,
                        Some(b')') => paren -= 1,
                        Some(b'[') => bracket += 1,
                        Some(b']') => bracket -= 1,
                        Some(b'{') if paren == 0 && bracket == 0 => {
                            opened = Some(j);
                            break;
                        }
                        Some(b';') if paren == 0 && bracket == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                match opened {
                    Some(open) => {
                        out.fns[idx].body = Some((open, open)); // end patched at `}`
                        scopes.push(Scope { kind: ScopeKind::Fn(idx), inside_depth: depth + 1 });
                        i = open; // land on `{`
                    }
                    None => i = (j + 1).min(toks.len()),
                }
            }
            "struct" | "union" | "enum"
                if toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
                    && !in_fn_call_position(toks, i) =>
            {
                // Skip the item body so tuple-struct field types, tuple
                // variants and struct literals never read as calls.
                i = skip_item(toks, i + 2);
            }
            "use" if !in_fn_call_position(toks, i) => {
                let (uses, next) = parse_use(toks, i + 1);
                out.uses.extend(uses);
                i = next;
            }
            _ => {
                maybe_call(toks, i, &scopes, &mut out);
                i += 1;
            }
        }
    }

    // Close anything left open at EOF (truncated input).
    let last_line = toks.last().map_or(1, |t| t.line);
    let last_idx = toks.len().saturating_sub(1);
    while let Some(s) = scopes.pop() {
        if let ScopeKind::Fn(idx) = s.kind {
            if let Some(f) = out.fns.get_mut(idx) {
                if let Some((open, _)) = f.body {
                    f.body = Some((open, last_idx.max(open)));
                }
                f.end_line = f.end_line.max(last_line);
            }
        }
    }
    out
}

/// Parses an `impl` header starting at the `impl` keyword: returns the
/// self type (for `impl Trait for Type`, the `Type`) and the index of the
/// opening `{`, or `None` when the header never opens a body.
///
/// The self type is the last identifier seen at zero angle-bracket depth
/// in the relevant half of the header, so `impl<T: Ord> Display for
/// topo::Cache<T>` yields `Cache` (the generics `<T: Ord>` and the type
/// arguments `<T>` are inside brackets and never contribute).
fn parse_impl_header(toks: &[Tok], start: usize) -> (Option<String>, Option<usize>) {
    let mut j = start + 1;
    let (mut paren, mut bracket, mut angle) = (0isize, 0isize, 0isize);
    let mut after_for: Option<String> = None;
    let mut before_for: Option<String> = None;
    let mut seen_for = false;
    let mut in_where = false;
    while j < toks.len() {
        let t = &toks[j];
        match punct_of(t) {
            Some(b'(') => paren += 1,
            Some(b')') => paren -= 1,
            Some(b'[') => bracket += 1,
            Some(b']') => bracket -= 1,
            Some(b'<') => angle += 1,
            Some(b'>') if angle > 0 && j > 0 && !toks[j - 1].is_punct('-') => angle -= 1,
            Some(b'{') if paren == 0 && bracket == 0 && angle <= 0 => {
                let ty = if seen_for { after_for } else { before_for };
                return (ty, Some(j));
            }
            Some(b';') if paren == 0 && bracket == 0 => return (None, None),
            _ => {}
        }
        if t.kind == TokKind::Ident && paren == 0 && bracket == 0 && angle == 0 {
            match t.text.as_str() {
                "for" => seen_for = true,
                "where" => in_where = true,
                "dyn" | "mut" | "const" | "unsafe" | "pub" => {}
                _ if in_where => {}
                _ if seen_for => after_for = Some(t.text.clone()),
                _ => before_for = Some(t.text.clone()),
            }
        }
        j += 1;
    }
    (None, None)
}

/// Parses a `use` declaration body (everything after the `use` keyword)
/// into its leaves; returns them and the index past the `;`.
fn parse_use(toks: &[Tok], start: usize) -> (Vec<UseItem>, usize) {
    let mut leaves = Vec::new();
    let mut prefix: Vec<String> = Vec::new();
    let mut stack: Vec<usize> = Vec::new(); // prefix lengths at `{` entries
    let mut j = start;
    let mut pending_as = false;
    while j < toks.len() {
        let t = &toks[j];
        match punct_of(t) {
            Some(b';') => {
                flush_use_leaf(&mut leaves, &mut prefix, stack.last().copied().unwrap_or(0));
                return (leaves, j + 1);
            }
            Some(b'{') => {
                stack.push(prefix.len());
                j += 1;
            }
            Some(b'}') => {
                flush_use_leaf(&mut leaves, &mut prefix, stack.last().copied().unwrap_or(0));
                stack.pop();
                // The group (and the path segments leading to it) is
                // consumed; rewind to the enclosing group's base.
                prefix.truncate(stack.last().copied().unwrap_or(0));
                j += 1;
            }
            Some(b',') => {
                flush_use_leaf(&mut leaves, &mut prefix, stack.last().copied().unwrap_or(0));
                j += 1;
            }
            Some(b':') => j += 1,
            Some(b'*') => {
                // Glob import: nothing nameable to record.
                prefix.truncate(stack.last().copied().unwrap_or(0));
                j += 1;
            }
            _ if t.kind == TokKind::Ident && t.text == "as" => {
                pending_as = true;
                j += 1;
            }
            _ if t.kind == TokKind::Ident => {
                if pending_as {
                    // `path as Alias`: record the full path with the
                    // alias as the visible name.
                    let base = stack.last().copied().unwrap_or(0);
                    if prefix.len() > base {
                        leaves.push(UseItem { alias: t.text.clone(), path: prefix.clone() });
                    }
                    prefix.truncate(base);
                    pending_as = false;
                } else {
                    prefix.push(t.text.clone());
                }
                j += 1;
            }
            _ => j += 1,
        }
    }
    (leaves, toks.len())
}

fn flush_use_leaf(leaves: &mut Vec<UseItem>, prefix: &mut Vec<String>, base: usize) {
    if prefix.len() > base {
        let path = prefix.clone();
        let alias = path.last().cloned().unwrap_or_default();
        if alias != "self" {
            leaves.push(UseItem { alias, path });
        }
        prefix.truncate(base);
    }
}

/// Whether the `struct`/`enum`/`use` keyword at `i` is actually in expression
/// position (it cannot be, in real Rust, but fuzzed input may put it
/// there — and raw identifiers already had their `r#` stripped).
fn in_fn_call_position(toks: &[Tok], i: usize) -> bool {
    i > 0 && (toks[i - 1].is_punct('.') || toks[i - 1].is_punct(':'))
}

/// Records a call expression at token `i` if one starts there.
fn maybe_call(toks: &[Tok], i: usize, scopes: &[Scope], out: &mut ParsedFile) {
    let Some(&Scope { kind: ScopeKind::Fn(caller), .. }) =
        scopes.iter().rev().find(|s| matches!(s.kind, ScopeKind::Fn(_)))
    else {
        return; // calls outside fn bodies (const/static initializers) are dropped
    };
    let t = &toks[i];
    let after = match toks.get(i + 1) {
        Some(n) => n,
        None => return,
    };
    // `name!(…)` is a macro invocation, not a call.
    if after.is_punct('!') {
        return;
    }
    let open_follows = if after.is_punct('(') {
        true
    } else if after.is_punct(':')
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 3).is_some_and(|t| t.is_punct('<'))
    {
        // Turbofish `name::<…>(…)`: match the angle brackets (bounded —
        // generic arguments are short) and require a `(` right after.
        let mut angle = 0isize;
        let mut j = i + 3;
        let limit = (i + 64).min(toks.len());
        loop {
            if j >= limit {
                break false;
            }
            if toks[j].is_punct('<') {
                angle += 1;
            } else if toks[j].is_punct('>') && !toks[j - 1].is_punct('-') {
                angle -= 1;
                if angle == 0 {
                    break toks.get(j + 1).is_some_and(|t| t.is_punct('('));
                }
            }
            j += 1;
        }
    } else {
        false
    };
    if !open_follows {
        return;
    }
    let prev = i.checked_sub(1).map(|j| &toks[j]);
    let (kind, qualifier) = match prev {
        Some(p) if p.is_punct('.') => (CallKind::Method, None),
        Some(p)
            if p.is_punct(':') && i >= 2 && toks[i - 2].is_punct(':') =>
        {
            let q = toks
                .get(i.wrapping_sub(3))
                .filter(|q| q.kind == TokKind::Ident)
                .map(|q| q.text.clone());
            (CallKind::Path, q)
        }
        Some(p) if is_kw(p, "fn") => return, // definition, not a call
        _ => {
            if NON_CALL_IDENTS.contains(&t.text.as_str()) {
                return;
            }
            (CallKind::Free, None)
        }
    };
    out.calls.push(Call { caller, name: t.text.clone(), qualifier, kind, line: t.line });
}

/// Skips a balanced delimiter region whose opener sits at `open`; returns
/// the index just past the matching closer (or `toks.len()`).
fn skip_delims(toks: &[Tok], open: usize, o: u8, c: u8) -> usize {
    if open >= toks.len() {
        return toks.len();
    }
    let mut depth = 0isize;
    let mut i = open;
    while i < toks.len() {
        match punct_of(&toks[i]) {
            Some(p) if p == o => depth += 1,
            Some(p) if p == c => {
                depth -= 1;
                if depth <= 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Skips an item starting after its introducer: to the first `;` at zero
/// delimiter depth, or past its first top-level braced body.
fn skip_item(toks: &[Tok], start: usize) -> usize {
    let (mut paren, mut bracket) = (0isize, 0isize);
    let mut i = start;
    while i < toks.len() {
        match punct_of(&toks[i]) {
            Some(b'(') => paren += 1,
            Some(b')') => paren -= 1,
            Some(b'[') => bracket += 1,
            Some(b']') => bracket -= 1,
            Some(b'{') if paren == 0 && bracket == 0 => {
                return skip_delims(toks, i, b'{', b'}');
            }
            Some(b';') if paren == 0 && bracket == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn parse_src(src: &str) -> ParsedFile {
        let mut f = lexer::lex(src);
        lexer::mark_test_scope(&mut f.toks);
        parse(&f.toks)
    }

    #[test]
    fn fns_with_impl_and_module_context() {
        let src = r#"
            pub fn free() { helper(); }
            impl Explorer {
                fn emit(&mut self) { self.hasher.record(); }
            }
            impl fmt::Display for Node {
                fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result { Ok(()) }
            }
            mod inner {
                fn nested() {}
            }
        "#;
        let p = parse_src(src);
        let names: Vec<(&str, Option<&str>, &str)> = p
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.impl_type.as_deref(), f.module.as_str()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free", None, ""),
                ("emit", Some("Explorer"), ""),
                ("fmt", Some("Node"), ""),
                ("nested", None, "inner"),
            ]
        );
    }

    #[test]
    fn calls_are_attributed_and_classified() {
        let src = r#"
            fn a() {
                helper();
                Instant::now();
                recv.method();
                not_a_macro!();
                Self::assoc();
            }
        "#;
        let p = parse_src(src);
        let calls: Vec<(&str, CallKind, Option<&str>)> =
            p.calls.iter().map(|c| (c.name.as_str(), c.kind, c.qualifier.as_deref())).collect();
        assert_eq!(
            calls,
            vec![
                ("helper", CallKind::Free, None),
                ("now", CallKind::Path, Some("Instant")),
                ("method", CallKind::Method, None),
                ("assoc", CallKind::Path, Some("Self")),
            ]
        );
        assert!(p.calls.iter().all(|c| c.caller == 0));
    }

    #[test]
    fn use_tree_leaves_and_aliases() {
        let src = "use std::collections::{BTreeMap, HashMap as Map}; use a::b::c;";
        let p = parse_src(src);
        let got: Vec<(String, String)> =
            p.uses.iter().map(|u| (u.alias.clone(), u.path.join("::"))).collect();
        assert_eq!(
            got,
            vec![
                ("BTreeMap".into(), "std::collections::BTreeMap".into()),
                ("Map".into(), "std::collections::HashMap".into()),
                ("c".into(), "a::b::c".into()),
            ]
        );
    }

    #[test]
    fn struct_bodies_and_macro_rules_are_opaque() {
        let src = r#"
            macro_rules! gen { () => { fn not_counted() {} }; }
            struct Wrap(Vec<u8>);
            fn real() { let w = Wrap(vec![]); }
        "#;
        let p = parse_src(src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
        // `Wrap(` is a tuple-struct constructor; it records as a call but
        // resolution will find no workspace fn of that name.
        assert!(p.calls.iter().any(|c| c.name == "Wrap"));
    }

    #[test]
    fn trait_declarations_have_no_body() {
        let p = parse_src("trait T { fn decl(&self); fn with_default(&self) { self.decl(); } }");
        assert_eq!(p.fns.len(), 2);
        assert!(p.fns[0].body.is_none());
        assert!(p.fns[1].body.is_some());
    }

    #[test]
    fn nested_fns_close_correctly() {
        let src = "fn outer() {\n  fn inner() { leaf(); }\n  tail();\n}";
        let p = parse_src(src);
        assert_eq!(p.fns.len(), 2);
        let inner_calls: Vec<&str> =
            p.calls.iter().filter(|c| c.caller == 1).map(|c| c.name.as_str()).collect();
        assert_eq!(inner_calls, vec!["leaf"]);
        let outer_calls: Vec<&str> =
            p.calls.iter().filter(|c| c.caller == 0).map(|c| c.name.as_str()).collect();
        assert_eq!(outer_calls, vec!["tail"]);
        assert_eq!(p.fns[0].end_line, 4);
    }

    #[test]
    fn test_scope_is_carried() {
        let p = parse_src("#[cfg(test)]\nmod tests { fn t() {} }\nfn prod() {}");
        assert!(p.fns[0].is_test);
        assert!(!p.fns[1].is_test);
    }

    #[test]
    fn malformed_input_does_not_panic() {
        for src in ["fn", "fn (", "impl {", "enum E {", "use a::{b,", "fn f( {", "}}}}", "mod"] {
            let _ = parse_src(src);
        }
    }
}
