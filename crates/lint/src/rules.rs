//! The determinism/safety rules, as matchers over the lexed token stream.
//!
//! Each rule has a stable kebab-case identifier (used in diagnostics and
//! in `lint:allow(<id>, reason = "…")` suppressions) and a *scope*: the
//! set of workspace-relative paths it applies to. Scoping is how the
//! project encodes "wall-clock time is legal in the profiler and the
//! bench bins but nowhere else" without a config file. When a file is
//! linted explicitly (CLI path arguments, fixtures), every rule applies
//! regardless of path, so fixtures can exercise rules whose workspace
//! scope they could never sit inside.

use crate::lexer::{Tok, TokKind};
use crate::report::Finding;

/// Machine-readable rule identifiers. `as_str` values are the names the
/// suppression syntax uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// L1: wall-clock reads (`Instant::now`, `SystemTime`, `UNIX_EPOCH`)
    /// outside `obs::profile` and the bench binaries.
    WallClock,
    /// L2: `HashMap`/`HashSet` in modules that feed trace hashing,
    /// metrics merge, or JSON export — iteration order would leak
    /// nondeterminism into digests.
    HashIter,
    /// L3: `Ordering::Relaxed` on coordination atomics without an
    /// explicit justification.
    RelaxedAtomic,
    /// L4: `partial_cmp(...).unwrap()` / float `==` in diagnosis math.
    FloatCmp,
    /// L5: `unwrap()`/`expect()`/`panic!` in non-test library code of the
    /// de-panicked crates.
    NoPanic,
    /// L6: vendored-stub hygiene — no `rand::thread_rng`, no
    /// `std::process::abort`.
    StubHygiene,
    /// L7: a nondeterminism source (wall clock, `HashMap` iteration,
    /// `available_parallelism`, env read, `{:p}` formatting) reachable
    /// from a digest sink through the call graph (see [`crate::taint`]).
    DigestTaint,
    /// L9: an Acquire load without a Release store on the same atomic
    /// field, or a pairing downgraded to Relaxed (see [`crate::atomics`]).
    AtomicOrdering,
    /// Meta: a `lint:allow` without a non-empty `reason = "…"`.
    AllowWithoutReason,
    /// Meta: a `lint:allow` whose reason is too short to audit (< 15
    /// chars) or merely restates a rule id.
    WeakReason,
    /// Meta: a `lint:allow` naming a rule that does not exist.
    UnknownRule,
}

impl Rule {
    /// The stable identifier used in diagnostics and suppressions.
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::HashIter => "hash-iter",
            Rule::RelaxedAtomic => "relaxed-atomic",
            Rule::FloatCmp => "float-cmp",
            Rule::NoPanic => "no-panic",
            Rule::StubHygiene => "stub-hygiene",
            Rule::DigestTaint => "digest-taint",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::AllowWithoutReason => "allow-without-reason",
            Rule::WeakReason => "weak-reason",
            Rule::UnknownRule => "unknown-rule",
        }
    }

    /// Every suppressible rule identifier (the meta rules cannot be
    /// suppressed — an allow cannot vouch for itself).
    pub fn suppressible() -> &'static [&'static str] {
        &[
            "wall-clock",
            "hash-iter",
            "relaxed-atomic",
            "float-cmp",
            "no-panic",
            "stub-hygiene",
            "digest-taint",
            "atomic-ordering",
        ]
    }
}

/// Where a file sits in the workspace, which decides which rules apply.
#[derive(Clone, Debug)]
pub struct FileScope {
    /// Workspace-relative path with `/` separators (e.g.
    /// `crates/obs/src/trace.rs`).
    pub rel: String,
    /// When true (explicit CLI file arguments, fixtures), every rule
    /// applies regardless of path.
    pub all_rules: bool,
}

impl FileScope {
    fn starts_with_any(&self, prefixes: &[&str]) -> bool {
        prefixes.iter().any(|p| self.rel.starts_with(p))
    }

    /// L1 exemptions: the profiler is *defined* to read wall-clock time,
    /// and the bench bins print the elapsed time of an experiment run.
    fn wall_clock_applies(&self) -> bool {
        if self.all_rules {
            return true;
        }
        self.rel != "crates/obs/src/profile.rs"
            && !self.rel.starts_with("crates/bench/src/bin/")
    }

    /// L2 scope: everything on the digest path. `obs` feeds the trace
    /// hash, metrics merge, and JSON export directly; the explorer and
    /// its metrics assemble the per-episode records those consume; the
    /// serving daemon's journal and state digests absorb every structure
    /// it iterates.
    fn hash_iter_applies(&self) -> bool {
        self.all_rules
            || self.starts_with_any(&[
                "crates/obs/src/",
                "crates/serve/src/",
                "crates/sim/src/explorer/",
            ])
            || self.rel == "crates/sim/src/fuzz.rs"
            || self.rel == "crates/sim/src/metrics.rs"
    }

    /// L3 scope: the crates holding cross-thread coordination atomics
    /// (the `par` claim counter / cancellation horizon, the profiler's
    /// enable flag).
    fn relaxed_applies(&self) -> bool {
        self.all_rules || self.starts_with_any(&["crates/par/src/", "crates/obs/src/"])
    }

    /// L9 scope: same coordination crates as L3. The pairing analysis is
    /// cross-file, so the caller passes this per-file flag into
    /// [`crate::atomics::check`] rather than gating the whole pass.
    pub(crate) fn atomic_ordering_applies(&self) -> bool {
        self.relaxed_applies()
    }

    /// L4 float-equality scope: the Eq. 2–3 blame math, verdict-tail
    /// binomials, and tomography inference.
    fn float_eq_applies(&self) -> bool {
        self.all_rules
            || self.starts_with_any(&["crates/tomography/src/"])
            || self.rel == "crates/core/src/blame.rs"
            || self.rel == "crates/core/src/verdict.rs"
    }

    /// L5 scope: the crates PR 1 de-panicked, plus the serving daemon —
    /// a crash there is a supervision incident, so every intentional
    /// panic must carry a justification.
    fn no_panic_applies(&self) -> bool {
        self.all_rules
            || self.starts_with_any(&[
                "crates/core/src/",
                "crates/tomography/src/",
                "crates/crypto/src/",
                "crates/overlay/src/",
                "crates/serve/src/",
            ])
    }
}

/// Runs every applicable rule over `toks`, returning raw (pre-suppression)
/// findings.
pub fn run_rules(scope: &FileScope, toks: &[Tok]) -> Vec<Finding> {
    let mut out = Vec::new();
    if scope.wall_clock_applies() {
        wall_clock(toks, &mut out);
    }
    if scope.hash_iter_applies() {
        hash_iter(toks, &mut out);
    }
    if scope.relaxed_applies() {
        relaxed_atomic(toks, &mut out);
    }
    partial_cmp_unwrap(toks, &mut out);
    if scope.float_eq_applies() {
        float_eq(toks, &mut out);
    }
    if scope.no_panic_applies() {
        no_panic(toks, &mut out);
    }
    stub_hygiene(toks, &mut out);
    out
}

fn push(out: &mut Vec<Finding>, rule: Rule, tok: &Tok, message: String) {
    out.push(Finding { rule, line: tok.line, message, file: String::new() });
}

/// L1: `Instant::now()`, any `SystemTime`, any `UNIX_EPOCH`.
fn wall_clock(toks: &[Tok], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("Instant")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            push(out, Rule::WallClock, t, "wall-clock read `Instant::now()`; virtual time (`SimTime`) is the only clock allowed on the determinism path — profile spans belong in `obs::profile`".into());
        }
        if t.is_ident("SystemTime") || t.is_ident("UNIX_EPOCH") {
            push(out, Rule::WallClock, t, format!("wall-clock type `{}`; nothing on the determinism path may observe real time", t.text));
        }
    }
}

/// L2: any `HashMap`/`HashSet` in a digest-feeding module.
fn hash_iter(toks: &[Tok], out: &mut Vec<Finding>) {
    for t in toks {
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            push(out, Rule::HashIter, t, format!("`{}` in a digest-feeding module: iteration order is randomized per process and would leak into trace hashes; use `BTreeMap`/`BTreeSet` or sort before iterating", t.text));
        }
    }
}

/// L3: the identifier `Relaxed` (as `Ordering::Relaxed` or imported).
fn relaxed_atomic(toks: &[Tok], out: &mut Vec<Finding>) {
    for t in toks {
        if t.is_ident("Relaxed") {
            push(out, Rule::RelaxedAtomic, t, "`Ordering::Relaxed` on a coordination atomic: justify with `// lint:allow(relaxed-atomic, reason = …)` or use an acquire/release ordering".into());
        }
    }
}

/// L4a (global): `partial_cmp(…)` whose call result is immediately
/// `.unwrap()`ed or `.expect()`ed.
fn partial_cmp_unwrap(toks: &[Tok], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("partial_cmp") || !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        // Find the matching close paren of the call.
        let mut depth = 0isize;
        let mut j = i + 1;
        while j < toks.len() {
            if toks[j].is_punct('(') {
                depth += 1;
            } else if toks[j].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        if toks.get(j + 1).is_some_and(|t| t.is_punct('.'))
            && toks.get(j + 2).is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
        {
            push(out, Rule::FloatCmp, t, "`partial_cmp(…).unwrap()` panics on NaN and hides a total-order bug; use `total_cmp`".into());
        }
    }
}

/// L4b (scoped, non-test): `==`/`!=` against a float literal.
fn float_eq(toks: &[Tok], out: &mut Vec<Finding>) {
    let float_at = |k: usize| -> bool {
        match toks.get(k) {
            Some(t) if t.kind == TokKind::Float => true,
            // Allow one unary minus before the literal.
            Some(t) if t.is_punct('-') => {
                toks.get(k + 1).is_some_and(|t| t.kind == TokKind::Float)
            }
            _ => false,
        }
    };
    for i in 0..toks.len() {
        if toks[i].test_scope {
            continue;
        }
        let eq = toks[i].is_punct('=')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('='))
            && !(i > 0 && toks[i - 1].is_punct('='));
        let ne = toks[i].is_punct('!') && toks.get(i + 1).is_some_and(|t| t.is_punct('='));
        if !(eq || ne) {
            continue;
        }
        // `a == 1.0` or `1.0 == a` (also `!=`, also `== -1.0`).
        let rhs_float = float_at(i + 2);
        let lhs_float = i > 0 && toks[i - 1].kind == TokKind::Float;
        if rhs_float || lhs_float {
            push(out, Rule::FloatCmp, &toks[i], "exact float comparison in diagnosis math; compare within a tolerance or justify the exact-value guard with `lint:allow(float-cmp, reason = …)`".into());
        }
    }
}

/// L5 (scoped, non-test): `.unwrap(` / `.expect(` / `panic!`.
fn no_panic(toks: &[Tok], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.test_scope {
            continue;
        }
        if t.is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
        {
            let name = &toks[i + 1].text;
            push(out, Rule::NoPanic, &toks[i + 1], format!("`.{name}()` in non-test library code of a de-panicked crate; return a `Result` or justify the invariant with `lint:allow(no-panic, reason = …)`"));
        }
        if t.is_ident("panic") && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            push(out, Rule::NoPanic, t, "`panic!` in non-test library code of a de-panicked crate; return a `Result` or justify the documented-panic API with `lint:allow(no-panic, reason = …)`".into());
        }
    }
}

/// L6 (global): `thread_rng` anywhere, `process::abort`.
fn stub_hygiene(toks: &[Tok], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("thread_rng") {
            push(out, Rule::StubHygiene, t, "`thread_rng` is OS-entropy seeded and unseedable; all randomness must flow from an explicit seed (see `concilium_par::derive_seed`)".into());
        }
        if t.is_ident("process")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("abort"))
        {
            push(out, Rule::StubHygiene, t, "`std::process::abort` skips destructors and poisons no locks; fail through `Result` or a normal panic so the DST harness can observe it".into());
        }
    }
}
