//! Wall-clock profiling hooks.
//!
//! Profiling is the one part of the observability layer that is
//! **explicitly outside the determinism contract**: span timings are real
//! elapsed time, vary run to run, and must never be folded into trace
//! hashes, metric registries that cross the digest boundary, or any other
//! reproducible artifact. They exist to answer "where did the seconds go",
//! nothing else — see DESIGN.md §12.
//!
//! The API is a guard: [`span("phase")`](span) returns a [`SpanGuard`]
//! that records elapsed time when dropped. When profiling is disabled
//! (the default) the guard is a no-op and the hot-path cost is one
//! acquire atomic load. Nested spans attribute time to both the inner
//! and outer phase's *total*, while *self* time subtracts the inner
//! spans, so a phase's own cost is visible separately from its callees'.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

static TOTALS: Mutex<BTreeMap<&'static str, PhaseTotals>> = Mutex::new(BTreeMap::new());

/// Aggregated timings for one named phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTotals {
    /// Number of completed spans.
    pub calls: u64,
    /// Wall-clock nanoseconds from span open to close, children included.
    pub total_ns: u64,
    /// Wall-clock nanoseconds excluding time spent in nested spans.
    pub self_ns: u64,
}

thread_local! {
    // Per-thread stack of (child-time accumulated so far) for open spans,
    // used to compute self time without global coordination.
    static OPEN_SPANS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Turns profiling on or off process-wide. Off by default; flipping it on
/// only affects spans opened afterwards.
///
/// Release/Acquire on the flag: a thread that observes `true` must also
/// observe any setup the enabling thread performed before the flip (e.g.
/// a `reset_profile()` clearing stale totals). Relaxed would allow a span
/// to land in a registry snapshot taken before the reset.
pub fn set_profiling(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Whether profiling is currently enabled.
pub(crate) fn profiling_enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Clears all aggregated phase totals (e.g. between benchmark sections).
pub fn reset_profile() {
    TOTALS.lock().expect("profile totals poisoned").clear();
}

/// Opens a wall-clock span for `phase`. Timing stops when the returned
/// guard drops. A no-op (one atomic load) when profiling is disabled.
#[must_use = "the span measures until the guard is dropped"]
pub fn span(phase: &'static str) -> SpanGuard {
    if !profiling_enabled() {
        return SpanGuard { phase: None, started: None };
    }
    OPEN_SPANS.with(|s| s.borrow_mut().push(0));
    #[expect(
        clippy::disallowed_methods,
        reason = "span timing flows only into the profiler's phase totals, never into digest or trace bytes"
    )]
    let started = Some(Instant::now());
    SpanGuard { phase: Some(phase), started }
}

/// An open profiling span; records elapsed time for its phase on drop.
pub struct SpanGuard {
    phase: Option<&'static str>,
    started: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let (Some(phase), Some(started)) = (self.phase, self.started) else {
            return;
        };
        let elapsed_ns = started.elapsed().as_nanos() as u64;
        let child_ns = OPEN_SPANS.with(|s| {
            let mut stack = s.borrow_mut();
            let child_ns = stack.pop().unwrap_or(0);
            // Attribute this span's whole duration to the parent's child
            // time, so the parent's self time excludes it.
            if let Some(parent) = stack.last_mut() {
                *parent += elapsed_ns;
            }
            child_ns
        });
        let mut totals = TOTALS.lock().expect("profile totals poisoned");
        let entry = totals.entry(phase).or_default();
        entry.calls += 1;
        entry.total_ns += elapsed_ns;
        entry.self_ns += elapsed_ns.saturating_sub(child_ns);
    }
}

/// A snapshot of all phase totals, sorted by phase name.
pub fn profile_snapshot() -> Vec<(&'static str, PhaseTotals)> {
    TOTALS
        .lock()
        .expect("profile totals poisoned")
        .iter()
        .map(|(k, v)| (*k, *v))
        .collect()
}

/// Renders the current phase totals as a pretty-printed JSON report
/// (what `experiments --profile` writes). Times are in milliseconds.
pub fn profile_report_json() -> String {
    let snapshot = profile_snapshot();
    let mut out = String::from("{\n  \"phases\": {\n");
    for (i, (phase, t)) in snapshot.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "    \"{phase}\": {{\"calls\": {}, \"total_ms\": {:.3}, \"self_ms\": {:.3}}}",
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    out.push_str("\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    // The profiler is process-global state; serialize tests that touch it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset_profile();
        set_profiling(true);
        guard
    }

    fn spin_for(ns: u64) {
        #[expect(
            clippy::disallowed_methods,
            reason = "the test needs real elapsed time so spans record a nonzero duration"
        )]
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = exclusive();
        set_profiling(false);
        {
            let _s = span("idle");
        }
        assert!(profile_snapshot().is_empty());
        set_profiling(true);
    }

    #[test]
    fn nested_spans_split_self_and_total() {
        let _guard = exclusive();
        {
            let _outer = span("outer");
            spin_for(200_000);
            {
                let _inner = span("inner");
                spin_for(200_000);
            }
        }
        let snapshot = profile_snapshot();
        let get = |name| {
            snapshot
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, t)| *t)
                .expect("phase recorded")
        };
        let outer = get("outer");
        let inner = get("inner");
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        assert!(outer.total_ns >= inner.total_ns, "outer total covers inner");
        assert!(
            outer.self_ns <= outer.total_ns - inner.total_ns + 1,
            "outer self excludes inner: self={} total={} inner={}",
            outer.self_ns,
            outer.total_ns,
            inner.total_ns
        );
        set_profiling(false);
    }

    #[test]
    fn report_is_valid_json_with_sorted_phases() {
        let _guard = exclusive();
        for phase in ["zeta", "alpha"] {
            let _s = span(phase);
        }
        let report = profile_report_json();
        let parsed = crate::json::parse(&report).expect("report must parse");
        let phases = parsed.get("phases").and_then(crate::json::Json::as_obj).unwrap();
        let keys: Vec<&str> = phases.keys().map(String::as_str).collect();
        assert_eq!(keys, vec!["alpha", "zeta"]);
        assert_eq!(
            phases["alpha"].get("calls").and_then(crate::json::Json::as_num),
            Some(1.0)
        );
        set_profiling(false);
    }
}
