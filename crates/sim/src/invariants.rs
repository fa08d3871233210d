//! Whole-system invariants for deterministic simulation testing (DST).
//!
//! The [`crate::explorer`] runs full diagnose–accuse–revise episodes under
//! seeded [`crate::FaultPlan`]s and evaluates these invariants after every
//! event. Each invariant is a property the Concilium protocol must uphold
//! regardless of which network faults the plan injects:
//!
//! * **No false blame** — an accusation chain never leaves an honest,
//!   un-crashed host as the standing culprit when only the network (or a
//!   blameworthy adversary elsewhere) misbehaved.
//! * **Blame oracle agreement** — the production fuzzy-logic combinator
//!   (Eqs. 2–3 of the paper) matches a direct, independently written
//!   re-evaluation on every judgment, and stays inside `[0, 1]`.
//! * **Verdict bookkeeping** — the sliding verdict window's cached guilty
//!   count always equals a recount of its contents.
//! * **Retry conservation** — every registered message is settled,
//!   expired, or still pending: none is lost, none is counted twice.
//! * **Chain integrity** — accusation/revision chains stored in the DHT
//!   remain signature-valid and walk strictly downstream along the route.
//! * **DHT durability** — a write acknowledged at quorum is fetchable and
//!   verifies afterwards.
//! * **Tomography sanity** — inferred pass rates stay inside `[0, 1]`,
//!   tolerant inference agrees with strict inference on fully-known
//!   records, and both agree with the closed-form oracle.
//! * **Identifiability bound** — localization never claims finer
//!   granularity than the probe matrix's ambiguity classes allow (the
//!   Boolean-tomography identifiability limit).
//!
//! This module holds the invariant vocabulary ([`InvariantKind`],
//! [`Violation`]), the direct-evaluation oracles the checks compare
//! against, and the chained trace hasher used to prove replay determinism.

use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

use concilium::blame::LinkEvidence;
use concilium::verdict::VerdictWindow;
use concilium_crypto::{sha256, Digest, Sha256};
use concilium_obs::EntityRef;
use concilium_tomography::infer::infer_pass_rates_batch;
use concilium_tomography::oracle::oracle_pass_rates;
use concilium_tomography::probe::simulate_stripes;
use concilium_tomography::{
    infer_pass_rates_tolerant_batch, AmbiguityClasses, InferScratch, PartialProbeRecord,
};
use concilium_types::{LinkId, SimTime};

use crate::SimWorld;

/// Separates the tomography cross-check's stripe stream from the episode
/// streams drawn from the same seed.
const TOMO_SALT: u64 = 0x517c_c1b7_2722_0a95;

/// The invariant classes a DST episode can violate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InvariantKind {
    /// An honest, un-crashed host ended an accusation chain as culprit.
    FalseAccusation,
    /// The production blame combinator disagreed with the direct oracle.
    BlameOracle,
    /// A computed blame value escaped `[0, 1]`.
    BlameRange,
    /// A verdict window's cached guilty count disagreed with a recount.
    VerdictBookkeeping,
    /// A steward lost or double-counted a registered message.
    RetryConservation,
    /// A stored accusation chain failed verification or walked upstream.
    ChainIntegrity,
    /// A quorum-acknowledged DHT write was not durably fetchable.
    DhtDurability,
    /// Tolerant tomography reported a pass rate outside `[0, 1]`.
    TomographyRange,
    /// Tolerant, strict, and oracle inference disagreed on a fully-known
    /// record.
    TomographyDisagreement,
    /// A per-episode metric total disagreed with the episode's own
    /// bookkeeping: the tracer and the protocol logic counted different
    /// worlds.
    MetricsConservation,
    /// A crash/recover run of the serving daemon diverged from the
    /// uninterrupted run: journal digest or recovered state mismatch.
    RecoveryDivergence,
    /// The daemon's admission ledger leaked a report: offered reports no
    /// longer equal completed + shed + in-flight + queued.
    ServeConservation,
    /// Inference claimed finer localization than the probe/route matrix
    /// identifies: blame landed on a proper subset of an ambiguity class,
    /// or the class partition diverged from the logical-tree prediction.
    IdentifiabilityBound,
    /// A terminal outcome event (verdict, shed, expiry, stored accusation)
    /// was not causally reachable from its originating send/admit — the
    /// causal-reachability invariant of the flight recorder.
    CausalOrphan,
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            InvariantKind::FalseAccusation => "false-accusation",
            InvariantKind::BlameOracle => "blame-oracle-mismatch",
            InvariantKind::BlameRange => "blame-out-of-range",
            InvariantKind::VerdictBookkeeping => "verdict-bookkeeping",
            InvariantKind::RetryConservation => "retry-conservation",
            InvariantKind::ChainIntegrity => "chain-integrity",
            InvariantKind::DhtDurability => "dht-durability",
            InvariantKind::TomographyRange => "tomography-range",
            InvariantKind::TomographyDisagreement => "tomography-disagreement",
            InvariantKind::MetricsConservation => "metrics-conservation",
            InvariantKind::RecoveryDivergence => "recovery-divergence",
            InvariantKind::ServeConservation => "serve-conservation",
            InvariantKind::IdentifiabilityBound => "identifiability-bound",
            InvariantKind::CausalOrphan => "causal-orphan",
        };
        f.write_str(name)
    }
}

/// A concrete invariant violation observed during an episode.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: InvariantKind,
    /// Virtual time of the violating event.
    pub at: SimTime,
    /// Human-readable description with the offending values.
    pub detail: String,
    /// The entity the violation is about, when one is identifiable —
    /// the correlation key the failing-case reproducer explains.
    pub entity: Option<EntityRef>,
}

impl Violation {
    /// A violation of `kind` at `at`, about `entity`.
    pub(crate) fn new(kind: InvariantKind, at: SimTime, entity: EntityRef, detail: String) -> Self {
        Violation { kind, at, detail, entity: Some(entity) }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] at {}: {}", self.kind, self.at, self.detail)?;
        if let Some(entity) = &self.entity {
            write!(f, " (entity {entity})")?;
        }
        Ok(())
    }
}

/// Direct re-evaluation of the paper's Eqs. 2–3, written independently of
/// [`concilium::blame::blame_from_path_evidence`].
///
/// Eq. 2: a link's badness is the arithmetic mean of its observations,
/// scoring `1 − accuracy` for "up" and `accuracy` for "down". Eq. 3: the
/// path's fuzzy disjunction is the maximum badness over links with any
/// evidence, and blame is its complement. With no evidence at all the
/// accused gets full blame (the §3.5 silence convention).
pub(crate) fn naive_blame(evidence: &[LinkEvidence], accuracy: f64) -> f64 {
    let mut max_badness: Option<f64> = None;
    for link in evidence {
        if link.observations.is_empty() {
            continue;
        }
        let mut sum = 0.0;
        for &up in &link.observations {
            sum += if up { 1.0 - accuracy } else { accuracy };
        }
        let badness = sum / link.observations.len() as f64;
        max_badness = Some(match max_badness {
            Some(m) if m >= badness => m,
            _ => badness,
        });
    }
    match max_badness {
        Some(m) => 1.0 - m,
        None => 1.0,
    }
}

/// Checks a blame value produced by the system under test against the
/// range invariant and (when `oracle` is set) the direct oracle.
pub(crate) fn check_blame(
    evidence: &[LinkEvidence],
    accuracy: f64,
    produced: f64,
    oracle: bool,
    at: SimTime,
) -> Option<Violation> {
    if !(0.0..=1.0).contains(&produced) {
        return Some(Violation {
            kind: InvariantKind::BlameRange,
            at,
            entity: None,
            detail: format!("blame {produced} outside [0, 1]"),
        });
    }
    if oracle {
        let expected = naive_blame(evidence, accuracy);
        if (produced - expected).abs() > 1e-9 {
            return Some(Violation {
                kind: InvariantKind::BlameOracle,
                at,
                entity: None,
                detail: format!(
                    "combinator returned {produced}, direct Eq. 2–3 evaluation gives \
                     {expected} over {} links",
                    evidence.len()
                ),
            });
        }
    }
    None
}

/// Recounts a verdict window and compares against its cached tallies.
pub(crate) fn check_window(window: &VerdictWindow, at: SimTime) -> Option<Violation> {
    let recounted_guilty = window.verdicts().filter(|v| v.is_guilty()).count();
    let recounted_len = window.verdicts().count();
    if recounted_guilty != window.guilty_count() || recounted_len != window.len() {
        return Some(Violation {
            kind: InvariantKind::VerdictBookkeeping,
            at,
            entity: None,
            detail: format!(
                "window reports {} guilty of {}, recount finds {} of {}",
                window.guilty_count(),
                window.len(),
                recounted_guilty,
                recounted_len
            ),
        });
    }
    None
}

/// Checks the message-conservation ledger: everything a steward registered
/// must be settled, expired, or still pending — exactly once.
pub(crate) fn check_conservation(
    sent: usize,
    settled: usize,
    expired: usize,
    pending: usize,
    at: SimTime,
) -> Option<Violation> {
    if settled + expired + pending != sent {
        return Some(Violation {
            kind: InvariantKind::RetryConservation,
            at,
            entity: None,
            detail: format!(
                "{sent} registered but {settled} settled + {expired} expired + \
                 {pending} pending = {}",
                settled + expired + pending
            ),
        });
    }
    None
}

/// End-of-episode tomography cross-check, a function of `(world, seed)`
/// alone: simulate `stripes` fresh stripes on a couple of hosts' trees
/// against the world's ground-truth link state, then require tolerant
/// inference to stay in range, agree with strict inference on the
/// fully-known record, match the closed-form oracle, and localize no finer
/// than the probe matrix's ambiguity classes.
pub(crate) fn check_tomography(
    world: &SimWorld,
    seed: u64,
    stripes: usize,
) -> Result<(), Violation> {
    let mut trng = StdRng::seed_from_u64(seed ^ TOMO_SALT);
    let n = world.num_hosts();
    let t_mid = SimTime::from_micros(world.config().duration.as_micros() / 2);
    let mut hosts = vec![0];
    if n > 1 {
        hosts.push(n / 2);
    }
    hosts.dedup();
    let mut scratch = InferScratch::default();
    for h in hosts {
        let violated = |kind: InvariantKind, detail: String| {
            Violation::new(kind, t_mid, EntityRef::host(h as u64), format!("host {h}: {detail}"))
        };
        let disagree = |detail: String| violated(InvariantKind::TomographyDisagreement, detail);
        let tree = world.tree(h);
        let logical = tree.logical();
        if logical.num_leaves() < 2 {
            continue;
        }
        // Identifiability bound: the ambiguity classes the probe/route
        // matrix admits must coincide with the logical-tree edges the
        // inference assigns rates to. A mismatch means the estimator
        // claims per-edge localization the matrix cannot support.
        let classes = AmbiguityClasses::from_probe_tree(tree);
        if !classes.matches_logical(&logical) {
            return Err(violated(
                InvariantKind::IdentifiabilityBound,
                format!(
                    "inference units diverge from the probe matrix's {} ambiguity classes",
                    classes.num_classes()
                ),
            ));
        }
        let pass = |l: LinkId| if world.link_up_at(l, t_mid) { 0.95 } else { 0.05 };
        let record = simulate_stripes(&logical, &pass, stripes, &mut trng);
        // Batched entry points, reusing `scratch` across the episode's
        // checks, so the DST inner loop exercises the same kernel the
        // verdict-window experiments run.
        let full = infer_pass_rates_batch(&logical, std::slice::from_ref(&record), &mut scratch)
            .remove(0);
        let partial = PartialProbeRecord::from_complete(&record);
        let tolerant =
            infer_pass_rates_tolerant_batch(&logical, std::slice::from_ref(&partial), &mut scratch)
                .remove(0);
        let (strict, tol) = match (full, tolerant) {
            (Ok(strict), Ok(tol)) => (strict, tol),
            (Err(_), Err(_)) => continue,
            (Ok(_), Err(err)) => {
                return Err(disagree(format!(
                    "tolerant inference refused a fully-known record strict inference \
                     accepted: {err:?}"
                )))
            }
            (Err(err), Ok(_)) => {
                return Err(disagree(format!(
                    "strict inference refused a record tolerant inference accepted: {err:?}"
                )))
            }
        };
        for edge in 0..logical.num_edges() {
            let rate = tol.edge_pass_rate(edge);
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(violated(
                    InvariantKind::TomographyRange,
                    format!("tolerant pass rate {rate} on edge {edge}"),
                ));
            }
            let diff = (rate - strict.edge_pass_rate(edge)).abs();
            if diff > 1e-9 {
                return Err(disagree(format!(
                    "tolerant and strict inference differ by {diff} on edge {edge} of a \
                     fully-known record"
                )));
            }
        }
        // Any edge inferred *down* is a localization claim; it is sound
        // only at whole-ambiguity-class granularity — never a proper
        // subset of links the matrix cannot tell apart.
        for edge in 0..logical.num_edges() {
            if tol.edge_pass_rate(edge) < 0.5 && !classes.is_whole_class(logical.edge_links(edge))
            {
                return Err(violated(
                    InvariantKind::IdentifiabilityBound,
                    format!(
                        "edge {edge} blamed down but its link set is a proper subset of an \
                         ambiguity class"
                    ),
                ));
            }
        }
        let oracle = oracle_pass_rates(&logical, &record).map_err(|err| {
            disagree(format!("oracle refused a record the MLE accepted: {err:?}"))
        })?;
        for node in 1..logical.num_nodes() {
            let diff = (strict.cumulative(node) - oracle.cumulative[node]).abs();
            if diff > 1e-6 {
                return Err(disagree(format!(
                    "MLE and closed-form oracle differ by {diff} at node {node}"
                )));
            }
        }
    }
    Ok(())
}

/// Checks that event-derived metric counters agree with independently
/// maintained oracle counts.
///
/// The explorer counts protocol steps twice: once in its own bookkeeping
/// ([`crate::EpisodeStats`], incremented by the protocol logic) and once in
/// the metrics registry (incremented as each typed trace event is
/// emitted). `expected` pairs each registry key with the bookkeeping
/// value; any disagreement means an event was emitted without the step
/// happening, or a step happened without its event — either way the trace
/// is lying about the run.
pub(crate) fn check_metrics_conservation(
    metrics: &concilium_obs::Registry,
    expected: &[(&str, u64)],
    at: SimTime,
) -> Option<Violation> {
    for &(key, want) in expected {
        let got = metrics.counter(key);
        if got != want {
            return Some(Violation {
                kind: InvariantKind::MetricsConservation,
                at,
                entity: None,
                detail: format!(
                    "metric `{key}` counted {got} events but the episode's own \
                     bookkeeping says {want}"
                ),
            });
        }
    }
    None
}

/// Checks the serving daemon's admission ledger: every offered report is
/// admitted or shed, and every admitted report is completed, still
/// queued, or in flight — exactly once. The service-mode extension of
/// the conservation family ("admitted = completed + shed + in-flight",
/// with shedding broken out of the admitted count at the offer stage).
pub fn check_serve_conservation(
    offered: u64,
    admitted: u64,
    shed: u64,
    completed: u64,
    queued: u64,
    in_flight: u64,
    at: SimTime,
) -> Option<Violation> {
    if admitted + shed != offered {
        return Some(Violation {
            kind: InvariantKind::ServeConservation,
            at,
            entity: None,
            detail: format!(
                "{offered} offered but {admitted} admitted + {shed} shed = {}",
                admitted + shed
            ),
        });
    }
    if completed + queued + in_flight != admitted {
        return Some(Violation {
            kind: InvariantKind::ServeConservation,
            at,
            entity: None,
            detail: format!(
                "{admitted} admitted but {completed} completed + {queued} queued + \
                 {in_flight} in flight = {}",
                completed + queued + in_flight
            ),
        });
    }
    None
}

/// A chained hash over an episode's event trace.
///
/// After every popped event the explorer feeds the event's encoding into
/// the hasher; the final digest fingerprints the entire run. Two episodes
/// with the same world, seed, and configuration must produce bit-identical
/// digests — the replay-determinism invariant checked by the acceptance
/// suite and the CI sweep.
#[derive(Clone, Debug)]
pub struct TraceHasher {
    state: Digest,
}

impl TraceHasher {
    /// Starts a fresh trace with a fixed domain-separation tag.
    pub fn new() -> Self {
        TraceHasher { state: sha256(b"concilium-dst-trace-v1") }
    }

    /// Absorbs one event: a short label plus its numeric fields.
    pub fn record(&mut self, label: &str, fields: &[u64]) {
        // The hashed byte sequence is exactly `state ‖ len ‖ label ‖ fields`
        // (little-endian lengths/fields). This runs once per popped event,
        // making it the hottest hash in the DST, so the message is
        // assembled in a stack buffer and absorbed in one call — one
        // `update` instead of eight tiny ones — whenever it fits. The
        // fallback streams piecewise; both paths feed the hasher the same
        // bytes, so the digest is identical either way.
        let mut buf = [0u8; 256];
        let need = 40 + label.len() + 8 * fields.len();
        if need <= buf.len() {
            buf[..32].copy_from_slice(&self.state.0);
            buf[32..40].copy_from_slice(&(label.len() as u64).to_le_bytes());
            let mut n = 40;
            buf[n..n + label.len()].copy_from_slice(label.as_bytes());
            n += label.len();
            for f in fields {
                buf[n..n + 8].copy_from_slice(&f.to_le_bytes());
                n += 8;
            }
            self.state = sha256(&buf[..n]);
        } else {
            let mut h = Sha256::new();
            h.update(&self.state.0);
            h.update(&(label.len() as u64).to_le_bytes());
            h.update(label.as_bytes());
            for f in fields {
                h.update(&f.to_le_bytes());
            }
            self.state = h.finalize();
        }
    }

    /// The current digest as lowercase hex.
    pub fn hex(&self) -> String {
        self.state.to_hex()
    }
}

impl Default for TraceHasher {
    fn default() -> Self {
        TraceHasher::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concilium::blame::blame_from_path_evidence;
    use concilium::verdict::{binomial_tail_at_least, Verdict};
    use concilium_types::LinkId;

    fn ev(parts: &[(u32, &[bool])]) -> Vec<LinkEvidence> {
        parts
            .iter()
            .map(|&(l, obs)| LinkEvidence { link: LinkId(l), observations: obs.to_vec() })
            .collect()
    }

    /// Direct evaluation of `P[X ≥ m]` for `X ~ Binomial(w, p)`, written
    /// independently of [`concilium::verdict::binomial_tail_at_least`] as a
    /// cross-check oracle for the verdict window's m-of-w test.
    ///
    /// Uses the multiplicative term recurrence
    /// `T(k+1) = T(k) · (w−k)/(k+1) · p/(1−p)` starting from
    /// `T(0) = (1−p)^w`, summing the terms with `k ≥ m`.
    fn oracle_binomial_tail_at_least(w: usize, m: usize, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        if m == 0 {
            return 1.0;
        }
        if m > w {
            return 0.0;
        }
        if p <= 0.0 {
            return 0.0;
        }
        if p >= 1.0 {
            return 1.0;
        }
        let ratio = p / (1.0 - p);
        let mut term = (1.0 - p).powi(w as i32);
        let mut tail = 0.0;
        for k in 0..=w {
            if k >= m {
                tail += term;
            }
            if k < w {
                term *= (w - k) as f64 / (k + 1) as f64 * ratio;
            }
        }
        tail.min(1.0)
    }

    #[test]
    fn naive_blame_matches_production_combinator() {
        let cases: Vec<Vec<LinkEvidence>> = vec![
            ev(&[(0, &[true, true, false]), (1, &[false, false])]),
            ev(&[(0, &[true; 8])]),
            ev(&[(0, &[false; 5]), (1, &[true]), (2, &[])]),
            ev(&[(0, &[]), (1, &[])]),
            ev(&[]),
            ev(&[(3, &[true, false, true, false, true])]),
        ];
        for accuracy in [0.6, 0.75, 0.9, 0.99] {
            for case in &cases {
                let oracle = naive_blame(case, accuracy);
                let production = blame_from_path_evidence(case, accuracy);
                assert!(
                    (oracle - production).abs() < 1e-12,
                    "accuracy {accuracy}: oracle {oracle} vs production {production}"
                );
            }
        }
    }

    #[test]
    fn naive_blame_no_evidence_is_full_blame() {
        assert_eq!(naive_blame(&[], 0.9), 1.0);
        assert_eq!(naive_blame(&ev(&[(0, &[]), (1, &[])]), 0.9), 1.0);
    }

    #[test]
    fn check_blame_flags_mutant_and_range() {
        let evidence = ev(&[(0, &[false, false, false])]);
        let t = SimTime::from_secs(5);
        // Production value passes.
        let good = blame_from_path_evidence(&evidence, 0.9);
        assert!(check_blame(&evidence, 0.9, good, true, t).is_none());
        // A broken combinator that always returns 1.0 is caught.
        let v = check_blame(&evidence, 0.9, 1.0, true, t).expect("mutant must be flagged");
        assert_eq!(v.kind, InvariantKind::BlameOracle);
        // Out-of-range values are caught even with the oracle disabled.
        let v = check_blame(&evidence, 0.9, 1.5, false, t).expect("range must be checked");
        assert_eq!(v.kind, InvariantKind::BlameRange);
    }

    #[test]
    fn binomial_oracle_matches_production() {
        for &w in &[1usize, 10, 50, 100] {
            for m in 0..=w {
                for &p in &[0.0, 0.018, 0.1, 0.5, 0.938, 1.0] {
                    let oracle = oracle_binomial_tail_at_least(w, m, p);
                    let production = binomial_tail_at_least(w, m, p);
                    assert!(
                        (oracle - production).abs() < 1e-9,
                        "w={w} m={m} p={p}: oracle {oracle} vs production {production}"
                    );
                }
            }
        }
    }

    #[test]
    fn window_recount_accepts_consistent_window() {
        let mut w = VerdictWindow::new(10);
        for i in 0..25 {
            w.push(if i % 3 == 0 { Verdict::Guilty } else { Verdict::Innocent });
            assert!(check_window(&w, SimTime::ZERO).is_none());
        }
    }

    #[test]
    fn conservation_catches_loss_and_double_count() {
        let t = SimTime::ZERO;
        assert!(check_conservation(10, 4, 3, 3, t).is_none());
        let lost = check_conservation(10, 4, 3, 2, t).expect("lost message");
        assert_eq!(lost.kind, InvariantKind::RetryConservation);
        let doubled = check_conservation(10, 5, 3, 3, t).expect("double count");
        assert_eq!(doubled.kind, InvariantKind::RetryConservation);
    }

    #[test]
    fn metrics_conservation_flags_disagreement() {
        let mut r = concilium_obs::Registry::new();
        r.inc("episode.sent", 5);
        r.inc("episode.expired", 2);
        let t = SimTime::from_secs(9);
        assert!(check_metrics_conservation(
            &r,
            &[("episode.sent", 5), ("episode.expired", 2)],
            t
        )
        .is_none());
        let v = check_metrics_conservation(&r, &[("episode.sent", 6)], t)
            .expect("mismatch must be flagged");
        assert_eq!(v.kind, InvariantKind::MetricsConservation);
        assert!(v.detail.contains("episode.sent"));
        // A missing counter reads as zero and is compared like any other.
        let v = check_metrics_conservation(&r, &[("episode.judged", 1)], t)
            .expect("absent counter vs nonzero oracle must be flagged");
        assert_eq!(v.kind, InvariantKind::MetricsConservation);
    }

    #[test]
    fn serve_conservation_catches_leaks_at_both_stages() {
        let t = SimTime::from_secs(3);
        assert!(check_serve_conservation(10, 8, 2, 5, 2, 1, t).is_none());
        // A report offered but neither admitted nor shed: silent drop.
        let v = check_serve_conservation(10, 7, 2, 5, 1, 1, t).expect("offer leak");
        assert_eq!(v.kind, InvariantKind::ServeConservation);
        assert!(v.detail.contains("offered"));
        // An admitted report that vanished from the pipeline.
        let v = check_serve_conservation(10, 8, 2, 5, 1, 1, t).expect("admit leak");
        assert_eq!(v.kind, InvariantKind::ServeConservation);
        assert!(v.detail.contains("admitted"));
    }

    #[test]
    fn trace_hasher_is_deterministic_and_order_sensitive() {
        let run = |events: &[(&str, u64)]| {
            let mut h = TraceHasher::new();
            for &(label, x) in events {
                h.record(label, &[x]);
            }
            h.hex()
        };
        let a = run(&[("send", 1), ("ack", 1), ("send", 2)]);
        let b = run(&[("send", 1), ("ack", 1), ("send", 2)]);
        let c = run(&[("send", 1), ("send", 2), ("ack", 1)]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(run(&[("send", 1)]), run(&[("send", 2)]));
    }

    /// The chained form itself, held apart from any sweep digest: the hex
    /// was computed outside this workspace (Python's `hashlib`) over
    /// `state ‖ len ‖ label ‖ fields`. The last record is wider than the
    /// 256-byte stack buffer, so the streaming fallback is pinned too.
    #[test]
    fn trace_hasher_golden() {
        let wide: Vec<u64> = (0..30).collect();
        let mut h = TraceHasher::new();
        h.record("send", &[1, 2, 3]);
        h.record("ack", &[]);
        h.record("verdict", &[u64::MAX, 7]);
        h.record("wide", &wide);
        assert_eq!(h.hex(), "9627dafc350786ff0528ee757f32300462f8178e9631a5d183a3a575ddbad1ca");
    }
}
