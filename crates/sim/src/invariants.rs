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
//! against, and the per-kind trace fingerprint used to prove replay
//! determinism.

use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

use concilium::blame::LinkEvidence;
use concilium::verdict::VerdictWindow;
use concilium_crypto::Sha256;
use concilium_obs::event::KINDS;
use concilium_obs::EntityRef;
use concilium_tomography::infer::infer_pass_rates_batch;
use concilium_tomography::oracle::oracle_pass_rates;
use concilium_tomography::probe::simulate_stripes;
use concilium_tomography::{
    infer_pass_rates_tolerant_batch, AmbiguityClasses, InferScratch, LogicalTree,
    PartialProbeRecord,
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

/// One host's tree as the tomography check reads it: everything that
/// depends on the world alone, so [`SimWorld::checked_trees`] builds it
/// once per world rather than once per episode.
#[derive(Debug)]
pub(crate) struct CheckedTree {
    host: usize,
    logical: LogicalTree,
    classes: AmbiguityClasses,
    /// Whether the probe matrix's ambiguity classes coincide with the
    /// logical-tree edges inference assigns rates to.
    matches: bool,
}

impl CheckedTree {
    /// Hosts 0 and n/2, skipping any whose tree has fewer than two
    /// leaves (nothing to infer).
    pub(crate) fn for_world(world: &SimWorld) -> Vec<CheckedTree> {
        let n = world.num_hosts();
        let mut hosts = vec![0];
        if n > 1 {
            hosts.push(n / 2);
        }
        hosts.dedup();
        let mut checked = Vec::new();
        for host in hosts {
            let tree = world.tree(host);
            let logical = tree.logical();
            if logical.num_leaves() < 2 {
                continue;
            }
            let classes = AmbiguityClasses::from_probe_tree(tree);
            let matches = classes.matches_logical(&logical);
            checked.push(CheckedTree { host, logical, classes, matches });
        }
        checked
    }
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
    let t_mid = SimTime::from_micros(world.config().duration.as_micros() / 2);
    let mut scratch = InferScratch::default();
    for CheckedTree { host: h, logical, classes, matches } in world.checked_trees() {
        let h = *h;
        let violated = |kind: InvariantKind, detail: String| {
            Violation::new(kind, t_mid, EntityRef::host(h as u64), format!("host {h}: {detail}"))
        };
        let disagree = |detail: String| violated(InvariantKind::TomographyDisagreement, detail);
        // Identifiability bound: the ambiguity classes the probe/route
        // matrix admits must coincide with the logical-tree edges the
        // inference assigns rates to. A mismatch means the estimator
        // claims per-edge localization the matrix cannot support.
        if !*matches {
            return Err(violated(
                InvariantKind::IdentifiabilityBound,
                format!(
                    "inference units diverge from the probe matrix's {} ambiguity classes",
                    classes.num_classes()
                ),
            ));
        }
        let pass = |l: LinkId| if world.link_up_at(l, t_mid) { 0.95 } else { 0.05 };
        let record = simulate_stripes(logical, &pass, stripes, &mut trng);
        // Batched entry points, reusing `scratch` across the episode's
        // checks, so the DST inner loop exercises the same kernel the
        // verdict-window experiments run.
        let full = infer_pass_rates_batch(logical, std::slice::from_ref(&record), &mut scratch)
            .remove(0);
        let partial = PartialProbeRecord::from_complete(&record);
        let tolerant =
            infer_pass_rates_tolerant_batch(logical, std::slice::from_ref(&partial), &mut scratch)
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
        let oracle = oracle_pass_rates(logical, &record).map_err(|err| {
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

/// The fold's multiplier: odd, so multiplying by it permutes `u128`.
const LANE_MUL: u128 = 0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645;
/// Every lane's starting state.
const LANE_IV: u128 = 0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835;
/// The lane of records whose label is not a [`KINDS`] row.
const OTHER: usize = KINDS.len();
/// The lane that folds every record's lane code: the interleaving.
const ORDER: usize = KINDS.len() + 1;
const LANES: usize = KINDS.len() + 2;

/// Bit n is set iff some [`KINDS`] label is n bytes long, so most labels
/// outside the table skip the scan.
const KIND_LENGTHS: u64 = {
    let mut mask = 0;
    let mut i = 0;
    while i < KINDS.len() {
        mask |= 1 << KINDS[i].0.len();
        i += 1;
    }
    mask
};

/// One lane of a [`TraceHasher`]: the records it absorbed and their fold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Fold {
    count: u64,
    state: u128,
}

impl Fold {
    const EMPTY: Fold = Fold { count: 0, state: LANE_IV };

    /// Absorbs `words` two to a step. A step xors the pair into the state
    /// (the first word low, the second high; an odd last word pairs with
    /// 0), multiplies it by an odd constant and xors its high half into
    /// its low. Each of the three permutes the state, so for any state two
    /// different words leave two different states, and equal suffixes
    /// keep them different.
    #[inline]
    fn absorb(&mut self, words: impl IntoIterator<Item = u64>) {
        let mut words = words.into_iter();
        while let Some(lo) = words.next() {
            let hi = words.next().unwrap_or(0);
            let s = (self.state ^ (u128::from(hi) << 64 | u128::from(lo))).wrapping_mul(LANE_MUL);
            self.state = s ^ (s >> 64);
        }
    }

    /// Absorbs one record: `words`, prefixed by their count.
    #[inline]
    fn record(&mut self, words: &[u64]) {
        self.count += 1;
        self.absorb(std::iter::once(words.len() as u64).chain(words.iter().copied()));
    }
}

/// One lane of a [`TraceHasher`], by name: a [`KINDS`] label or `order`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lane {
    /// The kind's label, or `order` for the interleaving lane.
    pub label: &'static str,
    /// Records absorbed (for `order`, records of every kind).
    pub count: u64,
    /// The lane's 128-bit fold.
    pub state: u128,
}

impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {:032x}", self.label, self.count, self.state)
    }
}

/// The replay fingerprint of an event trace, one 128-bit fold per kind.
///
/// Each [`KINDS`] row has a lane that absorbs its events' words in order
/// (timestamp first, prefixed by their count); a record under any other
/// label folds its label's bytes and its words into one shared lane; and
/// an `order` lane folds each record's lane code, so the interleaving is
/// certified too. A changed word moves exactly its own lane (each step
/// permutes the lane state), so the lanes say *which* kinds a digest move
/// touched. It is a fingerprint against accidents, not a signature: the
/// fold is not collision-resistant against an adversary. Two episodes
/// with the same world, seed and configuration give bit-identical lanes —
/// the replay-determinism invariant checked by the acceptance suite and
/// the CI sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceHasher {
    lanes: [Fold; LANES],
}

impl TraceHasher {
    /// A trace with no records.
    pub fn new() -> Self {
        TraceHasher { lanes: [Fold::EMPTY; LANES] }
    }

    /// Absorbs one record: a [`KINDS`] label goes to its kind's lane, any
    /// other label (with its bytes) to the shared one.
    pub fn record(&mut self, label: &str, fields: &[u64]) {
        let maybe_kind = label.len() < 64 && KIND_LENGTHS & (1 << label.len()) != 0;
        if maybe_kind {
            if let Some(kind) = KINDS.iter().position(|row| row.0 == label) {
                return self.record_kind(kind, fields);
            }
        }
        let label_words = label.as_bytes().chunks(8).map(|chunk| {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            u64::from_le_bytes(w)
        });
        let lane = &mut self.lanes[OTHER];
        lane.absorb(std::iter::once(label.len() as u64).chain(label_words));
        lane.record(fields);
        self.order(OTHER);
    }

    /// Absorbs one event of kind code `kind` (its [`KINDS`] row) with its
    /// words: the episode's path, which needs no label lookup.
    #[inline]
    pub(crate) fn record_kind(&mut self, kind: usize, words: &[u64]) {
        self.lanes[kind].record(words);
        self.order(kind);
    }

    #[inline]
    fn order(&mut self, lane: usize) {
        let order = &mut self.lanes[ORDER];
        order.count += 1;
        order.absorb([lane as u64]);
    }

    /// Folds `other`'s lanes into this one's, lane by lane: each lane
    /// adds `other`'s count and absorbs its (count, state) as three
    /// words. The sweep aggregate is its episodes folded in submission
    /// order.
    pub(crate) fn absorb(&mut self, other: &TraceHasher) {
        for (mine, &Fold { count, state }) in self.lanes.iter_mut().zip(&other.lanes) {
            mine.count += count;
            mine.absorb([count, state as u64, (state >> 64) as u64]);
        }
    }

    /// The [`KINDS`] lanes in kind-code order, then `order`.
    pub fn lanes(&self) -> impl Iterator<Item = Lane> + '_ {
        let labels = KINDS.iter().map(|row| row.0).chain(["order"]);
        let folds = self.lanes[..OTHER].iter().chain(&self.lanes[ORDER..]);
        labels.zip(folds).map(|(label, f)| Lane { label, count: f.count, state: f.state })
    }

    /// The digest as lowercase hex: one SHA-256 over the
    /// `concilium-dst-trace-v2` tag and each lane's (code, count, state)
    /// in little-endian, lanes in code order (the kinds, the shared lane,
    /// `order`).
    pub fn hex(&self) -> String {
        let mut h = Sha256::new();
        h.update(b"concilium-dst-trace-v2");
        for (code, lane) in self.lanes.iter().enumerate() {
            h.update(&(code as u64).to_le_bytes());
            h.update(&lane.count.to_le_bytes());
            h.update(&lane.state.to_le_bytes());
        }
        h.finalize().to_hex()
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
    use proptest::prelude::*;
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

    /// The fold itself, held apart from any sweep digest: the hex and the
    /// lanes were computed outside this workspace by this Python
    /// big-integer reimplementation (the last record's label is not a
    /// [`KINDS`] row, so the shared lane's label bytes are pinned too):
    ///
    /// ```text
    /// import hashlib
    /// MUL, IV, M = 0x2360ED051FC65DA44385DF649FCCF645, 0x9E3779B97F4A7C15F39CC0605CEDC835, 2**128
    /// KIND = {"send": 0, "ack": 4, "verdict": 9}  # KINDS rows; 24 = shared, 25 = order
    /// lanes = [[0, IV] for _ in range(26)]
    /// def absorb(lane, ws):
    ///     ws = ws + [0] * (len(ws) % 2)
    ///     for lo, hi in zip(ws[::2], ws[1::2]):
    ///         s = ((lane[1] ^ (hi << 64 | lo)) * MUL) % M
    ///         lane[1] = s ^ (s >> 64)
    /// def record(label, ws):
    ///     code = KIND.get(label, 24)
    ///     lane = lanes[code]
    ///     if code == 24:
    ///         b = label.encode()
    ///         absorb(lane, [len(b)] + [int.from_bytes(b[i:i + 8], "little") for i in range(0, len(b), 8)])
    ///     lane[0] += 1
    ///     absorb(lane, [len(ws)] + ws)
    ///     lanes[25][0] += 1
    ///     absorb(lanes[25], [code])
    /// record("send", [1, 2, 3]); record("ack", []); record("verdict", [2**64 - 1, 7])
    /// record("message-delivered", list(range(30)))
    /// tag = b"concilium-dst-trace-v2" + b"".join(
    ///     c.to_bytes(8, "little") + n.to_bytes(8, "little") + s.to_bytes(16, "little")
    ///     for c, (n, s) in enumerate(lanes))
    /// print(hashlib.sha256(tag).hexdigest())
    /// print("%032x" % lanes[0][1], "%032x" % lanes[25][1])
    /// ```
    #[test]
    fn trace_hasher_golden() {
        let wide: Vec<u64> = (0..30).collect();
        let mut h = TraceHasher::new();
        h.record("send", &[1, 2, 3]);
        h.record("ack", &[]);
        h.record("verdict", &[u64::MAX, 7]);
        h.record("message-delivered", &wide);
        assert_eq!(h.hex(), "48fdb71410f44b621f897f7840137e1e9094799e4d1eb4d9405df52f93a8f9df");
        let lanes: Vec<Lane> = h.lanes().collect();
        assert_eq!(lanes.len(), KINDS.len() + 1);
        assert_eq!(lanes[0].to_string(), "send 1 a7c0499709f7a059cef6758c9a211bdf");
        assert_eq!(lanes[KINDS.len()].to_string(), "order 4 ccd11b315648c3cf44051eab80e83ad4");
    }

    /// A trace as (kind code, words) records of 0..6 words each.
    fn trace_strategy() -> impl Strategy<Value = Vec<(usize, Vec<u64>)>> {
        let record = (0..KINDS.len(), proptest::collection::vec(any::<u64>(), 0..6));
        proptest::collection::vec(record, 1..40)
    }

    fn fold(trace: &[(usize, Vec<u64>)]) -> TraceHasher {
        let mut h = TraceHasher::new();
        for (kind, words) in trace {
            h.record(KINDS[*kind].0, words);
        }
        h
    }

    /// The labels of the lanes on which `a` and `b` differ.
    fn moved(a: &TraceHasher, b: &TraceHasher) -> Vec<&'static str> {
        a.lanes().zip(b.lanes()).filter(|(x, y)| x != y).map(|(x, _)| x.label).collect()
    }

    proptest! {
        /// A label lookup and the episode's kind-code path fold alike.
        #[test]
        fn record_by_label_equals_record_by_kind(trace in trace_strategy()) {
            let mut by_kind = TraceHasher::new();
            for (kind, words) in &trace {
                by_kind.record_kind(*kind, words);
            }
            prop_assert_eq!(fold(&trace), by_kind);
        }

        /// One changed word moves its kind's lane and the digest, and no
        /// other lane: each step permutes the lane state.
        #[test]
        fn one_changed_word_moves_only_its_lane(
            trace in trace_strategy(),
            at in any::<usize>(),
            delta in 1u64..u64::MAX,
        ) {
            let (i, j) = {
                let i = at % trace.len();
                prop_assume!(!trace[i].1.is_empty());
                (i, (at / trace.len()) % trace[i].1.len())
            };
            let mut changed = trace.clone();
            changed[i].1[j] = changed[i].1[j].wrapping_add(delta);
            let (a, b) = (fold(&trace), fold(&changed));
            prop_assert_eq!(moved(&a, &b), vec![KINDS[trace[i].0].0]);
            prop_assert_ne!(a.hex(), b.hex());
        }

        /// Swapping two adjacent events of different kinds moves `order`
        /// and the digest, and no kind's lane.
        #[test]
        fn an_adjacent_swap_moves_only_order(trace in trace_strategy(), at in any::<usize>()) {
            prop_assume!(trace.len() >= 2);
            let i = at % (trace.len() - 1);
            prop_assume!(trace[i].0 != trace[i + 1].0);
            let mut swapped = trace.clone();
            swapped.swap(i, i + 1);
            let (a, b) = (fold(&trace), fold(&swapped));
            prop_assert_eq!(moved(&a, &b), vec!["order"]);
            prop_assert_ne!(a.hex(), b.hex());
        }
    }

    #[test]
    fn absorb_folds_lanes_and_counts() {
        let mut one = TraceHasher::new();
        one.record("send", &[5, 1]);
        one.record("tick", &[9]);
        let mut sweep = TraceHasher::new();
        sweep.absorb(&one);
        sweep.absorb(&one);
        let counts: Vec<(&str, u64)> =
            sweep.lanes().filter(|l| l.count > 0).map(|l| (l.label, l.count)).collect();
        assert_eq!(counts, [("send", 2), ("tick", 2), ("order", 4)]);
        // An empty episode still moves every lane: the sweep certifies
        // how many episodes it folded.
        let mut longer = sweep.clone();
        longer.absorb(&TraceHasher::new());
        assert!(sweep.lanes().zip(longer.lanes()).all(|(a, b)| a != b));
    }
}
