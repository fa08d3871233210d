//! Seeded fault-plan explorer: full diagnose–accuse–revise episodes under
//! deterministic fault injection, with whole-system invariant checking and
//! counterexample shrinking.
//!
//! An *episode* replays the Concilium protocol over a pre-built
//! [`SimWorld`]: stewards send application messages along overlay routes,
//! retransmit unacknowledged ones with capped backoff, judge the first
//! forwarder when every attempt expires, accumulate verdicts in m-of-w
//! windows, and escalate to formal accusations that walk the §3.5
//! revision chain and land in the accusation DHT. A seeded
//! [`FaultPlan`] perturbs the transport (drops, duplicates, reordering,
//! latency, churn) and an [`AdversarySets`] assigns Byzantine roles.
//! Every invariant from [`crate::invariants`] is evaluated as the episode
//! runs; the first violation aborts it.
//!
//! Episodes are bit-deterministic: the same world, seed, and
//! [`EpisodeConfig`] produce the same chained trace hash. The
//! [`explore_jobs`] sweep runs a seed × configuration grid and reports the
//! first failure; [`shrink`] then minimises the failing configuration —
//! dropping adversary roles, zeroing fault knobs, halving magnitudes and
//! churn windows — until no smaller configuration reproduces the same
//! invariant violation, and prints a copy-pasteable reproducer.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use concilium::ack::{Ack, AckBody, RetransmitQueue};
use concilium::blame::{blame_from_path_evidence, LinkEvidence};
use concilium::dht::AccusationDht;
use concilium::retry::RetryPolicy;
use concilium::revision::{AccusationChain, HandoffOutcome};
use concilium::verdict::VerdictWindow;
use concilium::{
    Accusation, ConciliumConfig, DropContext, ForwardingCommitment, Verdict,
};
use concilium_tomography::infer::infer_pass_rates_batch;
use concilium_tomography::oracle::oracle_pass_rates;
use concilium_tomography::probe::simulate_stripes;
use concilium_tomography::{
    infer_pass_rates_tolerant_batch, AmbiguityClasses, InferScratch, LinkObservation,
    PartialProbeRecord, TomographySnapshot,
};
use concilium_obs::{
    ppb, CausalIndex, CausalLedger, EntityRef, FaultKind, LinkObsSummary, Registry, Trace,
    TraceEvent,
};
use concilium_types::{Id, LinkId, MsgId, SimDuration, SimTime};

use crate::invariants::{
    check_blame, check_conservation, check_metrics_conservation, check_window, InvariantKind,
    TraceHasher, Violation,
};
use crate::faults::{BurstConfig, StormConfig};
use crate::{
    AdversarySets, ChurnConfig, EventQueue, FaultConfig, FaultPlan, RouteFate, SimWorld,
};

/// The blame combinator under test: maps per-link evidence and the probe
/// accuracy to a blame value. Production episodes use
/// [`concilium::blame::blame_from_path_evidence`]; tests can substitute a
/// deliberately broken mutant to prove the invariants catch it.
pub type BlameFn = fn(&[LinkEvidence], f64) -> f64;

fn production_blame(evidence: &[LinkEvidence], accuracy: f64) -> f64 {
    blame_from_path_evidence(evidence, accuracy)
}

const RTT: SimDuration = SimDuration::from_millis(200);

/// Midpoint of a failed message's lifetime: the Δ evidence window around
/// it covers the span in which every delivery attempt failed.
fn evidence_time(sent_at: SimTime, expired_at: SimTime) -> SimTime {
    SimTime::from_micros((sent_at.as_micros() + expired_at.as_micros()) / 2)
}

/// Retry schedule for application messages. The horizon (~50–100 s of
/// backoff across five retries) is deliberately long relative to probe
/// cadence but short relative to ambient outages: a message that exhausts
/// it has seen the network fail persistently, so the evidence gathered at
/// the midpoint of its lifetime squarely covers the outage.
fn data_retry_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        base_delay: SimDuration::from_secs(4),
        multiplier: 2.0,
        max_delay: SimDuration::from_secs(40),
        jitter: 0.5,
    }
}
const ADV_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
const MSG_SALT: u64 = 0xd1b5_4a32_d192_ed03;
const TOMO_SALT: u64 = 0x517c_c1b7_2722_0a95;

/// One arm of the fault grid: a [`FaultConfig`] for the transport plus
/// adversary-role fractions and the message workload.
#[derive(Clone, Debug)]
pub struct EpisodeConfig {
    /// Transport and churn fault knobs, passed to [`FaultPlan::new`].
    pub faults: FaultConfig,
    /// Fraction of hosts that silently drop forwarded messages.
    pub dropper_fraction: f64,
    /// Fraction of hosts that lie in probe snapshots to frame innocents.
    pub colluder_fraction: f64,
    /// Fraction of hosts that withhold acknowledgments.
    pub withholder_fraction: f64,
    /// Fraction of hosts whose snapshots arrive stale by the delayer shift.
    pub delayer_fraction: f64,
    /// Fraction of hosts that replay very old snapshots.
    pub replayer_fraction: f64,
    /// Fraction of hosts in a colluding accuser coalition: they withhold
    /// acknowledgments *and* flip §4.3 probe evidence to shield members
    /// and frame non-members.
    pub coalition_fraction: f64,
    /// Fraction of hosts that drop forwarded messages only while no
    /// routing peer has probed near the current virtual time
    /// (see [`crate::ADAPTIVE_GUARD`]).
    pub adaptive_fraction: f64,
    /// Number of (source, destination) flows to drive.
    pub flows: usize,
    /// Messages sent per flow, spread across the run.
    pub messages_per_flow: usize,
}

impl Default for EpisodeConfig {
    fn default() -> Self {
        EpisodeConfig {
            faults: FaultConfig::default(),
            dropper_fraction: 0.0,
            colluder_fraction: 0.0,
            withholder_fraction: 0.0,
            delayer_fraction: 0.0,
            replayer_fraction: 0.0,
            coalition_fraction: 0.0,
            adaptive_fraction: 0.0,
            flows: 6,
            messages_per_flow: 40,
        }
    }
}

impl EpisodeConfig {
    /// No injected faults at all: only the world's ambient link failures.
    pub fn transparent() -> Self {
        EpisodeConfig::default()
    }

    /// A lossy, jittery transport with no Byzantine hosts.
    pub fn lossy() -> Self {
        EpisodeConfig {
            faults: FaultConfig {
                drop_probability: 0.15,
                ack_drop_probability: 0.15,
                duplicate_probability: 0.05,
                reorder_probability: 0.05,
                extra_latency_max: SimDuration::from_millis(50),
                ..FaultConfig::default()
            },
            ..EpisodeConfig::default()
        }
    }

    /// Heavy crash/restart churn with a clean transport.
    pub fn churning() -> Self {
        EpisodeConfig {
            faults: FaultConfig {
                churn: ChurnConfig {
                    crash_fraction: 0.25,
                    mean_outage: SimDuration::from_secs(90),
                    min_outage: SimDuration::from_secs(10),
                },
                ..FaultConfig::default()
            },
            ..EpisodeConfig::default()
        }
    }

    /// A mixed Byzantine population over a mildly lossy transport.
    pub fn byzantine() -> Self {
        EpisodeConfig {
            faults: FaultConfig {
                drop_probability: 0.05,
                ack_drop_probability: 0.05,
                ..FaultConfig::default()
            },
            dropper_fraction: 0.2,
            withholder_fraction: 0.1,
            delayer_fraction: 0.1,
            replayer_fraction: 0.1,
            ..EpisodeConfig::default()
        }
    }

    /// A colluding accuser coalition riding an eclipse-style churn storm:
    /// a shared outage window takes a third of the crashing population
    /// down together while coalition members withhold acks and flip
    /// evidence for each other.
    pub fn coalition_storm() -> Self {
        EpisodeConfig {
            faults: FaultConfig {
                churn: ChurnConfig {
                    crash_fraction: 0.3,
                    mean_outage: SimDuration::from_secs(120),
                    min_outage: SimDuration::from_secs(20),
                },
                storm: StormConfig {
                    fraction: 0.5,
                    start_frac: 0.4,
                    duration: SimDuration::from_secs(120),
                },
                ..FaultConfig::default()
            },
            coalition_fraction: 0.2,
            ..EpisodeConfig::default()
        }
    }

    /// Adaptive adversaries that forward faithfully whenever a routing
    /// peer has probed nearby in virtual time and drop otherwise. Inert
    /// on densely probed worlds by design — pair with a sparse-probe
    /// world (see `fuzz::bottleneck_world`) to expose the behaviour.
    pub fn adaptive() -> Self {
        EpisodeConfig {
            adaptive_fraction: 0.2,
            ..EpisodeConfig::default()
        }
    }

    /// Gilbert–Elliott bursty loss: a clean channel that occasionally
    /// slips into a bad state eating ~80% of traffic for a handful of
    /// decisions at a time.
    pub fn bursty() -> Self {
        EpisodeConfig {
            faults: FaultConfig {
                burst: BurstConfig {
                    good_to_bad: 0.05,
                    bad_to_good: 0.2,
                    bad_loss: 0.8,
                },
                ..FaultConfig::default()
            },
            ..EpisodeConfig::default()
        }
    }

    /// The standard four-arm sweep grid used by the acceptance suite and
    /// the CI `dst-sweep` driver.
    pub fn standard_grid() -> Vec<(&'static str, EpisodeConfig)> {
        vec![
            ("transparent", EpisodeConfig::transparent()),
            ("lossy", EpisodeConfig::lossy()),
            ("churning", EpisodeConfig::churning()),
            ("byzantine", EpisodeConfig::byzantine()),
        ]
    }

    /// The standard grid plus the fuzzer's extended adversary families:
    /// coalition-plus-storm, adaptive droppers, and bursty loss.
    pub fn extended_grid() -> Vec<(&'static str, EpisodeConfig)> {
        let mut grid = EpisodeConfig::standard_grid();
        grid.push(("coalition-storm", EpisodeConfig::coalition_storm()));
        grid.push(("adaptive", EpisodeConfig::adaptive()));
        grid.push(("bursty", EpisodeConfig::bursty()));
        grid
    }

    /// Whether every lost message is explained by the network alone:
    /// no plan-level transport loss of messages or acknowledgments.
    /// Duplication, reordering, latency, and churn do not lose messages,
    /// so they keep a configuration network-only.
    ///
    /// The no-false-blame invariant is enforced exactly in this regime.
    /// Under ambient transport loss, Concilium's §3.4 evidence can
    /// legitimately convict an honest forwarder (the paper's false-positive
    /// rate, bounded by the m-of-w window) — those standings are counted
    /// in [`EpisodeStats::false_standings`] instead.
    ///
    /// Bursty (Gilbert–Elliott) loss is transport loss, and hosts that
    /// lie in probe snapshots — plain colluders and accuser coalitions
    /// alike — flip the very evidence the no-false-blame check relies on
    /// (§4.3's documented attack, not a bug in the checker), so all
    /// three disqualify a configuration from strict enforcement.
    pub fn network_only(&self) -> bool {
        self.faults.drop_probability == 0.0
            && self.faults.ack_drop_probability == 0.0
            && !(self.faults.burst.enabled() && self.faults.burst.bad_loss > 0.0)
            && self.colluder_fraction == 0.0
            && self.coalition_fraction == 0.0
    }

    /// Number of fault dimensions that are active (non-zero).
    pub fn active_dimensions(&self) -> usize {
        let f = &self.faults;
        [
            f.drop_probability > 0.0,
            f.ack_drop_probability > 0.0,
            f.duplicate_probability > 0.0,
            f.reorder_probability > 0.0,
            f.extra_latency_max > SimDuration::ZERO,
            f.churn.crash_fraction > 0.0,
            f.burst.enabled(),
            f.storm.fraction > 0.0,
            self.dropper_fraction > 0.0,
            self.colluder_fraction > 0.0,
            self.withholder_fraction > 0.0,
            self.delayer_fraction > 0.0,
            self.replayer_fraction > 0.0,
            self.coalition_fraction > 0.0,
            self.adaptive_fraction > 0.0,
        ]
        .iter()
        .filter(|&&active| active)
        .count()
    }

    /// Renders the configuration as a copy-pasteable Rust literal with the
    /// seed that reproduces the episode.
    pub fn to_literal(&self, seed: u64) -> String {
        let f = &self.faults;
        format!(
            "// seed: {seed}\n\
             EpisodeConfig {{\n\
             \x20   faults: FaultConfig {{\n\
             \x20       drop_probability: {:?},\n\
             \x20       ack_drop_probability: {:?},\n\
             \x20       duplicate_probability: {:?},\n\
             \x20       reorder_probability: {:?},\n\
             \x20       extra_latency_max: SimDuration::from_micros({}),\n\
             \x20       reorder_delay: SimDuration::from_micros({}),\n\
             \x20       delayer_shift: SimDuration::from_micros({}),\n\
             \x20       replay_age: SimDuration::from_micros({}),\n\
             \x20       churn: ChurnConfig {{\n\
             \x20           crash_fraction: {:?},\n\
             \x20           mean_outage: SimDuration::from_micros({}),\n\
             \x20           min_outage: SimDuration::from_micros({}),\n\
             \x20       }},\n\
             \x20       burst: BurstConfig {{\n\
             \x20           good_to_bad: {:?},\n\
             \x20           bad_to_good: {:?},\n\
             \x20           bad_loss: {:?},\n\
             \x20       }},\n\
             \x20       storm: StormConfig {{\n\
             \x20           fraction: {:?},\n\
             \x20           start_frac: {:?},\n\
             \x20           duration: SimDuration::from_micros({}),\n\
             \x20       }},\n\
             \x20   }},\n\
             \x20   dropper_fraction: {:?},\n\
             \x20   colluder_fraction: {:?},\n\
             \x20   withholder_fraction: {:?},\n\
             \x20   delayer_fraction: {:?},\n\
             \x20   replayer_fraction: {:?},\n\
             \x20   coalition_fraction: {:?},\n\
             \x20   adaptive_fraction: {:?},\n\
             \x20   flows: {},\n\
             \x20   messages_per_flow: {},\n\
             }}",
            f.drop_probability,
            f.ack_drop_probability,
            f.duplicate_probability,
            f.reorder_probability,
            f.extra_latency_max.as_micros(),
            f.reorder_delay.as_micros(),
            f.delayer_shift.as_micros(),
            f.replay_age.as_micros(),
            f.churn.crash_fraction,
            f.churn.mean_outage.as_micros(),
            f.churn.min_outage.as_micros(),
            f.burst.good_to_bad,
            f.burst.bad_to_good,
            f.burst.bad_loss,
            f.storm.fraction,
            f.storm.start_frac,
            f.storm.duration.as_micros(),
            self.dropper_fraction,
            self.colluder_fraction,
            self.withholder_fraction,
            self.delayer_fraction,
            self.replayer_fraction,
            self.coalition_fraction,
            self.adaptive_fraction,
            self.flows,
            self.messages_per_flow,
        )
    }

    /// Parses a [`EpisodeConfig::to_literal`] rendering (plus its
    /// `// seed:` header) back into a configuration and seed.
    ///
    /// The parser is line-based and keyed on field names, so it tolerates
    /// surrounding comment lines (corpus headers) and indentation changes,
    /// but rejects unknown fields — a corpus entry written by a newer
    /// serializer fails loudly instead of replaying the wrong scenario.
    pub fn parse_literal(text: &str) -> Result<(EpisodeConfig, u64), String> {
        fn f64v(key: &str, v: &str) -> Result<f64, String> {
            v.parse::<f64>().map_err(|e| format!("{key}: {e}"))
        }
        fn usizev(key: &str, v: &str) -> Result<usize, String> {
            v.parse::<usize>().map_err(|e| format!("{key}: {e}"))
        }
        fn durv(key: &str, v: &str) -> Result<SimDuration, String> {
            let inner = v
                .strip_prefix("SimDuration::from_micros(")
                .and_then(|s| s.strip_suffix(')'))
                .ok_or_else(|| format!("{key}: expected SimDuration::from_micros(..), got {v}"))?;
            Ok(SimDuration::from_micros(
                inner.parse().map_err(|e| format!("{key}: {e}"))?,
            ))
        }

        let mut cfg = EpisodeConfig::default();
        let mut seed: Option<u64> = None;
        let mut depth = 0usize;
        for raw in text.lines() {
            let line = raw.trim();
            if let Some(rest) = line.strip_prefix("// seed:") {
                seed = Some(rest.trim().parse().map_err(|e| format!("seed: {e}"))?);
                continue;
            }
            if line.starts_with("//") || line.is_empty() {
                continue;
            }
            // Field lines only count inside the `EpisodeConfig` literal;
            // anything before it (corpus headers) or after it (a
            // reproducer's rendered event trace) is ignored.
            if depth == 0 {
                if line.starts_with("EpisodeConfig") && line.ends_with('{') {
                    depth = 1;
                }
                continue;
            }
            depth = (depth + line.matches('{').count())
                .saturating_sub(line.matches('}').count());
            let Some((key, value)) = line.split_once(':') else {
                continue; // closing braces
            };
            let key = key.trim();
            let value = value.trim().trim_end_matches(',');
            if value.ends_with('{') {
                continue; // struct openers like `faults: FaultConfig {`
            }
            let f = &mut cfg.faults;
            match key {
                "drop_probability" => f.drop_probability = f64v(key, value)?,
                "ack_drop_probability" => f.ack_drop_probability = f64v(key, value)?,
                "duplicate_probability" => f.duplicate_probability = f64v(key, value)?,
                "reorder_probability" => f.reorder_probability = f64v(key, value)?,
                "extra_latency_max" => f.extra_latency_max = durv(key, value)?,
                "reorder_delay" => f.reorder_delay = durv(key, value)?,
                "delayer_shift" => f.delayer_shift = durv(key, value)?,
                "replay_age" => f.replay_age = durv(key, value)?,
                "crash_fraction" => f.churn.crash_fraction = f64v(key, value)?,
                "mean_outage" => f.churn.mean_outage = durv(key, value)?,
                "min_outage" => f.churn.min_outage = durv(key, value)?,
                "good_to_bad" => f.burst.good_to_bad = f64v(key, value)?,
                "bad_to_good" => f.burst.bad_to_good = f64v(key, value)?,
                "bad_loss" => f.burst.bad_loss = f64v(key, value)?,
                "fraction" => f.storm.fraction = f64v(key, value)?,
                "start_frac" => f.storm.start_frac = f64v(key, value)?,
                "duration" => f.storm.duration = durv(key, value)?,
                "dropper_fraction" => cfg.dropper_fraction = f64v(key, value)?,
                "colluder_fraction" => cfg.colluder_fraction = f64v(key, value)?,
                "withholder_fraction" => cfg.withholder_fraction = f64v(key, value)?,
                "delayer_fraction" => cfg.delayer_fraction = f64v(key, value)?,
                "replayer_fraction" => cfg.replayer_fraction = f64v(key, value)?,
                "coalition_fraction" => cfg.coalition_fraction = f64v(key, value)?,
                "adaptive_fraction" => cfg.adaptive_fraction = f64v(key, value)?,
                "flows" => cfg.flows = usizev(key, value)?,
                "messages_per_flow" => cfg.messages_per_flow = usizev(key, value)?,
                other => return Err(format!("unknown field `{other}`")),
            }
        }
        let seed = seed.ok_or_else(|| "missing `// seed:` header".to_string())?;
        Ok((cfg, seed))
    }
}

/// Hooks controlling how an episode evaluates the system under test.
#[derive(Clone, Copy, Debug)]
pub struct EpisodeOptions {
    /// The blame combinator the judging nodes use.
    pub blame_fn: BlameFn,
    /// Whether every blame value is cross-checked against the direct
    /// Eq. 2–3 oracle (disable to let a broken combinator run long enough
    /// to be caught downstream by the no-false-blame invariant).
    pub check_blame_oracle: bool,
    /// Stripes per tree for the end-of-episode tomography cross-check.
    pub tomography_stripes: usize,
    /// Ring capacity of each episode's structured trace. The ring keeps
    /// the newest events, so a failing episode always retains the causal
    /// tail that led to the violation. 0 disables recording (the trace
    /// hash is unaffected — it absorbs every event either way).
    pub trace_capacity: usize,
    /// Whether [`explore_jobs`] keeps the traces of *passing* episodes in
    /// [`ExploreOutcome::traces`] (for `--trace-out` exports). Failing
    /// episodes always keep theirs.
    pub collect_traces: bool,
}

impl Default for EpisodeOptions {
    fn default() -> Self {
        EpisodeOptions {
            blame_fn: production_blame,
            check_blame_oracle: true,
            tomography_stripes: 300,
            trace_capacity: concilium_obs::DEFAULT_TRACE_CAPACITY,
            collect_traces: false,
        }
    }
}

/// Event and bookkeeping counters accumulated over an episode.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpisodeStats {
    /// Events popped from the queue.
    pub events: usize,
    /// Messages registered with the steward.
    pub sent: usize,
    /// Sends skipped because a route host was crashed at send time.
    pub churn_blocked: usize,
    /// Messages that truly reached their destination.
    pub delivered: usize,
    /// Messages settled by a verified acknowledgment.
    pub settled: usize,
    /// Messages whose retry schedule expired.
    pub expired: usize,
    /// Expiries that produced a verdict.
    pub judged: usize,
    /// Guilty verdicts among them.
    pub guilty: usize,
    /// Expiries skipped: route too short to have an intermediate hop.
    pub skipped_short_route: usize,
    /// Expiries skipped: the first forwarder never received the message,
    /// so no forwarding commitment exists to judge against.
    pub skipped_uncommitted: usize,
    /// Expiries skipped: some path link had no admissible evidence.
    pub skipped_uncovered: usize,
    /// Expiries skipped: the judging steward was crashed.
    pub skipped_judge_down: usize,
    /// Verdict windows that crossed the accusation quota.
    pub escalations: usize,
    /// Escalations dissolved (ack proof or network exoneration).
    pub dissolved: usize,
    /// Accusation chains built, verified, and stored.
    pub chains_checked: usize,
    /// Revision handoffs lost to the transport (chain stands early).
    pub handoffs_withheld: usize,
    /// DHT writes that reported a typed quorum failure.
    pub dht_refused: usize,
    /// Honest hosts left standing as culprits under ambient transport
    /// loss — the paper's false-positive rate, a violation only in
    /// network-only configurations.
    pub false_standings: usize,
}

impl EpisodeStats {
    /// Adds another episode's counters into this accumulator.
    pub fn absorb(&mut self, other: &EpisodeStats) {
        self.events += other.events;
        self.sent += other.sent;
        self.churn_blocked += other.churn_blocked;
        self.delivered += other.delivered;
        self.settled += other.settled;
        self.expired += other.expired;
        self.judged += other.judged;
        self.guilty += other.guilty;
        self.skipped_short_route += other.skipped_short_route;
        self.skipped_uncommitted += other.skipped_uncommitted;
        self.skipped_uncovered += other.skipped_uncovered;
        self.skipped_judge_down += other.skipped_judge_down;
        self.escalations += other.escalations;
        self.dissolved += other.dissolved;
        self.chains_checked += other.chains_checked;
        self.handoffs_withheld += other.handoffs_withheld;
        self.dht_refused += other.dht_refused;
        self.false_standings += other.false_standings;
    }
}

/// The result of running one episode.
#[derive(Clone, Debug)]
pub struct EpisodeReport {
    /// The first invariant violation, if any.
    pub violation: Option<Violation>,
    /// Chained hash of the full event trace (replay fingerprint).
    pub trace_hash: String,
    /// Counters accumulated while the episode ran.
    pub stats: EpisodeStats,
    /// Ring-buffered structured trace — the newest
    /// [`EpisodeOptions::trace_capacity`] events in virtual-time order.
    pub trace: Trace,
    /// Event-derived metrics for this episode. Every key is a function of
    /// virtual time and the seed, so registries from the same episode are
    /// identical regardless of worker count.
    pub metrics: Registry,
}

/// A seed + configuration pair that violated an invariant.
#[derive(Clone, Debug)]
pub struct FailingCase {
    /// Grid-arm name (suffixed `-shrunk` after minimisation).
    pub name: String,
    /// The failing configuration.
    pub config: EpisodeConfig,
    /// The seed that reproduces it.
    pub seed: u64,
    /// What broke.
    pub violation: Violation,
    /// Trace hash of the violating run.
    pub trace_hash: String,
    /// Structured trace of the violating run — the causal tail that led
    /// to the violation, rendered by [`FailingCase::reproducer`].
    pub trace: Trace,
}

impl FailingCase {
    /// A copy-pasteable reproducer: the violation, the trace hash, the
    /// configuration literal with its seed, the virtual-time event trace
    /// leading up to the violation, and the causal chain for the violated
    /// entity (not just the ring tail — the cause→effect path from the
    /// entity's originating send/admit to its last event).
    pub fn reproducer(&self) -> String {
        let mut out = format!(
            "// {}: {}\n// trace: {}\n{}",
            self.name,
            self.violation,
            self.trace_hash,
            self.config.to_literal(self.seed)
        );
        if !self.trace.is_empty() {
            out.push_str("\n\n// events leading to the violation:\n");
            out.push_str(&self.trace.render());
            if let Some((entity, chain)) = self.causal_tail() {
                out.push_str(&format!("\n\n// causal chain for {entity}:\n"));
                out.push_str(&chain);
            }
        }
        out
    }

    /// The violated entity and its rendered causal chain, rebuilt from
    /// the ring-buffered trace. When the violation does not name an
    /// entity, the last entity-bearing event's first key stands in. A
    /// ring that evicted the chain's root is tolerated: the chain simply
    /// starts at the oldest surviving link.
    fn causal_tail(&self) -> Option<(EntityRef, String)> {
        let entity = self.violation.entity.or_else(|| {
            let mut keys = Vec::new();
            let mut last = None;
            for traced in self.trace.events() {
                concilium_obs::entities(&traced.event, &mut keys);
                if let Some(&first) = keys.first() {
                    last = Some(first);
                }
            }
            last
        })?;
        let index = CausalIndex::from_events(self.trace.events());
        let &last = index.timeline(&entity).last()?;
        let mut rendered = String::new();
        for i in index.chain(last) {
            rendered.push_str("// ");
            rendered.push_str(&index.events()[i].render());
            rendered.push('\n');
        }
        Some((entity, rendered))
    }
}

/// One passing episode's trace, kept by [`explore_jobs`] when
/// [`EpisodeOptions::collect_traces`] is set (for `--trace-out` exports).
#[derive(Clone, Debug)]
pub struct EpisodeTrace {
    /// Grid-arm name.
    pub name: String,
    /// Episode seed.
    pub seed: u64,
    /// The episode's structured trace.
    pub trace: Trace,
}

/// Outcome of a seed × configuration sweep.
#[derive(Clone, Debug)]
pub struct ExploreOutcome {
    /// Episodes completed (including the failing one, if any).
    pub episodes_run: usize,
    /// The first failing case found, stopping the sweep.
    pub failure: Option<FailingCase>,
    /// Counters summed over every episode run.
    pub totals: EpisodeStats,
    /// Chained hash over every episode's trace hash, in sweep submission
    /// order. Two sweeps over the same grid and seeds are bit-identical
    /// iff their digests match — the equality CI checks between `--jobs 1`
    /// and `--jobs N` runs.
    pub trace_digest: String,
    /// Per-episode metrics merged in submission order (counters add,
    /// gauges keep the maximum), so the merged registry is independent of
    /// worker count.
    pub metrics: Registry,
    /// Every episode's trace in submission order, populated only when
    /// [`EpisodeOptions::collect_traces`] is set.
    pub traces: Vec<EpisodeTrace>,
}

/// Builds the canonical DST world: [`crate::SimConfig::tiny`] with link
/// repairs fast enough to matter inside the ten-minute run.
///
/// The paper's ambient failure model (5% of links bad, 15-minute mean
/// downtime) never repairs a link within a tiny run, which starves the
/// protocol: multi-hop routes that start dark stay dark, nothing is
/// delivered or acknowledged, and stewardship never escalates. DST wants
/// the opposite — every protocol path exercised — so the explorer's world
/// keeps the depth-weighted failure process but makes outages short and
/// rarer (2% of links, ~60-second downtime).
pub fn dst_world(world_seed: u64) -> SimWorld {
    let mut cfg = crate::SimConfig::tiny();
    cfg.failure.fraction_bad = 0.02;
    // Outages must outlast the episode retry horizon: an expired message
    // then implies a *sustained* outage, one long enough to dominate the
    // Δ evidence window, so tolerant rebuttals reliably exonerate honest
    // forwarders instead of drowning the down-link in pre-outage samples.
    cfg.failure.mean_downtime = SimDuration::from_secs(240);
    cfg.failure.sd_downtime = SimDuration::from_secs(30);
    cfg.failure.min_downtime = SimDuration::from_secs(180);
    let mut rng = StdRng::seed_from_u64(world_seed);
    SimWorld::build(cfg, &mut rng)
}

/// Runs one episode of `cfg` with `seed` over `world` and reports the
/// first invariant violation, the trace hash, and the episode counters.
pub fn run_episode(
    world: &SimWorld,
    cfg: &EpisodeConfig,
    seed: u64,
    opts: &EpisodeOptions,
) -> EpisodeReport {
    let episode = {
        let _span = concilium_obs::span("episode.setup");
        Episode::new(world, cfg, seed, opts)
    };
    episode.run()
}

/// Sweeps `grid` × `seeds` on up to `jobs` workers, stopping at the first
/// violation, with output bit-identical to the serial sweep.
///
/// Episodes are independent (each builds its own RNG from its seed and
/// borrows the immutable world), so they are farmed out with
/// [`concilium_par::par_map_while`]. Cancellation is by *minimum violating
/// index*: workers that find a violation publish their sweep index, tasks
/// beyond the current minimum are skipped, and the result is truncated to
/// the prefix ending at the smallest violating index — exactly the episodes
/// the serial sweep would have run, absorbed in the same order. Everything
/// in the outcome (`episodes_run`, `totals`, the failing case, the trace
/// digest) is therefore independent of `jobs`.
pub fn explore_jobs(
    world: &SimWorld,
    grid: &[(&str, EpisodeConfig)],
    seeds: &[u64],
    opts: &EpisodeOptions,
    jobs: usize,
) -> ExploreOutcome {
    // Grid-major, seed-minor: the same submission order as the serial loop.
    let tasks: Vec<(usize, u64)> = (0..grid.len())
        .flat_map(|arm| seeds.iter().map(move |&seed| (arm, seed)))
        .collect();
    let (reports, stopped) = concilium_par::par_map_while(jobs, &tasks, |_, &(arm, seed)| {
        let report = run_episode(world, &grid[arm].1, seed, opts);
        let stop = report.violation.is_some();
        (report, stop)
    });

    let mut totals = EpisodeStats::default();
    let mut digest = TraceHasher::new();
    let mut failure = None;
    let mut metrics = Registry::new();
    let mut traces = Vec::new();
    for (i, report) in reports.iter().enumerate() {
        totals.absorb(&report.stats);
        digest.record(&report.trace_hash, &[i as u64]);
        metrics.merge(&report.metrics);
        let (arm, seed) = tasks[i];
        if opts.collect_traces {
            traces.push(EpisodeTrace {
                name: grid[arm].0.to_string(),
                seed,
                trace: report.trace.clone(),
            });
        }
        if report.violation.is_some() {
            debug_assert_eq!(Some(i), stopped, "violations only at the stop index");
            failure = Some(FailingCase {
                name: grid[arm].0.to_string(),
                config: grid[arm].1.clone(),
                seed,
                violation: report.violation.clone().expect("checked above"),
                trace_hash: report.trace_hash.clone(),
                trace: report.trace.clone(),
            });
        }
    }
    ExploreOutcome {
        episodes_run: reports.len(),
        failure,
        totals,
        trace_digest: digest.hex(),
        metrics,
        traces,
    }
}

/// Greedily minimises a failing configuration: an edit is kept only if
/// re-running the episode reproduces a violation of the same
/// [`InvariantKind`]. Edits try, in order, to drop whole adversary roles,
/// zero transport knobs, remove churn, halve surviving magnitudes and the
/// churn window, and shrink the message workload.
pub fn shrink(world: &SimWorld, case: &FailingCase, opts: &EpisodeOptions) -> FailingCase {
    let _span = concilium_obs::span("dst.shrink");
    let kind = case.violation.kind;
    let seed = case.seed;
    let mut best = case.config.clone();
    loop {
        let mut improved = false;
        for cand in shrink_candidates(&best) {
            let reproduces = run_episode(world, &cand, seed, opts)
                .violation
                .is_some_and(|v| v.kind == kind);
            if reproduces {
                best = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    let report = run_episode(world, &best, seed, opts);
    let violation =
        report.violation.expect("shrinking only accepts reproducing configurations");
    FailingCase {
        name: format!("{}-shrunk", case.name),
        config: best,
        seed,
        violation,
        trace_hash: report.trace_hash,
        trace: report.trace,
    }
}

pub(crate) fn shrink_candidates(cfg: &EpisodeConfig) -> Vec<EpisodeConfig> {
    let mut out: Vec<EpisodeConfig> = Vec::new();
    let mut push = |edit: &dyn Fn(&mut EpisodeConfig)| {
        let mut c = cfg.clone();
        edit(&mut c);
        out.push(c);
    };
    // Drop whole adversary roles.
    if cfg.dropper_fraction > 0.0 {
        push(&|c| c.dropper_fraction = 0.0);
    }
    if cfg.colluder_fraction > 0.0 {
        push(&|c| c.colluder_fraction = 0.0);
    }
    if cfg.withholder_fraction > 0.0 {
        push(&|c| c.withholder_fraction = 0.0);
    }
    if cfg.delayer_fraction > 0.0 {
        push(&|c| c.delayer_fraction = 0.0);
    }
    if cfg.replayer_fraction > 0.0 {
        push(&|c| c.replayer_fraction = 0.0);
    }
    if cfg.coalition_fraction > 0.0 {
        push(&|c| c.coalition_fraction = 0.0);
    }
    if cfg.adaptive_fraction > 0.0 {
        push(&|c| c.adaptive_fraction = 0.0);
    }
    // Zero transport knobs outright.
    if cfg.faults.drop_probability > 0.0 {
        push(&|c| c.faults.drop_probability = 0.0);
    }
    if cfg.faults.ack_drop_probability > 0.0 {
        push(&|c| c.faults.ack_drop_probability = 0.0);
    }
    if cfg.faults.duplicate_probability > 0.0 {
        push(&|c| c.faults.duplicate_probability = 0.0);
    }
    if cfg.faults.reorder_probability > 0.0 {
        push(&|c| c.faults.reorder_probability = 0.0);
    }
    if cfg.faults.extra_latency_max > SimDuration::ZERO {
        push(&|c| c.faults.extra_latency_max = SimDuration::ZERO);
    }
    // Remove churn, the burst channel, and the churn storm.
    if cfg.faults.churn.crash_fraction > 0.0 {
        push(&|c| c.faults.churn.crash_fraction = 0.0);
    }
    if cfg.faults.burst.enabled() {
        push(&|c| c.faults.burst = BurstConfig::default());
    }
    if cfg.faults.storm.fraction > 0.0 {
        push(&|c| c.faults.storm = StormConfig::default());
    }
    // Halve surviving magnitudes (flooring tiny values to zero).
    let halved = |v: f64| if v / 2.0 < 1e-3 { 0.0 } else { v / 2.0 };
    for knob in 0..8 {
        let value = match knob {
            0 => cfg.faults.drop_probability,
            1 => cfg.faults.ack_drop_probability,
            2 => cfg.dropper_fraction,
            3 => cfg.withholder_fraction,
            4 => cfg.delayer_fraction,
            5 => cfg.replayer_fraction,
            6 => cfg.coalition_fraction,
            _ => cfg.adaptive_fraction,
        };
        if value > 0.0 {
            push(&move |c| {
                let slot = match knob {
                    0 => &mut c.faults.drop_probability,
                    1 => &mut c.faults.ack_drop_probability,
                    2 => &mut c.dropper_fraction,
                    3 => &mut c.withholder_fraction,
                    4 => &mut c.delayer_fraction,
                    5 => &mut c.replayer_fraction,
                    6 => &mut c.coalition_fraction,
                    _ => &mut c.adaptive_fraction,
                };
                *slot = halved(*slot);
            });
        }
    }
    // Soften the burst channel without removing it.
    if cfg.faults.burst.enabled() && cfg.faults.burst.bad_loss > 1e-3 {
        push(&|c| c.faults.burst.bad_loss = halved(c.faults.burst.bad_loss));
    }
    // Binary-search the churn window toward the minimum outage.
    let churn = &cfg.faults.churn;
    if churn.crash_fraction > 0.0 && churn.mean_outage > churn.min_outage {
        let target = SimDuration::from_micros(
            (churn.mean_outage.as_micros() / 2).max(churn.min_outage.as_micros()),
        );
        push(&move |c| c.faults.churn.mean_outage = target);
    }
    // Shrink the workload.
    if cfg.flows > 1 {
        push(&|c| c.flows = (c.flows / 2).max(1));
    }
    if cfg.messages_per_flow > 1 {
        push(&|c| c.messages_per_flow = (c.messages_per_flow / 2).max(1));
    }
    out
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MsgState {
    Unregistered,
    InFlight,
    Settled,
    Expired,
}

#[derive(Clone)]
struct MsgInfo {
    msg: MsgId,
    flow: usize,
    sent_at: SimTime,
    /// Full intended overlay route, source first. Shared with the per-flow
    /// route table so cloning a `MsgInfo` (which happens on every ack,
    /// retransmit poll, and judgment) never copies the hop list.
    route: Arc<[usize]>,
    /// Highest route index that actually received the message.
    received_upto: usize,
    truly_delivered: bool,
}

#[derive(Clone)]
enum Ev {
    Send(usize),
    Ack(usize),
    Tick,
}

/// Evidence about one hop's IP path, keeping per-observation origins so
/// escalation can rebuild the signed snapshots behind each observation.
#[derive(Clone, Default)]
struct Gathered {
    per_link: Vec<(LinkId, Vec<(usize, bool)>)>,
}

impl Gathered {
    fn to_link_evidence(&self) -> Vec<LinkEvidence> {
        self.per_link
            .iter()
            .map(|(link, obs)| LinkEvidence {
                link: *link,
                observations: obs.iter().map(|&(_, up)| up).collect(),
            })
            .collect()
    }

    fn covered(&self) -> bool {
        !self.per_link.is_empty() && self.per_link.iter().all(|(_, obs)| !obs.is_empty())
    }
}

struct PairState {
    window: VerdictWindow,
    accused: bool,
}

enum WalkEnd {
    Dissolved,
    Standing(usize),
}

/// Dense per-episode event counters, folded into the registry once by
/// `flush`. The key set crosses the digest boundary with the metrics
/// snapshot, so it is part of the contract: a key exists iff its count is
/// greater than zero, except `episode.snapshot_observations`, which exists
/// iff a snapshot batch was gathered (even one carrying zero observations).
#[derive(Clone, Copy, Debug, Default)]
struct EventTallies {
    sent: u64,
    churn_blocked: u64,
    delivered: u64,
    faults_injected: u64,
    acks: u64,
    retries: u64,
    expired: u64,
    snapshot_batches: u64,
    snapshot_observations: u64,
    judged: u64,
    verdicts: u64,
    guilty_verdicts: u64,
    escalations: u64,
    dissolved: u64,
    standings: u64,
    revisions: u64,
    accusations_stored: u64,
    dht_refused: u64,
    ticks: u64,
}

impl EventTallies {
    /// Folds the tallies into `metrics` under the key-existence rule above.
    fn flush(&self, metrics: &mut Registry) {
        let counters = [
            ("episode.sent", self.sent),
            ("episode.churn_blocked", self.churn_blocked),
            ("episode.delivered", self.delivered),
            ("episode.faults_injected", self.faults_injected),
            ("episode.acks", self.acks),
            ("episode.retries", self.retries),
            ("episode.expired", self.expired),
            ("episode.snapshot_batches", self.snapshot_batches),
            ("episode.judged", self.judged),
            ("episode.verdicts", self.verdicts),
            ("episode.guilty_verdicts", self.guilty_verdicts),
            ("episode.escalations", self.escalations),
            ("episode.dissolved", self.dissolved),
            ("episode.standings", self.standings),
            ("episode.revisions", self.revisions),
            ("episode.accusations_stored", self.accusations_stored),
            ("episode.dht_refused", self.dht_refused),
            ("episode.ticks", self.ticks),
        ];
        for (key, value) in counters {
            if value > 0 {
                metrics.inc(key, value);
            }
        }
        // The key's existence tracks batches, not the total.
        if self.snapshot_batches > 0 {
            metrics.inc("episode.snapshot_observations", self.snapshot_observations);
        }
    }
}

struct Episode<'w> {
    world: &'w SimWorld,
    opts: &'w EpisodeOptions,
    seed: u64,
    protocol: ConciliumConfig,
    accuracy: f64,
    delta: SimDuration,
    plan: FaultPlan,
    adv: AdversarySets,
    rng: StdRng,
    flows: Vec<(usize, usize)>,
    /// Overlay route per flow, computed once at construction: routing
    /// tables are static within an episode, so every send and retransmit
    /// of a flow takes the same route.
    flow_routes: Vec<Arc<[usize]>>,
    sends: Vec<(usize, SimTime)>,
    infos: Vec<Option<MsgInfo>>,
    msg_state: Vec<MsgState>,
    retrans: RetransmitQueue,
    // Ordered containers only: the episode feeds emit()/trace hashing, so
    // any iterable state on this struct must have a deterministic order
    // (lint rule hash-iter).
    pairs: BTreeMap<(usize, usize), PairState>,
    dht: AccusationDht,
    queue: EventQueue<Ev>,
    ticks: BTreeSet<u64>,
    /// Most recent tick time handed to `ticks` — `schedule_tick` runs
    /// after every popped event and usually re-derives the same next
    /// retransmission time, so this one-entry memo skips the set probe.
    last_tick: Option<u64>,
    hasher: TraceHasher,
    trace: Trace,
    metrics: Registry,
    /// Event counters accumulated densely during the run and folded into
    /// `metrics` once at the end (identical final registry, no per-event
    /// string-keyed map traffic).
    tallies: EventTallies,
    /// Reusable buffer for an event's hash fields (`emit` is per-event).
    fields_scratch: Vec<u64>,
    stats: EpisodeStats,
    violation: Option<Violation>,
    enforce_no_false_blame: bool,
    /// Streaming causal-reachability monitor (DESIGN.md §17): sees every
    /// emitted event — unlike the ring-buffered trace, which may evict
    /// the originating send before its verdict lands.
    causal: CausalLedger,
}

impl<'w> Episode<'w> {
    fn new(
        world: &'w SimWorld,
        cfg: &EpisodeConfig,
        seed: u64,
        opts: &'w EpisodeOptions,
    ) -> Self {
        let n = world.num_hosts();
        let duration = world.config().duration;
        let plan = FaultPlan::new(cfg.faults, seed, n, duration)
            .expect("episode fault configurations are validated by construction");
        let mut arng = StdRng::seed_from_u64(seed ^ ADV_SALT);
        let adv =
            AdversarySets::sample(n, cfg.dropper_fraction, cfg.colluder_fraction, &mut arng)
                .sample_byzantine(
                    n,
                    cfg.withholder_fraction,
                    cfg.delayer_fraction,
                    cfg.replayer_fraction,
                    &mut arng,
                )
                .sample_extended(
                    n,
                    cfg.coalition_fraction,
                    cfg.adaptive_fraction,
                    &mut arng,
                );
        let mut rng = StdRng::seed_from_u64(seed ^ MSG_SALT);

        // Pick flows, preferring routes with at least one intermediate hop
        // so stewardship has a forwarder to judge. The accepting route is
        // kept: it is what every send and retransmit of the flow will take.
        let mut flows = Vec::new();
        let mut flow_routes: Vec<Arc<[usize]>> = Vec::new();
        let max_tries = (n * n * 8).max(64);
        for min_len in [3usize, 2] {
            let mut tries = 0;
            while flows.len() < cfg.flows && tries < max_tries {
                tries += 1;
                let src = rng.gen_range(0..n);
                let dst = rng.gen_range(0..n);
                if src == dst {
                    continue;
                }
                if let Some(route) = world.route(src, world.node(dst).id()) {
                    if route.len() >= min_len && route.last() == Some(&dst) {
                        flows.push((src, dst));
                        flow_routes.push(route.into());
                    }
                }
            }
            if flows.len() >= cfg.flows {
                break;
            }
        }

        // Spread each flow's messages across the run, leaving headroom at
        // the end for the full retry schedule to play out.
        let lo = 60_000_000u64.min(duration.as_micros() / 4);
        let hi = duration.as_micros().saturating_sub(120_000_000).max(lo + 1);
        let mut sends = Vec::new();
        for flow in 0..flows.len() {
            for _ in 0..cfg.messages_per_flow {
                sends.push((flow, SimTime::from_micros(rng.gen_range(lo..hi))));
            }
        }

        let protocol = ConciliumConfig::default();
        // Strict no-false-blame needs two things: losses explained by the
        // network alone (no transport/coalition interference with the
        // evidence), and probing dense enough that every Δ window is
        // expected to hold admissible samples from each vantage. Sparsely
        // probed worlds (inter-probe gaps beyond Δ, e.g. the fuzzer's
        // shared-bottleneck world) legitimately exhibit the paper's
        // false-positive rate even on a clean transport, so their
        // standings are tallied, not treated as violations.
        let enforce_no_false_blame =
            cfg.network_only() && world.config().max_probe_time <= protocol.delta;
        let members = (0..n).map(|h| world.node(h).id()).collect();
        let dht = AccusationDht::new(members, protocol.dht_replication);
        let num_msgs = sends.len();
        Episode {
            world,
            opts,
            seed,
            accuracy: world.config().probe_accuracy,
            delta: protocol.delta,
            protocol,
            plan,
            adv,
            rng,
            flows,
            flow_routes,
            sends,
            infos: vec![None; num_msgs],
            msg_state: vec![MsgState::Unregistered; num_msgs],
            retrans: RetransmitQueue::new(data_retry_policy()),
            pairs: BTreeMap::new(),
            dht,
            queue: EventQueue::new(),
            ticks: BTreeSet::new(),
            last_tick: None,
            hasher: TraceHasher::new(),
            trace: Trace::with_capacity(opts.trace_capacity),
            metrics: Registry::new(),
            tallies: EventTallies::default(),
            fields_scratch: Vec::with_capacity(8),
            stats: EpisodeStats::default(),
            violation: None,
            enforce_no_false_blame,
            causal: CausalLedger::new(),
        }
    }

    /// Records `event` at virtual time `at` in every sink that must
    /// agree: the chained trace hash (canonical encoding: timestamp
    /// first, then the event's own fields), the ring-buffered structured
    /// trace, and the per-episode metrics registry. One choke point makes
    /// the metric counters *derived from* the event stream, which is what
    /// lets [`check_metrics_conservation`] cross-check them against the
    /// episode's independent [`EpisodeStats`] bookkeeping at the end of
    /// the run.
    fn emit(&mut self, at: SimTime, event: TraceEvent) {
        self.fields_scratch.clear();
        self.fields_scratch.push(at.as_micros());
        event.hash_fields(&mut self.fields_scratch);
        self.hasher.record(event.label(), &self.fields_scratch);
        self.count(&event);
        // The causal ledger observes the same stream the hasher absorbs —
        // a read-only derivation, so digests are untouched. An orphan
        // (terminal event unreachable from its send/admit) is an
        // invariant violation like any other.
        if let Some(orphan) = self.causal.observe(&event) {
            if self.violation.is_none() {
                self.violation = Some(Violation {
                    kind: InvariantKind::CausalOrphan,
                    at,
                    detail: orphan.detail,
                    entity: Some(orphan.entity),
                });
            }
        }
        self.trace.push(at.as_micros(), event);
    }

    /// Metric counters derived from the event stream, tallied densely and
    /// folded into the registry by [`EventTallies::flush`] at the end of
    /// the run. Every count here is deterministic — a function of virtual
    /// time and the seed only.
    #[deny(clippy::wildcard_enum_match_arm)]
    fn count(&mut self, event: &TraceEvent) {
        let t = &mut self.tallies;
        match event {
            TraceEvent::MessageSent { .. } => t.sent += 1,
            TraceEvent::ChurnBlocked { .. } => t.churn_blocked += 1,
            TraceEvent::RouteOutcome { delivered, .. } => {
                if *delivered {
                    t.delivered += 1;
                }
            }
            TraceEvent::FaultInjected { .. } => t.faults_injected += 1,
            TraceEvent::AckReceived { .. } => t.acks += 1,
            TraceEvent::RetryFired { .. } => t.retries += 1,
            TraceEvent::MessageExpired { .. } => t.expired += 1,
            TraceEvent::SnapshotsGathered { observations, .. } => {
                t.snapshot_batches += 1;
                t.snapshot_observations += *observations;
            }
            TraceEvent::BlameComputed { .. } => t.judged += 1,
            TraceEvent::VerdictAccumulated { guilty, .. } => {
                t.verdicts += 1;
                if *guilty {
                    t.guilty_verdicts += 1;
                }
            }
            TraceEvent::Escalated { .. } => t.escalations += 1,
            TraceEvent::Dissolved { .. } => t.dissolved += 1,
            TraceEvent::CulpritStanding { .. } => t.standings += 1,
            TraceEvent::AccusationRevised { .. } => t.revisions += 1,
            TraceEvent::AccusationStored { .. } => t.accusations_stored += 1,
            TraceEvent::DhtRefused { .. } => t.dht_refused += 1,
            // Service-mode events never occur inside a network episode;
            // they belong to the serve chaos arm's own accounting.
            TraceEvent::ReportAdmitted { .. }
            | TraceEvent::LoadShed { .. }
            | TraceEvent::ReportCompleted { .. }
            | TraceEvent::JournalCommitted { .. }
            | TraceEvent::SupervisorRestarted { .. }
            | TraceEvent::DegradedEntered { .. }
            | TraceEvent::RecoveryReplayed { .. } => {}
            TraceEvent::Tick => t.ticks += 1,
        }
    }

    /// Cross-checks the event-derived metric counters against the
    /// episode's independent [`EpisodeStats`] bookkeeping. The two are
    /// maintained on different code paths, so a disagreement means an
    /// event was emitted without its state transition or vice versa.
    fn metrics_conservation_check(&mut self, at: SimTime) {
        let expected = [
            // A MessageSent event is emitted for every attempt, including
            // the ones the steward then backs off from for churn.
            (
                "episode.sent",
                (self.stats.sent + self.stats.churn_blocked) as u64,
            ),
            ("episode.churn_blocked", self.stats.churn_blocked as u64),
            ("episode.delivered", self.stats.delivered as u64),
            ("episode.expired", self.stats.expired as u64),
            ("episode.judged", self.stats.judged as u64),
            ("episode.guilty_verdicts", self.stats.guilty as u64),
            ("episode.verdicts", self.stats.judged as u64),
            ("episode.escalations", self.stats.escalations as u64),
            ("episode.dissolved", self.stats.dissolved as u64),
            (
                "episode.standings",
                (self.stats.escalations - self.stats.dissolved) as u64,
            ),
            ("episode.dht_refused", self.stats.dht_refused as u64),
            ("episode.retries", self.retrans.attempts_fired()),
        ];
        if let Some(v) = check_metrics_conservation(&self.metrics, &expected, at) {
            self.violation = Some(v);
        }
    }

    fn run(mut self) -> EpisodeReport {
        let _span = concilium_obs::span("episode.run");
        for (idx, &(_, t)) in self.sends.iter().enumerate() {
            self.queue.schedule(t, Ev::Send(idx));
        }
        let mut last_t = SimTime::ZERO;
        while self.violation.is_none() {
            let Some((t, ev)) = self.queue.pop() else { break };
            last_t = t;
            self.stats.events += 1;
            match ev {
                Ev::Send(idx) => self.on_send(idx, t),
                Ev::Ack(idx) => self.on_ack_event(idx, t),
                Ev::Tick => self.emit(t, TraceEvent::Tick),
            }
            if self.violation.is_some() {
                break;
            }
            self.poll_retransmits(t);
            if self.violation.is_some() {
                break;
            }
            if let Some(v) = check_conservation(
                self.stats.sent,
                self.stats.settled,
                self.stats.expired,
                self.retrans.pending(),
                t,
            ) {
                self.violation = Some(v);
                break;
            }
            self.schedule_tick();
        }
        if self.violation.is_none() {
            self.tomography_check();
        }
        // Deterministic end-of-run instruments: the event tallies, queue
        // pressure, and the retry layer's virtual-time bookkeeping.
        // Recorded before the conservation check so a report always
        // carries them.
        self.tallies.flush(&mut self.metrics);
        self.metrics
            .set_gauge("queue.depth_high_water", self.queue.depth_high_water() as f64);
        self.metrics.inc("retry.attempts_fired", self.retrans.attempts_fired());
        self.metrics
            .inc("retry.backoff_total_us", self.retrans.backoff_total().as_micros());
        if self.violation.is_none() {
            self.metrics_conservation_check(last_t);
        }
        EpisodeReport {
            violation: self.violation,
            trace_hash: self.hasher.hex(),
            stats: self.stats,
            trace: self.trace,
            metrics: self.metrics,
        }
    }

    fn on_send(&mut self, idx: usize, t: SimTime) {
        let _span = concilium_obs::span("episode.send");
        let (flow, _) = self.sends[idx];
        let (_, dst) = self.flows[flow];
        let target = self.world.node(dst).id();
        self.emit(t, TraceEvent::MessageSent { msg: idx as u64, flow: flow as u64 });
        let route = self.flow_routes[flow].clone();
        // A message whose route crosses a crashed host cannot gather the
        // commitments stewardship needs; the steward sees the churn and
        // backs off rather than judging anyone.
        if route.iter().any(|&h| !self.plan.host_up(h, t)) {
            self.stats.churn_blocked += 1;
            self.emit(t, TraceEvent::ChurnBlocked { msg: idx as u64 });
            return;
        }
        let outcome = self.world.route_fate_on_route(&route, t, &self.adv);
        let fate = self.plan.fate(t);
        // Plan-level drops model loss on the first overlay hop: the next
        // hop never receives the message and never commits to it.
        let plan_dropped = !fate.delivered();
        let taken = outcome.hops();
        let received_upto = if plan_dropped { 0 } else { taken - 1 };
        let truly_delivered = !plan_dropped && outcome.delivered();
        let msg = MsgId(idx as u64 + 1);
        self.retrans.on_send(msg, target, t, &mut self.rng);
        self.msg_state[idx] = MsgState::InFlight;
        self.stats.sent += 1;
        if truly_delivered {
            self.stats.delivered += 1;
        }
        self.infos[idx] = Some(MsgInfo {
            msg,
            flow,
            sent_at: t,
            route,
            received_upto,
            truly_delivered,
        });
        self.emit(
            t,
            TraceEvent::RouteOutcome {
                msg: idx as u64,
                received_upto: received_upto as u64,
                delivered: truly_delivered,
            },
        );
        if !truly_delivered {
            // Name the layer that killed the message: plan-level drops
            // model transport loss on the first overlay hop; otherwise
            // the world's route walk says which layer refused it.
            let kind = if plan_dropped {
                Some(FaultKind::TransportDrop)
            } else {
                match outcome {
                    RouteFate::DroppedByHost { .. } => Some(FaultKind::HostDrop),
                    RouteFate::DroppedByNetwork { .. } => Some(FaultKind::NetworkDrop),
                    RouteFate::Delivered { .. } => None,
                }
            };
            if let Some(kind) = kind {
                self.emit(t, TraceEvent::FaultInjected { msg: idx as u64, kind });
            }
        }
        if truly_delivered && self.plan.host_up(dst, t) && self.plan.ack_arrives(&self.adv, dst)
        {
            self.queue.schedule(t + RTT, Ev::Ack(idx));
        }
    }

    fn on_ack_event(&mut self, idx: usize, t: SimTime) {
        let _span = concilium_obs::span("episode.ack");
        self.emit(t, TraceEvent::AckReceived { msg: idx as u64 });
        let info = self.infos[idx].clone().expect("acks only follow sends");
        let (src, dst) = self.flows[info.flow];
        let dest = self.world.node(dst);
        let ack = Ack::issue(
            dest.id(),
            self.world.node(src).id(),
            AckBody::Single(info.msg),
            t,
            dest.keys(),
            &mut self.rng,
        );
        if !ack.verify(&dest.public_key()) {
            // A steward discards unverifiable acks; ours are well-formed
            // by construction, so this never settles anything.
            return;
        }
        let settled = self.retrans.on_ack(&ack, None);
        if settled == 0 {
            return; // duplicate ack for an already-settled message
        }
        if settled > 1 || self.msg_state[idx] != MsgState::InFlight {
            self.violation = Some(Violation {
                kind: InvariantKind::RetryConservation,
                at: t,
                entity: Some(EntityRef::message(idx as u64)),
                detail: format!(
                    "ack settled {settled} entries for message {} in state {:?}",
                    info.msg.0, self.msg_state[idx]
                ),
            });
            return;
        }
        self.msg_state[idx] = MsgState::Settled;
        self.stats.settled += settled;
    }

    fn poll_retransmits(&mut self, t: SimTime) {
        let _span = concilium_obs::span("episode.poll");
        for p in self.retrans.due(t) {
            let idx = (p.msg.0 - 1) as usize;
            self.emit(
                t,
                TraceEvent::RetryFired { msg: idx as u64, attempt: u64::from(p.attempt) },
            );
            let info = self.infos[idx].clone().expect("registered messages have info");
            let (_, dst) = self.flows[info.flow];
            // The retransmission crosses the network as it is *now*, along
            // the flow's (static) route.
            let transported = self.plan.transport_delivers();
            let route_up = info.route.iter().all(|&h| self.plan.host_up(h, t));
            let reaches = transported
                && route_up
                && self
                    .world
                    .route_fate_on_route(&info.route, t, &self.adv)
                    .delivered();
            if reaches {
                if let Some(i) = self.infos[idx].as_mut() {
                    if !i.truly_delivered {
                        i.truly_delivered = true;
                        i.received_upto = i.route.len() - 1;
                    }
                }
                if self.plan.ack_arrives(&self.adv, dst) {
                    let _ = self.queue.try_schedule(t + RTT, Ev::Ack(idx));
                }
            }
        }
        for p in self.retrans.expired(t) {
            let idx = (p.msg.0 - 1) as usize;
            self.emit(t, TraceEvent::MessageExpired { msg: idx as u64 });
            if self.msg_state[idx] != MsgState::InFlight {
                self.violation = Some(Violation {
                    kind: InvariantKind::RetryConservation,
                    at: t,
                    entity: Some(EntityRef::message(idx as u64)),
                    detail: format!(
                        "message {} expired while in state {:?}",
                        p.msg.0, self.msg_state[idx]
                    ),
                });
                return;
            }
            self.msg_state[idx] = MsgState::Expired;
            self.stats.expired += 1;
            self.judge(idx, t);
            if self.violation.is_some() {
                return;
            }
        }
    }

    fn schedule_tick(&mut self) {
        if let Some(next) = self.retrans.next_event_time() {
            let micros = next.as_micros();
            // Consecutive events usually re-derive the same next
            // retransmission time; the memo skips the set probe for them.
            if self.last_tick == Some(micros) {
                return;
            }
            self.last_tick = Some(micros);
            if self.ticks.insert(micros) {
                let _ = self.queue.try_schedule(next, Ev::Tick);
            }
        }
    }

    /// The steward concludes a drop: judge the first forwarder, push the
    /// verdict into the pair's m-of-w window, escalate at the quota.
    fn judge(&mut self, idx: usize, now: SimTime) {
        let _span = concilium_obs::span("episode.judge");
        let info = self.infos[idx].clone().expect("expired messages have info");
        if info.route.len() < 3 {
            self.stats.skipped_short_route += 1;
            return;
        }
        if info.received_upto < 1 {
            // The first forwarder never received the message, so there is
            // no forwarding commitment to judge against (§3.4).
            self.stats.skipped_uncommitted += 1;
            return;
        }
        let (a, b, c) = (info.route[0], info.route[1], info.route[2]);
        if !self.plan.host_up(a, now) {
            self.stats.skipped_judge_down += 1;
            return;
        }
        // Evidence is centered on the midpoint of the message's lifetime:
        // every attempt between send and expiry failed, so that window
        // sits squarely inside whatever outage killed the message.
        let t_ev = evidence_time(info.sent_at, now);
        let ev = self.gather_evidence(a, b, c, t_ev);
        if !ev.covered() {
            self.stats.skipped_uncovered += 1;
            return;
        }
        self.emit(
            now,
            TraceEvent::SnapshotsGathered {
                links: ev.per_link.len() as u64,
                observations: ev.per_link.iter().map(|(_, obs)| obs.len() as u64).sum(),
            },
        );
        let link_ev = ev.to_link_evidence();
        let blame = (self.opts.blame_fn)(&link_ev, self.accuracy);
        self.emit(
            now,
            TraceEvent::BlameComputed {
                msg: idx as u64,
                blame_ppb: ppb(blame),
                accuracy_ppb: ppb(self.accuracy),
                links: ev
                    .per_link
                    .iter()
                    .map(|(link, obs)| LinkObsSummary {
                        link: u64::from(link.0),
                        up: obs.iter().filter(|&&(_, up)| up).count() as u64,
                        down: obs.iter().filter(|&&(_, up)| !up).count() as u64,
                    })
                    .collect(),
            },
        );
        if let Some(mut v) =
            check_blame(&link_ev, self.accuracy, blame, self.opts.check_blame_oracle, now)
        {
            v.entity = Some(EntityRef::message(idx as u64));
            self.violation = Some(v);
            return;
        }
        let verdict = Verdict::from_blame(blame, self.protocol.blame_threshold);
        self.stats.judged += 1;
        if verdict.is_guilty() {
            self.stats.guilty += 1;
        }
        let window_cap = self.protocol.window;
        let quota = self.protocol.guilty_quota;
        let (escalates, window_violation, window_guilty, window_len) = {
            let pair = self
                .pairs
                .entry((a, b))
                .or_insert_with(|| PairState { window: VerdictWindow::new(window_cap), accused: false });
            pair.window.push(verdict);
            let escalates =
                verdict.is_guilty() && !pair.accused && pair.window.should_accuse(quota);
            if escalates {
                pair.accused = true;
            }
            (
                escalates,
                check_window(&pair.window, now),
                pair.window.guilty_count() as u64,
                pair.window.len() as u64,
            )
        };
        self.emit(
            now,
            TraceEvent::VerdictAccumulated {
                judge: a as u64,
                accused: b as u64,
                guilty: verdict.is_guilty(),
                window_guilty,
                window_len,
            },
        );
        if let Some(mut v) = window_violation {
            v.entity = Some(EntityRef::host(b as u64));
            self.violation = Some(v);
            return;
        }
        if escalates {
            self.stats.escalations += 1;
            self.emit(
                now,
                TraceEvent::Escalated { msg: idx as u64, judge: a as u64, accused: b as u64 },
            );
            self.escalate(idx, now, &ev);
        }
    }

    /// Evidence available to `judge` about the IP path from `accused` to
    /// `next`, censored by the fault plan: remote snapshots must survive
    /// the transport, come from a live origin, and carry a timestamp
    /// inside the Δ window; colluders lie to frame non-colluders.
    ///
    /// Observations are pooled from two vantages: the judge's own archive
    /// plus its peers, and the *accused's* vouching peers — the hosts
    /// whose probe trees actually cover the accused's path links
    /// (Figure 4). Origins appearing in both pools are counted once.
    fn gather_evidence(
        &mut self,
        judge: usize,
        accused: usize,
        next: usize,
        t0: SimTime,
    ) -> Gathered {
        let world = self.world;
        let next_id = world.node(next).id();
        let Some(path) = world.path_to_peer(accused, next_id) else {
            return Gathered::default();
        };
        let links: Vec<LinkId> = path.links().to_vec();
        let mut per_link = Vec::with_capacity(links.len());
        for link in links {
            let mut raw = world.probe_evidence(judge, link, t0, self.delta, Some(accused));
            let seen: BTreeSet<usize> = raw.iter().map(|&(origin, _)| origin).collect();
            for (origin, up) in
                world.probe_evidence(accused, link, t0, self.delta, Some(accused))
            {
                if !seen.contains(&origin) {
                    raw.push((origin, up));
                }
            }
            let mut kept = Vec::new();
            for (origin, up) in raw {
                if origin != judge {
                    if !self.plan.transport_delivers() {
                        continue;
                    }
                    if !self.plan.host_up(origin, t0) {
                        continue;
                    }
                }
                // Replayers and delayers mis-stamp even their own
                // snapshots; stale stamps are inadmissible regardless of
                // who gathered them (§3.4 freshness).
                let stamped = self.plan.snapshot_time(&self.adv, origin, t0);
                if stamped.abs_diff(t0) > self.delta {
                    continue;
                }
                // Colluders and coalition members flip their reports:
                // links toward fellow liars are sworn down (shielding),
                // links toward everyone else sworn up (framing, §4.3).
                let reported = if self.adv.lies_in_snapshots(origin) {
                    !self.adv.is_shielded(accused)
                } else {
                    up
                };
                kept.push((origin, reported));
            }
            per_link.push((link, kept));
        }
        Gathered { per_link }
    }

    /// Evidence windows a defender cites across the message's lifetime:
    /// the midpoint of the failed-retry span, the send instant, and the
    /// expiry. A single Δ window straddling an outage boundary — or a
    /// pair of *serial* outages on different path links, each covering
    /// too little of one window for Eq. 3's per-link exoneration — can
    /// leave residual blame on an honest forwarder; the accusation
    /// stands only if every window implicates the host. Gathers the
    /// evidence for each window in turn and returns the midpoint batch
    /// (the one a revision amendment would carry) plus whether any
    /// window exonerated the network.
    fn defense(
        &mut self,
        judge: usize,
        accused: usize,
        next: usize,
        info: &MsgInfo,
        now: SimTime,
    ) -> (Gathered, bool) {
        let threshold = self.protocol.blame_threshold;
        let midpoint =
            self.gather_evidence(judge, accused, next, evidence_time(info.sent_at, now));
        let mut exonerated =
            (self.opts.blame_fn)(&midpoint.to_link_evidence(), self.accuracy) < threshold;
        for t0 in [info.sent_at, now] {
            if exonerated {
                break;
            }
            let ev = self.gather_evidence(judge, accused, next, t0);
            exonerated = (self.opts.blame_fn)(&ev.to_link_evidence(), self.accuracy) < threshold;
        }
        (midpoint, exonerated)
    }

    /// Walks the §3.5 revision chain on ground truth plus the judging
    /// combinator, returning where the blame comes to rest and the
    /// evidence gathered for each amendment (reused when the chain is
    /// actually built, so the stored chain matches the walk).
    fn walk(&mut self, info: &MsgInfo, now: SimTime) -> (WalkEnd, Vec<Option<Gathered>>) {
        let route = info.route.clone();
        let dst = *route.last().expect("routes are non-empty");
        let mut rev_evidence = Vec::new();
        if info.truly_delivered
            && !self.adv.is_ack_withholder(dst)
            && !self.adv.is_coalition(dst)
            && self.plan.host_up(dst, now)
        {
            // The destination can re-issue a signed ack on demand: the
            // "drop" was phantom and the accusation dissolves.
            return (WalkEnd::Dissolved, rev_evidence);
        }
        let mut i = 1;
        loop {
            let x = route[i];
            if self.adv.is_dropper(x) || !self.plan.host_up(x, now) {
                // Refuses to answer or cannot: silence keeps the blame.
                return (WalkEnd::Standing(i), rev_evidence);
            }
            if i + 1 == route.len() {
                // The destination held the message and never acked it.
                return (WalkEnd::Standing(i), rev_evidence);
            }
            let y = route[i + 1];
            if info.received_upto > i {
                if i + 1 == route.len() - 1 {
                    // Y is the destination: its receive commitment plus
                    // the missing ack carry the blame without evidence.
                    rev_evidence.push(None);
                    i += 1;
                    continue;
                }
                let z = route[i + 2];
                let (ev, exonerated) = self.defense(x, y, z, info, now);
                if !exonerated {
                    rev_evidence.push(Some(ev));
                    i += 1;
                    continue;
                }
                // X holds Y's commitment but its own evidence shows the
                // network at fault downstream: the chain dissolves.
                return (WalkEnd::Dissolved, rev_evidence);
            }
            // Y never received the message: the loss happened between X
            // and Y. X's rebuttal is the evidence about that path.
            let (_, exonerated) = self.defense(route[0], x, y, info, now);
            if !exonerated {
                return (WalkEnd::Standing(i), rev_evidence);
            }
            return (WalkEnd::Dissolved, rev_evidence);
        }
    }

    fn escalate(&mut self, idx: usize, now: SimTime, trigger_ev: &Gathered) {
        let info = self.infos[idx].clone().expect("escalations follow judgments");
        let (end, rev_evidence) = self.walk(&info, now);
        match end {
            WalkEnd::Dissolved => {
                self.stats.dissolved += 1;
                self.emit(now, TraceEvent::Dissolved { msg: idx as u64 });
            }
            WalkEnd::Standing(ci) => {
                let culprit = info.route[ci];
                self.emit(
                    now,
                    TraceEvent::CulpritStanding {
                        msg: idx as u64,
                        position: ci as u64,
                        culprit: culprit as u64,
                    },
                );
                let honest = !self.adv.is_adversarial(culprit);
                // A crash anywhere on the route during the message's
                // lifetime can defeat every retransmission without the
                // network being at fault; such standings are churn
                // casualties, not combinator bugs.
                let route_churned = info.route.iter().any(|&h| {
                    self.plan
                        .outage(h)
                        .is_some_and(|(s, e)| s <= now && e >= info.sent_at)
                });
                if honest && !route_churned {
                    if self.enforce_no_false_blame {
                        self.violation = Some(Violation {
                            kind: InvariantKind::FalseAccusation,
                            at: now,
                            entity: Some(EntityRef::host(culprit as u64)),
                            detail: format!(
                                "honest host {culprit} (route position {ci} of {:?}) ends \
                                 the accusation chain as culprit for message {} sent at {}",
                                info.route, info.msg.0, info.sent_at
                            ),
                        });
                        return;
                    }
                    // Under ambient transport loss a false standing is the
                    // paper's bounded false-positive rate, not a bug; the
                    // chain mechanics below must still hold for it.
                    self.stats.false_standings += 1;
                }
                self.check_chain(&info, ci, now, trigger_ev, &rev_evidence);
            }
        }
    }

    /// Builds the real accusation chain for a blameworthy culprit, hands
    /// revisions over the lossy transport, stores the result in the DHT,
    /// and checks the chain-integrity and DHT-durability invariants.
    fn check_chain(
        &mut self,
        info: &MsgInfo,
        culprit_pos: usize,
        now: SimTime,
        trigger_ev: &Gathered,
        rev_evidence: &[Option<Gathered>],
    ) {
        let world = self.world;
        let route = &info.route;
        let next_pos = 2.min(route.len() - 1);
        let original = self.build_accusation(info, 0, 1, next_pos, Some(trigger_ev));
        let mut chain = AccusationChain::new(original);
        let policy = RetryPolicy::default();
        let mut expected_culprit_pos = culprit_pos;
        for (j, ev) in rev_evidence.iter().enumerate() {
            let accuser_pos = j + 1;
            let accused_pos = j + 2;
            let next_pos = (accused_pos + 1).min(route.len() - 1);
            let revision =
                self.build_accusation(info, accuser_pos, accused_pos, next_pos, ev.as_ref());
            let plan = &mut self.plan;
            let outcome = chain.amend_with_retry(
                &policy,
                |_, _| if plan.transport_delivers() { Some(revision.clone()) } else { None },
                &mut self.rng,
            );
            match outcome {
                Ok(HandoffOutcome::Amended { .. }) => {
                    self.emit(
                        now,
                        TraceEvent::AccusationRevised {
                            step: j as u64,
                            accuser_pos: accuser_pos as u64,
                            accused_pos: accused_pos as u64,
                            amended: true,
                        },
                    );
                }
                Ok(HandoffOutcome::Withheld { .. }) => {
                    // Every handoff attempt was lost: the chain stands
                    // short and — per §3.5 — silence keeps the blame on
                    // the hop that failed to answer.
                    self.emit(
                        now,
                        TraceEvent::AccusationRevised {
                            step: j as u64,
                            accuser_pos: accuser_pos as u64,
                            accused_pos: accused_pos as u64,
                            amended: false,
                        },
                    );
                    self.stats.handoffs_withheld += 1;
                    expected_culprit_pos = accuser_pos;
                    break;
                }
                Err(err) => {
                    self.violation = Some(Violation {
                        kind: InvariantKind::ChainIntegrity,
                        at: now,
                        entity: Some(EntityRef::message(info.msg.0 - 1)),
                        detail: format!("amendment rejected: {err:?}"),
                    });
                    return;
                }
            }
        }
        let expected_culprit = world.node(route[expected_culprit_pos]).id();
        if chain.culprit() != expected_culprit || chain.len() != expected_culprit_pos {
            self.violation = Some(Violation {
                kind: InvariantKind::ChainIntegrity,
                at: now,
                entity: Some(EntityRef::message(info.msg.0 - 1)),
                detail: format!(
                    "chain of {} links ends at {:?}, expected route position \
                     {expected_culprit_pos}",
                    chain.len(),
                    chain.culprit()
                ),
            });
            return;
        }
        for (k, link) in chain.links().iter().enumerate() {
            let pos = route.iter().position(|&h| world.node(h).id() == link.accused());
            if pos != Some(k + 1) {
                self.violation = Some(Violation {
                    kind: InvariantKind::ChainIntegrity,
                    at: now,
                    entity: Some(EntityRef::message(info.msg.0 - 1)),
                    detail: format!(
                        "link {k} accuses {:?} at route position {pos:?}, expected {}",
                        link.accused(),
                        k + 1
                    ),
                });
                return;
            }
        }
        let key_of = |id: Id| world.public_key_of(id);
        if let Err(err) = chain.verify(&key_of, &self.protocol) {
            self.violation = Some(Violation {
                kind: InvariantKind::ChainIntegrity,
                at: now,
                entity: Some(EntityRef::message(info.msg.0 - 1)),
                detail: format!("stored chain fails verification: {err:?}"),
            });
            return;
        }
        self.stats.chains_checked += 1;

        // File the terminal accusation under the culprit's key with
        // quorum retries over the same lossy transport.
        let final_acc = chain
            .links()
            .last()
            .expect("chains are never empty")
            .clone();
        let culprit_pk = world.node(route[expected_culprit_pos]).public_key();
        let plan = &mut self.plan;
        let result = self.dht.insert_with_retry(
            &culprit_pk,
            final_acc.clone(),
            &policy,
            |replica, _| match world.index_of(replica) {
                Some(h) => plan.host_up(h, now) && plan.transport_delivers(),
                None => false,
            },
            &mut self.rng,
        );
        match result {
            Ok(stored) => {
                self.emit(
                    now,
                    TraceEvent::AccusationStored {
                        culprit: route[expected_culprit_pos] as u64,
                        replicas: stored as u64,
                    },
                );
                if stored < self.dht.write_quorum() {
                    self.violation = Some(Violation {
                        kind: InvariantKind::DhtDurability,
                        at: now,
                        entity: Some(EntityRef::host(route[expected_culprit_pos] as u64)),
                        detail: format!(
                            "insert reported success with {stored} replicas, quorum is {}",
                            self.dht.write_quorum()
                        ),
                    });
                    return;
                }
                let fetched = self.dht.fetch(&culprit_pk);
                let ours = fetched.iter().find(|a| {
                    a.accuser() == final_acc.accuser()
                        && a.context().msg == final_acc.context().msg
                });
                match ours {
                    None => {
                        self.violation = Some(Violation {
                            kind: InvariantKind::DhtDurability,
                            at: now,
                            entity: Some(EntityRef::host(route[expected_culprit_pos] as u64)),
                            detail: "quorum-acknowledged accusation is not fetchable".into(),
                        });
                    }
                    Some(stored_acc) => {
                        if let Err(err) = stored_acc.verify(&key_of, &self.protocol) {
                            self.violation = Some(Violation {
                                kind: InvariantKind::DhtDurability,
                                at: now,
                                entity: Some(
                                    EntityRef::host(route[expected_culprit_pos] as u64),
                                ),
                                detail: format!(
                                    "fetched accusation fails verification: {err:?}"
                                ),
                            });
                        }
                    }
                }
            }
            Err(_) => {
                // A typed quorum failure under heavy loss is a legitimate
                // refusal, not a durability violation.
                self.emit(
                    now,
                    TraceEvent::DhtRefused { culprit: route[expected_culprit_pos] as u64 },
                );
                self.stats.dht_refused += 1;
            }
        }
    }

    /// Builds a self-verifying accusation by `route[accuser_pos]` against
    /// `route[accused_pos]`, re-signing the gathered observations as the
    /// snapshots the verifier would recompute blame from.
    fn build_accusation(
        &mut self,
        info: &MsgInfo,
        accuser_pos: usize,
        accused_pos: usize,
        next_pos: usize,
        ev: Option<&Gathered>,
    ) -> Accusation {
        let world = self.world;
        let route = &info.route;
        let accuser = world.node(route[accuser_pos]);
        let accused = world.node(route[accused_pos]);
        let dest_id = world.node(*route.last().expect("routes are non-empty")).id();
        let t0 = info.sent_at;
        let context = DropContext {
            msg: info.msg,
            accuser: accuser.id(),
            accused: accused.id(),
            next_hop: world.node(route[next_pos]).id(),
            dest: dest_id,
            at: t0,
        };
        let commitment = ForwardingCommitment::issue(
            info.msg,
            accuser.id(),
            accused.id(),
            dest_id,
            t0,
            accused.keys(),
            &mut self.rng,
        );
        let (path_links, snapshots) = match ev {
            Some(gathered) => {
                let links: Vec<LinkId> =
                    gathered.per_link.iter().map(|(link, _)| *link).collect();
                let mut snaps = Vec::new();
                for (link, obs) in &gathered.per_link {
                    for &(origin, up) in obs {
                        let o = world.node(origin);
                        let stamped = self.plan.snapshot_time(&self.adv, origin, t0);
                        snaps.push(TomographySnapshot::new_signed(
                            o.id(),
                            stamped,
                            vec![LinkObservation::binary(*link, up)],
                            o.keys(),
                            &mut self.rng,
                        ));
                    }
                }
                (links, snaps)
            }
            None => (Vec::new(), Vec::new()),
        };
        Accusation::build(
            context,
            commitment,
            path_links,
            snapshots,
            &self.protocol,
            accuser.keys(),
            &mut self.rng,
        )
    }

    /// End-of-episode tomography cross-check: simulate fresh stripes on a
    /// couple of hosts' trees against the world's ground-truth link state,
    /// then require tolerant inference to stay in range, agree with strict
    /// inference on the fully-known record, and match the closed-form
    /// oracle.
    fn tomography_check(&mut self) {
        let _span = concilium_obs::span("episode.tomo_check");
        let world = self.world;
        let mut trng = StdRng::seed_from_u64(self.seed ^ TOMO_SALT);
        let n = world.num_hosts();
        let t_mid = SimTime::from_micros(world.config().duration.as_micros() / 2);
        let mut hosts = vec![0];
        if n > 1 {
            hosts.push(n / 2);
        }
        hosts.dedup();
        let mut scratch = InferScratch::default();
        for h in hosts {
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
                self.violation = Some(Violation {
                    kind: InvariantKind::IdentifiabilityBound,
                    at: t_mid,
                    entity: Some(EntityRef::host(h as u64)),
                    detail: format!(
                        "host {h}: inference units diverge from the probe matrix's \
                         {} ambiguity classes",
                        classes.num_classes()
                    ),
                });
                return;
            }
            let pass =
                |l: LinkId| if world.link_up_at(l, t_mid) { 0.95 } else { 0.05 };
            let record =
                simulate_stripes(&logical, &pass, self.opts.tomography_stripes, &mut trng);
            // Batched entry points, reusing `scratch` across the episode's
            // checks, so the DST inner loop exercises the same kernel the
            // verdict-window experiments run.
            let full = infer_pass_rates_batch(&logical, std::slice::from_ref(&record), &mut scratch)
                .remove(0);
            let partial = PartialProbeRecord::from_complete(&record);
            let tolerant =
                infer_pass_rates_tolerant_batch(&logical, std::slice::from_ref(&partial), &mut scratch)
                    .remove(0);
            match (full, tolerant) {
                (Ok(strict), Ok(tol)) => {
                    for edge in 0..logical.num_edges() {
                        let rate = tol.edge_pass_rate(edge);
                        if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                            self.violation = Some(Violation {
                                kind: InvariantKind::TomographyRange,
                                at: t_mid,
                                entity: Some(EntityRef::host(h as u64)),
                                detail: format!(
                                    "host {h}: tolerant pass rate {rate} on edge {edge}"
                                ),
                            });
                            return;
                        }
                        let diff = (rate - strict.edge_pass_rate(edge)).abs();
                        if diff > 1e-9 {
                            self.violation = Some(Violation {
                                kind: InvariantKind::TomographyDisagreement,
                                at: t_mid,
                                entity: Some(EntityRef::host(h as u64)),
                                detail: format!(
                                    "host {h}: tolerant and strict inference differ by \
                                     {diff} on edge {edge} of a fully-known record"
                                ),
                            });
                            return;
                        }
                    }
                    // Any edge inferred *down* is a localization claim;
                    // it is sound only at whole-ambiguity-class
                    // granularity — never a proper subset of links the
                    // matrix cannot tell apart.
                    for edge in 0..logical.num_edges() {
                        if tol.edge_pass_rate(edge) < 0.5
                            && !classes.is_whole_class(logical.edge_links(edge))
                        {
                            self.violation = Some(Violation {
                                kind: InvariantKind::IdentifiabilityBound,
                                at: t_mid,
                                entity: Some(EntityRef::host(h as u64)),
                                detail: format!(
                                    "host {h}: edge {edge} blamed down but its link set \
                                     is a proper subset of an ambiguity class"
                                ),
                            });
                            return;
                        }
                    }
                    match oracle_pass_rates(&logical, &record) {
                        Ok(oracle) => {
                            for node in 1..logical.num_nodes() {
                                let diff =
                                    (strict.cumulative(node) - oracle.cumulative[node]).abs();
                                if diff > 1e-6 {
                                    self.violation = Some(Violation {
                                        kind: InvariantKind::TomographyDisagreement,
                                        at: t_mid,
                                        entity: Some(EntityRef::host(h as u64)),
                                        detail: format!(
                                            "host {h}: MLE and closed-form oracle differ \
                                             by {diff} at node {node}"
                                        ),
                                    });
                                    return;
                                }
                            }
                        }
                        Err(err) => {
                            self.violation = Some(Violation {
                                kind: InvariantKind::TomographyDisagreement,
                                at: t_mid,
                                entity: Some(EntityRef::host(h as u64)),
                                detail: format!(
                                    "host {h}: oracle refused a record the MLE accepted: \
                                     {err:?}"
                                ),
                            });
                            return;
                        }
                    }
                }
                (Err(_), Err(_)) => continue,
                (Ok(_), Err(err)) => {
                    self.violation = Some(Violation {
                        kind: InvariantKind::TomographyDisagreement,
                        at: t_mid,
                        entity: Some(EntityRef::host(h as u64)),
                        detail: format!(
                            "host {h}: tolerant inference refused a fully-known record \
                             strict inference accepted: {err:?}"
                        ),
                    });
                    return;
                }
                (Err(err), Ok(_)) => {
                    self.violation = Some(Violation {
                        kind: InvariantKind::TomographyDisagreement,
                        at: t_mid,
                        entity: Some(EntityRef::host(h as u64)),
                        detail: format!(
                            "host {h}: strict inference refused a record tolerant \
                             inference accepted: {err:?}"
                        ),
                    });
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> SimWorld {
        dst_world(77)
    }

    #[test]
    fn episode_is_deterministic_and_clean_when_honest() {
        let w = world();
        let cfg = EpisodeConfig::lossy();
        let opts = EpisodeOptions::default();
        let a = run_episode(&w, &cfg, 11, &opts);
        let b = run_episode(&w, &cfg, 11, &opts);
        assert_eq!(a.trace_hash, b.trace_hash, "same seed must replay bit-identically");
        assert!(
            a.violation.is_none(),
            "honest lossy episode must satisfy every invariant: {:?}",
            a.violation
        );
        assert!(a.stats.sent > 0, "episode must drive traffic");
        assert!(a.stats.expired > 0, "a lossy plan must expire some messages");
        let c = run_episode(&w, &cfg, 12, &opts);
        assert_ne!(a.trace_hash, c.trace_hash, "different seeds must diverge");
    }

    #[test]
    fn oracle_catches_broken_blame_combinator() {
        fn mutant(_: &[LinkEvidence], _: f64) -> f64 {
            1.0
        }
        let w = world();
        let opts = EpisodeOptions { blame_fn: mutant, ..EpisodeOptions::default() };
        let grid = EpisodeConfig::standard_grid();
        let seeds: Vec<u64> = (0..8).collect();
        let out = explore_jobs(&w, &grid, &seeds, &opts, 1);
        let failure = out.failure.expect("a broken combinator must trip an invariant");
        assert_eq!(failure.violation.kind, InvariantKind::BlameOracle);
    }

    #[test]
    fn literal_is_copy_pasteable() {
        let text = EpisodeConfig::byzantine().to_literal(42);
        assert!(text.contains("// seed: 42"));
        assert!(text.contains("drop_probability: 0.05"));
        assert!(text.contains("dropper_fraction: 0.2"));
        assert!(text.contains("ChurnConfig"));
    }

    #[test]
    fn active_dimensions_counts_nonzero_knobs() {
        assert_eq!(EpisodeConfig::transparent().active_dimensions(), 0);
        assert_eq!(EpisodeConfig::churning().active_dimensions(), 1);
        assert!(EpisodeConfig::byzantine().active_dimensions() >= 5);
    }
}
