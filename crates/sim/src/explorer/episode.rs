//! The episode engine: one seeded run of the send → ack → blame → verdict
//! → accuse → store pipeline over a [`SimWorld`], every invariant checked
//! as it goes. Each step returns `Result<(), Violation>`; `run` drives the
//! queue until it drains or a step fails, then finalises the report.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use concilium::ack::{Ack, AckBody, RetransmitQueue};
use concilium::blame::LinkEvidence;
use concilium::dht::AccusationDht;
use concilium::retry::RetryPolicy;
use concilium::revision::{steward, AccusationChain, Amendment, HandoffOutcome, Resting, Window};
use concilium::{
    Accusation, ConciliumConfig, DropContext, ForwardingCommitment, Verdict, VerdictBook,
};
use concilium_obs::{
    ppb, CausalLedger, EntityRef, FaultKind, LinkObsSummary, Registry, Trace, TraceEvent,
};
use concilium_tomography::{LinkObservation, TomographySnapshot};
use concilium_types::{Id, LinkId, MsgId, SimDuration, SimTime};

use super::{EpisodeConfig, EpisodeOptions, EpisodeReport, EpisodeStats};
use crate::faults::key;
use crate::invariants::{
    check_blame, check_conservation, check_metrics_conservation, check_tomography, check_window,
    InvariantKind, TraceHasher, Violation,
};
use crate::{AdversarySets, EventQueue, FaultPlan, PathEvidence, RouteFate, SimWorld};

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

/// What a keyed draw decides (DESIGN.md §7). A draw's key is the episode
/// seed, its stage and the ids listed here, so no draw depends on how many
/// came before it: a flipped verdict or a zeroed knob moves only the
/// decisions it reaches.
#[derive(Clone, Copy)]
enum Stage {
    /// Whether a data attempt crosses the transport: (msg, attempt).
    Transport,
    /// Whether an attempt's ack comes back: (msg, attempt).
    Ack,
    /// Whether a remote snapshot reaches the judge: (judge, accused,
    /// window centre, link, origin).
    Evidence,
    /// A message's retransmit schedule: (msg).
    RetryJitter,
    /// Whether a revision handoff attempt arrives: (msg, step, attempt).
    Handoff,
    /// The backoff a handoff's retries draw and discard: (msg, step).
    HandoffJitter,
    /// Whether a DHT put reaches a replica: (msg, replica, attempt).
    DhtPut,
    /// The backoff a DHT insert's retries draw and discard: (msg).
    DhtJitter,
    /// An ack's signature nonce: (msg, attempt).
    AckNonce,
    /// A forwarding commitment's nonce: (msg, accuser position).
    CommitNonce,
    /// A re-signed snapshot's nonce: (msg, accuser position, snapshot).
    SnapshotNonce,
    /// An accusation's nonce: (msg, accuser position).
    AccuseNonce,
}

impl Stage {
    /// The key of the decision this stage makes about `ids` in the
    /// episode seeded `seed`.
    fn key(self, seed: u64, ids: &[u64]) -> u64 {
        key(seed, self as u64, ids)
    }

    /// A generator for an API that takes `&mut R`, seeded by the key.
    fn rng(self, seed: u64, ids: &[u64]) -> StdRng {
        StdRng::seed_from_u64(self.key(seed, ids))
    }
}

/// Lifts an `invariants::check_*` answer onto the step's error path,
/// naming the entity the violation is about.
fn ensure(check: Option<Violation>, entity: Option<EntityRef>) -> Result<(), Violation> {
    check.map_or(Ok(()), |v| Err(Violation { entity, ..v }))
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
    /// The ack of a message's numbered attempt.
    Ack(usize, u32),
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

pub(super) struct Episode<'w> {
    world: &'w SimWorld,
    opts: &'w EpisodeOptions,
    seed: u64,
    protocol: ConciliumConfig,
    delta: SimDuration,
    plan: FaultPlan,
    adv: AdversarySets,
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
    // (crates/sim/clippy.toml bans HashMap/HashSet).
    verdicts: VerdictBook<(usize, usize)>,
    /// (judge, accused) pairs already escalated: each pair escalates once.
    escalated: BTreeSet<(usize, usize)>,
    dht: AccusationDht,
    queue: EventQueue<Ev>,
    /// Times of the scheduled ticks that have not fired yet. A fired
    /// tick's time never recurs: after `poll_retransmits` at `t` every
    /// pending `next_send` is later than `t`.
    ticks: Vec<SimTime>,
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
    /// `gather_evidence`'s two query buffers (the judge's vantage and the
    /// accused's vouching peers), reused across judgments.
    from_judge: PathEvidence,
    from_accused: PathEvidence,
    enforce_no_false_blame: bool,
    /// Streaming causal-reachability monitor (DESIGN.md §17): sees every
    /// emitted event — unlike the ring-buffered trace, which may evict
    /// the originating send before its verdict lands.
    causal: CausalLedger,
}

impl<'w> Episode<'w> {
    pub(super) fn new(
        world: &'w SimWorld,
        cfg: &EpisodeConfig,
        seed: u64,
        opts: &'w EpisodeOptions,
    ) -> Self {
        let n = world.num_hosts();
        let duration = world.config().duration;
        let plan = cfg.validate().and_then(|()| FaultPlan::new(cfg.faults, seed, n, duration));
        let plan = plan.unwrap_or_else(|e| panic!("run_episode needs a valid EpisodeConfig: {e}"));
        let mut arng = StdRng::seed_from_u64(seed ^ ADV_SALT);
        let roles = [
            cfg.withholder_fraction,
            cfg.delayer_fraction,
            cfg.replayer_fraction,
            cfg.coalition_fraction,
            cfg.adaptive_fraction,
        ];
        let adv = AdversarySets::sample(n, cfg.dropper_fraction, cfg.colluder_fraction, &mut arng)
            .sample_roles(n, roles, &mut arng);
        // Flows and send times are drawn once, here, in order; every later
        // draw is keyed by what it decides (`Stage`).
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

        // One probe accuracy per episode, the world's: accusations are
        // built, judged and verified under it.
        let protocol = ConciliumConfig {
            probe_accuracy: world.config().probe_accuracy,
            ..ConciliumConfig::default()
        };
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
            delta: protocol.delta,
            protocol,
            plan,
            adv,
            flows,
            flow_routes,
            sends,
            infos: vec![None; num_msgs],
            msg_state: vec![MsgState::Unregistered; num_msgs],
            retrans: RetransmitQueue::new(data_retry_policy()),
            verdicts: VerdictBook::new(&protocol),
            escalated: BTreeSet::new(),
            dht,
            queue: EventQueue::new(),
            ticks: Vec::new(),
            hasher: TraceHasher::new(),
            trace: Trace::with_capacity(opts.trace_capacity),
            metrics: Registry::new(),
            tallies: EventTallies::default(),
            fields_scratch: Vec::with_capacity(8),
            stats: EpisodeStats::default(),
            from_judge: PathEvidence::new(),
            from_accused: PathEvidence::new(),
            enforce_no_false_blame,
            causal: CausalLedger::new(),
        }
    }

    /// Records `event` at virtual time `at` in every sink that must
    /// agree: the trace fingerprint (its kind's lane absorbs the
    /// timestamp, then the event's own fields), the ring-buffered structured
    /// trace, and the per-episode metrics registry. One choke point makes
    /// the metric counters *derived from* the event stream, which is what
    /// lets [`check_metrics_conservation`] cross-check them against the
    /// episode's independent [`EpisodeStats`] bookkeeping at the end of
    /// the run.
    fn emit(&mut self, at: SimTime, event: TraceEvent) -> Result<(), Violation> {
        self.fields_scratch.clear();
        self.fields_scratch.push(at.as_micros());
        event.hash_fields(&mut self.fields_scratch);
        self.hasher.record_kind(event.kind(), &self.fields_scratch);
        self.count(&event);
        // The causal ledger observes the same stream the hasher absorbs —
        // a read-only derivation, so digests are untouched. An orphan
        // (terminal event unreachable from its send/admit) is an
        // invariant violation like any other, raised once the event is
        // in the ring with the rest of the failing tail.
        let orphan = self.causal.observe(&event);
        self.trace.push(at.as_micros(), event);
        match orphan {
            None => Ok(()),
            Some(o) => Err(Violation::new(InvariantKind::CausalOrphan, at, o.entity, o.detail)),
        }
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
    fn metrics_conservation_check(&self, at: SimTime) -> Result<(), Violation> {
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
        ensure(check_metrics_conservation(&self.metrics, &expected, at), None)
    }

    pub(super) fn run(mut self) -> EpisodeReport {
        let _span = concilium_obs::span("episode.run");
        let drained = self.drive();
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
        let checked = drained.and_then(|last_t| self.metrics_conservation_check(last_t));
        EpisodeReport {
            violation: checked.err(),
            trace_hash: self.hasher.hex(),
            digest: self.hasher,
            stats: self.stats,
            trace: self.trace,
            metrics: self.metrics,
        }
    }

    /// Pops events until the queue drains, then runs the end-of-episode
    /// tomography cross-check; returns the virtual time of the last event.
    fn drive(&mut self) -> Result<SimTime, Violation> {
        for (idx, &(_, t)) in self.sends.iter().enumerate() {
            self.queue.schedule(t, Ev::Send(idx));
        }
        let mut last_t = SimTime::ZERO;
        while let Some((t, ev)) = self.queue.pop() {
            last_t = t;
            self.stats.events += 1;
            match ev {
                Ev::Send(idx) => self.on_send(idx, t)?,
                Ev::Ack(idx, attempt) => self.on_ack_event(idx, attempt, t)?,
                Ev::Tick => {
                    let fired = self.ticks.iter().position(|&tick| tick == t);
                    self.ticks.swap_remove(fired.expect("a tick stays in `ticks` until it fires"));
                    self.emit(t, TraceEvent::Tick)?;
                }
            }
            self.poll_retransmits(t)?;
            let conserved = check_conservation(
                self.stats.sent,
                self.stats.settled,
                self.stats.expired,
                self.retrans.pending(),
                t,
            );
            ensure(conserved, None)?;
            self.schedule_tick();
        }
        let _span = concilium_obs::span("episode.tomo_check");
        check_tomography(self.world, self.seed, self.opts.tomography_stripes)?;
        Ok(last_t)
    }

    fn on_send(&mut self, idx: usize, t: SimTime) -> Result<(), Violation> {
        let _span = concilium_obs::span("episode.send");
        let (flow, _) = self.sends[idx];
        let (_, dst) = self.flows[flow];
        let target = self.world.node(dst).id();
        self.emit(t, TraceEvent::MessageSent { msg: idx as u64, flow: flow as u64 })?;
        let route = self.flow_routes[flow].clone();
        // A message whose route crosses a crashed host cannot gather the
        // commitments stewardship needs; the steward sees the churn and
        // backs off rather than judging anyone.
        if route.iter().any(|&h| !self.plan.host_up(h, t)) {
            self.stats.churn_blocked += 1;
            return self.emit(t, TraceEvent::ChurnBlocked { msg: idx as u64 });
        }
        let outcome = self.world.route_fate_on_route(&route, t, &self.adv);
        // Plan-level drops model loss on the first overlay hop: the next
        // hop never receives the message and never commits to it.
        let m = idx as u64;
        self.plan.step_burst();
        let plan_dropped = !self.plan.delivers(Stage::Transport.key(self.seed, &[m, 1]));
        let taken = outcome.hops();
        let received_upto = if plan_dropped { 0 } else { taken - 1 };
        let truly_delivered = !plan_dropped && outcome.delivered();
        let msg = MsgId(idx as u64 + 1);
        let mut jitter = Stage::RetryJitter.rng(self.seed, &[m]);
        self.retrans.on_send(msg, target, t, &mut jitter);
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
        )?;
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
                self.emit(t, TraceEvent::FaultInjected { msg: idx as u64, kind })?;
            }
        }
        let ack_key = Stage::Ack.key(self.seed, &[m, 1]);
        let acked = self.plan.host_up(dst, t) && self.plan.ack_arrives(&self.adv, dst, ack_key);
        if truly_delivered && acked {
            self.queue.schedule(t + RTT, Ev::Ack(idx, 1));
        }
        Ok(())
    }

    fn on_ack_event(&mut self, idx: usize, attempt: u32, t: SimTime) -> Result<(), Violation> {
        let _span = concilium_obs::span("episode.ack");
        self.emit(t, TraceEvent::AckReceived { msg: idx as u64 })?;
        let info = self.infos[idx].clone().expect("acks only follow sends");
        let (src, dst) = self.flows[info.flow];
        let dest = self.world.node(dst);
        let ack = Ack::issue(
            dest.id(),
            self.world.node(src).id(),
            AckBody::Single(info.msg),
            t,
            dest.keys(),
            &mut Stage::AckNonce.rng(self.seed, &[idx as u64, u64::from(attempt)]),
        );
        if !ack.verify(&dest.public_key()) {
            // A steward discards unverifiable acks; ours are well-formed
            // by construction, so this never settles anything.
            return Ok(());
        }
        let settled = self.retrans.on_ack(&ack, None);
        if settled == 0 {
            return Ok(()); // duplicate ack for an already-settled message
        }
        if settled > 1 || self.msg_state[idx] != MsgState::InFlight {
            return Err(Violation::new(
                InvariantKind::RetryConservation,
                t,
                EntityRef::message(idx as u64),
                format!(
                    "ack settled {settled} entries for message {idx} in state {:?}",
                    self.msg_state[idx]
                ),
            ));
        }
        self.msg_state[idx] = MsgState::Settled;
        self.stats.settled += settled;
        Ok(())
    }

    fn poll_retransmits(&mut self, t: SimTime) -> Result<(), Violation> {
        let _span = concilium_obs::span("episode.poll");
        for p in self.retrans.due(t) {
            let idx = (p.msg.0 - 1) as usize;
            self.emit(
                t,
                TraceEvent::RetryFired { msg: idx as u64, attempt: u64::from(p.attempt) },
            )?;
            let decision = [idx as u64, u64::from(p.attempt)];
            let info = self.infos[idx].clone().expect("registered messages have info");
            let (_, dst) = self.flows[info.flow];
            // The retransmission crosses the network as it is *now*, along
            // the flow's (static) route.
            self.plan.step_burst();
            let transported = self.plan.delivers(Stage::Transport.key(self.seed, &decision));
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
                if self.plan.ack_arrives(&self.adv, dst, Stage::Ack.key(self.seed, &decision)) {
                    let _ = self.queue.try_schedule(t + RTT, Ev::Ack(idx, p.attempt));
                }
            }
        }
        for p in self.retrans.expired(t) {
            let idx = (p.msg.0 - 1) as usize;
            self.emit(t, TraceEvent::MessageExpired { msg: idx as u64 })?;
            if self.msg_state[idx] != MsgState::InFlight {
                return Err(Violation::new(
                    InvariantKind::RetryConservation,
                    t,
                    EntityRef::message(idx as u64),
                    format!("message {idx} expired while in state {:?}", self.msg_state[idx]),
                ));
            }
            self.msg_state[idx] = MsgState::Expired;
            self.stats.expired += 1;
            self.judge(idx, t)?;
        }
        Ok(())
    }

    fn schedule_tick(&mut self) {
        if let Some(next) = self.retrans.next_event_time() {
            if !self.ticks.contains(&next) {
                self.ticks.push(next);
                let _ = self.queue.try_schedule(next, Ev::Tick);
            }
        }
    }

    /// The steward concludes a drop: judge the first forwarder, push the
    /// verdict into the pair's m-of-w window, escalate the first time the
    /// pair meets the quota.
    fn judge(&mut self, idx: usize, now: SimTime) -> Result<(), Violation> {
        let _span = concilium_obs::span("episode.judge");
        let info = self.infos[idx].clone().expect("expired messages have info");
        if info.route.len() < 3 {
            self.stats.skipped_short_route += 1;
            return Ok(());
        }
        if info.received_upto < 1 {
            // The first forwarder never received the message, so there is
            // no forwarding commitment to judge against (§3.4).
            self.stats.skipped_uncommitted += 1;
            return Ok(());
        }
        let (a, b, c) = (info.route[0], info.route[1], info.route[2]);
        if !self.plan.host_up(a, now) {
            self.stats.skipped_judge_down += 1;
            return Ok(());
        }
        // Evidence is centered on the midpoint of the message's lifetime:
        // every attempt between send and expiry failed, so that window
        // sits squarely inside whatever outage killed the message.
        let t_ev = evidence_time(info.sent_at, now);
        let ev = self.gather_evidence(a, b, c, t_ev);
        if !ev.covered() {
            self.stats.skipped_uncovered += 1;
            return Ok(());
        }
        self.emit(
            now,
            TraceEvent::SnapshotsGathered {
                links: ev.per_link.len() as u64,
                observations: ev.per_link.iter().map(|(_, obs)| obs.len() as u64).sum(),
            },
        )?;
        let link_ev = ev.to_link_evidence();
        let accuracy = self.protocol.probe_accuracy;
        let blame = (self.opts.blame_fn)(&link_ev, accuracy);
        self.emit(
            now,
            TraceEvent::BlameComputed {
                msg: idx as u64,
                blame_ppb: ppb(blame),
                accuracy_ppb: ppb(accuracy),
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
        )?;
        ensure(
            check_blame(&link_ev, accuracy, blame, self.opts.check_blame_oracle, now),
            Some(EntityRef::message(idx as u64)),
        )?;
        let verdict = Verdict::from_blame(blame, self.protocol.blame_threshold);
        self.stats.judged += 1;
        if verdict.is_guilty() {
            self.stats.guilty += 1;
        }
        let (quota_met, window) = self.verdicts.record((a, b), verdict);
        let (window_violation, window_guilty, window_len) =
            (check_window(window, now), window.guilty_count() as u64, window.len() as u64);
        let escalates = quota_met && self.escalated.insert((a, b));
        self.emit(
            now,
            TraceEvent::VerdictAccumulated {
                judge: a as u64,
                accused: b as u64,
                guilty: verdict.is_guilty(),
                window_guilty,
                window_len,
            },
        )?;
        ensure(window_violation, Some(EntityRef::host(b as u64)))?;
        if escalates {
            self.stats.escalations += 1;
            if !self.adv.is_adversarial(b) {
                self.stats.honest_escalations += 1;
            }
            self.emit(
                now,
                TraceEvent::Escalated { msg: idx as u64, judge: a as u64, accused: b as u64 },
            )?;
            self.escalate(idx, now, &ev)?;
        }
        Ok(())
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
        let Some(path) = world.peer_path(accused, next) else {
            return Gathered::default();
        };
        let links = path.links();
        let (from_judge, from_accused) = (&mut self.from_judge, &mut self.from_accused);
        world.path_evidence(judge, links, t0, self.delta, Some(accused), from_judge);
        world.path_evidence(accused, links, t0, self.delta, Some(accused), from_accused);
        let mut per_link = Vec::with_capacity(links.len());
        for ((&link, own), vouching) in
            links.iter().zip(self.from_judge.per_link()).zip(self.from_accused.per_link())
        {
            let unseen =
                vouching.iter().filter(|(origin, _)| !own.iter().any(|(o, _)| o == origin));
            let mut kept = Vec::new();
            for &(origin, up) in own.iter().chain(unseen) {
                if origin != judge {
                    let (window, link) = (t0.as_micros(), u64::from(link.0));
                    let ids = [judge as u64, accused as u64, window, link, origin as u64];
                    if !self.plan.delivers(Stage::Evidence.key(self.seed, &ids)) {
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

    /// [`steward`] over ground truth, its defence oracle gathering each
    /// window's evidence on demand. Also returns the midpoint batch of each
    /// downstream defence in route order: what [`Amendment::Evidence`] cites.
    fn walk(&mut self, info: &MsgInfo, now: SimTime) -> (Resting, Vec<Amendment>, Vec<Gathered>) {
        let route = &info.route;
        let dst = *route.last().expect("routes are non-empty");
        let answers: Vec<bool> =
            route.iter().map(|&h| !self.adv.is_dropper(h) && self.plan.host_up(h, now)).collect();
        let reacks = info.truly_delivered
            && !self.adv.is_ack_withholder(dst)
            && !self.adv.is_coalition(dst)
            && self.plan.host_up(dst, now);
        let mut cited = Vec::new();
        let (resting, amendments) =
            steward(info.received_upto, &answers, reacks, |judge, accused, next, window| {
                let t0 = match window {
                    Window::Midpoint => evidence_time(info.sent_at, now),
                    Window::Send => info.sent_at,
                    Window::Expiry => now,
                };
                let ev = self.gather_evidence(route[judge], route[accused], route[next], t0);
                let accuracy = self.protocol.probe_accuracy;
                let blame = (self.opts.blame_fn)(&ev.to_link_evidence(), accuracy);
                // Judge 0's evidence is a rebuttal, which no revision cites.
                if window == Window::Midpoint && judge > 0 {
                    cited.push(ev);
                }
                Verdict::from_blame(blame, self.protocol.blame_threshold).is_guilty()
            });
        (resting, amendments, cited)
    }

    fn escalate(&mut self, idx: usize, now: SimTime, ev: &Gathered) -> Result<(), Violation> {
        let info = self.infos[idx].clone().expect("escalations follow judgments");
        let (resting, amendments, cited) = self.walk(&info, now);
        let Resting::Standing(ci) = resting else {
            self.stats.dissolved += 1;
            return self.emit(now, TraceEvent::Dissolved { msg: idx as u64 });
        };
        let culprit = info.route[ci];
        let (msg, position) = (idx as u64, ci as u64);
        self.emit(now, TraceEvent::CulpritStanding { msg, position, culprit: culprit as u64 })?;
        let honest = !self.adv.is_adversarial(culprit);
        // A crash anywhere on the route during the message's lifetime can
        // defeat every retransmission without the network being at fault;
        // such standings are churn casualties, not combinator bugs.
        let route_churned = info.route.iter().any(|&h| {
            self.plan.outage(h).is_some_and(|(s, e)| s <= now && e >= info.sent_at)
        });
        if honest && !route_churned {
            if self.enforce_no_false_blame {
                return Err(Violation::new(
                    InvariantKind::FalseAccusation,
                    now,
                    EntityRef::host(culprit as u64),
                    format!(
                        "honest host {culprit} (route position {ci} of {:?}) ends the \
                         accusation chain as culprit for message {idx} sent at {}",
                        info.route, info.sent_at
                    ),
                ));
            }
            // Under ambient transport loss a false standing is the paper's
            // bounded false-positive rate, not a bug; the chain mechanics
            // below must still hold for it.
            self.stats.false_standings += 1;
        }
        self.check_chain(&info, ci, now, ev, &amendments, &cited)
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
        amendments: &[Amendment],
        cited: &[Gathered],
    ) -> Result<(), Violation> {
        let (world, seed) = (self.world, self.seed);
        let route = &info.route;
        let m = info.msg.0 - 1;
        let broken = |detail: String| {
            let entity = EntityRef::message(m);
            Violation::new(InvariantKind::ChainIntegrity, now, entity, detail)
        };
        let next_pos = 2.min(route.len() - 1);
        let original = self.build_accusation(info, 0, 1, next_pos, trigger_ev);
        let mut chain = AccusationChain::new(original);
        let policy = RetryPolicy::default();
        let mut expected_culprit_pos = culprit_pos;
        let (mut cited, uncited) = (cited.iter(), Gathered::default());
        for (j, amendment) in amendments.iter().enumerate() {
            let accuser_pos = j + 1;
            let accused_pos = j + 2;
            let next_pos = (accused_pos + 1).min(route.len() - 1);
            let ev = match amendment {
                Amendment::Evidence => cited.next().expect("each cited defence kept its evidence"),
                Amendment::Commitment => &uncited,
            };
            let revision = self.build_accusation(info, accuser_pos, accused_pos, next_pos, ev);
            let step = j as u64;
            let arrives = |attempt: u32| {
                self.plan.delivers(Stage::Handoff.key(seed, &[m, step, u64::from(attempt)]))
            };
            let outcome = chain.amend_with_retry(
                &policy,
                |_, attempt| arrives(attempt).then(|| revision.clone()),
                &mut Stage::HandoffJitter.rng(seed, &[m, step]),
            );
            let amended = match outcome {
                Ok(HandoffOutcome::Amended { .. }) => true,
                Ok(HandoffOutcome::Withheld { .. }) => false,
                Err(err) => return Err(broken(format!("amendment rejected: {err:?}"))),
            };
            self.emit(
                now,
                TraceEvent::AccusationRevised {
                    step: j as u64,
                    accuser_pos: accuser_pos as u64,
                    accused_pos: accused_pos as u64,
                    amended,
                },
            )?;
            if !amended {
                // Every handoff attempt was lost: the chain stands short
                // and — per §3.5 — silence keeps the blame on the hop that
                // failed to answer.
                self.stats.handoffs_withheld += 1;
                expected_culprit_pos = accuser_pos;
                break;
            }
        }
        let expected_culprit = world.node(route[expected_culprit_pos]).id();
        if chain.culprit() != expected_culprit || chain.len() != expected_culprit_pos {
            return Err(broken(format!(
                "chain of {} links ends at {:?}, expected route position {expected_culprit_pos}",
                chain.len(),
                chain.culprit()
            )));
        }
        for (k, link) in chain.links().iter().enumerate() {
            let pos = route.iter().position(|&h| world.node(h).id() == link.accused());
            if pos != Some(k + 1) {
                return Err(broken(format!(
                    "link {k} accuses {:?} at route position {pos:?}, expected {}",
                    link.accused(),
                    k + 1
                )));
            }
        }
        let key_of = |id: Id| world.public_key_of(id);
        chain
            .verify(&key_of, &self.protocol)
            .map_err(|err| broken(format!("stored chain fails verification: {err:?}")))?;
        self.stats.chains_checked += 1;

        // File the terminal accusation under the culprit's key with
        // quorum retries over the same lossy transport.
        let final_acc = chain
            .links()
            .last()
            .expect("chains are never empty")
            .clone();
        let culprit = route[expected_culprit_pos];
        let culprit_pk = world.node(culprit).public_key();
        let lost = |detail: String| {
            let entity = EntityRef::host(culprit as u64);
            Violation::new(InvariantKind::DhtDurability, now, entity, detail)
        };
        let plan = &self.plan;
        let result = self.dht.insert_with_retry(
            &culprit_pk,
            final_acc.clone(),
            &policy,
            |replica, attempt| match world.index_of(replica) {
                Some(h) => {
                    let put = Stage::DhtPut.key(seed, &[m, h as u64, u64::from(attempt)]);
                    plan.host_up(h, now) && plan.delivers(put)
                }
                None => false,
            },
            &mut Stage::DhtJitter.rng(seed, &[m]),
        );
        match result {
            Ok(stored) => {
                let replicas = stored as u64;
                self.emit(now, TraceEvent::AccusationStored { culprit: culprit as u64, replicas })?;
                if stored < self.dht.write_quorum() {
                    return Err(lost(format!(
                        "insert reported success with {stored} replicas, quorum is {}",
                        self.dht.write_quorum()
                    )));
                }
                let fetched = self.dht.fetch(&culprit_pk);
                let ours = fetched.iter().find(|a| {
                    a.accuser() == final_acc.accuser()
                        && a.context().msg == final_acc.context().msg
                });
                ours.ok_or_else(|| lost("quorum-acknowledged accusation is not fetchable".into()))?
                    .verify(&key_of, &self.protocol)
                    .map_err(|err| lost(format!("fetched accusation fails verification: {err:?}")))
            }
            Err(_) => {
                // A typed quorum failure under heavy loss is a legitimate
                // refusal, not a durability violation.
                self.stats.dht_refused += 1;
                self.emit(now, TraceEvent::DhtRefused { culprit: culprit as u64 })
            }
        }
    }

    /// Builds a self-verifying accusation by `route[accuser_pos]` against
    /// `route[accused_pos]`, re-signing the gathered observations as the
    /// snapshots the verifier would recompute blame from.
    fn build_accusation(
        &self,
        info: &MsgInfo,
        accuser_pos: usize,
        accused_pos: usize,
        next_pos: usize,
        ev: &Gathered,
    ) -> Accusation {
        let (world, seed) = (self.world, self.seed);
        let route = &info.route;
        let position = [info.msg.0 - 1, accuser_pos as u64];
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
            &mut Stage::CommitNonce.rng(seed, &position),
        );
        let path_links = ev.per_link.iter().map(|(link, _)| *link).collect();
        let mut snapshots = Vec::new();
        for (link, obs) in &ev.per_link {
            for &(origin, up) in obs {
                let o = world.node(origin);
                let stamped = self.plan.snapshot_time(&self.adv, origin, t0);
                // One origin may report a link several times in the window:
                // the snapshot's index in the accusation tells them apart.
                let snapshot = [position[0], position[1], snapshots.len() as u64];
                snapshots.push(TomographySnapshot::new_signed(
                    o.id(),
                    stamped,
                    vec![LinkObservation::binary(*link, up)],
                    o.keys(),
                    &mut Stage::SnapshotNonce.rng(seed, &snapshot),
                ));
            }
        }
        Accusation::build(
            context,
            commitment,
            path_links,
            snapshots,
            &self.protocol,
            accuser.keys(),
            &mut Stage::AccuseNonce.rng(seed, &position),
        )
    }
}
