//! Causal correlation over the typed trace (DESIGN.md §17).
//!
//! The trace stream records *what* happened; this module recovers *why*.
//! Four pieces, all pure functions of the event stream so every output
//! is bit-identical at any worker count:
//!
//! * **Correlation keys** ([`entities`], [`EntityRef`]): the identifiers
//!   an event is *about* — message, report, flow, link, host — derived
//!   from the event's existing fields at the emission choke point. No new
//!   side channels: the hashed encoding is untouched, so every committed
//!   trace digest and corpus fingerprint keeps its meaning. Accusation
//!   identities are the one stream-assigned key: the k-th `Escalated`
//!   event opens accusation `k`, and the dissolve/standing/revise/store
//!   events that follow it (which carry no message field of their own)
//!   are attributed to it positionally.
//! * **The causal grammar** (private): one state machine over the event
//!   stream — send → fault → retry → expiry → blame → verdict →
//!   escalation → revision → store for episodes, admit → complete →
//!   commit for the daemon — that gives each event its causal parent,
//!   its accusation and whether it is an *orphan*: an event whose
//!   required cause the stream never produced, an invariant violation.
//! * **[`CausalLedger`]**: the grammar streaming, nothing stored —
//!   observed at the choke point that feeds the trace hash, it reports
//!   each orphan as it is emitted.
//! * **[`CausalIndex`] + [`explain`]**: the grammar with everything
//!   stored — per-entity timelines and cause→effect links over any
//!   [`Traced`] stream, answering `message:<id>` / `blame:<host>` /
//!   `shed:<report>` with the full
//!   causal chain, the tomography evidence window behind each verdict,
//!   and (when the caller supplies one) the ambiguity-class partition
//!   the verdict was confined to.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use crate::event::{Field, LinkObsSummary, TraceEvent, Traced};

/// What kind of thing an [`EntityRef`] names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EntityKind {
    /// A message index within an episode.
    Message,
    /// A failure report offered to the serving daemon.
    Report,
    /// A flow (source/destination pair) of an episode.
    Flow,
    /// An IP link named in blame evidence.
    Link,
    /// An overlay host (judge, accused, or culprit).
    Host,
    /// An accusation, numbered by escalation order within the stream.
    Accusation,
}

impl EntityKind {
    /// Stable short name used in `kind:id` spellings.
    pub(crate) fn name(self) -> &'static str {
        match self {
            EntityKind::Message => "message",
            EntityKind::Report => "report",
            EntityKind::Flow => "flow",
            EntityKind::Link => "link",
            EntityKind::Host => "host",
            EntityKind::Accusation => "accusation",
        }
    }
}

/// One correlation key: the identity of a thing the trace talks about.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct EntityRef {
    /// The entity's kind.
    pub kind: EntityKind,
    /// The entity's dense identifier.
    pub id: u64,
}

impl EntityRef {
    /// A message entity.
    pub fn message(id: u64) -> EntityRef {
        EntityRef { kind: EntityKind::Message, id }
    }

    /// A report entity.
    pub(crate) fn report(id: u64) -> EntityRef {
        EntityRef { kind: EntityKind::Report, id }
    }

    /// A link entity.
    pub(crate) fn link(id: u64) -> EntityRef {
        EntityRef { kind: EntityKind::Link, id }
    }

    /// A host entity.
    pub fn host(id: u64) -> EntityRef {
        EntityRef { kind: EntityKind::Host, id }
    }

    /// An accusation entity (stream escalation order).
    pub(crate) fn accusation(id: u64) -> EntityRef {
        EntityRef { kind: EntityKind::Accusation, id }
    }

    /// Parses a `kind:id` spelling (`message:3`, `host:7`, …). Accepts
    /// the short aliases `msg` and `acc`.
    pub fn parse(s: &str) -> Option<EntityRef> {
        let (kind, id) = s.split_once(':')?;
        let id: u64 = id.trim().parse().ok()?;
        let kind = match kind.trim() {
            "message" | "msg" => EntityKind::Message,
            "report" => EntityKind::Report,
            "flow" => EntityKind::Flow,
            "link" => EntityKind::Link,
            "host" => EntityKind::Host,
            "accusation" | "acc" => EntityKind::Accusation,
            _ => return None,
        };
        Some(EntityRef { kind, id })
    }
}

impl fmt::Display for EntityRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.kind.name(), self.id)
    }
}

/// The correlation keys an event carries, derived purely from its
/// existing fields by their [`Field`] type: a message, flow, host or
/// report field keys that entity, and each link of a `Links` field keys
/// the link; counts, flags, probabilities and reasons key nothing.
/// Accusation keys are *not* produced here — they are positional
/// (assigned by [`CausalIndex`] in stream order), because the
/// dissolve/standing/revise/store events carry no accusation field.
#[deny(clippy::wildcard_enum_match_arm)]
pub fn entities(event: &TraceEvent, out: &mut Vec<EntityRef>) {
    out.clear();
    let mut words = Vec::new();
    event.hash_fields(&mut words);
    for (_, field, w) in event.fields(&words) {
        let kind = match field {
            Field::Msg => EntityKind::Message,
            Field::Flow => EntityKind::Flow,
            Field::Host => EntityKind::Host,
            Field::Report => EntityKind::Report,
            Field::Links => {
                out.extend(w[1..].chunks_exact(3).map(|l| EntityRef::link(l[0])));
                continue;
            }
            Field::Int | Field::Flag | Field::Ppb | Field::Fault | Field::Shed => continue,
        };
        out.push(EntityRef { kind, id: w[0] });
    }
}

/// An event the causal grammar cannot reach from its originating
/// send/admit — the causal-reachability invariant's failure report.
#[derive(Clone, Debug)]
pub struct CausalOrphan {
    /// The entity the orphan event is about.
    pub entity: EntityRef,
    /// What rule of the causal grammar the stream broke.
    pub detail: String,
}

/// A message's latest event, and whether a send opened the message.
#[derive(Clone, Copy, Debug)]
struct MsgTail {
    at: usize,
    sent: bool,
}

/// What the grammar derives for one event.
#[derive(Default)]
struct Step {
    /// The event's causal parent, as a stream index.
    parent: Option<usize>,
    /// The accusation (by escalation order) the event belongs to.
    accusation: Option<u64>,
    /// Set when the event is a causal orphan.
    orphan: Option<CausalOrphan>,
}

impl Step {
    /// Marks the event an orphan of `entity` unless `ok`, citing the
    /// `rule` the stream broke; returns `ok`.
    fn require(&mut self, ok: bool, entity: EntityRef, rule: fmt::Arguments<'_>) -> bool {
        if !ok {
            self.orphan = Some(CausalOrphan { entity, detail: rule.to_string() });
        }
        ok
    }

    fn require_sent(&mut self, sent: bool, msg: u64, what: &str) -> bool {
        self.require(
            sent,
            EntityRef::message(msg),
            format_args!("{what} for message {msg} with no originating send in the stream"),
        )
    }
}

/// The causal grammar: the one statement of the link rules (DESIGN.md
/// §17). It mirrors the episode's synchronous emission order: all
/// judgment events of one expiry are emitted consecutively at the same
/// virtual time, so single-slot blame/accusation tracking is exact.
///
/// Linking is lenient and orphan detection strict. A parent is the
/// nearest event the rules could attach to, whatever came before it, so
/// a stream that lost its head (a truncated ring) still indexes into
/// chains; an orphan is any event whose required cause was never
/// accepted. The `sound_*` fields are that acceptance: until the first
/// orphan they say what the link slots say; after it an unaccepted
/// event still links but opens nothing.
#[derive(Clone, Debug, Default)]
struct Grammar {
    /// Events stepped so far: the index of the next one.
    len: usize,
    /// Each message's tail, in pages of 64 keyed by `msg >> 6`. An
    /// episode's ids are dense from 0, so it touches a few pages; ids
    /// read from untrusted input cost at most one 1 KiB page per event.
    msgs: BTreeMap<u64, Box<[Option<MsgTail>; 64]>>,
    /// Admit event index per report.
    admit_of: BTreeMap<u64, usize>,
    last_serve: Option<usize>,
    last_expiry: Option<usize>,
    last_blame: Option<usize>,
    last_verdict: Option<usize>,
    /// The accusation awaiting its dissolve or standing: its number and
    /// its escalation event.
    open_accusation: Option<(u64, usize)>,
    /// The accusation standing until its store or refusal: its number
    /// and the latest event of its revision chain.
    standing: Option<(u64, usize)>,
    escalations: u64,
    /// Message of the latest blame computation on a sent message.
    sound_blame: Option<u64>,
    /// Message whose escalation followed its own blame computation.
    sound_accusation: Option<u64>,
    /// Whether a standing followed that escalation and is unresolved.
    sound_standing: bool,
    /// After a recovery replay the pre-crash admit events live only in
    /// the journal, not the trace; completions of replayed reports are
    /// then legitimate without an in-stream admit.
    recovered: bool,
}

impl Grammar {
    /// `msg`'s slot in the message table.
    fn tail(&mut self, msg: u64) -> &mut Option<MsgTail> {
        let page = self.msgs.entry(msg >> 6).or_insert_with(|| Box::new([None; 64]));
        &mut page[(msg & 63) as usize]
    }

    /// Moves `msg`'s tail to event `i`; returns the tail it had and
    /// whether a send opened the message.
    fn touch(&mut self, msg: u64, i: usize) -> (Option<usize>, bool) {
        match self.tail(msg) {
            Some(tail) => (Some(std::mem::replace(&mut tail.at, i)), tail.sent),
            slot @ None => {
                *slot = Some(MsgTail { at: i, sent: false });
                (None, false)
            }
        }
    }

    /// Advances the grammar by one event in stream order.
    #[deny(clippy::wildcard_enum_match_arm)]
    fn step(&mut self, event: &TraceEvent) -> Step {
        let i = self.len;
        self.len += 1;
        let mut out = Step::default();
        out.parent = match event {
            TraceEvent::MessageSent { msg, .. } => {
                *self.tail(*msg) = Some(MsgTail { at: i, sent: true });
                None
            }
            TraceEvent::ChurnBlocked { msg }
            | TraceEvent::RouteOutcome { msg, .. }
            | TraceEvent::FaultInjected { msg, .. }
            | TraceEvent::AckReceived { msg }
            | TraceEvent::RetryFired { msg, .. } => {
                let (tail, sent) = self.touch(*msg, i);
                out.require_sent(sent, *msg, event.label());
                tail
            }
            TraceEvent::MessageExpired { msg } => {
                let (tail, sent) = self.touch(*msg, i);
                out.require_sent(sent, *msg, "expiry");
                self.last_expiry = Some(i);
                tail
            }
            // Gathered inside the expiry's synchronous judgment.
            TraceEvent::SnapshotsGathered { .. } => self.last_expiry,
            TraceEvent::BlameComputed { msg, .. } => {
                let (tail, sent) = self.touch(*msg, i);
                if out.require_sent(sent, *msg, "blame computation") {
                    self.sound_blame = Some(*msg);
                }
                self.last_blame = Some(i);
                tail
            }
            TraceEvent::VerdictAccumulated { judge, accused, .. } => {
                out.require(
                    self.sound_blame.is_some(),
                    EntityRef::host(*accused),
                    format_args!("verdict {judge}->{accused} with no preceding blame computation"),
                );
                self.last_verdict = Some(i);
                self.last_blame
            }
            TraceEvent::Escalated { msg, judge, accused } => {
                if out.require(
                    self.sound_blame == Some(*msg),
                    EntityRef::message(*msg),
                    format_args!(
                        "escalation {judge}->{accused} without a blame computation \
                         for message {msg}"
                    ),
                ) {
                    self.sound_accusation = Some(*msg);
                    self.sound_standing = false;
                }
                out.accusation = Some(self.escalations);
                self.open_accusation = Some((self.escalations, i));
                self.escalations += 1;
                // A new accusation supersedes any unresolved standing.
                self.standing = None;
                self.touch(*msg, i);
                self.last_verdict
            }
            TraceEvent::Dissolved { msg } => {
                out.require(
                    self.sound_accusation.take_if(|m| m == msg).is_some(),
                    EntityRef::message(*msg),
                    format_args!("dissolve for message {msg} with no open accusation"),
                );
                let (seq, escalation) = self.open_accusation.take().unzip();
                out.accusation = seq;
                escalation.or(self.touch(*msg, i).0)
            }
            TraceEvent::CulpritStanding { msg, culprit, .. } => {
                self.sound_standing |= out.require(
                    self.sound_accusation.take_if(|m| m == msg).is_some(),
                    EntityRef::message(*msg),
                    format_args!("standing culprit {culprit} with no open accusation"),
                );
                let (seq, escalation) = self.open_accusation.take().unzip();
                if let Some(seq) = seq {
                    self.standing = Some((seq, i));
                }
                out.accusation = seq;
                escalation.or(self.touch(*msg, i).0)
            }
            TraceEvent::AccusationRevised { step, .. } => {
                out.require(
                    self.sound_standing,
                    EntityRef::accusation(*step),
                    format_args!("revision step {step} with no standing accusation"),
                );
                let (seq, tail) = self.standing.unzip();
                if let Some(seq) = seq {
                    self.standing = Some((seq, i));
                }
                out.accusation = seq;
                tail
            }
            // The stored culprit may differ from the standing culprit: a
            // withheld revision legitimately leaves blame upstream. Only
            // the existence of a standing accusation is required.
            TraceEvent::AccusationStored { culprit, .. } | TraceEvent::DhtRefused { culprit } => {
                out.require(
                    std::mem::take(&mut self.sound_standing),
                    EntityRef::host(*culprit),
                    format_args!(
                        "terminal accusation against host {culprit} with no standing \
                         accusation in the stream"
                    ),
                );
                let (seq, tail) = self.standing.take().unzip();
                out.accusation = seq;
                tail
            }
            TraceEvent::ReportAdmitted { report, .. } => {
                self.admit_of.insert(*report, i);
                self.last_serve = Some(i);
                None
            }
            // A shed is both root and terminal: the refusal happens at
            // the offer, before any admit exists.
            TraceEvent::LoadShed { .. } => {
                self.last_serve = Some(i);
                None
            }
            TraceEvent::ReportCompleted { report, .. } => {
                let admit = self.admit_of.get(report).copied();
                out.require(
                    admit.is_some() || self.recovered,
                    EntityRef::report(*report),
                    format_args!("completion for report {report} never admitted in the stream"),
                );
                self.last_serve = Some(i);
                admit
            }
            // The commit seals the inputs processed since the last one.
            TraceEvent::JournalCommitted { .. } => self.last_serve.replace(i),
            TraceEvent::RecoveryReplayed { .. } => {
                self.recovered = true;
                None
            }
            TraceEvent::SupervisorRestarted { .. }
            | TraceEvent::DegradedEntered { .. }
            | TraceEvent::Tick => None,
        };
        out
    }
}

/// Streaming causal-reachability monitor: the grammar with nothing
/// stored.
///
/// Observed once per emitted event at the same choke point that feeds
/// the trace hash, so it sees the *full* stream (the ring-buffered trace
/// may have evicted the originating send by the time a verdict lands —
/// the ledger has not).
#[derive(Clone, Debug, Default)]
pub struct CausalLedger {
    grammar: Grammar,
}

impl CausalLedger {
    /// A fresh ledger (no sends, no admissions, nothing open).
    pub fn new() -> CausalLedger {
        CausalLedger::default()
    }

    /// Observes one event in stream order; returns the causal orphan,
    /// if this event is one.
    pub fn observe(&mut self, event: &TraceEvent) -> Option<CausalOrphan> {
        self.grammar.step(event).orphan
    }
}

/// Per-entity timelines and cause→effect links over a [`Traced`] stream:
/// the grammar with every event, link and orphan stored.
///
/// Built in stream order; every derived structure (timelines, parents,
/// accusation numbering) is a pure function of the event sequence, so
/// two byte-identical traces index identically.
#[derive(Clone, Debug, Default)]
pub struct CausalIndex {
    grammar: Grammar,
    events: Vec<Traced>,
    parents: Vec<Option<usize>>,
    timelines: BTreeMap<EntityRef, Vec<usize>>,
    orphans: Vec<(usize, String)>,
    scratch: Vec<EntityRef>,
}

impl CausalIndex {
    /// An empty index.
    pub fn new() -> CausalIndex {
        CausalIndex::default()
    }

    /// Indexes a whole stream.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a Traced>) -> CausalIndex {
        let mut idx = CausalIndex::new();
        for ev in events {
            idx.push(ev.clone());
        }
        idx
    }

    /// The indexed events, in stream order.
    pub fn events(&self) -> &[Traced] {
        &self.events
    }

    /// The causal parent of event `i`, if the link rules attach one.
    pub(crate) fn parent(&self, i: usize) -> Option<usize> {
        self.parents.get(i).copied().flatten()
    }

    /// Event indices about `entity`, in stream order.
    pub fn timeline(&self, entity: &EntityRef) -> &[usize] {
        self.timelines.get(entity).map_or(&[], Vec::as_slice)
    }

    /// Walks parents from `i` back to the root; returns root..=i.
    pub fn chain(&self, i: usize) -> Vec<usize> {
        let mut chain = vec![i];
        let mut cur = i;
        while let Some(p) = self.parent(cur) {
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
    }

    /// Appends one event, deriving its correlation keys from
    /// [`entities`] and its causal parent, accusation and orphan status
    /// from the grammar (DESIGN.md §17).
    pub fn push(&mut self, traced: Traced) {
        let i = self.events.len();
        entities(&traced.event, &mut self.scratch);
        for e in &self.scratch {
            self.timelines.entry(*e).or_default().push(i);
        }
        let step = self.grammar.step(&traced.event);
        if let Some(seq) = step.accusation {
            self.timelines.entry(EntityRef::accusation(seq)).or_default().push(i);
        }
        if let Some(orphan) = step.orphan {
            self.orphans.push((i, orphan.detail));
        }
        self.parents.push(step.parent);
        self.events.push(traced);
    }

    /// Offline form of the reachability invariant: the events the
    /// grammar flagged as orphans when they were pushed, each with the
    /// rule it broke — index for index and word for word what
    /// [`CausalLedger::observe`] reports on the same stream.
    ///
    /// Only meaningful over *full* streams — a ring-truncated trace has
    /// evicted its roots, which is exactly why the runtime check
    /// ([`CausalLedger`]) streams at the emission choke point instead.
    pub fn orphan_terminals(&self) -> Vec<(usize, String)> {
        self.orphans.clone()
    }
}

/// One "why?" query against an indexed trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExplainQuery {
    /// Why did message `id` die (or survive)?
    Message(u64),
    /// Why does host `id` stand accused?
    Blame(u64),
    /// Why was report `id` shed (or how was it served)?
    Shed(u64),
}

impl ExplainQuery {
    /// Parses the `verb:id` spelling (`message:3`, `blame:7`, `shed:9`),
    /// or its entity form (`msg:3`, `host:7`, `report:9`).
    pub fn parse_token(s: &str) -> Option<ExplainQuery> {
        let (verb, id) = s.split_once(':')?;
        let id: u64 = id.trim().parse().ok()?;
        match verb.trim() {
            "message" | "msg" => Some(ExplainQuery::Message(id)),
            "blame" | "host" => Some(ExplainQuery::Blame(id)),
            "shed" | "report" => Some(ExplainQuery::Shed(id)),
            _ => None,
        }
    }

    /// The entity the query is about.
    pub fn entity(&self) -> EntityRef {
        match *self {
            ExplainQuery::Message(id) => EntityRef::message(id),
            ExplainQuery::Blame(id) => EntityRef::host(id),
            ExplainQuery::Shed(id) => EntityRef::report(id),
        }
    }

    /// The canonical `verb:id` spelling.
    pub fn token(&self) -> String {
        match *self {
            ExplainQuery::Message(id) => format!("message:{id}"),
            ExplainQuery::Blame(id) => format!("blame:{id}"),
            ExplainQuery::Shed(id) => format!("shed:{id}"),
        }
    }
}

/// One causal chain of an explanation: root to terminal, plus the
/// judgment context extracted along the way.
#[derive(Clone, Debug)]
pub struct ExplainChain {
    /// The chain's events, root first.
    pub events: Vec<Traced>,
    /// The judging host, when the chain contains an escalation.
    pub judge: Option<u64>,
    /// The accused host, when the chain contains an escalation.
    pub accused: Option<u64>,
    /// The Eq. 2 evidence window of the blame computation in the chain.
    pub evidence: Vec<LinkObsSummary>,
}

/// The ambiguity class a verdict was confined to: links the judge's
/// probe matrix cannot tell apart from the blamed one (supplied by
/// callers with tomography access — the trace alone cannot know it).
#[derive(Clone, Debug)]
pub struct AmbiguityNote {
    /// The judging host whose probe tree defines the partition.
    pub judge: u64,
    /// The indistinguishable link class containing the blamed evidence.
    pub class: Vec<u64>,
}

/// The answer to an [`ExplainQuery`]: causal chains plus timeline
/// context, renderable as human text or canonical JSON.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The query this answers.
    pub query: ExplainQuery,
    /// Every event about the queried entity, in stream order.
    pub timeline: Vec<Traced>,
    /// Causal chains ending at the entity's terminal outcomes.
    pub chains: Vec<ExplainChain>,
    /// Ambiguity-class partitions, when the caller supplied them.
    pub ambiguity: Vec<AmbiguityNote>,
}

impl Explanation {
    /// Whether the trace said anything at all about the entity.
    pub fn found(&self) -> bool {
        !self.timeline.is_empty() || !self.chains.is_empty()
    }

    /// Renders the explanation as human-readable text (no trailing
    /// newline). Deterministic: a pure function of the indexed stream.
    pub fn render_text(&self) -> String {
        let mut out = format!("explain {}", self.query.token());
        if !self.found() {
            let _ = write!(out, ": no events about {}", self.query.entity());
            return out;
        }
        let _ = write!(
            out,
            ": {} event(s), {} causal chain(s)",
            self.timeline.len(),
            self.chains.len()
        );
        for (k, chain) in self.chains.iter().enumerate() {
            let terminal =
                chain.events.last().map_or("<empty>", |t| t.event.label());
            let _ = write!(out, "\nchain {k} -> {terminal}:");
            for t in &chain.events {
                let _ = write!(out, "\n  {}", t.render());
            }
            if !chain.evidence.is_empty() {
                let _ = write!(out, "\n  evidence window:");
                for l in &chain.evidence {
                    let _ = write!(
                        out,
                        "\n    link {}: {} up / {} down",
                        l.link, l.up, l.down
                    );
                }
            }
        }
        for note in &self.ambiguity {
            let class = note
                .class
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            let _ = write!(
                out,
                "\nidentifiability: judge {}'s probe matrix cannot distinguish links \
                 [{class}] — the verdict is confined to that class",
                note.judge
            );
        }
        out
    }

    /// Renders the explanation as one canonical JSON object (no trailing
    /// newline). Field order is fixed, so two identical traces explain to
    /// byte-identical JSON — the `--jobs 1` vs `--jobs N` CI check.
    pub fn render_json(&self) -> String {
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"query\":{},\"entity\":{},\"found\":{},\"events\":{},\"chains\":[",
            crate::json::escape(&self.query.token()),
            crate::json::escape(&self.query.entity().to_string()),
            self.found(),
            self.timeline.len()
        );
        for (k, chain) in self.chains.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            s.push_str("{\"judge\":");
            match chain.judge {
                Some(j) => {
                    let _ = write!(s, "{j}");
                }
                None => s.push_str("null"),
            }
            s.push_str(",\"accused\":");
            match chain.accused {
                Some(a) => {
                    let _ = write!(s, "{a}");
                }
                None => s.push_str("null"),
            }
            s.push_str(",\"events\":[");
            for (j, t) in chain.events.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&t.to_json(&[]));
            }
            s.push_str("],\"evidence\":[");
            for (j, l) in chain.evidence.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "{{\"link\":{},\"up\":{},\"down\":{}}}",
                    l.link, l.up, l.down
                );
            }
            s.push_str("]}");
        }
        s.push_str("],\"ambiguity\":[");
        for (k, note) in self.ambiguity.iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"judge\":{},\"class\":[", note.judge);
            for (j, l) in note.class.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{l}");
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }
}

fn chain_of(index: &CausalIndex, terminal: usize) -> ExplainChain {
    let mut judge = None;
    let mut accused = None;
    let mut evidence = Vec::new();
    let events: Vec<Traced> = index
        .chain(terminal)
        .into_iter()
        .map(|i| index.events()[i].clone())
        .collect();
    for t in &events {
        match &t.event {
            TraceEvent::Escalated { judge: j, accused: a, .. }
            | TraceEvent::VerdictAccumulated { judge: j, accused: a, .. } => {
                judge = Some(*j);
                accused = Some(*a);
            }
            TraceEvent::BlameComputed { links, .. } => evidence = links.clone(),
            _ => {}
        }
    }
    ExplainChain { events, judge, accused, evidence }
}

/// Answers a query against an indexed trace. Ambiguity notes start
/// empty; callers with tomography access fill [`Explanation::ambiguity`]
/// before rendering.
pub fn explain(index: &CausalIndex, query: &ExplainQuery) -> Explanation {
    let entity = query.entity();
    let timeline: Vec<Traced> =
        index.timeline(&entity).iter().map(|&i| index.events()[i].clone()).collect();
    let mut chains = Vec::new();
    match *query {
        ExplainQuery::Message(_) => {
            // The deepest terminal whose chain passes through this
            // message's events tells the whole story; later terminals
            // supersede earlier ones. Scanning every event — not just
            // the message's own timeline — lets the chain continue past
            // the expiry into the verdict and accusation, which are
            // keyed to host entities but descend from the message's
            // blame computation.
            let own: &[usize] = index.timeline(&entity);
            let mut best: Option<(usize, usize)> = None;
            for j in 0..index.events().len() {
                let chain = index.chain(j);
                if !chain.iter().any(|i| own.contains(i)) {
                    continue;
                }
                if best.is_none_or(|(_, len)| chain.len() > len) {
                    best = Some((j, chain.len()));
                }
            }
            if let Some((i, _)) = best {
                chains.push(chain_of(index, i));
            }
        }
        ExplainQuery::Blame(host) => {
            for &i in index.timeline(&entity) {
                let relevant = match &index.events()[i].event {
                    TraceEvent::CulpritStanding { culprit, .. }
                    | TraceEvent::AccusationStored { culprit, .. }
                    | TraceEvent::DhtRefused { culprit } => *culprit == host,
                    _ => false,
                };
                // Standings that progressed to a store/refusal appear as
                // an interior link of the longer chain; keep terminals.
                let superseded = matches!(
                    index.events()[i].event,
                    TraceEvent::CulpritStanding { .. }
                ) && index.events()[i + 1..].iter().zip(i + 1..).any(|(_, j)| {
                    index.parent(j).is_some() && index.chain(j).contains(&i)
                });
                if relevant && !superseded {
                    chains.push(chain_of(index, i));
                }
            }
        }
        ExplainQuery::Shed(_) => {
            for &i in index.timeline(&entity) {
                if matches!(
                    index.events()[i].event,
                    TraceEvent::LoadShed { .. } | TraceEvent::ReportCompleted { .. }
                ) {
                    chains.push(chain_of(index, i));
                }
            }
        }
    }
    Explanation { query: *query, timeline, chains, ambiguity: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FaultKind, ShedReason};

    fn t(at: u64, event: TraceEvent) -> Traced {
        Traced { at_micros: at, event }
    }

    /// A well-formed episode fragment: send → fault → retry → expiry →
    /// blame → verdict → escalate → standing → revise → store.
    fn full_story() -> Vec<Traced> {
        vec![
            t(1, TraceEvent::MessageSent { msg: 3, flow: 1 }),
            t(1, TraceEvent::RouteOutcome { msg: 3, received_upto: 1, delivered: false }),
            t(1, TraceEvent::FaultInjected { msg: 3, kind: FaultKind::NetworkDrop }),
            t(5, TraceEvent::RetryFired { msg: 3, attempt: 1 }),
            t(9, TraceEvent::MessageExpired { msg: 3 }),
            t(9, TraceEvent::SnapshotsGathered { links: 2, observations: 10 }),
            t(
                9,
                TraceEvent::BlameComputed {
                    msg: 3,
                    blame_ppb: 900_000_000,
                    accuracy_ppb: 900_000_000,
                    links: vec![LinkObsSummary { link: 7, up: 1, down: 4 }],
                },
            ),
            t(
                9,
                TraceEvent::VerdictAccumulated {
                    judge: 0,
                    accused: 4,
                    guilty: true,
                    window_guilty: 3,
                    window_len: 5,
                },
            ),
            t(9, TraceEvent::Escalated { msg: 3, judge: 0, accused: 4 }),
            t(9, TraceEvent::CulpritStanding { msg: 3, position: 1, culprit: 4 }),
            t(
                9,
                TraceEvent::AccusationRevised {
                    step: 0,
                    accuser_pos: 1,
                    accused_pos: 2,
                    amended: true,
                },
            ),
            t(9, TraceEvent::AccusationStored { culprit: 5, replicas: 3 }),
        ]
    }

    #[test]
    fn ledger_accepts_a_full_story() {
        let mut ledger = CausalLedger::new();
        for ev in full_story() {
            assert!(
                ledger.observe(&ev.event).is_none(),
                "well-formed stream flagged at `{}`",
                ev.event.label()
            );
        }
    }

    #[test]
    fn ledger_catches_expiry_without_send() {
        let mut ledger = CausalLedger::new();
        let orphan = ledger
            .observe(&TraceEvent::MessageExpired { msg: 9 })
            .expect("expiry without a send must orphan");
        assert_eq!(orphan.entity, EntityRef::message(9));
    }

    #[test]
    fn ledger_catches_dropped_blame_to_accusation_link() {
        // The planted mutant: the escalation is gone, so the standing
        // verdict and the stored accusation are unreachable from the
        // blame computation.
        let mut ledger = CausalLedger::new();
        let mut orphans = Vec::new();
        for ev in full_story() {
            if matches!(ev.event, TraceEvent::Escalated { .. }) {
                continue; // the mutant drops the link
            }
            if let Some(o) = ledger.observe(&ev.event) {
                orphans.push(o);
            }
        }
        assert!(
            orphans.iter().any(|o| o.entity == EntityRef::message(3)),
            "dropping the escalation must orphan the standing: {orphans:?}"
        );
    }

    #[test]
    fn ledger_allows_recovered_completions() {
        let mut ledger = CausalLedger::new();
        assert!(ledger
            .observe(&TraceEvent::ReportCompleted { report: 5, batch: 1 })
            .is_some());
        let mut ledger = CausalLedger::new();
        assert!(ledger
            .observe(&TraceEvent::RecoveryReplayed { records: 4, resumed_input: 2 })
            .is_none());
        assert!(ledger
            .observe(&TraceEvent::ReportCompleted { report: 5, batch: 1 })
            .is_none());
    }

    #[test]
    fn index_links_the_full_story_back_to_the_send() {
        let story = full_story();
        let index = CausalIndex::from_events(&story);
        assert!(index.orphan_terminals().is_empty(), "{:?}", index.orphan_terminals());
        // The stored accusation chains all the way back to the send.
        let stored = story.len() - 1;
        let chain = index.chain(stored);
        assert_eq!(chain[0], 0, "chain must root at the send");
        assert!(chain.len() >= 6, "chain {chain:?} too short");
        // Timelines: message 3 owns the message-keyed events.
        assert!(index.timeline(&EntityRef::message(3)).len() >= 7);
        assert_eq!(index.timeline(&EntityRef::host(4)).len(), 3);
        assert_eq!(index.timeline(&EntityRef::accusation(0)).len(), 4);
    }

    #[test]
    fn index_flags_orphan_terminals_in_mutant_streams() {
        let story: Vec<Traced> = full_story()
            .into_iter()
            .filter(|ev| !matches!(ev.event, TraceEvent::Escalated { .. }))
            .collect();
        let index = CausalIndex::from_events(&story);
        let orphans = index.orphan_terminals();
        assert!(
            !orphans.is_empty(),
            "dropping the escalation must orphan the stored accusation"
        );
    }

    #[test]
    fn explain_message_renders_the_causal_chain() {
        let index = CausalIndex::from_events(&full_story());
        let ex = explain(&index, &ExplainQuery::Message(3));
        assert!(ex.found());
        assert_eq!(ex.chains.len(), 1);
        let chain = &ex.chains[0];
        assert_eq!(chain.judge, Some(0));
        assert_eq!(chain.accused, Some(4));
        assert_eq!(chain.evidence.len(), 1);
        let text = ex.render_text();
        assert!(text.contains("explain message:3"), "{text}");
        assert!(text.contains("evidence window"), "{text}");
        let json = ex.render_json();
        assert!(json.starts_with("{\"query\":\"message:3\""), "{json}");
        assert_eq!(json, ex.render_json(), "rendering must be deterministic");
    }

    #[test]
    fn explain_blame_keeps_terminal_chains_only() {
        let index = CausalIndex::from_events(&full_story());
        // Host 5 is the stored culprit (revision moved blame downstream).
        let ex = explain(&index, &ExplainQuery::Blame(5));
        assert_eq!(ex.chains.len(), 1);
        assert!(matches!(
            ex.chains[0].events.last().map(|t| &t.event),
            Some(TraceEvent::AccusationStored { culprit: 5, .. })
        ));
        // Host 4's standing is an interior link of the same chain.
        let ex4 = explain(&index, &ExplainQuery::Blame(4));
        assert!(ex4.found());
        assert!(ex4.chains.is_empty(), "superseded standing must not duplicate the chain");
    }

    /// A daemon fragment: admit, shed, complete, commit.
    fn serve_story() -> Vec<Traced> {
        vec![
            t(10, TraceEvent::ReportAdmitted { report: 1, queue_depth: 1 }),
            t(20, TraceEvent::LoadShed { report: 2, reason: ShedReason::MailboxFull }),
            t(30, TraceEvent::ReportCompleted { report: 1, batch: 0 }),
            t(30, TraceEvent::JournalCommitted { seq: 4, next_input: 3 }),
        ]
    }

    #[test]
    fn explain_shed_roots_at_the_offer() {
        let index = CausalIndex::from_events(&serve_story());
        assert!(index.orphan_terminals().is_empty());
        let shed = explain(&index, &ExplainQuery::Shed(2));
        assert_eq!(shed.chains.len(), 1);
        assert_eq!(shed.chains[0].events.len(), 1, "a shed is root and terminal");
        let served = explain(&index, &ExplainQuery::Shed(1));
        assert_eq!(served.chains.len(), 1);
        assert_eq!(served.chains[0].events.len(), 2, "admit -> complete");
    }

    /// One line per event of `stream`: the parent the index links it to,
    /// the accusation timeline it joined, and the ledger's orphan report
    /// (which the index's must equal).
    fn render_links(name: &str, stream: &[Traced], out: &mut String) {
        let index = CausalIndex::from_events(stream);
        let mut ledger = CausalLedger::new();
        let mut orphans = Vec::new();
        let _ = writeln!(out, "== {name}");
        for (i, ev) in stream.iter().enumerate() {
            let parent = index.parent(i).map_or("-".to_string(), |p| p.to_string());
            let accusation = (0..)
                .map(EntityRef::accusation)
                .take_while(|a| !index.timeline(a).is_empty())
                .find(|a| index.timeline(a).contains(&i))
                .map_or("-".to_string(), |a| a.id.to_string());
            let orphan = ledger.observe(&ev.event).map_or("-".to_string(), |o| {
                orphans.push((i, o.detail.clone()));
                format!("{}: {}", o.entity, o.detail)
            });
            let _ = writeln!(
                out,
                "{i} {} parent={parent} accusation={accusation} orphan={orphan}",
                ev.event.label()
            );
        }
        assert_eq!(index.orphan_terminals(), orphans, "{name}: the index's orphans are the ledger's");
    }

    /// The links, accusation numbering and orphan reports the index and
    /// the ledger produced while they were two state machines (fixture
    /// recorded at 0081abd): the full story, each single-event deletion
    /// of it, the daemon fragment, and a completion after a recovery.
    #[test]
    fn links_and_orphans_match_the_golden_fixture() {
        let mut out = String::new();
        let story = full_story();
        render_links("full-story", &story, &mut out);
        for k in 0..story.len() {
            let mut mutant = story.clone();
            let gone = mutant.remove(k);
            render_links(&format!("full-story minus {k} ({})", gone.event.label()), &mutant, &mut out);
        }
        render_links("serve-story", &serve_story(), &mut out);
        let recovered = [
            t(0, TraceEvent::RecoveryReplayed { records: 4, resumed_input: 2 }),
            t(5, TraceEvent::ReportCompleted { report: 5, batch: 1 }),
        ];
        render_links("recovered-completion", &recovered, &mut out);
        assert_eq!(out, include_str!("../fixtures/causal_links.golden"));
    }

    /// Sends, retries, expiries, a judgment and orphan terminals over
    /// message ids at page edges (0, 63, 64), far apart (2^40, 2^40 + 1)
    /// and at `u64::MAX`.
    fn sparse_story() -> Vec<Traced> {
        let (far, max) = (1u64 << 40, u64::MAX);
        vec![
            t(1, TraceEvent::MessageSent { msg: 0, flow: 0 }),
            t(1, TraceEvent::MessageSent { msg: max, flow: 1 }),
            t(2, TraceEvent::RetryFired { msg: 63, attempt: 2 }),
            t(2, TraceEvent::MessageSent { msg: 63, flow: 0 }),
            t(3, TraceEvent::RetryFired { msg: 63, attempt: 2 }),
            t(3, TraceEvent::AckReceived { msg: 64 }),
            t(4, TraceEvent::RetryFired { msg: max, attempt: 2 }),
            t(4, TraceEvent::MessageExpired { msg: far + 1 }),
            t(5, TraceEvent::MessageSent { msg: far, flow: 2 }),
            t(5, TraceEvent::FaultInjected { msg: far, kind: FaultKind::TransportDrop }),
            t(6, TraceEvent::AckReceived { msg: 0 }),
            t(7, TraceEvent::MessageExpired { msg: max }),
            t(
                7,
                TraceEvent::BlameComputed {
                    msg: max,
                    blame_ppb: 900_000_000,
                    accuracy_ppb: 900_000_000,
                    links: vec![LinkObsSummary { link: 7, up: 1, down: 4 }],
                },
            ),
            t(7, TraceEvent::Escalated { msg: max, judge: 0, accused: 4 }),
            t(7, TraceEvent::CulpritStanding { msg: max, position: 1, culprit: 4 }),
            t(7, TraceEvent::AccusationStored { culprit: 4, replicas: 3 }),
            t(8, TraceEvent::MessageExpired { msg: far }),
            t(8, TraceEvent::MessageExpired { msg: 63 }),
            t(9, TraceEvent::DhtRefused { culprit: 5 }),
            t(9, TraceEvent::MessageExpired { msg: 64 }),
        ]
    }

    #[test]
    fn sparse_and_huge_message_ids_link_as_pinned() {
        let index = CausalIndex::from_events(&sparse_story());
        let parents: Vec<_> = (0..index.events().len()).map(|i| index.parent(i)).collect();
        // Recorded before the message table was paged.
        let pinned = [
            None, None, None, None, Some(3), None, Some(1), None, None, Some(8), Some(0), Some(6),
            Some(11), None, Some(13), Some(14), Some(9), Some(4), None, Some(5),
        ];
        assert_eq!(parents, pinned);
        let orphans = index.orphan_terminals();
        let orphans: Vec<_> = orphans.iter().map(|(i, rule)| (*i, rule.as_str())).collect();
        assert_eq!(
            orphans,
            [
                (2, "retx for message 63 with no originating send in the stream"),
                (5, "ack for message 64 with no originating send in the stream"),
                (7, "expiry for message 1099511627777 with no originating send in the stream"),
                (18, "terminal accusation against host 5 with no standing accusation in the stream"),
                (19, "expiry for message 64 with no originating send in the stream"),
            ]
        );
        assert_eq!(std::mem::size_of::<[Option<MsgTail>; 64]>(), 1024, "a page is 1 KiB");
        // One page per distinct `msg >> 6`: {0, 63}, {64}, {2^40, 2^40 + 1}
        // and {u64::MAX}.
        assert_eq!(index.grammar.msgs.len(), 4);
    }

    #[test]
    fn entity_refs_parse_and_render() {
        for s in ["message:3", "report:9", "flow:1", "link:12", "host:4", "accusation:0"] {
            let e = EntityRef::parse(s).expect(s);
            assert_eq!(e.to_string(), s);
        }
        assert_eq!(EntityRef::parse("msg:3"), Some(EntityRef::message(3)));
        assert!(EntityRef::parse("msg").is_none());
        assert!(EntityRef::parse("widget:3").is_none());
        assert_eq!(ExplainQuery::parse_token("blame:7"), Some(ExplainQuery::Blame(7)));
        assert_eq!(ExplainQuery::parse_token("report:9"), Some(ExplainQuery::Shed(9)));
        assert_eq!(ExplainQuery::parse_token("message 3"), None);
    }
}
