//! Typed trace events.
//!
//! Every observable step of the diagnosis pipeline — probe/message sends
//! and losses, snapshot exchanges, Eq. 2–3 blame computations with their
//! inputs, verdict accumulation, accusation storage and revision, retry
//! firings, and injected faults — is one variant of [`TraceEvent`]. Events
//! are timestamped in *virtual* time ([`Traced::at_micros`]), never wall
//! clock, so a recorded trace is bit-identical across worker counts and
//! machines.
//!
//! Each event defines three renderings that must stay in sync:
//!
//! * [`TraceEvent::label`] + [`TraceEvent::hash_fields`] — the canonical
//!   `(label, u64 fields)` encoding fed to the chained trace hasher. This
//!   is what makes the trace part of the replay-determinism contract.
//! * [`Traced::to_json`] — one flat-ish JSON object per event, the JSONL
//!   export format behind `--trace-out`.
//! * [`Traced::render`] — the human-readable line used by
//!   `concilium-explain list` and by failing-case reproducers.

use std::fmt::Write as _;

use crate::json::{escape, Json};

/// Why a message never progressed past its first overlay hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The injected fault plan dropped it on the first hop.
    TransportDrop,
    /// A Byzantine host on the route silently discarded it.
    HostDrop,
    /// An ambient (world-model) link failure dropped it.
    NetworkDrop,
}

impl FaultKind {
    /// Stable numeric encoding used in the trace hash.
    pub(crate) fn code(self) -> u64 {
        match self {
            FaultKind::TransportDrop => 0,
            FaultKind::HostDrop => 1,
            FaultKind::NetworkDrop => 2,
        }
    }

    /// Stable short name used in JSON and pretty output.
    pub(crate) fn name(self) -> &'static str {
        match self {
            FaultKind::TransportDrop => "transport-drop",
            FaultKind::HostDrop => "host-drop",
            FaultKind::NetworkDrop => "network-drop",
        }
    }
}

/// Why the serving daemon refused to admit a failure report. Shedding is
/// never silent: every refusal is a typed trace event plus a metrics
/// counter, so admitted = completed + shed + in-flight stays auditable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded ingest mailbox was at capacity.
    MailboxFull,
    /// Admission control predicted the report would miss its deadline
    /// behind the current backlog.
    DeadlineExceeded,
    /// The daemon is in degraded read-only mode (restart budget spent).
    Degraded,
    /// The report is too large for one journal frame: admitting it would
    /// write a record recovery cannot read back.
    Oversize,
}

impl ShedReason {
    /// Stable numeric encoding used in the trace hash.
    pub fn code(self) -> u64 {
        match self {
            ShedReason::MailboxFull => 0,
            ShedReason::DeadlineExceeded => 1,
            ShedReason::Degraded => 2,
            ShedReason::Oversize => 3,
        }
    }

    /// Stable short name used in JSON, pretty output, and metric names.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ShedReason::MailboxFull => "mailbox-full",
            ShedReason::DeadlineExceeded => "deadline",
            ShedReason::Degraded => "degraded",
            ShedReason::Oversize => "oversize",
        }
    }
}

/// Per-link observation tallies: one link of the Eq. 2 evidence behind a
/// blame computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkObsSummary {
    /// The observed IP link.
    pub link: u64,
    /// Observations reporting the link up.
    pub up: u64,
    /// Observations reporting the link down.
    pub down: u64,
}

/// Fixed-point encoding used for probabilities in the trace hash: parts
/// per billion, enough to round-trip an `f64` probability bit-stably for
/// comparison purposes without hashing raw float bits.
pub fn ppb(x: f64) -> u64 {
    (x.clamp(0.0, 1.0) * 1e9) as u64
}

/// Parse-side inverse of the `{:.9}` probability printing in
/// [`Traced::to_json`]. Must *round*, not truncate like [`ppb`]: the
/// printed decimal is exact to nine places but its nearest `f64` can sit
/// just below the true value, and truncation would then re-encode
/// `0.123456789` as `123456788` — a silent one-ppb drift on every JSON
/// round trip.
pub(crate) fn ppb_from_f64(x: f64) -> u64 {
    (x.clamp(0.0, 1.0) * 1e9).round() as u64
}

/// One structured event of the diagnosis pipeline.
///
/// Host/message identifiers are plain `u64` indices: this crate is
/// dependency-free, and the simulator's dense indices are already the
/// lingua franca of its trace hashes.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// An application message (the protocol's probe of the overlay route)
    /// entered the network.
    MessageSent {
        /// Message index within the episode.
        msg: u64,
        /// Flow the message belongs to.
        flow: u64,
    },
    /// A send was skipped because a route host was crashed.
    ChurnBlocked {
        /// Message index.
        msg: u64,
    },
    /// Where the message actually got to (probe lost vs delivered).
    RouteOutcome {
        /// Message index.
        msg: u64,
        /// Highest route position that received the message.
        received_upto: u64,
        /// Whether it truly reached the destination.
        delivered: bool,
    },
    /// A fault was injected into this message's delivery.
    FaultInjected {
        /// Message index.
        msg: u64,
        /// What kind of fault.
        kind: FaultKind,
    },
    /// A verified acknowledgment settled a message.
    AckReceived {
        /// Message index.
        msg: u64,
    },
    /// A retransmission attempt fired.
    RetryFired {
        /// Message index.
        msg: u64,
        /// One-based attempt number.
        attempt: u64,
    },
    /// Every retry attempt expired unacknowledged.
    MessageExpired {
        /// Message index.
        msg: u64,
    },
    /// Remote snapshots were exchanged while gathering evidence.
    SnapshotsGathered {
        /// Path links covered.
        links: u64,
        /// Total admissible observations pooled across them.
        observations: u64,
    },
    /// A judge ran the Eq. 2–3 combinator, with its inputs.
    BlameComputed {
        /// Message index that triggered the judgment.
        msg: u64,
        /// Resulting blame, parts per billion.
        blame_ppb: u64,
        /// The probe accuracy fed to Eq. 2, parts per billion.
        accuracy_ppb: u64,
        /// Per-link up/down tallies (the Eq. 2 inputs).
        links: Vec<LinkObsSummary>,
    },
    /// A verdict entered an (accuser, accused) m-of-w window.
    VerdictAccumulated {
        /// Judging host.
        judge: u64,
        /// Accused host.
        accused: u64,
        /// Whether this verdict was guilty.
        guilty: bool,
        /// Guilty verdicts in the window after the push.
        window_guilty: u64,
        /// Window occupancy after the push.
        window_len: u64,
    },
    /// A window crossed its quota: formal accusation begins.
    Escalated {
        /// Triggering message index.
        msg: u64,
        /// Accusing host.
        judge: u64,
        /// Accused host.
        accused: u64,
    },
    /// The accusation dissolved (ack proof or network exoneration).
    Dissolved {
        /// Triggering message index.
        msg: u64,
    },
    /// The §3.5 revision chain left blame standing on a host.
    CulpritStanding {
        /// Triggering message index.
        msg: u64,
        /// Route position of the culprit.
        position: u64,
        /// The culprit host.
        culprit: u64,
    },
    /// One revision handoff of the accusation chain.
    AccusationRevised {
        /// Zero-based revision step.
        step: u64,
        /// Route position of the reviser.
        accuser_pos: u64,
        /// Route position of the newly accused.
        accused_pos: u64,
        /// Whether the handoff survived the transport (amended) or was
        /// withheld, leaving the chain standing short.
        amended: bool,
    },
    /// A terminal accusation reached the DHT at write quorum.
    AccusationStored {
        /// The culprit host.
        culprit: u64,
        /// Replicas that acknowledged the write.
        replicas: u64,
    },
    /// The DHT write-quorum reported a typed refusal.
    DhtRefused {
        /// The culprit host the write was for.
        culprit: u64,
    },
    /// The serving daemon admitted a failure report into its mailbox.
    ReportAdmitted {
        /// Report identifier.
        report: u64,
        /// Mailbox depth after admission.
        queue_depth: u64,
    },
    /// The serving daemon shed a failure report instead of admitting it.
    LoadShed {
        /// Report identifier.
        report: u64,
        /// The typed reason for the refusal.
        reason: ShedReason,
    },
    /// A batched blame evaluation finished for one admitted report.
    ReportCompleted {
        /// Report identifier.
        report: u64,
        /// Evidence-window batch the report was evaluated in.
        batch: u64,
    },
    /// The daemon's write-ahead journal committed an input boundary.
    JournalCommitted {
        /// Sequence number of the commit record.
        seq: u64,
        /// Next workload input index after the commit.
        next_input: u64,
    },
    /// The supervisor caught a daemon crash and restarted from the journal.
    SupervisorRestarted {
        /// One-based incident number.
        incident: u64,
        /// Restarts left in the budget after this one.
        budget_left: u64,
    },
    /// The restart budget is spent: the daemon is read-only from here on.
    DegradedEntered {
        /// Total crash incidents absorbed before escalation.
        incidents: u64,
    },
    /// Journal recovery replayed committed records into fresh state.
    RecoveryReplayed {
        /// Mutation records replayed.
        records: u64,
        /// Workload input index processing resumed at.
        resumed_input: u64,
    },
    /// A retransmit-queue poll tick.
    Tick,
}

impl TraceEvent {
    /// The event's stable label, the first component of its hash encoding.
    pub fn label(&self) -> &'static str {
        match self {
            TraceEvent::MessageSent { .. } => "send",
            TraceEvent::ChurnBlocked { .. } => "churn-blocked",
            TraceEvent::RouteOutcome { .. } => "outcome",
            TraceEvent::FaultInjected { .. } => "fault",
            TraceEvent::AckReceived { .. } => "ack",
            TraceEvent::RetryFired { .. } => "retx",
            TraceEvent::MessageExpired { .. } => "expire",
            TraceEvent::SnapshotsGathered { .. } => "snapshots",
            TraceEvent::BlameComputed { .. } => "judge",
            TraceEvent::VerdictAccumulated { .. } => "verdict",
            TraceEvent::Escalated { .. } => "escalate",
            TraceEvent::Dissolved { .. } => "dissolve",
            TraceEvent::CulpritStanding { .. } => "standing",
            TraceEvent::AccusationRevised { .. } => "revise",
            TraceEvent::AccusationStored { .. } => "stored",
            TraceEvent::DhtRefused { .. } => "dht-refused",
            TraceEvent::ReportAdmitted { .. } => "admit",
            TraceEvent::LoadShed { .. } => "shed",
            TraceEvent::ReportCompleted { .. } => "complete",
            TraceEvent::JournalCommitted { .. } => "journal-commit",
            TraceEvent::SupervisorRestarted { .. } => "restart",
            TraceEvent::DegradedEntered { .. } => "degraded",
            TraceEvent::RecoveryReplayed { .. } => "recovered",
            TraceEvent::Tick => "tick",
        }
    }

    /// A stable dense numeric code for the event's kind — the alphabet the
    /// coverage extractor builds its bigrams over. Codes are append-only:
    /// new variants take the next free code so existing coverage corpora
    /// keep their meaning.
    pub(crate) fn kind_code(&self) -> u64 {
        match self {
            TraceEvent::MessageSent { .. } => 0,
            TraceEvent::ChurnBlocked { .. } => 1,
            TraceEvent::RouteOutcome { .. } => 2,
            TraceEvent::FaultInjected { .. } => 3,
            TraceEvent::AckReceived { .. } => 4,
            TraceEvent::RetryFired { .. } => 5,
            TraceEvent::MessageExpired { .. } => 6,
            TraceEvent::SnapshotsGathered { .. } => 7,
            TraceEvent::BlameComputed { .. } => 8,
            TraceEvent::VerdictAccumulated { .. } => 9,
            TraceEvent::Escalated { .. } => 10,
            TraceEvent::Dissolved { .. } => 11,
            TraceEvent::CulpritStanding { .. } => 12,
            TraceEvent::AccusationRevised { .. } => 13,
            TraceEvent::AccusationStored { .. } => 14,
            TraceEvent::DhtRefused { .. } => 15,
            TraceEvent::ReportAdmitted { .. } => 16,
            TraceEvent::LoadShed { .. } => 17,
            TraceEvent::ReportCompleted { .. } => 18,
            TraceEvent::JournalCommitted { .. } => 19,
            TraceEvent::SupervisorRestarted { .. } => 20,
            TraceEvent::DegradedEntered { .. } => 21,
            TraceEvent::RecoveryReplayed { .. } => 22,
            TraceEvent::Tick => 23,
        }
    }

    /// Appends the event's numeric fields, in canonical order, to `out`.
    ///
    /// Together with [`TraceEvent::label`] and the virtual timestamp this
    /// is the exact encoding the chained trace hasher absorbs, so any
    /// change here changes every trace digest.
    pub fn hash_fields(&self, out: &mut Vec<u64>) {
        match self {
            TraceEvent::MessageSent { msg, flow } => out.extend([*msg, *flow]),
            TraceEvent::ChurnBlocked { msg } => out.push(*msg),
            TraceEvent::RouteOutcome { msg, received_upto, delivered } => {
                out.extend([*msg, *received_upto, u64::from(*delivered)])
            }
            TraceEvent::FaultInjected { msg, kind } => out.extend([*msg, kind.code()]),
            TraceEvent::AckReceived { msg } => out.push(*msg),
            TraceEvent::RetryFired { msg, attempt } => out.extend([*msg, *attempt]),
            TraceEvent::MessageExpired { msg } => out.push(*msg),
            TraceEvent::SnapshotsGathered { links, observations } => {
                out.extend([*links, *observations])
            }
            TraceEvent::BlameComputed { msg, blame_ppb, accuracy_ppb, links } => {
                out.extend([*msg, *blame_ppb, *accuracy_ppb, links.len() as u64]);
                for l in links {
                    out.extend([l.link, l.up, l.down]);
                }
            }
            TraceEvent::VerdictAccumulated { judge, accused, guilty, window_guilty, window_len } => {
                out.extend([*judge, *accused, u64::from(*guilty), *window_guilty, *window_len])
            }
            TraceEvent::Escalated { msg, judge, accused } => {
                out.extend([*msg, *judge, *accused])
            }
            TraceEvent::Dissolved { msg } => out.push(*msg),
            TraceEvent::CulpritStanding { msg, position, culprit } => {
                out.extend([*msg, *position, *culprit])
            }
            TraceEvent::AccusationRevised { step, accuser_pos, accused_pos, amended } => {
                out.extend([*step, *accuser_pos, *accused_pos, u64::from(*amended)])
            }
            TraceEvent::AccusationStored { culprit, replicas } => {
                out.extend([*culprit, *replicas])
            }
            TraceEvent::DhtRefused { culprit } => out.push(*culprit),
            TraceEvent::ReportAdmitted { report, queue_depth } => {
                out.extend([*report, *queue_depth])
            }
            TraceEvent::LoadShed { report, reason } => out.extend([*report, reason.code()]),
            TraceEvent::ReportCompleted { report, batch } => out.extend([*report, *batch]),
            TraceEvent::JournalCommitted { seq, next_input } => out.extend([*seq, *next_input]),
            TraceEvent::SupervisorRestarted { incident, budget_left } => {
                out.extend([*incident, *budget_left])
            }
            TraceEvent::DegradedEntered { incidents } => out.push(*incidents),
            TraceEvent::RecoveryReplayed { records, resumed_input } => {
                out.extend([*records, *resumed_input])
            }
            TraceEvent::Tick => {}
        }
    }
}

/// A [`TraceEvent`] with its virtual timestamp.
#[derive(Clone, Debug, PartialEq)]
pub struct Traced {
    /// Virtual time of the event, in microseconds since episode start.
    pub at_micros: u64,
    /// The event itself.
    pub event: TraceEvent,
}

fn fmt_vtime(micros: u64) -> String {
    format!("{}.{:06}s", micros / 1_000_000, micros % 1_000_000)
}

impl Traced {
    /// Renders the event as one JSON object (no trailing newline).
    ///
    /// Field order is fixed, so two identical traces serialize to
    /// byte-identical JSONL — the property the CI `--trace-out` equality
    /// check relies on.
    pub fn to_json(&self, extra: &[(&str, &str)]) -> String {
        let mut s = String::with_capacity(96);
        s.push('{');
        for (k, v) in extra {
            let _ = write!(s, "{}:{},", escape(k), escape(v));
        }
        let _ = write!(s, "\"t_us\":{},\"kind\":{:?}", self.at_micros, self.event.label());
        match &self.event {
            TraceEvent::MessageSent { msg, flow } => {
                let _ = write!(s, ",\"msg\":{msg},\"flow\":{flow}");
            }
            TraceEvent::ChurnBlocked { msg }
            | TraceEvent::AckReceived { msg }
            | TraceEvent::MessageExpired { msg }
            | TraceEvent::Dissolved { msg } => {
                let _ = write!(s, ",\"msg\":{msg}");
            }
            TraceEvent::RouteOutcome { msg, received_upto, delivered } => {
                let _ = write!(
                    s,
                    ",\"msg\":{msg},\"received_upto\":{received_upto},\"delivered\":{delivered}"
                );
            }
            TraceEvent::FaultInjected { msg, kind } => {
                let _ = write!(s, ",\"msg\":{msg},\"fault\":{:?}", kind.name());
            }
            TraceEvent::RetryFired { msg, attempt } => {
                let _ = write!(s, ",\"msg\":{msg},\"attempt\":{attempt}");
            }
            TraceEvent::SnapshotsGathered { links, observations } => {
                let _ = write!(s, ",\"links\":{links},\"observations\":{observations}");
            }
            TraceEvent::BlameComputed { msg, blame_ppb, accuracy_ppb, links } => {
                let _ = write!(
                    s,
                    ",\"msg\":{msg},\"blame\":{:.9},\"accuracy\":{:.9},\"links\":[",
                    *blame_ppb as f64 / 1e9,
                    *accuracy_ppb as f64 / 1e9
                );
                for (i, l) in links.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(
                        s,
                        "{{\"link\":{},\"up\":{},\"down\":{}}}",
                        l.link, l.up, l.down
                    );
                }
                s.push(']');
            }
            TraceEvent::VerdictAccumulated { judge, accused, guilty, window_guilty, window_len } => {
                let _ = write!(
                    s,
                    ",\"judge\":{judge},\"accused\":{accused},\"guilty\":{guilty},\
                     \"window_guilty\":{window_guilty},\"window_len\":{window_len}"
                );
            }
            TraceEvent::Escalated { msg, judge, accused } => {
                let _ = write!(s, ",\"msg\":{msg},\"judge\":{judge},\"accused\":{accused}");
            }
            TraceEvent::CulpritStanding { msg, position, culprit } => {
                let _ = write!(s, ",\"msg\":{msg},\"position\":{position},\"culprit\":{culprit}");
            }
            TraceEvent::AccusationRevised { step, accuser_pos, accused_pos, amended } => {
                let _ = write!(
                    s,
                    ",\"step\":{step},\"accuser_pos\":{accuser_pos},\
                     \"accused_pos\":{accused_pos},\"amended\":{amended}"
                );
            }
            TraceEvent::AccusationStored { culprit, replicas } => {
                let _ = write!(s, ",\"culprit\":{culprit},\"replicas\":{replicas}");
            }
            TraceEvent::DhtRefused { culprit } => {
                let _ = write!(s, ",\"culprit\":{culprit}");
            }
            TraceEvent::ReportAdmitted { report, queue_depth } => {
                let _ = write!(s, ",\"report\":{report},\"queue_depth\":{queue_depth}");
            }
            TraceEvent::LoadShed { report, reason } => {
                let _ = write!(s, ",\"report\":{report},\"reason\":{:?}", reason.name());
            }
            TraceEvent::ReportCompleted { report, batch } => {
                let _ = write!(s, ",\"report\":{report},\"batch\":{batch}");
            }
            TraceEvent::JournalCommitted { seq, next_input } => {
                let _ = write!(s, ",\"seq\":{seq},\"next_input\":{next_input}");
            }
            TraceEvent::SupervisorRestarted { incident, budget_left } => {
                let _ = write!(s, ",\"incident\":{incident},\"budget_left\":{budget_left}");
            }
            TraceEvent::DegradedEntered { incidents } => {
                let _ = write!(s, ",\"incidents\":{incidents}");
            }
            TraceEvent::RecoveryReplayed { records, resumed_input } => {
                let _ = write!(s, ",\"records\":{records},\"resumed_input\":{resumed_input}");
            }
            TraceEvent::Tick => {}
        }
        s.push('}');
        s
    }

    /// Renders the event as one human-readable line (no trailing newline).
    pub fn render(&self) -> String {
        let t = fmt_vtime(self.at_micros);
        match &self.event {
            TraceEvent::MessageSent { msg, flow } => {
                format!("[{t}] send        msg={msg} flow={flow}")
            }
            TraceEvent::ChurnBlocked { msg } => {
                format!("[{t}] churn-block msg={msg} (route host crashed, send skipped)")
            }
            TraceEvent::RouteOutcome { msg, received_upto, delivered } => format!(
                "[{t}] outcome     msg={msg} received_upto={received_upto} delivered={delivered}"
            ),
            TraceEvent::FaultInjected { msg, kind } => {
                format!("[{t}] fault       msg={msg} kind={}", kind.name())
            }
            TraceEvent::AckReceived { msg } => format!("[{t}] ack         msg={msg} settled"),
            TraceEvent::RetryFired { msg, attempt } => {
                format!("[{t}] retry       msg={msg} attempt={attempt}")
            }
            TraceEvent::MessageExpired { msg } => {
                format!("[{t}] expire      msg={msg} (all attempts unacknowledged)")
            }
            TraceEvent::SnapshotsGathered { links, observations } => format!(
                "[{t}] snapshots   {observations} observations over {links} path links"
            ),
            TraceEvent::BlameComputed { msg, blame_ppb, accuracy_ppb, links } => {
                let mut line = format!(
                    "[{t}] blame       msg={msg} blame={:.4} accuracy={:.2} evidence=[",
                    *blame_ppb as f64 / 1e9,
                    *accuracy_ppb as f64 / 1e9
                );
                for (i, l) in links.iter().enumerate() {
                    if i > 0 {
                        line.push_str(", ");
                    }
                    let _ = write!(line, "link {}: {}↑/{}↓", l.link, l.up, l.down);
                }
                line.push(']');
                line
            }
            TraceEvent::VerdictAccumulated { judge, accused, guilty, window_guilty, window_len } => {
                format!(
                    "[{t}] verdict     {judge}→{accused} {} (window {window_guilty}/{window_len})",
                    if *guilty { "GUILTY" } else { "innocent" }
                )
            }
            TraceEvent::Escalated { msg, judge, accused } => format!(
                "[{t}] escalate    msg={msg} {judge} formally accuses {accused}"
            ),
            TraceEvent::Dissolved { msg } => {
                format!("[{t}] dissolve    msg={msg} (ack proof or network exoneration)")
            }
            TraceEvent::CulpritStanding { msg, position, culprit } => format!(
                "[{t}] standing    msg={msg} culprit=host {culprit} at route position {position}"
            ),
            TraceEvent::AccusationRevised { step, accuser_pos, accused_pos, amended } => format!(
                "[{t}] revise      step={step} position {accuser_pos} → {accused_pos} {}",
                if *amended { "amended" } else { "WITHHELD (chain stands short)" }
            ),
            TraceEvent::AccusationStored { culprit, replicas } => format!(
                "[{t}] stored      accusation against host {culprit} on {replicas} replicas"
            ),
            TraceEvent::DhtRefused { culprit } => format!(
                "[{t}] dht-refused quorum refusal storing accusation against host {culprit}"
            ),
            TraceEvent::ReportAdmitted { report, queue_depth } => format!(
                "[{t}] admit       report={report} queue_depth={queue_depth}"
            ),
            TraceEvent::LoadShed { report, reason } => {
                format!("[{t}] shed        report={report} reason={}", reason.name())
            }
            TraceEvent::ReportCompleted { report, batch } => {
                format!("[{t}] complete    report={report} batch={batch}")
            }
            TraceEvent::JournalCommitted { seq, next_input } => format!(
                "[{t}] commit      seq={seq} next_input={next_input}"
            ),
            TraceEvent::SupervisorRestarted { incident, budget_left } => format!(
                "[{t}] restart     incident={incident} budget_left={budget_left}"
            ),
            TraceEvent::DegradedEntered { incidents } => format!(
                "[{t}] degraded    read-only after {incidents} incident(s)"
            ),
            TraceEvent::RecoveryReplayed { records, resumed_input } => format!(
                "[{t}] recovered   {records} record(s) replayed, resuming at input {resumed_input}"
            ),
            TraceEvent::Tick => format!("[{t}] tick"),
        }
    }
}

fn field_u64(v: &Json, key: &str) -> Option<u64> {
    v.get(key).and_then(Json::as_u64)
}

fn field_bool(v: &Json, key: &str) -> Option<bool> {
    match v.get(key) {
        Some(Json::Bool(b)) => Some(*b),
        _ => None,
    }
}

/// Rebuilds the typed event from one parsed `--trace-out` JSONL object,
/// the inverse of [`Traced::to_json`]. `None` for unknown kinds and for
/// missing or malformed fields.
fn event_from_json(kind: &str, v: &Json) -> Option<TraceEvent> {
    let msg = || field_u64(v, "msg");
    Some(match kind {
        "send" => TraceEvent::MessageSent { msg: msg()?, flow: field_u64(v, "flow")? },
        "churn-blocked" => TraceEvent::ChurnBlocked { msg: msg()? },
        "outcome" => TraceEvent::RouteOutcome {
            msg: msg()?,
            received_upto: field_u64(v, "received_upto")?,
            delivered: field_bool(v, "delivered")?,
        },
        "fault" => TraceEvent::FaultInjected {
            msg: msg()?,
            kind: match v.get("fault").and_then(Json::as_str)? {
                "transport-drop" => FaultKind::TransportDrop,
                "host-drop" => FaultKind::HostDrop,
                "network-drop" => FaultKind::NetworkDrop,
                _ => return None,
            },
        },
        "ack" => TraceEvent::AckReceived { msg: msg()? },
        "retx" => TraceEvent::RetryFired { msg: msg()?, attempt: field_u64(v, "attempt")? },
        "expire" => TraceEvent::MessageExpired { msg: msg()? },
        "snapshots" => TraceEvent::SnapshotsGathered {
            links: field_u64(v, "links")?,
            observations: field_u64(v, "observations")?,
        },
        "judge" => TraceEvent::BlameComputed {
            msg: msg()?,
            blame_ppb: ppb_from_f64(v.get("blame").and_then(Json::as_num)?),
            accuracy_ppb: ppb_from_f64(v.get("accuracy").and_then(Json::as_num)?),
            links: v
                .get("links")
                .and_then(Json::as_arr)?
                .iter()
                .map(|l| {
                    Some(LinkObsSummary {
                        link: field_u64(l, "link")?,
                        up: field_u64(l, "up")?,
                        down: field_u64(l, "down")?,
                    })
                })
                .collect::<Option<_>>()?,
        },
        "verdict" => TraceEvent::VerdictAccumulated {
            judge: field_u64(v, "judge")?,
            accused: field_u64(v, "accused")?,
            guilty: field_bool(v, "guilty")?,
            window_guilty: field_u64(v, "window_guilty")?,
            window_len: field_u64(v, "window_len")?,
        },
        "escalate" => TraceEvent::Escalated {
            msg: msg()?,
            judge: field_u64(v, "judge")?,
            accused: field_u64(v, "accused")?,
        },
        "dissolve" => TraceEvent::Dissolved { msg: msg()? },
        "standing" => TraceEvent::CulpritStanding {
            msg: msg()?,
            position: field_u64(v, "position")?,
            culprit: field_u64(v, "culprit")?,
        },
        "revise" => TraceEvent::AccusationRevised {
            step: field_u64(v, "step")?,
            accuser_pos: field_u64(v, "accuser_pos")?,
            accused_pos: field_u64(v, "accused_pos")?,
            amended: field_bool(v, "amended")?,
        },
        "stored" => TraceEvent::AccusationStored {
            culprit: field_u64(v, "culprit")?,
            replicas: field_u64(v, "replicas")?,
        },
        "dht-refused" => TraceEvent::DhtRefused { culprit: field_u64(v, "culprit")? },
        "admit" => TraceEvent::ReportAdmitted {
            report: field_u64(v, "report")?,
            queue_depth: field_u64(v, "queue_depth")?,
        },
        "shed" => TraceEvent::LoadShed {
            report: field_u64(v, "report")?,
            reason: match v.get("reason").and_then(Json::as_str)? {
                "mailbox-full" => ShedReason::MailboxFull,
                "deadline" => ShedReason::DeadlineExceeded,
                "degraded" => ShedReason::Degraded,
                "oversize" => ShedReason::Oversize,
                _ => return None,
            },
        },
        "complete" => TraceEvent::ReportCompleted {
            report: field_u64(v, "report")?,
            batch: field_u64(v, "batch")?,
        },
        "journal-commit" => TraceEvent::JournalCommitted {
            seq: field_u64(v, "seq")?,
            next_input: field_u64(v, "next_input")?,
        },
        "restart" => TraceEvent::SupervisorRestarted {
            incident: field_u64(v, "incident")?,
            budget_left: field_u64(v, "budget_left")?,
        },
        "degraded" => TraceEvent::DegradedEntered { incidents: field_u64(v, "incidents")? },
        "recovered" => TraceEvent::RecoveryReplayed {
            records: field_u64(v, "records")?,
            resumed_input: field_u64(v, "resumed_input")?,
        },
        "tick" => TraceEvent::Tick,
        _ => return None,
    })
}

/// Parses one `--trace-out` JSONL line into a [`Traced`] event, returning
/// any `episode`/`seed` annotations alongside. `None` when the line's
/// kind is unknown (forward compatibility: never invent an event) or a
/// field does not decode — integers must be non-negative, integral and
/// at most 2^53 ([`Json::as_u64`]).
pub fn traced_from_json_line(
    v: &Json,
) -> Option<(Traced, Option<String>, Option<String>)> {
    let at_micros = field_u64(v, "t_us")?;
    let kind = v.get("kind").and_then(Json::as_str)?;
    let event = event_from_json(kind, v)?;
    let episode = v.get("episode").and_then(Json::as_str).map(str::to_string);
    let seed = v.get("seed").and_then(Json::as_str).map(str::to_string);
    Some((Traced { at_micros, event }, episode, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ppb_is_clamped_fixed_point() {
        assert_eq!(ppb(0.0), 0);
        assert_eq!(ppb(1.0), 1_000_000_000);
        assert_eq!(ppb(2.0), 1_000_000_000);
        assert_eq!(ppb(-1.0), 0);
        assert_eq!(ppb(0.25), 250_000_000);
    }

    #[test]
    fn hash_fields_are_stable_per_variant() {
        let ev = TraceEvent::BlameComputed {
            msg: 7,
            blame_ppb: ppb(0.5),
            accuracy_ppb: ppb(0.9),
            links: vec![LinkObsSummary { link: 3, up: 5, down: 1 }],
        };
        let mut fields = Vec::new();
        ev.hash_fields(&mut fields);
        assert_eq!(fields, vec![7, 500_000_000, 900_000_000, 1, 3, 5, 1]);
        assert_eq!(ev.label(), "judge");
    }

    #[test]
    fn serve_events_encode_all_three_renderings() {
        let shed = Traced {
            at_micros: 2_000_000,
            event: TraceEvent::LoadShed { report: 9, reason: ShedReason::DeadlineExceeded },
        };
        let mut fields = Vec::new();
        shed.event.hash_fields(&mut fields);
        assert_eq!(fields, vec![9, 1]);
        assert_eq!(shed.event.label(), "shed");
        assert!(shed.to_json(&[]).contains("\"reason\":\"deadline\""));
        assert!(shed.render().contains("reason=deadline"));

        let recovered = Traced {
            at_micros: 0,
            event: TraceEvent::RecoveryReplayed { records: 12, resumed_input: 5 },
        };
        let mut fields = Vec::new();
        recovered.event.hash_fields(&mut fields);
        assert_eq!(fields, vec![12, 5]);
        assert!(recovered.to_json(&[]).contains("\"records\":12"));
        assert!(recovered.render().contains("resuming at input 5"));

        // Shed reason codes are distinct and stable.
        let codes: Vec<u64> =
            [
                ShedReason::MailboxFull,
                ShedReason::DeadlineExceeded,
                ShedReason::Degraded,
                ShedReason::Oversize,
            ]
            .iter()
            .map(|r| r.code())
            .collect();
        assert_eq!(codes, vec![0, 1, 2, 3]);
        // The newest reason round-trips like the rest (the golden exemplars
        // predate it).
        let oversize = Traced {
            at_micros: 7,
            event: TraceEvent::LoadShed { report: 40, reason: ShedReason::Oversize },
        };
        let line = oversize.to_json(&[]);
        assert!(line.contains("\"reason\":\"oversize\""));
        let parsed = crate::json::parse(&line).map(|v| traced_from_json_line(&v).map(|t| t.0));
        assert_eq!(parsed.ok().flatten(), Some(oversize));
    }

    #[test]
    fn json_and_render_are_deterministic() {
        let traced = Traced {
            at_micros: 1_500_000,
            event: TraceEvent::VerdictAccumulated {
                judge: 1,
                accused: 2,
                guilty: true,
                window_guilty: 3,
                window_len: 4,
            },
        };
        let a = traced.to_json(&[("episode", "lossy")]);
        let b = traced.to_json(&[("episode", "lossy")]);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"episode\":\"lossy\","), "{a}");
        assert!(a.contains("\"kind\":\"verdict\""));
        assert!(traced.render().contains("GUILTY"));
        assert!(traced.render().contains("[1.500000s]"));
    }

    /// One exemplar per variant, with field values chosen to be mutually
    /// distinct so any cross-wired JSON key shows up as a mismatch.
    fn one_of_each() -> Vec<TraceEvent> {
        vec![
            TraceEvent::MessageSent { msg: 11, flow: 2 },
            TraceEvent::ChurnBlocked { msg: 12 },
            TraceEvent::RouteOutcome { msg: 13, received_upto: 3, delivered: false },
            TraceEvent::FaultInjected { msg: 14, kind: FaultKind::TransportDrop },
            TraceEvent::FaultInjected { msg: 15, kind: FaultKind::HostDrop },
            TraceEvent::FaultInjected { msg: 16, kind: FaultKind::NetworkDrop },
            TraceEvent::AckReceived { msg: 17 },
            TraceEvent::RetryFired { msg: 18, attempt: 4 },
            TraceEvent::MessageExpired { msg: 19 },
            TraceEvent::SnapshotsGathered { links: 5, observations: 41 },
            TraceEvent::BlameComputed {
                // 123456789 ppb prints as 0.123456789 whose nearest f64
                // is fractionally *below* the decimal — the value that
                // catches a truncating (rather than rounding) decoder.
                msg: 20,
                blame_ppb: 123_456_789,
                accuracy_ppb: 999_999_999,
                links: vec![
                    LinkObsSummary { link: 6, up: 7, down: 1 },
                    LinkObsSummary { link: 8, up: 0, down: 9 },
                ],
            },
            TraceEvent::VerdictAccumulated {
                judge: 21,
                accused: 22,
                guilty: true,
                window_guilty: 3,
                window_len: 5,
            },
            TraceEvent::Escalated { msg: 23, judge: 24, accused: 25 },
            TraceEvent::Dissolved { msg: 26 },
            TraceEvent::CulpritStanding { msg: 27, position: 2, culprit: 28 },
            TraceEvent::AccusationRevised {
                step: 1,
                accuser_pos: 2,
                accused_pos: 3,
                amended: false,
            },
            TraceEvent::AccusationStored { culprit: 29, replicas: 3 },
            TraceEvent::DhtRefused { culprit: 30 },
            TraceEvent::ReportAdmitted { report: 31, queue_depth: 4 },
            TraceEvent::LoadShed { report: 32, reason: ShedReason::MailboxFull },
            TraceEvent::LoadShed { report: 33, reason: ShedReason::DeadlineExceeded },
            TraceEvent::LoadShed { report: 34, reason: ShedReason::Degraded },
            TraceEvent::ReportCompleted { report: 35, batch: 6 },
            TraceEvent::JournalCommitted { seq: 36, next_input: 37 },
            TraceEvent::SupervisorRestarted { incident: 2, budget_left: 1 },
            TraceEvent::DegradedEntered { incidents: 3 },
            TraceEvent::RecoveryReplayed { records: 38, resumed_input: 39 },
            TraceEvent::Tick,
        ]
    }

    /// Pins all three renderings together: every event kind's JSON must
    /// decode back ([`traced_from_json_line`]) to an event with the same label
    /// and the same canonical `hash_fields` encoding, and re-serializing
    /// the decoded event must reproduce the original JSON byte for byte.
    /// Any drift between `to_json`, `render`, and the hash encoding for
    /// a new variant fails here instead of silently corrupting exports.
    #[test]
    fn every_kind_round_trips_through_json() {
        let exemplars = one_of_each();
        // First: the exemplar list covers every kind code.
        let mut covered: Vec<u64> = exemplars.iter().map(TraceEvent::kind_code).collect();
        covered.sort_unstable();
        covered.dedup();
        assert_eq!(
            covered,
            (0..=23).collect::<Vec<u64>>(),
            "round-trip exemplars must cover every TraceEvent kind code"
        );
        for event in exemplars {
            let traced = Traced { at_micros: 1_234_567, event };
            let line = traced.to_json(&[("episode", "rt"), ("seed", "5")]);
            let parsed = crate::json::parse(&line)
                .unwrap_or_else(|e| panic!("{}: unparseable own JSON {line}: {e}", traced.event.label()));
            let (decoded, episode, seed) = traced_from_json_line(&parsed)
                .unwrap_or_else(|| panic!("{}: undecodable own JSON {line}", traced.event.label()));
            assert_eq!(episode.as_deref(), Some("rt"));
            assert_eq!(seed.as_deref(), Some("5"));
            assert_eq!(decoded.at_micros, traced.at_micros);
            assert_eq!(decoded.event.label(), traced.event.label());
            let (mut a, mut b) = (Vec::new(), Vec::new());
            traced.event.hash_fields(&mut a);
            decoded.event.hash_fields(&mut b);
            assert_eq!(a, b, "{}: hash fields drifted across JSON", traced.event.label());
            assert_eq!(
                decoded.to_json(&[("episode", "rt"), ("seed", "5")]),
                line,
                "{}: re-serialization drifted",
                traced.event.label()
            );
            assert_eq!(decoded.render(), traced.render());
        }
    }

    /// The renderings the recorded digests, JSONL exports and explanations
    /// were made with (fixture recorded at 115ffc0): the round trip above
    /// proves the renderings agree with each other, this that none moved.
    #[test]
    fn every_kind_matches_the_golden_fixture() {
        let mut out = String::new();
        let mut keys = Vec::new();
        for event in one_of_each() {
            let mut words = Vec::new();
            event.hash_fields(&mut words);
            crate::causal::entities(&event, &mut keys);
            let entity_keys: Vec<String> = keys.iter().map(ToString::to_string).collect();
            let traced = Traced { at_micros: 1_234_567, event };
            let _ = writeln!(
                out,
                "{} code={} words={words:?} entities=[{}]\n  {}\n  {}",
                traced.event.label(),
                traced.event.kind_code(),
                entity_keys.join(" "),
                traced.to_json(&[("episode", "rt"), ("seed", "5")]),
                traced.render(),
            );
        }
        assert_eq!(out, include_str!("../fixtures/trace_events.golden"));
    }

    #[test]
    fn malformed_integers_do_not_decode() {
        let decode = |line: &str| traced_from_json_line(&crate::json::parse(line).unwrap());
        assert!(decode("{\"t_us\":5,\"kind\":\"ack\",\"msg\":3}").is_some());
        for line in [
            "{\"t_us\":-5,\"kind\":\"ack\",\"msg\":3}",
            "{\"t_us\":5,\"kind\":\"ack\",\"msg\":3.7}",
            "{\"t_us\":5,\"kind\":\"ack\",\"msg\":1e300}",
        ] {
            assert!(decode(line).is_none(), "{line}");
        }
    }

    #[test]
    fn ppb_from_f64_rounds_instead_of_truncating() {
        // 0.123456789's nearest f64 is fractionally below the printed
        // decimal; a truncating decoder lands on 123456788.
        assert_eq!(ppb_from_f64(0.123_456_789), 123_456_789);
        assert_eq!(ppb_from_f64(0.999_999_999), 999_999_999);
        assert_eq!(ppb_from_f64(0.0), 0);
        assert_eq!(ppb_from_f64(1.5), 1_000_000_000);
        assert_eq!(ppb_from_f64(-0.5), 0);
    }
}
