//! The in-memory flight recorder: a small ring of recent journal
//! activity, flushed into the WAL at interesting moments.
//!
//! Every journal record the daemon appends also pushes one compact
//! [`FlightEntry`] into a bounded [`FlightRecorder`] ring. Because the
//! pushes happen at the single append choke point *and* identically
//! during recovery replay, the ring is a pure function of the journal's
//! committed byte prefix — a recovered daemon's ring matches the ring
//! the crashed daemon had for those same committed records, and chaos
//! byte-equality sweeps are untouched.
//!
//! Two flushes put the ring where post-crash tooling can read it:
//!
//! - **On shed**, the daemon journals a [`Record::FlightTail`] carrying
//!   the ring at refusal time — the committed context a later
//!   `explain shed <report>` renders from the WAL alone.
//! - **On panic**, the supervisor rebuilds the ring from the journal's
//!   valid prefix (committed or not — every append became a frame) and
//!   writes it as an *uncommitted* `FlightTail`. Recovery truncates it,
//!   so digests and byte-equality are preserved, but the on-disk image
//!   a crashed process leaves behind still carries its last moments.
//!
//! [`records_to_traced`] bridges the journal back into the causal
//! layer: it derives the daemon's [`TraceEvent`] stream from the
//! records, so `concilium-serve --explain report:N` (and the
//! `concilium-explain` binary, via `--trace-out`) can answer
//! "why was this report shed?" from the WAL after a crash.

use std::collections::BTreeSet;
use std::collections::VecDeque;

use concilium_obs::{ShedReason, TraceEvent, Traced};

use crate::journal::Record;

/// Ring capacity: enough to cover a full mailbox drain plus the
/// surrounding commits without letting `FlightTail` frames bloat the
/// journal.
pub const FLIGHT_CAPACITY: usize = 32;

/// The `report_id` sentinel a supervisor panic flush carries instead of
/// a real report: the flush is about the crash, not one admission.
pub const PANIC_FLUSH: u64 = u64::MAX;

/// One compact ring entry: a journal record projected to four words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEntry {
    /// The source record's sequence number.
    pub seq: u64,
    /// The source record's journal tag (1..=6).
    pub kind: u64,
    /// Primary correlation key (report id, batch id, accused, input).
    pub key: u64,
    /// Secondary detail (input, reason code, start µs, guilty flag,
    /// guilty count, clock µs).
    pub aux: u64,
}

impl FlightEntry {
    /// Projects a journal record into a ring entry. `FlightTail` records
    /// project to `None`: a flush never records itself.
    #[deny(clippy::wildcard_enum_match_arm)]
    pub fn from_record(record: &Record) -> Option<FlightEntry> {
        let (kind, key, aux) = match record {
            Record::Admitted { input, report, .. } => (1, report.id, *input),
            Record::Shed { report_id, reason_code, .. } => (2, *report_id, *reason_code),
            Record::BatchStarted { batch, start_us, .. } => (3, *batch, *start_us),
            Record::VerdictRecorded { report_id, guilty, .. } => {
                (4, *report_id, u64::from(*guilty))
            }
            Record::AccusationFiled { accused, guilty_count, .. } => {
                (5, *accused, *guilty_count)
            }
            Record::Commit { next_input, clock_us, .. } => (6, *next_input, *clock_us),
            Record::FlightTail { .. } => return None,
        };
        Some(FlightEntry { seq: record.seq(), kind, key, aux })
    }

    /// Stable short rendering for diagnostics.
    pub fn render(&self) -> String {
        match self.kind {
            1 => format!("#{} admitted report {} (input {})", self.seq, self.key, self.aux),
            2 => format!("#{} shed report {} (reason {})", self.seq, self.key, self.aux),
            3 => format!("#{} batch {} started at {}us", self.seq, self.key, self.aux),
            4 => format!(
                "#{} verdict on report {}: {}",
                self.seq,
                self.key,
                if self.aux == 1 { "GUILTY" } else { "innocent" }
            ),
            5 => format!(
                "#{} accusation filed against {} ({} guilty)",
                self.seq, self.key, self.aux
            ),
            6 => format!("#{} commit next_input={} clock={}us", self.seq, self.key, self.aux),
            other => format!("#{} unknown-kind {} {} {}", self.seq, other, self.key, self.aux),
        }
    }
}

/// A bounded ring of the most recent [`FlightEntry`]s.
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder {
    entries: VecDeque<FlightEntry>,
}

impl FlightRecorder {
    /// An empty ring.
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// Pushes one entry, evicting the oldest past [`FLIGHT_CAPACITY`].
    pub fn push(&mut self, entry: FlightEntry) {
        if self.entries.len() == FLIGHT_CAPACITY {
            self.entries.pop_front();
        }
        self.entries.push_back(entry);
    }

    /// The buffered entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &FlightEntry> {
        self.entries.iter()
    }

    /// The buffered entries as an owned tail, oldest first — the
    /// payload of a [`Record::FlightTail`].
    pub(crate) fn tail(&self) -> Vec<FlightEntry> {
        self.entries.iter().copied().collect()
    }
}

/// The trace event a journal record stands for, if any: the one
/// `Record` → [`TraceEvent`] mapping, behind both the daemon's live ring
/// (`Daemon::append`) and [`records_to_traced`]. `queue_depth` is the
/// mailbox depth once the record has taken effect; only an admission
/// reads it.
#[deny(clippy::wildcard_enum_match_arm)]
pub(crate) fn trace_event(record: &Record, queue_depth: u64) -> Option<TraceEvent> {
    match record {
        Record::Admitted { report, .. } => {
            Some(TraceEvent::ReportAdmitted { report: report.id, queue_depth })
        }
        Record::Shed { report_id, reason_code, .. } => Some(TraceEvent::LoadShed {
            report: *report_id,
            reason: shed_reason_from_code(*reason_code),
        }),
        Record::VerdictRecorded { report_id, batch, .. } => {
            Some(TraceEvent::ReportCompleted { report: *report_id, batch: *batch })
        }
        Record::Commit { seq, next_input, .. } => {
            Some(TraceEvent::JournalCommitted { seq: *seq, next_input: *next_input })
        }
        Record::BatchStarted { .. }
        | Record::AccusationFiled { .. }
        | Record::FlightTail { .. } => None,
    }
}

/// Derives the daemon's trace-event stream from a journal record
/// sequence, so the causal layer (`CausalIndex`, `concilium-explain`)
/// can answer queries from the WAL alone — including after a crash,
/// when the in-memory trace ring is gone.
///
/// The events are `trace_event`'s; what is reconstructed here is what
/// the live daemon reads off its own state. Timestamps come from the
/// times the records carry (arrival, batch start, commit clock) on a
/// monotone running clock; records without a time reuse the latest.
/// Queue depth is replayed from admissions minus batch drafts — the
/// same arithmetic the live mailbox performs. The derivation is a pure
/// function of the records, so byte-identical journals explain
/// byte-identically.
pub fn records_to_traced(records: &[Record]) -> Vec<Traced> {
    let mut out = Vec::with_capacity(records.len());
    let mut clock = 0u64;
    let mut queued: BTreeSet<u64> = BTreeSet::new();
    for rec in records {
        match rec {
            Record::Admitted { report, .. } => {
                clock = clock.max(report.arrival.as_micros());
                queued.insert(report.id);
            }
            Record::BatchStarted { start_us, report_ids, .. } => {
                clock = clock.max(*start_us);
                for id in report_ids {
                    queued.remove(id);
                }
            }
            Record::Commit { clock_us, .. } => clock = clock.max(*clock_us),
            _ => {}
        }
        if let Some(event) = trace_event(rec, queued.len() as u64) {
            out.push(Traced { at_micros: clock, event });
        }
    }
    out
}

/// Inverse of [`ShedReason::code`]; unknown codes map to the most
/// conservative reason rather than failing (journal corruption is
/// caught by checksums, not here).
pub(crate) fn shed_reason_from_code(code: u64) -> ShedReason {
    match code {
        0 => ShedReason::MailboxFull,
        1 => ShedReason::DeadlineExceeded,
        3 => ShedReason::Oversize,
        _ => ShedReason::Degraded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::FailureReport;
    use concilium_types::SimTime;

    fn admitted(seq: u64, input: u64, id: u64, arrival_us: u64) -> Record {
        Record::Admitted {
            seq,
            input,
            report: FailureReport {
                id,
                judge: 1,
                accused: 2,
                arrival: SimTime::from_micros(arrival_us),
                evidence_at: SimTime::from_micros(arrival_us.saturating_sub(50)),
                links: Vec::new(),
            },
        }
    }

    /// The ring a daemon holds after appending exactly `records`.
    fn ring_of(records: &[Record]) -> FlightRecorder {
        let mut ring = FlightRecorder::new();
        for entry in records.iter().filter_map(FlightEntry::from_record) {
            ring.push(entry);
        }
        ring
    }

    #[test]
    fn ring_is_a_pure_function_of_the_record_sequence() {
        let records: Vec<Record> = (0..100)
            .map(|i| {
                if i % 3 == 0 {
                    admitted(i, i, 1000 + i, 10 * i)
                } else {
                    Record::Commit { seq: i, next_input: i, clock_us: 10 * i }
                }
            })
            .collect();
        let whole = ring_of(&records);
        let mut incremental = ring_of(&records[..40]);
        for rec in &records[40..] {
            if let Some(e) = FlightEntry::from_record(rec) {
                incremental.push(e);
            }
        }
        assert_eq!(whole.tail(), incremental.tail());
        assert_eq!(whole.entries.len(), FLIGHT_CAPACITY, "ring must evict past capacity");
    }

    #[test]
    fn flight_tail_records_never_record_themselves() {
        let tail = Record::FlightTail { seq: 9, report_id: 4, entries: Vec::new() };
        assert_eq!(FlightEntry::from_record(&tail), None);
        assert!(ring_of(&[tail]).entries.is_empty());
    }

    #[test]
    fn records_replay_into_a_causal_trace_stream() {
        let records = vec![
            admitted(0, 0, 100, 1_000),
            Record::Commit { seq: 1, next_input: 1, clock_us: 1_000 },
            Record::Shed { seq: 2, input: 1, report_id: 101, reason_code: 0 },
            Record::Commit { seq: 3, next_input: 2, clock_us: 1_500 },
            Record::BatchStarted { seq: 4, batch: 0, start_us: 2_000, report_ids: vec![100] },
            Record::VerdictRecorded {
                seq: 5,
                report_id: 100,
                batch: 0,
                judge: 1,
                accused: 2,
                guilty: true,
            },
            Record::Commit { seq: 6, next_input: 2, clock_us: 2_500 },
        ];
        let traced = records_to_traced(&records);
        let kinds: Vec<&str> = traced.iter().map(|t| t.event.label()).collect();
        assert_eq!(
            kinds,
            ["admit", "journal-commit", "shed", "journal-commit", "complete", "journal-commit"]
        );
        // The causal layer accepts the derived stream: the completion
        // chains back to its admission, the shed stands alone.
        let index = concilium_obs::CausalIndex::from_events(traced.iter());
        assert!(index.orphan_terminals().is_empty());
    }
}
