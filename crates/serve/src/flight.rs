//! The journal read back: everything observable about a run, derived
//! from its WAL when it is asked for.
//!
//! The journal is the daemon's only record (DESIGN.md §17). The daemon
//! keeps no ring of recent activity and no trace while it runs: both
//! would be pure functions of the journal prefix, and a crashed
//! incarnation's copy would die with it while the journal survives.
//! Instead:
//!
//! - [`records_to_traced`] lifts the daemon's [`TraceEvent`] stream out
//!   of the records, each stamped with the time the daemon's clock read
//!   when it appended the record. `--trace-out` and `--explain` read it,
//!   after a crash as well.
//! - [`shed_tail`] is the flight recorder: the [`TAIL_RECORDS`] journal
//!   records that end at a shed, rendered by [`render`], which
//!   `concilium-serve --explain shed:N` prints as the refusal's context.

use std::collections::BTreeMap;

use concilium_obs::{TraceEvent, Traced};

use crate::journal::Record;
use crate::ServeConfig;

/// How many journal records `--explain shed:N` prints: enough to cover a
/// full mailbox drain plus the surrounding commits.
pub const TAIL_RECORDS: usize = 32;

/// The [`TAIL_RECORDS`] records that end at the shed of `report`, if the
/// journal holds one.
pub fn shed_tail(records: &[Record], report: u64) -> Option<&[Record]> {
    let end = records
        .iter()
        .position(|r| matches!(r, Record::Shed { report_id, .. } if *report_id == report))?;
    Some(&records[(end + 1).saturating_sub(TAIL_RECORDS)..=end])
}

/// One record as a stable short line for diagnostics.
#[deny(clippy::wildcard_enum_match_arm)]
pub fn render(record: &Record) -> String {
    let seq = record.seq();
    match record {
        Record::Admitted { input, report, .. } => {
            format!("#{seq} admitted report {} (input {input})", report.id)
        }
        Record::Shed { report_id, reason, .. } => {
            format!("#{seq} shed report {report_id} (reason {})", reason.name())
        }
        Record::BatchStarted { batch, start_us, .. } => {
            format!("#{seq} batch {batch} started at {start_us}us")
        }
        Record::VerdictRecorded { report_id, guilty, .. } => format!(
            "#{seq} verdict on report {report_id}: {}",
            if *guilty { "GUILTY" } else { "innocent" }
        ),
        Record::AccusationFiled { accused, guilty_count, .. } => {
            format!("#{seq} accusation filed against {accused} ({guilty_count} guilty)")
        }
        Record::Commit { next_input, clock_us, .. } => {
            format!("#{seq} commit next_input={next_input} clock={clock_us}us")
        }
    }
}

/// The trace event a journal record stands for, if any: the one
/// `Record` → [`TraceEvent`] mapping. `queue_depth` is the mailbox depth
/// once the record has taken effect; only an admission reads it.
#[deny(clippy::wildcard_enum_match_arm)]
pub(crate) fn trace_event(record: &Record, queue_depth: u64) -> Option<TraceEvent> {
    match record {
        Record::Admitted { report, .. } => {
            Some(TraceEvent::ReportAdmitted { report: report.id, queue_depth })
        }
        Record::Shed { report_id, reason, .. } => {
            Some(TraceEvent::LoadShed { report: *report_id, reason: *reason })
        }
        Record::VerdictRecorded { report_id, batch, .. } => {
            Some(TraceEvent::ReportCompleted { report: *report_id, batch: *batch })
        }
        Record::Commit { seq, next_input, .. } => {
            Some(TraceEvent::JournalCommitted { seq: *seq, next_input: *next_input })
        }
        Record::BatchStarted { .. } | Record::AccusationFiled { .. } => None,
    }
}

/// Derives the daemon's trace-event stream from a journal record
/// sequence, so the causal layer (`CausalIndex`, `concilium-explain`)
/// answers from the WAL alone.
///
/// Each event is stamped with the daemon's clock when it appended the
/// record, replayed from the times the records carry: an admission at
/// its arrival (or the clock, if that is later), a completion when its
/// batch finishes (`start_us` plus the service cost of the batch's
/// reports under `cfg`), a shed and a commit at the commit that closes
/// their input. Queue depth is replayed from admissions minus batch
/// drafts, the mailbox's own arithmetic. The derivation is a pure
/// function of the records, so byte-identical journals explain
/// byte-identically.
pub fn records_to_traced(cfg: &ServeConfig, records: &[Record]) -> Vec<Traced> {
    let mut lift = Lift::new(cfg);
    records.iter().for_each(|record| lift.record(record));
    lift.events
}

/// [`records_to_traced`] one record at a time, so a journal can be lifted
/// as it is walked, with other events spliced in between its records.
pub(crate) struct Lift<'c> {
    cfg: &'c ServeConfig,
    /// The events lifted so far.
    pub(crate) events: Vec<Traced>,
    clock: u64,
    /// Admitted reports not yet drafted into a batch, with their service
    /// cost.
    queued: BTreeMap<u64, u64>,
    /// When the batch in flight finishes.
    done_us: u64,
    /// The current input's sheds, as indices into `events`.
    sheds: Vec<usize>,
}

impl<'c> Lift<'c> {
    pub(crate) fn new(cfg: &'c ServeConfig) -> Self {
        let (events, queued, sheds) = (Vec::new(), BTreeMap::new(), Vec::new());
        Lift { cfg, events, clock: 0, queued, done_us: 0, sheds }
    }

    /// Adds `event` at the clock of the records lifted so far.
    pub(crate) fn mark(&mut self, event: TraceEvent) {
        self.events.push(Traced { at_micros: self.clock, event });
    }

    /// Lifts the next record.
    #[deny(clippy::wildcard_enum_match_arm)]
    pub(crate) fn record(&mut self, record: &Record) {
        match record {
            Record::Admitted { report, .. } => {
                self.clock = self.clock.max(report.arrival.as_micros());
                self.queued.insert(report.id, report.service_cost(self.cfg).as_micros());
            }
            Record::BatchStarted { start_us, report_ids, .. } => {
                self.clock = self.clock.max(*start_us);
                let costs = report_ids.iter().filter_map(|id| self.queued.remove(id));
                self.done_us = costs.fold(*start_us, u64::saturating_add);
            }
            Record::VerdictRecorded { .. } => self.clock = self.clock.max(self.done_us),
            Record::Shed { .. } => self.sheds.push(self.events.len()),
            Record::Commit { clock_us, .. } => {
                self.clock = self.clock.max(*clock_us);
                for at in self.sheds.drain(..) {
                    self.events[at].at_micros = self.clock;
                }
            }
            Record::AccusationFiled { .. } => {}
        }
        if let Some(event) = trace_event(record, self.queued.len() as u64) {
            self.mark(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::FailureReport;
    use concilium_obs::ShedReason;
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

    #[test]
    fn a_shed_tail_is_the_records_that_end_at_the_shed() {
        let reason = ShedReason::MailboxFull;
        let shed = |seq| Record::Shed { seq, input: seq, report_id: seq, reason };
        let records: Vec<Record> = (0..100)
            .map(|i| if i % 10 == 9 { shed(i) } else { admitted(i, i, 1000 + i, 10 * i) })
            .collect();
        let tail = shed_tail(&records, 59).expect("report 59 was shed");
        assert_eq!(tail.len(), TAIL_RECORDS);
        assert_eq!(tail.last(), Some(&shed(59)));
        assert_eq!(shed_tail(&records, 9).map(<[Record]>::len), Some(10), "the journal's start");
        assert_eq!(shed_tail(&records, 58), None, "report 58 was never shed");
    }

    #[test]
    fn shed_entries_render_their_reason_by_name() {
        for (reason, name, _) in ShedReason::ALL {
            let shed = Record::Shed { seq: 7, input: 7, report_id: 42, reason };
            assert_eq!(render(&shed), format!("#7 shed report 42 (reason {name})"));
        }
    }

    #[test]
    fn records_replay_into_a_causal_trace_stream() {
        let cfg = ServeConfig::default();
        let records = vec![
            admitted(0, 0, 100, 1_000),
            Record::Commit { seq: 1, next_input: 1, clock_us: 1_000 },
            Record::Shed { seq: 2, input: 1, report_id: 101, reason: ShedReason::MailboxFull },
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
            Record::Commit { seq: 6, next_input: 2, clock_us: 42_000 },
        ];
        let restart = TraceEvent::SupervisorRestarted { incident: 1, budget_left: 2 };
        let mut lift = Lift::new(&cfg);
        for (i, record) in records.iter().enumerate() {
            if i == 4 {
                lift.mark(restart.clone());
            }
            lift.record(record);
        }
        lift.mark(restart);
        let traced = lift.events;
        let unmarked = traced.iter().filter(|t| t.event.label() != "restart");
        assert!(records_to_traced(&cfg, &records).iter().eq(unmarked));
        let stamped: Vec<(u64, &str)> =
            traced.iter().map(|t| (t.at_micros, t.event.label())).collect();
        // The shed takes its input's commit clock, the completion its
        // batch's start plus the report's 20 ms base cost, and a mark the
        // clock where it is spliced in.
        assert_eq!(
            stamped,
            [
                (1_000, "admit"),
                (1_000, "journal-commit"),
                (1_500, "shed"),
                (1_500, "journal-commit"),
                (1_500, "restart"),
                (22_000, "complete"),
                (42_000, "journal-commit"),
                (42_000, "restart"),
            ]
        );
        // The causal layer accepts the derived stream: the completion
        // chains back to its admission, the shed stands alone.
        let index = concilium_obs::CausalIndex::from_events(traced.iter());
        assert!(index.orphan_terminals().is_empty());
    }
}
