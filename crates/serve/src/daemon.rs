//! The single-server diagnosis daemon: virtual-time loop, journaled
//! mutations, batched blame evaluation.
//!
//! The daemon is a deterministic discrete-event server. Reports arrive
//! at virtual times fixed by the workload trace; admission, batching,
//! blame evaluation (Eqs. 2–3), verdict windows, and accusation filings
//! all advance on that clock. Every state mutation is journaled *then*
//! applied ([`crate::state`]), and a [`Record::Commit`] closes each
//! input, so a crash between inputs (or anywhere inside one — the
//! uncommitted records are truncated) recovers to the exact committed
//! prefix and reproduces the remaining journal byte-for-byte.
//!
//! Panic injection for chaos testing is explicit: [`PanicSite`] names
//! the two interesting crash points (before an input's first journal
//! write, and after admission but before the commit), and the daemon
//! panics there when instructed. Nothing else in the crate may panic —
//! the crate root's `clippy::panic` warning enforces it, and
//! `process_input` carries the one `#[expect]` for the two sites — save
//! the asserts that refuse a bad configuration at boot and the one in
//! `Journal::append` that only a bug past admission can trip.

use concilium::blame::blame_from_path_evidence;
use concilium::Verdict;
use concilium_obs::{Registry, ShedReason, Trace};
use concilium_types::{SimDuration, SimTime};

use crate::flight::{shed_reason_from_code, trace_event, FlightEntry, FlightRecorder};
use crate::journal::{Journal, Record, SharedStore, MAX_FRAME_WORDS};
use crate::mailbox::Mailbox;
use crate::report::FailureReport;
use crate::state::ServeState;
use crate::ServeConfig;

/// The counter a shed with `reason` increments.
#[deny(clippy::wildcard_enum_match_arm)]
pub(crate) fn shed_metric(reason: ShedReason) -> &'static str {
    match reason {
        ShedReason::MailboxFull => "serve.shed.mailbox-full",
        ShedReason::DeadlineExceeded => "serve.shed.deadline",
        ShedReason::Degraded => "serve.shed.degraded",
        ShedReason::Oversize => "serve.shed.oversize",
    }
}

/// Where in an input's processing a chaos-injected panic fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PanicSite {
    /// Before the input's first journal write: the journal still ends at
    /// the previous commit, so recovery truncates nothing.
    BeforeInput,
    /// After the admission record is journaled but before the commit:
    /// recovery must truncate the uncommitted tail and reprocess the
    /// input identically.
    AfterAdmission,
}

/// A batch under evaluation: the drafted reports and when they finish.
#[derive(Clone, Debug)]
struct InFlight {
    batch: u64,
    reports: Vec<FailureReport>,
    done_at: SimTime,
}

/// Counters the daemon maintains journal-derived (so they survive
/// recovery without double counting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Reports offered through the journal (admitted + shed).
    pub offered: u64,
    /// Reports that passed admission.
    pub admitted: u64,
    /// Reports refused with a typed reason.
    pub shed: u64,
    /// Reports fully evaluated.
    pub completed: u64,
    /// Batches started.
    pub batches: u64,
    /// Formal accusations filed.
    pub accusations: u64,
}

impl Counters {
    /// Folds one journal record in: the only place a counter moves, live
    /// ([`Daemon::append`]) and on recovery replay alike.
    #[deny(clippy::wildcard_enum_match_arm)]
    fn absorb(&mut self, record: &Record) {
        match record {
            Record::Admitted { .. } => {
                self.admitted += 1;
                self.offered += 1;
            }
            Record::Shed { .. } => {
                self.shed += 1;
                self.offered += 1;
            }
            Record::BatchStarted { .. } => self.batches += 1,
            Record::VerdictRecorded { .. } => self.completed += 1,
            Record::AccusationFiled { .. } => self.accusations += 1,
            // Boundary marker and observability only: never counted.
            Record::Commit { .. } | Record::FlightTail { .. } => {}
        }
    }
}

/// A point-in-time health surface for operators and the readiness probe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Health {
    /// `true` once the daemon has recovered its journal and can admit.
    pub ready: bool,
    /// Current mailbox depth.
    pub queue_depth: usize,
    /// Reports in the in-flight batch.
    pub in_flight: usize,
    /// Journal-derived counters.
    pub counters: Counters,
    /// The virtual clock, µs.
    pub clock_us: u64,
}

/// What [`Daemon::recover`] replayed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Committed records replayed into state.
    pub records_replayed: usize,
    /// Bytes truncated from the journal tail.
    pub truncated_bytes: usize,
    /// Valid-but-uncommitted records discarded.
    pub uncommitted_records: usize,
    /// The input index processing resumes at.
    pub resumed_input: u64,
}

impl RecoveryStats {
    /// Whether the boot found a journal — committed records to replay or
    /// a tail to truncate — rather than a fresh store.
    pub(crate) fn found_journal(&self) -> bool {
        self.records_replayed > 0 || self.truncated_bytes > 0
    }
}

/// The diagnosis daemon.
pub struct Daemon {
    cfg: ServeConfig,
    journal: Journal,
    state: ServeState,
    mailbox: Mailbox,
    in_flight: Option<InFlight>,
    clock: SimTime,
    next_seq: u64,
    next_batch: u64,
    counters: Counters,
    /// Whether records were journaled since the last commit boundary.
    dirty: bool,
    /// Chaos hook: panic when processing this input index at this site.
    pub panic_at: Option<(u64, PanicSite)>,
    trace: Trace,
    metrics: Registry,
    /// The flight recorder ring: recent journal activity, maintained at
    /// the append choke point (and identically by recovery replay), so
    /// it is a pure function of the journal prefix.
    flight: FlightRecorder,
    /// Frame bytes appended since the last commit boundary — the write
    /// set one durability fsync would flush.
    pending_fsync_bytes: u64,
}

impl Daemon {
    /// Boots a daemon over `store`, recovering whatever committed journal
    /// prefix it holds. A fresh store boots an empty daemon; a store with
    /// a torn or uncommitted tail is truncated back to the last commit.
    ///
    /// Replay is one streaming pass: each committed record goes through
    /// the fold the live `Daemon::append` uses, and the mailbox and
    /// in-flight batch are rebuilt as it goes, so recovery holds the
    /// unbatched reports and the last batch — O(mailbox + state) — never
    /// the journal.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.protocol` is invalid, or if a full mailbox would
    /// draft a batch whose journal record does not fit one frame.
    pub fn recover(cfg: ServeConfig, store: SharedStore) -> (Daemon, RecoveryStats) {
        assert!(
            Record::batch_words(cfg.mailbox_capacity) <= MAX_FRAME_WORDS,
            "mailbox capacity {} drafts batches too large for one journal frame",
            cfg.mailbox_capacity
        );
        let mut daemon = Daemon {
            state: ServeState::new(&cfg),
            trace: Trace::with_capacity(cfg.trace_capacity),
            cfg,
            journal: Journal::default(),
            mailbox: Mailbox::new(),
            in_flight: None,
            clock: SimTime::ZERO,
            next_seq: 0,
            next_batch: 0,
            counters: Counters::default(),
            dirty: false,
            panic_at: None,
            metrics: Registry::new(),
            flight: FlightRecorder::new(),
            pending_fsync_bytes: 0,
        };
        let mut journal = Journal::over(store);
        let (mut replayed, mut batch_start, mut queued) = (0, 0, Vec::new());
        let recovery = journal.recover(|record| {
            replayed += usize::from(daemon.fold(&record));
            // Admitted reports queue up again; a batch takes its reports
            // back out of the queue, and each verdict retires one.
            match record {
                Record::Admitted { report, .. } => queued.push(report),
                Record::BatchStarted { batch, start_us, report_ids, .. } => {
                    let (reports, rest) = std::mem::take(&mut queued)
                        .into_iter()
                        .partition(|r| report_ids.contains(&r.id));
                    (queued, daemon.next_batch, batch_start) = (rest, batch + 1, start_us);
                    daemon.in_flight = Some(InFlight { batch, reports, done_at: SimTime::ZERO });
                }
                Record::VerdictRecorded { report_id, .. } => {
                    if let Some(b) = &mut daemon.in_flight {
                        b.reports.retain(|r| r.id != report_id);
                    }
                }
                _ => {}
            }
        });
        daemon.journal = journal;
        for report in queued {
            daemon.mailbox.push(report, &daemon.cfg);
        }
        // A started-but-uncompleted batch resumes with its original start
        // time, so its completion lands at the same instant.
        daemon.in_flight = daemon.in_flight.take().filter(|b| !b.reports.is_empty()).map(|b| {
            let cost: u64 = b.reports.iter().map(|r| r.service_cost(&daemon.cfg).as_micros()).sum();
            InFlight { done_at: SimTime::from_micros(batch_start.saturating_add(cost)), ..b }
        });
        daemon.clock = SimTime::from_micros(daemon.state.clock_us());
        daemon.next_seq = daemon.state.applied_seq().map_or(0, |s| s + 1);

        let stats = RecoveryStats {
            records_replayed: replayed,
            truncated_bytes: recovery.truncated_bytes,
            uncommitted_records: recovery.uncommitted_records,
            resumed_input: daemon.state.next_input(),
        };
        if stats.found_journal() {
            daemon.metrics.inc("serve.recoveries", 1);
            daemon.metrics.inc("serve.recovery.truncated-bytes", recovery.truncated_bytes as u64);
        }
        (daemon, stats)
    }

    /// The journal-derived counters.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// The canonical state (read-only).
    pub fn state(&self) -> &ServeState {
        &self.state
    }

    /// The trace ring.
    pub(crate) fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The metrics registry.
    pub(crate) fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The journal digest — the run's canonical trace digest.
    pub fn journal_digest(&self) -> String {
        self.journal.digest()
    }

    /// The health/readiness surface.
    pub fn health(&self) -> Health {
        Health {
            ready: true,
            queue_depth: self.mailbox.depth(),
            in_flight: self.in_flight.as_ref().map_or(0, |b| b.reports.len()),
            counters: self.counters,
            clock_us: self.clock.as_micros(),
        }
    }

    /// Journals `record`, applies it, and emits everything observable
    /// that follows from it — flight entry, counter, metric, trace event.
    /// The daemon's single emit point: callers decide, then append.
    fn append(&mut self, record: Record) {
        self.dirty = !matches!(record, Record::Commit { .. });
        self.pending_fsync_bytes += self.journal.append(&record) as u64;
        self.fold(&record);
        match &record {
            Record::Admitted { .. } => self.metrics.inc("serve.admitted", 1),
            Record::Shed { reason_code, .. } => {
                self.metrics.inc(shed_metric(shed_reason_from_code(*reason_code)), 1);
            }
            Record::BatchStarted { .. } => self.metrics.inc("serve.batches", 1),
            Record::VerdictRecorded { .. } => self.metrics.inc("serve.completed", 1),
            Record::AccusationFiled { .. } => self.metrics.inc("serve.accusations", 1),
            Record::Commit { .. } => {
                // Bytes, not wall time: the write set a commit-boundary
                // fsync flushes — the deterministic proxy for fsync cost in
                // a crate where clippy.toml bans wall clocks.
                self.metrics.observe(
                    "serve.journal-fsync-bytes",
                    self.pending_fsync_bytes as f64,
                    0.0,
                    8192.0,
                    32,
                );
                self.pending_fsync_bytes = 0;
            }
            Record::FlightTail { .. } => {}
        }
        // An admission is journaled before its report enters the mailbox,
        // so the depth it takes effect at is one more than the depth now.
        if let Some(event) = trace_event(&record, self.mailbox.depth() as u64 + 1) {
            self.trace.push(self.clock.as_micros(), event);
        }
        self.next_seq += 1;
    }

    /// The per-record fold shared by the live append and recovery replay:
    /// state, flight ring, counters. Returns whether the state applied the
    /// record (its sequence number was past the high-water mark).
    fn fold(&mut self, record: &Record) -> bool {
        let applied = self.state.apply(record);
        if let Some(entry) = FlightEntry::from_record(record) {
            self.flight.push(entry);
        }
        self.counters.absorb(record);
        applied
    }

    /// The flight recorder ring (recent journal activity).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Runs every workload input at or past the recovered resume point.
    /// Inputs before it were already committed and are skipped — calling
    /// `run` again on the same trace after a crash continues, not
    /// repeats.
    pub fn run(&mut self, inputs: &[FailureReport]) {
        let start = self.state.next_input() as usize;
        for (i, report) in inputs.iter().enumerate().skip(start) {
            self.process_input(i as u64, report);
        }
    }

    #[expect(clippy::panic, reason = "the two chaos injection points; the supervisor catches them")]
    fn process_input(&mut self, input: u64, report: &FailureReport) {
        if self.panic_at == Some((input, PanicSite::BeforeInput)) {
            panic!("chaos: injected crash before input {input}");
        }
        self.advance_to(report.arrival);

        let in_flight_left = self
            .in_flight
            .as_ref()
            .map_or(SimDuration::ZERO, |b| b.done_at.abs_diff(self.clock));
        match self.mailbox.decide(report, in_flight_left, false, &self.cfg) {
            Ok(wait) => {
                self.append(Record::Admitted { seq: self.next_seq, input, report: report.clone() });
                self.mailbox.push(report.clone(), &self.cfg);
                // The two metrics whose values no record carries.
                self.metrics.max_gauge("serve.queue-depth.max", self.mailbox.depth() as f64);
                self.metrics.observe(
                    "serve.admission-wait-us",
                    wait.as_micros() as f64,
                    0.0,
                    self.cfg.admission_deadline.as_micros() as f64,
                    32,
                );
            }
            Err(reason) => {
                self.append(Record::Shed {
                    seq: self.next_seq,
                    input,
                    report_id: report.id,
                    reason_code: reason.code(),
                });
                // Flush the flight ring into the WAL alongside the
                // refusal: `explain shed <report>` can then render the
                // context from the journal alone, post-crash included.
                // The tail is committed with this input, and the ring is
                // a pure function of the journal prefix, so baseline and
                // chaos runs journal identical tails.
                let (seq, entries) = (self.next_seq, self.flight.tail());
                self.append(Record::FlightTail { seq, report_id: report.id, entries });
            }
        }
        self.maybe_start_batch();

        if self.panic_at == Some((input, PanicSite::AfterAdmission)) {
            panic!("chaos: injected crash after admission of input {input}");
        }

        self.append(Record::Commit {
            seq: self.next_seq,
            next_input: input + 1,
            clock_us: self.clock.as_micros(),
        });
    }

    /// Advances the virtual clock to `t`, completing every batch that
    /// finishes on the way and chaining follow-up batches.
    fn advance_to(&mut self, t: SimTime) {
        while let Some(batch) = self.in_flight.take() {
            if batch.done_at > t {
                self.in_flight = Some(batch);
                break;
            }
            self.clock = batch.done_at;
            self.complete_batch(batch);
            self.maybe_start_batch();
        }
        if t > self.clock {
            self.clock = t;
        }
    }

    fn complete_batch(&mut self, batch: InFlight) {
        for report in &batch.reports {
            let protocol = &self.cfg.protocol;
            let blame = blame_from_path_evidence(&report.evidence(), protocol.probe_accuracy);
            let verdict = Verdict::from_blame(blame, protocol.blame_threshold);
            self.append(Record::VerdictRecorded {
                seq: self.next_seq,
                report_id: report.id,
                batch: batch.batch,
                judge: report.judge,
                accused: report.accused,
                guilty: verdict.is_guilty(),
            });
            if self.state.filing_due(report.judge, report.accused) {
                let guilty_count = self
                    .state
                    .window(report.judge, report.accused)
                    .map_or(0, |w| w.guilty_count() as u64);
                self.append(Record::AccusationFiled {
                    seq: self.next_seq,
                    judge: report.judge,
                    accused: report.accused,
                    guilty_count,
                });
            }
        }
    }

    fn maybe_start_batch(&mut self) {
        if self.in_flight.is_some() || self.mailbox.is_empty() {
            return;
        }
        let reports = self.mailbox.take_batch(&self.cfg);
        if reports.is_empty() {
            return;
        }
        let cost: u64 = reports.iter().map(|r| r.service_cost(&self.cfg).as_micros()).sum();
        let batch = self.next_batch;
        self.next_batch += 1;
        self.append(Record::BatchStarted {
            seq: self.next_seq,
            batch,
            start_us: self.clock.as_micros(),
            report_ids: reports.iter().map(|r| r.id).collect(),
        });
        self.in_flight = Some(InFlight {
            batch,
            reports,
            done_at: SimTime::from_micros(self.clock.as_micros().saturating_add(cost)),
        });
    }

    /// Drains the mailbox and in-flight work to quiescence: after this,
    /// every admitted report is completed. A closing commit seals the
    /// drained records so a replay of the journal reproduces this state
    /// exactly; it is skipped when the drain journaled nothing, so
    /// re-finishing an already-quiescent daemon leaves the journal
    /// untouched.
    pub fn finish(&mut self) {
        while let Some(done_at) = self.in_flight.as_ref().map(|b| b.done_at) {
            self.advance_to(done_at);
        }
        if self.dirty {
            let next_input = self.state.next_input();
            self.append(Record::Commit {
                seq: self.next_seq,
                next_input,
                clock_us: self.clock.as_micros(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::LinkObs;
    use crate::workload::WorkloadSpec;

    fn guilty_report(id: u64, arrival_us: u64) -> FailureReport {
        // All links probed up: the network is exonerated, so the
        // forwarder takes the blame (0.9 at accuracy 0.9) → guilty.
        FailureReport {
            id,
            judge: 1,
            accused: 2,
            arrival: SimTime::from_micros(arrival_us),
            evidence_at: SimTime::from_micros(arrival_us.saturating_sub(100)),
            links: vec![LinkObs { link: 7, up: 3, down: 0 }],
        }
    }

    #[test]
    fn a_quiet_run_completes_everything_and_files_at_the_quota() {
        let cfg = ServeConfig::default();
        assert_eq!(cfg.protocol.guilty_quota, 3);
        let spacing = 10_000_000; // far apart: every report is its own batch
        let inputs: Vec<FailureReport> =
            (0..5).map(|i| guilty_report(i, (i + 1) * spacing)).collect();
        let (mut d, stats) = Daemon::recover(cfg, SharedStore::new());
        assert_eq!(stats.records_replayed, 0);
        d.run(&inputs);
        d.finish();
        let c = d.counters();
        assert_eq!(c.offered, 5);
        assert_eq!(c.admitted, 5);
        assert_eq!(c.shed, 0);
        assert_eq!(c.completed, 5);
        assert_eq!(c.accusations, 1, "one filing when the window crosses m");
        assert!(!d.state().filing_due(1, 2), "the pair is filed once");
        assert!(d.health().ready);
        assert_eq!(d.health().queue_depth, 0);
    }

    #[test]
    #[should_panic(expected = "too large for one journal frame")]
    fn a_mailbox_whose_full_batch_overflows_a_frame_is_refused_at_boot() {
        // A full mailbox drafts one `BatchStarted` of 5 + capacity words.
        let largest = ServeConfig { mailbox_capacity: MAX_FRAME_WORDS - 5, ..ServeConfig::default() };
        let _ = Daemon::recover(largest.clone(), SharedStore::new());
        let over = ServeConfig { mailbox_capacity: MAX_FRAME_WORDS - 4, ..largest };
        let _ = Daemon::recover(over, SharedStore::new());
    }

    #[test]
    fn crash_and_recover_reproduces_the_uninterrupted_journal() {
        let cfg = ServeConfig::default();
        let inputs = WorkloadSpec::default().generate(&cfg, 41);

        // Uninterrupted baseline.
        let (mut base, _) = Daemon::recover(cfg.clone(), SharedStore::new());
        base.run(&inputs);
        base.finish();
        let want_journal = base.journal_digest();
        let want_state = base.state().digest();

        for site in [PanicSite::BeforeInput, PanicSite::AfterAdmission] {
            let store = SharedStore::new();
            let (mut first, _) = Daemon::recover(cfg.clone(), store.clone());
            first.panic_at = Some((inputs.len() as u64 / 2, site));
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                first.run(&inputs);
            }));
            assert!(panicked.is_err(), "chaos panic must fire at {site:?}");
            drop(first);

            let (mut second, stats) = Daemon::recover(cfg.clone(), store.clone());
            if site == PanicSite::AfterAdmission {
                assert!(stats.truncated_bytes > 0, "uncommitted tail must be truncated");
            }
            second.run(&inputs);
            second.finish();
            assert_eq!(second.journal_digest(), want_journal, "journal diverged at {site:?}");
            assert_eq!(second.state().digest(), want_state, "state diverged at {site:?}");
        }
    }

    #[test]
    fn saturation_sheds_with_typed_reasons_and_conserves_reports() {
        // Everything arrives at once into a tiny mailbox with a tight
        // deadline: most reports must shed, none may vanish.
        let cfg = ServeConfig {
            mailbox_capacity: 4,
            admission_deadline: SimDuration::from_millis(60),
            ..ServeConfig::default()
        };
        let inputs: Vec<FailureReport> = (0..64).map(|i| guilty_report(i, 1_000)).collect();
        let (mut d, _) = Daemon::recover(cfg, SharedStore::new());
        d.run(&inputs);
        let before_finish = d.counters();
        let held = d.health();
        assert_eq!(before_finish.offered, 64);
        assert!(before_finish.shed > 0, "saturation must shed");
        assert_eq!(
            before_finish.completed + held.queue_depth as u64 + held.in_flight as u64,
            before_finish.admitted,
            "admitted = completed + queued + in-flight"
        );
        d.finish();
        let c = d.counters();
        assert_eq!(c.admitted + c.shed, c.offered);
        assert_eq!(c.completed, c.admitted, "finish drains every admitted report");
        assert!(d.metrics().counter("serve.shed.deadline")
            + d.metrics().counter("serve.shed.mailbox-full") == c.shed);
    }
}
