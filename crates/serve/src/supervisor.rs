//! The supervision loop: panic capture, bounded restarts, degraded mode.
//!
//! The supervisor owns the journal store and a chaos schedule. Each
//! round it recovers a fresh [`Daemon`] over the shared store and runs
//! the workload inside `catch_unwind`; a panic (injected or real) costs
//! one restart from the budget. When the budget is exhausted the
//! supervisor escalates to **degraded read-only mode**: no further
//! journal writes, every remaining report shed with
//! [`ShedReason::Degraded`] (typed trace events and metrics — never a
//! silent drop). The chaos schedule can also append torn garbage to the
//! journal tail between rounds, exercising recovery's truncation path.
//!
//! Because recovery truncates to the last commit and the daemon
//! reprocesses from there with identical sequence numbers, the journal
//! a supervised run leaves behind is byte-identical to an uninterrupted
//! run's — the property [`crate::chaos`] sweeps verify. The supervisor
//! journals nothing itself: its restarts, recoveries and degraded entry
//! are kept as marks at the journal position of the boot they belong to,
//! and [`SupervisedRun::trace`] splices them into the trace it lifts from
//! the final journal.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

use concilium_obs::{Registry, ShedReason, TraceEvent, Traced};

use crate::daemon::{Counters, Daemon, PanicSite, RecoveryStats};
use crate::flight::Lift;
use crate::journal::{Journal, SharedStore};
use crate::report::FailureReport;
use crate::ServeConfig;

/// One scheduled kill: crash when the daemon reaches this input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KillPoint {
    /// Workload input index the panic fires at.
    pub input: u64,
    /// Where inside the input's processing it fires.
    pub site: PanicSite,
    /// Torn garbage appended to the journal tail after the crash,
    /// simulating a half-flushed write the recovery scan must discard.
    pub torn_garbage: Vec<u8>,
}

/// The outcome of a supervised run.
#[derive(Clone, Debug, Default)]
pub struct SupervisedRun {
    /// Journal-derived counters from the final daemon incarnation.
    pub counters: Counters,
    /// Reports shed in degraded mode (metrics-only; never journaled).
    pub degraded_shed: u64,
    /// Panics captured (== restarts consumed).
    pub incidents: u64,
    /// Whether the run ended in degraded read-only mode.
    pub degraded: bool,
    /// The final journal digest (the run's canonical trace digest).
    pub journal_digest: String,
    /// The final canonical state digest.
    pub state_digest: [u8; 32],
    /// Reports still queued when the run ended (nonzero only degraded).
    pub queued: u64,
    /// Reports still in flight when the run ended (nonzero only
    /// degraded).
    pub in_flight: u64,
    /// Recovery stats per boot (the first, one per restart, the degraded
    /// one), in order.
    pub recoveries: Vec<RecoveryStats>,
    /// Supervisor-level metrics, merged with the final daemon's.
    pub metrics: Registry,
    /// The supervisor's restart / recovered / degraded events, each with
    /// the sequence number its boot resumed the journal at.
    marks: Vec<(u64, TraceEvent)>,
    /// Degraded-mode sheds, at their arrival: never journaled.
    degraded_sheds: Vec<Traced>,
    cfg: ServeConfig,
    store: SharedStore,
}

impl SupervisedRun {
    /// The run's trace, built when asked for from the final journal:
    /// [`crate::records_to_traced`]'s events, with the supervisor's own
    /// at the journal positions of the boots they belong to, then the
    /// degraded-mode sheds. A killed run's trace is its uninterrupted
    /// twin's plus one `restart` and one `recovered` event per kill.
    pub fn trace(&self) -> Vec<Traced> {
        let mut lift = Lift::new(&self.cfg);
        let mut marks = self.marks.iter().peekable();
        Journal::over(self.store.clone()).walk(|record, _, _| {
            while let Some((_, event)) = marks.next_if(|(seq, _)| *seq <= record.seq()) {
                lift.mark(event.clone());
            }
            lift.record(&record);
        });
        marks.for_each(|(_, event)| lift.mark(event.clone()));
        lift.events.extend(self.degraded_sheds.iter().cloned());
        lift.events
    }

    /// Marks one boot at the journal position `daemon` resumes at: the
    /// events that led to it, then one `recovered` event if it found a
    /// journal. The supervisor is these facts' only producer: it outlives
    /// every incarnation.
    fn boot(&mut self, daemon: &Daemon, stats: RecoveryStats, cause: Vec<TraceEvent>) {
        let at = daemon.next_seq();
        self.marks.extend(cause.into_iter().map(|event| (at, event)));
        if stats.found_journal() {
            let records = stats.records_replayed as u64;
            let resumed_input = stats.resumed_input;
            self.marks.push((at, TraceEvent::RecoveryReplayed { records, resumed_input }));
        }
        self.recoveries.push(stats);
    }

    /// Takes the final incarnation's counters, digests, backlog and
    /// metrics.
    fn close(mut self, daemon: &Daemon) -> SupervisedRun {
        let health = daemon.health();
        self.counters = daemon.counters();
        self.journal_digest = daemon.journal_digest();
        self.state_digest = daemon.state().digest();
        self.queued = health.queue_depth as u64;
        self.in_flight = health.in_flight as u64;
        self.metrics.merge(daemon.metrics());
        self.metrics.inc("serve.restarts", self.incidents);
        self
    }
}

/// Supervises a daemon over `store` through the whole workload,
/// consuming `kills` (which must be sorted by input) as the daemon
/// reaches them.
pub struct Supervisor {
    cfg: ServeConfig,
    store: SharedStore,
    kills: Vec<KillPoint>,
}

impl Supervisor {
    /// A supervisor with a chaos schedule. `kills` are applied in the
    /// order given; each fires at most once.
    pub fn new(cfg: ServeConfig, store: SharedStore, kills: Vec<KillPoint>) -> Self {
        Supervisor { cfg, store, kills }
    }

    /// Runs the workload to completion (or degraded stop) under
    /// supervision.
    pub fn run(self, inputs: &[FailureReport]) -> SupervisedRun {
        silence_chaos_panics();
        let mut run = SupervisedRun {
            cfg: self.cfg.clone(),
            store: self.store.clone(),
            ..SupervisedRun::default()
        };
        let mut cause = Vec::new();
        let mut kills = self.kills.iter();

        loop {
            let (mut daemon, stats) = Daemon::recover(self.cfg.clone(), self.store.clone());
            run.boot(&daemon, stats, std::mem::take(&mut cause));
            let kill = kills.next();
            daemon.panic_at = kill.map(|k| (k.input, k.site));

            let outcome = catch_unwind(AssertUnwindSafe(move || {
                daemon.run(inputs);
                daemon.finish();
                daemon
            }));
            if let Ok(daemon) = outcome {
                return run.close(&daemon);
            }
            run.incidents += 1;
            if let Some(kill) = kill {
                self.store.append(&kill.torn_garbage);
            }
            let budget_left = (self.cfg.restart_budget as u64).saturating_sub(run.incidents);
            cause.push(TraceEvent::SupervisorRestarted { incident: run.incidents, budget_left });
            run.metrics.inc("serve.incidents", 1);
            if run.incidents > self.cfg.restart_budget as u64 {
                cause.push(TraceEvent::DegradedEntered { incidents: run.incidents });
                return self.enter_degraded(inputs, run, cause);
            }
        }
    }

    /// Budget exhausted: stop processing, shed the remaining workload
    /// with typed events, report from the recovered (read-only) state.
    fn enter_degraded(
        &self,
        inputs: &[FailureReport],
        mut run: SupervisedRun,
        cause: Vec<TraceEvent>,
    ) -> SupervisedRun {
        let (daemon, stats) = Daemon::recover(self.cfg.clone(), self.store.clone());
        run.boot(&daemon, stats, cause);
        let mut run = run.close(&daemon);
        run.degraded = true;
        run.metrics.set_gauge("serve.degraded", 1.0);
        let resume = daemon.state().next_input() as usize;
        for report in inputs.iter().skip(resume) {
            let event = TraceEvent::LoadShed { report: report.id, reason: ShedReason::Degraded };
            run.degraded_sheds.push(Traced { at_micros: report.arrival.as_micros(), event });
            run.metrics.inc(ShedReason::Degraded.metric(), 1);
        }
        run.degraded_shed = run.degraded_sheds.len() as u64;
        run
    }
}

/// Installs (once per process) a panic hook that swallows the messages
/// of *injected* chaos panics — they are expected, caught, and counted,
/// so their default backtrace spam would only obscure real failures.
/// Every other panic still reaches the previous hook untouched.
fn silence_chaos_panics() {
    static SILENCE: Once = Once::new();
    SILENCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.as_str())
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !message.starts_with("chaos: injected crash") {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;

    fn workload(cfg: &ServeConfig, seed: u64) -> Vec<FailureReport> {
        WorkloadSpec { reports: 64, ..WorkloadSpec::default() }.generate(cfg, seed)
    }

    fn baseline(cfg: &ServeConfig, inputs: &[FailureReport]) -> (String, [u8; 32]) {
        let run = Supervisor::new(cfg.clone(), SharedStore::new(), Vec::new()).run(inputs);
        assert_eq!(run.incidents, 0);
        (run.journal_digest, run.state_digest)
    }

    #[test]
    fn kills_within_budget_recover_to_the_uninterrupted_digests() {
        let cfg = ServeConfig::default();
        let inputs = workload(&cfg, 11);
        let (want_journal, want_state) = baseline(&cfg, &inputs);
        let kills = vec![
            KillPoint { input: 10, site: PanicSite::BeforeInput, torn_garbage: vec![] },
            KillPoint {
                input: 30,
                site: PanicSite::AfterAdmission,
                torn_garbage: vec![0xde, 0xad, 0xbe, 0xef, 0x01],
            },
        ];
        let run = Supervisor::new(cfg, SharedStore::new(), kills).run(&inputs);
        assert_eq!(run.incidents, 2);
        assert!(!run.degraded);
        assert_eq!(run.journal_digest, want_journal);
        assert_eq!(run.state_digest, want_state);
        assert!(run.recoveries.len() >= 3);
        assert!(
            run.recoveries.iter().any(|r| r.truncated_bytes > 0),
            "the torn tail and the uncommitted admission must both truncate"
        );
        assert_eq!(run.metrics.counter("serve.incidents"), 2);
    }

    #[test]
    fn budget_exhaustion_escalates_to_degraded_read_only() {
        let cfg = ServeConfig { restart_budget: 1, ..ServeConfig::default() };
        let inputs = workload(&cfg, 13);
        let kills = (0..2)
            .map(|i| KillPoint {
                input: 20 + i,
                site: PanicSite::BeforeInput,
                torn_garbage: vec![],
            })
            .collect();
        let run = Supervisor::new(cfg, SharedStore::new(), kills).run(&inputs);
        assert!(run.degraded);
        assert_eq!(run.incidents, 2);
        assert!(run.degraded_shed > 0, "remaining inputs must shed, not vanish");
        // Conservation across the whole offered workload.
        let offered_total = inputs.len() as u64;
        assert_eq!(
            run.counters.admitted + run.counters.shed + run.degraded_shed,
            offered_total
        );
        assert_eq!(
            run.counters.completed + run.queued + run.in_flight,
            run.counters.admitted
        );
        assert_eq!(run.metrics.counter("serve.shed.degraded"), run.degraded_shed);
        assert!(run.trace().iter().any(|t| matches!(t.event, TraceEvent::DegradedEntered { .. })));
    }
}
