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
//! run's — the property [`crate::chaos`] sweeps verify.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

use concilium_obs::{Registry, ShedReason, Trace, TraceEvent};

use crate::daemon::{Counters, Daemon, PanicSite, RecoveryStats};
use crate::flight::{FlightRecorder, PANIC_FLUSH};
use crate::journal::{Journal, Record, SharedStore};
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
#[derive(Clone, Debug)]
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
    /// Recovery stats per restart, in order.
    pub recoveries: Vec<RecoveryStats>,
    /// Supervisor-level trace (restart / degraded / recovery events).
    pub trace: Trace,
    /// Supervisor-level metrics, merged with the final daemon's.
    pub metrics: Registry,
}

/// Records one recovery in the supervisor's trace. The supervisor is the
/// fact's only producer: it outlives every incarnation, while a crashed
/// daemon's own ring dies with it.
fn push_recovery(trace: &mut Trace, daemon: &Daemon, stats: &RecoveryStats) {
    if stats.found_journal() {
        trace.push(
            daemon.health().clock_us,
            TraceEvent::RecoveryReplayed {
                records: stats.records_replayed as u64,
                resumed_input: stats.resumed_input,
            },
        );
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
        let mut trace = Trace::with_capacity(self.cfg.trace_capacity);
        let mut metrics = Registry::new();
        let mut recoveries = Vec::new();
        let mut incidents: u64 = 0;
        let mut next_kill = 0usize;

        loop {
            let (mut daemon, stats) = Daemon::recover(self.cfg.clone(), self.store.clone());
            push_recovery(&mut trace, &daemon, &stats);
            recoveries.push(stats);
            if let Some(kill) = self.kills.get(next_kill) {
                daemon.panic_at = Some((kill.input, kill.site));
            }

            let outcome = catch_unwind(AssertUnwindSafe(move || {
                daemon.run(inputs);
                daemon.finish();
                daemon
            }));
            match outcome {
                Ok(daemon) => {
                    let health = daemon.health();
                    metrics.merge(daemon.metrics());
                    metrics.inc("serve.restarts", incidents);
                    // Fold the final incarnation's trace ring into the
                    // supervisor trace, so `--trace-out` carries the
                    // daemon-level causal stream (admit/shed/complete/
                    // commit), not just restart markers.
                    for t in daemon.trace().events() {
                        trace.push(t.at_micros, t.event.clone());
                    }
                    return SupervisedRun {
                        counters: daemon.counters(),
                        degraded_shed: 0,
                        incidents,
                        degraded: false,
                        journal_digest: daemon.journal_digest(),
                        state_digest: daemon.state().digest(),
                        queued: health.queue_depth as u64,
                        in_flight: health.in_flight as u64,
                        recoveries,
                        trace,
                        metrics,
                    };
                }
                Err(_) => {
                    incidents += 1;
                    // Panic flush: rebuild the crashed incarnation's
                    // flight ring from the journal's valid prefix (every
                    // append became a frame, committed or not) and write
                    // it as an *uncommitted* FlightTail. The next
                    // recovery truncates it — digests and byte-equality
                    // sweeps are unchanged — but the on-disk image a
                    // crash leaves behind carries the daemon's last
                    // moments for post-mortem `explain`.
                    {
                        let mut journal = Journal::over(self.store.clone());
                        let (records, _) = journal.scan();
                        let ring = FlightRecorder::from_records(&records);
                        let seq = records.last().map_or(0, |r| r.seq() + 1);
                        journal.append(&Record::FlightTail {
                            seq,
                            report_id: PANIC_FLUSH,
                            entries: ring.tail(),
                        });
                    }
                    if let Some(kill) = self.kills.get(next_kill) {
                        if !kill.torn_garbage.is_empty() {
                            self.store.append(&kill.torn_garbage);
                        }
                        next_kill += 1;
                    }
                    let budget_left =
                        (self.cfg.restart_budget as u64).saturating_sub(incidents);
                    trace.push(0, TraceEvent::SupervisorRestarted {
                        incident: incidents,
                        budget_left,
                    });
                    metrics.inc("serve.incidents", 1);
                    if incidents > self.cfg.restart_budget as u64 {
                        return self.enter_degraded(inputs, incidents, recoveries, trace, metrics);
                    }
                }
            }
        }
    }

    /// Budget exhausted: stop processing, shed the remaining workload
    /// with typed events, report from the recovered (read-only) state.
    fn enter_degraded(
        self,
        inputs: &[FailureReport],
        incidents: u64,
        recoveries: Vec<RecoveryStats>,
        mut trace: Trace,
        mut metrics: Registry,
    ) -> SupervisedRun {
        let (daemon, stats) = Daemon::recover(self.cfg.clone(), self.store.clone());
        let health = daemon.health();
        trace.push(health.clock_us, TraceEvent::DegradedEntered { incidents });
        push_recovery(&mut trace, &daemon, &stats);
        for t in daemon.trace().events() {
            trace.push(t.at_micros, t.event.clone());
        }
        metrics.merge(daemon.metrics());
        metrics.inc("serve.restarts", incidents);
        metrics.set_gauge("serve.degraded", 1.0);

        let resume = daemon.state().next_input() as usize;
        let mut degraded_shed = 0u64;
        for report in inputs.iter().skip(resume) {
            degraded_shed += 1;
            trace.push(
                report.arrival.as_micros(),
                TraceEvent::LoadShed { report: report.id, reason: ShedReason::Degraded },
            );
            metrics.inc("serve.shed.degraded", 1);
        }
        SupervisedRun {
            counters: daemon.counters(),
            degraded_shed,
            incidents,
            degraded: true,
            journal_digest: daemon.journal_digest(),
            state_digest: daemon.state().digest(),
            queued: health.queue_depth as u64,
            in_flight: health.in_flight as u64,
            recoveries,
            trace,
            metrics,
        }
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
        assert!(run
            .trace
            .events()
            .any(|t| matches!(t.event, TraceEvent::DegradedEntered { .. })));
    }
}
