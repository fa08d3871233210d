//! Bounded ingest mailbox with explicit, deterministic backpressure.
//!
//! Admission is a pure function of the daemon's current picture: queue
//! occupancy, the backlog's total service cost, and the in-flight
//! batch's remaining cost. A report is *shed* — refused with a typed
//! [`ShedReason`], journaled and counted, never silently dropped — when
//! the mailbox is full, when its predicted wait exceeds the admission
//! deadline, when its journal record would not fit one frame, or when
//! the daemon has escalated to degraded read-only mode. Because the
//! decision reads only virtual-time quantities and the report's size,
//! the same workload sheds the same reports on every run.

use std::collections::VecDeque;

use concilium_obs::ShedReason;
use concilium_types::SimDuration;

use crate::journal::{Record, MAX_FRAME_WORDS};
use crate::report::FailureReport;
use crate::ServeConfig;

/// The daemon's bounded ingest queue.
#[derive(Debug, Default)]
pub struct Mailbox {
    queue: VecDeque<FailureReport>,
    /// Total service cost of everything queued, maintained incrementally.
    backlog: SimDuration,
}

impl Mailbox {
    /// An empty mailbox.
    pub fn new() -> Self {
        Mailbox::default()
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total service cost of the queued backlog.
    pub fn backlog(&self) -> SimDuration {
        self.backlog
    }

    /// Decides admission for `report` without enqueueing it.
    ///
    /// `in_flight` is the remaining service cost of the batch currently
    /// being evaluated (zero when idle); `degraded` is the supervisor's
    /// read-only escalation flag. Returns the predicted wait on success
    /// so the daemon can record admission latency.
    pub fn decide(
        &self,
        report: &FailureReport,
        in_flight: SimDuration,
        degraded: bool,
        cfg: &ServeConfig,
    ) -> Result<SimDuration, ShedReason> {
        if degraded {
            return Err(ShedReason::Degraded);
        }
        if Record::admitted_words(report) > MAX_FRAME_WORDS {
            return Err(ShedReason::Oversize);
        }
        if self.queue.len() >= cfg.mailbox_capacity {
            return Err(ShedReason::MailboxFull);
        }
        let predicted = SimDuration::from_micros(
            in_flight
                .as_micros()
                .saturating_add(self.backlog.as_micros())
                .saturating_add(report.service_cost(cfg).as_micros()),
        );
        if predicted > cfg.admission_deadline {
            return Err(ShedReason::DeadlineExceeded);
        }
        Ok(predicted)
    }

    /// Enqueues an already-admitted report.
    pub fn push(&mut self, report: FailureReport, cfg: &ServeConfig) {
        self.backlog = SimDuration::from_micros(
            self.backlog.as_micros().saturating_add(report.service_cost(cfg).as_micros()),
        );
        self.queue.push_back(report);
    }

    /// Drains the next evidence-window batch: the head plus every queued
    /// report whose evidence timestamp falls within `cfg.evidence_window`
    /// of the head's. Returns an empty vector when idle.
    pub fn take_batch(&mut self, cfg: &ServeConfig) -> Vec<FailureReport> {
        let Some(head) = self.queue.front() else {
            return Vec::new();
        };
        let anchor = head.evidence_at;
        let mut batch = Vec::new();
        // Reports arrive roughly evidence-ordered, but bursts can
        // interleave windows; scan the whole queue so a window is
        // evaluated together regardless of queue position.
        let mut rest = VecDeque::with_capacity(self.queue.len());
        for r in self.queue.drain(..) {
            if r.evidence_at.abs_diff(anchor) <= cfg.evidence_window {
                batch.push(r);
            } else {
                rest.push_back(r);
            }
        }
        self.queue = rest;
        let drained: u64 = batch.iter().map(|r| r.service_cost(cfg).as_micros()).sum();
        self.backlog = SimDuration::from_micros(self.backlog.as_micros().saturating_sub(drained));
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concilium_types::SimTime;

    fn report(id: u64, evidence_us: u64, observations: u64) -> FailureReport {
        FailureReport {
            id,
            judge: 1,
            accused: 2,
            arrival: SimTime::from_micros(evidence_us + 500),
            evidence_at: SimTime::from_micros(evidence_us),
            links: vec![crate::report::LinkObs { link: 1, up: observations, down: 0 }],
        }
    }

    #[test]
    fn admission_refuses_with_typed_reasons() {
        let cfg = ServeConfig { mailbox_capacity: 1, ..ServeConfig::default() };
        let mut mb = Mailbox::new();
        let r = report(1, 0, 1);
        assert!(mb.decide(&r, SimDuration::ZERO, true, &cfg) == Err(ShedReason::Degraded));
        assert!(mb.decide(&r, SimDuration::ZERO, false, &cfg).is_ok());
        mb.push(r.clone(), &cfg);
        assert_eq!(mb.decide(&report(2, 0, 1), SimDuration::ZERO, false, &cfg),
            Err(ShedReason::MailboxFull));
        // Deadline: an enormous in-flight remainder blows the budget.
        let cfg2 = ServeConfig { mailbox_capacity: 8, ..ServeConfig::default() };
        let huge = SimDuration::from_secs(1_000);
        assert_eq!(mb.decide(&report(3, 0, 1), huge, false, &cfg2),
            Err(ShedReason::DeadlineExceeded));
    }

    #[test]
    fn predicted_wait_counts_in_flight_backlog_and_self() {
        let cfg = ServeConfig::default();
        let mut mb = Mailbox::new();
        mb.push(report(1, 0, 10), &cfg);
        let next = report(2, 0, 4);
        let in_flight = SimDuration::from_micros(123);
        let predicted = mb.decide(&next, in_flight, false, &cfg).expect("admit");
        let expect = 123
            + report(1, 0, 10).service_cost(&cfg).as_micros()
            + next.service_cost(&cfg).as_micros();
        assert_eq!(predicted.as_micros(), expect);
    }

    #[test]
    fn batches_group_by_evidence_window_across_the_queue() {
        let cfg = ServeConfig::default();
        let win = cfg.evidence_window.as_micros();
        let mut mb = Mailbox::new();
        mb.push(report(1, 0, 1), &cfg);
        mb.push(report(2, 10 * win, 1), &cfg); // far future window
        mb.push(report(3, win / 2, 1), &cfg); // same window as head
        let batch = mb.take_batch(&cfg);
        let ids: Vec<u64> = batch.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![1, 3]);
        assert_eq!(mb.depth(), 1);
        let rest = mb.take_batch(&cfg);
        assert_eq!(rest.len(), 1);
        assert!(mb.is_empty());
        assert_eq!(mb.backlog(), SimDuration::ZERO);
    }
}
