//! Probe scheduling: lightweight surveillance with heavyweight escalation
//! (§3.2).
//!
//! "H schedules a lightweight probe of T_H as a periodic task whose
//! inter-arrival time is picked randomly and uniformly from the range
//! [0, max_probe_time]... If H receives acknowledgments from all peers,
//! it assumes that there is no link loss. Otherwise, it sends a few more
//! probes to silent peers to determine if they are truly offline or
//! situated along a lossy IP link. If link loss is detected or H's
//! application-level messages are not being acknowledged, H initiates
//! heavyweight probing... To avoid probe-induced congestion, each peer
//! waits for a small, randomly picked time before initiating heavyweight
//! tomography."

use rand::Rng;

use concilium_types::{SimDuration, SimTime};

/// What the scheduler decides after a lightweight round.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProbeAction {
    /// All peers acknowledged: keep light-weight surveillance.
    StayLightweight,
    /// Some peers were silent: re-probe them before concluding anything.
    RetrySilent {
        /// How many extra probes to send each silent peer.
        retries: u32,
    },
    /// Loss confirmed (or application-level acks missing): start
    /// heavyweight probing after a random back-off.
    EscalateHeavyweight {
        /// When to begin (now + random congestion-avoidance delay).
        at: SimTime,
    },
}

/// Configuration for the probe scheduler.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProbeSchedule {
    /// Upper bound of the uniform lightweight inter-arrival time
    /// (paper: one to two minutes).
    pub max_probe_time: SimDuration,
    /// Extra probes for silent peers before concluding loss.
    pub retries: u32,
    /// Upper bound of the random escalation back-off.
    pub max_escalation_delay: SimDuration,
    /// Minimum spacing between heavyweight rounds (they are expensive:
    /// ~16.7 MiB per round at paper scale).
    pub heavyweight_cooldown: SimDuration,
}

impl Default for ProbeSchedule {
    fn default() -> Self {
        ProbeSchedule {
            max_probe_time: SimDuration::from_secs(120),
            retries: 3,
            max_escalation_delay: SimDuration::from_secs(10),
            heavyweight_cooldown: SimDuration::from_secs(300),
        }
    }
}

/// Per-host probing state machine.
#[derive(Clone, Debug)]
pub struct Prober {
    schedule: ProbeSchedule,
    /// Peers that stayed silent through the retry round.
    pending_retry: bool,
    last_heavyweight: Option<SimTime>,
}

impl Prober {
    /// Creates a prober.
    pub fn new(schedule: ProbeSchedule) -> Self {
        Prober { schedule, pending_retry: false, last_heavyweight: None }
    }

    /// Draws the next lightweight probe time: `now + U[0, max_probe_time]`.
    pub fn next_lightweight<R: Rng + ?Sized>(&self, now: SimTime, rng: &mut R) -> SimTime {
        now + SimDuration::from_micros(
            rng.gen_range(0..=self.schedule.max_probe_time.as_micros()),
        )
    }

    /// Digests the results of a lightweight round (`acks[i]` = whether
    /// leaf `i` acknowledged) plus whether application-level messages are
    /// currently going unacknowledged, and decides what to do next.
    pub fn on_lightweight_round<R: Rng + ?Sized>(
        &mut self,
        acks: &[bool],
        app_messages_unacked: bool,
        now: SimTime,
        rng: &mut R,
    ) -> ProbeAction {
        let silent = acks.iter().any(|a| !a);
        if !silent && !app_messages_unacked {
            self.pending_retry = false;
            return ProbeAction::StayLightweight;
        }
        if silent && !self.pending_retry && !app_messages_unacked {
            // First sign of trouble: re-probe the silent peers.
            self.pending_retry = true;
            return ProbeAction::RetrySilent { retries: self.schedule.retries };
        }
        // Loss confirmed (silence survived the retry round) or the
        // application itself is losing messages.
        self.pending_retry = false;
        if let Some(last) = self.last_heavyweight {
            if now.abs_diff(last) < self.schedule.heavyweight_cooldown && now >= last {
                // Too soon for another expensive round.
                return ProbeAction::StayLightweight;
            }
        }
        let delay = SimDuration::from_micros(
            rng.gen_range(0..=self.schedule.max_escalation_delay.as_micros()),
        );
        let at = now + delay;
        self.last_heavyweight = Some(at);
        ProbeAction::EscalateHeavyweight { at }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn all_acked_stays_lightweight() {
        let mut p = Prober::new(ProbeSchedule::default());
        let mut rng = StdRng::seed_from_u64(1);
        let action = p.on_lightweight_round(&[true, true, true], false, t(10), &mut rng);
        assert_eq!(action, ProbeAction::StayLightweight);
    }

    #[test]
    fn first_silence_triggers_retries_then_escalation() {
        let mut p = Prober::new(ProbeSchedule::default());
        let mut rng = StdRng::seed_from_u64(2);
        let first = p.on_lightweight_round(&[true, false], false, t(10), &mut rng);
        assert_eq!(first, ProbeAction::RetrySilent { retries: 3 });
        // The peer stays silent through the retry round.
        let second = p.on_lightweight_round(&[true, false], false, t(20), &mut rng);
        match second {
            ProbeAction::EscalateHeavyweight { at } => {
                assert!(at >= t(20));
                assert!(at <= t(30), "escalation delay bounded by 10 s");
            }
            other => panic!("expected escalation, got {other:?}"),
        }
    }

    #[test]
    fn app_level_loss_escalates_immediately() {
        let mut p = Prober::new(ProbeSchedule::default());
        let mut rng = StdRng::seed_from_u64(3);
        let action = p.on_lightweight_round(&[true, true], true, t(10), &mut rng);
        assert!(matches!(action, ProbeAction::EscalateHeavyweight { .. }));
    }

    #[test]
    fn recovery_resets_the_retry_state() {
        let mut p = Prober::new(ProbeSchedule::default());
        let mut rng = StdRng::seed_from_u64(4);
        let _ = p.on_lightweight_round(&[false], false, t(10), &mut rng);
        // The silent peer comes back: no escalation.
        let action = p.on_lightweight_round(&[true], false, t(20), &mut rng);
        assert_eq!(action, ProbeAction::StayLightweight);
        // The next silence starts the retry cycle over.
        let action = p.on_lightweight_round(&[false], false, t(30), &mut rng);
        assert_eq!(action, ProbeAction::RetrySilent { retries: 3 });
    }

    #[test]
    fn cooldown_limits_heavyweight_rounds() {
        let mut p = Prober::new(ProbeSchedule::default());
        let mut rng = StdRng::seed_from_u64(5);
        let first = p.on_lightweight_round(&[true], true, t(10), &mut rng);
        assert!(matches!(first, ProbeAction::EscalateHeavyweight { .. }));
        // 60 seconds later trouble persists, but the cooldown (300 s)
        // suppresses another expensive round.
        let second = p.on_lightweight_round(&[true], true, t(70), &mut rng);
        assert_eq!(second, ProbeAction::StayLightweight);
        // After the cooldown expires, escalation is allowed again.
        let third = p.on_lightweight_round(&[true], true, t(400), &mut rng);
        assert!(matches!(third, ProbeAction::EscalateHeavyweight { .. }));
    }

    #[test]
    fn lightweight_inter_arrival_is_bounded_uniform() {
        let p = Prober::new(ProbeSchedule::default());
        let mut rng = StdRng::seed_from_u64(6);
        let mut max_seen = SimDuration::ZERO;
        for _ in 0..2_000 {
            let next = p.next_lightweight(t(100), &mut rng);
            let gap = next.abs_diff(t(100));
            assert!(gap <= SimDuration::from_secs(120));
            max_seen = max_seen.max(gap);
        }
        assert!(max_seen > SimDuration::from_secs(100), "samples span the range");
    }
}
