//! Deterministic fault injection for the simulator.
//!
//! A [`FaultPlan`] perturbs two layers of the simulation:
//!
//! * **Message delivery** — each injected message can be dropped,
//!   delayed, duplicated, or reordered (`FaultPlan::fate`), and the
//!   resulting delivery events are driven through the existing
//!   [`EventQueue`] ([`FaultPlan::inject`]) so perturbed runs stay fully
//!   deterministic: the queue's insertion-order tie-break plus the plan's
//!   private seeded RNG make every run with the same seed and
//!   [`FaultConfig`] bit-identical. The DST episode does not inject: it
//!   reads only [`MessageFate::delivered`], so there duplication,
//!   reordering and extra latency are drawn and discarded, and their four
//!   knobs change only the plan's rng stream (ROADMAP item 2).
//! * **Node lifecycle** — a configurable fraction of hosts crash during
//!   the run and restart after a sampled outage (`FaultPlan::host_up`),
//!   giving churn windows the recovery layer must ride out.
//!
//! The plan also parameterises the Byzantine roles of
//! [`AdversarySets`] that go beyond droppers and
//! colluders: acknowledgment withholding ([`FaultPlan::ack_arrives`]) and
//! snapshot delaying/stale replay (`FaultPlan::snapshot_time`).
//!
//! The plan draws from its *own* seeded RNG rather than the world's, so
//! adding fault injection to an experiment does not desynchronise the
//! world-construction stream: the same world can be replayed under
//! different fault plans and vice versa.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use concilium_types::{SimDuration, SimTime};

use crate::behavior::AdversarySets;
use crate::engine::{EventQueue, ScheduleError};

/// Message-level and lifecycle fault knobs. The default is fully
/// transparent (no perturbation at all).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Probability that an injected message is silently dropped.
    pub drop_probability: f64,
    /// Probability that an acknowledgment is lost in transit (consulted
    /// by [`FaultPlan::ack_arrives`], independently per attempt).
    pub ack_drop_probability: f64,
    /// Probability that a delivered message is duplicated (two delivery
    /// events are scheduled by [`FaultPlan::inject`]; the DST episode only
    /// draws it, see the module docs).
    pub duplicate_probability: f64,
    /// Probability that a delivered message is reordered: it is held for
    /// an extra [`FaultConfig::reorder_delay`], letting later sends
    /// overtake it (through [`FaultPlan::inject`]; the DST episode only
    /// draws it).
    pub reorder_probability: f64,
    /// Upper bound of the uniform extra latency added to every delivery
    /// (through [`FaultPlan::inject`]; the DST episode only draws it).
    pub extra_latency_max: SimDuration,
    /// How long a reordered message is held beyond its normal latency
    /// (through [`FaultPlan::inject`]; the DST episode discards it).
    pub reorder_delay: SimDuration,
    /// How far a probe-delayer's snapshot timestamps are shifted into the
    /// past (pick > the judge's Δ to defeat admissibility).
    pub delayer_shift: SimDuration,
    /// How old a stale replayer's snapshots are (pick > the freshness
    /// horizon so honest receivers reject them).
    pub replay_age: SimDuration,
    /// Node-lifecycle churn.
    pub churn: ChurnConfig,
    /// Gilbert–Elliott bursty transport loss layered on top of the
    /// independent drop probabilities.
    pub burst: BurstConfig,
    /// Eclipse-style churn storm: a coordinated crash wave.
    pub storm: StormConfig,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_probability: 0.0,
            ack_drop_probability: 0.0,
            duplicate_probability: 0.0,
            reorder_probability: 0.0,
            extra_latency_max: SimDuration::ZERO,
            reorder_delay: SimDuration::from_secs(1),
            delayer_shift: SimDuration::from_secs(300),
            replay_age: SimDuration::from_secs(900),
            churn: ChurnConfig::default(),
            burst: BurstConfig::default(),
            storm: StormConfig::default(),
        }
    }
}

/// Gilbert–Elliott two-state channel: the transport alternates between a
/// *good* state (no extra loss) and a *bad* state that drops each message
/// with [`BurstConfig::bad_loss`]. State transitions are sampled once per
/// transport decision, so loss arrives in bursts whose expected length is
/// `1 / bad_to_good` decisions. Disabled (and consuming no RNG state at
/// all) while [`BurstConfig::good_to_bad`] is zero, so transparent plans
/// stay stream-compatible.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstConfig {
    /// Per-decision probability of entering the bad state from good.
    pub good_to_bad: f64,
    /// Per-decision probability of leaving the bad state for good.
    pub bad_to_good: f64,
    /// Drop probability applied to each decision made in the bad state.
    pub bad_loss: f64,
}

impl Default for BurstConfig {
    fn default() -> Self {
        BurstConfig { good_to_bad: 0.0, bad_to_good: 0.1, bad_loss: 0.5 }
    }
}

impl BurstConfig {
    /// Whether the channel ever leaves the good state.
    pub(crate) fn enabled(&self) -> bool {
        self.good_to_bad > 0.0
    }
}

/// Eclipse-style churn storm: a coordinated fraction of hosts crash
/// *together* inside one window, instead of the independent crashes of
/// [`ChurnConfig`]. Modeled on eclipse attacks, where an adversary times
/// simultaneous departures to partition a victim's routing neighbourhood.
/// Storm participants are drawn uniformly; their shared window starts at
/// [`StormConfig::start_frac`] of the run and lasts
/// [`StormConfig::duration`]. Disabled (no RNG consumed) while
/// [`StormConfig::fraction`] is zero.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StormConfig {
    /// Fraction of hosts that crash in the coordinated wave.
    pub fraction: f64,
    /// Storm onset, as a fraction of the run duration.
    pub start_frac: f64,
    /// How long every storm participant stays down.
    pub duration: SimDuration,
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            fraction: 0.0,
            start_frac: 0.4,
            duration: SimDuration::from_secs(120),
        }
    }
}

/// Crash/restart churn: which fraction of hosts crash once during the
/// run, and how long they stay down.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnConfig {
    /// Fraction of hosts that crash at a uniform random time.
    pub crash_fraction: f64,
    /// Mean outage duration (outages are uniform in
    /// `[min_outage, 2 × mean − min_outage]`).
    pub mean_outage: SimDuration,
    /// Minimum outage duration.
    pub min_outage: SimDuration,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            crash_fraction: 0.0,
            mean_outage: SimDuration::from_secs(120),
            min_outage: SimDuration::from_secs(10),
        }
    }
}

/// An invalid [`FaultConfig`] knob.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultError {
    /// A probability knob is outside `[0, 1]`.
    BadProbability {
        /// Which knob.
        knob: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The churn outage bounds are inconsistent (`mean < min`).
    BadOutage,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::BadProbability { knob, value } => {
                write!(f, "{knob} must be in [0,1], got {value}")
            }
            FaultError::BadOutage => write!(f, "mean outage must be at least the minimum"),
        }
    }
}

impl std::error::Error for FaultError {}

/// What the plan decided for one injected message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MessageFate {
    /// The message never arrives.
    Dropped,
    /// The message arrives at each listed time (two entries when
    /// duplicated). Times include latency, reordering holds, and are
    /// never before the send time.
    Delivered {
        /// Scheduled delivery instants.
        at: Vec<SimTime>,
    },
}

impl MessageFate {
    /// Whether at least one copy arrives.
    pub fn delivered(&self) -> bool {
        matches!(self, MessageFate::Delivered { .. })
    }
}

/// A seeded, deterministic fault plan (see the module docs).
#[derive(Clone, Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: StdRng,
    /// Per host: `Some((down_from, up_again))` if it crashes.
    outages: Vec<Option<(SimTime, SimTime)>>,
    /// Gilbert–Elliott channel state: currently in the bad state?
    burst_bad: bool,
}

impl FaultPlan {
    /// Builds a plan for `num_hosts` hosts over a run of `duration`,
    /// seeding its private RNG from `seed`. Churn windows are sampled up
    /// front so `FaultPlan::host_up` is a pure query.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultError`] for out-of-range probabilities or
    /// inconsistent outage bounds.
    pub fn new(
        cfg: FaultConfig,
        seed: u64,
        num_hosts: usize,
        duration: SimDuration,
    ) -> Result<Self, FaultError> {
        for (knob, value) in [
            ("drop probability", cfg.drop_probability),
            ("ack drop probability", cfg.ack_drop_probability),
            ("duplicate probability", cfg.duplicate_probability),
            ("reorder probability", cfg.reorder_probability),
            ("crash fraction", cfg.churn.crash_fraction),
            ("burst good-to-bad", cfg.burst.good_to_bad),
            ("burst bad-to-good", cfg.burst.bad_to_good),
            ("burst bad loss", cfg.burst.bad_loss),
            ("storm fraction", cfg.storm.fraction),
            ("storm start fraction", cfg.storm.start_frac),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(FaultError::BadProbability { knob, value });
            }
        }
        if cfg.churn.mean_outage < cfg.churn.min_outage {
            return Err(FaultError::BadOutage);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let span = duration.as_micros().max(1);
        let outage_span = 2 * cfg.churn.mean_outage.as_micros()
            - cfg.churn.min_outage.as_micros();
        let mut outages: Vec<Option<(SimTime, SimTime)>> = (0..num_hosts)
            .map(|_| {
                if !rng.gen_bool(cfg.churn.crash_fraction) {
                    return None;
                }
                let down = SimTime::from_micros(rng.gen_range(0..span));
                let outage = SimDuration::from_micros(
                    rng.gen_range(cfg.churn.min_outage.as_micros()..=outage_span),
                );
                Some((down, down + outage))
            })
            .collect();
        // Eclipse-style churn storm: a sampled fraction of hosts crash in
        // one *shared* window, overriding any independent churn window
        // they drew above (the storm is the adversary's timing, not the
        // host's own fate). Drawn only when configured so storm-free
        // plans consume no extra RNG state.
        if cfg.storm.fraction > 0.0 {
            let start = SimTime::from_micros(
                (duration.as_micros() as f64 * cfg.storm.start_frac) as u64,
            );
            let end = start + cfg.storm.duration;
            for slot in outages.iter_mut() {
                if rng.gen_bool(cfg.storm.fraction) {
                    *slot = Some((start, end));
                }
            }
        }
        Ok(FaultPlan { cfg, rng, outages, burst_bad: false })
    }

    /// Whether host `h` is alive at `t` (false inside its churn window).
    /// Crash starts are inclusive, restarts exclusive, mirroring
    /// [`crate::IndexedHistory::was_up`].
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub(crate) fn host_up(&self, h: usize, t: SimTime) -> bool {
        match self.outages[h] {
            Some((down, up)) => t < down || t >= up,
            None => true,
        }
    }

    /// The churn window of host `h`, if it crashes.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn outage(&self, h: usize) -> Option<(SimTime, SimTime)> {
        self.outages[h]
    }

    /// Advances the Gilbert–Elliott channel one decision and reports
    /// whether the bad state eats this message. Consumes RNG only while
    /// the channel is enabled, so burst-free plans keep their streams.
    fn burst_drops(&mut self) -> bool {
        if !self.cfg.burst.enabled() {
            return false;
        }
        let flip = if self.burst_bad {
            self.cfg.burst.bad_to_good
        } else {
            self.cfg.burst.good_to_bad
        };
        if flip > 0.0 && self.rng.gen_bool(flip) {
            self.burst_bad = !self.burst_bad;
        }
        self.burst_bad
            && self.cfg.burst.bad_loss > 0.0
            && self.rng.gen_bool(self.cfg.burst.bad_loss)
    }

    /// Decides the fate of a message sent at `send`. Consumes RNG state:
    /// call in a deterministic order for reproducible runs.
    pub(crate) fn fate(&mut self, send: SimTime) -> MessageFate {
        if self.burst_drops() {
            return MessageFate::Dropped;
        }
        if self.cfg.drop_probability > 0.0 && self.rng.gen_bool(self.cfg.drop_probability) {
            return MessageFate::Dropped;
        }
        let mut first = send + self.latency();
        if self.cfg.reorder_probability > 0.0
            && self.rng.gen_bool(self.cfg.reorder_probability)
        {
            first += self.cfg.reorder_delay;
        }
        let mut at = vec![first];
        if self.cfg.duplicate_probability > 0.0
            && self.rng.gen_bool(self.cfg.duplicate_probability)
        {
            at.push(send + self.latency());
        }
        MessageFate::Delivered { at }
    }

    /// Decides `event`'s fate and schedules every delivery on `queue`.
    /// Returns the fate so callers can record ground truth.
    ///
    /// # Errors
    ///
    /// Propagates [`ScheduleError`] if `send` precedes the queue's clock
    /// (the event is dropped in that case, like a message sent by a host
    /// whose clock lags the simulation).
    pub fn inject<E: Clone>(
        &mut self,
        queue: &mut EventQueue<E>,
        send: SimTime,
        event: E,
    ) -> Result<MessageFate, ScheduleError> {
        let fate = self.fate(send);
        if let MessageFate::Delivered { at } = &fate {
            for &t in at {
                queue.try_schedule(t, event.clone()).map_err(|(err, _)| err)?;
            }
        }
        Ok(fate)
    }

    /// Whether an acknowledgment from `dest` reaches its steward on this
    /// attempt: never for an ack withholder or a coalition member (the
    /// coalition withholds acks to manufacture phantom drops), and
    /// otherwise subject to the configured transport loss. Each call is an
    /// independent draw, so retransmissions re-roll the loss.
    pub fn ack_arrives(&mut self, adversaries: &AdversarySets, dest: usize) -> bool {
        if adversaries.is_ack_withholder(dest) || adversaries.is_coalition(dest) {
            return false;
        }
        if self.cfg.ack_drop_probability <= 0.0 {
            return true;
        }
        !self.rng.gen_bool(self.cfg.ack_drop_probability)
    }

    /// The timestamp a snapshot from `origin` carries when published at
    /// `t`: probe delayers shift it back by
    /// [`FaultConfig::delayer_shift`] (the observations describe a window
    /// that no longer overlaps the judged instant) and stale replayers by
    /// [`FaultConfig::replay_age`] (old enough to trip the freshness
    /// check). Honest hosts return `t` unchanged.
    pub(crate) fn snapshot_time(
        &self,
        adversaries: &AdversarySets,
        origin: usize,
        t: SimTime,
    ) -> SimTime {
        if adversaries.is_stale_replayer(origin) {
            t.saturating_sub(self.cfg.replay_age)
        } else if adversaries.is_probe_delayer(origin) {
            t.saturating_sub(self.cfg.delayer_shift)
        } else {
            t
        }
    }

    /// Whether a unicast protocol message — a DHT put, a revision-handoff
    /// request, a snapshot publication — survives the transport on this
    /// attempt, subject to the configured drop probability. Each call is
    /// an independent draw, mirroring [`FaultPlan::ack_arrives`]; when no
    /// loss is configured no RNG state is consumed, so transparent plans
    /// stay stream-compatible with plans that never ask.
    pub(crate) fn transport_delivers(&mut self) -> bool {
        if self.burst_drops() {
            return false;
        }
        if self.cfg.drop_probability <= 0.0 {
            return true;
        }
        !self.rng.gen_bool(self.cfg.drop_probability)
    }

    fn latency(&mut self) -> SimDuration {
        let max = self.cfg.extra_latency_max.as_micros();
        if max == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_micros(self.rng.gen_range(0..=max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(cfg: FaultConfig, seed: u64) -> FaultPlan {
        FaultPlan::new(cfg, seed, 50, SimDuration::from_mins(30)).unwrap()
    }

    #[test]
    fn transparent_plan_changes_nothing() {
        let mut p =
            FaultPlan::new(FaultConfig::default(), 0, 10, SimDuration::from_mins(30)).unwrap();
        for s in 0..100 {
            let send = SimTime::from_secs(s);
            assert_eq!(p.fate(send), MessageFate::Delivered { at: vec![send] });
        }
        for h in 0..10 {
            assert!(p.host_up(h, SimTime::from_secs(17)));
            assert_eq!(p.outage(h), None);
        }
    }

    #[test]
    fn drop_probability_is_respected() {
        let cfg = FaultConfig { drop_probability: 0.3, ..Default::default() };
        let mut p = plan(cfg, 1);
        let drops = (0..10_000)
            .filter(|&k| !p.fate(SimTime::from_secs(k)).delivered())
            .count();
        let frac = drops as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.02, "drop fraction {frac}");
    }

    #[test]
    fn duplication_and_latency_show_up_in_deliveries() {
        let cfg = FaultConfig {
            duplicate_probability: 0.5,
            extra_latency_max: SimDuration::from_secs(2),
            ..Default::default()
        };
        let mut p = plan(cfg, 2);
        let mut dups = 0;
        for k in 0..2_000 {
            let send = SimTime::from_secs(10 + k);
            match p.fate(send) {
                MessageFate::Delivered { at } => {
                    assert!(!at.is_empty() && at.len() <= 2);
                    for &t in &at {
                        assert!(t >= send);
                        assert!(t.abs_diff(send) <= SimDuration::from_secs(2));
                    }
                    if at.len() == 2 {
                        dups += 1;
                    }
                }
                MessageFate::Dropped => panic!("no drops configured"),
            }
        }
        let frac = dups as f64 / 2_000.0;
        assert!((frac - 0.5).abs() < 0.05, "duplicate fraction {frac}");
    }

    #[test]
    fn reordering_lets_later_sends_overtake() {
        let cfg = FaultConfig {
            reorder_probability: 1.0,
            reorder_delay: SimDuration::from_secs(5),
            ..Default::default()
        };
        let mut p = plan(cfg, 3);
        let mut q: EventQueue<u32> = EventQueue::new();
        // Message 0 is held 5 s; message 1 sent 1 s later is also held,
        // but a message injected by a transparent plan in between lands
        // first.
        p.inject(&mut q, SimTime::from_secs(10), 0).unwrap();
        let mut honest =
            FaultPlan::new(FaultConfig::default(), 0, 1, SimDuration::from_mins(30)).unwrap();
        honest.inject(&mut q, SimTime::from_secs(11), 1).unwrap();
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 0], "the held message is overtaken");
    }

    #[test]
    fn churn_windows_are_sampled_and_queryable() {
        let cfg = FaultConfig {
            churn: ChurnConfig {
                crash_fraction: 0.5,
                mean_outage: SimDuration::from_secs(60),
                min_outage: SimDuration::from_secs(10),
            },
            ..Default::default()
        };
        let p = plan(cfg, 4);
        let crashed: Vec<usize> = (0..50).filter(|&h| p.outage(h).is_some()).collect();
        assert!(
            (10..=40).contains(&crashed.len()),
            "about half crash, got {}",
            crashed.len()
        );
        for &h in &crashed {
            let (down, up) = p.outage(h).unwrap();
            assert!(up > down);
            let gap = up.abs_diff(down);
            assert!(gap >= SimDuration::from_secs(10));
            assert!(gap <= SimDuration::from_secs(110));
            assert!(p.host_up(h, down.saturating_sub(SimDuration::from_micros(1))));
            assert!(!p.host_up(h, down), "down at the crash instant");
            assert!(p.host_up(h, up), "up at the restart instant");
        }
    }

    #[test]
    fn same_seed_same_plan_is_bit_identical() {
        let cfg = FaultConfig {
            drop_probability: 0.1,
            duplicate_probability: 0.2,
            reorder_probability: 0.1,
            extra_latency_max: SimDuration::from_secs(3),
            churn: ChurnConfig { crash_fraction: 0.3, ..Default::default() },
            ..Default::default()
        };
        let mut a = plan(cfg, 99);
        let mut b = plan(cfg, 99);
        for h in 0..50 {
            assert_eq!(a.outage(h), b.outage(h));
        }
        for k in 0..5_000 {
            let send = SimTime::from_secs(k);
            assert_eq!(a.fate(send), b.fate(send), "message {k}");
        }
        // A different seed produces a different plan.
        let mut c = plan(cfg, 100);
        let differs = (0..5_000)
            .any(|k| c.fate(SimTime::from_secs(k)) != b.fate(SimTime::from_secs(k)));
        assert!(differs);
    }

    #[test]
    fn byzantine_roles_shape_acks_and_snapshots() {
        let cfg = FaultConfig {
            ack_drop_probability: 0.5,
            delayer_shift: SimDuration::from_secs(200),
            replay_age: SimDuration::from_secs(1_000),
            ..Default::default()
        };
        let mut p = plan(cfg, 5);
        let mut adv = AdversarySets::none();
        adv.ack_withholders.insert(3);
        adv.probe_delayers.insert(4);
        adv.stale_replayers.insert(5);

        // Withholders never ack; honest hosts ack at 1 − ack_drop.
        assert!((0..100).all(|_| !p.ack_arrives(&adv, 3)));
        let acked = (0..2_000).filter(|_| p.ack_arrives(&adv, 0)).count();
        let frac = acked as f64 / 2_000.0;
        assert!((frac - 0.5).abs() < 0.04, "ack fraction {frac}");

        let t = SimTime::from_secs(2_000);
        assert_eq!(p.snapshot_time(&adv, 0, t), t);
        assert_eq!(p.snapshot_time(&adv, 4, t), SimTime::from_secs(1_800));
        assert_eq!(p.snapshot_time(&adv, 5, t), SimTime::from_secs(1_000));
    }

    #[test]
    fn duplication_and_reordering_interact_on_one_message() {
        // Both knobs certain, no extra latency: the *first* copy is held
        // by the reorder delay while the duplicate ships immediately, so
        // the duplicate overtakes its own original.
        let cfg = FaultConfig {
            duplicate_probability: 1.0,
            reorder_probability: 1.0,
            reorder_delay: SimDuration::from_secs(5),
            ..Default::default()
        };
        let mut p = plan(cfg, 7);
        let send = SimTime::from_secs(100);
        match p.fate(send) {
            MessageFate::Delivered { at } => {
                assert_eq!(at, vec![SimTime::from_secs(105), send]);
            }
            MessageFate::Dropped => panic!("no drops configured"),
        }
        // Injected through the queue, the duplicate pops first.
        let mut q: EventQueue<&str> = EventQueue::new();
        p.inject(&mut q, send, "m").unwrap();
        assert_eq!(q.pop(), Some((send, "m")), "the duplicate arrives first");
        assert_eq!(q.pop(), Some((SimTime::from_secs(105), "m")));
    }

    #[test]
    fn churn_window_abutting_the_simulation_end() {
        // Outages longer than the run: every crashed host stays down
        // through the end of the simulation and "restarts" only after it.
        let duration = SimDuration::from_mins(30);
        let cfg = FaultConfig {
            churn: ChurnConfig {
                crash_fraction: 1.0,
                mean_outage: duration.mul(2),
                min_outage: duration.mul(2),
            },
            ..Default::default()
        };
        let p = FaultPlan::new(cfg, 8, 20, duration).unwrap();
        let end = SimTime::ZERO + duration;
        for h in 0..20 {
            let (down, up) = p.outage(h).expect("everyone crashes");
            assert!(down < end, "crashes land inside the run");
            assert!(up > end, "the window extends past the end");
            assert!(!p.host_up(h, end), "still down when the run ends");
            assert!(p.host_up(h, up), "restart instant is exclusive");
        }
    }

    #[test]
    fn ack_arrives_with_all_three_byzantine_roles_at_once() {
        let cfg = FaultConfig { ack_drop_probability: 0.3, ..Default::default() };
        let mut adv = AdversarySets::none();
        adv.ack_withholders.insert(1);
        adv.probe_delayers.insert(2);
        adv.stale_replayers.insert(3);
        // Host 4 plays every role simultaneously.
        adv.ack_withholders.insert(4);
        adv.probe_delayers.insert(4);
        adv.stale_replayers.insert(4);

        let mut p = plan(cfg, 9);
        // Withholding wins regardless of the other roles, and — because
        // withholders short-circuit before the loss draw — consumes no
        // RNG state: a twin plan that never queries the withholders stays
        // stream-identical.
        let mut twin = plan(cfg, 9);
        for _ in 0..100 {
            assert!(!p.ack_arrives(&adv, 1));
            assert!(!p.ack_arrives(&adv, 4));
        }
        for _ in 0..500 {
            assert_eq!(p.ack_arrives(&adv, 2), twin.ack_arrives(&adv, 2));
        }
        // Delayer and replayer roles do not withhold acks: their ack
        // behavior is plain transport loss.
        let acked = (0..2_000).filter(|_| p.ack_arrives(&adv, 3)).count();
        let frac = acked as f64 / 2_000.0;
        assert!((frac - 0.7).abs() < 0.04, "ack fraction {frac}");
        // For snapshots, the stale-replay role dominates the delay role.
        let t = SimTime::from_secs(2_000);
        assert_eq!(p.snapshot_time(&adv, 4, t), t.saturating_sub(p.cfg.replay_age));
    }

    #[test]
    fn transport_delivers_draws_at_the_drop_rate() {
        let cfg = FaultConfig { drop_probability: 0.25, ..Default::default() };
        let mut p = plan(cfg, 10);
        let through = (0..4_000).filter(|_| p.transport_delivers()).count();
        let frac = through as f64 / 4_000.0;
        assert!((frac - 0.75).abs() < 0.03, "delivery fraction {frac}");
        // Lossless plans answer without consuming RNG state.
        let mut a =
            FaultPlan::new(FaultConfig::default(), 0, 4, SimDuration::from_mins(1)).unwrap();
        let mut b =
            FaultPlan::new(FaultConfig::default(), 0, 4, SimDuration::from_mins(1)).unwrap();
        for _ in 0..10 {
            assert!(a.transport_delivers());
        }
        for k in 0..100 {
            let send = SimTime::from_secs(k);
            assert_eq!(a.fate(send), b.fate(send), "streams stayed aligned");
        }
    }

    #[test]
    fn burst_loss_arrives_in_bursts() {
        // A sticky bad state (rare exits) with certain loss: drops must
        // cluster into runs much longer than independent loss would give.
        let cfg = FaultConfig {
            burst: BurstConfig { good_to_bad: 0.05, bad_to_good: 0.2, bad_loss: 1.0 },
            ..Default::default()
        };
        let mut p = plan(cfg, 11);
        let fates: Vec<bool> = (0..20_000)
            .map(|k| p.fate(SimTime::from_secs(k)).delivered())
            .collect();
        let drops = fates.iter().filter(|&&d| !d).count();
        // Stationary bad-state occupancy is g/(g+b) = 0.05/0.25 = 20%.
        let frac = drops as f64 / fates.len() as f64;
        assert!((frac - 0.2).abs() < 0.05, "burst drop fraction {frac}");
        // Mean drop-run length ≈ 1/bad_to_good = 5, far above the ~1 of
        // independent 20% loss.
        let mut runs = 0usize;
        let mut dropped_prev = false;
        for &d in &fates {
            if !d && dropped_prev {
                // continuation of a run
            } else if !d {
                runs += 1;
            }
            dropped_prev = !d;
        }
        let mean_run = drops as f64 / runs as f64;
        assert!(mean_run > 2.5, "mean drop-run length {mean_run} is not bursty");
    }

    #[test]
    fn disabled_burst_consumes_no_rng() {
        // Identical plans except one carries a (disabled) burst config:
        // the fate streams must stay aligned.
        let base = FaultConfig { drop_probability: 0.2, ..Default::default() };
        let with_burst = FaultConfig {
            burst: BurstConfig { good_to_bad: 0.0, bad_to_good: 0.3, bad_loss: 0.9 },
            ..base
        };
        let mut a = plan(base, 12);
        let mut b = plan(with_burst, 12);
        for k in 0..2_000 {
            let send = SimTime::from_secs(k);
            assert_eq!(a.fate(send), b.fate(send), "message {k}");
            assert_eq!(a.transport_delivers(), b.transport_delivers());
        }
        assert!(!b.burst_bad);
    }

    #[test]
    fn storm_crashes_share_one_window() {
        let duration = SimDuration::from_mins(30);
        let cfg = FaultConfig {
            storm: StormConfig {
                fraction: 0.5,
                start_frac: 0.4,
                duration: SimDuration::from_secs(120),
            },
            ..Default::default()
        };
        let p = FaultPlan::new(cfg, 13, 60, duration).unwrap();
        let start =
            SimTime::from_micros((duration.as_micros() as f64 * 0.4) as u64);
        let end = start + SimDuration::from_secs(120);
        let stormed: Vec<usize> = (0..60).filter(|&h| p.outage(h).is_some()).collect();
        assert!(
            (18..=42).contains(&stormed.len()),
            "about half storm out, got {}",
            stormed.len()
        );
        for &h in &stormed {
            assert_eq!(p.outage(h), Some((start, end)), "shared storm window");
            assert!(!p.host_up(h, start));
            assert!(p.host_up(h, end));
        }
    }

    #[test]
    fn storm_overrides_independent_churn() {
        // Every host crashes independently AND the storm takes everyone:
        // the storm's shared window wins for every host it drafts.
        let duration = SimDuration::from_mins(30);
        let cfg = FaultConfig {
            churn: ChurnConfig { crash_fraction: 1.0, ..Default::default() },
            storm: StormConfig {
                fraction: 1.0,
                start_frac: 0.5,
                duration: SimDuration::from_secs(60),
            },
            ..Default::default()
        };
        let p = FaultPlan::new(cfg, 14, 20, duration).unwrap();
        let start =
            SimTime::from_micros((duration.as_micros() as f64 * 0.5) as u64);
        for h in 0..20 {
            assert_eq!(p.outage(h), Some((start, start + SimDuration::from_secs(60))));
        }
    }

    #[test]
    fn fate_stream_is_independent_of_interleaved_inject_calls() {
        // The fuzzer's determinism assumption: driving the plan through
        // `inject` (which schedules deliveries on an EventQueue) yields
        // the exact fate stream that bare `fate`/`transport_delivers`
        // calls produce — queue operations never touch the RNG.
        let cfg = FaultConfig {
            drop_probability: 0.2,
            duplicate_probability: 0.3,
            reorder_probability: 0.2,
            extra_latency_max: SimDuration::from_secs(2),
            burst: BurstConfig { good_to_bad: 0.1, bad_to_good: 0.3, bad_loss: 0.8 },
            ..Default::default()
        };
        let mut bare = plan(cfg, 15);
        let mut injected = plan(cfg, 15);
        let mut q: EventQueue<u64> = EventQueue::new();
        for k in 0..3_000u64 {
            let send = SimTime::from_secs(k);
            let expect = bare.fate(send);
            let got = injected.inject(&mut q, send, k).unwrap();
            assert_eq!(expect, got, "message {k}");
            // Interleave unicast decisions: both plans must keep agreeing.
            if k % 7 == 0 {
                assert_eq!(bare.transport_delivers(), injected.transport_delivers());
            }
        }
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        let bad = FaultConfig { drop_probability: 1.5, ..Default::default() };
        match FaultPlan::new(bad, 0, 4, SimDuration::from_mins(1)) {
            Err(FaultError::BadProbability { knob, value }) => {
                assert_eq!(knob, "drop probability");
                assert_eq!(value, 1.5);
            }
            other => panic!("expected BadProbability, got {other:?}"),
        }
        let bad = FaultConfig {
            churn: ChurnConfig {
                crash_fraction: 0.1,
                mean_outage: SimDuration::from_secs(5),
                min_outage: SimDuration::from_secs(10),
            },
            ..Default::default()
        };
        assert_eq!(
            FaultPlan::new(bad, 0, 4, SimDuration::from_mins(1)).unwrap_err(),
            FaultError::BadOutage
        );
        assert!(FaultError::BadOutage.to_string().contains("outage"));
        let bad = FaultConfig {
            burst: BurstConfig { good_to_bad: 0.2, bad_to_good: -0.1, bad_loss: 0.5 },
            ..Default::default()
        };
        match FaultPlan::new(bad, 0, 4, SimDuration::from_mins(1)) {
            Err(FaultError::BadProbability { knob, .. }) => {
                assert_eq!(knob, "burst bad-to-good");
            }
            other => panic!("expected BadProbability, got {other:?}"),
        }
        let bad = FaultConfig {
            storm: StormConfig { fraction: 0.1, start_frac: 1.2, ..Default::default() },
            ..Default::default()
        };
        match FaultPlan::new(bad, 0, 4, SimDuration::from_mins(1)) {
            Err(FaultError::BadProbability { knob, .. }) => {
                assert_eq!(knob, "storm start fraction");
            }
            other => panic!("expected BadProbability, got {other:?}"),
        }
    }

    #[test]
    fn inject_schedules_every_delivery() {
        let cfg = FaultConfig {
            duplicate_probability: 1.0,
            extra_latency_max: SimDuration::from_secs(1),
            ..Default::default()
        };
        let mut p = plan(cfg, 6);
        let mut q: EventQueue<&str> = EventQueue::new();
        let fate = p.inject(&mut q, SimTime::from_secs(30), "m").unwrap();
        match fate {
            MessageFate::Delivered { at } => assert_eq!(at.len(), 2),
            MessageFate::Dropped => panic!("no drops configured"),
        }
        assert_eq!(std::iter::from_fn(|| q.pop()).count(), 2);
    }
}
