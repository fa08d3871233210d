//! Deterministic fault injection for the simulator.
//!
//! A [`FaultPlan`] perturbs two layers of the simulation:
//!
//! * **Transport** — a message is lost or not. Every decision is one
//!   keyed coin (`FaultPlan::delivers`, [`FaultPlan::ack_arrives`]): the
//!   caller names what is decided in a key (`key`: the episode seed, a
//!   stage and the ids of the decision), so an answer depends on what it
//!   decides and never on how many decisions came before it, and a zero
//!   knob flips no coin. The one piece of transport state is the
//!   Gilbert–Elliott channel, whose transitions are a stream of their own,
//!   stepped once per data-path attempt (`FaultPlan::step_burst`).
//! * **Node lifecycle** — a configurable fraction of hosts crash during
//!   the run and restart after a sampled outage (`FaultPlan::host_up`),
//!   giving churn windows the recovery layer must ride out.
//!
//! The plan also parameterises the Byzantine roles of
//! [`AdversarySets`] that go beyond droppers and
//! colluders: acknowledgment withholding ([`FaultPlan::ack_arrives`]) and
//! snapshot delaying/stale replay (`FaultPlan::snapshot_time`).
//!
//! The plan seeds its churn windows and its burst channel from its own
//! seed rather than the world's rng, so adding fault injection to an
//! experiment does not desynchronise the world-construction stream: the
//! same world can be replayed under different fault plans and vice versa.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use concilium_par::derive_seed;
use concilium_types::{SimDuration, SimTime};

use crate::behavior::AdversarySets;
use crate::EpisodeConfig;

/// Salt of the burst channel's transition stream.
const BURST_SALT: u64 = 0x6a09_e667_f3bc_c908;
/// Salt separating a decision's bad-state loss coin from its drop coin.
const BURST_LOSS: u64 = 0xbb67_ae85_84ca_a73b;

/// The key of one decision: [`derive_seed`] folded over the episode
/// `seed`, the decision's `stage` and the `ids` that name it.
pub(crate) fn key(seed: u64, stage: u64, ids: &[u64]) -> u64 {
    ids.iter().fold(derive_seed(seed, stage), |k, &id| derive_seed(k, id))
}

/// A keyed coin: true with probability `p`. A zero `p` is false without
/// reading the key.
pub(crate) fn coin(key: u64, p: f64) -> bool {
    p > 0.0 && (key >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
}

/// Message-level and lifecycle fault knobs. The default is fully
/// transparent (no perturbation at all).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Probability that a message is silently dropped in transit.
    pub drop_probability: f64,
    /// Probability that an acknowledgment is lost in transit (consulted
    /// by [`FaultPlan::ack_arrives`], independently per attempt).
    pub ack_drop_probability: f64,
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
/// data-path attempt, so loss arrives in bursts whose expected length is
/// `1 / bad_to_good` attempts; every other transport decision reads the
/// state without stepping it. Disabled (and stepping nothing) while
/// [`BurstConfig::good_to_bad`] is zero.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstConfig {
    /// Per-attempt probability of entering the bad state from good.
    pub good_to_bad: f64,
    /// Per-attempt probability of leaving the bad state for good.
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

/// An invalid [`FaultConfig`] or [`EpisodeConfig`] knob.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultError {
    /// A probability knob is outside `[0, 1]`.
    BadProbability {
        /// Which knob, by its literal path (`faults.drop_probability`).
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

/// A seeded, deterministic fault plan (see the module docs).
#[derive(Clone, Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    /// Per host: `Some((down_from, up_again))` if it crashes.
    outages: Vec<Option<(SimTime, SimTime)>>,
    /// The Gilbert–Elliott channel's transition stream: the channel is
    /// state by definition, so it is the plan's one positional draw.
    burst_rng: StdRng,
    /// Gilbert–Elliott channel state: currently in the bad state?
    burst_bad: bool,
}

impl FaultPlan {
    /// Builds a plan for `num_hosts` hosts over a run of `duration`,
    /// seeding its churn windows and burst channel from `seed`. Churn
    /// windows are sampled up front so `FaultPlan::host_up` is a pure
    /// query.
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
        // The grid's one range check; the role fractions sit at their defaults.
        EpisodeConfig { faults: cfg, ..EpisodeConfig::default() }.validate()?;
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
        let burst_rng = StdRng::seed_from_u64(derive_seed(seed, BURST_SALT));
        Ok(FaultPlan { cfg, outages, burst_rng, burst_bad: false })
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

    /// Advances the Gilbert–Elliott channel by one data-path attempt.
    /// Steps nothing while the channel is disabled.
    pub(crate) fn step_burst(&mut self) {
        if !self.cfg.burst.enabled() {
            return;
        }
        let flip = if self.burst_bad {
            self.cfg.burst.bad_to_good
        } else {
            self.cfg.burst.good_to_bad
        };
        if flip > 0.0 && self.burst_rng.gen_bool(flip) {
            self.burst_bad = !self.burst_bad;
        }
    }

    /// Whether the message whose transport decision is `key` survives:
    /// the burst channel's bad state eats it with a keyed
    /// [`BurstConfig::bad_loss`] coin, and the independent drop coin may
    /// lose it anyway.
    pub(crate) fn delivers(&self, key: u64) -> bool {
        let eaten = self.burst_bad && coin(derive_seed(key, BURST_LOSS), self.cfg.burst.bad_loss);
        !eaten && !coin(key, self.cfg.drop_probability)
    }

    /// Whether an acknowledgment from `dest` reaches its steward on this
    /// attempt: never for an ack withholder or a coalition member (the
    /// coalition withholds acks to manufacture phantom drops), and
    /// otherwise lost by the keyed coin `key`, so each attempt's ack (its
    /// own key) re-rolls the loss.
    pub fn ack_arrives(&self, adversaries: &AdversarySets, dest: usize, key: u64) -> bool {
        !adversaries.is_ack_withholder(dest)
            && !adversaries.is_coalition(dest)
            && !coin(key, self.cfg.ack_drop_probability)
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(cfg: FaultConfig, seed: u64) -> FaultPlan {
        FaultPlan::new(cfg, seed, 50, SimDuration::from_mins(30)).unwrap()
    }

    /// The `i`th transport decision of an episode seeded `seed`.
    fn decision(seed: u64, i: u64) -> u64 {
        key(seed, 0, &[i])
    }

    #[test]
    fn transparent_plan_changes_nothing() {
        let mut p =
            FaultPlan::new(FaultConfig::default(), 0, 10, SimDuration::from_mins(30)).unwrap();
        for s in 0..100 {
            p.step_burst();
            assert!(p.delivers(decision(0, s)));
            assert!(p.ack_arrives(&AdversarySets::none(), 1, decision(1, s)));
        }
        for h in 0..10 {
            assert!(p.host_up(h, SimTime::from_secs(17)));
            assert_eq!(p.outage(h), None);
        }
    }

    #[test]
    fn drop_probability_is_respected() {
        let cfg = FaultConfig { drop_probability: 0.3, ..Default::default() };
        let p = plan(cfg, 1);
        let drops = (0..10_000).filter(|&i| !p.delivers(decision(1, i))).count();
        let frac = drops as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.02, "drop fraction {frac}");
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
            churn: ChurnConfig { crash_fraction: 0.3, ..Default::default() },
            burst: BurstConfig { good_to_bad: 0.1, bad_to_good: 0.3, bad_loss: 0.8 },
            ..Default::default()
        };
        let run = |seed: u64| {
            let mut p = plan(cfg, seed);
            let outages: Vec<_> = (0..50).map(|h| p.outage(h)).collect();
            let fates: Vec<bool> = (0..5_000)
                .map(|i| {
                    p.step_burst();
                    p.delivers(decision(seed, i))
                })
                .collect();
            (outages, fates)
        };
        let (outages, fates) = run(99);
        assert_eq!((outages.clone(), fates.clone()), run(99));
        // The plan actually perturbed something: drops and churn windows.
        assert!(fates.iter().any(|&d| !d), "some drops");
        assert!(outages.iter().any(Option::is_some), "some churn");
        // A different seed produces a different plan.
        let (other_outages, other_fates) = run(100);
        assert_ne!(outages, other_outages);
        assert_ne!(fates, other_fates);
    }

    #[test]
    fn byzantine_roles_shape_acks_and_snapshots() {
        let cfg = FaultConfig {
            ack_drop_probability: 0.5,
            delayer_shift: SimDuration::from_secs(200),
            replay_age: SimDuration::from_secs(1_000),
            ..Default::default()
        };
        let p = plan(cfg, 5);
        let mut adv = AdversarySets::none();
        adv.ack_withholders.insert(3);
        adv.probe_delayers.insert(4);
        adv.stale_replayers.insert(5);

        // Withholders never ack; honest hosts ack at 1 − ack_drop.
        assert!((0..100).all(|i| !p.ack_arrives(&adv, 3, decision(5, i))));
        let acked = (0..2_000).filter(|&i| p.ack_arrives(&adv, 0, decision(5, i))).count();
        let frac = acked as f64 / 2_000.0;
        assert!((frac - 0.5).abs() < 0.04, "ack fraction {frac}");

        let t = SimTime::from_secs(2_000);
        assert_eq!(p.snapshot_time(&adv, 0, t), t);
        assert_eq!(p.snapshot_time(&adv, 4, t), SimTime::from_secs(1_800));
        assert_eq!(p.snapshot_time(&adv, 5, t), SimTime::from_secs(1_000));
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

        let p = plan(cfg, 9);
        // Withholding wins regardless of the other roles, whatever the coin.
        for i in 0..100 {
            assert!(!p.ack_arrives(&adv, 1, decision(9, i)));
            assert!(!p.ack_arrives(&adv, 4, decision(9, i)));
        }
        // Delayer and replayer roles do not withhold acks: their ack
        // behavior is plain transport loss.
        let acked = (0..2_000).filter(|&i| p.ack_arrives(&adv, 3, decision(9, i))).count();
        let frac = acked as f64 / 2_000.0;
        assert!((frac - 0.7).abs() < 0.04, "ack fraction {frac}");
        // For snapshots, the stale-replay role dominates the delay role.
        let t = SimTime::from_secs(2_000);
        assert_eq!(p.snapshot_time(&adv, 4, t), t.saturating_sub(p.cfg.replay_age));
    }

    #[test]
    fn transport_delivers_draws_at_the_drop_rate() {
        let cfg = FaultConfig { drop_probability: 0.25, ..Default::default() };
        let p = plan(cfg, 10);
        let through = (0..4_000).filter(|&i| p.delivers(decision(10, i))).count();
        let frac = through as f64 / 4_000.0;
        assert!((frac - 0.75).abs() < 0.03, "delivery fraction {frac}");
        // A decision reads only its own key: asking others first, or
        // asking it twice, changes no answer.
        let fresh = plan(cfg, 10);
        let same = |i| fresh.delivers(decision(10, i)) == p.delivers(decision(10, i));
        assert!((0..4_000).rev().all(same));
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
            .map(|i| {
                p.step_burst();
                p.delivers(decision(11, i))
            })
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
        // Reading the channel does not step it: without a step, every
        // decision sees the same state.
        let bad = p.burst_bad;
        assert!((0..1_000).all(|i| p.delivers(decision(12, i)) != bad));
    }

    #[test]
    fn disabled_burst_consumes_no_rng() {
        // Identical plans except one carries a (disabled) burst config:
        // stepping it changes nothing, so every answer agrees.
        let base = FaultConfig { drop_probability: 0.2, ..Default::default() };
        let with_burst = FaultConfig {
            burst: BurstConfig { good_to_bad: 0.0, bad_to_good: 0.3, bad_loss: 0.9 },
            ..base
        };
        let a = plan(base, 12);
        let mut b = plan(with_burst, 12);
        for i in 0..2_000 {
            b.step_burst();
            assert_eq!(a.delivers(decision(12, i)), b.delivers(decision(12, i)), "message {i}");
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
    fn invalid_configs_are_typed_errors() {
        let bad = |cfg: FaultConfig| FaultPlan::new(cfg, 0, 4, SimDuration::from_mins(1)).unwrap_err();
        let (secs, default) = (SimDuration::from_secs, FaultConfig::default());
        let churn = ChurnConfig { crash_fraction: 0.1, mean_outage: secs(5), min_outage: secs(10) };
        assert_eq!(bad(FaultConfig { churn, ..default }), FaultError::BadOutage);
        assert!(FaultError::BadOutage.to_string().contains("outage"));
        let burst = BurstConfig { good_to_bad: 0.2, bad_to_good: -0.1, bad_loss: 0.5 };
        let storm = StormConfig { fraction: 0.1, start_frac: 1.2, ..Default::default() };
        for (cfg, knob, value) in [
            (FaultConfig { drop_probability: 1.5, ..default }, "faults.drop_probability", 1.5),
            (FaultConfig { burst, ..default }, "faults.burst.bad_to_good", -0.1),
            (FaultConfig { storm, ..default }, "faults.storm.start_frac", 1.2),
        ] {
            assert_eq!(bad(cfg), FaultError::BadProbability { knob, value });
        }
    }
}
