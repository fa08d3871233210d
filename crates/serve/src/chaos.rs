//! Seeded crash/restart chaos: the serve arm of the DST explorer.
//!
//! A chaos episode runs the same seeded workload twice over the same
//! configuration: once uninterrupted, once under a seeded kill/recover
//! schedule ([`chaos_plan`]). The whole-system claim is that the two
//! runs are indistinguishable at the journal: same journal digest (the
//! canonical trace digest — every mutation flows through it) and same
//! canonical state digest. Any mismatch is a
//! [`InvariantKind::RecoveryDivergence`] violation; report-conservation
//! is checked on top. Sweeps fan episodes across seeds with
//! [`concilium_par::par_map`] and fold per-seed results into an
//! order-independent-free aggregate digest, so `--jobs 1` and
//! `--jobs N` must print the same hash.
//!
//! [`InvariantKind::RecoveryDivergence`]: concilium_sim::InvariantKind::RecoveryDivergence

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use concilium_par::{derive_seed, par_map};
use concilium_sim::{check_serve_conservation, InvariantKind, TraceHasher, Violation};
use concilium_types::SimTime;

use crate::daemon::PanicSite;
use crate::journal::SharedStore;
use crate::supervisor::{KillPoint, Supervisor};
use crate::workload::WorkloadSpec;
use crate::ServeConfig;

/// Derives the seeded kill schedule for one episode: between one and
/// `restart_budget` kills at distinct input indices, each with a random
/// crash site and (sometimes) torn garbage appended after the crash.
pub fn chaos_plan(cfg: &ServeConfig, n_inputs: u64, seed: u64) -> Vec<KillPoint> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A0_5C4A_05C4_A05C);
    if n_inputs < 4 || cfg.restart_budget == 0 {
        return Vec::new();
    }
    let n_kills = 1 + (rng.next_u64() as usize) % cfg.restart_budget;
    let mut inputs: Vec<u64> = Vec::new();
    while inputs.len() < n_kills {
        // Keep kills off input 0 so every episode commits something.
        let candidate = 1 + rng.next_u64() % (n_inputs - 1);
        if !inputs.contains(&candidate) {
            inputs.push(candidate);
        }
    }
    inputs.sort_unstable();
    inputs
        .into_iter()
        .map(|input| {
            let site = if rng.next_u64() % 2 == 0 {
                PanicSite::BeforeInput
            } else {
                PanicSite::AfterAdmission
            };
            let torn = (rng.next_u64() % 24) as usize;
            let mut torn_garbage = vec![0u8; torn];
            for b in &mut torn_garbage {
                *b = rng.next_u64() as u8;
            }
            KillPoint { input, site, torn_garbage }
        })
        .collect()
}

/// The outcome of one chaos episode.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// The episode seed.
    pub seed: u64,
    /// Kills injected.
    pub kills: usize,
    /// Restarts the supervisor performed.
    pub incidents: u64,
    /// Reports offered / admitted / shed / completed in the chaos run.
    pub offered: u64,
    /// Reports admitted.
    pub admitted: u64,
    /// Reports shed (journaled + degraded).
    pub shed: u64,
    /// Reports completed.
    pub completed: u64,
    /// The chaos run's journal digest (== baseline's when healthy).
    pub journal_digest: String,
    /// Invariant violations (empty on a healthy episode).
    pub violations: Vec<Violation>,
}

/// Runs one chaos episode: uninterrupted baseline vs supervised
/// kill/recover run, digest comparison, conservation checks.
pub(crate) fn chaos_episode(cfg: &ServeConfig, spec: &WorkloadSpec, seed: u64) -> ChaosOutcome {
    let inputs = spec.generate(cfg, seed);
    let kills = chaos_plan(cfg, inputs.len() as u64, seed);

    let baseline = Supervisor::new(cfg.clone(), SharedStore::new(), Vec::new()).run(&inputs);
    let chaos =
        Supervisor::new(cfg.clone(), SharedStore::new(), kills.clone()).run(&inputs);

    let mut violations = Vec::new();
    let end = SimTime::from_micros(
        inputs.last().map_or(0, |r| r.arrival.as_micros()),
    );
    if chaos.journal_digest != baseline.journal_digest {
        violations.push(Violation {
            kind: InvariantKind::RecoveryDivergence,
            at: end,
            entity: None,
            detail: format!(
                "journal digest {} after {} kills, baseline {}",
                chaos.journal_digest, chaos.incidents, baseline.journal_digest
            ),
        });
    }
    if chaos.state_digest != baseline.state_digest {
        violations.push(Violation {
            kind: InvariantKind::RecoveryDivergence,
            at: end,
            entity: None,
            detail: "canonical state digest diverged from uninterrupted baseline".into(),
        });
    }
    let offered = inputs.len() as u64;
    let shed = chaos.counters.shed + chaos.degraded_shed;
    if let Some(v) = check_serve_conservation(
        offered,
        chaos.counters.admitted,
        shed,
        chaos.counters.completed,
        chaos.queued,
        chaos.in_flight,
        end,
    ) {
        violations.push(v);
    }

    ChaosOutcome {
        seed,
        kills: kills.len(),
        incidents: chaos.incidents,
        offered,
        admitted: chaos.counters.admitted,
        shed,
        completed: chaos.counters.completed,
        journal_digest: chaos.journal_digest,
        violations,
    }
}

/// Aggregate of a multi-seed chaos sweep.
#[derive(Clone, Debug)]
pub struct ChaosSweepReport {
    /// Per-seed outcomes, in seed-index order.
    pub outcomes: Vec<ChaosOutcome>,
    /// Chained digest over every outcome, independent of `--jobs`.
    pub aggregate_digest: String,
    /// Total violations across the sweep.
    pub total_violations: usize,
    /// Total injected kills across the sweep.
    pub total_kills: usize,
}

/// Sweeps `n_seeds` chaos episodes derived from `master_seed`, fanned
/// across `jobs` workers. The aggregate digest folds outcomes in seed
/// order, so it is identical at any worker count.
pub fn chaos_sweep(
    cfg: &ServeConfig,
    spec: &WorkloadSpec,
    master_seed: u64,
    n_seeds: usize,
    jobs: usize,
) -> ChaosSweepReport {
    let indices: Vec<u64> = (0..n_seeds as u64).collect();
    let outcomes = par_map(jobs, &indices, |_, &i| {
        chaos_episode(cfg, spec, derive_seed(master_seed, i))
    });
    let mut hasher = TraceHasher::new();
    for o in &outcomes {
        let digest_words: Vec<u64> = o
            .journal_digest
            .as_bytes()
            .chunks(8)
            .map(|c| {
                let mut w = [0u8; 8];
                w[..c.len()].copy_from_slice(c);
                u64::from_le_bytes(w)
            })
            .collect();
        hasher.record("chaos-seed", &[o.seed, o.incidents, o.violations.len() as u64]);
        hasher.record("chaos-journal", &digest_words);
    }
    ChaosSweepReport {
        total_violations: outcomes.iter().map(|o| o.violations.len()).sum(),
        total_kills: outcomes.iter().map(|o| o.kills).sum(),
        aggregate_digest: hasher.hex(),
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> WorkloadSpec {
        WorkloadSpec { reports: 48, ..WorkloadSpec::default() }
    }

    #[test]
    fn chaos_plan_is_seeded_sorted_and_budget_bounded() {
        let cfg = ServeConfig::default();
        let a = chaos_plan(&cfg, 100, 5);
        let b = chaos_plan(&cfg, 100, 5);
        assert_eq!(a, b);
        assert!(!a.is_empty() && a.len() <= cfg.restart_budget);
        assert!(a.windows(2).all(|w| w[0].input < w[1].input));
        assert!(a.iter().all(|k| k.input >= 1 && k.input < 100));
        assert_ne!(chaos_plan(&cfg, 100, 6), a);
    }

    #[test]
    fn episodes_hold_the_recovery_invariants() {
        let cfg = ServeConfig::default();
        let spec = quick_spec();
        for seed in [1u64, 2, 3] {
            let o = chaos_episode(&cfg, &spec, seed);
            assert!(o.kills > 0, "seed {seed} injected no kills");
            assert_eq!(o.incidents, o.kills as u64);
            assert!(
                o.violations.is_empty(),
                "seed {seed} violated: {:?}",
                o.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn sweep_digest_is_identical_at_any_job_count() {
        let cfg = ServeConfig::default();
        let spec = quick_spec();
        let serial = chaos_sweep(&cfg, &spec, 77, 6, 1);
        let fanned = chaos_sweep(&cfg, &spec, 77, 6, 3);
        assert_eq!(serial.aggregate_digest, fanned.aggregate_digest);
        assert_eq!(serial.total_violations, 0);
        assert!(serial.total_kills >= 6, "every episode injects at least one kill");
    }
}
