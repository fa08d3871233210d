//! Failing cases and the greedy shrinker that minimises them.

use concilium_obs::{CausalIndex, EntityRef, Trace};
use concilium_types::SimDuration;

use super::{run_episode, EpisodeConfig, EpisodeOptions, EpisodeReport};
use crate::faults::{BurstConfig, StormConfig};
use crate::invariants::Violation;
use crate::SimWorld;

/// A seed + configuration pair that violated an invariant.
#[derive(Clone, Debug)]
pub struct FailingCase {
    /// Grid-arm name (suffixed `-shrunk` after minimisation).
    pub name: String,
    /// The failing configuration.
    pub config: EpisodeConfig,
    /// The seed that reproduces it.
    pub seed: u64,
    /// What broke.
    pub violation: Violation,
    /// Trace hash of the violating run.
    pub trace_hash: String,
    /// Structured trace of the violating run — the causal tail that led
    /// to the violation, rendered by [`FailingCase::reproducer`].
    pub trace: Trace,
}

impl FailingCase {
    /// The failing case a violating `report` describes (`None` when the
    /// episode passed) — the one place a report becomes a case.
    pub(crate) fn from_report(
        name: &str,
        config: &EpisodeConfig,
        seed: u64,
        report: &EpisodeReport,
    ) -> Option<FailingCase> {
        let violation = report.violation.clone()?;
        Some(FailingCase {
            name: name.to_string(),
            config: config.clone(),
            seed,
            violation,
            trace_hash: report.trace_hash.clone(),
            trace: report.trace.clone(),
        })
    }

    /// A copy-pasteable reproducer: the violation, the trace hash, the
    /// configuration literal with its seed, the virtual-time event trace
    /// leading up to the violation, and the causal chain for the violated
    /// entity (not just the ring tail — the cause→effect path from the
    /// entity's originating send/admit to its last event).
    pub fn reproducer(&self) -> String {
        let FailingCase { name, violation, trace_hash, .. } = self;
        let mut out = format!(
            "// {name}: {violation}\n// trace: {trace_hash}\n{}",
            self.config.to_literal(self.seed)
        );
        if !self.trace.is_empty() {
            out.push_str("\n\n// events leading to the violation:\n");
            out.push_str(&self.trace.render());
            if let Some((entity, chain)) = self.causal_tail() {
                out.push_str(&format!("\n\n// causal chain for {entity}:\n"));
                out.push_str(&chain);
            }
        }
        out
    }

    /// The violated entity and its rendered causal chain, rebuilt from
    /// the ring-buffered trace. When the violation does not name an
    /// entity, the last entity-bearing event's first key stands in. A
    /// ring that evicted the chain's root is tolerated: the chain simply
    /// starts at the oldest surviving link.
    fn causal_tail(&self) -> Option<(EntityRef, String)> {
        let FailingCase { violation, trace, .. } = self;
        let entity = violation.entity.or_else(|| {
            let mut keys = Vec::new();
            let mut last = None;
            for traced in trace.events() {
                concilium_obs::entities(&traced.event, &mut keys);
                if let Some(&first) = keys.first() {
                    last = Some(first);
                }
            }
            last
        })?;
        let index = CausalIndex::from_events(trace.events());
        let &last = index.timeline(&entity).last()?;
        let mut rendered = String::new();
        for i in index.chain(last) {
            rendered.push_str("// ");
            rendered.push_str(&index.events()[i].render());
            rendered.push('\n');
        }
        Some((entity, rendered))
    }
}

/// Greedily minimises a failing configuration: an edit is kept only if
/// re-running the episode reproduces a violation of the same
/// [`crate::InvariantKind`]. Edits try, in order, to drop whole adversary
/// roles, zero transport knobs, remove churn, halve surviving magnitudes
/// and the churn window, and shrink the message workload.
pub fn shrink(world: &SimWorld, case: &FailingCase, opts: &EpisodeOptions) -> FailingCase {
    let _span = concilium_obs::span("dst.shrink");
    let kind = case.violation.kind;
    let seed = case.seed;
    let mut best = case.config.clone();
    loop {
        let mut improved = false;
        for cand in shrink_candidates(&best) {
            let reproduces = run_episode(world, &cand, seed, opts)
                .violation
                .is_some_and(|v| v.kind == kind);
            if reproduces {
                best = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    let report = run_episode(world, &best, seed, opts);
    FailingCase::from_report(&format!("{}-shrunk", case.name), &best, seed, &report)
        .expect("shrinking only accepts reproducing configurations")
}

pub(crate) fn shrink_candidates(cfg: &EpisodeConfig) -> Vec<EpisodeConfig> {
    let mut out: Vec<EpisodeConfig> = Vec::new();
    let mut push = |edit: &dyn Fn(&mut EpisodeConfig)| {
        let mut c = cfg.clone();
        edit(&mut c);
        out.push(c);
    };
    // Drop whole adversary roles.
    if cfg.dropper_fraction > 0.0 {
        push(&|c| c.dropper_fraction = 0.0);
    }
    if cfg.colluder_fraction > 0.0 {
        push(&|c| c.colluder_fraction = 0.0);
    }
    if cfg.withholder_fraction > 0.0 {
        push(&|c| c.withholder_fraction = 0.0);
    }
    if cfg.delayer_fraction > 0.0 {
        push(&|c| c.delayer_fraction = 0.0);
    }
    if cfg.replayer_fraction > 0.0 {
        push(&|c| c.replayer_fraction = 0.0);
    }
    if cfg.coalition_fraction > 0.0 {
        push(&|c| c.coalition_fraction = 0.0);
    }
    if cfg.adaptive_fraction > 0.0 {
        push(&|c| c.adaptive_fraction = 0.0);
    }
    // Zero transport knobs outright.
    if cfg.faults.drop_probability > 0.0 {
        push(&|c| c.faults.drop_probability = 0.0);
    }
    if cfg.faults.ack_drop_probability > 0.0 {
        push(&|c| c.faults.ack_drop_probability = 0.0);
    }
    if cfg.faults.duplicate_probability > 0.0 {
        push(&|c| c.faults.duplicate_probability = 0.0);
    }
    if cfg.faults.reorder_probability > 0.0 {
        push(&|c| c.faults.reorder_probability = 0.0);
    }
    if cfg.faults.extra_latency_max > SimDuration::ZERO {
        push(&|c| c.faults.extra_latency_max = SimDuration::ZERO);
    }
    // Remove churn, the burst channel, and the churn storm.
    if cfg.faults.churn.crash_fraction > 0.0 {
        push(&|c| c.faults.churn.crash_fraction = 0.0);
    }
    if cfg.faults.burst.enabled() {
        push(&|c| c.faults.burst = BurstConfig::default());
    }
    if cfg.faults.storm.fraction > 0.0 {
        push(&|c| c.faults.storm = StormConfig::default());
    }
    // Halve surviving magnitudes (flooring tiny values to zero).
    let halved = |v: f64| if v / 2.0 < 1e-3 { 0.0 } else { v / 2.0 };
    for knob in 0..8 {
        let value = match knob {
            0 => cfg.faults.drop_probability,
            1 => cfg.faults.ack_drop_probability,
            2 => cfg.dropper_fraction,
            3 => cfg.withholder_fraction,
            4 => cfg.delayer_fraction,
            5 => cfg.replayer_fraction,
            6 => cfg.coalition_fraction,
            _ => cfg.adaptive_fraction,
        };
        if value > 0.0 {
            push(&move |c| {
                let slot = match knob {
                    0 => &mut c.faults.drop_probability,
                    1 => &mut c.faults.ack_drop_probability,
                    2 => &mut c.dropper_fraction,
                    3 => &mut c.withholder_fraction,
                    4 => &mut c.delayer_fraction,
                    5 => &mut c.replayer_fraction,
                    6 => &mut c.coalition_fraction,
                    _ => &mut c.adaptive_fraction,
                };
                *slot = halved(*slot);
            });
        }
    }
    // Soften the burst channel without removing it.
    if cfg.faults.burst.enabled() && cfg.faults.burst.bad_loss > 1e-3 {
        push(&|c| c.faults.burst.bad_loss = halved(c.faults.burst.bad_loss));
    }
    // Binary-search the churn window toward the minimum outage.
    let churn = &cfg.faults.churn;
    if churn.crash_fraction > 0.0 && churn.mean_outage > churn.min_outage {
        let target = SimDuration::from_micros(
            (churn.mean_outage.as_micros() / 2).max(churn.min_outage.as_micros()),
        );
        push(&move |c| c.faults.churn.mean_outage = target);
    }
    // Shrink the workload.
    if cfg.flows > 1 {
        push(&|c| c.flows = (c.flows / 2).max(1));
    }
    if cfg.messages_per_flow > 1 {
        push(&|c| c.messages_per_flow = (c.messages_per_flow / 2).max(1));
    }
    out
}
