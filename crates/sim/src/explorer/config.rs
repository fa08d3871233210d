//! The fault grid: [`EpisodeConfig`], its seven presets, and the
//! copy-pasteable literal corpus entries and reproducers are written in.

use concilium_types::SimDuration;

use crate::faults::{BurstConfig, StormConfig};
use crate::{ChurnConfig, FaultConfig};

/// One arm of the fault grid: a [`FaultConfig`] for the transport plus
/// adversary-role fractions and the message workload.
#[derive(Clone, Debug)]
pub struct EpisodeConfig {
    /// Transport and churn fault knobs, passed to [`crate::FaultPlan::new`].
    pub faults: FaultConfig,
    /// Fraction of hosts that silently drop forwarded messages.
    pub dropper_fraction: f64,
    /// Fraction of hosts that lie in probe snapshots to frame innocents.
    pub colluder_fraction: f64,
    /// Fraction of hosts that withhold acknowledgments.
    pub withholder_fraction: f64,
    /// Fraction of hosts whose snapshots arrive stale by the delayer shift.
    pub delayer_fraction: f64,
    /// Fraction of hosts that replay very old snapshots.
    pub replayer_fraction: f64,
    /// Fraction of hosts in a colluding accuser coalition: they withhold
    /// acknowledgments *and* flip §4.3 probe evidence to shield members
    /// and frame non-members.
    pub coalition_fraction: f64,
    /// Fraction of hosts that drop forwarded messages only while no
    /// routing peer has probed near the current virtual time
    /// (see [`crate::ADAPTIVE_GUARD`]).
    pub adaptive_fraction: f64,
    /// Number of (source, destination) flows to drive.
    pub flows: usize,
    /// Messages sent per flow, spread across the run.
    pub messages_per_flow: usize,
}

impl Default for EpisodeConfig {
    fn default() -> Self {
        EpisodeConfig {
            faults: FaultConfig::default(),
            dropper_fraction: 0.0,
            colluder_fraction: 0.0,
            withholder_fraction: 0.0,
            delayer_fraction: 0.0,
            replayer_fraction: 0.0,
            coalition_fraction: 0.0,
            adaptive_fraction: 0.0,
            flows: 6,
            messages_per_flow: 40,
        }
    }
}

impl EpisodeConfig {
    /// No injected faults at all: only the world's ambient link failures.
    pub fn transparent() -> Self {
        EpisodeConfig::default()
    }

    /// A lossy, jittery transport with no Byzantine hosts.
    pub fn lossy() -> Self {
        EpisodeConfig {
            faults: FaultConfig {
                drop_probability: 0.15,
                ack_drop_probability: 0.15,
                duplicate_probability: 0.05,
                reorder_probability: 0.05,
                extra_latency_max: SimDuration::from_millis(50),
                ..FaultConfig::default()
            },
            ..EpisodeConfig::default()
        }
    }

    /// Heavy crash/restart churn with a clean transport.
    pub fn churning() -> Self {
        EpisodeConfig {
            faults: FaultConfig {
                churn: ChurnConfig {
                    crash_fraction: 0.25,
                    mean_outage: SimDuration::from_secs(90),
                    min_outage: SimDuration::from_secs(10),
                },
                ..FaultConfig::default()
            },
            ..EpisodeConfig::default()
        }
    }

    /// A mixed Byzantine population over a mildly lossy transport.
    pub fn byzantine() -> Self {
        EpisodeConfig {
            faults: FaultConfig {
                drop_probability: 0.05,
                ack_drop_probability: 0.05,
                ..FaultConfig::default()
            },
            dropper_fraction: 0.2,
            withholder_fraction: 0.1,
            delayer_fraction: 0.1,
            replayer_fraction: 0.1,
            ..EpisodeConfig::default()
        }
    }

    /// A colluding accuser coalition riding an eclipse-style churn storm:
    /// a shared outage window takes a third of the crashing population
    /// down together while coalition members withhold acks and flip
    /// evidence for each other.
    pub fn coalition_storm() -> Self {
        EpisodeConfig {
            faults: FaultConfig {
                churn: ChurnConfig {
                    crash_fraction: 0.3,
                    mean_outage: SimDuration::from_secs(120),
                    min_outage: SimDuration::from_secs(20),
                },
                storm: StormConfig {
                    fraction: 0.5,
                    start_frac: 0.4,
                    duration: SimDuration::from_secs(120),
                },
                ..FaultConfig::default()
            },
            coalition_fraction: 0.2,
            ..EpisodeConfig::default()
        }
    }

    /// Adaptive adversaries that forward faithfully whenever a routing
    /// peer has probed nearby in virtual time and drop otherwise. Inert
    /// on densely probed worlds by design — pair with a sparse-probe
    /// world (see `fuzz::bottleneck_world`) to expose the behaviour.
    pub fn adaptive() -> Self {
        EpisodeConfig {
            adaptive_fraction: 0.2,
            ..EpisodeConfig::default()
        }
    }

    /// Gilbert–Elliott bursty loss: a clean channel that occasionally
    /// slips into a bad state eating ~80% of traffic for a handful of
    /// decisions at a time.
    pub fn bursty() -> Self {
        EpisodeConfig {
            faults: FaultConfig {
                burst: BurstConfig {
                    good_to_bad: 0.05,
                    bad_to_good: 0.2,
                    bad_loss: 0.8,
                },
                ..FaultConfig::default()
            },
            ..EpisodeConfig::default()
        }
    }

    /// The standard four-arm sweep grid used by the acceptance suite and
    /// the CI `dst-sweep` driver.
    pub fn standard_grid() -> Vec<(&'static str, EpisodeConfig)> {
        vec![
            ("transparent", EpisodeConfig::transparent()),
            ("lossy", EpisodeConfig::lossy()),
            ("churning", EpisodeConfig::churning()),
            ("byzantine", EpisodeConfig::byzantine()),
        ]
    }

    /// The standard grid plus the fuzzer's extended adversary families:
    /// coalition-plus-storm, adaptive droppers, and bursty loss.
    pub fn extended_grid() -> Vec<(&'static str, EpisodeConfig)> {
        let mut grid = EpisodeConfig::standard_grid();
        grid.push(("coalition-storm", EpisodeConfig::coalition_storm()));
        grid.push(("adaptive", EpisodeConfig::adaptive()));
        grid.push(("bursty", EpisodeConfig::bursty()));
        grid
    }

    /// Whether every lost message is explained by the network alone:
    /// no plan-level transport loss of messages or acknowledgments.
    /// Duplication, reordering, latency, and churn do not lose messages,
    /// so they keep a configuration network-only.
    ///
    /// The no-false-blame invariant is enforced exactly in this regime.
    /// Under ambient transport loss, Concilium's §3.4 evidence can
    /// legitimately convict an honest forwarder (the paper's false-positive
    /// rate, bounded by the m-of-w window) — those standings are counted
    /// in [`super::EpisodeStats::false_standings`] instead.
    ///
    /// Bursty (Gilbert–Elliott) loss is transport loss, and hosts that
    /// lie in probe snapshots — plain colluders and accuser coalitions
    /// alike — flip the very evidence the no-false-blame check relies on
    /// (§4.3's documented attack, not a bug in the checker), so all
    /// three disqualify a configuration from strict enforcement.
    pub fn network_only(&self) -> bool {
        self.faults.drop_probability == 0.0
            && self.faults.ack_drop_probability == 0.0
            && !(self.faults.burst.enabled() && self.faults.burst.bad_loss > 0.0)
            && self.colluder_fraction == 0.0
            && self.coalition_fraction == 0.0
    }

    /// Number of fault dimensions that are active (non-zero).
    pub fn active_dimensions(&self) -> usize {
        let f = &self.faults;
        [
            f.drop_probability > 0.0,
            f.ack_drop_probability > 0.0,
            f.duplicate_probability > 0.0,
            f.reorder_probability > 0.0,
            f.extra_latency_max > SimDuration::ZERO,
            f.churn.crash_fraction > 0.0,
            f.burst.enabled(),
            f.storm.fraction > 0.0,
            self.dropper_fraction > 0.0,
            self.colluder_fraction > 0.0,
            self.withholder_fraction > 0.0,
            self.delayer_fraction > 0.0,
            self.replayer_fraction > 0.0,
            self.coalition_fraction > 0.0,
            self.adaptive_fraction > 0.0,
        ]
        .iter()
        .filter(|&&active| active)
        .count()
    }

    /// Renders the configuration as a copy-pasteable Rust literal with the
    /// seed that reproduces the episode.
    pub fn to_literal(&self, seed: u64) -> String {
        let f = &self.faults;
        format!(
            "// seed: {seed}\n\
             EpisodeConfig {{\n\
             \x20   faults: FaultConfig {{\n\
             \x20       drop_probability: {:?},\n\
             \x20       ack_drop_probability: {:?},\n\
             \x20       duplicate_probability: {:?},\n\
             \x20       reorder_probability: {:?},\n\
             \x20       extra_latency_max: SimDuration::from_micros({}),\n\
             \x20       reorder_delay: SimDuration::from_micros({}),\n\
             \x20       delayer_shift: SimDuration::from_micros({}),\n\
             \x20       replay_age: SimDuration::from_micros({}),\n\
             \x20       churn: ChurnConfig {{\n\
             \x20           crash_fraction: {:?},\n\
             \x20           mean_outage: SimDuration::from_micros({}),\n\
             \x20           min_outage: SimDuration::from_micros({}),\n\
             \x20       }},\n\
             \x20       burst: BurstConfig {{\n\
             \x20           good_to_bad: {:?},\n\
             \x20           bad_to_good: {:?},\n\
             \x20           bad_loss: {:?},\n\
             \x20       }},\n\
             \x20       storm: StormConfig {{\n\
             \x20           fraction: {:?},\n\
             \x20           start_frac: {:?},\n\
             \x20           duration: SimDuration::from_micros({}),\n\
             \x20       }},\n\
             \x20   }},\n\
             \x20   dropper_fraction: {:?},\n\
             \x20   colluder_fraction: {:?},\n\
             \x20   withholder_fraction: {:?},\n\
             \x20   delayer_fraction: {:?},\n\
             \x20   replayer_fraction: {:?},\n\
             \x20   coalition_fraction: {:?},\n\
             \x20   adaptive_fraction: {:?},\n\
             \x20   flows: {},\n\
             \x20   messages_per_flow: {},\n\
             }}",
            f.drop_probability,
            f.ack_drop_probability,
            f.duplicate_probability,
            f.reorder_probability,
            f.extra_latency_max.as_micros(),
            f.reorder_delay.as_micros(),
            f.delayer_shift.as_micros(),
            f.replay_age.as_micros(),
            f.churn.crash_fraction,
            f.churn.mean_outage.as_micros(),
            f.churn.min_outage.as_micros(),
            f.burst.good_to_bad,
            f.burst.bad_to_good,
            f.burst.bad_loss,
            f.storm.fraction,
            f.storm.start_frac,
            f.storm.duration.as_micros(),
            self.dropper_fraction,
            self.colluder_fraction,
            self.withholder_fraction,
            self.delayer_fraction,
            self.replayer_fraction,
            self.coalition_fraction,
            self.adaptive_fraction,
            self.flows,
            self.messages_per_flow,
        )
    }

    /// Parses a [`EpisodeConfig::to_literal`] rendering (plus its
    /// `// seed:` header) back into a configuration and seed.
    ///
    /// The parser is line-based and keyed on field names, so it tolerates
    /// surrounding comment lines (corpus headers) and indentation changes,
    /// but rejects unknown fields — a corpus entry written by a newer
    /// serializer fails loudly instead of replaying the wrong scenario.
    pub fn parse_literal(text: &str) -> Result<(EpisodeConfig, u64), String> {
        fn f64v(key: &str, v: &str) -> Result<f64, String> {
            v.parse::<f64>().map_err(|e| format!("{key}: {e}"))
        }
        fn usizev(key: &str, v: &str) -> Result<usize, String> {
            v.parse::<usize>().map_err(|e| format!("{key}: {e}"))
        }
        fn durv(key: &str, v: &str) -> Result<SimDuration, String> {
            let inner = v
                .strip_prefix("SimDuration::from_micros(")
                .and_then(|s| s.strip_suffix(')'))
                .ok_or_else(|| format!("{key}: expected SimDuration::from_micros(..), got {v}"))?;
            Ok(SimDuration::from_micros(
                inner.parse().map_err(|e| format!("{key}: {e}"))?,
            ))
        }

        let mut cfg = EpisodeConfig::default();
        let mut seed: Option<u64> = None;
        let mut depth = 0usize;
        for raw in text.lines() {
            let line = raw.trim();
            if let Some(rest) = line.strip_prefix("// seed:") {
                seed = Some(rest.trim().parse().map_err(|e| format!("seed: {e}"))?);
                continue;
            }
            if line.starts_with("//") || line.is_empty() {
                continue;
            }
            // Field lines only count inside the `EpisodeConfig` literal;
            // anything before it (corpus headers) or after it (a
            // reproducer's rendered event trace) is ignored.
            if depth == 0 {
                if line.starts_with("EpisodeConfig") && line.ends_with('{') {
                    depth = 1;
                }
                continue;
            }
            depth = (depth + line.matches('{').count())
                .saturating_sub(line.matches('}').count());
            let Some((key, value)) = line.split_once(':') else {
                continue; // closing braces
            };
            let key = key.trim();
            let value = value.trim().trim_end_matches(',');
            if value.ends_with('{') {
                continue; // struct openers like `faults: FaultConfig {`
            }
            let f = &mut cfg.faults;
            match key {
                "drop_probability" => f.drop_probability = f64v(key, value)?,
                "ack_drop_probability" => f.ack_drop_probability = f64v(key, value)?,
                "duplicate_probability" => f.duplicate_probability = f64v(key, value)?,
                "reorder_probability" => f.reorder_probability = f64v(key, value)?,
                "extra_latency_max" => f.extra_latency_max = durv(key, value)?,
                "reorder_delay" => f.reorder_delay = durv(key, value)?,
                "delayer_shift" => f.delayer_shift = durv(key, value)?,
                "replay_age" => f.replay_age = durv(key, value)?,
                "crash_fraction" => f.churn.crash_fraction = f64v(key, value)?,
                "mean_outage" => f.churn.mean_outage = durv(key, value)?,
                "min_outage" => f.churn.min_outage = durv(key, value)?,
                "good_to_bad" => f.burst.good_to_bad = f64v(key, value)?,
                "bad_to_good" => f.burst.bad_to_good = f64v(key, value)?,
                "bad_loss" => f.burst.bad_loss = f64v(key, value)?,
                "fraction" => f.storm.fraction = f64v(key, value)?,
                "start_frac" => f.storm.start_frac = f64v(key, value)?,
                "duration" => f.storm.duration = durv(key, value)?,
                "dropper_fraction" => cfg.dropper_fraction = f64v(key, value)?,
                "colluder_fraction" => cfg.colluder_fraction = f64v(key, value)?,
                "withholder_fraction" => cfg.withholder_fraction = f64v(key, value)?,
                "delayer_fraction" => cfg.delayer_fraction = f64v(key, value)?,
                "replayer_fraction" => cfg.replayer_fraction = f64v(key, value)?,
                "coalition_fraction" => cfg.coalition_fraction = f64v(key, value)?,
                "adaptive_fraction" => cfg.adaptive_fraction = f64v(key, value)?,
                "flows" => cfg.flows = usizev(key, value)?,
                "messages_per_flow" => cfg.messages_per_flow = usizev(key, value)?,
                other => return Err(format!("unknown field `{other}`")),
            }
        }
        let seed = seed.ok_or_else(|| "missing `// seed:` header".to_string())?;
        Ok((cfg, seed))
    }
}
