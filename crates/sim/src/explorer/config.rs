//! The fault grid: [`EpisodeConfig`], its seven presets, and the
//! copy-pasteable literal corpus entries and reproducers are written in.

use std::fmt::{self, Write};
use std::ops::Range;

use concilium_types::SimDuration;

use self::Slot::{D, N, P};
use crate::faults::{BurstConfig, FaultError, StormConfig};
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
    pub(crate) fn transparent() -> Self {
        EpisodeConfig::default()
    }

    /// A lossy transport (15% message and 15% ack loss) with no Byzantine
    /// hosts.
    pub fn lossy() -> Self {
        EpisodeConfig {
            faults: FaultConfig {
                drop_probability: 0.15,
                ack_drop_probability: 0.15,
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
    pub(crate) fn coalition_storm() -> Self {
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
    pub(crate) fn adaptive() -> Self {
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
    /// Churn does not lose messages, so it keeps a configuration
    /// network-only.
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
    pub(crate) fn network_only(&self) -> bool {
        self.faults.drop_probability == 0.0
            && self.faults.ack_drop_probability == 0.0
            && !(self.faults.burst.enabled() && self.faults.burst.bad_loss > 0.0)
            && self.colluder_fraction == 0.0
            && self.coalition_fraction == 0.0
    }

    /// Number of fault dimensions that are active: the probabilities
    /// that are off by default (the transport losses, churn, the burst
    /// channel's entry, the storm and the seven roles) and non-zero here.
    pub fn active_dimensions(&self) -> usize {
        let (mut cfg, mut off) = (self.clone(), EpisodeConfig::default());
        cfg.knobs()
            .into_iter()
            .zip(off.knobs())
            .filter(|((_, v), (_, d))| matches!((v, d), (P(v), P(d)) if **d == 0.0 && **v > 0.0))
            .count()
    }

    /// Every knob with its literal path, in literal line order: the one
    /// statement of the grid's knobs. Rendering, parsing, [`Self::validate`],
    /// [`Self::active_dimensions`] and the role and transport passes of the
    /// shrinker and the fuzzer fold over it. The destructuring names every
    /// field, so a new one does not compile until it has a row.
    pub(crate) fn knobs(&mut self) -> [(&'static str, Slot<'_>); 22] {
        let EpisodeConfig {
            faults, dropper_fraction, colluder_fraction, withholder_fraction, delayer_fraction,
            replayer_fraction, coalition_fraction, adaptive_fraction, flows, messages_per_flow,
        } = self;
        let FaultConfig {
            drop_probability, ack_drop_probability, delayer_shift, replay_age, churn, burst, storm,
        } = faults;
        let ChurnConfig { crash_fraction, mean_outage, min_outage } = churn;
        let BurstConfig { good_to_bad, bad_to_good, bad_loss } = burst;
        let StormConfig { fraction, start_frac, duration } = storm;
        [
            ("faults.drop_probability", P(drop_probability)),
            ("faults.ack_drop_probability", P(ack_drop_probability)),
            ("faults.delayer_shift", D(delayer_shift)),
            ("faults.replay_age", D(replay_age)),
            ("faults.churn.crash_fraction", P(crash_fraction)),
            ("faults.churn.mean_outage", D(mean_outage)),
            ("faults.churn.min_outage", D(min_outage)),
            ("faults.burst.good_to_bad", P(good_to_bad)),
            ("faults.burst.bad_to_good", P(bad_to_good)),
            ("faults.burst.bad_loss", P(bad_loss)),
            ("faults.storm.fraction", P(fraction)),
            ("faults.storm.start_frac", P(start_frac)),
            ("faults.storm.duration", D(duration)),
            ("dropper_fraction", P(dropper_fraction)),
            ("colluder_fraction", P(colluder_fraction)),
            ("withholder_fraction", P(withholder_fraction)),
            ("delayer_fraction", P(delayer_fraction)),
            ("replayer_fraction", P(replayer_fraction)),
            ("coalition_fraction", P(coalition_fraction)),
            ("adaptive_fraction", P(adaptive_fraction)),
            ("flows", N(flows)),
            ("messages_per_flow", N(messages_per_flow)),
        ]
    }

    /// The probability in row `row` of [`Self::knobs`]; panics if that
    /// row holds none.
    pub(crate) fn p(&mut self, row: usize) -> &mut f64 {
        match self.knobs().into_iter().nth(row) {
            Some((_, P(v))) => v,
            _ => panic!("knob row {row} holds no probability"),
        }
    }

    /// Checks that every probability and fraction lies in `[0, 1]` (NaN
    /// does not), naming the first that does not by its literal path, and
    /// that the churn outage bounds are consistent.
    pub(crate) fn validate(&self) -> Result<(), FaultError> {
        let mut cfg = self.clone();
        for (knob, slot) in cfg.knobs() {
            if let P(&mut value) = slot {
                if !(0.0..=1.0).contains(&value) {
                    return Err(FaultError::BadProbability { knob, value });
                }
            }
        }
        if self.faults.churn.mean_outage < self.faults.churn.min_outage {
            return Err(FaultError::BadOutage);
        }
        Ok(())
    }

    /// Renders the configuration as a copy-pasteable Rust literal with the
    /// seed that reproduces the episode.
    pub fn to_literal(&self, seed: u64) -> String {
        let mut out = format!("// seed: {seed}\nEpisodeConfig {{\n");
        // The struct fields open around the next line.
        let mut open: Vec<&str> = Vec::new();
        let mut cfg = self.clone();
        for (path, slot) in cfg.knobs() {
            let mut groups: Vec<&str> = path.split('.').collect();
            let leaf = groups.pop().unwrap_or(path);
            while !groups.starts_with(&open) {
                open.pop();
                let _ = writeln!(out, "{:1$}}},", "", 4 * open.len() + 4);
            }
            for &group in &groups[open.len()..] {
                let ty = GROUPS.iter().find(|g| g.0 == group).map_or("", |g| g.1);
                let _ = writeln!(out, "{:1$}{group}: {ty} {{", "", 4 * open.len() + 4);
                open.push(group);
            }
            let value = match slot {
                P(v) => format!("{v:?}"),
                D(d) => format!("SimDuration::from_micros({})", d.as_micros()),
                N(n) => n.to_string(),
            };
            let _ = writeln!(out, "{:1$}{leaf}: {value},", "", 4 * open.len() + 4);
        }
        while open.pop().is_some() {
            let _ = writeln!(out, "{:1$}}},", "", 4 * open.len() + 4);
        }
        out.push('}');
        out
    }

    /// Parses a [`EpisodeConfig::to_literal`] rendering (plus its
    /// `// seed:` header) back into a configuration and seed.
    ///
    /// The parser is line-based and keyed on field paths, so it tolerates
    /// surrounding comment lines (corpus headers) and indentation changes,
    /// but rejects unknown fields — a corpus entry written by a newer
    /// serializer fails loudly instead of replaying the wrong scenario —
    /// a missing, unterminated or malformed literal, a field or `// seed:`
    /// header given twice, and out-of-range values: a probability or
    /// fraction outside `[0, 1]` (NaN included) or a mean outage below the
    /// minimum.
    pub fn parse_literal(text: &str) -> Result<(EpisodeConfig, u64), String> {
        let mut cfg = EpisodeConfig::default();
        let mut seed: Option<u64> = None;
        // The struct fields open around the current line; `None` until the
        // `EpisodeConfig` literal opens.
        let (mut open, mut closed): (Option<Vec<&str>>, bool) = (None, false);
        let mut given: Vec<String> = Vec::new();
        for raw in text.lines() {
            let line = raw.trim();
            if let Some(rest) = line.strip_prefix("// seed:") {
                if seed.is_some() {
                    return Err("`// seed:` given twice".to_string());
                }
                seed = Some(rest.trim().parse().map_err(|e| format!("seed: {e}"))?);
                continue;
            }
            if line.starts_with("//") || line.is_empty() {
                continue;
            }
            // Field lines only count inside the `EpisodeConfig` literal;
            // anything before it (corpus headers) or after it (a
            // reproducer's rendered event trace) is ignored.
            let Some(groups) = open.as_mut() else {
                if line.starts_with("EpisodeConfig") && line.ends_with('{') {
                    open = Some(Vec::new());
                }
                continue;
            };
            if line.starts_with('}') {
                if groups.pop().is_none() {
                    closed = true;
                    break;
                }
                continue;
            }
            let Some((key, value)) = line.split_once(':') else {
                return Err(format!("malformed line `{line}`"));
            };
            let (key, value) = (key.trim(), value.trim().trim_end_matches(','));
            if value.ends_with('{') {
                groups.push(key); // struct openers like `faults: FaultConfig {`
                continue;
            }
            let path = groups.iter().chain([&key]).copied().collect::<Vec<_>>().join(".");
            if given.contains(&path) {
                return Err(format!("{path} given twice"));
            }
            let bad = |e: &dyn fmt::Display| format!("{path}: {e}");
            match cfg.knobs().into_iter().find(|(knob, _)| *knob == path) {
                Some((_, P(v))) => *v = value.parse().map_err(|e| bad(&e))?,
                Some((_, N(n))) => *n = value.parse().map_err(|e| bad(&e))?,
                Some((_, D(d))) => {
                    let micros = value
                        .strip_prefix("SimDuration::from_micros(")
                        .and_then(|v| v.strip_suffix(')'))
                        .ok_or_else(|| bad(&format!("expected SimDuration::from_micros(..), got {value}")))?;
                    *d = SimDuration::from_micros(micros.parse().map_err(|e| bad(&e))?);
                }
                None => return Err(format!("unknown field `{path}`")),
            }
            given.push(path);
        }
        if !closed {
            return Err("missing or unterminated `EpisodeConfig { .. }` literal".to_string());
        }
        let seed = seed.ok_or_else(|| "missing `// seed:` header".to_string())?;
        cfg.validate().map_err(|e| e.to_string())?;
        Ok((cfg, seed))
    }
}

/// A typed borrow of one knob in [`EpisodeConfig::knobs`].
pub(crate) enum Slot<'a> {
    /// A probability or a fraction of hosts, in `[0, 1]`.
    P(&'a mut f64),
    /// A virtual-time span, written in microseconds.
    D(&'a mut SimDuration),
    /// A count.
    N(&'a mut usize),
}

/// The rows of [`EpisodeConfig::knobs`] holding the two transport loss
/// probabilities.
pub(crate) const TRANSPORT: Range<usize> = 0..2;
/// The rows of [`EpisodeConfig::knobs`] holding the seven adversary-role
/// fractions.
pub(crate) const ROLES: Range<usize> = 13..20;

/// The struct each knob group of [`EpisodeConfig::to_literal`] opens.
const GROUPS: [(&str, &str); 4] = [
    ("faults", "FaultConfig"),
    ("churn", "ChurnConfig"),
    ("burst", "BurstConfig"),
    ("storm", "StormConfig"),
];
