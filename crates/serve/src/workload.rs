//! The deterministic open-loop workload driver.
//!
//! Arrival times are *open-loop*: fixed by the seed before the run, not
//! reactive to the daemon — an overloaded daemon cannot slow its
//! offered load, which is exactly what makes 2× saturation a real shed
//! test. Load is expressed relative to the daemon's own service-cost
//! model: at `load = 1.0` the arrival span equals the total service
//! cost of the trace (the server is busy essentially always but
//! keeping up); at `load = 2.0` the same work arrives in half the span.
//! Everything — report contents, arrival fractions, evidence lags — is
//! drawn from one seeded generator, so a (spec, config, seed) triple
//! names exactly one trace.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use concilium_types::SimTime;

use crate::report::{FailureReport, LinkObs};
use crate::ServeConfig;

/// The arrival-process shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Arrivals spread evenly across the span.
    Uniform,
    /// Arrivals clumped into a handful of tight bursts.
    Bursty,
    /// A smooth day-like density: slow troughs, busy peaks.
    Diurnal,
}

impl Shape {
    /// Stable name for CLIs and artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Shape::Uniform => "uniform",
            Shape::Bursty => "bursty",
            Shape::Diurnal => "diurnal",
        }
    }

    /// Parses a shape name; `None` on anything unknown.
    pub fn from_name(name: &str) -> Option<Shape> {
        match name {
            "uniform" => Some(Shape::Uniform),
            "bursty" => Some(Shape::Bursty),
            "diurnal" => Some(Shape::Diurnal),
            _ => None,
        }
    }
}

/// Parameters of a workload trace.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Number of reports to offer.
    pub reports: usize,
    /// Arrival-process shape.
    pub shape: Shape,
    /// Offered load relative to saturation (1.0 = arrival span equals
    /// total service cost).
    pub load: f64,
    /// Overlay population; judges and accused are drawn from it.
    pub members: u64,
    /// Maximum links per report's evidence path.
    pub max_links: u64,
    /// Maximum probe observations per link.
    pub max_probes: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            reports: 256,
            shape: Shape::Uniform,
            load: 1.0,
            members: 32,
            max_links: 3,
            max_probes: 4,
        }
    }
}

/// A uniform fraction in `[0, 1)` from the generator's next word — the
/// same 53-bit construction upstream rand uses, kept explicit here so
/// the trace does not depend on distribution impl details.
fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

impl WorkloadSpec {
    /// Generates the seeded arrival-time trace: reports with ids in
    /// arrival order and strictly deterministic contents.
    pub fn generate(&self, cfg: &ServeConfig, seed: u64) -> Vec<FailureReport> {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.reports;

        // Draw arrival fractions per shape, then sort: ids are assigned
        // in arrival order so journals read chronologically.
        let mut fractions: Vec<f64> = (0..n)
            .map(|_| {
                let u = unit(&mut rng);
                match self.shape {
                    Shape::Uniform => u,
                    Shape::Bursty => {
                        // Eight tight bursts across the span.
                        let burst = (rng.next_u64() % 8) as f64;
                        let jitter = (unit(&mut rng) - 0.5) * 0.02;
                        ((burst + 0.5) / 8.0 + jitter).clamp(0.0, 0.999_999)
                    }
                    Shape::Diurnal => {
                        // Monotone warp of uniform time with a day-cycle
                        // density 1 − A·cos(2πt): troughs and peaks.
                        const A: f64 = 0.8;
                        let t = u - (A / (2.0 * std::f64::consts::PI))
                            * (2.0 * std::f64::consts::PI * u).sin();
                        t.clamp(0.0, 0.999_999)
                    }
                }
            })
            .collect();
        fractions.sort_by(f64::total_cmp);

        // Draw contents, then size the span so that load 1.0 means the
        // arrival window exactly covers the total service cost.
        let contents: Vec<(u64, u64, Vec<LinkObs>)> = (0..n)
            .map(|_| {
                let judge = rng.next_u64() % self.members;
                let accused = {
                    let shift = 1 + rng.next_u64() % (self.members - 1);
                    (judge + shift) % self.members
                };
                let n_links = 1 + rng.next_u64() % self.max_links;
                let links = (0..n_links)
                    .map(|_| {
                        let total = 1 + rng.next_u64() % self.max_probes;
                        let up = rng.next_u64() % (total + 1);
                        LinkObs {
                            link: rng.next_u64() % (4 * self.members),
                            up,
                            down: total - up,
                        }
                    })
                    .collect();
                (judge, accused, links)
            })
            .collect();

        let total_cost_us: u64 =
            contents.iter().map(|(_, _, links)| probe_cost(cfg, links)).sum();
        let span_us = (total_cost_us as f64 / self.load.max(0.01)).ceil() as u64;

        fractions
            .iter()
            .zip(contents)
            .enumerate()
            .map(|(i, (f, (judge, accused, links)))| {
                let arrival_us = 1 + (f * span_us as f64) as u64;
                let lag = 100 + rng.next_u64() % cfg.evidence_window.as_micros().max(1);
                FailureReport {
                    id: i as u64,
                    judge,
                    accused,
                    arrival: SimTime::from_micros(arrival_us),
                    evidence_at: SimTime::from_micros(arrival_us.saturating_sub(lag)),
                    links,
                }
            })
            .collect()
    }
}

fn probe_cost(cfg: &ServeConfig, links: &[LinkObs]) -> u64 {
    let obs: u64 = links.iter().map(|l| l.up + l.down).sum();
    cfg.base_service
        .as_micros()
        .saturating_add(cfg.per_observation.as_micros().saturating_mul(obs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace_different_seed_different_trace() {
        let cfg = ServeConfig::default();
        let spec = WorkloadSpec::default();
        let a = spec.generate(&cfg, 7);
        let b = spec.generate(&cfg, 7);
        let c = spec.generate(&cfg, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn trace_is_well_formed() {
        let cfg = ServeConfig::default();
        let spec = WorkloadSpec::default();
        let trace = spec.generate(&cfg, 3);
        assert_eq!(trace.len(), spec.reports);
        for (i, r) in trace.iter().enumerate() {
            assert_eq!(r.id, i as u64, "ids follow arrival order");
            assert_ne!(r.judge, r.accused);
            assert!(r.judge < spec.members && r.accused < spec.members);
            assert!(!r.links.is_empty());
            assert!(r.evidence_at <= r.arrival);
            if i > 0 {
                assert!(trace[i - 1].arrival <= r.arrival, "arrivals sorted");
            }
        }
    }

    #[test]
    fn doubling_load_halves_the_span() {
        let cfg = ServeConfig::default();
        let one = WorkloadSpec { load: 1.0, ..WorkloadSpec::default() }.generate(&cfg, 5);
        let two = WorkloadSpec { load: 2.0, ..WorkloadSpec::default() }.generate(&cfg, 5);
        let span = |t: &[FailureReport]| {
            t.last().map_or(0, |r| r.arrival.as_micros())
                - t.first().map_or(0, |r| r.arrival.as_micros())
        };
        let (s1, s2) = (span(&one), span(&two));
        assert!(s2 < s1, "2x load must compress arrivals ({s2} vs {s1})");
        let ratio = s1 as f64 / s2.max(1) as f64;
        assert!((1.5..=2.5).contains(&ratio), "span ratio ~2, got {ratio}");
    }

    #[test]
    fn shapes_produce_distinct_arrival_patterns() {
        let cfg = ServeConfig::default();
        let base = WorkloadSpec::default();
        let uniform = WorkloadSpec { shape: Shape::Uniform, ..base.clone() }.generate(&cfg, 9);
        let bursty = WorkloadSpec { shape: Shape::Bursty, ..base.clone() }.generate(&cfg, 9);
        // Burstiness: max gap between consecutive arrivals is much larger
        // for the bursty shape than the uniform one at the same seed.
        let max_gap = |t: &[FailureReport]| {
            t.windows(2)
                .map(|w| w[1].arrival.as_micros() - w[0].arrival.as_micros())
                .max()
                .unwrap_or(0)
        };
        assert!(max_gap(&bursty) > max_gap(&uniform));
        assert_eq!(Shape::from_name("diurnal"), Some(Shape::Diurnal));
        assert_eq!(Shape::from_name("nope"), None);
        for s in [Shape::Uniform, Shape::Bursty, Shape::Diurnal] {
            assert_eq!(Shape::from_name(s.name()), Some(s));
        }
    }
}
