//! Simulation parameters.

use serde::{Deserialize, Serialize};

use concilium_topology::{FailureModelConfig, TransitStubConfig};
use concilium_types::SimDuration;

/// All parameters of an evaluation run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// The synthetic Internet topology to generate.
    pub topology: TransitStubConfig,
    /// Fraction of end hosts that run overlay nodes (paper: 3%).
    pub overlay_fraction: f64,
    /// Leaf-set capacity (paper: 16 leaf nodes).
    pub leaf_capacity: usize,
    /// Virtual duration of the run (paper: two hours).
    pub duration: SimDuration,
    /// Upper bound of the uniform probe inter-arrival time
    /// (paper: "on the order of one or two minutes"; Figure 5 uses 120 s).
    pub max_probe_time: SimDuration,
    /// Probability that a probe correctly identifies a link's up/down
    /// state (paper §4.3: 90%).
    pub probe_accuracy: f64,
    /// The link-failure process parameters.
    pub failure: FailureModelConfig,
}

impl SimConfig {
    /// The paper's evaluation scale: the SCAN-sized topology, 3% of end
    /// hosts (≈1,131 overlay nodes), two virtual hours, 5% of links bad.
    pub fn paper_scale() -> Self {
        SimConfig {
            topology: TransitStubConfig::paper_scale(),
            overlay_fraction: 0.03,
            leaf_capacity: 16,
            duration: SimDuration::from_mins(120),
            max_probe_time: SimDuration::from_secs(120),
            probe_accuracy: 0.9,
            failure: FailureModelConfig::default(),
        }
    }

    /// A mid-size configuration (hundreds of overlay nodes) for quicker
    /// experiment iterations.
    pub fn medium() -> Self {
        SimConfig {
            topology: TransitStubConfig::medium(),
            overlay_fraction: 0.05,
            leaf_capacity: 16,
            duration: SimDuration::from_mins(120),
            max_probe_time: SimDuration::from_secs(120),
            probe_accuracy: 0.9,
            failure: FailureModelConfig::default(),
        }
    }

    /// A small configuration for integration tests (~20 overlay nodes,
    /// 30 virtual minutes).
    pub fn small() -> Self {
        SimConfig {
            topology: TransitStubConfig::small(),
            overlay_fraction: 0.12,
            leaf_capacity: 8,
            duration: SimDuration::from_mins(30),
            max_probe_time: SimDuration::from_secs(120),
            probe_accuracy: 0.9,
            failure: FailureModelConfig::default(),
        }
    }

    /// The smallest world that still exercises every code path, for unit
    /// tests and doctests.
    pub fn tiny() -> Self {
        SimConfig {
            topology: TransitStubConfig::tiny(),
            overlay_fraction: 0.25,
            leaf_capacity: 4,
            duration: SimDuration::from_mins(10),
            max_probe_time: SimDuration::from_secs(60),
            probe_accuracy: 0.9,
            failure: FailureModelConfig::default(),
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is out of range.
    pub(crate) fn validate(&self) {
        assert!(
            self.overlay_fraction > 0.0 && self.overlay_fraction <= 1.0,
            "overlay fraction must be in (0,1], got {}",
            self.overlay_fraction
        );
        assert!(
            self.leaf_capacity >= 2 && self.leaf_capacity.is_multiple_of(2),
            "leaf capacity must be even and at least 2, got {}",
            self.leaf_capacity
        );
        assert!(
            self.probe_accuracy > 0.5 && self.probe_accuracy <= 1.0,
            "probe accuracy must be in (0.5, 1], got {}",
            self.probe_accuracy
        );
        assert!(self.duration > SimDuration::ZERO, "duration must be positive");
        assert!(
            self.max_probe_time > SimDuration::ZERO,
            "max probe time must be positive"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        SimConfig::paper_scale().validate();
        SimConfig::medium().validate();
        SimConfig::small().validate();
        SimConfig::tiny().validate();
    }

    #[test]
    fn paper_scale_matches_paper_numbers() {
        let c = SimConfig::paper_scale();
        assert_eq!(c.overlay_fraction, 0.03);
        assert_eq!(c.duration, SimDuration::from_mins(120));
        assert_eq!(c.probe_accuracy, 0.9);
        assert_eq!(c.failure.fraction_bad, 0.05);
        // ≈1,131 overlay nodes.
        let hosts = (c.topology.end_hosts as f64 * c.overlay_fraction).round();
        assert!((hosts - 1_131.0).abs() < 10.0, "expected ≈1131, got {hosts}");
    }

    #[test]
    #[should_panic(expected = "overlay fraction")]
    fn bad_fraction_rejected() {
        let mut c = SimConfig::tiny();
        c.overlay_fraction = 0.0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "probe accuracy")]
    fn bad_accuracy_rejected() {
        let mut c = SimConfig::tiny();
        c.probe_accuracy = 0.4;
        c.validate();
    }
}
