//! Protocol parameters.

use serde::{Deserialize, Serialize};

use concilium_types::SimDuration;

/// All tunables of the Concilium protocol, with the paper's defaults.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ConciliumConfig {
    /// Probe accuracy `a` in Eq. 3 (paper §4.3: 0.9).
    pub probe_accuracy: f64,
    /// Δ: probes initiated within `[t − Δ, t + Δ]` count as evidence for a
    /// drop at time t (paper: "Δ might equal sixty seconds").
    pub delta: SimDuration,
    /// Blame threshold for a guilty verdict (paper §4.3: 40%).
    pub blame_threshold: f64,
    /// Sliding-window size w (paper: 100).
    pub window: usize,
    /// Guilty verdicts within the window that trigger a formal accusation
    /// (paper: m = 6 faithful, m = 16 under 20% collusion).
    pub guilty_quota: usize,
    /// Maximum age of jump-table freshness stamps.
    pub freshness_max_age: SimDuration,
    /// γ for the jump-table density test.
    pub density_gamma: f64,
    /// γ for Castro's leaf-set spacing test.
    pub leaf_gamma: f64,
    /// DHT replication factor for stored accusations.
    pub dht_replication: usize,
}

impl Default for ConciliumConfig {
    fn default() -> Self {
        ConciliumConfig {
            probe_accuracy: 0.9,
            delta: SimDuration::from_secs(60),
            blame_threshold: 0.4,
            window: 100,
            guilty_quota: 6,
            freshness_max_age: SimDuration::from_secs(300),
            density_gamma: 1.5,
            leaf_gamma: 2.0,
            dht_replication: 4,
        }
    }
}

impl ConciliumConfig {
    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is out of range.
    pub(crate) fn validate(&self) {
        assert!(
            self.probe_accuracy > 0.5 && self.probe_accuracy <= 1.0,
            "probe accuracy must be in (0.5, 1], got {}",
            self.probe_accuracy
        );
        assert!(
            (0.0..=1.0).contains(&self.blame_threshold),
            "blame threshold must be in [0,1], got {}",
            self.blame_threshold
        );
        assert!(self.window > 0, "window must be positive");
        assert!(
            self.guilty_quota > 0 && self.guilty_quota <= self.window,
            "guilty quota must be in [1, window], got {}",
            self.guilty_quota
        );
        assert!(self.density_gamma >= 1.0, "density gamma must be ≥ 1");
        assert!(self.leaf_gamma >= 1.0, "leaf gamma must be ≥ 1");
        assert!(self.dht_replication > 0, "replication must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ConciliumConfig::default();
        c.validate();
        assert_eq!(c.probe_accuracy, 0.9);
        assert_eq!(c.delta, SimDuration::from_secs(60));
        assert_eq!(c.blame_threshold, 0.4);
        assert_eq!(c.window, 100);
        assert_eq!(c.guilty_quota, 6);
    }

    #[test]
    #[should_panic(expected = "guilty quota")]
    fn quota_above_window_rejected() {
        let c = ConciliumConfig { guilty_quota: 101, ..Default::default() };
        c.validate();
    }
}
