//! Experiment harness for the Concilium reproduction.
//!
//! One module per figure/table of the paper's evaluation (§4). Each
//! module exposes a `run(...)` function returning printable rows so the
//! same code backs both the `experiments` binary and the repository
//! benchmark (`benchmark/`, the only place a wall-clock number comes
//! from). See `DESIGN.md` for the experiment index and `EXPERIMENTS.md`
//! for recorded paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod detection;
pub mod fig1;
pub mod fig23;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod stretch;
pub mod system;
pub mod tables;

/// The experiment scale knob shared by the world-building experiments.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// ~90-router topology, seconds to run (CI smoke).
    Tiny,
    /// ~500-router topology.
    Small,
    /// ~11k-router topology, hundreds of overlay nodes.
    Medium,
    /// The paper's SCAN-sized topology with ≈1,131 overlay nodes.
    Paper,
}

impl Scale {
    /// Parses a scale name.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The corresponding simulator configuration.
    pub fn sim_config(self) -> concilium_sim::SimConfig {
        match self {
            Scale::Tiny => concilium_sim::SimConfig::tiny(),
            Scale::Small => concilium_sim::SimConfig::small(),
            Scale::Medium => concilium_sim::SimConfig::medium(),
            Scale::Paper => concilium_sim::SimConfig::paper_scale(),
        }
    }
}
