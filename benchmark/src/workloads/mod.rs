//! The six workloads and the code that measures any of them.
//!
//! Every workload is a closed loop with one caller (virtual time makes
//! arrivals free), runs at `jobs = 1` on one thread, does a fixed amount of
//! work for a given `--seed` and `--seconds`, and checks its own outputs.

mod fig4;
mod fig5;
mod fuzz;
mod serve;
mod sweep;

use std::time::Instant;

use concilium_crypto::Sha256;
use concilium_sim::SimConfig;

use crate::result::{Metric, WorkloadResult};
use crate::spec;
use crate::stats;
use crate::tracer::{NoTrace, Tracer};

pub use fig4::Fig4Large;
pub use fig5::Fig5Large;
pub use fuzz::FuzzBottleneck;
pub use serve::{ServeOverload, ServeSteady};
pub use sweep::{DstSweep, DST_WORLD_SEED};

/// How much work a run does.
///
/// Work is fixed by the size, not by a deadline: the same `--seed` and
/// `--seconds` always run the same ops, so `sim_digest` repeats exactly and
/// `ops_per_s` compares like with like across commits. The sizes were set so
/// that the timed section takes about `--seconds` at the commit that
/// introduced the benchmark, on its 2-core box.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// 1.0 is the nominal ten-second run.
    pub scale: f64,
    /// About 1% of the work on the small test world: exercises every
    /// workload and check quickly; its numbers mean nothing.
    pub smoke: bool,
}

impl Size {
    pub fn from_seconds(seconds: u64) -> Size {
        Size {
            scale: seconds as f64 / 10.0,
            smoke: false,
        }
    }

    pub fn smoke() -> Size {
        Size {
            scale: 0.01,
            smoke: true,
        }
    }

    /// `nominal` units of work scaled to this size, at least one.
    pub fn count(&self, nominal: usize) -> usize {
        ((nominal as f64 * self.scale).round() as usize).max(1)
    }

    /// The world `fig5-large` reads and `fig4-large` builds:
    /// `SimConfig::medium()` with three times the routers and 4% of end
    /// hosts in the overlay — 33,870 routers, 452 hosts.
    pub fn large_world(&self) -> SimConfig {
        if self.smoke {
            return SimConfig::small();
        }
        let mut cfg = SimConfig::medium();
        cfg.topology.core *= 3;
        cfg.topology.transit *= 3;
        cfg.topology.stubs *= 3;
        cfg.topology.end_hosts *= 3;
        cfg.overlay_fraction = 0.04;
        cfg
    }
}

/// What one pass over a workload's ops produced.
#[derive(Default)]
pub struct Outcome {
    /// Wall time of each timed unit, in milliseconds.
    pub unit_ms: Vec<f64>,
    /// Ops per timed unit.
    pub unit_ops: u64,
    /// Wall time of everything timed (units plus any timed tail), seconds.
    pub timed_s: f64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub ops_refused: u64,
    pub sim_digest: String,
    /// One message per failed correctness check.
    pub failures: Vec<String>,
    /// Exact counts the workload can report about a layer.
    pub extras: Vec<Metric>,
}

impl Outcome {
    /// Records a failed check that spoils `ops` ops.
    pub fn fail(&mut self, ops: u64, message: String) {
        self.ops_failed += ops;
        self.failures.push(message);
    }

    pub fn check(&mut self, ok: bool, ops: u64, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(ops, message());
        }
    }
}

/// A workload: inputs made from the seed, then a timed pass over them.
pub trait Workload {
    /// What set-up builds and the timed pass reads.
    type Input;
    const NAME: &'static str;

    /// Generates inputs, builds the world, and runs one untimed warm-up
    /// unit so allocator growth and lazy tables are not charged to the
    /// first sample. All of it is `setup_s`.
    fn setup(seed: u64, size: &Size) -> Self::Input;

    /// The timed pass. `size` may be smaller than the one `setup` saw (the
    /// traced binary runs a shorter pass twice) but never differs in
    /// `smoke`.
    fn run<T: Tracer>(input: &Self::Input, seed: u64, size: &Size, tracer: &mut T) -> Outcome;
}

/// Calls `$body` with `W` bound to the workload type named `$name`.
#[macro_export]
macro_rules! with_workload {
    ($name:expr, $W:ident => $body:expr) => {
        match $name {
            "fig5-large" => {
                type $W = $crate::workloads::Fig5Large;
                Some($body)
            }
            "fig4-large" => {
                type $W = $crate::workloads::Fig4Large;
                Some($body)
            }
            "dst-sweep" => {
                type $W = $crate::workloads::DstSweep;
                Some($body)
            }
            "fuzz-bottleneck" => {
                type $W = $crate::workloads::FuzzBottleneck;
                Some($body)
            }
            "serve-steady" => {
                type $W = $crate::workloads::ServeSteady;
                Some($body)
            }
            "serve-overload" => {
                type $W = $crate::workloads::ServeOverload;
                Some($body)
            }
            _ => None,
        }
    };
}

/// Sets a workload up several times, so `setup_s` is a median: at least
/// three times, and up to fifty while set-up is so short (under a second in
/// all) that three samples would be noise. Keeps the last input.
pub fn timed_setup<W: Workload>(seed: u64, size: &Size) -> (W::Input, Vec<f64>) {
    let mut samples = Vec::new();
    let mut input = None;
    loop {
        // One world at a time, so repeated set-up does not raise peak RSS.
        drop(input.take());
        let t0 = Instant::now();
        input = Some(W::setup(seed, size));
        samples.push(t0.elapsed().as_secs_f64());
        let enough = samples.len() >= 3 && samples.iter().sum::<f64>() >= 1.0;
        if size.smoke || enough || samples.len() >= 50 {
            return (input.expect("set up at least once"), samples);
        }
    }
}

/// The untraced run of one workload: every end-to-end metric, plus the p99
/// of a unit where at least 1,000 units were timed.
pub fn measure<W: Workload>(seed: u64, size: &Size) -> WorkloadResult {
    let (input, setup_s) = timed_setup::<W>(seed, size);
    let outcome = W::run(&input, seed, size, &mut NoTrace);
    drop(input);

    let mut metrics = vec![
        Metric::measured(spec::SETUP_S, stats::median(&setup_s).unwrap_or(0.0)),
        Metric::measured(
            spec::OPS_PER_S,
            outcome.ops_attempted as f64 / outcome.timed_s,
        ),
    ];
    if let Some(p50) = stats::percentile(&outcome.unit_ms, 0.50) {
        metrics.push(Metric::measured(spec::UNIT_MS_P50, p50));
    }
    if let Some(p99) = stats::percentile_guarded(&outcome.unit_ms, 0.99) {
        metrics.push(Metric::measured(spec::UNIT_MS_P99, p99));
    }
    metrics.push(Metric::measured(spec::PEAK_RSS_MB, peak_rss_mb()));
    let refused_or_failed = outcome.ops_failed.min(outcome.ops_attempted) + outcome.ops_refused;
    metrics.push(Metric::measured(
        spec::FAILED_SHARE,
        refused_or_failed as f64 / outcome.ops_attempted.max(1) as f64,
    ));

    let mut result = summarize(W::NAME, setup_s.len(), outcome);
    result.metrics.splice(0..0, metrics);
    result
}

/// Folds a pass into a result: counts, digest, checks, and the exact counts
/// the workload reported about a layer. Timing metrics are the caller's.
pub fn summarize(name: &str, setup_samples: usize, outcome: Outcome) -> WorkloadResult {
    WorkloadResult {
        name: name.to_string(),
        correct: outcome.failures.is_empty(),
        ops_attempted: outcome.ops_attempted,
        ops_failed: outcome.ops_failed.min(outcome.ops_attempted),
        ops_refused: outcome.ops_refused,
        unit_ops: outcome.unit_ops,
        units: outcome.unit_ms.len() as u64,
        setup_samples: setup_samples as u64,
        sim_digest: outcome.sim_digest,
        failures: outcome.failures,
        metrics: outcome.extras,
    }
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Independent seed streams drawn from the one `--seed`.
#[derive(Clone, Copy)]
pub(crate) enum Stream {
    World = 1,
    Adversaries = 2,
    Ops = 3,
    WarmUp = 4,
}

/// Seed `index` of `stream` under the master `seed`.
pub(crate) fn derive(seed: u64, stream: Stream, index: u64) -> u64 {
    concilium_par::derive_seed(concilium_par::derive_seed(seed, stream as u64), index)
}

/// A seed space that was swept clean of invariant violations before the
/// benchmark used it: `windows` windows of `window` consecutive seeds from
/// `base` up. `--seed` picks the window a run starts in; a run longer than
/// one window carries on into the next and wraps at the end of the space.
///
/// The DST workloads draw episode and fuzz seeds this way because a
/// benchmark needs workloads on which no op fails, and about one episode in
/// 20,000 of the churning arm does (see `sweep.rs`).
pub(crate) struct SeedSpace {
    pub base: u64,
    pub window: u64,
    pub windows: u64,
}

impl SeedSpace {
    pub fn seed(&self, master: u64, index: u64) -> u64 {
        let start = derive(master, Stream::Ops, 0) % self.windows * self.window;
        self.base + (start + index) % (self.window * self.windows)
    }
}

/// SHA-256 over a workload's simulated statistics.
pub(crate) struct SimDigest(Sha256);

impl SimDigest {
    pub fn new(domain: &str) -> Self {
        let mut h = Sha256::new();
        h.update(domain.as_bytes());
        SimDigest(h)
    }

    pub fn u64(&mut self, v: u64) {
        self.0.update(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.0.update(s.as_bytes());
    }

    pub fn hex(self) -> String {
        self.0.finalize().to_hex()
    }
}

/// Times `f`, returning its result and the elapsed milliseconds.
pub(crate) fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e3)
}
