//! `compare A.json B.json`: is result set B worse than A?
//!
//! Judges every end-to-end metric on every workload against its bound,
//! direction-aware; requires equal `sim_digest`s when both sets ran the same
//! seed at the same size; and requires both sets to hold the same metrics.
//! Per-layer metrics are printed and never judged.

use std::fmt::Write as _;

use crate::result::{ResultSet, WorkloadResult};
use crate::spec::{self, Better, EndToEnd};

/// The verdict on one pair of result sets.
pub struct Comparison {
    /// One row per workload × metric: both values and the ratio.
    pub table: String,
    /// Why B fails against A; empty when it passes.
    pub failures: Vec<String>,
}

impl Comparison {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Whether `b` is worse than `a` by more than the metric's bound.
pub fn regressed(m: &EndToEnd, a: f64, b: f64) -> bool {
    let worse_by = match m.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    worse_by > (m.rel_bound * a.abs()).max(m.abs_floor)
}

pub fn compare(a: &ResultSet, b: &ResultSet) -> Comparison {
    let mut table = String::new();
    let mut failures = Vec::new();
    let _ = writeln!(
        table,
        "{:<16} {:<38} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "A", "B", "B/A"
    );
    // Digests are a function of seed and size; sets that differ in either
    // are compared on timing alone.
    let same_inputs = a.meta.seed == b.meta.seed
        && a.meta.seconds == b.meta.seconds
        && a.meta.smoke == b.meta.smoke;

    let names = union(
        a.workloads.iter().map(|w| w.name.as_str()),
        b.workloads.iter().map(|w| w.name.as_str()),
    );
    for name in names {
        match (a.workload(name), b.workload(name)) {
            (Some(wa), Some(wb)) => {
                compare_workload(wa, wb, same_inputs, &mut table, &mut failures)
            }
            (Some(_), None) => failures.push(format!("{name}: missing from B")),
            (None, _) => failures.push(format!("{name}: missing from A")),
        }
    }
    Comparison { table, failures }
}

/// The names of `a`, then those only `b` has, each once.
fn union<'a>(a: impl Iterator<Item = &'a str>, b: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
    let mut all: Vec<&str> = a.collect();
    for name in b {
        if !all.contains(&name) {
            all.push(name);
        }
    }
    all
}

fn compare_workload(
    a: &WorkloadResult,
    b: &WorkloadResult,
    same_inputs: bool,
    table: &mut String,
    failures: &mut Vec<String>,
) {
    let name = &a.name;
    for (side, w) in [("A", a), ("B", b)] {
        if !w.correct {
            failures.push(format!("{name}: {side} failed its correctness checks"));
        }
    }
    if same_inputs && a.sim_digest != b.sim_digest {
        failures.push(format!(
            "{name}: sim_digest differs ({} vs {})",
            a.sim_digest, b.sim_digest
        ));
    }

    let metrics = union(
        a.metrics.iter().map(|m| m.name.as_str()),
        b.metrics.iter().map(|m| m.name.as_str()),
    );
    for metric in metrics {
        let (Some(ma), Some(mb)) = (a.metric(metric), b.metric(metric)) else {
            let side = if a.metric(metric).is_some() { "B" } else { "A" };
            failures.push(format!("{name}: {metric} is missing from {side}"));
            continue;
        };
        let ratio = if ma.value == 0.0 {
            "-".to_string()
        } else {
            format!("{:.4}", mb.value / ma.value)
        };
        let verdict = match spec::end_to_end(metric) {
            None => "",
            Some(m) if regressed(m, ma.value, mb.value) => {
                failures.push(format!(
                    "{name}: {metric} {} -> {} {} is worse by more than its bound ({}% of A, floor {} {})",
                    ma.value,
                    mb.value,
                    ma.unit,
                    m.rel_bound * 100.0,
                    m.abs_floor,
                    m.unit
                ));
                "REGRESSED"
            }
            Some(_) => "ok",
        };
        let _ = writeln!(
            table,
            "{:<16} {:<38} {:>16.6} {:>16.6} {:>9}  {}",
            name,
            format!("{metric} [{}]", ma.unit),
            ma.value,
            mb.value,
            ratio,
            verdict
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::{Meta, Metric};

    fn set(ops_per_s: f64, p50: f64, setup_s: f64, digest: &str) -> ResultSet {
        ResultSet {
            meta: Meta {
                seed: 1,
                seconds: 10,
                ..Meta::default()
            },
            workloads: vec![WorkloadResult {
                name: "dst-sweep".into(),
                correct: true,
                ops_attempted: 4096,
                sim_digest: digest.into(),
                metrics: vec![
                    Metric::new(spec::SETUP_S, setup_s, "s"),
                    Metric::new(spec::OPS_PER_S, ops_per_s, "op/s"),
                    Metric::new(spec::UNIT_MS_P50, p50, "ms"),
                    Metric::new(spec::FAILED_SHARE, 0.0, "ratio"),
                    Metric::new("sim.queue_shallow_ns_per_op", 50.0, "ns"),
                ],
                ..WorkloadResult::default()
            }],
        }
    }

    #[test]
    fn a_twofold_slowdown_fails() {
        let base = set(400.0, 2.4, 0.05, "d");
        let slow = set(200.0, 4.8, 0.05, "d");
        let c = compare(&base, &slow);
        assert!(!c.passed());
        assert!(c.failures.iter().any(|f| f.contains(spec::OPS_PER_S)));
        assert!(c.failures.iter().any(|f| f.contains(spec::UNIT_MS_P50)));
    }

    #[test]
    fn a_three_percent_wobble_passes() {
        let base = set(400.0, 2.4, 0.05, "d");
        let wobble = set(388.0, 2.472, 0.0515, "d");
        let c = compare(&base, &wobble);
        assert!(c.passed(), "{:?}", c.failures);
        assert!(c.table.contains("ok"));
    }

    #[test]
    fn higher_is_better_is_judged_the_right_way_round() {
        let base = set(400.0, 2.4, 0.05, "d");
        // Twice the throughput and half the latency is an improvement…
        assert!(compare(&base, &set(800.0, 1.2, 0.05, "d")).passed());
        // …and the same numbers the other way round are a regression.
        assert!(!compare(&set(800.0, 1.2, 0.05, "d"), &base).passed());
        let ops = spec::end_to_end(spec::OPS_PER_S).unwrap();
        assert!(regressed(ops, 400.0, 300.0));
        assert!(!regressed(ops, 400.0, 500.0));
        let p50 = spec::end_to_end(spec::UNIT_MS_P50).unwrap();
        assert!(regressed(p50, 2.0, 3.0));
        assert!(!regressed(p50, 2.0, 1.0));
    }

    #[test]
    fn absolute_floors_forgive_small_absolute_moves() {
        // Set-up tripling from 50 ms to 150 ms is under the 0.25 s floor.
        assert!(compare(&set(400.0, 2.4, 0.05, "d"), &set(400.0, 2.4, 0.15, "d")).passed());
        assert!(!compare(&set(400.0, 2.4, 2.0, "d"), &set(400.0, 2.4, 2.6, "d")).passed());
        let failed = spec::end_to_end(spec::FAILED_SHARE).unwrap();
        assert!(!regressed(failed, 0.0, 0.004));
        assert!(regressed(failed, 0.5, 0.506));
    }

    #[test]
    fn digest_and_missing_metrics_fail() {
        let base = set(400.0, 2.4, 0.05, "d");
        assert!(!compare(&base, &set(400.0, 2.4, 0.05, "other")).passed());
        // A different seed is allowed a different digest.
        let mut reseeded = set(400.0, 2.4, 0.05, "other");
        reseeded.meta.seed = 2;
        assert!(compare(&base, &reseeded).passed());

        let mut short = base.clone();
        short.workloads[0].metrics.pop();
        let c = compare(&base, &short);
        assert!(
            c.failures.iter().any(|f| f.contains("missing from B")),
            "{:?}",
            c.failures
        );
        let c = compare(&short, &base);
        assert!(
            c.failures.iter().any(|f| f.contains("missing from A")),
            "{:?}",
            c.failures
        );

        let mut gone = base.clone();
        gone.workloads.clear();
        assert!(!compare(&base, &gone).passed());
    }
}
