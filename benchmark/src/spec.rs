//! The benchmark's names: workloads, metrics, units, directions, bounds.
//!
//! `BENCHMARK.json` at the repository root states the same names for the
//! driver; `tests/spec.rs` keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload and the one-line reason it was chosen.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "fig5-large",
        why: "the paper's headline blame PDFs on a 33,870-router world: the read-only query path (probe_evidence, path_up_at, core::blame), no queue, crypto, MLE or daemon",
    },
    WorkloadSpec {
        name: "fig4-large",
        why: "builds that world per op, then forest coverage: topology::generate, BFS, build_overlay, cert issue, ProbeTree, the failure process on a deep EventQueue; where memory shows",
    },
    WorkloadSpec {
        name: "dst-sweep",
        why: "standard grid x seeds on the small DST world: the full send-ack-blame-verdict-accuse-store pipeline (sim engine, core, crypto, strict MLE, obs emit), almost no world build",
    },
    WorkloadSpec {
        name: "fuzz-bottleneck",
        why: "the same episode engine used differently: mutated configs from all seven families, traces retained and folded into coverage, sparse probing so tolerant MLE and ambiguity classes work",
    },
    WorkloadSpec {
        name: "serve-steady",
        why: "daemon at 1.0x saturation, under 2% shed: the admit-batch-verdict-journal-append path (serve mailbox, journal, state, daemon; core blame and verdict)",
    },
    WorkloadSpec {
        name: "serve-overload",
        why: "daemon at 2.0x: half the reports are shed and each shed journals a flight tail, so a change that helps the admit path but taxes the refusal path shows in the pair",
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An end-to-end metric and the bound `compare` holds it to: a regression
/// is a move in the worse direction by more than
/// `max(rel_bound × base, abs_floor)`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub rel_bound: f64,
    pub abs_floor: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const OPS_PER_S: &str = "ops_per_s";
pub const UNIT_MS_P50: &str = "unit_ms_p50";
pub const UNIT_MS_P99: &str = "unit_ms_p99";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";
pub const FAILED_SHARE: &str = "failed_share";

/// The end-to-end metrics of a result set. `BENCHMARK.json` lists the four
/// the driver can gate (`setup_s`, `ops_per_s`, `unit_ms_p50`,
/// `peak_rss_mb`); `failed_share` is zero on four workloads, which the driver
/// does not allow, and reaches it as `failed ÷ attempted`.
///
/// `unit_ms_p99` is not here. It exists only on workloads that time at
/// least 1,000 units, and on `serve-*` it did not repeat within a tenth
/// between two runs of one commit,
/// so by the rule this benchmark was defined under it is a per-layer metric:
/// reported, never gated.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        rel_bound: 0.25,
        abs_floor: 0.25,
    },
    EndToEnd {
        name: OPS_PER_S,
        unit: "op/s",
        better: Better::Higher,
        rel_bound: 0.15,
        abs_floor: 0.0,
    },
    EndToEnd {
        name: UNIT_MS_P50,
        unit: "ms",
        better: Better::Lower,
        rel_bound: 0.15,
        abs_floor: 0.0,
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MB",
        better: Better::Lower,
        rel_bound: 0.15,
        abs_floor: 0.0,
    },
    EndToEnd {
        name: FAILED_SHARE,
        unit: "ratio",
        better: Better::Lower,
        rel_bound: 0.0,
        abs_floor: 0.005,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The end-to-end metrics the driver gates, in `BENCHMARK.json` order.
pub const DRIVER_END_TO_END: [&str; 4] = [SETUP_S, OPS_PER_S, UNIT_MS_P50, PEAK_RSS_MB];

/// A per-layer metric. No bound: it explains, it does not gate.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Kernels timed from the harness around calls into public functions; the
/// same on every workload (inputs come from the named workloads' worlds).
pub const KERNELS: [PerLayer; 46] = [
    hi("crypto.sha256_mb_per_s", "MB/s"),
    lo("crypto.sha256_64b_ns", "ns"),
    lo("crypto.sign_us", "us"),
    lo("crypto.verify_us", "us"),
    lo("crypto.verify_cached_hit_ns", "ns"),
    hi("crypto.memo_hit_ratio", "ratio"),
    lo("topology.generate_ms", "ms"),
    lo("topology.bfs_ms", "ms"),
    hi("topology.path_cache_hit_ratio", "ratio"),
    lo("overlay.build_ms", "ms"),
    lo("overlay.route_ns", "ns"),
    lo("tomography.infer_batch_us", "us"),
    lo("tomography.infer_tolerant_batch_us", "us"),
    lo("tomography.tree_build_us", "us"),
    lo("tomography.ambiguity_us", "us"),
    lo("sim.queue_shallow_ns_per_op", "ns"),
    lo("sim.queue_deep_ns_per_op", "ns"),
    lo("sim.world_build_ms", "ms"),
    lo("sim.probe_evidence_ns", "ns"),
    lo("sim.path_up_ns", "ns"),
    lo("sim.route_fate_ns", "ns"),
    lo("sim.episode_ms_transparent", "ms"),
    lo("sim.episode_ms_lossy", "ms"),
    lo("sim.episode_ms_churning", "ms"),
    lo("sim.episode_ms_byzantine", "ms"),
    hi("sim.events_per_s", "1/s"),
    lo("core.blame_ns", "ns"),
    lo("core.verdict_push_ns", "ns"),
    lo("core.accusation_build_us", "us"),
    lo("core.accusation_verify_us", "us"),
    lo("core.ack_cycle_ns", "ns"),
    lo("core.dht_insert_us", "us"),
    lo("obs.emit_ns_per_event", "ns"),
    lo("obs.hasher_ns_per_event", "ns"),
    lo("obs.coverage_us_per_episode", "us"),
    lo("par.task_overhead_ns", "ns"),
    hi("par.speedup_j2", "x"),
    hi("serve.journal_append_mb_per_s", "MB/s"),
    hi("serve.journal_scan_mb_per_s", "MB/s"),
    hi("serve.recover_records_per_s", "1/s"),
    lo("serve.mailbox_cycle_ns", "ns"),
    lo("serve.state_apply_ns", "ns"),
    lo("serve.journal_bytes_per_report", "B"),
    lo("bench.fig4_ms", "ms"),
    lo("bench.fig5a_us_per_judgment", "us"),
    lo("bench.fig5b_us_per_judgment", "us"),
];

/// Measured by the traced run of one workload.
pub const TRACED: [PerLayer; 5] = [
    lo("trace_overhead_share", "ratio"),
    lo("alloc.count_per_op", "count"),
    lo("alloc.bytes_per_op", "B"),
    lo("unattributed_share", "ratio"),
    lo(UNIT_MS_P99, "ms"),
];

/// The spans the crates already emit, passed through unmodified as
/// `span.<name>.self_ms` and `span.<name>.calls`.
pub const CRATE_SPANS: [&str; 11] = [
    "world.build",
    "topo.bfs",
    "episode.run",
    "episode.send",
    "episode.ack",
    "episode.judge",
    "tomo.infer",
    "sig.verify",
    "chain.verify",
    "fuzz.run",
    "par.task",
];

/// Crate spans that wrap a whole op or task rather than a phase of one:
/// time that is theirs alone is not attributed to any layer.
pub const DRIVER_SPANS: [&str; 3] = ["episode.run", "fuzz.run", "par.task"];

/// Every per-layer metric as `(name, unit, better)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut all: Vec<(String, &'static str, Better)> = KERNELS
        .iter()
        .chain(&TRACED)
        .map(|m| (m.name.to_string(), m.unit, m.better))
        .collect();
    for span in CRATE_SPANS {
        all.push((format!("span.{span}.self_ms"), "ms", Better::Lower));
        all.push((format!("span.{span}.calls"), "count", Better::Lower));
    }
    all
}

/// The unit of any metric this benchmark reports.
pub fn unit_of(name: &str) -> Option<&'static str> {
    if let Some(m) = end_to_end(name) {
        return Some(m.unit);
    }
    if let Some(m) = KERNELS.iter().chain(&TRACED).find(|m| m.name == name) {
        return Some(m.unit);
    }
    let (span, unit) = match name.strip_prefix("span.")? {
        s if s.ends_with(".self_ms") => (s.strip_suffix(".self_ms")?, "ms"),
        s => (s.strip_suffix(".calls")?, "count"),
    };
    CRATE_SPANS.contains(&span).then_some(unit)
}
