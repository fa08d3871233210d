//! The `--smoke` size: about 1% of each workload on the small test world.
//! Runs all six workloads, every correctness check, the traced passes and
//! every kernel through the two binaries, as the driver would.

use std::path::PathBuf;
use std::process::Command;

use concilium_benchmark::result::{ResultSet, WorkloadResult, DETAIL_PREFIX};
use concilium_benchmark::spec;
use concilium_obs::json::{self, Json};

const UNTRACED: &str = env!("CARGO_BIN_EXE_concilium-benchmark");
const TRACED: &str = env!("CARGO_BIN_EXE_concilium-benchmark-traced");

/// Runs `bin` and returns (its whole result, the metric names of its last
/// stdout line).
fn run(bin: &str, workload: &str, trace: &str, seed: &str) -> (WorkloadResult, Vec<String>) {
    let out = Command::new(bin)
        .args([
            "--workload",
            workload,
            "--seed",
            seed,
            "--seconds",
            "10",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload}: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .expect("a detail line");
    let last = json::parse(stdout.lines().last().unwrap()).expect("the last line is JSON");
    let keys: Vec<&str> = last.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(last.get("failed").and_then(Json::as_num), Some(0.0));
    assert!(last.get("attempted").and_then(Json::as_num).unwrap() >= 1.0);
    let names = last
        .get("metrics")
        .unwrap()
        .as_obj()
        .unwrap()
        .keys()
        .cloned()
        .collect();
    (WorkloadResult::from_line(detail).unwrap(), names)
}

fn sorted(names: impl IntoIterator<Item = String>) -> Vec<String> {
    let mut v: Vec<String> = names.into_iter().collect();
    v.sort();
    v
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_end_to_end_metric() {
    for w in &spec::WORKLOADS {
        let (result, names) = run(UNTRACED, w.name, "0", "11");
        assert!(
            result.correct && result.failures.is_empty(),
            "{}: {:?}",
            w.name,
            result.failures
        );
        assert_eq!(
            names,
            sorted(spec::DRIVER_END_TO_END.map(String::from)),
            "{}",
            w.name
        );
        for m in &result.metrics {
            assert!(m.value.is_finite(), "{} {}", w.name, m.name);
        }
        for name in spec::DRIVER_END_TO_END {
            assert!(
                result.metric(name).unwrap().value > 0.0,
                "{} {name} must never be 0",
                w.name
            );
        }
        assert!(result.metric(spec::FAILED_SHARE).is_some());
        // Same seed, same simulated statistics; another seed, other ones.
        assert_eq!(
            run(UNTRACED, w.name, "0", "11").0.sim_digest,
            result.sim_digest,
            "{}",
            w.name
        );
        assert_ne!(
            run(UNTRACED, w.name, "0", "12").0.sim_digest,
            result.sim_digest,
            "{}",
            w.name
        );
    }
}

#[test]
fn a_traced_run_reports_every_per_layer_metric() {
    let all = sorted(spec::per_layer().into_iter().map(|(n, _, _)| n));
    for w in &spec::WORKLOADS {
        let (result, names) = run(TRACED, w.name, "1", "11");
        assert!(result.correct, "{}: {:?}", w.name, result.failures);
        assert_eq!(names, all, "{}", w.name);
        assert!(
            result.metric(spec::OPS_PER_S).is_none(),
            "end-to-end metrics never come from a traced run"
        );
        let calls = |span: &str| result.metric(&format!("span.{span}.calls")).unwrap().value;
        // Each workload runs its intended layers and bypasses the others.
        match w.name {
            "dst-sweep" | "fuzz-bottleneck" => {
                assert!(calls("episode.run") > 0.0 && calls("world.build") == 0.0)
            }
            "fig4-large" => assert!(calls("world.build") > 0.0 && calls("episode.run") == 0.0),
            _ => assert!(
                calls("episode.run") == 0.0 && calls("tomo.infer") == 0.0,
                "{}",
                w.name
            ),
        }
        let trace = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.jsonl", w.name));
        let first = std::fs::read_to_string(&trace)
            .unwrap()
            .lines()
            .next()
            .map(json::parse)
            .unwrap()
            .unwrap();
        assert_eq!(first.get("name").and_then(Json::as_str), Some("workload"));
        assert_eq!(first.get("parent"), Some(&Json::Null));
    }
}

#[test]
fn all_writes_a_result_set_that_compares_equal_to_itself() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-all");
    let status = Command::new(UNTRACED)
        .args(["all", "--smoke", "--seed", "11", "--out"])
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .status()
        .unwrap();
    assert!(status.success());
    let path = out.join("results.json");
    let set = ResultSet::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert!(
        set.meta.smoke && set.meta.seed == 11 && set.meta.nproc >= 1 && !set.meta.rustc.is_empty()
    );
    let names: Vec<&str> = set.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, spec::WORKLOADS.map(|w| w.name));
    let compared = Command::new(UNTRACED)
        .arg("compare")
        .arg(&path)
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        compared.status.success(),
        "{}",
        String::from_utf8_lossy(&compared.stdout)
    );
}

#[test]
fn bad_arguments_fail_with_a_named_error() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds"],
        &["compare", "one.json"],
        &[],
    ] {
        let out = Command::new(UNTRACED).args(args).output().unwrap();
        if args.is_empty() {
            assert!(out.status.success(), "no arguments prints the usage");
        } else {
            assert!(!out.status.success());
            assert!(String::from_utf8_lossy(&out.stderr).contains("concilium-benchmark:"));
        }
    }
}
