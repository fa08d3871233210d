//! `BENCHMARK.json` and `src/spec.rs` say the same thing, within the limits
//! the driver's contract sets.

use std::collections::BTreeSet;

use concilium_benchmark::spec;
use concilium_obs::json::{self, Json};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("string `{key}`"))
}

fn entries<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    v.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("array `{key}`"))
}

/// A name as the contract wants it: starts with a letter or digit, then
/// letters, digits, `_`, `.`, `-`; at most 64 characters.
fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(ok)
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

#[test]
fn every_name_and_unit_is_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    for w in &spec::WORKLOADS {
        assert!(is_name(w.name), "workload {}", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "why of {} is {} long",
            w.name,
            w.why.len()
        );
        assert!(seen.insert(w.name.to_string()), "{} used twice", w.name);
    }
    for m in &spec::END_TO_END {
        assert!(
            is_name(m.name) && is_unit(m.unit),
            "{} [{}]",
            m.name,
            m.unit
        );
        assert!(m.rel_bound <= 0.25);
    }
    let mut metrics = BTreeSet::new();
    for name in spec::DRIVER_END_TO_END {
        assert!(metrics.insert(name.to_string()));
    }
    for (name, unit, _) in spec::per_layer() {
        assert!(is_name(&name) && is_unit(unit), "{name} [{unit}]");
        assert!(metrics.insert(name.clone()), "{name} used twice");
    }
    assert!(spec::per_layer().len() <= 128);
}

#[test]
fn benchmark_json_matches_the_spec() {
    let b = benchmark_json();
    let keys: Vec<&str> = b.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let paths: Vec<&str> = entries(&b, "paths")
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = entries(&b, "command")
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert_eq!(command[0], "cargo");
    assert!(command.contains(&"benchmark/Cargo.toml") && command.last() == Some(&"--"));
    let seconds = b.get("run_seconds").and_then(Json::as_num).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let workloads = entries(&b, "workloads");
    assert_eq!(workloads.len(), spec::WORKLOADS.len());
    for (listed, w) in workloads.iter().zip(&spec::WORKLOADS) {
        assert_eq!((text(listed, "name"), text(listed, "why")), (w.name, w.why));
        assert_eq!(listed.as_obj().unwrap().len(), 2);
    }

    let end_to_end = entries(&b, "end_to_end");
    assert_eq!(end_to_end.len(), spec::DRIVER_END_TO_END.len());
    for (listed, name) in end_to_end.iter().zip(spec::DRIVER_END_TO_END) {
        let m = spec::end_to_end(name).unwrap();
        assert_eq!(text(listed, "name"), m.name);
        assert_eq!(text(listed, "unit"), m.unit);
        assert_eq!(text(listed, "better"), m.better.name());
        assert_eq!(
            listed.get("bound").and_then(Json::as_num),
            Some(m.rel_bound),
            "{name}"
        );
        assert_eq!(listed.as_obj().unwrap().len(), 4);
    }
    assert!(end_to_end
        .iter()
        .any(|m| text(m, "name") == "setup_s" && text(m, "better") == "lower"));

    let per_layer = entries(&b, "per_layer");
    let spec_layers = spec::per_layer();
    assert_eq!(per_layer.len(), spec_layers.len());
    for (listed, (name, unit, better)) in per_layer.iter().zip(&spec_layers) {
        assert_eq!(text(listed, "name"), name);
        assert_eq!(text(listed, "unit"), *unit);
        assert_eq!(text(listed, "better"), better.name());
        assert_eq!(listed.as_obj().unwrap().len(), 3);
    }
}
