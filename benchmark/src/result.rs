//! Result sets: what a run of the benchmark writes and `compare` reads.

use std::fmt::Write as _;

use concilium_obs::json::{self, Json};

/// Marks the stdout line on which a run prints its whole [`WorkloadResult`].
pub const DETAIL_PREFIX: &str = "detail: ";

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    /// A metric this benchmark defines, with the unit `spec` gives it.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the spec: every reported name is.
    pub fn measured(name: impl Into<String>, value: f64) -> Self {
        let name = name.into();
        let unit = crate::spec::unit_of(&name)
            .unwrap_or_else(|| panic!("metric {name} is not in the spec"));
        Metric::new(name, value, unit)
    }

    pub fn new(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// One workload's run.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct WorkloadResult {
    pub name: String,
    /// Every correctness check passed.
    pub correct: bool,
    pub ops_attempted: u64,
    /// Ops whose output failed a check.
    pub ops_failed: u64,
    /// Ops the system refused as designed (shed reports).
    pub ops_refused: u64,
    /// Ops per timed unit.
    pub unit_ops: u64,
    /// Timed units (the sample count behind `unit_ms_*`).
    pub units: u64,
    /// Set-ups timed (the sample count behind `setup_s`).
    pub setup_samples: u64,
    /// SHA-256 over the workload's simulated statistics.
    pub sim_digest: String,
    /// What each failed check said.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl WorkloadResult {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the metrics being exactly `names`, in that order.
    /// Refusals are not failures here — a shed report is the daemon's
    /// correct answer to overload.
    ///
    /// # Panics
    ///
    /// Panics if a named metric was not measured: the driver must never be
    /// handed a partial result.
    pub fn driver_line<'a>(&self, names: impl IntoIterator<Item = &'a str>) -> String {
        let metrics: Vec<Metric> = names
            .into_iter()
            .map(|n| {
                self.metric(n)
                    .unwrap_or_else(|| panic!("{}: metric {n} was not measured", self.name))
                    .clone()
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.ops_attempted.max(1),
            self.ops_failed,
            metrics_json(&metrics)
        )
    }

    /// Prints what a run hands its caller: the whole result for the `all`
    /// launcher, then the driver's line, last. Failed checks go to stderr.
    pub fn emit<'a>(&self, names: impl IntoIterator<Item = &'a str>) {
        for failure in &self.failures {
            eprintln!("{}: CHECK FAILED: {failure}", self.name);
        }
        println!("{DETAIL_PREFIX}{}", self.to_line());
        println!("{}", self.driver_line(names));
    }

    fn to_json(&self, indent: &str) -> String {
        let failures: Vec<String> = self.failures.iter().map(|f| json::escape(f)).collect();
        format!(
            "{indent}{{\"name\": {}, \"correct\": {}, \"ops_attempted\": {}, \"ops_failed\": {}, \
             \"ops_refused\": {}, \"unit_ops\": {}, \"units\": {}, \"setup_samples\": {}, \
             \"sim_digest\": {}, \"failures\": [{}],\n{indent} \"metrics\": {}}}",
            json::escape(&self.name),
            self.correct,
            self.ops_attempted,
            self.ops_failed,
            self.ops_refused,
            self.unit_ops,
            self.units,
            self.setup_samples,
            json::escape(&self.sim_digest),
            failures.join(", "),
            metrics_json(&self.metrics)
        )
    }

    /// One line of JSON holding the whole result (a child process hands its
    /// result to the `all` launcher this way).
    pub fn to_line(&self) -> String {
        self.to_json("").replace('\n', "")
    }

    pub fn from_json(v: &Json) -> Result<WorkloadResult, String> {
        let mut metrics = Vec::new();
        for (name, m) in v
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("workload without metrics")?
        {
            metrics.push(Metric {
                name: name.clone(),
                value: num(m, "value")?,
                unit: text(m, "unit")?,
            });
        }
        let failures = v
            .get("failures")
            .and_then(Json::as_arr)
            .ok_or("workload without failures")?
            .iter()
            .map(|f| {
                f.as_str()
                    .map(str::to_string)
                    .ok_or("failure is not a string")
            })
            .collect::<Result<_, _>>()?;
        Ok(WorkloadResult {
            name: text(v, "name")?,
            correct: matches!(v.get("correct"), Some(Json::Bool(true))),
            ops_attempted: num(v, "ops_attempted")? as u64,
            ops_failed: num(v, "ops_failed")? as u64,
            ops_refused: num(v, "ops_refused")? as u64,
            unit_ops: num(v, "unit_ops")? as u64,
            units: num(v, "units")? as u64,
            setup_samples: num(v, "setup_samples")? as u64,
            sim_digest: text(v, "sim_digest")?,
            failures,
            metrics,
        })
    }

    pub fn from_line(line: &str) -> Result<WorkloadResult, String> {
        WorkloadResult::from_json(&json::parse(line).map_err(|e| e.to_string())?)
    }
}

/// Where and how a result set was measured.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Meta {
    pub commit: String,
    pub rustc: String,
    pub nproc: u64,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub smoke: bool,
}

impl Meta {
    /// Records the host, toolchain and commit of this run. A checkout
    /// without git history reports the commit as `unknown`.
    pub fn capture(seed: u64, seconds: u64, traced: bool, smoke: bool) -> Meta {
        let manifest_dir = env!("CARGO_MANIFEST_DIR");
        Meta {
            commit: command_line("git", &["-C", manifest_dir, "rev-parse", "HEAD"]),
            rustc: command_line("rustc", &["--version"]),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            seed,
            seconds,
            traced,
            smoke,
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every workload's result from one invocation of `all`.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ResultSet {
    pub meta: Meta,
    pub workloads: Vec<WorkloadResult>,
}

impl ResultSet {
    pub fn workload(&self, name: &str) -> Option<&WorkloadResult> {
        self.workloads.iter().find(|w| w.name == name)
    }

    pub fn to_json(&self) -> String {
        let m = &self.meta;
        let workloads: Vec<String> = self.workloads.iter().map(|w| w.to_json("    ")).collect();
        format!(
            "{{\n  \"schema\": 1,\n  \"meta\": {{\"commit\": {}, \"rustc\": {}, \"nproc\": {}, \
             \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"smoke\": {}}},\n  \"workloads\": [\n{}\n  ]\n}}\n",
            json::escape(&m.commit),
            json::escape(&m.rustc),
            m.nproc,
            m.seed,
            m.seconds,
            m.traced,
            m.smoke,
            workloads.join(",\n")
        )
    }

    pub fn from_json(text_in: &str) -> Result<ResultSet, String> {
        let v = json::parse(text_in).map_err(|e| e.to_string())?;
        if num(&v, "schema")? != 1.0 {
            return Err("unknown result-set schema".to_string());
        }
        let m = v.get("meta").ok_or("result set without meta")?;
        let meta = Meta {
            commit: text(m, "commit")?,
            rustc: text(m, "rustc")?,
            nproc: num(m, "nproc")? as u64,
            seed: num(m, "seed")? as u64,
            seconds: num(m, "seconds")? as u64,
            traced: matches!(m.get("traced"), Some(Json::Bool(true))),
            smoke: matches!(m.get("smoke"), Some(Json::Bool(true))),
        };
        let workloads = v
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("result set without workloads")?
            .iter()
            .map(WorkloadResult::from_json)
            .collect::<Result<_, _>>()?;
        Ok(ResultSet { meta, workloads })
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::escape(&m.name),
            number(m.value),
            json::escape(&m.unit)
        );
    }
    out.push('}');
    out
}

/// A JSON number with all the digits of `v`. JSON has no NaN or infinity;
/// a measurement that produced one is a harness bug worth stopping on.
fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric value must be finite, got {v}");
    format!("{v}")
}

fn num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("missing number `{key}`"))
}

fn text(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string `{key}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ResultSet {
        ResultSet {
            meta: Meta {
                commit: "abc123".into(),
                rustc: "rustc 1.95.0 (\"quoted\")".into(),
                nproc: 2,
                seed: 2007,
                seconds: 10,
                traced: false,
                smoke: true,
            },
            workloads: vec![WorkloadResult {
                name: "dst-sweep".into(),
                correct: false,
                ops_attempted: 4096,
                ops_failed: 3,
                ops_refused: 0,
                unit_ops: 1,
                units: 4096,
                setup_samples: 5,
                sim_digest: "00ff".into(),
                failures: vec!["episode 7: \"violation\"".into()],
                metrics: vec![
                    Metric::new("ops_per_s", 412.062_518_3, "op/s"),
                    Metric::new("unit_ms_p50", 0.000_012_5, "ms"),
                ],
            }],
        }
    }

    #[test]
    fn result_set_round_trips_through_json() {
        let set = sample();
        assert_eq!(ResultSet::from_json(&set.to_json()).unwrap(), set);
    }

    #[test]
    fn workload_line_round_trips_and_is_one_line() {
        let w = sample().workloads.remove(0);
        let line = w.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(WorkloadResult::from_line(&line).unwrap(), w);
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let w = sample().workloads.remove(0);
        let v = json::parse(&w.driver_line(["ops_per_s"])).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("failed").and_then(Json::as_num), Some(3.0));
        let m = v.get("metrics").unwrap().get("ops_per_s").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_num), Some(412.062_518_3));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("op/s"));
        assert_eq!(
            v.get("metrics").unwrap().as_obj().unwrap().len(),
            1,
            "only the named metrics"
        );
    }
}
