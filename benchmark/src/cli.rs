//! Command-line parsing shared by the two binaries.

use std::path::PathBuf;

use crate::spec;
use crate::workloads::Size;

pub const DEFAULT_SEED: u64 = 2007;
pub const DEFAULT_SECONDS: u64 = 10;

pub const USAGE: &str = "\
usage: concilium-benchmark all [--seed N] [--seconds S] [--traced] [--smoke] [--out DIR]
       concilium-benchmark compare A.json B.json
       concilium-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]

  all        run every workload, each in its own process, check outputs and
             print every metric; with --traced also run the traced binary
             for the per-layer metrics. Result sets go to DIR (default
             benchmark/out/) as results.json and results-traced.json.
  compare    exit non-zero when B is worse than A by more than a metric's
             bound, a sim_digest differs for the same seed, or a metric is
             missing from one side.
  --workload run one workload in this process and print one JSON result
             line: end-to-end metrics with --trace 0, per-layer with
             --trace 1.
  --seconds  nominal length of a workload's timed section (work scales
             with it; default 10).
  --smoke    about 1% of the work on small worlds: a self-test, not a
             measurement.";

/// How hard the traced binary works on the per-layer kernels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kernels {
    /// Skip them (the `all` launcher runs them once, on their own).
    Off,
    /// Short repetitions, so a `--trace 1` run stays near `--seconds`.
    Quick,
    /// At least 0.2 s per repetition, median of five.
    Full,
}

/// The settings of one workload run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    pub kernels: Kernels,
}

impl RunArgs {
    pub fn size(&self) -> Size {
        if self.smoke {
            Size::smoke()
        } else {
            Size::from_seconds(self.seconds)
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    All {
        seed: u64,
        seconds: u64,
        traced: bool,
        smoke: bool,
        out: Option<PathBuf>,
    },
    Compare {
        a: PathBuf,
        b: PathBuf,
    },
    Run(RunArgs),
    Help,
}

/// The pseudo-workload that runs only the kernels (traced binary).
pub const KERNELS_ONLY: &str = "kernels";

pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().map(String::as_str).peekable();
    let mode = match it.peek() {
        None | Some(&"--help") | Some(&"-h") => return Ok(Command::Help),
        Some(&"all") | Some(&"compare") => it.next(),
        Some(_) => None,
    };
    if mode == Some("compare") {
        let paths: Vec<&str> = it.collect();
        return match paths.as_slice() {
            [a, b] => Ok(Command::Compare {
                a: a.into(),
                b: b.into(),
            }),
            _ => Err("compare takes exactly two result sets".to_string()),
        };
    }

    let (mut seed, mut seconds) = (DEFAULT_SEED, DEFAULT_SECONDS);
    let (mut traced, mut smoke) = (false, false);
    let mut kernels = Kernels::Quick;
    let (mut workload, mut out) = (None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag {
            "--seed" => seed = number(flag, value()?)?,
            "--seconds" => {
                seconds = number(flag, value()?)?;
                if !(1..=60).contains(&seconds) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
            }
            "--workload" => workload = Some(value()?.to_string()),
            "--out" => out = Some(PathBuf::from(value()?)),
            "--trace" => {
                traced = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--kernels" => {
                kernels = match value()? {
                    "off" => Kernels::Off,
                    "quick" => Kernels::Quick,
                    "full" => Kernels::Full,
                    other => {
                        return Err(format!("--kernels takes off, quick or full, got {other}"))
                    }
                }
            }
            "--traced" => traced = true,
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }

    match (mode, workload) {
        (Some(_), None) => Ok(Command::All {
            seed,
            seconds,
            traced,
            smoke,
            out,
        }),
        (Some(_), Some(_)) => Err("`all` runs every workload; drop --workload".to_string()),
        (None, Some(workload)) => {
            if workload != KERNELS_ONLY && spec::workload(&workload).is_none() {
                let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                return Err(format!(
                    "unknown workload `{workload}`; one of {}",
                    names.join(", ")
                ));
            }
            Ok(Command::Run(RunArgs {
                workload,
                seed,
                seconds,
                trace: traced,
                smoke,
                kernels,
            }))
        }
        (None, None) => Err("nothing to do: give `all`, `compare` or --workload".to_string()),
    }
}

fn number(flag: &str, text: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| format!("invalid {flag} value: {text}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_invocation() {
        let cmd = parse(&args(
            "--workload dst-sweep --seed 9 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Run(RunArgs {
                workload: "dst-sweep".into(),
                seed: 9,
                seconds: 12,
                trace: true,
                smoke: false,
                kernels: Kernels::Quick,
            })
        );
    }

    #[test]
    fn parses_all_and_compare() {
        assert_eq!(
            parse(&args("all --seed 5 --traced")).unwrap(),
            Command::All {
                seed: 5,
                seconds: DEFAULT_SECONDS,
                traced: true,
                smoke: false,
                out: None
            }
        );
        assert_eq!(
            parse(&args("compare a.json b.json")).unwrap(),
            Command::Compare {
                a: "a.json".into(),
                b: "b.json".into()
            }
        );
    }

    #[test]
    fn names_what_is_wrong() {
        assert!(parse(&args("--workload nope"))
            .unwrap_err()
            .contains("unknown workload"));
        assert!(parse(&args("--seed"))
            .unwrap_err()
            .contains("requires a value"));
        assert!(parse(&args("--seconds 0 --workload dst-sweep"))
            .unwrap_err()
            .contains("between"));
        assert!(parse(&args("compare only-one.json"))
            .unwrap_err()
            .contains("two"));
        assert!(parse(&args("--frobnicate"))
            .unwrap_err()
            .contains("unknown argument"));
    }
}
