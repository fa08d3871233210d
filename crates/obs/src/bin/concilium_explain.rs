//! `concilium-explain` — "why did my message die?" as a deterministic
//! query over a `--trace-out` JSONL trace.
//!
//! Builds the causal index (per-entity timelines + cause→effect links)
//! over each episode stream in the file and renders the full causal
//! chain behind a terminal outcome — send → fault → retry → expiry →
//! blame (with its Eq. 2 evidence window) → verdict → accusation →
//! store for episodes, admit → complete → commit or shed for the
//! daemon:
//!
//! ```text
//! concilium-explain trace.jsonl message:3 --episode lossy --seed 7
//! concilium-explain trace.jsonl blame:4 --json
//! concilium-explain trace.jsonl shed:9
//! ```
//!
//! Output is a pure function of the trace bytes: two byte-identical
//! traces explain to byte-identical output, which is what lets CI
//! byte-compare `--json` answers across `--jobs 1` and `--jobs 4`
//! sweeps. Fuzz traces of bottleneck worlds carry `meta-ambiguity`
//! sidecar lines (the tomography identifiability partition per judge);
//! when present, the explanation names the `AmbiguityClasses` link set
//! the verdict was confined to.

use std::io::Read as _;
use std::process::ExitCode;

use concilium_obs::json::{self, Json};
use concilium_obs::{explain, AmbiguityNote, CausalIndex, ExplainQuery, Explanation};

const USAGE: &str = "\
usage: concilium-explain <FILE|-> <message|blame|shed>:<ID> [options]

Answer `why?` for one entity against a --trace-out JSONL trace:
  message:<id>   why did this message die (or survive)?
  blame:<host>   why does this host stand accused?
  shed:<report>  why was this report shed (or how was it served)?
The spaced spelling (`message 3`) is accepted as well.

options:
  --episode NAME   only explain within this episode arm
  --seed SEED      only explain within this seed
  --json           render canonical JSON (one line per episode stream)
  --orphans        also check the causal-reachability invariant and
                   report orphan terminal events (exit 1 if any)
  -h, --help       show this help
";

struct Options {
    input: String,
    query: ExplainQuery,
    episode: Option<String>,
    seed: Option<String>,
    json_out: bool,
    orphans: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut positional = Vec::new();
    let mut episode = None;
    let mut seed = None;
    let mut json_out = false;
    let mut orphans = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().cloned().ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--episode" => episode = Some(value("--episode")?),
            "--seed" => seed = Some(value("--seed")?),
            "--json" => json_out = true,
            "--orphans" => orphans = true,
            other if other.starts_with('-') && other != "-" => {
                return Err(format!("unknown option `{other}`"))
            }
            other => positional.push(other.to_string()),
        }
    }
    let (input, query) = match positional.len() {
        3 => {
            let query = ExplainQuery::parse(&positional[1], &positional[2])
                .ok_or_else(|| {
                    format!(
                        "unknown query `{} {}` (want message/blame/shed <id>)",
                        positional[1], positional[2]
                    )
                })?;
            (positional.remove(0), query)
        }
        2 => {
            let query = ExplainQuery::parse_token(&positional[1]).ok_or_else(|| {
                format!("unknown query `{}` (want e.g. message:3)", positional[1])
            })?;
            (positional.remove(0), query)
        }
        _ => {
            return Err(
                "expected <FILE|-> and a query (message:<id> | blame:<host> | shed:<report>)"
                    .to_string(),
            )
        }
    };
    Ok(Options { input, query, episode, seed, json_out, orphans })
}

/// One episode stream of the trace file, keyed by its `episode`/`seed`
/// annotations (empty strings when absent).
struct Stream {
    episode: String,
    seed: String,
    index: CausalIndex,
    /// `meta-ambiguity` sidecar partitions: (judge, classes).
    ambiguity: Vec<(u64, Vec<Vec<u64>>)>,
}

fn load_streams(opts: &Options) -> Result<Vec<Stream>, String> {
    let text = if opts.input == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("reading stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(&opts.input)
            .map_err(|e| format!("reading {}: {e}", opts.input))?
    };
    let mut streams: Vec<Stream> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line)
            .map_err(|e| format!("{} line {}: {e}", opts.input, lineno + 1))?;
        let episode = v.get("episode").and_then(Json::as_str).unwrap_or("").to_string();
        let seed = v.get("seed").and_then(Json::as_str).unwrap_or("").to_string();
        if let Some(want) = &opts.episode {
            if &episode != want {
                continue;
            }
        }
        if let Some(want) = &opts.seed {
            if &seed != want {
                continue;
            }
        }
        // Streams appear in file order — a pure function of the bytes.
        let stream = match streams.iter_mut().find(|s| s.episode == episode && s.seed == seed)
        {
            Some(s) => s,
            None => {
                streams.push(Stream {
                    episode,
                    seed,
                    index: CausalIndex::new(),
                    ambiguity: Vec::new(),
                });
                streams.last_mut().unwrap_or_else(|| unreachable!("just pushed"))
            }
        };
        let kind = v.get("kind").and_then(Json::as_str).unwrap_or("");
        if kind == "meta-ambiguity" {
            let judge = v.get("judge").and_then(Json::as_num).map(|n| n as u64);
            let classes = v.get("classes").and_then(Json::as_arr).map(|cs| {
                cs.iter()
                    .map(|c| {
                        c.as_arr()
                            .unwrap_or(&[])
                            .iter()
                            .filter_map(Json::as_num)
                            .map(|n| n as u64)
                            .collect::<Vec<u64>>()
                    })
                    .collect::<Vec<Vec<u64>>>()
            });
            if let (Some(judge), Some(classes)) = (judge, classes) {
                stream.ambiguity.push((judge, classes));
            }
            continue;
        }
        if let Some((traced, _, _)) = concilium_obs::traced_from_json_line(&v) {
            stream.index.push(traced);
        }
        // Unknown kinds are skipped: never invent an event.
    }
    Ok(streams)
}

/// Attaches the identifiability partition to an explanation: for each
/// chain with blame evidence, the sidecar class (of the chain's judge)
/// containing an evidence link, when that class is genuinely ambiguous
/// (more than one link).
fn attach_ambiguity(stream: &Stream, ex: &mut Explanation) {
    for chain in &ex.chains {
        let Some(judge) = chain.judge else { continue };
        for (j, classes) in &stream.ambiguity {
            if *j != judge {
                continue;
            }
            for class in classes {
                if class.len() < 2 {
                    continue;
                }
                let hit = chain.evidence.iter().any(|l| class.contains(&l.link));
                let dup = ex
                    .ambiguity
                    .iter()
                    .any(|n| n.judge == judge && n.class == *class);
                if hit && !dup {
                    ex.ambiguity.push(AmbiguityNote { judge, class: class.clone() });
                }
            }
        }
    }
}

fn run(opts: &Options) -> Result<bool, String> {
    let streams = load_streams(opts)?;
    let mut found_any = false;
    let mut orphan_count = 0usize;
    let mut out = String::new();
    for stream in &streams {
        let mut ex = explain(&stream.index, &opts.query);
        if opts.orphans {
            for (i, reason) in stream.index.orphan_terminals() {
                orphan_count += 1;
                if !opts.json_out {
                    out.push_str(&format!(
                        "orphan in {}#{}: {} — {}\n",
                        stream.episode,
                        stream.seed,
                        stream.index.events()[i].render(),
                        reason
                    ));
                }
            }
        }
        if !ex.found() {
            continue;
        }
        found_any = true;
        attach_ambiguity(stream, &mut ex);
        if opts.json_out {
            out.push_str(&format!(
                "{{\"episode\":{},\"seed\":{},\"explanation\":{}}}\n",
                json::escape(&stream.episode),
                json::escape(&stream.seed),
                ex.render_json()
            ));
        } else {
            if !stream.episode.is_empty() || !stream.seed.is_empty() {
                out.push_str(&format!("== {}#{} ==\n", stream.episode, stream.seed));
            }
            out.push_str(&ex.render_text());
            out.push('\n');
        }
    }
    if !found_any {
        let entity = opts.query.entity();
        if opts.json_out {
            out.push_str(&format!(
                "{{\"query\":{},\"entity\":{},\"found\":false}}\n",
                json::escape(&opts.query.token()),
                json::escape(&entity.to_string())
            ));
        } else {
            out.push_str(&format!(
                "explain {}: no events about {entity} in {} stream(s)\n",
                opts.query.token(),
                streams.len()
            ));
        }
    }
    print!("{out}");
    if orphan_count > 0 {
        eprintln!(
            "concilium-explain: causal-reachability violated: {orphan_count} orphan terminal event(s)"
        );
        return Ok(false);
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(opts) => match run(&opts) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("concilium-explain: {e}");
                ExitCode::FAILURE
            }
        },
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("concilium-explain: {msg}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
