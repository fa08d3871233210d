//! `concilium-explain` — "why did my message die?" as a deterministic
//! query over a `--trace-out` JSONL trace, and the one tool that lists
//! such a trace.
//!
//! Builds the causal index (per-entity timelines + cause→effect links)
//! over each episode stream in the file and renders the full causal
//! chain behind a terminal outcome — send → fault → retry → expiry →
//! blame (with its Eq. 2 evidence window) → verdict → accusation →
//! store for episodes, admit → complete → commit or shed for the
//! daemon. The `list` query prints the indexed events themselves,
//! filtered by kind, entity timeline and virtual time:
//!
//! ```text
//! concilium-explain trace.jsonl message:3 --episode lossy --seed 7
//! concilium-explain trace.jsonl blame:4 --json
//! concilium-explain trace.jsonl shed:9
//! concilium-explain trace.jsonl list --kind judge,verdict --id accusation:0
//! ```
//!
//! Output is a pure function of the trace bytes: two byte-identical
//! traces explain to byte-identical output, which is what lets CI
//! byte-compare `--json` answers across `--jobs 1` and `--jobs 4`
//! sweeps, and an unfiltered `list --json` re-serialises a sweep's
//! export byte for byte. Fuzz traces of bottleneck worlds carry
//! `meta-ambiguity` sidecar lines (the tomography identifiability
//! partition per judge); when present, the explanation names the
//! `AmbiguityClasses` link set the verdict was confined to.

use std::collections::BTreeMap;
use std::io::Read as _;
use std::process::ExitCode;

use concilium_obs::json::{self, Json};
use concilium_obs::{explain, AmbiguityNote, CausalIndex, EntityRef, ExplainQuery, Explanation};

const USAGE: &str = "\
usage: concilium-explain <FILE|-> <QUERY> [options]

Answer `why?` for one entity of a JSONL trace export, or list its events:
  message:<id>   why did this message die (or survive)?
  blame:<host>   why does this host stand accused?
  shed:<report>  why was this report shed (or how was it served)?
  list           print the events, narrowed by the list options below

options:
  --episode NAME     only read this episode arm
  --seed SEED        only read this seed
  --json             render canonical JSON (an explanation: one line per
                     episode stream; list: the trace lines themselves)
  --orphans          also check the causal-reachability invariant and
                     report orphan terminal events (exit 1 if any)
  -h, --help         show this help

list options:
  --kind K[,K,...]   only events of these kinds (e.g. judge,verdict)
  --id ENTITY        only events about this entity (message:3, host:4,
                     report:9, flow:1, link:12, accusation:0)
  --after-us T       only events at or after virtual time T (µs)
  --stats            append per-kind counts of the listed events (as text)
";

enum Query {
    Explain(ExplainQuery),
    List,
}

/// The `list` query's filters.
#[derive(Default, PartialEq)]
struct ListFilter {
    kinds: Vec<String>,
    id: Option<EntityRef>,
    after_us: Option<u64>,
    stats: bool,
}

struct Options {
    input: String,
    query: Query,
    episode: Option<String>,
    seed: Option<String>,
    json_out: bool,
    orphans: bool,
    filter: ListFilter,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut positional = Vec::new();
    let mut episode = None;
    let mut seed = None;
    let mut json_out = false;
    let mut orphans = false;
    let mut filter = ListFilter::default();
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
            "--kind" => {
                filter.kinds = value("--kind")?.split(',').map(str::to_string).collect();
            }
            "--id" => {
                let raw = value("--id")?;
                filter.id = Some(EntityRef::parse(&raw).ok_or_else(|| {
                    format!("--id requires kind:id (e.g. message:3, host:4), got `{raw}`")
                })?);
            }
            "--after-us" => {
                let raw = value("--after-us")?;
                let t = raw.parse().map_err(|_| format!("--after-us wants microseconds, got `{raw}`"))?;
                filter.after_us = Some(t);
            }
            "--stats" => filter.stats = true,
            other if other.starts_with('-') && other != "-" => {
                return Err(format!("unknown argument `{other}`"))
            }
            other => positional.push(other.to_string()),
        }
    }
    let [input, query] = <[String; 2]>::try_from(positional).map_err(|_| {
        "expected <FILE|-> and one query (message:<id> | blame:<host> | shed:<report> | list)"
            .to_string()
    })?;
    let query = if query == "list" {
        Query::List
    } else {
        let parsed = ExplainQuery::parse_token(&query)
            .ok_or_else(|| format!("unknown query `{query}` (want e.g. message:3 or list)"))?;
        if filter != ListFilter::default() {
            return Err(format!(
                "--kind, --id, --after-us and --stats apply only to the `list` query, not `{query}`"
            ));
        }
        Query::Explain(parsed)
    };
    Ok(Options { input, query, episode, seed, json_out, orphans, filter })
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

impl Stream {
    /// The `== episode#seed ==` line that opens the stream's text output.
    fn push_header(&self, out: &mut String) {
        if !self.episode.is_empty() || !self.seed.is_empty() {
            out.push_str(&format!("== {}#{} ==\n", self.episode, self.seed));
        }
    }
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
        if opts.episode.as_ref().is_some_and(|want| *want != episode)
            || opts.seed.as_ref().is_some_and(|want| *want != seed)
        {
            continue;
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
            let judge = v.get("judge").and_then(Json::as_u64);
            let classes = v.get("classes").and_then(Json::as_arr).and_then(|cs| {
                cs.iter()
                    .map(|c| c.as_arr()?.iter().map(Json::as_u64).collect::<Option<Vec<u64>>>())
                    .collect::<Option<Vec<Vec<u64>>>>()
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

/// Renders the explanation of `query` over one stream; false when the
/// stream holds nothing about the query's entity.
fn explain_stream(stream: &Stream, query: &ExplainQuery, json_out: bool, out: &mut String) -> bool {
    let mut ex = explain(&stream.index, query);
    if !ex.found() {
        return false;
    }
    attach_ambiguity(stream, &mut ex);
    if json_out {
        out.push_str(&format!(
            "{{\"episode\":{},\"seed\":{},\"explanation\":{}}}\n",
            json::escape(&stream.episode),
            json::escape(&stream.seed),
            ex.render_json()
        ));
    } else {
        stream.push_header(out);
        out.push_str(&ex.render_text());
        out.push('\n');
    }
    true
}

/// Prints the stream's events that pass the filter — as trace lines
/// with the stream's annotations under `--json`, else rendered under the
/// stream's header — and counts them by kind.
fn list_stream(
    stream: &Stream,
    filter: &ListFilter,
    json_out: bool,
    out: &mut String,
    counts: &mut BTreeMap<&'static str, u64>,
) {
    let annotations = [("episode", stream.episode.as_str()), ("seed", stream.seed.as_str())];
    let extra: Vec<(&str, &str)> = annotations
        .into_iter()
        .filter(|(_, v)| !v.is_empty())
        .collect();
    let timeline = filter.id.map(|id| stream.index.timeline(&id));
    let mut header = !json_out;
    for (i, traced) in stream.index.events().iter().enumerate() {
        let kind = traced.event.label();
        if (!filter.kinds.is_empty() && !filter.kinds.iter().any(|k| k == kind))
            || filter.after_us.is_some_and(|after| traced.at_micros < after)
            || timeline.is_some_and(|t| t.binary_search(&i).is_err())
        {
            continue;
        }
        *counts.entry(kind).or_default() += 1;
        if json_out {
            out.push_str(&traced.to_json(&extra));
        } else {
            if std::mem::take(&mut header) {
                stream.push_header(out);
            }
            out.push_str(&traced.render());
        }
        out.push('\n');
    }
}

fn run(opts: &Options) -> Result<bool, String> {
    let streams = load_streams(opts)?;
    let mut found_any = false;
    let mut counts = BTreeMap::new();
    let mut orphan_count = 0usize;
    let mut out = String::new();
    for stream in &streams {
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
        match &opts.query {
            Query::Explain(query) => {
                found_any |= explain_stream(stream, query, opts.json_out, &mut out);
            }
            Query::List => list_stream(stream, &opts.filter, opts.json_out, &mut out, &mut counts),
        }
    }
    match &opts.query {
        Query::Explain(query) if !found_any => {
            let entity = query.entity();
            if opts.json_out {
                out.push_str(&format!(
                    "{{\"query\":{},\"entity\":{},\"found\":false}}\n",
                    json::escape(&query.token()),
                    json::escape(&entity.to_string())
                ));
            } else {
                out.push_str(&format!(
                    "explain {}: no events about {entity} in {} stream(s)\n",
                    query.token(),
                    streams.len()
                ));
            }
        }
        Query::List if opts.filter.stats => {
            let listed: u64 = counts.values().sum();
            let total: usize = streams.iter().map(|s| s.index.events().len()).sum();
            out.push_str("---\n");
            for (kind, count) in &counts {
                out.push_str(&format!("{kind:>14}  {count}\n"));
            }
            out.push_str(&format!("{listed} of {total} event(s) listed\n"));
        }
        _ => {}
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
