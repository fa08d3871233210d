//! Harness spans: one around every call the benchmark makes into a layer.
//!
//! Workloads are generic over [`Tracer`]. The untraced binary instantiates
//! them with [`NoTrace`] only, whose methods are empty, so it carries no
//! span code; the traced binary uses [`SpanLog`], which keeps every span in
//! memory and writes them out once the run is over.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Receives the start and end of each harness span.
pub trait Tracer {
    /// What [`Tracer::enter`] hands back for the matching [`Tracer::exit`].
    type Token;
    /// Opens a span named `name` on behalf of operation `op`; its parent is
    /// the innermost span still open.
    fn enter(&mut self, name: &'static str, op: u64) -> Self::Token;
    /// Closes the span `token` opened.
    fn exit(&mut self, token: Self::Token);
}

/// The tracer of untraced runs: does nothing.
pub struct NoTrace;

impl Tracer for NoTrace {
    type Token = ();
    #[inline(always)]
    fn enter(&mut self, _name: &'static str, _op: u64) {}
    #[inline(always)]
    fn exit(&mut self, _token: ()) {}
}

/// One recorded harness span. Times are nanoseconds since the log began.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    /// Index of the enclosing span in [`SpanLog::spans`], if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span recorder.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span, then `trailer` (already-rendered
    /// JSON lines, e.g. the crates' own phase totals).
    pub fn write_jsonl(&self, path: &Path, trailer: &[String]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            line.clear();
            let _ = write!(
                line,
                "{{\"id\": {id}, \"parent\": {}, \"name\": \"{}\", \"op\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.op,
                s.start_ns,
                s.end_ns
            );
            writeln!(out, "{line}")?;
        }
        for l in trailer {
            writeln!(out, "{l}")?;
        }
        out.flush()
    }
}

impl Tracer for SpanLog {
    type Token = usize;

    fn enter(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, token: usize) {
        self.spans[token].end_ns = self.origin.elapsed().as_nanos() as u64;
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(token), "harness spans close innermost first");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_innermost_open_one_and_reach_the_file() {
        let mut log = SpanLog::new();
        let outer = log.enter("outer", 7);
        let inner = log.enter("inner", 8);
        log.exit(inner);
        log.exit(outer);
        let sibling = log.enter("sibling", 9);
        log.exit(sibling);
        let parents: Vec<Option<usize>> = log.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), None]);
        assert!(log.spans()[0].end_ns >= log.spans()[1].end_ns);

        let path =
            std::env::temp_dir().join(format!("concilium-spans-{}.jsonl", std::process::id()));
        log.write_jsonl(&path, &["{\"phase\": \"x\"}".to_string()])
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].contains("\"parent\": 0") && lines[1].contains("\"op\": 8"));
        assert_eq!(lines[3], "{\"phase\": \"x\"}");
    }
}
