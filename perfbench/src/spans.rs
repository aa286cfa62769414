//! In-memory span recorder for the traced run.
//!
//! Each span has a name, start, end and parent; every span of one
//! operation carries that operation's id. Spans stay in memory until
//! [`Tracer::write_jsonl`] writes them out at the end of the run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

struct Span {
    op: u64,
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ops: 0,
        }
    }

    /// Runs `f` as the root span of a new operation and returns its
    /// result with the root span's index.
    pub fn op<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, usize) {
        assert!(self.open.is_empty(), "operations do not nest");
        self.ops += 1;
        let root = self.spans.len();
        (self.span(name, f), root)
    }

    /// Runs `f` as a span nested in the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.spans.len();
        self.spans.push(Span {
            op: self.ops,
            name,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed();
        out
    }

    /// Span `i`'s duration.
    pub fn elapsed(&self, i: usize) -> Duration {
        self.spans[i].end - self.spans[i].start
    }

    /// Self time per span name over the operation rooted at `root`: a
    /// span's duration minus its children's (children of one span run
    /// one after another, so their durations never overlap).
    pub fn self_times(&self, root: usize) -> BTreeMap<&'static str, Duration> {
        let op = self.spans[root].op;
        let end = self.spans[root..]
            .iter()
            .position(|s| s.op != op)
            .map_or(self.spans.len(), |n| root + n);
        let mut own: Vec<Duration> = (root..end).map(|i| self.elapsed(i)).collect();
        for i in root + 1..end {
            let parent = self.spans[i].parent.expect("only the root has no parent");
            own[parent - root] -= self.elapsed(i);
        }
        let mut by_name = BTreeMap::new();
        for (i, d) in (root..end).zip(own) {
            *by_name.entry(self.spans[i].name).or_default() += d;
        }
        by_name
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.op,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}
