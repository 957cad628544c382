//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into each layer's public functions and
//! kept in memory; [`write_report`] writes them, plus a per-name summary
//! with self times, when the run ends. A span's self time is its duration
//! minus the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Query (or batch) the span belongs to.
    pub query: Option<u64>,
    /// Thread-local tracer id (one per client thread).
    pub thread: usize,
}

/// Span recorder of one thread. Spans nest by call order. A disabled
/// tracer records nothing, so untraced runs pay no span cost.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    thread: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, thread: usize, enabled: bool) -> Self {
        Tracer {
            enabled,
            origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, query: Option<u64>) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            query,
            thread: self.thread,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, query: Option<u64>, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, query);
        let r = f();
        self.end(id);
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "tracer dropped with open spans");
        self.spans
    }
}

/// Concatenate per-thread span lists, re-basing parent indices.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for part in parts {
        let base = all.len();
        all.extend(part.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Per-name totals over a span list.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameSummary {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// Total and self time per span name. Spans of one thread never overlap
/// their siblings, so a parent's child coverage is the sum of its children's
/// durations.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameSummary> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameSummary> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_s += dur as f64 * 1e-9;
        e.self_s += dur.saturating_sub(child) as f64 * 1e-9;
    }
    out
}

/// Total seconds spent in spans named `name`.
pub fn total_s(summary: &BTreeMap<&'static str, NameSummary>, name: &str) -> f64 {
    summary.get(name).map_or(0.0, |s| s.total_s)
}

/// Mean seconds per span named `name` (0 without such spans).
pub fn mean_s(summary: &BTreeMap<&'static str, NameSummary>, name: &str) -> f64 {
    summary
        .get(name)
        .map_or(0.0, |s| s.total_s / s.count as f64)
}

/// Write every span and the per-name summary as JSON to `path`.
pub fn write_report(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::from("{\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let opt = |x: Option<u64>| x.map_or("null".to_string(), |v| v.to_string());
        write!(
            out,
            "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"query\":{},\"thread\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent.map(|p| p as u64)),
            opt(s.query),
            s.thread
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("\n],\"summary\":{");
    for (i, (name, s)) in summarize(spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "\n\"{name}\":{{\"count\":{},\"total_s\":{},\"self_s\":{}}}",
            s.count, s.total_s, s.self_s
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("\n}}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
