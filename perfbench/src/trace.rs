//! In-memory span recorder for the traced run.
//!
//! A span is one call the benchmark makes into a layer's public API:
//! name, optional message kind, a request tag (round, vertex or
//! operation index), start, end, and the span that was open when it
//! began. Spans stay in memory and are written out once, at the end of
//! the run. A disabled recorder keeps nothing, so the untraced run pays
//! no bookkeeping.

use std::time::Instant;

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub kind: &'static str,
    pub tag: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, tagged with a message kind
    /// and a request id. Spans opened inside `f` become its children.
    pub fn span_kind<T>(
        &mut self,
        name: &'static str,
        kind: &'static str,
        tag: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            kind,
            tag,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// [`Tracer::span_kind`] without a message kind.
    pub fn span<T>(&mut self, name: &'static str, tag: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        self.span_kind(name, "", tag, f)
    }

    /// The spans as a JSON array of
    /// `[id, parent, name, kind, tag, start_ns, end_ns]` rows
    /// (`parent` is -1 for a root span).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "[{id},{},\"{}\",\"{}\",{},{},{}]",
                    s.parent.map_or(-1, |p| p as i64),
                    s.name,
                    s.kind,
                    s.tag,
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    }
}
