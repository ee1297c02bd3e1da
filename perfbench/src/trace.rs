//! In-memory spans for the traced run.
//!
//! Each thread that calls into a layer owns a [`Tracer`]; a span records
//! its name, start, end, parent span and the id of the operation it
//! belongs to (the spans of one write or read share it). Spans stay in
//! memory while the run measures and are written out once it ends. A
//! disabled tracer records nothing, so the untraced run pays one branch
//! per span.

use serde::Value;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What ran (e.g. `"publish"`).
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Global id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// The operation this span belongs to.
    pub op: u64,
    /// Global id of this span (thread id in the high bits).
    pub id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span.
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

impl Open {
    /// The span's global id (0 when tracing is off).
    pub fn id(&self, t: &Tracer) -> u64 {
        self.0.map_or(0, |i| t.spans[i].id)
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    thread: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for thread number `thread`; records only if `enabled`.
    pub fn new(enabled: bool, origin: Instant, thread: u64) -> Self {
        Self {
            enabled,
            origin,
            thread,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span under `parent` (0 for a root) for operation `op`.
    pub fn begin(&mut self, name: &'static str, parent: u64, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = (self.thread << 40) | (self.spans.len() as u64 + 1);
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
            id,
        });
        Open(Some(self.spans.len() - 1))
    }

    /// Closes a span opened by [`Self::begin`].
    pub fn end(&mut self, open: Open) {
        if let Some(i) = open.0 {
            self.spans[i].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(name, parent, op);
        let r = f();
        self.end(open);
        r
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// The share of the `parent` spans' wall time covered by their direct
/// children: 1.0 means the children account for all of it.
pub fn child_cover(spans: &[Span], parent: &str) -> f64 {
    let parents: std::collections::HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name == parent)
        .map(|s| (s.id, s.dur_ns()))
        .collect();
    let total: u64 = parents.values().sum();
    let covered: u64 = spans
        .iter()
        .filter(|s| parents.contains_key(&s.parent))
        .map(Span::dur_ns)
        .sum();
    covered as f64 / total.max(1) as f64
}

/// Cost of recording one span, measured on a scratch tracer.
pub fn span_cost_ns(origin: Instant) -> f64 {
    const N: u64 = 100_000;
    let mut t = Tracer::new(true, origin, 0);
    t.spans.reserve(N as usize);
    let start = Instant::now();
    for i in 0..N {
        let open = t.begin("calibrate", 0, i);
        t.end(open);
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

/// Writes every span as one JSON line:
/// `{"name","start_ns","end_ns","parent","op","id"}`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let v = Value::Map(vec![
            ("name".into(), Value::Str(s.name.into())),
            ("start_ns".into(), Value::U64(s.start_ns)),
            ("end_ns".into(), Value::U64(s.end_ns)),
            ("parent".into(), Value::U64(s.parent)),
            ("op".into(), Value::U64(s.op)),
            ("id".into(), Value::U64(s.id)),
        ]);
        let line = serde_json::to_string(&v).map_err(std::io::Error::other)?;
        writeln!(out, "{line}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 1);
        let r = t.span("x", 0, 1, || 7);
        assert_eq!(r, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn children_link_to_their_parent_and_share_the_op() {
        let mut t = Tracer::new(true, Instant::now(), 3);
        let loop_span = t.begin("writer_loop", 0, 0);
        let pid = loop_span.id(&t);
        t.span("process_batch", pid, 9, || std::hint::black_box(1));
        t.span("publish", pid, 9, || std::hint::black_box(2));
        t.end(loop_span);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].id >> 40, 3);
        assert!(spans[1..].iter().all(|s| s.parent == pid && s.op == 9));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let cover = child_cover(spans, "writer_loop");
        assert!((0.0..=1.0).contains(&cover));
        assert_eq!(durations(spans, "publish").len(), 1);
    }
}
