//! In-memory spans for the traced mode: name, start, end, parent and
//! the operation they belong to. Recorded by the benchmark around its
//! calls into each layer, kept in memory, and written out once at the
//! end of the run.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use gbc_telemetry::Json;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Operation id shared by all spans of one request or replay.
    pub op: u64,
    pub name: &'static str,
    /// Session or sub-workload the span belongs to (`""` when none).
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Spans {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its id.
    pub fn push(
        &self,
        name: &'static str,
        tag: &'static str,
        op: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span buffer");
        let id = spans.len();
        spans.push(Span { id, parent, op, name, tag, start_ns, end_ns });
        id
    }

    /// Run `f` inside a span; returns its result and the span's duration
    /// in ms.
    pub fn time_ms<T>(
        &self,
        name: &'static str,
        tag: &'static str,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.push(name, tag, op, None, start, end);
        (out, (end - start) as f64 / 1e6)
    }

    /// Durations in ms of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span buffer")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Every span, in the order recorded.
    pub fn all(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer").clone()
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span buffer").len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans.lock().expect("span buffer").iter() {
            let span = Json::obj(vec![
                ("id", Json::UInt(s.id as u64)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::UInt(p as u64))),
                ("op", Json::UInt(s.op)),
                ("name", Json::Str(s.name.into())),
                ("tag", Json::Str(s.tag.into())),
                ("start_ns", Json::UInt(s.start_ns)),
                ("end_ns", Json::UInt(s.end_ns)),
            ]);
            out.push_str(&span.to_string());
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}
