//! In-memory spans for traced runs, written out as JSONL when the run
//! ends.
//!
//! A span names a layer boundary. Spans of one request share its
//! request id; layer spans point at the `server.<op>` span of the same
//! request as their parent. Layer calls are replayed after the server
//! call rather than inside it (they are made from outside the program),
//! so a span's self time is its duration minus the summed durations of
//! its children.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::gen::quote;

/// The request id of spans that belong to no request (probes).
pub const NO_REQUEST: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id, unique within the run.
    pub id: u64,
    /// The span it belongs to.
    pub parent: Option<u64>,
    /// The request it belongs to.
    pub request: u64,
    /// Layer boundary name, e.g. `server.verify` or `solve.verify`.
    pub name: &'static str,
    /// Start, microseconds since the recorder was created.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Records a span that ran from `start` for `dur`.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
        dur: Duration,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_us: start.saturating_duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
        });
        id
    }

    /// Times `f` as a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = std::hint::black_box(f());
        self.record(name, request, parent, start, start.elapsed());
        value
    }

    /// Every recorded span.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":{},\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                s.id,
                s.request,
                quote(s.name),
                s.start_us,
                s.dur_us
            )?;
        }
        out.flush()
    }
}
