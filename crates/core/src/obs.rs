//! Structured observability: tracing events and a metrics registry.
//!
//! The paper's evaluation (§V) is entirely about *measuring* the
//! analyzer — query time and model size versus bus count, budget, and
//! hierarchy — and every future performance PR is judged against the
//! same questions: where do the conflicts go, which attempt decided the
//! query, how much work did the fleet skip. This module is the
//! zero-dependency instrumentation layer those measurements ride on.
//!
//! Two facades, both optional and both cheap when absent:
//!
//! * [`TraceSink`] — a structured event stream. [`Obs::trace`] takes a
//!   *closure* producing a [`TraceEvent`], so when no sink is installed
//!   the event is never even constructed: the disabled hot path pays one
//!   `Option` check. [`JsonlTracer`] is the batteries-included sink — a
//!   hand-rolled line-delimited-JSON writer (this workspace builds
//!   offline; there is no serde) with monotone per-process timestamps.
//! * [`MetricsRegistry`] — named counters and min/sum/max histograms,
//!   shared across threads, rendered as a summary table (`--stats` on
//!   both binaries) or folded into the experiment CSVs.
//!
//! [`Obs`] bundles the two and is threaded through the verification
//! engine ([`crate::Analyzer::with_options`]), the parallel fleet and
//! threat enumeration (the `obs` field of [`crate::QueryContext`]), and
//! synthesis. `Obs::none()` is the no-op default everywhere.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::spec::{Property, ResiliencySpec};

/// Allocates a process-unique query id (used to correlate the events of
/// one verification query across threads).
pub fn next_query_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One structured event of the analyzer's lifecycle.
///
/// Events are flat and self-describing: every variant carries the ids
/// needed to correlate it (`query` for the solve pipeline, `worker` for
/// fleet activity) without context from neighbouring events.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A verification query started.
    QueryStart {
        /// Query id (process-unique).
        query: u64,
        /// The property under verification.
        property: Property,
        /// The specification verified against (rendered).
        spec: ResiliencySpec,
    },
    /// Encoding sizes after the query's first solve (the model is built
    /// lazily, so this is when the sizes first exist).
    Encoded {
        /// Query id.
        query: u64,
        /// Solver variables allocated.
        variables: usize,
        /// Clauses added.
        clauses: usize,
    },
    /// One solve attempt finished (there are several per query when the
    /// retry policy escalates an exhausted conflict budget).
    SolveAttempt {
        /// Query id.
        query: u64,
        /// 0-based attempt number.
        attempt: u32,
        /// `"sat"`, `"unsat"`, or `"unknown"`.
        outcome: &'static str,
        /// Conflicts spent by this attempt.
        conflicts: u64,
        /// Decisions made by this attempt.
        decisions: u64,
        /// Literals propagated by this attempt.
        propagations: u64,
        /// Restarts performed by this attempt.
        restarts: u64,
        /// Wall-clock time of this attempt.
        elapsed: Duration,
    },
    /// Mid-solve progress (emitted from the solver's restart hook, so
    /// long attempts are visible before they finish).
    SolveProgress {
        /// Query id.
        query: u64,
        /// Cumulative solver conflicts.
        conflicts: u64,
        /// Cumulative solver decisions.
        decisions: u64,
        /// Cumulative solver propagations.
        propagations: u64,
        /// Cumulative solver restarts.
        restarts: u64,
    },
    /// The retry policy escalated an exhausted conflict budget.
    Retry {
        /// Query id.
        query: u64,
        /// 0-based number of the attempt about to run.
        attempt: u32,
        /// The escalated conflict budget of that attempt.
        budget: u64,
    },
    /// A satisfying model's failure set was minimized against the direct
    /// evaluator.
    Minimize {
        /// Query id.
        query: u64,
        /// Failure-set size exhibited by the solver.
        from: usize,
        /// Size of the minimal vector.
        to: usize,
    },
    /// A verification query finished.
    QueryDone {
        /// Query id.
        query: u64,
        /// `"resilient"`, `"threat"`, or `"unknown"`.
        verdict: &'static str,
        /// Solve attempts performed.
        attempts: u32,
        /// Conflicts spent across all attempts.
        conflicts: u64,
        /// Wall-clock time of the whole query.
        elapsed: Duration,
    },
    /// A verdict was certified (or failed to certify) by the
    /// independent checkers; see [`crate::certify`].
    Certified {
        /// Query id.
        query: u64,
        /// `"threat"`, `"proof"`, `"unchecked"`, or `"failed"`.
        kind: &'static str,
        /// Whether certification succeeded.
        ok: bool,
        /// DRAT proof steps drained and replayed for this query.
        steps: u64,
        /// Hinted lemmas re-checked by full propagation (0 in a correct
        /// build).
        fallbacks: u64,
        /// Wall-clock time spent certifying.
        elapsed: Duration,
    },
    /// A model patch was applied to a warm analyzer in place (see
    /// [`crate::ModelPatch`] and `Analyzer::apply_patch`).
    PatchApplied {
        /// The patch, rendered (e.g. `"remove_device 7"`).
        patch: String,
        /// Device slots appended by the delta.
        new_devices: usize,
        /// Link slots appended by the delta.
        new_links: usize,
        /// Devices newly pinned available (retired or infrastructure).
        newly_pinned: usize,
        /// Whether any plain delivery cone must be re-encoded.
        plain_dirty: bool,
        /// Whether any secured delivery cone must be re-encoded.
        secured_dirty: bool,
    },
    /// A parallel fleet started.
    FleetStart {
        /// What the fleet computes (e.g. `"max_resiliency"`).
        label: &'static str,
        /// Worker threads.
        jobs: usize,
        /// Queued items.
        items: usize,
    },
    /// One fleet worker drained (its share of the injector is done).
    WorkerDone {
        /// Worker index.
        worker: usize,
        /// Jobs this worker ran.
        ran: u64,
        /// Jobs this worker skipped (cancel bound or fleet cancellation).
        skipped: u64,
    },
    /// A sweep lowered its shared cancel bound: queued jobs at or above
    /// `bound` are now redundant and will be skipped.
    CancelCut {
        /// Worker that proved the bound.
        worker: usize,
        /// The new bound.
        bound: usize,
    },
    /// The fleet's cooperative interrupt flag was observed raised.
    Interrupted {
        /// Worker observing the cancellation.
        worker: usize,
    },
    /// Threat enumeration found a minimal vector.
    EnumVector {
        /// Query id of the enumeration span.
        query: u64,
        /// 0-based discovery index.
        index: usize,
        /// Vector size (devices + links).
        size: usize,
    },
    /// Threat enumeration finished.
    EnumDone {
        /// Query id of the enumeration span.
        query: u64,
        /// Minimal vectors found.
        vectors: usize,
        /// Whether enumeration stopped early (cap or resource limit).
        truncated: bool,
        /// Whether a resource limit left the space undecided.
        undecided: bool,
    },
    /// Synthesis tried a candidate upgrade set.
    SynthCandidate {
        /// Candidate size (hops upgraded).
        size: usize,
        /// `"pruned"`, `"threat"`, `"undecided"`, or `"repaired"`.
        outcome: &'static str,
    },
    /// Synthesis finished.
    SynthDone {
        /// `"already_resilient"`, `"upgrades"`, or `"infeasible"`.
        result: &'static str,
        /// Upgrades in the synthesized set (0 unless `result` is
        /// `"upgrades"`).
        upgrades: usize,
    },
    /// The analysis service handled one protocol request.
    ServiceRequest {
        /// The request op (`"load"`, `"verify"`, …).
        op: &'static str,
        /// `"ok"`, `"error"`, or `"busy"`.
        status: &'static str,
        /// Where the answer came from (`"cold"`, `"warm"`, `"cached"`);
        /// `None` for non-query ops.
        provenance: Option<&'static str>,
        /// Wall-clock time spent on the request.
        elapsed: Duration,
    },
    /// A warm model session changed state in the analysis service.
    ServiceSession {
        /// Low 64 bits of the model hash (full hashes live in the
        /// protocol; traces only need correlation).
        model: u64,
        /// `"created"`, `"touched"`, `"patched"`, `"evicted"`, or
        /// `"rebuilt"`.
        event: &'static str,
        /// Live sessions after the transition.
        sessions: usize,
    },
}

impl TraceEvent {
    /// The event's wire name (the JSONL `"ev"` field).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::QueryStart { .. } => "query_start",
            TraceEvent::Encoded { .. } => "encoded",
            TraceEvent::SolveAttempt { .. } => "solve_attempt",
            TraceEvent::SolveProgress { .. } => "solve_progress",
            TraceEvent::Retry { .. } => "retry",
            TraceEvent::Minimize { .. } => "minimize",
            TraceEvent::QueryDone { .. } => "query_done",
            TraceEvent::Certified { .. } => "certified",
            TraceEvent::PatchApplied { .. } => "patch_applied",
            TraceEvent::FleetStart { .. } => "fleet_start",
            TraceEvent::WorkerDone { .. } => "worker_done",
            TraceEvent::CancelCut { .. } => "cancel_cut",
            TraceEvent::Interrupted { .. } => "interrupted",
            TraceEvent::EnumVector { .. } => "enum_vector",
            TraceEvent::EnumDone { .. } => "enum_done",
            TraceEvent::SynthCandidate { .. } => "synth_candidate",
            TraceEvent::SynthDone { .. } => "synth_done",
            TraceEvent::ServiceRequest { .. } => "service_request",
            TraceEvent::ServiceSession { .. } => "service_session",
        }
    }

    /// Appends the event's fields (no surrounding braces) as JSON
    /// `"key":value` pairs to `out`, starting with a comma.
    fn write_fields(&self, out: &mut String) {
        let mut w = JsonFields(out);
        match *self {
            TraceEvent::QueryStart {
                query,
                property,
                spec,
            } => {
                w.num("query", query);
                w.str("property", &property.to_string());
                w.str("spec", &spec.to_string());
            }
            TraceEvent::Encoded {
                query,
                variables,
                clauses,
            } => {
                w.num("query", query);
                w.num("variables", variables as u64);
                w.num("clauses", clauses as u64);
            }
            TraceEvent::SolveAttempt {
                query,
                attempt,
                outcome,
                conflicts,
                decisions,
                propagations,
                restarts,
                elapsed,
            } => {
                w.num("query", query);
                w.num("attempt", u64::from(attempt));
                w.str("outcome", outcome);
                w.num("conflicts", conflicts);
                w.num("decisions", decisions);
                w.num("propagations", propagations);
                w.num("restarts", restarts);
                w.num("elapsed_us", elapsed.as_micros() as u64);
            }
            TraceEvent::SolveProgress {
                query,
                conflicts,
                decisions,
                propagations,
                restarts,
            } => {
                w.num("query", query);
                w.num("conflicts", conflicts);
                w.num("decisions", decisions);
                w.num("propagations", propagations);
                w.num("restarts", restarts);
            }
            TraceEvent::Retry {
                query,
                attempt,
                budget,
            } => {
                w.num("query", query);
                w.num("attempt", u64::from(attempt));
                w.num("budget", budget);
            }
            TraceEvent::Minimize { query, from, to } => {
                w.num("query", query);
                w.num("from", from as u64);
                w.num("to", to as u64);
            }
            TraceEvent::QueryDone {
                query,
                verdict,
                attempts,
                conflicts,
                elapsed,
            } => {
                w.num("query", query);
                w.str("verdict", verdict);
                w.num("attempts", u64::from(attempts));
                w.num("conflicts", conflicts);
                w.num("elapsed_us", elapsed.as_micros() as u64);
            }
            TraceEvent::Certified {
                query,
                kind,
                ok,
                steps,
                fallbacks,
                elapsed,
            } => {
                w.num("query", query);
                w.str("kind", kind);
                w.bool("ok", ok);
                w.num("steps", steps);
                w.num("fallbacks", fallbacks);
                w.num("elapsed_us", elapsed.as_micros() as u64);
            }
            TraceEvent::PatchApplied {
                ref patch,
                new_devices,
                new_links,
                newly_pinned,
                plain_dirty,
                secured_dirty,
            } => {
                w.str("patch", patch);
                w.num("new_devices", new_devices as u64);
                w.num("new_links", new_links as u64);
                w.num("newly_pinned", newly_pinned as u64);
                w.bool("plain_dirty", plain_dirty);
                w.bool("secured_dirty", secured_dirty);
            }
            TraceEvent::FleetStart { label, jobs, items } => {
                w.str("label", label);
                w.num("jobs", jobs as u64);
                w.num("items", items as u64);
            }
            TraceEvent::WorkerDone {
                worker,
                ran,
                skipped,
            } => {
                w.num("worker", worker as u64);
                w.num("ran", ran);
                w.num("skipped", skipped);
            }
            TraceEvent::CancelCut { worker, bound } => {
                w.num("worker", worker as u64);
                w.num("bound", bound as u64);
            }
            TraceEvent::Interrupted { worker } => {
                w.num("worker", worker as u64);
            }
            TraceEvent::EnumVector { query, index, size } => {
                w.num("query", query);
                w.num("index", index as u64);
                w.num("size", size as u64);
            }
            TraceEvent::EnumDone {
                query,
                vectors,
                truncated,
                undecided,
            } => {
                w.num("query", query);
                w.num("vectors", vectors as u64);
                w.bool("truncated", truncated);
                w.bool("undecided", undecided);
            }
            TraceEvent::SynthCandidate { size, outcome } => {
                w.num("size", size as u64);
                w.str("outcome", outcome);
            }
            TraceEvent::SynthDone { result, upgrades } => {
                w.str("result", result);
                w.num("upgrades", upgrades as u64);
            }
            TraceEvent::ServiceRequest {
                op,
                status,
                provenance,
                elapsed,
            } => {
                w.str("op", op);
                w.str("status", status);
                if let Some(provenance) = provenance {
                    w.str("provenance", provenance);
                }
                w.num("elapsed_us", elapsed.as_micros() as u64);
            }
            TraceEvent::ServiceSession {
                model,
                event,
                sessions,
            } => {
                w.num("model", model);
                w.str("event", event);
                w.num("sessions", sessions as u64);
            }
        }
    }

    /// Renders the event as one JSON object (the JSONL line body).
    pub fn to_json(&self, seq: u64, t_us: u64) -> String {
        let mut out = String::with_capacity(96);
        out.push('{');
        {
            let mut w = JsonFields(&mut out);
            w.num("seq", seq);
            w.num("t_us", t_us);
            w.str("ev", self.name());
        }
        self.write_fields(&mut out);
        out.push('}');
        out
    }
}

/// Tiny helper appending `"key":value` JSON pairs to a string.
struct JsonFields<'a>(&'a mut String);

impl JsonFields<'_> {
    fn key(&mut self, key: &str) {
        if !self.0.is_empty() && !self.0.ends_with('{') {
            self.0.push(',');
        }
        self.0.push('"');
        self.0.push_str(key); // keys are static identifiers, no escaping
        self.0.push_str("\":");
    }

    fn num(&mut self, key: &str, value: u64) {
        self.key(key);
        let mut buf = [0u8; 20];
        self.0.push_str(fmt_u64(value, &mut buf));
    }

    fn bool(&mut self, key: &str, value: bool) {
        self.key(key);
        self.0.push_str(if value { "true" } else { "false" });
    }

    fn str(&mut self, key: &str, value: &str) {
        self.key(key);
        self.0.push('"');
        json_escape_into(value, self.0);
        self.0.push('"');
    }
}

fn fmt_u64(mut v: u64, buf: &mut [u8; 20]) -> &str {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[i..]).expect("digits are ascii")
}

/// Escapes `value` for inclusion inside a JSON string literal.
pub fn json_escape_into(value: &str, out: &mut String) {
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let mut buf = String::new();
                fmt::write(&mut buf, format_args!("\\u{:04x}", c as u32))
                    .expect("writing to a String cannot fail");
                out.push_str(&buf);
            }
            c => out.push(c),
        }
    }
}

/// Destination for trace events.
///
/// Implementations must be cheap and thread-safe: events arrive from
/// every fleet worker concurrently. The default implementation used by
/// [`Obs::none`] is "no sink at all" — events are never constructed.
pub trait TraceSink: Send + Sync {
    /// Consumes one event.
    fn emit(&self, event: &TraceEvent);
}

/// A [`TraceSink`] writing line-delimited JSON.
///
/// Each event becomes one line `{"seq":…,"t_us":…,"ev":"…",…}` where
/// `seq` is a per-tracer sequence number and `t_us` microseconds since
/// the tracer was created — both monotone, so a trace can be ordered
/// and spans reconstructed without wall-clock assumptions.
pub struct JsonlTracer {
    epoch: Instant,
    seq: AtomicU64,
    out: Mutex<Box<dyn Write + Send>>,
}

impl fmt::Debug for JsonlTracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlTracer")
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl JsonlTracer {
    /// A tracer appending JSONL to `writer`.
    pub fn to_writer(writer: impl Write + Send + 'static) -> JsonlTracer {
        JsonlTracer {
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
            out: Mutex::new(Box::new(writer)),
        }
    }

    /// A tracer writing JSONL to a freshly created (truncated) file.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn to_file(path: &Path) -> io::Result<JsonlTracer> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlTracer::to_writer(io::BufWriter::new(file)))
    }

    /// Events emitted so far.
    pub fn events(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Flushes the underlying writer.
    pub fn flush(&self) {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = out.flush();
    }
}

impl Drop for JsonlTracer {
    fn drop(&mut self) {
        self.flush();
    }
}

impl TraceSink for JsonlTracer {
    fn emit(&self, event: &TraceEvent) {
        let t_us = self.epoch.elapsed().as_micros() as u64;
        // Allocate the line first, then take the lock only for the write
        // and the seq draw — the seq must be drawn under the lock so
        // sequence order matches file order.
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut line = event.to_json(seq, t_us);
        line.push('\n');
        let _ = out.write_all(line.as_bytes());
    }
}

/// A [`TraceSink`] collecting rendered JSONL lines in memory (tests,
/// or post-processing a bounded run without touching the filesystem).
#[derive(Default)]
pub struct BufferSink {
    epoch: Option<Instant>,
    lines: Mutex<Vec<String>>,
}

impl fmt::Debug for BufferSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BufferSink").finish_non_exhaustive()
    }
}

impl BufferSink {
    /// An empty buffer sink.
    pub fn new() -> BufferSink {
        BufferSink {
            epoch: Some(Instant::now()),
            lines: Mutex::new(Vec::new()),
        }
    }

    /// The collected JSONL lines (without trailing newlines).
    pub fn lines(&self) -> Vec<String> {
        self.lines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl TraceSink for BufferSink {
    fn emit(&self, event: &TraceEvent) {
        let t_us = self
            .epoch
            .map_or(0, |epoch| epoch.elapsed().as_micros() as u64);
        let mut lines = self.lines.lock().unwrap_or_else(PoisonError::into_inner);
        let seq = lines.len() as u64;
        lines.push(event.to_json(seq, t_us));
    }
}

/// Snapshot of one histogram series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Samples observed.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    fn observe(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }
}

/// Named counters and histograms shared across threads.
///
/// Metric names are `&'static str` by design: the set of metrics is the
/// code's vocabulary, not user data, and static names keep the hot-path
/// lookups allocation-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<&'static str, u64>>,
    histograms: Mutex<BTreeMap<&'static str, HistogramSnapshot>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `delta` to counter `name` (creating it at zero).
    pub fn add(&self, name: &'static str, delta: u64) {
        let mut counters = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = counters.entry(name).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Records one sample of histogram `name`.
    pub fn observe(&self, name: &'static str, value: u64) {
        let mut hists = self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        hists.entry(name).or_default().observe(value);
    }

    /// The current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Snapshot of histogram `name` (empty if never touched).
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        self.histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .copied()
            .unwrap_or_default()
    }

    /// Snapshot of all counters, name-ordered.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(&name, &value)| (name, value))
            .collect()
    }

    /// All metrics as `[metric, count, sum, mean, min, max]` rows
    /// (counters first, then histograms; both name-ordered). Counters
    /// fill only `metric` and `count`.
    pub fn rows(&self) -> Vec<[String; 6]> {
        let mut rows = Vec::new();
        for (name, value) in self
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            rows.push([
                (*name).to_string(),
                value.to_string(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ]);
        }
        for (name, h) in self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            rows.push([
                (*name).to_string(),
                h.count.to_string(),
                h.sum.to_string(),
                h.mean().to_string(),
                h.min.to_string(),
                h.max.to_string(),
            ]);
        }
        rows
    }

    /// Renders the registry as an aligned text table (the `--stats`
    /// summary).
    pub fn render(&self) -> String {
        let header = ["metric", "count", "sum", "mean", "min", "max"];
        let rows = self.rows();
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let render_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = render_row(&header.map(String::from));
        out.push('\n');
        for row in &rows {
            out.push_str(&render_row(row.as_slice()));
            out.push('\n');
        }
        out
    }
}

/// The observability handle threaded through the analyzer: an optional
/// trace sink plus an optional metrics registry.
///
/// Cloning is cheap (two `Option<Arc>`s); the disabled default pays one
/// pointer check per instrumentation site and never constructs events.
#[derive(Clone, Default)]
pub struct Obs {
    tracer: Option<Arc<dyn TraceSink>>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("tracing", &self.tracer.is_some())
            .field("metrics", &self.metrics.is_some())
            .finish()
    }
}

impl Obs {
    /// The disabled default: no sink, no registry, no event
    /// construction.
    pub fn none() -> Obs {
        Obs::default()
    }

    /// Attaches a trace sink.
    pub fn with_tracer(mut self, tracer: Arc<dyn TraceSink>) -> Obs {
        self.tracer = Some(tracer);
        self
    }

    /// Attaches a metrics registry.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Obs {
        self.metrics = Some(metrics);
        self
    }

    /// Whether any instrumentation is installed.
    pub fn enabled(&self) -> bool {
        self.tracer.is_some() || self.metrics.is_some()
    }

    /// Whether a trace sink is installed (progress hooks are only worth
    /// arming when someone is listening).
    pub fn has_tracer(&self) -> bool {
        self.tracer.is_some()
    }

    /// The metrics registry, if one is attached.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_deref()
    }

    /// Emits an event if a sink is installed. The closure runs only
    /// then — a disabled `Obs` never constructs the event.
    #[inline]
    pub fn trace(&self, event: impl FnOnce() -> TraceEvent) {
        if let Some(tracer) = &self.tracer {
            tracer.emit(&event());
        }
    }

    /// Adds to a counter if a registry is installed.
    #[inline]
    pub fn count(&self, name: &'static str, delta: u64) {
        if let Some(metrics) = &self.metrics {
            metrics.add(name, delta);
        }
    }

    /// Records a histogram sample if a registry is installed.
    #[inline]
    pub fn observe(&self, name: &'static str, value: u64) {
        if let Some(metrics) = &self.metrics {
            metrics.observe(name, value);
        }
    }

    /// Records a duration histogram sample, in microseconds.
    #[inline]
    pub fn observe_duration(&self, name: &'static str, value: Duration) {
        if let Some(metrics) = &self.metrics {
            metrics.observe(name, value.as_micros() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_never_constructs_events() {
        let obs = Obs::none();
        obs.trace(|| panic!("event constructed on a disabled Obs"));
        obs.count("x", 1);
        obs.observe("y", 2);
        assert!(!obs.enabled());
    }

    #[test]
    fn buffer_sink_collects_monotone_lines() {
        let sink = Arc::new(BufferSink::new());
        let obs = Obs::none().with_tracer(sink.clone());
        for i in 0..5 {
            obs.trace(|| TraceEvent::Encoded {
                query: i,
                variables: 10,
                clauses: 20,
            });
        }
        let lines = sink.lines();
        assert_eq!(lines.len(), 5);
        let mut last_t = 0u64;
        for (i, line) in lines.iter().enumerate() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains(&format!("\"seq\":{i}")));
            assert!(line.contains("\"ev\":\"encoded\""));
            let t: u64 = line
                .split("\"t_us\":")
                .nth(1)
                .and_then(|s| s.split(',').next())
                .and_then(|s| s.parse().ok())
                .expect("t_us field");
            assert!(t >= last_t, "timestamps must be monotone");
            last_t = t;
        }
    }

    #[test]
    fn json_escaping() {
        let mut out = String::new();
        json_escape_into("a\"b\\c\nd\te\u{1}", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn event_json_shape() {
        let e = TraceEvent::SolveAttempt {
            query: 7,
            attempt: 1,
            outcome: "unsat",
            conflicts: 12,
            decisions: 30,
            propagations: 400,
            restarts: 0,
            elapsed: Duration::from_micros(1500),
        };
        let json = e.to_json(3, 999);
        assert_eq!(
            json,
            "{\"seq\":3,\"t_us\":999,\"ev\":\"solve_attempt\",\"query\":7,\
             \"attempt\":1,\"outcome\":\"unsat\",\"conflicts\":12,\
             \"decisions\":30,\"propagations\":400,\"restarts\":0,\
             \"elapsed_us\":1500}"
        );
        let e = TraceEvent::Certified {
            query: 7,
            kind: "proof",
            ok: true,
            steps: 42,
            fallbacks: 0,
            elapsed: Duration::from_micros(250),
        };
        assert_eq!(
            e.to_json(4, 1000),
            "{\"seq\":4,\"t_us\":1000,\"ev\":\"certified\",\"query\":7,\
             \"kind\":\"proof\",\"ok\":true,\"steps\":42,\"fallbacks\":0,\
             \"elapsed_us\":250}"
        );
    }

    #[test]
    fn metrics_counters_and_histograms() {
        let m = MetricsRegistry::new();
        m.add("queries", 2);
        m.add("queries", 3);
        assert_eq!(m.counter("queries"), 5);
        assert_eq!(m.counter("missing"), 0);
        m.observe("lat", 10);
        m.observe("lat", 30);
        m.observe("lat", 20);
        let h = m.histogram("lat");
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 60);
        assert_eq!(h.mean(), 20);
        assert_eq!(h.min, 10);
        assert_eq!(h.max, 30);
        let rendered = m.render();
        assert!(rendered.contains("queries"));
        assert!(rendered.contains("lat"));
        assert_eq!(m.rows().len(), 2);
    }

    #[test]
    fn jsonl_tracer_writes_lines() {
        use std::sync::Mutex as StdMutex;

        #[derive(Clone, Default)]
        struct Shared(Arc<StdMutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let shared = Shared::default();
        let tracer = Arc::new(JsonlTracer::to_writer(shared.clone()));
        let obs = Obs::none().with_tracer(tracer.clone());
        obs.trace(|| TraceEvent::Interrupted { worker: 4 });
        obs.trace(|| TraceEvent::SynthDone {
            result: "infeasible",
            upgrades: 0,
        });
        tracer.flush();
        assert_eq!(tracer.events(), 2);
        let text = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"ev\":\"interrupted\""));
        assert!(lines[1].contains("\"ev\":\"synth_done\""));
    }
}
