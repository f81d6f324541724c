//! The request engine and its transports.
//!
//! [`Engine`] is transport-agnostic: one request line in, one response
//! line out ([`Engine::handle_line`]). The two transports — stdio
//! ([`serve_stdio`]) and a TCP loopback listener ([`serve_tcp`]) — only
//! move lines; every policy decision lives in the engine:
//!
//! * **admission control** — at most `max_inflight` queries run at
//!   once; beyond that the engine answers `busy` (with `"retry":true`)
//!   instead of queueing unboundedly. Cache hits and control ops
//!   (`load`, `stats`, `evict`, `shutdown`) bypass admission: they
//!   never touch a solver;
//! * **bounded reads** — request lines longer than `max_line` bytes are
//!   rejected with a structured error and the remainder of the line is
//!   discarded without ever being buffered, so a hostile client cannot
//!   balloon memory;
//! * **graceful drain** — `shutdown` stops admission, lets in-flight
//!   queries finish (certified queries flush their DRAT proofs as part
//!   of finishing), joins every session worker, and only then lets the
//!   process exit 0.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::casestudy::five_bus_case_study;
use crate::certify::{Certificate, CertifyOptions};
use crate::enumerate::enumerate_threats_with;
use crate::input::AnalysisInput;
use crate::obs::{MetricsRegistry, Obs, TraceEvent};
use crate::patch::ModelPatch;
use crate::security_index::served_distribution;
use crate::verify::Analyzer;

use super::cache::{CacheKey, QueryShape, VerdictCache, DEFAULT_CACHE_CAPACITY};
use super::hash::{advance_model_hash, ModelHash};
use super::protocol::{
    self, attach_id, busy_line, draining_line, error_line, load_line, parse_line, patch_line,
    reply_line, CertStatus, LimitsSpec, QueryReply, Request,
};
use super::replica::ReplicaCache;
use super::session::{SessionManager, SessionQuery, DEFAULT_SESSION_CAPACITY};

/// Default bound on one request line, in bytes (configs travel inline
/// in `load`, so this is generous).
pub const DEFAULT_MAX_LINE: usize = 1 << 20;

/// Configuration for an [`Engine`].
#[derive(Debug)]
pub struct ServeOptions {
    /// Warm sessions kept alive (LRU beyond this).
    pub sessions: usize,
    /// Cached verdicts kept (LRU beyond this; 0 disables the cache).
    pub cache: usize,
    /// Concurrent queries admitted; 0 means one per available core.
    pub max_inflight: usize,
    /// Longest accepted request line in bytes.
    pub max_line: usize,
    /// Tracing; the engine attaches its own metrics registry.
    pub obs: Obs,
    /// Certification policy, fixed for the service lifetime (proof
    /// mirroring must start at analyzer construction, so it cannot be
    /// toggled per request — the cache key still records it).
    pub certify: CertifyOptions,
    /// Root directory the `batch` op may audit. `None` (the default)
    /// disables the op entirely: a network client must not get to
    /// resolve arbitrary paths on the server's filesystem. When set,
    /// the request's `dir` is interpreted relative to this root and
    /// may not escape it.
    pub fleet_root: Option<std::path::PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            sessions: DEFAULT_SESSION_CAPACITY,
            cache: DEFAULT_CACHE_CAPACITY,
            max_inflight: 0,
            max_line: DEFAULT_MAX_LINE,
            obs: Obs::none(),
            certify: CertifyOptions::default(),
            fleet_root: None,
        }
    }
}

/// One response line plus whether the transport should begin shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The response line (no trailing newline).
    pub line: String,
    /// `true` exactly for the `shutdown` acknowledgement.
    pub shutdown: bool,
}

impl Response {
    pub(crate) fn reply(line: String) -> Response {
        Response {
            line,
            shutdown: false,
        }
    }
}

/// Decrements the in-flight count when a query finishes (or panics).
struct InflightGuard<'a>(&'a Engine);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The transport-agnostic service engine.
pub struct Engine {
    sessions: Mutex<SessionManager>,
    cache: Mutex<VerdictCache>,
    /// Hot-entry replica shared with sibling shards; disabled (capacity
    /// 0) on a standalone engine.
    replica: Arc<ReplicaCache>,
    metrics: Arc<MetricsRegistry>,
    obs: Obs,
    certify: CertifyOptions,
    max_line: usize,
    max_inflight: usize,
    fleet_root: Option<std::path::PathBuf>,
    inflight: AtomicUsize,
    draining: AtomicBool,
    started: Instant,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("max_inflight", &self.max_inflight)
            .field("inflight", &self.inflight.load(Ordering::SeqCst))
            .field("draining", &self.draining.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

fn lock<'m, T>(mutex: &'m Mutex<T>) -> std::sync::MutexGuard<'m, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn cert_status(certificate: &Certificate) -> CertStatus {
    match certificate {
        Certificate::Proof { .. } => CertStatus::Proof,
        Certificate::Threat { .. } => CertStatus::Threat,
        Certificate::Unchecked => CertStatus::Unchecked,
        Certificate::Failed { reason } => CertStatus::Failed(reason.clone()),
    }
}

impl Engine {
    /// Builds an engine. The engine owns its metrics registry and
    /// attaches it to the provided `obs` (replacing any registry the
    /// caller attached), so `stats` always has counters to report.
    pub fn new(options: ServeOptions) -> Engine {
        Engine::with_replica(options, Arc::new(ReplicaCache::disabled()))
    }

    /// Builds an engine sharing a hot-entry [`ReplicaCache`] with its
    /// sibling shards (see [`ShardedEngine`](super::ShardedEngine)).
    pub fn with_replica(options: ServeOptions, replica: Arc<ReplicaCache>) -> Engine {
        let metrics = Arc::new(MetricsRegistry::new());
        let obs = options.obs.with_metrics(Arc::clone(&metrics));
        let sessions = SessionManager::new(options.sessions, obs.clone(), options.certify.clone());
        Engine {
            sessions: Mutex::new(sessions),
            cache: Mutex::new(VerdictCache::new(options.cache)),
            replica,
            metrics,
            obs,
            certify: options.certify,
            max_line: options.max_line.max(1),
            max_inflight: crate::pool::effective_jobs(options.max_inflight),
            fleet_root: options.fleet_root,
            inflight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            started: Instant::now(),
        }
    }

    /// The engine's metrics registry (`stats` counters and cache
    /// hit/miss counts).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// An owning handle on the metrics registry, for layers (the
    /// journal) that record counters outside a borrow of the engine.
    pub(crate) fn metrics_arc(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// Longest accepted request line in bytes.
    pub fn max_line(&self) -> usize {
        self.max_line
    }

    /// The configured `batch` root, if the op is enabled.
    pub(crate) fn fleet_root(&self) -> Option<&std::path::Path> {
        self.fleet_root.as_deref()
    }

    /// Whether `shutdown` has been requested.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn admit(&self) -> Option<InflightGuard<'_>> {
        let mut current = self.inflight.load(Ordering::SeqCst);
        loop {
            if current >= self.max_inflight {
                return None;
            }
            match self.inflight.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Some(InflightGuard(self)),
                Err(actual) => current = actual,
            }
        }
    }

    pub(crate) fn trace_request(
        &self,
        op: &'static str,
        status: &'static str,
        provenance: Option<&'static str>,
        start: Instant,
    ) {
        let elapsed = start.elapsed();
        self.obs.trace(|| TraceEvent::ServiceRequest {
            op,
            status,
            provenance,
            elapsed,
        });
        self.metrics.add("service_requests", 1);
        if status != "ok" {
            self.metrics.add("service_errors", 1);
        }
        self.metrics
            .observe("service_request_us", elapsed.as_micros() as u64);
    }

    /// Handles one request line, returning one response line. A request
    /// `id`, when present, is echoed on the reply so pipelined clients
    /// can correlate out-of-order completions with in-order replies.
    pub fn handle_line(&self, line: &str) -> Response {
        let start = Instant::now();
        let (id, parsed) = parse_line(line);
        let mut response = match parsed {
            Ok(request) => self.handle_request(request, start),
            Err(message) => self.reply_invalid(&message, start),
        };
        if let Some(id) = id {
            attach_id(&mut response.line, &id);
        }
        response
    }

    /// Answers a line that failed to parse as a request.
    pub(crate) fn reply_invalid(&self, message: &str, start: Instant) -> Response {
        self.trace_request("invalid", "error", None, start);
        Response::reply(error_line(message))
    }

    /// Rejects a request because the service is draining. Unlike
    /// `busy`, the reply carries `"retry":false`: once `shutdown` has
    /// been requested this instance will never admit the request, so a
    /// well-behaved client must fail over instead of retrying.
    pub(crate) fn reply_draining(&self, op: &'static str, start: Instant) -> Response {
        self.metrics.add("service_draining_rejects", 1);
        self.trace_request(op, "draining", None, start);
        Response::reply(draining_line())
    }

    /// Handles one decoded request (the transport-independent half of
    /// [`Engine::handle_line`]; the sharded router calls this directly
    /// after routing).
    pub(crate) fn handle_request(&self, request: Request, start: Instant) -> Response {
        // `health` is the liveness probe: it must keep answering (with
        // `"state":"draining"`) while the drain gate rejects real work.
        if self.is_draining() && request != Request::Shutdown && request != Request::Health {
            return self.reply_draining(op_name(&request), start);
        }
        match request {
            Request::Load { config, case_study } => self.handle_load(config, case_study, start),
            Request::Verify { .. }
            | Request::MaxRes { .. }
            | Request::Enumerate { .. }
            | Request::SecurityIndex { .. } => {
                let key = self.cache_key(&request).expect("queries have cache keys");
                self.run_query(op_name(&request), key, start)
            }
            Request::Patch { model, patch } => self.handle_patch(model, patch, start),
            Request::Batch { dir, jobs } => {
                // The executor drives this engine's own request path, so
                // every inner load/patch/query is admission-controlled,
                // traced, and cached exactly like client-issued ones.
                let submit = |line: &str| self.handle_line(line).line;
                let (line, status) = batch_reply(self.fleet_root(), &dir, jobs, &submit, start);
                self.trace_request("batch", status, None, start);
                Response::reply(line)
            }
            Request::Stats => {
                let line = self.stats_line(start);
                self.trace_request("stats", "ok", None, start);
                Response::reply(line)
            }
            Request::Evict { model } => {
                let evicted = lock(&self.sessions).evict(model);
                let invalidated = lock(&self.cache).invalidate_model(model);
                // Replica copies die with the model too; the reply
                // reports the primary count only, so the line is
                // identical whether or not the engine is sharded.
                self.replica.invalidate_model(model);
                self.trace_request("evict", "ok", None, start);
                Response::reply(format!(
                    "{{\"ok\":true,\"op\":\"evict\",\"model\":\"{model}\",\
                     \"evicted\":{evicted},\"invalidated\":{invalidated}}}"
                ))
            }
            Request::Health => {
                let line = self.health_line(start);
                self.trace_request("health", "ok", None, start);
                Response::reply(line)
            }
            Request::Shutdown => {
                self.begin_drain();
                self.trace_request("shutdown", "ok", None, start);
                Response {
                    line: "{\"ok\":true,\"op\":\"shutdown\",\"draining\":true}".to_string(),
                    shutdown: true,
                }
            }
        }
    }

    /// The verdict-cache key of a query (`verify`, `maxres`,
    /// `enumerate`, `security_index`); `None` for every other op.
    fn cache_key(&self, request: &Request) -> Option<CacheKey> {
        let (model, limits, shape) = match *request {
            Request::Verify {
                model,
                property,
                spec,
                limits,
            } => (model, limits, QueryShape::Verify { property, spec }),
            Request::MaxRes {
                model,
                property,
                axis,
                r,
                limits,
            } => (model, limits, QueryShape::MaxRes { property, axis, r }),
            Request::Enumerate {
                model,
                property,
                spec,
                cap,
                limits,
            } => (
                model,
                limits,
                QueryShape::Enumerate {
                    property,
                    spec,
                    cap,
                },
            ),
            Request::SecurityIndex { model } => {
                (model, LimitsSpec::default(), QueryShape::SecurityIndex)
            }
            _ => return None,
        };
        Some(CacheKey {
            model,
            certify: self.certify.enabled,
            limits,
            shape,
        })
    }

    /// The session job that answers a query on a cache miss. The key
    /// carries every parameter the query depends on.
    fn session_query(&self, key: &CacheKey) -> SessionQuery {
        let query_limits = key.limits.to_limits();
        match key.shape {
            QueryShape::Verify { property, spec } => Box::new(move |analyzer| {
                let report = analyzer.verify_with_report_limited(property, spec, &query_limits);
                Ok(QueryReply::Verify {
                    verdict: report.verdict,
                    conflicts: report.conflicts,
                    attempts: report.attempts,
                    certificate: report.certificate.as_ref().map(cert_status),
                })
            }),
            QueryShape::MaxRes { property, axis, r } => Box::new(move |analyzer| {
                let max = analyzer.max_resiliency_limited(property, axis, r, &query_limits);
                Ok(QueryReply::MaxRes { max })
            }),
            QueryShape::Enumerate {
                property,
                spec,
                cap,
            } => {
                let obs = self.obs.clone();
                let certify = self.certify.clone();
                Box::new(move |analyzer| {
                    // Enumeration adds permanent blocking clauses; run it
                    // on a throwaway analyzer so the warm session's model
                    // stays an exact encoding of the (possibly patched)
                    // input.
                    let input = analyzer.input().clone();
                    let mut fresh = Analyzer::owning(input, obs, certify);
                    let space =
                        enumerate_threats_with(&mut fresh, property, spec, cap, &query_limits);
                    Ok(QueryReply::Enumerate {
                        vectors: space.vectors,
                        truncated: space.truncated,
                        undecided: space.undecided,
                    })
                })
            }
            QueryShape::SecurityIndex => {
                let certify = self.certify.clone();
                Box::new(move |analyzer| {
                    // The index depends on the measurement set only, not
                    // the session's resiliency model: priced by min-cut
                    // per query, amortized by the verdict cache.
                    let distribution =
                        served_distribution(&analyzer.input().measurements, &certify)?;
                    Ok(QueryReply::SecurityIndex {
                        indices: distribution.indices,
                        min: distribution.min,
                        max: distribution.max,
                        solves: distribution.solves,
                        cert_failures: distribution.cert_failures,
                    })
                })
            }
        }
    }

    /// Renders the `health` reply. A bare engine has no journal, so
    /// `"journal":false` and the journal/recovery counters read zero;
    /// the journaled wrapper intercepts `health` before it gets here.
    pub(crate) fn health_line(&self, start: Instant) -> String {
        let state = if self.is_draining() {
            "draining"
        } else {
            "ready"
        };
        protocol::health_line(
            state,
            false,
            lock(&self.sessions).len(),
            &|name| self.metrics.counter(name),
            start.elapsed().as_micros(),
        )
    }

    fn handle_load(&self, config: Option<String>, case_study: bool, start: Instant) -> Response {
        match load_input(config, case_study) {
            Ok(input) => self.handle_load_input(input, start),
            Err(message) => self.reply_load_error(&message, start),
        }
    }

    /// Answers a `load` whose input already parsed (the sharded router
    /// parses at the router to compute the routing hash, then hands the
    /// input to the owning shard).
    pub(crate) fn handle_load_input(&self, input: AnalysisInput, start: Instant) -> Response {
        let devices = input.topology.num_devices();
        let measurements = input.measurements.len();
        let (model, created) = lock(&self.sessions).ensure(&input);
        let session = if created { "cold" } else { "warm" };
        self.trace_request("load", "ok", None, start);
        Response::reply(load_line(
            model,
            session,
            devices,
            measurements,
            start.elapsed().as_micros(),
        ))
    }

    /// Answers a `load` whose config failed to parse.
    pub(crate) fn reply_load_error(&self, message: &str, start: Instant) -> Response {
        self.trace_request("load", "error", None, start);
        Response::reply(error_line(message))
    }

    /// Applies a model patch to the warm session for `model`, rekeying
    /// the session (and migrating its unaffected cache entries) under
    /// the advanced lineage hash.
    ///
    /// Unlike `run_query`, the manager lock is held across the wait:
    /// rekeying must be atomic with the patch — a request dispatched to
    /// the old hash between the patch finishing and the rekey would run
    /// against the patched model but be reported (and cached) under the
    /// pre-patch hash. Patches are micro- to millisecond work (that is
    /// the point of the delta path), so the serialization is cheap.
    fn handle_patch(&self, model: ModelHash, patch: ModelPatch, start: Instant) -> Response {
        let _guard = match self.admit_or_reject("patch", start) {
            Ok(guard) => guard,
            Err(rejection) => return rejection,
        };
        let new_model = advance_model_hash(model, &patch);
        let query = patch_query(&patch);
        let mut sessions = lock(&self.sessions);
        let Some(ticket) = sessions.dispatch(model, query) else {
            drop(sessions);
            return self.reply_patch_miss(model, start);
        };
        match ticket.wait() {
            Ok(QueryReply::Patched { result: Ok(stats) }) => {
                sessions.rekey(model, new_model);
                drop(sessions);
                let migrated = lock(&self.cache).migrate(
                    model,
                    new_model,
                    !stats.plain_dirty,
                    !stats.secured_dirty,
                );
                self.finish_patch(model, new_model, &stats, migrated, start)
            }
            outcome => {
                drop(sessions);
                self.reply_patch_failure(outcome, start)
            }
        }
    }

    /// Applies a patch whose advanced lineage hash routes to a
    /// *different* shard: the session and its surviving cache entries
    /// migrate from `self` (which owns `model`) to `dst` (which owns
    /// the post-patch hash). Falls back to the in-place
    /// [`Engine::handle_patch`] when the shards coincide.
    ///
    /// Both managers stay locked from dispatch through adoption — the
    /// same atomicity argument as the in-place rekey, extended to two
    /// shards — with the locks taken in address order so two opposed
    /// cross-shard patches cannot deadlock.
    pub(crate) fn patch_into(
        &self,
        dst: &Engine,
        model: ModelHash,
        patch: ModelPatch,
        start: Instant,
    ) -> Response {
        if std::ptr::eq(self, dst) {
            return self.handle_patch(model, patch, start);
        }
        let _guard = match self.admit_or_reject("patch", start) {
            Ok(guard) => guard,
            Err(rejection) => return rejection,
        };
        let new_model = advance_model_hash(model, &patch);
        let query = patch_query(&patch);
        let (first, second) = if (self as *const Engine) < (dst as *const Engine) {
            (self, dst)
        } else {
            (dst, self)
        };
        let mut first_sessions = lock(&first.sessions);
        let mut second_sessions = lock(&second.sessions);
        let (src_sessions, dst_sessions) = if std::ptr::eq(first, self) {
            (&mut *first_sessions, &mut *second_sessions)
        } else {
            (&mut *second_sessions, &mut *first_sessions)
        };
        let Some(ticket) = src_sessions.dispatch(model, query) else {
            drop(second_sessions);
            drop(first_sessions);
            return self.reply_patch_miss(model, start);
        };
        match ticket.wait() {
            Ok(QueryReply::Patched { result: Ok(stats) }) => {
                if let Some(handle) = src_sessions.extract(model) {
                    dst_sessions.adopt(handle, new_model);
                }
                drop(second_sessions);
                drop(first_sessions);
                let keepers = lock(&self.cache).extract_migrated(
                    model,
                    !stats.plain_dirty,
                    !stats.secured_dirty,
                );
                let migrated = lock(&dst.cache).adopt(new_model, keepers);
                self.finish_patch(model, new_model, &stats, migrated, start)
            }
            outcome => {
                drop(second_sessions);
                drop(first_sessions);
                self.reply_patch_failure(outcome, start)
            }
        }
    }

    /// Admission for solver-bound work, drain-aware. A `busy` rejection
    /// (saturated, `"retry":true`) is only answered while *not*
    /// draining; once the flag is set the answer is `draining`
    /// (`"retry":false`) — a drained service never admits again, so
    /// telling the client to retry would strand it.
    ///
    /// The re-check after the increment closes the race with
    /// [`Engine::drain`]: drain sets the flag and then waits on the
    /// in-flight count, so (both sides being `SeqCst`) either this
    /// request observes the flag and is rejected cleanly, or drain
    /// observes the increment and waits for the request — a `patch`
    /// that wins admission always completes its rekey before the
    /// session manager shuts down.
    fn admit_or_reject(
        &self,
        op: &'static str,
        start: Instant,
    ) -> Result<InflightGuard<'_>, Response> {
        let Some(guard) = self.admit() else {
            if self.is_draining() {
                return Err(self.reply_draining(op, start));
            }
            self.metrics.add("service_busy", 1);
            self.trace_request(op, "busy", None, start);
            return Err(Response::reply(busy_line()));
        };
        if self.is_draining() {
            return Err(self.reply_draining(op, start));
        }
        Ok(guard)
    }

    fn reply_patch_miss(&self, model: ModelHash, start: Instant) -> Response {
        // Dispatch misses during a drain mean the manager already shut
        // down (or is about to): answer `draining`, not a misleading
        // `unknown model`, so clients fail over instead of re-loading.
        if self.is_draining() {
            return self.reply_draining("patch", start);
        }
        self.trace_request("patch", "error", None, start);
        Response::reply(error_line(&format!(
            "unknown model {model} (load it first)"
        )))
    }

    fn finish_patch(
        &self,
        model: ModelHash,
        new_model: ModelHash,
        stats: &crate::encode::DeltaStats,
        migrated: usize,
        start: Instant,
    ) -> Response {
        let dropped = self.replica.invalidate_model(model);
        if dropped > 0 {
            self.metrics
                .add("service_replica_invalidated", dropped as u64);
        }
        self.metrics.add("service_delta_patches", 1);
        self.trace_request("patch", "ok", Some("delta"), start);
        Response::reply(patch_line(
            new_model,
            model,
            stats,
            migrated,
            start.elapsed().as_micros(),
        ))
    }

    fn reply_patch_failure(&self, outcome: Result<QueryReply, String>, start: Instant) -> Response {
        let message = match outcome {
            // Rejected patch: the session's model is untouched, so its
            // key and cache entries stay valid.
            Ok(QueryReply::Patched { result: Err(e) }) => e,
            Ok(_) => "patch query returned a non-patch reply".to_string(),
            // The patch panicked; the worker rebuilt from its current
            // input, which apply_patch only advances after the delta
            // encode succeeds — key stays valid.
            Err(message) => message,
        };
        self.trace_request("patch", "error", None, start);
        Response::reply(error_line(&message))
    }

    /// Answers a query from the replica or the verdict cache, the one
    /// hit path behind both [`Engine::handle_request`] and the event
    /// loop's inline [`LineHandler::try_cached`]. Hits bypass admission
    /// entirely: no solver work. A miss counts nothing here; the caller
    /// that goes on to run the query counts it.
    fn cached(&self, op: &'static str, key: &CacheKey, start: Instant) -> Option<Response> {
        // The epoch snapshot must precede every cache consultation so a
        // racing invalidation renders a late publish unservable.
        let epoch = self.replica.epoch_of(key.model);
        let reply = if let Some(reply) = self.replica.lookup(key) {
            self.metrics.add("service_replica_hits", 1);
            reply
        } else {
            let reply = lock(&self.cache).lookup(key)?;
            // A second hit marks the entry hot: replicate it so sibling
            // shards' workers replay it under a read lock.
            self.replica.publish(key, &reply, epoch);
            reply
        };
        self.metrics.add("service_cache_hits", 1);
        self.trace_request(op, "ok", Some("cached"), start);
        Some(Response::reply(reply_line(
            key.model,
            &reply,
            "cached",
            start.elapsed().as_micros(),
        )))
    }

    /// The inline hit path for one decoded request: `None` for a miss,
    /// for every op other than a query, and while draining (so the
    /// request takes the full path and gets the `draining` reply).
    pub(crate) fn try_cached_request(&self, request: &Request, start: Instant) -> Option<Response> {
        if self.is_draining() {
            return None;
        }
        let key = self.cache_key(request)?;
        self.cached(op_name(request), &key, start)
    }

    fn run_query(&self, op: &'static str, key: CacheKey, start: Instant) -> Response {
        if let Some(hit) = self.cached(op, &key, start) {
            return hit;
        }
        self.metrics.add("service_cache_misses", 1);
        let model = key.model;
        let _guard = match self.admit_or_reject(op, start) {
            Ok(guard) => guard,
            Err(rejection) => return rejection,
        };
        // Dispatch under the manager lock, wait outside it: a slow query
        // must not serialize the whole service.
        let ticket = lock(&self.sessions).dispatch(model, self.session_query(&key));
        let Some(ticket) = ticket else {
            // A miss during a drain means the manager already shut
            // down; `draining` is the honest answer, not `unknown
            // model`.
            if self.is_draining() {
                return self.reply_draining(op, start);
            }
            self.trace_request(op, "error", None, start);
            return Response::reply(error_line(&format!(
                "unknown model {model} (load it first)"
            )));
        };
        let provenance = ticket.warmth().as_str();
        match ticket.wait() {
            Ok(reply) => {
                lock(&self.cache).insert(key, &reply);
                self.trace_request(op, "ok", Some(provenance), start);
                Response::reply(reply_line(
                    model,
                    &reply,
                    provenance,
                    start.elapsed().as_micros(),
                ))
            }
            Err(message) => {
                self.trace_request(op, "error", Some(provenance), start);
                Response::reply(error_line(&message))
            }
        }
    }

    fn stats_line(&self, start: Instant) -> String {
        let (sessions, models) = {
            let mgr = lock(&self.sessions);
            (mgr.len(), mgr.models())
        };
        let cache_entries = lock(&self.cache).len();
        let mut out = String::from("{\"ok\":true,\"op\":\"stats\"");
        out.push_str(&format!(
            ",\"uptime_us\":{},\"sessions\":{sessions},\"models\":[",
            self.started.elapsed().as_micros()
        ));
        for (i, model) in models.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{model}\""));
        }
        out.push_str(&format!(
            "],\"cache_entries\":{cache_entries},\"inflight\":{},\"max_inflight\":{},\
             \"counters\":{{",
            self.inflight.load(Ordering::SeqCst),
            self.max_inflight,
        ));
        for (i, (name, value)) in self.metrics.counters().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{value}"));
        }
        out.push_str(&format!(
            "}},\"elapsed_us\":{}}}",
            start.elapsed().as_micros()
        ));
        out
    }

    /// Stops admission without waiting: every later request (except
    /// `shutdown`) answers `draining`. Part of [`Engine::drain`]; the
    /// sharded router also calls it on every shard the moment one
    /// acknowledges a `shutdown`, so no shard keeps admitting while its
    /// siblings drain.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Drains the service: stops admitting, waits for in-flight queries
    /// to finish (certified queries flush their DRAT proofs as part of
    /// finishing), and joins every session worker. Idempotent; called
    /// by the transports after their accept/read loops exit.
    pub fn drain(&self) {
        self.begin_drain();
        while self.inflight.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        lock(&self.sessions).shutdown();
    }

    /// Snapshot of the figures an aggregated `stats` line needs:
    /// `(sessions, models, cache_entries, inflight, max_inflight)`.
    pub(crate) fn stats_parts(&self) -> (usize, Vec<ModelHash>, usize, usize, usize) {
        let (sessions, models) = {
            let mgr = lock(&self.sessions);
            (mgr.len(), mgr.models())
        };
        (
            sessions,
            models,
            lock(&self.cache).len(),
            self.inflight.load(Ordering::SeqCst),
            self.max_inflight,
        )
    }
}

/// The wire op name of a request, for traces and counters.
pub(crate) fn op_name(request: &Request) -> &'static str {
    match request {
        Request::Load { .. } => "load",
        Request::Verify { .. } => "verify",
        Request::MaxRes { .. } => "maxres",
        Request::Enumerate { .. } => "enumerate",
        Request::SecurityIndex { .. } => "security_index",
        Request::Patch { .. } => "patch",
        Request::Stats => "stats",
        Request::Batch { .. } => "batch",
        Request::Evict { .. } => "evict",
        Request::Health => "health",
        Request::Shutdown => "shutdown",
    }
}

/// Builds the session job for a `patch` request.
fn patch_query(patch: &ModelPatch) -> SessionQuery {
    let job_patch = patch.clone();
    Box::new(move |analyzer| {
        Ok(QueryReply::Patched {
            result: analyzer.apply_patch(&job_patch).map_err(|e| e.to_string()),
        })
    })
}

/// Materializes a `load` request's input: inline config text or the
/// paper's case study. Errors are wire-ready messages.
pub(crate) fn load_input(
    config: Option<String>,
    case_study: bool,
) -> Result<AnalysisInput, String> {
    if case_study {
        return Ok(five_bus_case_study());
    }
    let text = config.expect("parser guarantees one source");
    match scadasim::parse_config(&text) {
        Ok(config) => Ok(AnalysisInput::from(config)),
        Err(error) => Err(format!("bad config: {error}")),
    }
}

/// Runs the fleet batch executor against `submit` and renders the
/// consolidated reply. Shared by the bare, sharded, and journaled
/// engines — each passes its own request path as `submit`, which is
/// what makes the inner mutations inherit that engine's routing,
/// admission, and journaling. Returns the reply line and a trace
/// status.
/// Resolves a client-supplied `batch` directory against the configured
/// fleet root. The `dir` must be relative and may not escape the root
/// (`..`, absolute paths, and drive/root prefixes are rejected), so a
/// network client can only audit the trees the operator opted in.
fn resolve_fleet_dir(
    root: Option<&std::path::Path>,
    dir: &str,
) -> Result<std::path::PathBuf, String> {
    let Some(root) = root else {
        return Err("batch is disabled (start scadad with --fleet-root DIR)".to_string());
    };
    let mut resolved = root.to_path_buf();
    for component in std::path::Path::new(dir).components() {
        match component {
            std::path::Component::Normal(part) => resolved.push(part),
            std::path::Component::CurDir => {}
            _ => {
                return Err("\"dir\" must be a relative path under the fleet root \
                     (no `..` or absolute paths)"
                    .to_string());
            }
        }
    }
    Ok(resolved)
}

pub(crate) fn batch_reply(
    root: Option<&std::path::Path>,
    dir: &str,
    jobs: usize,
    submit: &(dyn Fn(&str) -> String + Sync),
    start: Instant,
) -> (String, &'static str) {
    let resolved = match resolve_fleet_dir(root, dir) {
        Ok(resolved) => resolved,
        Err(error) => return (error_line(&format!("batch: {error}")), "error"),
    };
    // Defense in depth: the importer returns addressed errors for
    // malformed configs, but a residual panic anywhere in the audit
    // must become an error reply, not take down the request thread.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        crate::fleet::run_batch(&resolved, jobs, submit)
    }));
    match outcome {
        Ok(Ok(outcome)) => (outcome.render_line(start.elapsed().as_micros()), "ok"),
        Ok(Err(error)) => (error_line(&format!("batch: {error}")), "error"),
        Err(_) => (
            error_line("batch: internal error (audit panicked; see server log)"),
            "error",
        ),
    }
}

/// What a transport needs from a request engine, implemented by both
/// [`Engine`] and [`ShardedEngine`](super::ShardedEngine) so every
/// transport (stdio, thread-per-connection TCP, the event loop) serves
/// either interchangeably.
pub trait LineHandler: Send + Sync + 'static {
    /// Handles one request line, returning one response line.
    fn handle_line(&self, line: &str) -> Response;

    /// Answers a query line from the replica or the verdict cache,
    /// byte-identical to what [`LineHandler::handle_line`] would reply,
    /// or returns `None` — on a miss, for every op other than a query,
    /// for a line that does not parse, and while draining or
    /// recovering. `None` leaves no trace (no counter moves), so the
    /// caller can go on to `handle_line` as if it had never asked. The
    /// event loop answers hits on its own thread with this.
    fn try_cached(&self, line: &str) -> Option<Response>;

    /// Longest accepted request line in bytes.
    fn max_line(&self) -> usize;

    /// Whether `shutdown` has been requested.
    fn is_draining(&self) -> bool;

    /// Requests a drain without blocking: stops admission and flips
    /// `is_draining`, so every transport winds down on its next poll.
    /// Signal handlers use this; the transport's exit path then calls
    /// [`LineHandler::drain`] to finish.
    fn begin_drain(&self);

    /// Drains fully: stops admitting, waits out in-flight work, joins
    /// session workers.
    fn drain(&self);
}

/// Parses `line` and hands the request to `answer` (an engine's inline
/// hit path), echoing the request `id` on the reply like
/// [`Engine::handle_line`] does.
pub(crate) fn try_cached_line(
    line: &str,
    answer: impl FnOnce(&Request, Instant) -> Option<Response>,
) -> Option<Response> {
    let start = Instant::now();
    let (id, parsed) = parse_line(line);
    let mut response = answer(&parsed.ok()?, start)?;
    if let Some(id) = id {
        attach_id(&mut response.line, &id);
    }
    Some(response)
}

impl LineHandler for Engine {
    fn handle_line(&self, line: &str) -> Response {
        Engine::handle_line(self, line)
    }

    fn try_cached(&self, line: &str) -> Option<Response> {
        try_cached_line(line, |request, start| {
            self.try_cached_request(request, start)
        })
    }

    fn max_line(&self) -> usize {
        Engine::max_line(self)
    }

    fn is_draining(&self) -> bool {
        Engine::is_draining(self)
    }

    fn begin_drain(&self) {
        Engine::begin_drain(self)
    }

    fn drain(&self) {
        Engine::drain(self)
    }
}

// ---------------------------------------------------------------------------
// Bounded line reading
// ---------------------------------------------------------------------------

/// Outcome of one poll for a request line.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum LinePoll {
    /// No complete line yet (non-blocking reader hit its timeout).
    Pending,
    /// One complete line (newline stripped).
    Line(String),
    /// A line exceeded the byte bound; it was discarded, not buffered.
    Oversized,
    /// End of stream.
    Eof,
}

/// Reads newline-delimited lines with a hard byte bound per line.
///
/// Once a line crosses the bound the reader switches to *discard mode*:
/// the rest of the line is consumed chunk by chunk straight out of the
/// `BufRead` buffer without ever being accumulated, so the memory cost
/// of an oversized line is the `BufRead` buffer, not the line. Partial
/// lines survive `Pending` polls (read timeouts), which lets the TCP
/// transport poll the drain flag without losing buffered bytes.
pub(crate) struct BoundedLineReader<R> {
    inner: R,
    buf: Vec<u8>,
    discarding: bool,
    cap: usize,
}

enum Step {
    Eof,
    /// Bytes before a newline, plus how much to consume (incl. the
    /// newline).
    Complete(Vec<u8>, usize),
    /// A newline-free chunk of `len` bytes to append (or discard).
    Partial(Vec<u8>, usize),
}

impl<R: BufRead> BoundedLineReader<R> {
    pub(crate) fn new(inner: R, cap: usize) -> BoundedLineReader<R> {
        BoundedLineReader {
            inner,
            buf: Vec::new(),
            discarding: false,
            cap,
        }
    }

    pub(crate) fn poll_line(&mut self) -> io::Result<LinePoll> {
        loop {
            let step = {
                let available = match self.inner.fill_buf() {
                    Ok(available) => available,
                    // A signal interrupted the read. Surface it as
                    // Pending instead of retrying blindly so blocking
                    // transports get a chance to poll the drain flag
                    // (SIGTERM would otherwise never end a quiescent
                    // stdio session).
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                        return Ok(LinePoll::Pending)
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        return Ok(LinePoll::Pending)
                    }
                    Err(e) => return Err(e),
                };
                if available.is_empty() {
                    Step::Eof
                } else {
                    match available.iter().position(|&b| b == b'\n') {
                        Some(pos) => Step::Complete(available[..pos].to_vec(), pos + 1),
                        None => {
                            let chunk =
                                if self.discarding || self.buf.len() + available.len() > self.cap {
                                    // Never accumulate beyond the cap.
                                    Vec::new()
                                } else {
                                    available.to_vec()
                                };
                            Step::Partial(chunk, available.len())
                        }
                    }
                }
            };
            match step {
                Step::Eof => {
                    if self.discarding {
                        self.discarding = false;
                        self.buf.clear();
                        return Ok(LinePoll::Oversized);
                    }
                    if self.buf.is_empty() {
                        return Ok(LinePoll::Eof);
                    }
                    // Unterminated trailing line: serve it.
                    let line = self.take_line();
                    return Ok(LinePoll::Line(line));
                }
                Step::Complete(head, consume) => {
                    let was_discarding = self.discarding;
                    let overflow = !was_discarding && self.buf.len() + head.len() > self.cap;
                    if !was_discarding && !overflow {
                        self.buf.extend_from_slice(&head);
                    }
                    self.inner.consume(consume);
                    if was_discarding || overflow {
                        self.discarding = false;
                        self.buf.clear();
                        return Ok(LinePoll::Oversized);
                    }
                    let line = self.take_line();
                    return Ok(LinePoll::Line(line));
                }
                Step::Partial(chunk, consume) => {
                    if chunk.is_empty() {
                        self.discarding = true;
                        self.buf.clear();
                    } else {
                        self.buf.extend_from_slice(&chunk);
                    }
                    self.inner.consume(consume);
                }
            }
        }
    }

    fn take_line(&mut self) -> String {
        if self.buf.last() == Some(&b'\r') {
            self.buf.pop();
        }
        let line = String::from_utf8_lossy(&self.buf).into_owned();
        self.buf.clear();
        line
    }
}

// ---------------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------------

fn oversized_line(cap: usize) -> String {
    error_line(&format!("request line exceeds {cap} bytes"))
}

/// Serves the engine over a blocking reader/writer pair (stdio). Runs
/// until EOF or a `shutdown` request, then drains the engine.
pub fn serve_stdio<H: LineHandler>(
    engine: &H,
    input: impl Read,
    output: impl Write,
) -> io::Result<()> {
    let mut reader = BoundedLineReader::new(BufReader::new(input), engine.max_line());
    let mut out = BufWriter::new(output);
    loop {
        match reader.poll_line()? {
            // Pending on a blocking reader means a signal interrupted
            // the read: poll the drain flags, then retry.
            LinePoll::Pending => {
                if super::signal::drain_requested() {
                    engine.begin_drain();
                }
                if engine.is_draining() {
                    break;
                }
                continue;
            }
            LinePoll::Eof => break,
            LinePoll::Oversized => {
                writeln!(out, "{}", oversized_line(engine.max_line()))?;
                out.flush()?;
            }
            LinePoll::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                let response = engine.handle_line(&line);
                writeln!(out, "{}", response.line)?;
                out.flush()?;
                if response.shutdown {
                    break;
                }
            }
        }
    }
    engine.drain();
    Ok(())
}

fn serve_connection<H: LineHandler>(engine: &H, stream: TcpStream) -> io::Result<()> {
    // A short read timeout turns the blocking read into a poll, so the
    // connection notices a drain started elsewhere within ~100 ms.
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BoundedLineReader::new(BufReader::new(stream), engine.max_line());
    loop {
        match reader.poll_line() {
            Ok(LinePoll::Pending) => {
                if super::signal::drain_requested() {
                    engine.begin_drain();
                }
                if engine.is_draining() {
                    break;
                }
            }
            Ok(LinePoll::Eof) => break,
            Ok(LinePoll::Oversized) => {
                writeln!(writer, "{}", oversized_line(engine.max_line()))?;
            }
            Ok(LinePoll::Line(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                let response = engine.handle_line(&line);
                writeln!(writer, "{}", response.line)?;
                if response.shutdown {
                    break;
                }
            }
            // A connection-level error (reset, broken pipe) ends this
            // connection, never the service.
            Err(_) => break,
        }
    }
    Ok(())
}

/// Serves the engine over a TCP listener until a `shutdown` request,
/// then joins every connection and drains the engine. One thread per
/// connection; requests on a connection are answered in order.
pub fn serve_tcp<H: LineHandler>(engine: Arc<H>, listener: TcpListener) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !engine.is_draining() {
        if super::signal::drain_requested() {
            engine.begin_drain();
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // A reply must not wait for the ACK of the one before
                // it (Nagle).
                let _ = stream.set_nodelay(true);
                let engine = Arc::clone(&engine);
                let handle = std::thread::Builder::new()
                    .name("scadad-conn".to_string())
                    .spawn(move || {
                        let _ = serve_connection(&*engine, stream);
                    })
                    .expect("spawn connection thread");
                connections.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        connections.retain(|handle| !handle.is_finished());
    }
    // Drain: every connection notices the flag within its read timeout;
    // in-flight queries finish first because handle_line blocks until
    // the session answers.
    for handle in connections {
        let _ = handle.join();
    }
    engine.drain();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::protocol::parse_json;
    use std::io::Cursor;

    fn engine() -> Engine {
        Engine::new(ServeOptions::default())
    }

    fn field_str(line: &str, key: &str) -> Option<String> {
        let v = parse_json(line).unwrap();
        v.get(key).and_then(|j| match j {
            crate::service::protocol::Json::Str(s) => Some(s.clone()),
            _ => None,
        })
    }

    #[test]
    fn load_verify_cache_roundtrip() {
        let engine = engine();
        let load = engine.handle_line("{\"op\":\"load\",\"case_study\":true}");
        assert!(load.line.contains("\"ok\":true"), "{}", load.line);
        let model = field_str(&load.line, "model").unwrap();
        assert_eq!(field_str(&load.line, "session").as_deref(), Some("cold"));

        let verify = format!(
            "{{\"op\":\"verify\",\"model\":\"{model}\",\"property\":\"obs\",\
             \"spec\":{{\"k1\":1,\"k2\":1}}}}"
        );
        let first = engine.handle_line(&verify);
        assert_eq!(
            field_str(&first.line, "verdict").as_deref(),
            Some("resilient")
        );
        assert_eq!(
            field_str(&first.line, "provenance").as_deref(),
            Some("cold")
        );

        let second = engine.handle_line(&verify);
        assert_eq!(
            field_str(&second.line, "provenance").as_deref(),
            Some("cached")
        );
        assert_eq!(engine.metrics().counter("service_cache_hits"), 1);

        // A different spec misses the cache but hits the warm session.
        let other = verify.replace("\"k1\":1", "\"k1\":2");
        let third = engine.handle_line(&other);
        assert_eq!(
            field_str(&third.line, "provenance").as_deref(),
            Some("warm")
        );
        assert_eq!(field_str(&third.line, "verdict").as_deref(), Some("threat"));
        assert_eq!(engine.metrics().counter("service_cache_hits"), 1);
        assert_eq!(engine.metrics().counter("service_cache_misses"), 2);

        let stats = engine.handle_line("{\"op\":\"stats\"}");
        assert!(
            stats.line.contains("\"service_cache_hits\":1"),
            "{}",
            stats.line
        );
        engine.drain();
    }

    #[test]
    fn malformed_and_unknown_model_are_structured_errors() {
        let engine = engine();
        let bad = engine.handle_line("{not json");
        assert!(bad.line.starts_with("{\"ok\":false"), "{}", bad.line);
        assert!(!bad.shutdown);
        let unknown = engine.handle_line(
            "{\"op\":\"verify\",\"model\":\"00000000000000000000000000000000\",\
             \"property\":\"obs\",\"spec\":{\"k\":1}}",
        );
        assert!(unknown.line.contains("unknown model"), "{}", unknown.line);
        engine.drain();
    }

    #[test]
    fn stdio_transport_smoke() {
        let engine = engine();
        let script = "{\"op\":\"load\",\"case_study\":true}\n\
                      {\"op\":\"stats\"}\n\
                      {\"op\":\"shutdown\"}\n";
        let mut output = Vec::new();
        serve_stdio(&engine, Cursor::new(script), &mut output).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].contains("\"op\":\"load\""));
        assert!(lines[1].contains("\"op\":\"stats\""));
        assert!(lines[2].contains("\"draining\":true"));
    }

    #[test]
    fn oversized_lines_are_rejected_without_buffering() {
        let engine = Engine::new(ServeOptions {
            max_line: 64,
            ..ServeOptions::default()
        });
        let mut script = String::new();
        script.push('{');
        script.push_str(&"x".repeat(1024));
        script.push('\n');
        script.push_str("{\"op\":\"stats\"}\n");
        let mut output = Vec::new();
        serve_stdio(&engine, Cursor::new(script), &mut output).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("exceeds 64 bytes"), "{}", lines[0]);
        // The stream recovers: the next request still works.
        assert!(lines[1].contains("\"op\":\"stats\""), "{}", lines[1]);
    }

    #[test]
    fn bounded_reader_handles_split_and_oversized_lines() {
        let data = b"short\nthis-line-is-way-too-long-for-the-cap\nok\nlast";
        let mut reader = BoundedLineReader::new(Cursor::new(&data[..]), 10);
        assert_eq!(reader.poll_line().unwrap(), LinePoll::Line("short".into()));
        assert_eq!(reader.poll_line().unwrap(), LinePoll::Oversized);
        assert_eq!(reader.poll_line().unwrap(), LinePoll::Line("ok".into()));
        assert_eq!(reader.poll_line().unwrap(), LinePoll::Line("last".into()));
        assert_eq!(reader.poll_line().unwrap(), LinePoll::Eof);
    }

    #[test]
    fn patch_rekeys_session_and_answers_with_delta_provenance() {
        let engine = engine();
        let load = engine.handle_line("{\"op\":\"load\",\"case_study\":true}");
        let model = field_str(&load.line, "model").unwrap();

        // Verify on the base model, then patch in a new RTU on the MTU
        // (device 14 in the five-bus case study numbering is irrelevant
        // here: peers name the MTU via its 1-based id).
        let verify = format!(
            "{{\"op\":\"verify\",\"model\":\"{model}\",\"property\":\"obs\",\
             \"spec\":{{\"k1\":1,\"k2\":1}}}}"
        );
        let base = engine.handle_line(&verify);
        assert_eq!(
            field_str(&base.line, "verdict").as_deref(),
            Some("resilient")
        );

        let mtu_one_based = {
            let input = five_bus_case_study();
            input.topology.mtu().one_based()
        };
        let patch = format!(
            "{{\"op\":\"patch\",\"model\":\"{model}\",\
             \"patch\":{{\"add_device\":{{\"kind\":\"rtu\",\"peers\":[{mtu_one_based}]}}}}}}"
        );
        let patched = engine.handle_line(&patch);
        assert!(patched.line.contains("\"ok\":true"), "{}", patched.line);
        assert_eq!(
            field_str(&patched.line, "provenance").as_deref(),
            Some("delta")
        );
        assert_eq!(
            field_str(&patched.line, "patched_from").as_deref(),
            Some(model.as_str())
        );
        let new_model = field_str(&patched.line, "model").unwrap();
        assert_ne!(new_model, model);

        // The old hash no longer addresses the session…
        let stale = engine.handle_line(&verify);
        assert!(stale.line.contains("unknown model"), "{}", stale.line);
        // …the leaf RTU disturbed no path set, so the old verdict
        // migrated to the new hash and replays from the cache…
        let re_verify = verify.replace(model.as_str(), new_model.as_str());
        let after = engine.handle_line(&re_verify);
        assert_eq!(
            field_str(&after.line, "verdict").as_deref(),
            Some("resilient"),
            "{}",
            after.line
        );
        assert_eq!(
            field_str(&after.line, "provenance").as_deref(),
            Some("cached")
        );
        // …while an uncached query on the patched session answers with
        // delta provenance.
        let fresh_spec = re_verify.replace("\"k1\":1", "\"k1\":2");
        let fresh = engine.handle_line(&fresh_spec);
        assert_eq!(
            field_str(&fresh.line, "provenance").as_deref(),
            Some("delta"),
            "{}",
            fresh.line
        );
        assert_eq!(field_str(&fresh.line, "verdict").as_deref(), Some("threat"));
        assert_eq!(engine.metrics().counter("service_delta_patches"), 1);

        // A rejected patch leaves the session addressable and unchanged.
        let bad = format!(
            "{{\"op\":\"patch\",\"model\":\"{new_model}\",\
             \"patch\":{{\"remove_device\":{mtu_one_based}}}}}"
        );
        let rejected = engine.handle_line(&bad);
        assert!(rejected.line.contains("\"ok\":false"), "{}", rejected.line);
        let still = engine.handle_line(&re_verify);
        assert!(still.line.contains("\"ok\":true"), "{}", still.line);
        engine.drain();
    }

    #[test]
    fn timed_out_request_does_not_poison_the_warm_session() {
        let engine = engine();
        let load = engine.handle_line("{\"op\":\"load\",\"case_study\":true}");
        let model = field_str(&load.line, "model").unwrap();
        // A zero-millisecond budget forces Unknown on the warm session…
        let strangled = format!(
            "{{\"op\":\"verify\",\"model\":\"{model}\",\"property\":\"obs\",\
             \"spec\":{{\"k1\":1,\"k2\":1}},\"limits\":{{\"timeout_ms\":0}}}}"
        );
        let first = engine.handle_line(&strangled);
        assert_eq!(
            field_str(&first.line, "verdict").as_deref(),
            Some("unknown")
        );
        // …and must not be cached…
        let again = engine.handle_line(&strangled);
        assert_ne!(
            field_str(&again.line, "provenance").as_deref(),
            Some("cached")
        );
        // …nor leave its deadline armed for the next, unlimited request.
        let unlimited = format!(
            "{{\"op\":\"verify\",\"model\":\"{model}\",\"property\":\"obs\",\
             \"spec\":{{\"k1\":1,\"k2\":1}}}}"
        );
        let second = engine.handle_line(&unlimited);
        assert_eq!(
            field_str(&second.line, "verdict").as_deref(),
            Some("resilient"),
            "{}",
            second.line
        );
        engine.drain();
    }
}
