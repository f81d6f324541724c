//! The sharded front-end: N engines behind one model-hash router.
//!
//! A single [`Engine`] serializes every session-manager and
//! verdict-cache access behind one mutex each; under heavy concurrent
//! traffic those two locks are the service's ceiling. The
//! [`ShardedEngine`] splits the state: N inner engines (*shards*), each
//! owning a disjoint slice of the session set and the verdict cache,
//! with requests routed by the canonical model hash —
//! `shard(model) = hash mod N` — so queries on different models contend
//! on nothing at all. The capacities configured in [`ServeOptions`]
//! are totals, divided across shards.
//!
//! The protocol is unchanged: replies are byte-identical to a
//! standalone engine's (modulo timing fields), which an equivalence
//! test pins. Three ops need router-level handling:
//!
//! * **`load`** parses the config at the router (the routing hash *is*
//!   the content hash of the parsed input) and hands the parsed input
//!   to the owning shard;
//! * **`patch`** advances the lineage hash first; when the post-patch
//!   hash routes to a different shard, the warm session and its
//!   surviving cache entries migrate (`Engine::patch_into`) instead
//!   of being rebuilt;
//! * **`shutdown`** flips every shard to draining *before* the
//!   acknowledging shard answers, so no shard admits work while its
//!   siblings drain; [`ShardedEngine::drain`] then drains each shard.
//!
//! Hot verdicts are replicated read-mostly across shards through a
//! shared [`ReplicaCache`] (see that module for the epoch protocol):
//! each shard publishes entries that prove hot and answers from the
//! replica under a read lock before touching its own cache mutex.

use std::sync::Arc;
use std::time::Instant;

use super::hash::{advance_model_hash, model_hash, ModelHash};
use super::protocol::{attach_id, parse_line, Request};
use super::replica::ReplicaCache;
use super::server::{
    load_input, op_name, try_cached_line, Engine, LineHandler, Response, ServeOptions,
};

/// N [`Engine`] shards behind a model-hash router. Construct with
/// [`ShardedEngine::new`]; serve with any transport (they are generic
/// over [`LineHandler`]).
pub struct ShardedEngine {
    shards: Vec<Engine>,
    replica: Arc<ReplicaCache>,
    started: Instant,
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.shards.len())
            .field("replica", &self.replica)
            .finish_non_exhaustive()
    }
}

fn split_capacity(total: usize, shards: usize) -> usize {
    total.div_ceil(shards).max(1)
}

impl ShardedEngine {
    /// Builds `shards` engines from one set of options. The session,
    /// cache, and admission capacities in `options` are totals and are
    /// divided (rounded up) across shards; the replica is enabled with
    /// the total cache capacity once there is more than one shard to
    /// share it.
    pub fn new(options: ServeOptions, shards: usize) -> ShardedEngine {
        let shards = shards.max(1);
        let replica = Arc::new(if shards > 1 {
            ReplicaCache::new(options.cache)
        } else {
            ReplicaCache::disabled()
        });
        let max_inflight = crate::pool::effective_jobs(options.max_inflight);
        let engines = (0..shards)
            .map(|_| {
                Engine::with_replica(
                    ServeOptions {
                        sessions: split_capacity(options.sessions, shards),
                        cache: if options.cache == 0 {
                            0
                        } else {
                            split_capacity(options.cache, shards)
                        },
                        max_inflight: split_capacity(max_inflight, shards),
                        max_line: options.max_line,
                        obs: options.obs.clone(),
                        certify: options.certify.clone(),
                        fleet_root: options.fleet_root.clone(),
                    },
                    Arc::clone(&replica),
                )
            })
            .collect();
        ShardedEngine {
            shards: engines,
            replica,
            started: Instant::now(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `model`.
    fn shard(&self, model: ModelHash) -> &Engine {
        // The canonical hash is avalanche-mixed, so the high half
        // modulo N spreads models evenly.
        let index = ((model.0 >> 64) as u64 % self.shards.len() as u64) as usize;
        &self.shards[index]
    }

    /// Sum of one counter across every shard's metrics registry.
    pub fn counter(&self, name: &str) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.metrics().counter(name))
            .sum()
    }

    /// An owning handle on the first shard's metrics registry. The
    /// journal layer records its counters here; sums across shards
    /// (`counter`, the aggregated `stats` line) see them regardless of
    /// which shard carries them.
    pub(crate) fn metrics_arc(&self) -> Arc<crate::obs::MetricsRegistry> {
        self.shards[0].metrics_arc()
    }

    /// Replicated hot entries currently held.
    pub fn replica_entries(&self) -> usize {
        self.replica.len()
    }

    /// Warm sessions currently live across every shard.
    pub(crate) fn session_count(&self) -> usize {
        self.shards.iter().map(|shard| shard.stats_parts().0).sum()
    }

    /// Answers a line that failed to parse (delegated to the first
    /// shard, which owns the router-level traces).
    pub(crate) fn reply_invalid(&self, message: &str, start: Instant) -> Response {
        self.shards[0].reply_invalid(message, start)
    }

    /// Traces a router-level request against the first shard's metrics.
    pub(crate) fn trace_request(&self, op: &'static str, status: &'static str, start: Instant) {
        self.shards[0].trace_request(op, status, None, start);
    }

    /// The configured `batch` root, if the op is enabled (identical on
    /// every shard).
    pub(crate) fn fleet_root(&self) -> Option<&std::path::Path> {
        self.shards[0].fleet_root()
    }

    /// Handles one request line, returning one response line (the
    /// sharded counterpart of [`Engine::handle_line`]).
    pub fn handle_line(&self, line: &str) -> Response {
        let start = Instant::now();
        let (id, parsed) = parse_line(line);
        let mut response = match parsed {
            Ok(request) => self.handle_request(request, start),
            Err(message) => self.shards[0].reply_invalid(&message, start),
        };
        if let Some(id) = id {
            attach_id(&mut response.line, &id);
        }
        response
    }

    pub(crate) fn handle_request(&self, request: Request, start: Instant) -> Response {
        // The router-level drain check mirrors the engine's: ops the
        // router answers itself (`load` parse errors, `stats`) must
        // reject the same way a shard would, and `health` keeps
        // answering while draining.
        if self.is_draining() && request != Request::Shutdown && request != Request::Health {
            return self.shards[0].reply_draining(op_name(&request), start);
        }
        match request {
            Request::Load { config, case_study } => match load_input(config, case_study) {
                Ok(input) => {
                    let model = model_hash(&input);
                    self.shard(model).handle_load_input(input, start)
                }
                Err(message) => self.shards[0].reply_load_error(&message, start),
            },
            Request::Patch { model, patch } => {
                let new_model = advance_model_hash(model, &patch);
                let src = self.shard(model);
                let dst = self.shard(new_model);
                src.patch_into(dst, model, patch, start)
            }
            Request::Stats => {
                let line = self.stats_line(start);
                self.shards[0].trace_request("stats", "ok", None, start);
                Response::reply(line)
            }
            Request::Health => {
                let line = self.health_line(start);
                self.shards[0].trace_request("health", "ok", None, start);
                Response::reply(line)
            }
            Request::Batch { dir, jobs } => {
                // The executor resubmits through the router, so inner
                // loads route to their content-hash shard and patches
                // migrate across shards exactly like client-issued ones.
                let submit = |line: &str| self.handle_line(line).line;
                let (line, status) =
                    super::server::batch_reply(self.fleet_root(), &dir, jobs, &submit, start);
                self.trace_request("batch", status, start);
                Response::reply(line)
            }
            Request::Shutdown => {
                // Flip every shard before acknowledging: a request
                // racing the shutdown must not be admitted by a shard
                // that has not heard yet.
                for shard in &self.shards {
                    shard.begin_drain();
                }
                self.shards[0].handle_request(Request::Shutdown, start)
            }
            Request::Verify { model, .. }
            | Request::MaxRes { model, .. }
            | Request::Enumerate { model, .. }
            | Request::SecurityIndex { model }
            | Request::Repair { model, .. }
            | Request::Evict { model } => self.shard(model).handle_request(request, start),
        }
    }

    /// Aggregated `stats` line: sums across shards, plus the shard
    /// count and replica size. A standalone engine's `stats` has the
    /// same fields except `shards`/`replica_entries` — the one reply
    /// the equivalence test excludes from byte comparison.
    fn stats_line(&self, start: Instant) -> String {
        let mut sessions = 0;
        let mut models: Vec<ModelHash> = Vec::new();
        let mut cache_entries = 0;
        let mut inflight = 0;
        let mut max_inflight = 0;
        for shard in &self.shards {
            let (s, m, c, i, cap) = shard.stats_parts();
            sessions += s;
            models.extend(m);
            cache_entries += c;
            inflight += i;
            max_inflight += cap;
        }
        let mut counters: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
        for shard in &self.shards {
            for (name, value) in shard.metrics().counters() {
                *counters.entry(name).or_insert(0) += value;
            }
        }
        let mut out = String::from("{\"ok\":true,\"op\":\"stats\"");
        out.push_str(&format!(
            ",\"uptime_us\":{},\"shards\":{},\"sessions\":{sessions},\"models\":[",
            self.started.elapsed().as_micros(),
            self.shards.len(),
        ));
        for (i, model) in models.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{model}\""));
        }
        out.push_str(&format!(
            "],\"cache_entries\":{cache_entries},\"replica_entries\":{},\
             \"inflight\":{inflight},\"max_inflight\":{max_inflight},\"counters\":{{",
            self.replica.len(),
        ));
        for (i, (name, value)) in counters.iter().enumerate() {
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

    /// Renders the aggregated `health` reply, byte-identical in shape
    /// to a standalone engine's.
    pub(crate) fn health_line(&self, start: Instant) -> String {
        let state = if self.is_draining() {
            "draining"
        } else {
            "ready"
        };
        super::protocol::health_line(
            state,
            false,
            self.session_count(),
            &|name| self.counter(name),
            start.elapsed().as_micros(),
        )
    }

    /// Stops admission on every shard without blocking (the sharded
    /// counterpart of [`Engine::begin_drain`]).
    pub fn begin_drain(&self) {
        for shard in &self.shards {
            shard.begin_drain();
        }
    }

    /// Whether `shutdown` has been requested (shards drain together, so
    /// the first shard's flag speaks for all).
    pub fn is_draining(&self) -> bool {
        self.shards[0].is_draining()
    }

    /// Longest accepted request line in bytes.
    pub fn max_line(&self) -> usize {
        self.shards[0].max_line()
    }

    /// Drains every shard: stops admission everywhere first, then waits
    /// out each shard's in-flight work and joins its session workers.
    pub fn drain(&self) {
        self.begin_drain();
        for shard in &self.shards {
            shard.drain();
        }
    }
}

impl LineHandler for ShardedEngine {
    fn handle_line(&self, line: &str) -> Response {
        ShardedEngine::handle_line(self, line)
    }

    fn try_cached(&self, line: &str) -> Option<Response> {
        try_cached_line(line, |request, start| {
            // The router's drain gate, as in `handle_request`; the
            // owning shard then checks its own.
            if self.is_draining() {
                return None;
            }
            match *request {
                Request::Verify { model, .. }
                | Request::MaxRes { model, .. }
                | Request::Enumerate { model, .. }
                | Request::SecurityIndex { model } => {
                    self.shard(model).try_cached_request(request, start)
                }
                _ => None,
            }
        })
    }

    fn max_line(&self) -> usize {
        ShardedEngine::max_line(self)
    }

    fn is_draining(&self) -> bool {
        ShardedEngine::is_draining(self)
    }

    fn begin_drain(&self) {
        ShardedEngine::begin_drain(self)
    }

    fn drain(&self) {
        ShardedEngine::drain(self)
    }
}
