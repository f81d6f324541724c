//! The long-running analysis service behind the `scadad` binary.
//!
//! Every `scada-analyzer` invocation re-parses, re-encodes, and
//! re-learns from zero, discarding the incremental solver state that
//! [`satcore`] maintains within a process. This module keeps that state
//! alive across requests:
//!
//! * [`session`] — warm [`Analyzer`](crate::Analyzer) instances keyed by
//!   a canonical content hash of the loaded model, each owned by a
//!   dedicated worker thread, bounded by an LRU;
//! * [`cache`] — a verdict cache keyed by `(model, property, spec,
//!   limits, certify)`, so a repeated query answers without touching the
//!   solver at all;
//! * [`protocol`] — a hand-rolled line-delimited JSON protocol (no
//!   serde) with `load` / `verify` / `maxres` / `enumerate` / `patch` /
//!   `stats` / `evict` / `shutdown` requests;
//! * [`server`] — the request engine plus stdio and TCP-loopback
//!   transports, with bounded-line reads, admission control, and a
//!   graceful drain on shutdown;
//! * [`sharded`] — a model-hash router over N engine shards, each
//!   owning disjoint sessions and cache entries, so concurrent traffic
//!   on different models contends on nothing;
//! * [`replica`] — hot verdict-cache entries replicated read-mostly
//!   across shards with epoch invalidation on patch/evict;
//! * [`eventloop`] (unix) — a readiness-driven TCP front-end over
//!   non-blocking sockets (`poll` wraps `epoll` with a portable
//!   fallback): one thread per core instead of one per connection, with
//!   request pipelining — requests tagged with an `id` are answered in
//!   submission order on the same connection;
//! * [`journal`] — crash safety: an append-only write-ahead log of
//!   mutating ops with snapshot compaction, and warm-state recovery
//!   that replays patch lineage on restart (shard-count independent);
//!   the `health` op reports `recovering|ready|draining` plus journal
//!   and recovery counters.
//!
//! The [`hash`] module defines the canonical model hash that the
//! session manager, the cache, and the shard router all key on.
//!
//! # Delta re-verification
//!
//! The `patch` op mutates a warm session's model *in place* — a
//! [`ModelPatch`](crate::ModelPatch) is applied to the session's
//! analyzer ([`Analyzer::apply_patch`](crate::Analyzer::apply_patch)),
//! which delta-encodes the change instead of rebuilding the solver, so
//! re-verifying after a small model change costs about a warm query,
//! not a cold load. The session is re-keyed under
//! [`advance_model_hash`] — a lineage hash chained from the pre-patch
//! hash and the patch itself, O(patch) to compute and derivable by any
//! client that knows both — and cache entries whose path-set family the
//! patch left untouched migrate to the new key
//! ([`VerdictCache::migrate`]). Query replies on a patched session
//! carry `delta` provenance.

pub mod cache;
#[cfg(unix)]
pub mod eventloop;
pub mod hash;
pub mod journal;
#[cfg(unix)]
pub(crate) mod poll;
pub mod protocol;
pub mod replica;
pub mod server;
pub mod session;
pub mod sharded;
pub mod signal;

pub use cache::VerdictCache;
#[cfg(unix)]
pub use eventloop::serve_event_loop;
pub use hash::{advance_model_hash, model_hash, security_normalized_hash, ModelHash};
pub use journal::{
    Durability, FaultKind, FaultPlan, Journal, JournalConfig, JournalError, JournaledEngine,
};
pub use protocol::{
    parse_json, parse_pairs, parse_request, parse_threat, CertStatus, Json, LimitsSpec, QueryReply,
    Request,
};
pub use replica::ReplicaCache;
pub use server::{serve_stdio, serve_tcp, Engine, LineHandler, Response, ServeOptions};
pub use session::{Retired, SessionManager};
pub use sharded::ShardedEngine;
