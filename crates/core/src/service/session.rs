//! Warm model sessions.
//!
//! Each session is a dedicated worker thread running an
//! [`Analyzer::owning`] analyzer: the analyzer owns its
//! [`AnalysisInput`] and accumulates solver state (encoded clauses,
//! learned clauses, VSIDS activity) across every query dispatched to
//! it. Ownership matters because sessions are no longer immutable —
//! the `patch` op mutates the warm model in place
//! ([`Analyzer::apply_patch`]), after which the session's input is
//! whatever the patch sequence produced, not what the session was
//! created with. Eviction drops the job sender and the thread unwinds
//! its own stack.
//!
//! Queries are closures over the warm analyzer, executed under
//! [`catch_unwind`]: a panicking query reports an error to its caller
//! and the worker rebuilds a fresh analyzer from the analyzer's
//! *current* input (patches applied so far included) instead of dying,
//! so one poisoned query cannot take the session (or the service)
//! down. Before every query the worker calls
//! [`Analyzer::reset_for_query`], clearing any deadline, conflict
//! budget, interrupt flag, or progress hook an earlier — possibly
//! timed-out — request left armed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread::JoinHandle;

use crate::certify::CertifyOptions;
use crate::input::AnalysisInput;
use crate::obs::{Obs, TraceEvent};
use crate::verify::Analyzer;

use super::hash::ModelHash;
use super::protocol::QueryReply;

/// Default bound on concurrently warm sessions.
pub const DEFAULT_SESSION_CAPACITY: usize = 8;

/// A query over the session's warm analyzer. The analyzer owns its
/// input; queries that need a throwaway analyzer (e.g. enumeration,
/// whose blocking clauses would poison the warm one) clone
/// `analyzer.input()` and build their own. An `Err` is a wire-ready
/// message for a model the query cannot answer; the session stays warm.
pub type SessionQuery =
    Box<dyn FnOnce(&mut Analyzer<'static>) -> Result<QueryReply, String> + Send>;

struct Job {
    query: SessionQuery,
    reply: mpsc::Sender<Result<QueryReply, String>>,
}

struct Session {
    model: ModelHash,
    tx: mpsc::Sender<Job>,
    handle: Option<JoinHandle<()>>,
    /// Queries dispatched so far (0 → the next query is `cold`).
    queries: u64,
    /// Model patches applied so far (> 0 → provenance is `delta`).
    patches: u64,
    /// Logical timestamp of the last touch (LRU eviction order).
    touched: u64,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn run_session(
    model: ModelHash,
    input: AnalysisInput,
    obs: Obs,
    certify: CertifyOptions,
    rx: mpsc::Receiver<Job>,
) {
    let mut analyzer = Analyzer::owning(input, obs.clone(), certify.clone());
    while let Ok(job) = rx.recv() {
        analyzer.reset_for_query();
        let Job { query, reply } = job;
        let outcome = catch_unwind(AssertUnwindSafe(|| query(&mut analyzer)));
        let result = match outcome {
            Ok(result) => result,
            Err(payload) => {
                // The query may have left the analyzer mid-encode or with
                // limits armed; rebuild from the analyzer's *current*
                // input — the patch sequence applied so far must survive
                // the rebuild — rather than trusting half-updated state.
                let current = analyzer.input().clone();
                analyzer = Analyzer::owning(current, obs.clone(), certify.clone());
                if let Some(metrics) = obs.metrics() {
                    metrics.add("service_session_rebuilds", 1);
                }
                obs.trace(|| TraceEvent::ServiceSession {
                    model: model.0 as u64,
                    event: "rebuilt",
                    sessions: 1,
                });
                Err(format!("query panicked: {}", panic_message(&*payload)))
            }
        };
        // A caller that vanished (dropped receiver) is not an error.
        let _ = reply.send(result);
    }
}

/// Provenance of a session dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Warmth {
    /// First query on a fresh session: pays the encode cost.
    Cold,
    /// The session had already answered queries.
    Warm,
    /// The session's model has been patched in place: the answer comes
    /// from an incrementally delta-encoded model, not a cold build.
    /// Sticky — once a session is patched, every later query on it is
    /// `delta`.
    Delta,
}

impl Warmth {
    /// The wire name (`cold` / `warm` / `delta`).
    pub fn as_str(self) -> &'static str {
        match self {
            Warmth::Cold => "cold",
            Warmth::Warm => "warm",
            Warmth::Delta => "delta",
        }
    }
}

/// A ticket for a dispatched query: the session's job slot plus the
/// reply channel. Waiting happens outside the manager lock.
pub struct DispatchTicket {
    warmth: Warmth,
    reply: mpsc::Receiver<Result<QueryReply, String>>,
}

impl DispatchTicket {
    /// Whether the dispatch hit a cold or warm session.
    pub fn warmth(&self) -> Warmth {
        self.warmth
    }

    /// Blocks until the session worker answers. An `Err` means the
    /// query could not answer or panicked (either way the session
    /// survived; a panic also rebuilt its analyzer).
    pub fn wait(self) -> Result<QueryReply, String> {
        self.reply
            .recv()
            .map_err(|_| "session exited before answering".to_string())?
    }
}

/// A warm session in transit between managers (see
/// [`SessionManager::extract`]). The worker thread keeps running while
/// the handle is in flight; dropping the handle retires the session
/// without joining the worker.
pub struct SessionHandle(Session);

/// Keeps warm [`Analyzer`] sessions keyed by model hash, bounded by an
/// LRU. Not internally synchronized — the engine holds it behind a
/// mutex and releases that mutex before waiting on a
/// [`DispatchTicket`].
pub struct SessionManager {
    sessions: Vec<Session>,
    retired: Vec<JoinHandle<()>>,
    capacity: usize,
    clock: u64,
    obs: Obs,
    certify: CertifyOptions,
}

impl std::fmt::Debug for SessionManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionManager")
            .field("sessions", &self.sessions.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl SessionManager {
    /// A manager bounded to `capacity` warm sessions (min 1).
    pub fn new(capacity: usize, obs: Obs, certify: CertifyOptions) -> SessionManager {
        SessionManager {
            sessions: Vec::new(),
            retired: Vec::new(),
            capacity: capacity.max(1),
            clock: 0,
            obs,
            certify,
        }
    }

    /// Live sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether no session is warm.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Hashes of the live sessions, most recently used first.
    pub fn models(&self) -> Vec<ModelHash> {
        let mut with_touch: Vec<(u64, ModelHash)> =
            self.sessions.iter().map(|s| (s.touched, s.model)).collect();
        with_touch.sort_by_key(|&(touched, _)| std::cmp::Reverse(touched));
        with_touch.into_iter().map(|(_, m)| m).collect()
    }

    /// Whether a session for `model` is warm.
    pub fn contains(&self, model: ModelHash) -> bool {
        self.sessions.iter().any(|s| s.model == model)
    }

    /// Ensures a warm session for `input` exists, spawning one (and
    /// evicting the least recently used session when at capacity) if
    /// needed. Returns the model hash and whether a session was created.
    /// A newly created session may invalidate a stale cache generation —
    /// the engine handles that with the returned flag.
    pub fn ensure(&mut self, input: &AnalysisInput) -> (ModelHash, bool) {
        let model = super::hash::model_hash(input);
        self.clock += 1;
        if let Some(session) = self.sessions.iter_mut().find(|s| s.model == model) {
            session.touched = self.clock;
            return (model, false);
        }
        if self.sessions.len() >= self.capacity {
            if let Some(pos) = self
                .sessions
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.touched)
                .map(|(i, _)| i)
            {
                let victim = self.sessions.remove(pos);
                self.retire(victim);
            }
        }
        let (tx, rx) = mpsc::channel();
        let obs = self.obs.clone();
        let certify = self.certify.clone();
        let owned = input.clone();
        let handle = std::thread::Builder::new()
            .name(format!("scadad-session-{model}"))
            .spawn(move || run_session(model, owned, obs, certify, rx))
            .expect("spawn session thread");
        self.sessions.push(Session {
            model,
            tx,
            handle: Some(handle),
            queries: 0,
            patches: 0,
            touched: self.clock,
        });
        self.obs.trace(|| TraceEvent::ServiceSession {
            model: model.0 as u64,
            event: "created",
            sessions: self.sessions.len(),
        });
        (model, true)
    }

    /// Dispatches a query to the session for `model`. Returns `None`
    /// when no such session is warm (the caller answers `unknown
    /// model`). The returned ticket is waited on *after* releasing the
    /// manager lock, so long queries never block the whole service.
    pub fn dispatch(&mut self, model: ModelHash, query: SessionQuery) -> Option<DispatchTicket> {
        self.clock += 1;
        let clock = self.clock;
        let session = self.sessions.iter_mut().find(|s| s.model == model)?;
        session.touched = clock;
        let warmth = if session.patches > 0 {
            Warmth::Delta
        } else if session.queries == 0 {
            Warmth::Cold
        } else {
            Warmth::Warm
        };
        session.queries += 1;
        let (reply_tx, reply_rx) = mpsc::channel();
        let job = Job {
            query,
            reply: reply_tx,
        };
        // A send can only fail if the worker died (it never drops its
        // receiver while the session is registered) — treat as missing.
        session.tx.send(job).ok()?;
        Some(DispatchTicket {
            warmth,
            reply: reply_rx,
        })
    }

    /// Re-keys the session for `old` under `new` after a patch was
    /// applied on its worker: later requests address the patched model
    /// by its advanced lineage hash. If a (stale) session already holds
    /// the `new` hash it is evicted first, so hashes stay unique keys.
    /// Returns whether a session was re-keyed.
    pub fn rekey(&mut self, old: ModelHash, new: ModelHash) -> bool {
        if old == new || !self.sessions.iter().any(|s| s.model == old) {
            return false;
        }
        if self.sessions.iter().any(|s| s.model == new) {
            self.evict(new);
        }
        let Some(session) = self.sessions.iter_mut().find(|s| s.model == old) else {
            return false;
        };
        session.model = new;
        session.patches += 1;
        self.clock += 1;
        session.touched = self.clock;
        self.obs.trace(|| TraceEvent::ServiceSession {
            model: new.0 as u64,
            event: "patched",
            sessions: self.sessions.len(),
        });
        true
    }

    /// Extracts the session for `model` from this manager without
    /// stopping its worker, for adoption by another manager
    /// ([`SessionManager::adopt`]) — the cross-shard half of a `patch`
    /// whose advanced lineage hash routes to a different shard. The
    /// worker thread, its warm analyzer, and its queue keep running;
    /// only the bookkeeping moves.
    pub fn extract(&mut self, model: ModelHash) -> Option<SessionHandle> {
        let pos = self.sessions.iter().position(|s| s.model == model)?;
        Some(SessionHandle(self.sessions.remove(pos)))
    }

    /// Adopts an extracted session under `model` (the post-patch
    /// lineage hash), bumping its patch count so later dispatches carry
    /// `delta` provenance — the same transition [`SessionManager::rekey`]
    /// performs in place. A stale session already keyed by `model` is
    /// evicted first (hashes stay unique keys), and adopting at capacity
    /// evicts this manager's least recently used session.
    pub fn adopt(&mut self, handle: SessionHandle, model: ModelHash) {
        if self.sessions.iter().any(|s| s.model == model) {
            self.evict(model);
        }
        while self.sessions.len() >= self.capacity {
            let Some(pos) = self
                .sessions
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.touched)
                .map(|(i, _)| i)
            else {
                break;
            };
            let victim = self.sessions.remove(pos);
            self.retire(victim);
        }
        let SessionHandle(mut session) = handle;
        session.model = model;
        session.patches += 1;
        self.clock += 1;
        session.touched = self.clock;
        self.sessions.push(session);
        self.obs.trace(|| TraceEvent::ServiceSession {
            model: model.0 as u64,
            event: "adopted",
            sessions: self.sessions.len(),
        });
    }

    /// Evicts the session for `model`, if warm. The worker finishes any
    /// in-flight query, then exits; its handle is reaped by a later
    /// retirement once finished, or joined at shutdown.
    pub fn evict(&mut self, model: ModelHash) -> bool {
        let Some(pos) = self.sessions.iter().position(|s| s.model == model) else {
            return false;
        };
        let victim = self.sessions.remove(pos);
        self.obs.trace(|| TraceEvent::ServiceSession {
            model: model.0 as u64,
            event: "evicted",
            sessions: self.sessions.len(),
        });
        self.retire(victim);
        true
    }

    fn retire(&mut self, session: Session) {
        // Workers retired earlier that have since exited need no join:
        // drop their handles so `retired` stays bounded by the workers
        // still draining, not by every eviction since startup.
        self.retired.retain(|handle| !handle.is_finished());
        // Dropping the sender ends the worker's recv loop after it
        // drains in-flight jobs.
        let Session { handle, .. } = session;
        if let Some(handle) = handle {
            self.retired.push(handle);
        }
    }

    /// Drops every session and joins every worker thread, blocking
    /// until in-flight queries drain. Called exactly once at shutdown.
    pub fn shutdown(&mut self) {
        for session in self.sessions.drain(..) {
            let Session { handle, .. } = session;
            if let Some(handle) = handle {
                self.retired.push(handle);
            }
        }
        for handle in self.retired.drain(..) {
            // A worker that panicked outside a query is already gone;
            // joining it must not take the service down with it.
            let _ = handle.join();
        }
    }
}

impl Drop for SessionManager {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::casestudy::five_bus_case_study;
    use crate::spec::{Property, ResiliencySpec};
    use crate::verify::Verdict;

    fn verify_query(spec: ResiliencySpec) -> SessionQuery {
        Box::new(move |analyzer| {
            let report = analyzer.verify_with_report(Property::Observability, spec);
            Ok(QueryReply::Verify {
                verdict: report.verdict,
                conflicts: report.conflicts,
                attempts: report.attempts,
                certificate: None,
            })
        })
    }

    #[test]
    fn cold_then_warm_and_lru_eviction() {
        let mut mgr = SessionManager::new(1, Obs::none(), CertifyOptions::default());
        let input = five_bus_case_study();
        let (model, created) = mgr.ensure(&input);
        assert!(created);
        let (again, created_again) = mgr.ensure(&input);
        assert_eq!(model, again);
        assert!(!created_again);

        let ticket = mgr
            .dispatch(model, verify_query(ResiliencySpec::split(1, 1)))
            .unwrap();
        assert_eq!(ticket.warmth(), Warmth::Cold);
        match ticket.wait().unwrap() {
            QueryReply::Verify { verdict, .. } => assert!(verdict.is_resilient()),
            other => panic!("unexpected reply {other:?}"),
        }

        let ticket = mgr
            .dispatch(model, verify_query(ResiliencySpec::split(2, 1)))
            .unwrap();
        assert_eq!(ticket.warmth(), Warmth::Warm);
        match ticket.wait().unwrap() {
            QueryReply::Verify { verdict, .. } => {
                assert!(matches!(verdict, Verdict::Threat(_)));
            }
            other => panic!("unexpected reply {other:?}"),
        }

        // Capacity 1: loading a different model evicts the first.
        let mut other_input = five_bus_case_study();
        other_input.routers_can_fail = true;
        let (other_model, created) = mgr.ensure(&other_input);
        assert!(created);
        assert_ne!(other_model, model);
        assert_eq!(mgr.len(), 1);
        assert!(mgr
            .dispatch(model, verify_query(ResiliencySpec::split(1, 1)))
            .is_none());
        mgr.shutdown();
    }

    #[test]
    fn retired_handles_are_reaped_once_finished() {
        let mut mgr = SessionManager::new(4, Obs::none(), CertifyOptions::default());
        let input = five_bus_case_study();
        for _ in 0..50 {
            let (model, _) = mgr.ensure(&input);
            assert!(mgr.evict(model));
            // Let the evicted worker exit before the next retirement.
            while !mgr.retired.iter().all(|h| h.is_finished()) {
                std::thread::yield_now();
            }
        }
        assert!(mgr.retired.len() <= 1, "{} handles kept", mgr.retired.len());
        mgr.shutdown();
        assert!(mgr.retired.is_empty());
    }

    #[test]
    fn panicking_query_reports_and_session_survives() {
        let mut mgr = SessionManager::new(2, Obs::none(), CertifyOptions::default());
        let input = five_bus_case_study();
        let (model, _) = mgr.ensure(&input);
        let boom: SessionQuery = Box::new(|_| panic!("injected fault"));
        let err = mgr.dispatch(model, boom).unwrap().wait().unwrap_err();
        assert!(err.contains("injected fault"), "got {err:?}");
        // Same session still answers.
        let reply = mgr
            .dispatch(model, verify_query(ResiliencySpec::split(1, 1)))
            .unwrap()
            .wait()
            .unwrap();
        match reply {
            QueryReply::Verify { verdict, .. } => assert!(verdict.is_resilient()),
            other => panic!("unexpected reply {other:?}"),
        }
        mgr.shutdown();
    }
}
