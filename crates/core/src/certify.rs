//! Certified verdicts.
//!
//! The whole pipeline rests on one trust assumption: when the SAT core
//! answers `unsat`, the grid is declared resilient. This module removes
//! the single point of trust by making every verdict self-certifying:
//!
//! * `sat` (threat) verdicts are re-validated three independent ways —
//!   the solver's model must satisfy every original clause the checker
//!   holds ([`RupChecker::check_model`]), it must satisfy the query's
//!   budget and violation assumptions, and the extracted failure set
//!   must both honor the device/link budget and genuinely violate the
//!   property under the concrete [`crate::bruteforce::DirectEvaluator`].
//! * `unsat` (resilient) verdicts carry a DRAT proof emitted by the
//!   solver and replayed by [`satcore::RupChecker`] — an independent
//!   propagation engine sharing no code with the solver's BCP — which
//!   must then refute the query's assumptions. The solver names each
//!   lemma's antecedents, so the replay scans those clauses instead of
//!   propagating the whole formula; hints are untrusted, and a lemma
//!   they do not justify is re-checked by full propagation (counted as
//!   a hint fallback, zero in a correct build).
//! * `Unknown` verdicts certify nothing, by design.
//!
//! Certification is *incremental*: one [`RupChecker`] per analyzer
//! audits the whole incremental solving session, consuming each query's
//! new axioms and proof steps exactly once, so certifying a sweep costs
//! proportionally to the solving, not quadratically. The checker runs
//! on its own thread beside the solver: the solver's [`ChunkSink`]
//! streams axioms and hinted steps to it in flat chunks over a bounded
//! channel while the solve runs, so a query's reply waits only for the
//! checker to finish that query's tail and its final check. The chunks
//! arrive in the order a checker draining a [`satcore::ProofBuffer`]
//! after each query applies them (a solve's axioms, then its steps), so
//! the checker's work, counters and verdicts are those of a serial
//! checker; the pipeline only moves them off the solver's thread. A
//! verdict is still released only once the independent engine has
//! accepted it, and a checker thread that panics or stops fails the
//! certificate. The session holds its formula once in the solver and
//! once in the checker, and nowhere else; the thread starts with the
//! analyzer and is joined when it drops.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use satcore::{
    CheckError, CheckStats, ChunkRecord, ChunkSink, LBool, Lit, ProofChunk, ProofStep, RupChecker,
};
use scadasim::{DeviceId, DeviceKind};

use crate::bruteforce::DirectEvaluator;
use crate::encode::ModelEncoder;
use crate::input::AnalysisInput;
use crate::obs::{Obs, TraceEvent};
use crate::pool::panic_message;
use crate::spec::{FailureBudget, Property, ResiliencySpec};
use crate::verify::Verdict;

/// An independent certificate for one verification verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Certificate {
    /// A `sat` verdict whose model, assumptions, budget, and concrete
    /// violation all re-checked.
    Threat {
        /// Proof steps drained into the session checker for this query
        /// (sat solves learn clauses too; they must replay cleanly).
        steps: u64,
        /// Time spent certifying: the checker's work on the query plus
        /// the re-checks on the solver's thread. Most of it runs beside
        /// the solve, so it is not added to the query's wall time.
        elapsed: Duration,
    },
    /// An `unsat` verdict backed by a replayed DRAT proof that refutes
    /// the query's assumptions — or a served security index whose
    /// max-flow lower bound and re-priced witness both checked.
    Proof {
        /// Proof steps drained and replayed for this query (arc flows
        /// checked, for a security index).
        steps: u64,
        /// Checker propagations spent on this query.
        propagations: u64,
        /// Time spent certifying, as for [`Certificate::Threat`].
        elapsed: Duration,
    },
    /// An `Unknown` verdict: nothing is claimed, so nothing is checked
    /// (the query's proof steps are still replayed to keep the session
    /// checker in sync).
    Unchecked,
    /// Certification failed — the verdict could not be validated. This
    /// should never happen; when it does, the CLI exits with code 4.
    Failed {
        /// What failed to check.
        reason: String,
    },
}

impl Certificate {
    /// Whether certification failed.
    pub fn is_failure(&self) -> bool {
        matches!(self, Certificate::Failed { .. })
    }
}

/// Deliberate certification faults, injected by tests to prove the
/// checkers actually reject corrupted artifacts (and are not
/// vacuously green).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertFault {
    /// Prepends an unjustified empty-clause step to each query's proof,
    /// which the RUP checker must reject.
    CorruptProof,
    /// Flips one assigned variable of each sat model, which the model
    /// checker must reject.
    CorruptModel,
    /// Panics the checker thread at the end of the first query, which
    /// must fail that query's certificate and every later one.
    CheckerPanic,
}

/// Shared tally of certification outcomes across an analysis run
/// (cloned into every fleet worker; cheap `Arc` handle).
#[derive(Debug, Clone, Default)]
pub struct CertificationLog {
    inner: Arc<LogInner>,
}

#[derive(Debug, Default)]
struct LogInner {
    checks: AtomicU64,
    failures: AtomicU64,
    first_failure: Mutex<Option<String>>,
}

impl CertificationLog {
    /// Creates an empty log.
    pub fn new() -> CertificationLog {
        CertificationLog::default()
    }

    /// Verdicts certified so far (`Unchecked` ones included).
    pub fn checks(&self) -> u64 {
        self.inner.checks.load(Ordering::Relaxed)
    }

    /// Certification failures so far — in a correct build, always 0.
    pub fn failures(&self) -> u64 {
        self.inner.failures.load(Ordering::Relaxed)
    }

    /// The first recorded failure reason, if any.
    pub fn first_failure(&self) -> Option<String> {
        self.inner.first_failure.lock().unwrap().clone()
    }

    pub(crate) fn record(&self, certificate: &Certificate) {
        self.inner.checks.fetch_add(1, Ordering::Relaxed);
        if let Certificate::Failed { reason } = certificate {
            self.inner.failures.fetch_add(1, Ordering::Relaxed);
            let mut first = self.inner.first_failure.lock().unwrap();
            if first.is_none() {
                *first = Some(reason.clone());
            }
        }
    }
}

/// Options controlling verdict certification.
#[derive(Debug, Clone, Default)]
pub struct CertifyOptions {
    /// Whether to certify at all. Disabled, the analyzer behaves (and
    /// costs) exactly as before.
    pub enabled: bool,
    /// Deliberate fault injection for tests; `None` in production.
    pub fault: Option<CertFault>,
    /// When set, each query's drained DRAT steps are also written to
    /// `<dir>/query-<id>.drat` (one file per query, so concurrent
    /// fleets never interleave proof bytes).
    pub proof_dir: Option<PathBuf>,
    /// Shared outcome tally, checked by the CLIs for exit code 4.
    pub log: CertificationLog,
}

impl CertifyOptions {
    /// Certification on, with a fresh log and no fault injection.
    pub fn enabled() -> CertifyOptions {
        CertifyOptions {
            enabled: true,
            ..CertifyOptions::default()
        }
    }

    /// Whether queries need globally unique ids even without a tracer
    /// (per-query proof files are named by query id).
    pub(crate) fn wants_query_ids(&self) -> bool {
        self.enabled && self.proof_dir.is_some()
    }
}

/// Entries (records, literals and hints) per chunk the certified sink
/// hands the checker thread: about 400 axioms or 20 hinted lemmas, so a
/// hand-off is rare next to the work it carries, and the checker
/// replays a lemma soon after the solver learns it.
pub(crate) const CHUNK_ENTRIES: usize = 2048;

/// Chunks in flight to the checker thread (under 1 MiB). A full channel
/// stalls the solver until the checker catches up, so the heap stays
/// flat.
const CHUNKS_IN_FLIGHT: usize = 64;

/// Spent chunks waiting to be refilled by the solver's sink; the
/// checker frees any beyond these.
const SPARE_CHUNKS: usize = 4;

/// What the solver's thread sends its checker thread, in order.
enum ToChecker {
    /// Axioms and proof steps, in the order the checker applies them.
    Chunk(ProofChunk),
    /// A query's window ends: apply what is held, run the final check
    /// and write the query's proof file.
    Query { query: u64, check: FinalCheck },
    /// A patch boundary ends the window: apply what is held and write
    /// its `patch-<n>.drat` segment.
    Patch,
    /// The session is dropping.
    Stop,
}

/// The check a verdict needs on the checker's clause store.
enum FinalCheck {
    /// `Unknown`: nothing is claimed.
    Nothing,
    /// `unsat`: asserting these assumptions must propagate to conflict.
    Refute(Vec<Lit>),
    /// `sat`: the model must satisfy every axiom.
    Model(Vec<LBool>),
}

/// The checker thread's answer at the end of a window.
struct WindowReply {
    /// Replay and final check.
    checked: Result<(), String>,
    /// Writing the window's proof file.
    written: Result<(), String>,
    /// Checker counters after the window.
    stats: CheckStats,
    /// Time the checker spent on the window.
    busy: Duration,
}

/// The checker thread's state: the session's one incremental
/// [`RupChecker`] and the window being replayed.
struct Replayer {
    checker: RupChecker,
    fault: Option<CertFault>,
    proof_dir: Option<PathBuf>,
    /// The window's proof steps as DRAT text, when proof files are
    /// written.
    drat: String,
    /// Under [`CertFault::CorruptProof`], the window's step chunks, held
    /// until its end says whether it is a query (whose proof gets the
    /// corrupt step first) or a patch boundary (whose proof does not).
    held: Vec<ProofChunk>,
    /// The window's rejected step; its later steps are skipped.
    failed: Option<CheckError>,
    busy: Duration,
    /// Queries certified, for unique proof-file names when several
    /// checks share one query id (enumeration spans).
    seq: u64,
    /// Patch boundaries passed, naming `patch-<n>.drat` files.
    patches: u64,
    #[cfg(test)]
    _alive: Arc<()>,
}

impl Replayer {
    fn run(
        mut self,
        rx: Receiver<ToChecker>,
        replies: Sender<WindowReply>,
        spent: SyncSender<ProofChunk>,
    ) {
        while let Ok(message) = rx.recv() {
            let start = Instant::now();
            let (checked, written) = match message {
                ToChecker::Chunk(chunk) => {
                    if let Some(chunk) = self.ingest(chunk) {
                        let _ = spent.try_send(chunk);
                    }
                    self.busy += start.elapsed();
                    continue;
                }
                ToChecker::Query { query, check } => self.end_query(query, check),
                ToChecker::Patch => self.end_patch(),
                ToChecker::Stop => return,
            };
            self.busy += start.elapsed();
            let reply = WindowReply {
                checked,
                written,
                stats: self.checker.stats(),
                busy: std::mem::take(&mut self.busy),
            };
            if replies.send(reply).is_err() {
                return;
            }
        }
    }

    /// Applies (or, under [`CertFault::CorruptProof`], holds) a chunk;
    /// returns it once spent.
    fn ingest(&mut self, chunk: ProofChunk) -> Option<ProofChunk> {
        if self.proof_dir.is_some() {
            chunk.write_drat_steps(&mut self.drat);
        }
        if self.fault == Some(CertFault::CorruptProof) {
            for record in chunk.iter() {
                if let ChunkRecord::Axiom(lits) = record {
                    self.checker.add_axiom(lits);
                }
            }
            if chunk.has_steps() {
                self.held.push(chunk);
                return None;
            }
        } else {
            self.replay(&chunk, true);
        }
        Some(chunk)
    }

    /// Applies `chunk` in order (its axioms only when `axioms`), skipping
    /// the steps after the window's first rejected one.
    fn replay(&mut self, chunk: &ProofChunk, axioms: bool) {
        for record in chunk.iter() {
            match record {
                ChunkRecord::Axiom(lits) if axioms => self.checker.add_axiom(lits),
                ChunkRecord::Axiom(_) => {}
                step if self.failed.is_none() => {
                    self.failed = self.checker.apply_record(step).err();
                }
                _ => {}
            }
        }
    }

    fn replay_held(&mut self) {
        for chunk in std::mem::take(&mut self.held) {
            self.replay(&chunk, false);
        }
    }

    fn end_query(
        &mut self,
        query: u64,
        check: FinalCheck,
    ) -> (Result<(), String>, Result<(), String>) {
        if self.fault == Some(CertFault::CheckerPanic) {
            panic!("injected checker fault at query {query}");
        }
        if self.fault == Some(CertFault::CorruptProof) {
            // No hints: nothing vouches for the step, full propagation
            // must reject it.
            self.failed = self
                .checker
                .apply_hinted(&ProofStep::Add(Vec::new()), &[])
                .err();
            self.replay_held();
            if self.proof_dir.is_some() {
                self.drat.insert_str(0, "0\n");
            }
        }
        let checked = match self.failed.take() {
            Some(e) => Err(format!("proof replay failed: {e}")),
            None => match check {
                FinalCheck::Nothing => Ok(()),
                // The proof must refute this query's assumptions:
                // asserting them over formula + replayed lemmas must
                // propagate to a conflict in the independent engine.
                FinalCheck::Refute(assumptions) => {
                    if self.checker.refutes(&assumptions) {
                        Ok(())
                    } else {
                        Err("proof does not refute the query's assumptions".into())
                    }
                }
                FinalCheck::Model(model) => self
                    .checker
                    .check_model(&model)
                    .map_err(|e| format!("model check failed: {e}")),
            },
        };
        let seq = self.seq;
        self.seq += 1;
        let written = self.write_proof(|| format!("query-{query:05}-{seq:04}.drat"));
        (checked, written)
    }

    fn end_patch(&mut self) -> (Result<(), String>, Result<(), String>) {
        self.replay_held();
        if let Some(e) = self.failed.take() {
            self.drat.clear();
            return (
                Err(format!("proof replay failed at patch boundary: {e}")),
                Ok(()),
            );
        }
        let n = self.patches;
        self.patches += 1;
        (Ok(()), self.write_proof(|| format!("patch-{n:04}.drat")))
    }

    /// Writes the window's DRAT text to `<proof_dir>/<name>`, if proof
    /// files are written.
    fn write_proof(&mut self, name: impl FnOnce() -> String) -> Result<(), String> {
        let Some(dir) = self.proof_dir.as_ref() else {
            return Ok(());
        };
        let path = dir.join(name());
        let written = std::fs::write(&path, self.drat.as_bytes())
            .map_err(|e| format!("writing proof file {}: {e}", path.display()));
        self.drat.clear();
        written
    }
}

/// The per-analyzer certification state: a checker thread running the
/// analyzer's one incremental RUP checker beside its solver.
///
/// The solver's [`ChunkSink`] streams every axiom and proof step to the
/// thread over a bounded channel while the solver runs, in the order a
/// serial checker draining a [`satcore::ProofBuffer`] after each query
/// would apply them, so the thread replays each query's proof while it
/// is still being found. A window (a query, or the steps before a model
/// patch) ends with a marker; the reply waits only for the checker to
/// finish that window's tail and its final check.
#[derive(Debug)]
pub(crate) struct CertSession {
    tx: SyncSender<ToChecker>,
    replies: Receiver<WindowReply>,
    handle: Option<JoinHandle<()>>,
    /// Checker counters after the last window, for per-query deltas.
    stats: CheckStats,
    /// Why the checker thread is gone, once it is.
    stopped: Option<String>,
    options: CertifyOptions,
    #[cfg(test)]
    alive: std::sync::Weak<()>,
}

impl CertSession {
    /// Starts the checker thread. The returned sink feeds it in chunks
    /// of `entries` entries; install it on the session's solver before
    /// the first clause.
    pub(crate) fn start(options: CertifyOptions, entries: usize) -> (CertSession, ChunkSink) {
        let (tx, rx) = mpsc::sync_channel(CHUNKS_IN_FLIGHT);
        let (reply_tx, replies) = mpsc::channel();
        let (spent_tx, spent) = mpsc::sync_channel(SPARE_CHUNKS);
        #[cfg(test)]
        let alive = Arc::new(());
        let replayer = Replayer {
            checker: RupChecker::new(),
            fault: options.fault,
            proof_dir: options.proof_dir.clone(),
            drat: String::new(),
            held: Vec::new(),
            failed: None,
            busy: Duration::ZERO,
            seq: 0,
            patches: 0,
            #[cfg(test)]
            _alive: alive.clone(),
        };
        let spawned = std::thread::Builder::new()
            .name("scada-checker".into())
            .spawn(move || replayer.run(rx, reply_tx, spent_tx));
        let (handle, stopped) = match spawned {
            Ok(handle) => (Some(handle), None),
            Err(e) => (
                None,
                Some(format!("could not start the proof checker thread: {e}")),
            ),
        };
        let chunks = tx.clone();
        let sink = ChunkSink::new(entries, move |chunk| {
            // A stopped checker is reported at the window's end.
            let _ = chunks.send(ToChecker::Chunk(chunk));
            spent.try_recv().unwrap_or_default()
        });
        let session = CertSession {
            tx,
            replies,
            handle,
            stats: CheckStats::default(),
            stopped,
            options,
            #[cfg(test)]
            alive: Arc::downgrade(&alive),
        };
        (session, sink)
    }

    /// Sends a window's end marker.
    fn send(&mut self, message: ToChecker) -> Result<(), String> {
        match &self.stopped {
            Some(reason) => Err(reason.clone()),
            None => self.tx.send(message).map_err(|_| self.checker_stopped()),
        }
    }

    /// Waits for the checker's answer on the window just ended.
    fn reply(&mut self) -> Result<WindowReply, String> {
        let reply = self.replies.recv().map_err(|_| self.checker_stopped())?;
        self.stats = reply.stats;
        Ok(reply)
    }

    /// Joins the checker thread once its channel has closed early and
    /// returns (and remembers) why it stopped.
    fn checker_stopped(&mut self) -> String {
        if let Some(reason) = &self.stopped {
            return reason.clone();
        }
        let reason = match self.handle.take().map(JoinHandle::join) {
            Some(Err(payload)) => format!(
                "proof checker thread panicked: {}",
                panic_message(&*payload)
            ),
            _ => "proof checker thread stopped early".to_string(),
        };
        self.stopped = Some(reason.clone());
        reason
    }

    /// Ends the certification window at a model-patch boundary.
    ///
    /// A patch mutates the encoder (new axioms, pin units) while the
    /// previous query's proof steps may still be on their way to the
    /// checker; if the patch ran first, its clause additions would
    /// interleave into the prior window and the next `certify` call
    /// would attribute them to the wrong epoch. So the patch *waits on
    /// the checker*: the caller flushes the solver's proof sink, the
    /// checker applies everything sent so far and writes it to its own
    /// `patch-<n>.drat` segment, and only then may the patch touch the
    /// solver.
    ///
    /// Soundness: patches only ever *add* clauses (stale delivery
    /// definitions are conservative extensions; pin units are new
    /// axioms), so the single incremental checker remains a sound
    /// auditor across the boundary.
    pub(crate) fn flush_patch_boundary(&mut self) -> Result<(), String> {
        self.send(ToChecker::Patch)?;
        let reply = self.reply()?;
        reply.checked.and(reply.written)
    }

    /// Certifies one query's verdict: ends the query's window (the
    /// caller has flushed the solver's proof sink) and waits for the
    /// checker's replay and final check.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn certify(
        &mut self,
        encoder: &ModelEncoder,
        evaluator: &DirectEvaluator,
        input: &AnalysisInput,
        query: u64,
        property: Property,
        spec: ResiliencySpec,
        verdict: &Verdict,
        violation: Option<(&HashSet<DeviceId>, &HashSet<usize>)>,
        obs: &Obs,
    ) -> Certificate {
        let start = Instant::now();
        let before = self.stats;
        // The checks that need no clause store run here while the
        // checker works through the query's chunks still in flight.
        let (check, local) = match verdict {
            Verdict::Unknown { .. } => (FinalCheck::Nothing, Ok(())),
            Verdict::Resilient => (
                FinalCheck::Refute(encoder.last_assumptions().to_vec()),
                Ok(()),
            ),
            Verdict::Threat(_) => {
                let mut model = encoder.solver().model_values().to_vec();
                if self.options.fault == Some(CertFault::CorruptModel) {
                    if let Some(v) = model.iter_mut().find(|v| v.is_defined()) {
                        *v = v.negate();
                    }
                }
                let local = threat_checks(
                    encoder.last_assumptions(),
                    &model,
                    evaluator,
                    input,
                    property,
                    spec,
                    violation,
                );
                (FinalCheck::Model(model), local)
            }
        };
        let local_time = start.elapsed();
        let sent = self.send(ToChecker::Query { query, check });
        let (outcome, busy) = match sent.and_then(|()| self.reply()) {
            Ok(reply) => (reply.checked.and(local).and(reply.written), reply.busy),
            Err(reason) => (Err(reason), Duration::ZERO),
        };
        let delta_steps = self.stats.steps - before.steps;
        let fallbacks = self.stats.fallbacks - before.fallbacks;
        // The checker's work on the query plus the checks run here, not
        // the time spent waiting for the checker.
        let elapsed = busy + local_time;
        let certificate = match (outcome, verdict) {
            (Err(reason), _) => Certificate::Failed { reason },
            (Ok(()), Verdict::Unknown { .. }) => Certificate::Unchecked,
            (Ok(()), Verdict::Resilient) => Certificate::Proof {
                steps: delta_steps,
                propagations: self.stats.propagations - before.propagations,
                elapsed,
            },
            (Ok(()), Verdict::Threat(_)) => Certificate::Threat {
                steps: delta_steps,
                elapsed,
            },
        };
        self.options.log.record(&certificate);
        obs.trace(|| TraceEvent::Certified {
            query,
            kind: match &certificate {
                Certificate::Threat { .. } => "threat",
                Certificate::Proof { .. } => "proof",
                Certificate::Unchecked => "unchecked",
                Certificate::Failed { .. } => "failed",
            },
            ok: !certificate.is_failure(),
            steps: delta_steps,
            fallbacks,
            elapsed,
        });
        obs.count("cert_checks", 1);
        obs.count("cert_hint_fallbacks", fallbacks);
        if certificate.is_failure() {
            obs.count("cert_failures", 1);
        }
        obs.observe("proof_steps", delta_steps);
        obs.observe_duration("cert_us", elapsed);
        certificate
    }

    /// The checker's counters after the last window.
    #[cfg(test)]
    pub(crate) fn checker_stats(&self) -> CheckStats {
        self.stats
    }

    /// Alive exactly while the checker thread runs.
    #[cfg(test)]
    pub(crate) fn checker_alive(&self) -> std::sync::Weak<()> {
        self.alive.clone()
    }
}

impl Drop for CertSession {
    /// Stops and joins the checker thread, so a dropped analyzer leaves
    /// no thread (or checker state) behind, even mid-query.
    fn drop(&mut self) {
        let _ = self.tx.send(ToChecker::Stop);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The re-checks of a `sat` verdict that need no clause store: the
/// model satisfies every assumption of the query, and the extracted
/// failure set honors the budget and genuinely violates the property
/// under the concrete evaluator.
fn threat_checks(
    assumptions: &[Lit],
    model: &[LBool],
    evaluator: &DirectEvaluator,
    input: &AnalysisInput,
    property: Property,
    spec: ResiliencySpec,
    violation: Option<(&HashSet<DeviceId>, &HashSet<usize>)>,
) -> Result<(), String> {
    for &a in assumptions {
        let value = model.get(a.var().index()).copied().unwrap_or(LBool::Undef);
        if value != LBool::from_bool(a.is_positive()) {
            return Err(format!("model does not satisfy assumption {a}"));
        }
    }
    let Some((devices, links)) = violation else {
        return Err("threat verdict without an extracted violation".into());
    };
    budget_honored(input, spec, devices, links)?;
    if !evaluator.violates_full(property, spec.corrupted, devices, links) {
        return Err("extracted failure set does not violate the property \
                    under direct evaluation"
            .into());
    }
    Ok(())
}

/// Checks the extracted failure set against the spec's device and link
/// budgets.
fn budget_honored(
    input: &AnalysisInput,
    spec: ResiliencySpec,
    devices: &HashSet<DeviceId>,
    links: &HashSet<usize>,
) -> Result<(), String> {
    let ieds = devices
        .iter()
        .filter(|&&d| input.topology.device(d).kind() == DeviceKind::Ied)
        .count();
    let others = devices.len() - ieds;
    match spec.budget {
        FailureBudget::Total(k) => {
            if devices.len() > k {
                return Err(format!(
                    "budget violated: {} failed devices exceed k={k}",
                    devices.len()
                ));
            }
        }
        FailureBudget::Split { ieds: k1, rtus: k2 } => {
            if ieds > k1 || others > k2 {
                return Err(format!(
                    "budget violated: {ieds} IEDs / {others} RTUs exceed (k1={k1}, k2={k2})"
                ));
            }
        }
    }
    if links.len() > spec.link_failures {
        return Err(format!(
            "budget violated: {} failed links exceed l={}",
            links.len(),
            spec.link_failures
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests;
