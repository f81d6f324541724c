//! The verification engine.
//!
//! [`Analyzer`] owns a symbolic model ([`crate::encode::ModelEncoder`])
//! and a concrete evaluator ([`crate::bruteforce::DirectEvaluator`]).
//! Both read one forwarding-path table, enumerated once per model
//! version — on construction and on each [`Analyzer::apply_patch`] —
//! and shared between them (see the [`crate::bruteforce`] module docs
//! for why the evaluator stays an independent oracle).
//! Verification queries are solved incrementally under assumptions; a
//! `sat` answer yields a threat vector, which is then *minimized* against
//! the direct evaluator so reported vectors never contain gratuitous
//! failures. `unsat` certifies resiliency, exactly as in §IV-A.
//!
//! Queries may be resource-bounded ([`QueryLimits`]): a wall-clock
//! deadline, a per-solve conflict budget with a Luby-style escalating
//! retry policy, and a cooperative interrupt flag. A bounded query that
//! runs out of resources degrades to [`Verdict::Unknown`] — a sound
//! "could not decide", never misreported as `Resilient`.
//!
//! A plain (non-certified) analyzer first asks the direct evaluator
//! whether the property already fails with nothing failed. Violation is
//! upward-closed in failures, so every budget's answer is then the empty
//! threat vector, and the query returns it without encoding or solving
//! (see DESIGN.md, "Zero-failure short-circuit").

use std::collections::{HashMap, HashSet};
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::{Duration, Instant};

use satcore::{ChunkSink, ProofSink};
use scadasim::DeviceId;

use crate::bruteforce::DirectEvaluator;
use crate::certify::{CertSession, Certificate, CertificationLog, CertifyOptions, CHUNK_ENTRIES};
use crate::encode::paths::{enumerate_paths, paths_after_set_profile, PathTable};
use crate::encode::{DeltaStats, EncodingStats, ModelEncoder, SearchOutcome};
use crate::input::AnalysisInput;
use crate::obs::{next_query_id, Obs, TraceEvent};
use crate::patch::{ModelPatch, PatchError};
use crate::spec::{Property, QueryLimits, ResiliencySpec};
use crate::threat::ThreatVector;

/// Failed devices and failed link indices of one failure scenario.
type FailureSets = (HashSet<DeviceId>, HashSet<usize>);

/// The outcome of a verification query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// `unsat`: no failure set within the budget violates the property.
    Resilient,
    /// `sat`: the returned (minimal) threat vector violates the property.
    Threat(ThreatVector),
    /// A resource limit stopped the query before a verdict. Soundness
    /// note: `Unknown` means *undecided* — the system may or may not be
    /// resilient — and is never reported as `Resilient`.
    Unknown {
        /// Solver conflicts spent across all attempts of this query.
        conflicts: u64,
        /// Wall-clock time spent on this query.
        elapsed: Duration,
    },
}

impl Verdict {
    /// Whether the system met the specification. `Unknown` is *not*
    /// resilient: an undecided query certifies nothing.
    pub fn is_resilient(&self) -> bool {
        matches!(self, Verdict::Resilient)
    }

    /// Whether the query ran out of resources before a verdict.
    pub fn is_unknown(&self) -> bool {
        matches!(self, Verdict::Unknown { .. })
    }
}

/// A verification result with measurements, for the evaluation harness.
#[derive(Debug, Clone)]
pub struct VerificationReport {
    /// The property verified.
    pub property: Property,
    /// The specification verified against.
    pub spec: ResiliencySpec,
    /// The outcome.
    pub verdict: Verdict,
    /// Wall-clock time of the query (encode-on-demand + all solve
    /// attempts).
    pub duration: Duration,
    /// Encoding sizes after the query.
    pub encoding: EncodingStats,
    /// Solver conflicts spent on this query (all attempts).
    pub conflicts: u64,
    /// Solve attempts performed (> 1 when the retry policy escalated an
    /// exhausted conflict budget).
    pub attempts: u32,
    /// Independent certificate for the verdict; `None` when the analyzer
    /// was built without certification (see [`Analyzer::with_options`]).
    pub certificate: Option<Certificate>,
}

/// The SCADA resiliency analyzer.
///
/// # Examples
///
/// ```
/// use scada_analyzer::casestudy::five_bus_case_study;
/// use scada_analyzer::{Analyzer, Property, ResiliencySpec};
///
/// let input = five_bus_case_study();
/// let mut analyzer = Analyzer::new(&input);
/// let verdict = analyzer.verify(Property::Observability, ResiliencySpec::split(1, 1));
/// assert!(verdict.is_resilient());
/// ```
///
/// Bounded queries degrade gracefully instead of hanging:
///
/// ```
/// use scada_analyzer::casestudy::five_bus_case_study;
/// use scada_analyzer::{Analyzer, Property, QueryLimits, ResiliencySpec, RetryPolicy};
///
/// let input = five_bus_case_study();
/// let mut analyzer = Analyzer::new(&input);
/// // A 1-conflict starting budget with ×2 escalation always reaches a
/// // definite verdict on the case study — without ever hanging.
/// let limits = QueryLimits::none()
///     .with_conflict_budget(1)
///     .with_retry(RetryPolicy::escalating(32));
/// let report = analyzer.verify_with_report_limited(
///     Property::Observability,
///     ResiliencySpec::split(2, 1),
///     &limits,
/// );
/// assert!(!report.verdict.is_unknown());
/// ```
#[derive(Debug)]
pub struct Analyzer<'a> {
    /// The model under analysis, shared with the direct evaluator and
    /// replaced by each patch (see [`Analyzer::apply_patch`]).
    input: Arc<AnalysisInput>,
    /// `'a` names the input [`Analyzer::new`] borrows. The analyzer
    /// keeps its own shared copy, so nothing stays borrowed past
    /// construction; the parameter keeps the type's name stable.
    borrow: PhantomData<&'a AnalysisInput>,
    encoder: ModelEncoder,
    evaluator: DirectEvaluator,
    obs: Obs,
    certify: CertifyOptions,
    cert: Option<CertSession>,
    /// Model patches applied so far (delta provenance).
    patches: u64,
    /// Whether the all-up state (nothing failed) violates the property,
    /// per `(property, r)`, for the current model. Cleared by patches.
    fails_at_zero: HashMap<(Property, usize), bool>,
}

impl<'a> Analyzer<'a> {
    /// Builds the analyzer (encodes the base model, enumerates paths).
    pub fn new(input: &'a AnalysisInput) -> Analyzer<'a> {
        Analyzer::with_options(input, Obs::none(), CertifyOptions::default())
    }

    /// Builds the analyzer with an observability handle and
    /// certification: every query run through this analyzer emits
    /// trace events and metrics through `obs` ([`Obs::none`] and the
    /// default `certify` make this identical to [`Analyzer::new`]). With
    /// `certify.enabled`, the solver streams every original clause and
    /// a DRAT proof to the session checker, and each verdict is independently
    /// re-checked ([`crate::certify`]); the certificate lands on the
    /// [`VerificationReport`] and in `certify.log`.
    pub fn with_options(
        input: &'a AnalysisInput,
        obs: Obs,
        certify: CertifyOptions,
    ) -> Analyzer<'a> {
        let paths = enumerate_paths(input);
        Analyzer::with_paths(Arc::new(input.clone()), paths, obs, certify)
    }

    /// [`Analyzer::with_options`] over a shared input and its already
    /// enumerated path table.
    pub(crate) fn with_paths(
        input: Arc<AnalysisInput>,
        paths: PathTable,
        obs: Obs,
        certify: CertifyOptions,
    ) -> Analyzer<'a> {
        Analyzer::build_certified(input, paths, obs, certify, CHUNK_ENTRIES, |sink| {
            Box::new(sink)
        })
    }

    /// Builds an analyzer that owns its input outright. Long-lived
    /// sessions that mutate their model via [`Analyzer::apply_patch`]
    /// have no caller-side input to borrow from, so they start owned
    /// and the returned analyzer is `'static`.
    pub fn owning(input: AnalysisInput, obs: Obs, certify: CertifyOptions) -> Analyzer<'static> {
        let paths = enumerate_paths(&input);
        Analyzer::with_paths(Arc::new(input), paths, obs, certify)
    }

    /// Builds the analyzer; when `certify.enabled`, its checker thread
    /// is fed in chunks of `entries` entries through the sink that
    /// `install` makes of the checker's [`ChunkSink`].
    pub(crate) fn build_certified(
        input: Arc<AnalysisInput>,
        paths: PathTable,
        obs: Obs,
        certify: CertifyOptions,
        entries: usize,
        install: impl FnOnce(ChunkSink) -> Box<dyn ProofSink>,
    ) -> Analyzer<'a> {
        let (certify, cert, sink) = if certify.enabled {
            // The analyzer's own log tallies its queries; the records
            // also reach the caller's log.
            let certify = CertifyOptions {
                log: certify.log.scoped(),
                ..certify
            };
            let (session, sink) = CertSession::start(certify.clone(), entries);
            (certify, Some(session), Some(install(sink)))
        } else {
            (certify, None, None)
        };
        let encoder = ModelEncoder::with_proof_sink(&input, paths.clone(), sink);
        Analyzer {
            encoder,
            evaluator: DirectEvaluator::with_paths(Arc::clone(&input), paths),
            input,
            borrow: PhantomData,
            obs,
            certify,
            cert,
            patches: 0,
            fails_at_zero: HashMap::new(),
        }
    }

    /// The analyzer's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The certification outcomes of this analyzer's queries (also
    /// recorded in the log it was built with).
    pub fn cert_log(&self) -> &CertificationLog {
        &self.certify.log
    }

    /// The input under analysis. The reference borrows the analyzer:
    /// [`Analyzer::apply_patch`] replaces the input.
    pub fn input(&self) -> &AnalysisInput {
        &self.input
    }

    /// The direct evaluator (reference semantics).
    pub fn evaluator(&self) -> &DirectEvaluator {
        &self.evaluator
    }

    /// Model patches applied to this analyzer so far.
    pub fn patches_applied(&self) -> u64 {
        self.patches
    }

    /// Applies a model delta to the warm session *in place*: no solver
    /// rebuild, no full re-encode, learned clauses survive.
    ///
    /// The patch is validated against the current input first; a
    /// rejected patch leaves the analyzer untouched. On success the
    /// patched model's path table is built once and handed to the
    /// encoder and to a fresh direct evaluator, which shares the patched
    /// input. A `set_profile` on a pair that was crypto-compatible
    /// already keeps the previous table's paths and re-checks only the
    /// security of paths through the pair (DESIGN.md §10); every other
    /// patch enumerates them again. The encoder absorbs the
    /// delta in place: new model elements get fresh variables, retired
    /// devices are pinned available by unit clauses, and only the
    /// delivery cones whose path sets actually changed are re-encoded
    /// on the next query.
    ///
    /// When certification is active, the previous query's proof steps
    /// are flushed through the checker thread and to disk *before* the
    /// encoder mutates — a patch arriving while a proof is still in
    /// flight must wait on that flush, or the patch's clause additions
    /// would interleave into the prior query's proof file.
    pub fn apply_patch(&mut self, patch: &ModelPatch) -> Result<DeltaStats, PatchError> {
        let next = patch.apply(&self.input)?;
        if let Some(cert) = self.cert.as_mut() {
            self.encoder.solver_mut().flush_proof();
            cert.flush_patch_boundary().map_err(PatchError::internal)?;
        }
        // The input is swapped in last: if the delta encode panics, the
        // analyzer's input still names the model its solver encodes, so
        // a session worker can rebuild from it consistently.
        let paths = match patch {
            ModelPatch::SetProfile { a, b, .. } => {
                paths_after_set_profile(&self.input, self.evaluator.paths(), &next, *a, *b)
            }
            _ => enumerate_paths(&next),
        };
        let stats = self.encoder.apply_delta(&next, paths.clone());
        let next = Arc::new(next);
        self.evaluator = DirectEvaluator::with_paths(Arc::clone(&next), paths);
        self.input = next;
        self.fails_at_zero.clear();
        self.patches += 1;
        self.obs.count("patches_applied", 1);
        self.obs.trace(|| TraceEvent::PatchApplied {
            patch: patch.to_string(),
            new_devices: stats.new_devices,
            new_links: stats.new_links,
            newly_pinned: stats.newly_pinned,
            plain_dirty: stats.plain_dirty,
            secured_dirty: stats.secured_dirty,
        });
        Ok(stats)
    }

    /// The certification session of a certified analyzer.
    #[cfg(test)]
    pub(crate) fn cert_session(&mut self) -> &mut CertSession {
        self.cert.as_mut().expect("a certified analyzer")
    }

    /// Mutable access to the symbolic model (threat enumeration adds
    /// blocking clauses through this).
    pub(crate) fn encoder_mut(&mut self) -> &mut ModelEncoder {
        &mut self.encoder
    }

    /// Arms the solver's resource limits for `attempt` and runs one
    /// violation search against the current input. Enumeration calls
    /// this instead of borrowing the input and encoder separately (the
    /// input is analyzer-owned once a patch has been applied).
    pub(crate) fn find_violation_armed(
        &mut self,
        limits: &QueryLimits,
        attempt: u32,
        property: Property,
        spec: ResiliencySpec,
    ) -> SearchOutcome {
        limits.arm(self.encoder.solver_mut(), attempt);
        self.encoder.find_violation(&self.input, property, spec)
    }

    /// Clears every piece of per-query solver state a previous request
    /// may have left armed: the wall-clock deadline, the conflict
    /// budget, the cooperative interrupt flag, and the progress hook.
    ///
    /// Long-lived analyzers (the `scadad` warm sessions) serve
    /// independent requests back to back; without this, a timed-out
    /// request's deadline would still be armed when the next request's
    /// solve starts and instantly abort it. Query entry points arm and
    /// disarm limits around each solve, but an *aborted* query — a
    /// panic unwound past the disarm — must not poison its successor.
    pub fn reset_for_query(&mut self) {
        let solver = self.encoder.solver_mut();
        QueryLimits::disarm(solver);
        solver.set_progress_hook(None);
    }

    /// Whether this query needs a globally unique id (trace correlation
    /// or per-query proof files).
    pub(crate) fn wants_query_ids(&self) -> bool {
        self.obs.has_tracer() || self.certify.wants_query_ids()
    }

    /// Certifies the verdict of the query that just finished: flushes
    /// the solver's proof sink and waits for the checker thread to
    /// finish the axioms and proof steps logged since the previous
    /// query. Returns `None` when certification is disabled. `violation` carries the *full* (pre-minimization)
    /// failure sets extracted from the solver model on `sat` verdicts.
    pub(crate) fn certify_verdict(
        &mut self,
        query: u64,
        property: Property,
        spec: ResiliencySpec,
        verdict: &Verdict,
        violation: Option<(&HashSet<DeviceId>, &HashSet<usize>)>,
    ) -> Option<Certificate> {
        let session = self.cert.as_mut()?;
        self.encoder.solver_mut().flush_proof();
        Some(session.certify(
            &self.encoder,
            &self.evaluator,
            &self.input,
            query,
            property,
            spec,
            verdict,
            violation,
            &self.obs,
        ))
    }

    /// Verifies a property against a specification, running to a
    /// definite verdict (no resource limits).
    pub fn verify(&mut self, property: Property, spec: ResiliencySpec) -> Verdict {
        self.verify_with_report(property, spec).verdict
    }

    /// Verifies and returns timing/size measurements.
    pub fn verify_with_report(
        &mut self,
        property: Property,
        spec: ResiliencySpec,
    ) -> VerificationReport {
        self.verify_with_report_limited(property, spec, &QueryLimits::none())
    }

    /// Verifies under resource limits and returns timing/size
    /// measurements.
    ///
    /// A query stopped by its conflict budget is retried with a
    /// geometrically grown budget (`limits.retry`); a query stopped by
    /// its deadline or interrupt flag is not retried (those limits do
    /// not grow back). All solver limits are cleared afterwards, so
    /// later unlimited queries on the same analyzer are unaffected.
    pub fn verify_with_report_limited(
        &mut self,
        property: Property,
        spec: ResiliencySpec,
        limits: &QueryLimits,
    ) -> VerificationReport {
        let start = Instant::now();
        // Anchor the per-query timeout (if any) now, so every query of a
        // batch gets its own wall-clock allowance.
        let limits = limits.anchored(start);
        let conflicts_before = self.encoder.solver_stats().conflicts;
        let obs = self.obs.clone();
        // Query ids exist to correlate trace events and name per-query
        // proof files; otherwise the counter is never touched.
        let query = if self.wants_query_ids() {
            next_query_id()
        } else {
            0
        };
        obs.trace(|| TraceEvent::QueryStart {
            query,
            property,
            spec,
        });
        let (verdict, attempts, full_violation) =
            if self.fails_with_nothing_failed(property, spec.corrupted) {
                let nothing = ThreatVector::from_failed(&self.input.topology, []);
                (Verdict::Threat(nothing), 0, None)
            } else {
                self.solve(query, property, spec, &limits, start)
            };
        let certificate = self.certify_verdict(
            query,
            property,
            spec,
            &verdict,
            full_violation.as_ref().map(|(d, l)| (d, l)),
        );
        let total_conflicts = self.encoder.solver_stats().conflicts - conflicts_before;
        obs.trace(|| TraceEvent::QueryDone {
            query,
            verdict: match &verdict {
                Verdict::Resilient => "resilient",
                Verdict::Threat(_) => "threat",
                Verdict::Unknown { .. } => "unknown",
            },
            attempts,
            conflicts: total_conflicts,
            elapsed: start.elapsed(),
        });
        obs.count("queries", 1);
        obs.count(
            match &verdict {
                Verdict::Resilient => "verdict_resilient",
                Verdict::Threat(_) => "verdict_threat",
                Verdict::Unknown { .. } => "verdict_unknown",
            },
            1,
        );
        obs.count("conflicts", total_conflicts);
        obs.observe_duration("query_us", start.elapsed());
        VerificationReport {
            property,
            spec,
            verdict,
            duration: start.elapsed(),
            encoding: self.encoder.stats(),
            conflicts: self.encoder.solver_stats().conflicts - conflicts_before,
            attempts,
            certificate,
        }
    }

    /// Whether this plain analyzer's property already fails in the
    /// all-up state (no device or link failed). Violation is
    /// upward-closed in failures, so such a property fails under every
    /// budget and every solver witness minimizes to the empty vector.
    /// Evaluated once per `(property, r)` per model state; a certified
    /// analyzer always answers `false`, so its verdicts keep their
    /// solver proof.
    fn fails_with_nothing_failed(&mut self, property: Property, r: usize) -> bool {
        if self.cert.is_some() {
            return false;
        }
        let evaluator = &self.evaluator;
        *self.fails_at_zero.entry((property, r)).or_insert_with(|| {
            evaluator.violates_full(property, r, &HashSet::new(), &HashSet::new())
        })
    }

    /// Runs the solver to a verdict (or until `limits` stop it),
    /// escalating an exhausted conflict budget per `limits.retry`.
    /// Returns the verdict, the attempts spent, and on `sat` the full
    /// (pre-minimization) failure sets, kept for certification.
    fn solve(
        &mut self,
        query: u64,
        property: Property,
        spec: ResiliencySpec,
        limits: &QueryLimits,
        start: Instant,
    ) -> (Verdict, u32, Option<FailureSets>) {
        let obs = self.obs.clone();
        let conflicts_before = self.encoder.solver_stats().conflicts;
        if obs.has_tracer() {
            // Surface long solve attempts as they run: the solver calls
            // this at every Luby restart.
            let progress_obs = obs.clone();
            self.encoder
                .solver_mut()
                .set_progress_hook(Some(Box::new(move |stats| {
                    progress_obs.trace(|| TraceEvent::SolveProgress {
                        query,
                        conflicts: stats.conflicts,
                        decisions: stats.decisions,
                        propagations: stats.propagations,
                        restarts: stats.restarts,
                    });
                })));
        }
        let mut attempts: u32 = 0;
        let mut full_violation: Option<FailureSets> = None;
        let verdict = loop {
            limits.arm(self.encoder.solver_mut(), attempts);
            let attempt_start = Instant::now();
            let stats_before = self.encoder.solver_stats();
            let outcome = self.encoder.find_violation(&self.input, property, spec);
            attempts += 1;
            let delta = self.encoder.solver_stats().delta_since(&stats_before);
            obs.trace(|| TraceEvent::SolveAttempt {
                query,
                attempt: attempts - 1,
                outcome: match &outcome {
                    SearchOutcome::Resilient => "unsat",
                    SearchOutcome::Violation(_) => "sat",
                    SearchOutcome::Unknown => "unknown",
                },
                conflicts: delta.conflicts,
                decisions: delta.decisions,
                propagations: delta.propagations,
                restarts: delta.restarts,
                elapsed: attempt_start.elapsed(),
            });
            obs.count("solve_attempts", 1);
            obs.observe("attempt_conflicts", delta.conflicts);
            if attempts == 1 {
                // The model is built lazily inside the first solve, so
                // the sizes first exist here.
                let encoding = self.encoder.stats();
                obs.trace(|| TraceEvent::Encoded {
                    query,
                    variables: encoding.variables,
                    clauses: encoding.clauses,
                });
            }
            match outcome {
                SearchOutcome::Resilient => break Verdict::Resilient,
                SearchOutcome::Violation(violation) => {
                    let failed: HashSet<_> = violation.devices.into_iter().collect();
                    let failed_links: HashSet<usize> = violation.links.into_iter().collect();
                    debug_assert!(
                        self.evaluator.violates_full(
                            property,
                            spec.corrupted,
                            &failed,
                            &failed_links
                        ),
                        "solver threat not confirmed by direct evaluation"
                    );
                    let minimal = self.evaluator.minimize_full(
                        property,
                        spec.corrupted,
                        &failed,
                        &failed_links,
                    );
                    obs.trace(|| TraceEvent::Minimize {
                        query,
                        from: failed.len() + failed_links.len(),
                        to: minimal.len(),
                    });
                    full_violation = Some((failed, failed_links));
                    break Verdict::Threat(minimal);
                }
                SearchOutcome::Unknown => {
                    // Retrying helps only when the *conflict budget* ran
                    // out; an expired deadline or a raised interrupt will
                    // stop the next attempt just the same.
                    let retryable = limits.conflict_budget.is_some()
                        && attempts < limits.retry.attempts
                        && !limits.expired()
                        && !limits.interrupted();
                    if !retryable {
                        break Verdict::Unknown {
                            conflicts: self.encoder.solver_stats().conflicts - conflicts_before,
                            elapsed: start.elapsed(),
                        };
                    }
                    obs.count("retries", 1);
                    obs.trace(|| TraceEvent::Retry {
                        query,
                        attempt: attempts,
                        budget: limits
                            .retry
                            .budget_for(limits.conflict_budget.unwrap_or(0), attempts),
                    });
                }
            }
        };
        QueryLimits::disarm(self.encoder.solver_mut());
        if obs.has_tracer() {
            self.encoder.solver_mut().set_progress_hook(None);
        }
        (verdict, attempts, full_violation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxres::BudgetAxis;
    use scadasim::{generate, ScadaGenConfig};

    /// Queries in the long session.
    const QUERIES: usize = 216;
    /// The first sweep: three rounds of verify k = 1..3 plus a
    /// max-resiliency query, asking for every property, every bad-data
    /// tolerance and a link budget.
    const SWEEP: usize = 12;

    /// A warm session's clause arena is bounded by what it holds, not
    /// by what it ever learnt: learnt-clause reductions leave deleted
    /// clauses behind, and compaction must reclaim their words.
    #[test]
    fn long_session_arena_stays_bounded() {
        let scada = generate(
            powergrid::synthetic::ieee_sized(30, 0),
            &ScadaGenConfig {
                measurement_density: 1.0,
                hierarchy_level: 2,
                secure_fraction: 0.5,
                seed: 3,
                ..Default::default()
            },
        );
        let input = AnalysisInput::new(scada.measurements, scada.topology, scada.ied_measurements);
        let mut analyzer = Analyzer::new(&input);
        let properties = [
            Property::Observability,
            Property::SecuredObservability,
            Property::BadDataDetectability,
        ];
        let axes = [
            BudgetAxis::Total,
            BudgetAxis::IedsOnly,
            BudgetAxis::RtusOnly,
        ];
        let (mut sweep_peak, mut peak) = (0, 0);
        for q in 0..QUERIES {
            // Alternate verify k = 1..3 with a max-resiliency sweep; the
            // property, tolerance and link budget cycle with coprime
            // periods, so later queries keep meeting new combinations.
            if q % 4 == 3 {
                let property = properties[q / 12 % 3];
                analyzer.max_resiliency(property, axes[q / 4 % 3], q / 36 % 3);
            } else {
                let spec = ResiliencySpec::total(1 + q % 4)
                    .with_corrupted(q / 5 % 3)
                    .with_link_failures(q / 7 % 3);
                analyzer.verify(properties[q % 3], spec);
            }
            let words = analyzer.encoder.solver().arena_words();
            if q < SWEEP {
                sweep_peak = sweep_peak.max(words);
            }
            peak = peak.max(words);
        }
        let stats = analyzer.encoder.solver_stats();
        assert!(
            stats.reductions > 0 && stats.compactions > 0,
            "the session must delete learnt clauses: {stats:?}"
        );
        // Without compaction this session ends at 2.7x its first-sweep
        // peak; with it, at 1.4x.
        assert!(
            peak <= 2 * sweep_peak,
            "arena grew to {peak} words from {sweep_peak} in the first sweep"
        );
    }
}
