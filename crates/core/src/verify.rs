//! The verification engine.
//!
//! [`Analyzer`] owns a symbolic model ([`crate::encode::ModelEncoder`])
//! and a concrete evaluator ([`crate::bruteforce::DirectEvaluator`]).
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

use std::borrow::Cow;
use std::collections::HashSet;
use std::time::{Duration, Instant};

use scadasim::DeviceId;

use crate::bruteforce::DirectEvaluator;
use crate::certify::{CertSession, Certificate, CertifyOptions};
use crate::encode::{DeltaStats, EncodingStats, ModelEncoder, SearchOutcome};
use crate::input::AnalysisInput;
use crate::obs::{next_query_id, Obs, TraceEvent};
use crate::patch::{ModelPatch, PatchError};
use crate::spec::{Property, QueryLimits, ResiliencySpec};
use crate::threat::ThreatVector;

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
    /// Borrowed for the common "verify this input" flow; promoted to an
    /// owned value the first time a patch rewrites the model in place
    /// (see [`Analyzer::apply_patch`]). [`Analyzer::owning`] starts
    /// owned, for sessions with no caller-side input to borrow from.
    input: Cow<'a, AnalysisInput>,
    encoder: ModelEncoder,
    evaluator: DirectEvaluator,
    obs: Obs,
    certify: CertifyOptions,
    cert: Option<CertSession>,
    /// Model patches applied so far (delta provenance).
    patches: u64,
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
    /// `certify.enabled`, the solver mirrors every original clause and
    /// streams a DRAT proof, and each verdict is independently
    /// re-checked ([`crate::certify`]); the certificate lands on the
    /// [`VerificationReport`] and in `certify.log`.
    pub fn with_options(
        input: &'a AnalysisInput,
        obs: Obs,
        certify: CertifyOptions,
    ) -> Analyzer<'a> {
        Analyzer::build(Cow::Borrowed(input), obs, certify)
    }

    /// Builds an analyzer that owns its input outright. Long-lived
    /// sessions that mutate their model via [`Analyzer::apply_patch`]
    /// have no caller-side input to borrow from, so they start owned
    /// and the returned analyzer is `'static`.
    pub fn owning(input: AnalysisInput, obs: Obs, certify: CertifyOptions) -> Analyzer<'static> {
        Analyzer::build(Cow::Owned(input), obs, certify)
    }

    fn build(input: Cow<'a, AnalysisInput>, obs: Obs, certify: CertifyOptions) -> Analyzer<'a> {
        let (encoder, buffer) = ModelEncoder::new_certified(&input, certify.enabled);
        let cert = buffer.map(|b| CertSession::new(b, certify.clone()));
        Analyzer {
            encoder,
            evaluator: DirectEvaluator::new(&input),
            input,
            obs,
            certify,
            cert,
            patches: 0,
        }
    }

    /// The analyzer's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The input under analysis. The reference borrows the analyzer —
    /// after [`Analyzer::apply_patch`] the input is analyzer-owned, so
    /// it can no longer be handed out with the caller's lifetime.
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
    /// encoder absorbs the delta ([`ModelEncoder::apply_delta`]): new
    /// model elements get fresh variables, retired devices are pinned
    /// available by unit clauses, and only the delivery cones whose
    /// path sets actually changed are re-encoded on the next query.
    ///
    /// When certification is active, the previous query's proof steps
    /// are flushed through the checker and to disk *before* the
    /// encoder mutates — a patch arriving while a proof is still
    /// buffered must wait on that flush, or the patch's clause
    /// additions would interleave into the prior query's proof file.
    pub fn apply_patch(&mut self, patch: &ModelPatch) -> Result<DeltaStats, PatchError> {
        let next = patch.apply(&self.input)?;
        if let Some(cert) = self.cert.as_mut() {
            cert.flush_patch_boundary(&self.encoder)
                .map_err(PatchError::internal)?;
        }
        // The input is swapped in last: if the delta encode panics, the
        // analyzer's input still names the model its solver encodes, so
        // a session worker can rebuild from it consistently.
        let stats = self.encoder.apply_delta(&next);
        self.evaluator = DirectEvaluator::new(&next);
        *self.input.to_mut() = next;
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

    /// Certifies the verdict of the query that just finished, draining
    /// the mirror/proof deltas. Returns `None` when certification is
    /// disabled. `violation` carries the *full* (pre-minimization)
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
        // The full (pre-minimization) failure sets of a sat verdict,
        // kept for certification.
        let mut full_violation: Option<(HashSet<DeviceId>, HashSet<usize>)> = None;
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
}
