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
//! proportionally to the solving, not quadratically. The axioms reach
//! the checker through the solver's proof sink, the same
//! [`ProofBuffer`] as the proof steps, so the session holds its formula
//! once in the solver and once in the checker, and nowhere else.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use satcore::{HintedProof, LBool, ProofBuffer, ProofStep, RupChecker};
use scadasim::{DeviceId, DeviceKind};

use crate::bruteforce::DirectEvaluator;
use crate::encode::ModelEncoder;
use crate::input::AnalysisInput;
use crate::obs::{Obs, TraceEvent};
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
        /// Wall-clock time spent certifying.
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
        /// Wall-clock time spent certifying.
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

/// The per-analyzer certification state: one incremental RUP checker
/// auditing the analyzer's whole solving session.
#[derive(Debug)]
pub(crate) struct CertSession {
    checker: RupChecker,
    buffer: ProofBuffer,
    /// Certifications performed by this session, for unique proof-file
    /// names when several checks share one query id (enumeration spans).
    seq: u64,
    /// Patch boundaries flushed so far, naming `patch-<n>.drat` files.
    patches: u64,
    options: CertifyOptions,
}

impl CertSession {
    pub(crate) fn new(buffer: ProofBuffer, options: CertifyOptions) -> CertSession {
        CertSession {
            checker: RupChecker::new(),
            buffer,
            seq: 0,
            patches: 0,
            options,
        }
    }

    /// Flushes the certification pipeline at a model-patch boundary.
    ///
    /// A patch mutates the encoder (new axioms, pin units) while the
    /// previous query's proof steps may still sit in the buffer; if the
    /// patch ran first, those clause additions would interleave into
    /// the prior query's proof segment and the next `certify` call
    /// would attribute them to the wrong epoch. So the patch *waits on
    /// the proof flush*: drain the buffered axioms and steps into the
    /// session checker now, write them to their own
    /// `patch-<n>.drat` segment, and only then let the patch touch the
    /// solver.
    ///
    /// Soundness: patches only ever *add* clauses (stale delivery
    /// definitions are conservative extensions; pin units are new
    /// axioms), so the single incremental checker remains a sound
    /// auditor across the boundary.
    pub(crate) fn flush_patch_boundary(&mut self) -> Result<(), String> {
        let proof = self.drain();
        if let Err(e) = self.checker.replay(&proof) {
            return Err(format!("proof replay failed at patch boundary: {e}"));
        }
        let n = self.patches;
        self.patches += 1;
        if let Some(dir) = self.options.proof_dir.as_ref() {
            let path = dir.join(format!("patch-{n:04}.drat"));
            let mut bytes = Vec::new();
            satcore::write_drat(proof.steps(), &mut bytes)
                .map_err(|e| format!("serializing patch-boundary proof segment: {e}"))?;
            std::fs::write(&path, bytes)
                .map_err(|e| format!("writing proof file {}: {e}", path.display()))?;
        }
        Ok(())
    }

    /// Feeds the checker the axioms the solver was handed since the
    /// last drain, in arrival order (so hint ids naming them resolve),
    /// and returns the proof steps logged since.
    fn drain(&mut self) -> HintedProof {
        for clause in self.buffer.take_axioms().iter() {
            self.checker.add_axiom(clause);
        }
        self.buffer.take_hinted()
    }

    /// Certifies one query's verdict, draining the axioms and proof
    /// steps accumulated since the previous call.
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
        let before = self.checker.stats();
        let mut proof = self.drain();
        if self.options.fault == Some(CertFault::CorruptProof) {
            // No hints: nothing vouches for the step, full propagation
            // must reject it.
            proof.insert_unhinted(0, ProofStep::Add(Vec::new()));
        }
        let seq = self.seq;
        self.seq += 1;
        let certificate = self.check(
            encoder, evaluator, input, property, spec, verdict, violation, &proof,
        );
        let certificate = match (
            certificate,
            self.write_proof_file(query, seq, proof.steps()),
        ) {
            (Certificate::Failed { reason }, _) => Certificate::Failed { reason },
            (_, Err(reason)) => Certificate::Failed { reason },
            (ok, Ok(())) => ok,
        };
        let delta_steps = self.checker.stats().steps - before.steps;
        let fallbacks = self.checker.stats().fallbacks - before.fallbacks;
        let elapsed = start.elapsed();
        let certificate = match certificate {
            Certificate::Threat { .. } => Certificate::Threat {
                steps: delta_steps,
                elapsed,
            },
            Certificate::Proof { .. } => Certificate::Proof {
                steps: delta_steps,
                propagations: self.checker.stats().propagations - before.propagations,
                elapsed,
            },
            other => other,
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

    /// The actual checking, returning placeholder step/time counts that
    /// [`CertSession::certify`] fills in.
    #[allow(clippy::too_many_arguments)]
    fn check(
        &mut self,
        encoder: &ModelEncoder,
        evaluator: &DirectEvaluator,
        input: &AnalysisInput,
        property: Property,
        spec: ResiliencySpec,
        verdict: &Verdict,
        violation: Option<(&HashSet<DeviceId>, &HashSet<usize>)>,
        proof: &HintedProof,
    ) -> Certificate {
        // 1. Replay this query's proof steps over the drained axioms —
        //    every solve learns clauses, so this runs for sat, unsat,
        //    and unknown alike.
        if let Err(e) = self.checker.replay(proof) {
            return Certificate::Failed {
                reason: format!("proof replay failed: {e}"),
            };
        }

        match verdict {
            Verdict::Unknown { .. } => Certificate::Unchecked,
            Verdict::Resilient => {
                // 2. The proof must refute this query's assumptions:
                //    asserting them over formula + replayed lemmas must
                //    propagate to a conflict in the independent engine.
                if !self.checker.refutes(encoder.last_assumptions()) {
                    return Certificate::Failed {
                        reason: "proof does not refute the query's assumptions".into(),
                    };
                }
                Certificate::Proof {
                    steps: 0,
                    propagations: 0,
                    elapsed: Duration::ZERO,
                }
            }
            Verdict::Threat(_) => {
                // 3. Model checks: the satisfying assignment must
                //    satisfy every original clause the checker holds
                //    and every assumption of this query.
                let mut model = encoder.solver().model_values().to_vec();
                if self.options.fault == Some(CertFault::CorruptModel) {
                    if let Some(v) = model.iter_mut().find(|v| v.is_defined()) {
                        *v = v.negate();
                    }
                }
                if let Err(e) = self.checker.check_model(&model) {
                    return Certificate::Failed {
                        reason: format!("model check failed: {e}"),
                    };
                }
                for &a in encoder.last_assumptions() {
                    let value = model.get(a.var().index()).copied().unwrap_or(LBool::Undef);
                    if value != LBool::from_bool(a.is_positive()) {
                        return Certificate::Failed {
                            reason: format!("model does not satisfy assumption {a}"),
                        };
                    }
                }
                // 4. Semantic re-check of the extracted failure set:
                //    budget honored, property genuinely violated under
                //    the concrete evaluator.
                let Some((devices, links)) = violation else {
                    return Certificate::Failed {
                        reason: "threat verdict without an extracted violation".into(),
                    };
                };
                if let Err(reason) = budget_honored(input, spec, devices, links) {
                    return Certificate::Failed { reason };
                }
                if !evaluator.violates_full(property, spec.corrupted, devices, links) {
                    return Certificate::Failed {
                        reason: "extracted failure set does not violate the property \
                                 under direct evaluation"
                            .into(),
                    };
                }
                Certificate::Threat {
                    steps: 0,
                    elapsed: Duration::ZERO,
                }
            }
        }
    }

    fn write_proof_file(&self, query: u64, seq: u64, steps: &[ProofStep]) -> Result<(), String> {
        let Some(dir) = self.options.proof_dir.as_ref() else {
            return Ok(());
        };
        let path = dir.join(format!("query-{query:05}-{seq:04}.drat"));
        let mut bytes = Vec::new();
        satcore::write_drat(steps, &mut bytes)
            .map_err(|e| format!("serializing proof for query {query}: {e}"))?;
        std::fs::write(&path, bytes)
            .map_err(|e| format!("writing proof file {}: {e}", path.display()))
    }
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
