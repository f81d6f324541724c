//! Threat-vector enumeration (the paper's "there are another 8 different
//! threat vectors").
//!
//! Repeatedly solves for a violation, minimizes the model's failure set
//! with the direct evaluator, records the minimal vector, and adds a
//! *blocking clause* `∨_{d ∈ V} Node_d` ("at least one of these devices
//! stays up"), which excludes exactly the supersets of `V`. Distinct
//! minimal vectors are incomparable, so this enumerates all of them.
//!
//! Enumeration honours [`QueryLimits`]: the whole run shares one
//! anchored deadline, every violation search gets the per-solve conflict
//! budget with the escalating retry policy, and a search stopped by a
//! limit ends the run with an [*undecided*](ThreatSpace::undecided)
//! space — the vectors found so far are all real, but the space may hold
//! more.

use std::collections::HashSet;
use std::time::Instant;

use crate::encode::SearchOutcome;
use crate::input::AnalysisInput;
use crate::obs::{next_query_id, TraceEvent};
use crate::spec::{Property, QueryContext, QueryLimits, ResiliencySpec};
use crate::threat::ThreatVector;
use crate::verify::{Analyzer, Verdict};

/// Result of an enumeration run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreatSpace {
    /// All minimal threat vectors within the budget, in discovery order.
    pub vectors: Vec<ThreatVector>,
    /// Whether enumeration stopped early — at the cap, or because a
    /// resource limit on the underlying solver cut a search short —
    /// rather than exhausting the space.
    pub truncated: bool,
    /// Whether a resource limit ([`QueryLimits`]) stopped a violation
    /// search before a verdict. An undecided space is always also
    /// [`truncated`](ThreatSpace::truncated); the converse is false (a
    /// cap-truncated space is decided as far as it goes). Soundness:
    /// every vector in an undecided space is a real threat, but the
    /// absence of further vectors certifies nothing.
    pub undecided: bool,
}

impl ThreatSpace {
    /// Number of vectors found.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether no threat vector exists (the system is resilient).
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Ranks devices by *criticality*: the number of minimal threat
    /// vectors each device participates in, descending (ties broken by
    /// device id). A device at the top of this list is the most
    /// effective single hardening target — protecting it invalidates the
    /// most attack options.
    pub fn criticality_ranking(&self) -> Vec<(scadasim::DeviceId, usize)> {
        let mut counts: std::collections::HashMap<scadasim::DeviceId, usize> =
            std::collections::HashMap::new();
        for v in &self.vectors {
            for d in v.devices() {
                *counts.entry(d).or_default() += 1;
            }
        }
        let mut ranking: Vec<(scadasim::DeviceId, usize)> = counts.into_iter().collect();
        ranking.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranking
    }
}

/// Enumerates all minimal threat vectors for a property within a budget.
///
/// Blocking clauses are added permanently to the encoder, so this
/// constructs a fresh [`Analyzer`] from `ctx` internally (with the
/// default context, exactly [`Analyzer::new`]); `cap` bounds the number
/// of vectors returned.
///
/// `ctx.limits`' per-query timeout is anchored once for the *whole*
/// enumeration (one run = one query's wall-clock allowance); the
/// conflict budget and retry policy apply to each violation search. A
/// search stopped by a limit ends the run with `truncated` and
/// `undecided` both set.
pub fn enumerate_threats(
    input: &AnalysisInput,
    property: Property,
    spec: ResiliencySpec,
    cap: usize,
    ctx: &QueryContext,
) -> ThreatSpace {
    let mut analyzer = Analyzer::with_options(input, ctx.obs.clone(), ctx.certify.clone());
    enumerate_threats_with(&mut analyzer, property, spec, cap, &ctx.limits)
}

/// Enumeration over an existing analyzer, under `limits` (see
/// [`enumerate_threats`] for the limit semantics).
///
/// The blocking clauses stay in the analyzer's solver afterwards: later
/// queries on the same analyzer will not see the enumerated vectors (or
/// their supersets) as threats. Use a dedicated analyzer unless that is
/// intended.
pub fn enumerate_threats_with(
    analyzer: &mut Analyzer<'_>,
    property: Property,
    spec: ResiliencySpec,
    cap: usize,
    limits: &QueryLimits,
) -> ThreatSpace {
    // Snapshot the link endpoints up front: the input is borrowed from
    // the analyzer (it owns it after a patch), so holding a reference
    // across the `&mut` solve calls below is no longer possible.
    let link_ends: Vec<(scadasim::DeviceId, scadasim::DeviceId)> = analyzer
        .input()
        .topology
        .links()
        .iter()
        .map(|l| (l.a.min(l.b), l.a.max(l.b)))
        .collect();
    let obs = analyzer.obs().clone();
    let query = if obs.has_tracer() { next_query_id() } else { 0 };
    // One anchored deadline for the whole enumeration: the CLI's
    // `--timeout` bounds the run, not each of its (unboundedly many)
    // member searches.
    let limits = limits.anchored(Instant::now());
    let mut vectors: Vec<ThreatVector> = Vec::new();
    let finish = |analyzer: &mut Analyzer<'_>,
                  vectors: Vec<ThreatVector>,
                  truncated: bool,
                  undecided: bool| {
        QueryLimits::disarm(analyzer.encoder_mut().solver_mut());
        obs.trace(|| TraceEvent::EnumDone {
            query,
            vectors: vectors.len(),
            truncated,
            undecided,
        });
        ThreatSpace {
            vectors,
            truncated,
            undecided,
        }
    };
    loop {
        if vectors.len() >= cap {
            return finish(analyzer, vectors, true, false);
        }
        // Each violation search is its own bounded query: fresh budget,
        // escalating retries, shared deadline.
        let mut attempt: u32 = 0;
        let violation = loop {
            let outcome = analyzer.find_violation_armed(&limits, attempt, property, spec);
            attempt += 1;
            match outcome {
                SearchOutcome::Violation(v) => break Some(v),
                // `unsat`: the space is exhausted.
                SearchOutcome::Resilient => break None,
                // A solver resource limit stopped the search: the
                // vectors found so far are all real, but the space may
                // hold more — retry with a grown budget if the policy
                // allows, otherwise report the space undecided.
                SearchOutcome::Unknown => {
                    let retryable = limits.conflict_budget.is_some()
                        && attempt < limits.retry.attempts
                        && !limits.expired()
                        && !limits.interrupted();
                    if !retryable {
                        return finish(analyzer, vectors, true, true);
                    }
                }
            }
        };
        let violation = match violation {
            Some(v) => v,
            None => {
                // The closing `unsat` is what certifies exhaustiveness:
                // its proof must refute the final query's assumptions.
                analyzer.certify_verdict(query, property, spec, &Verdict::Resilient, None);
                return finish(analyzer, vectors, false, false);
            }
        };
        let failed: HashSet<_> = violation.devices.into_iter().collect();
        let failed_link_idx: Vec<usize> = violation.links.clone();
        let failed_links: HashSet<usize> = violation.links.into_iter().collect();
        let minimal =
            analyzer
                .evaluator()
                .minimize_full(property, spec.corrupted, &failed, &failed_links);
        // Certify the sat verdict *before* the blocking clause lands:
        // the model check must read the model of this solve, against the
        // formula as it was when the solve ran.
        analyzer.certify_verdict(
            query,
            property,
            spec,
            &Verdict::Threat(minimal.clone()),
            Some((&failed, &failed_links)),
        );
        // Block all supersets of the minimal vector (its devices and the
        // surviving minimal links).
        let minimal_links: Vec<usize> = failed_link_idx
            .iter()
            .copied()
            .filter(|&li| minimal.links.binary_search(&link_ends[li]).is_ok())
            .collect();
        let mut clause: Vec<satcore::Lit> = Vec::with_capacity(minimal.len());
        {
            let encoder = analyzer.encoder_mut();
            clause.extend(minimal.devices().map(|d| encoder.node_lit(d)));
            clause.extend(minimal_links.iter().map(|&li| encoder.link_lit(li)));
        }
        analyzer
            .encoder_mut()
            .solver_mut()
            .add_clause_checked(&clause);
        obs.trace(|| TraceEvent::EnumVector {
            query,
            index: vectors.len(),
            size: minimal.len(),
        });
        obs.count("enum_vectors", 1);
        if clause.is_empty() {
            // The empty vector violates the property: the system is
            // broken with zero failures and the space is just {∅}.
            vectors.push(minimal);
            return finish(analyzer, vectors, false, false);
        }
        vectors.push(minimal);
    }
}
