//! # scada-bench — evaluation harness
//!
//! Shared machinery for regenerating every table and figure of the
//! DSN'16 evaluation: deterministic workload construction (IEEE-sized
//! grids + synthetic SCADA), timed verification runs, small statistics,
//! and CSV output. The `experiments` binary drives full sweeps;
//! `benches/` holds the criterion targets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;

use std::time::{Duration, Instant};

use powergrid::ieee::ieee14;
use powergrid::synthetic::ieee_sized;
use scada_analyzer::parallel::par_map;
use scada_analyzer::{
    AnalysisInput, Analyzer, Certificate, Property, QueryContext, ResiliencySpec, Verdict,
};
use scadasim::{generate, ScadaGenConfig};

/// Workload parameters for one generated SCADA system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// IEEE bus-system size (14 uses the real system, 30/57/118 the
    /// IEEE-sized synthetic generator).
    pub buses: usize,
    /// Measurement density (fraction of `2L + B`).
    pub density: f64,
    /// RTU hierarchy level.
    pub hierarchy: usize,
    /// Fraction of hops with secured profiles.
    pub secure_fraction: f64,
    /// RNG seed (grid + SCADA).
    pub seed: u64,
}

impl Default for Workload {
    fn default() -> Workload {
        Workload {
            buses: 14,
            density: 0.7,
            hierarchy: 1,
            secure_fraction: 0.8,
            seed: 0,
        }
    }
}

impl Workload {
    /// Builds the analysis input for this workload.
    pub fn build(&self) -> AnalysisInput {
        let system = if self.buses == 14 {
            ieee14()
        } else {
            ieee_sized(self.buses, self.seed)
        };
        let scada = generate(
            system,
            &ScadaGenConfig {
                measurement_density: self.density,
                hierarchy_level: self.hierarchy,
                secure_fraction: self.secure_fraction,
                seed: self.seed,
                ..Default::default()
            },
        );
        AnalysisInput::new(scada.measurements, scada.topology, scada.ied_measurements)
    }
}

/// The coarse verdict of one measured query: what lands in the result
/// tables and CSV cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// `unsat` — verified resilient.
    Resilient,
    /// `sat` — a threat vector exists.
    Threat,
    /// A resource limit stopped the query before a verdict. Rendered as
    /// an `unknown` cell; never counted as resilient.
    Unknown,
}

impl Outcome {
    /// Whether the query was verified resilient (`Unknown` is not).
    pub fn is_resilient(self) -> bool {
        matches!(self, Outcome::Resilient)
    }

    /// Whether the query ran out of resources before a verdict.
    pub fn is_unknown(self) -> bool {
        matches!(self, Outcome::Unknown)
    }

    /// The CSV/table cell for this outcome.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Resilient => "resilient",
            Outcome::Threat => "threat",
            Outcome::Unknown => "unknown",
        }
    }
}

impl From<&Verdict> for Outcome {
    fn from(verdict: &Verdict) -> Outcome {
        match verdict {
            Verdict::Resilient => Outcome::Resilient,
            Verdict::Threat(_) => Outcome::Threat,
            Verdict::Unknown { .. } => Outcome::Unknown,
        }
    }
}

/// One timed verification outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// The verdict (resilient / threat / unknown).
    pub outcome: Outcome,
    /// Wall-clock time including encoding and solving.
    pub duration: Duration,
    /// Solver variables after the query.
    pub variables: usize,
    /// Clauses after the query.
    pub clauses: usize,
    /// Solver conflicts spent (all attempts).
    pub conflicts: u64,
    /// Solve attempts performed (> 1 when an exhausted conflict budget
    /// was retried with escalation).
    pub attempts: u32,
    /// Time the independent checker spent certifying the verdict (zero
    /// when certification was off or the verdict stayed unknown).
    pub cert: Duration,
}

/// Runs one verification from scratch (model construction + solve), the
/// paper's notion of "execution time of the model".
///
/// Under `ctx.limits` a query stopped by its deadline or conflict budget
/// measures as [`Outcome::Unknown`] instead of running unbounded; its
/// trace events and metrics flow through `ctx.obs`. With `ctx.certify`
/// enabled the verdict is re-checked by the independent proof/model
/// checker, the check lands in `certify.log`, and [`Measured::cert`]
/// carries the time the checker spent.
pub fn measure(
    input: &AnalysisInput,
    property: Property,
    spec: ResiliencySpec,
    ctx: &QueryContext,
) -> Measured {
    let start = Instant::now();
    let mut analyzer = Analyzer::with_options(input, ctx.obs.clone(), ctx.certify.clone());
    let report = analyzer.verify_with_report_limited(property, spec, &ctx.limits);
    let cert = match report.certificate {
        Some(Certificate::Threat { elapsed, .. }) | Some(Certificate::Proof { elapsed, .. }) => {
            elapsed
        }
        _ => Duration::ZERO,
    };
    Measured {
        outcome: Outcome::from(&report.verdict),
        duration: start.elapsed(),
        variables: report.encoding.variables,
        clauses: report.encoding.clauses,
        conflicts: report.conflicts,
        attempts: report.attempts,
        cert,
    }
}

/// One entry of an experiment fleet: a workload plus the query to run
/// on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetQuery {
    /// The workload to construct.
    pub workload: Workload,
    /// The property to verify on it.
    pub property: Property,
    /// The specification to verify against.
    pub spec: ResiliencySpec,
}

/// Runs a whole fleet of workload queries, fanning construction and
/// verification across `jobs` workers (`0` = all available cores,
/// `1` = the serial baseline).
///
/// Every fleet entry builds its own input and analyzer, so results are
/// in input order and identical to calling [`measure`] serially —
/// parallelism only changes the wall-clock. Each entry gets its own copy
/// of `ctx.limits` (a per-entry wall-clock allowance when built with
/// [`QueryLimits::with_timeout`](scada_analyzer::QueryLimits::with_timeout));
/// entries stopped by a limit come back [`Outcome::Unknown`] and the
/// rest of the fleet is unaffected. Per-worker fleet events flow through
/// `ctx.obs`, and every worker certifies into the one `ctx.certify.log`.
pub fn measure_fleet(fleet: &[FleetQuery], jobs: usize, ctx: &QueryContext) -> Vec<Measured> {
    par_map(fleet, jobs, &ctx.obs, |_, query, _| {
        let input = query.workload.build();
        measure(&input, query.property, query.spec, ctx)
    })
}

/// Mean of a set of durations (zero if empty).
pub fn mean(durations: &[Duration]) -> Duration {
    if durations.is_empty() {
        return Duration::ZERO;
    }
    durations.iter().sum::<Duration>() / durations.len() as u32
}

/// Finds, for one workload, a `(k_unsat, k_sat)` pair bracketing the
/// resiliency boundary for a property: the largest `k` still resilient
/// and the smallest `k` with a threat. Returns `None` when even `k = 0`
/// has a threat (no unsat side exists).
pub fn resiliency_boundary(
    input: &AnalysisInput,
    property: Property,
    max_k: usize,
) -> Option<(usize, usize)> {
    let mut analyzer = Analyzer::new(input);
    let mut last_resilient: Option<usize> = None;
    for k in 0..=max_k {
        if analyzer
            .verify(property, ResiliencySpec::total(k))
            .is_resilient()
        {
            last_resilient = Some(k);
        } else {
            return last_resilient.map(|u| (u, k));
        }
    }
    // Resilient all the way to max_k: treat (max_k, max_k + 1) as the
    // boundary so callers still get an unsat sample.
    last_resilient.map(|u| (u, u + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builds_for_every_size() {
        for buses in [14, 30, 57] {
            let input = Workload {
                buses,
                ..Default::default()
            }
            .build();
            assert!(input.topology.ieds().count() > 0);
            assert!(input.topology.validate().is_empty());
        }
    }

    #[test]
    fn measure_produces_sensible_numbers() {
        let input = Workload::default().build();
        let m = measure(
            &input,
            Property::Observability,
            ResiliencySpec::total(0),
            &QueryContext::default(),
        );
        assert!(m.variables > 0);
        assert!(m.clauses > 0);
        assert!(m.duration > Duration::ZERO);
    }

    #[test]
    fn boundary_is_consistent() {
        let input = Workload::default().build();
        if let Some((unsat_k, sat_k)) = resiliency_boundary(&input, Property::Observability, 6) {
            assert!(unsat_k < sat_k);
            let mut analyzer = Analyzer::new(&input);
            assert!(analyzer
                .verify(Property::Observability, ResiliencySpec::total(unsat_k))
                .is_resilient());
        }
    }

    #[test]
    fn fleet_matches_serial_measurement() {
        let fleet: Vec<FleetQuery> = (0..3)
            .map(|k| FleetQuery {
                workload: Workload::default(),
                property: Property::Observability,
                spec: ResiliencySpec::total(k),
            })
            .collect();
        let serial = measure_fleet(&fleet, 1, &QueryContext::default());
        let parallel = measure_fleet(&fleet, 2, &QueryContext::default());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.outcome, p.outcome);
            assert_eq!(s.variables, p.variables);
            assert_eq!(s.clauses, p.clauses);
        }
    }

    #[test]
    fn bounded_measurement_degrades_to_unknown() {
        use scada_analyzer::{QueryLimits, RetryPolicy};
        let input = Workload::default().build();
        // A 1-conflict budget with no retry leaves a nontrivial query
        // undecided — and must not panic or hang.
        let tiny = QueryContext {
            limits: QueryLimits::none().with_conflict_budget(1),
            ..QueryContext::default()
        };
        let m = measure(
            &input,
            Property::Observability,
            ResiliencySpec::total(3),
            &tiny,
        );
        if m.outcome.is_unknown() {
            // Escalating retry from the same tiny base budget reaches a
            // definite verdict.
            let escalated = QueryContext {
                limits: QueryLimits::none()
                    .with_conflict_budget(1)
                    .with_retry(RetryPolicy::escalating(32)),
                ..QueryContext::default()
            };
            let m2 = measure(
                &input,
                Property::Observability,
                ResiliencySpec::total(3),
                &escalated,
            );
            assert!(!m2.outcome.is_unknown(), "×2 escalation must decide");
        }
    }

    #[test]
    fn certified_measurement_populates_the_shared_log() {
        let input = Workload::default().build();
        let ctx = QueryContext {
            certify: scada_analyzer::CertifyOptions::enabled(),
            ..QueryContext::default()
        };
        let certify = &ctx.certify;
        let m = measure(
            &input,
            Property::Observability,
            ResiliencySpec::total(1),
            &ctx,
        );
        assert!(!m.outcome.is_unknown());
        assert!(m.cert > Duration::ZERO, "certified runs report check time");
        assert_eq!(certify.log.checks(), 1);
        assert_eq!(
            certify.log.failures(),
            0,
            "{:?}",
            certify.log.first_failure()
        );
        // Uncertified measurement reports no check time.
        let plain = measure(
            &input,
            Property::Observability,
            ResiliencySpec::total(1),
            &QueryContext::default(),
        );
        assert_eq!(plain.cert, Duration::ZERO);
        assert_eq!(plain.outcome, m.outcome);
    }

    #[test]
    fn mean_of_durations() {
        assert_eq!(mean(&[]), Duration::ZERO);
        let ds = [Duration::from_millis(2), Duration::from_millis(4)];
        assert_eq!(mean(&ds), Duration::from_millis(3));
    }
}
