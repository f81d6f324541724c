//! # scada-analyzer — formal SCADA resiliency verification
//!
//! A reproduction of Rahman, Jakaria & Al-Shaer, *Formal Analysis for
//! Dependable Supervisory Control and Data Acquisition in Smart Grids*
//! (DSN 2016): automated verification of
//!
//! * **k-resilient observability** — can the state estimator still
//!   observe the grid when up to `k` field devices (IEDs/RTUs) fail?
//! * **k-resilient secured observability** — same, counting only data
//!   delivered over authenticated, integrity-protected hops;
//! * **(k, r)-resilient bad-data detectability** — does every state
//!   retain ≥ `r + 1` secured measurements, so corrupted readings remain
//!   detectable?
//!
//! Each question is encoded as a *threat search*: a satisfying
//! assignment is a set of device failures violating the property (a
//! threat vector); unsatisfiability certifies resiliency. The paper
//! solves the encoding with Z3; this crate encodes to CNF (Tseitin +
//! cardinality counters from [`boolexpr`]) and solves with the
//! from-scratch CDCL solver in [`satcore`].
//!
//! # Examples
//!
//! Verify the paper's case study and inspect a threat vector:
//!
//! ```
//! use scada_analyzer::casestudy::five_bus_case_study;
//! use scada_analyzer::{Analyzer, Property, ResiliencySpec, Verdict};
//!
//! let input = five_bus_case_study();
//! let mut analyzer = Analyzer::new(&input);
//!
//! // The system is (1,1)-resilient observable …
//! let verdict = analyzer.verify(Property::Observability, ResiliencySpec::split(1, 1));
//! assert!(verdict.is_resilient());
//!
//! // … but not (2,1)-resilient: the solver exhibits a threat vector.
//! match analyzer.verify(Property::Observability, ResiliencySpec::split(2, 1)) {
//!     Verdict::Threat(vector) => {
//!         assert_eq!(vector.ieds.len() + vector.rtus.len(), 3);
//!     }
//!     other => panic!("expected a threat, got {other:?}"),
//! }
//! ```
//!
//! Queries can be resource-bounded ([`QueryLimits`]): a wall-clock
//! deadline, a per-solve conflict budget with escalating retry, and a
//! cooperative interrupt flag. A bounded query that runs out of
//! resources degrades to [`Verdict::Unknown`] instead of hanging — and
//! `Unknown` is never conflated with `Resilient`.

// `deny`, not `forbid`: the service event loop's epoll shim
// (`service::poll::sys`) and the signal hook (`service::signal::sys`)
// are the only modules allowed to opt back in for raw syscalls —
// everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bruteforce;
pub mod casestudy;
pub mod certify;
pub mod encode;
pub mod enumerate;
pub mod fleet;
pub mod ingest;
mod input;
mod maxres;
pub mod obs;
pub mod parallel;
mod patch;
mod pool;
pub mod security_index;
pub mod service;
mod spec;
pub mod synthesis;
mod threat;
mod verify;

pub use certify::{CertFault, Certificate, CertificationLog, CertifyOptions};
pub use encode::{DeltaStats, SearchOutcome};
pub use enumerate::{
    enumerate_threats, enumerate_threats_limited, enumerate_threats_with,
    enumerate_threats_with_limited, ThreatSpace,
};
pub use input::AnalysisInput;
pub use maxres::BudgetAxis;
pub use obs::{JsonlTracer, MetricsRegistry, Obs, TraceEvent, TraceSink};
pub use parallel::{
    par_max_resiliency, par_max_resiliency_certified, par_max_resiliency_limited,
    par_max_resiliency_observed, par_resiliency_frontier, par_resiliency_frontier_certified,
    par_resiliency_frontier_limited, par_resiliency_frontier_observed, verify_batch,
    verify_batch_certified, verify_batch_limited, verify_batch_observed,
};
pub use patch::{ModelPatch, PatchError};
pub use security_index::{
    served_distribution, SecurityIndexAnalyzer, SecurityIndexDistribution, SecurityIndexReport,
};
pub use service::{advance_model_hash, model_hash, ModelHash};
pub use spec::{parse_duration, FailureBudget, Property, QueryLimits, ResiliencySpec, RetryPolicy};
pub use synthesis::{
    apply_upgrades, synthesize_upgrades, synthesize_upgrades_certified,
    synthesize_upgrades_observed, upgradable_hops, SynthesisOptions, SynthesisResult, Upgrade,
    UpgradeSuite,
};
pub use threat::ThreatVector;
pub use verify::{Analyzer, Verdict, VerificationReport};
