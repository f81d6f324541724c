//! Degradation and failure-isolation semantics of the verification
//! layer: resource-bounded queries return `Unknown` (never a panic,
//! never a false `Resilient`), escalating retry recovers definite
//! verdicts, a panicking job inside a parallel fleet surfaces its
//! original message without deadlocking or corrupting siblings, and
//! deliberately corrupted certification artifacts are rejected end to
//! end (the mutation tests at the bottom).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use scada_analyzer::casestudy::five_bus_case_study;
use scada_analyzer::parallel::{par_map, par_max_resiliency};
use scada_analyzer::{
    Analyzer, BudgetAxis, Obs, Property, QueryContext, QueryLimits, ResiliencySpec, RetryPolicy,
    SearchOutcome, Verdict,
};

const OBS: Property = Property::Observability;

/// Regression: `find_violation` under a 1-conflict budget must surface
/// `SearchOutcome::Unknown`, not hit the old `unreachable!`.
#[test]
fn one_conflict_budget_yields_unknown_not_panic() {
    let input = five_bus_case_study();
    let mut analyzer = Analyzer::new(&input);
    // Arm the solver directly with a tiny budget, as the old panic path
    // would have been reached.
    let limits = QueryLimits::none().with_conflict_budget(1);
    // Probe repeatedly: some specs decide without a single conflict;
    // at least the encoding-heavy ones exercise the budget. None may
    // panic, and any Unknown must carry through as a verdict.
    for k in 0..4 {
        let verdict = analyzer
            .verify_with_report_limited(OBS, ResiliencySpec::total(k), &limits)
            .verdict;
        match verdict {
            Verdict::Resilient | Verdict::Threat(_) => {}
            Verdict::Unknown { elapsed, .. } => {
                assert!(elapsed < Duration::from_secs(60));
                assert!(
                    !verdict.is_resilient(),
                    "Unknown must never read as resilient"
                );
            }
        }
    }
}

/// `SearchOutcome` accessors behave.
#[test]
fn search_outcome_accessors() {
    assert!(SearchOutcome::Unknown.is_unknown());
    assert!(!SearchOutcome::Resilient.is_unknown());
    assert_eq!(SearchOutcome::Unknown.violation(), None);
    assert_eq!(SearchOutcome::Resilient.violation(), None);
}

/// An already-expired deadline stops a query immediately with `Unknown`,
/// and the analyzer still answers unlimited queries correctly afterwards
/// (limits are disarmed per query).
#[test]
fn expired_deadline_degrades_then_recovers() {
    let input = five_bus_case_study();
    let mut analyzer = Analyzer::new(&input);
    let expired = QueryLimits::none().with_deadline(Instant::now());
    let verdict = analyzer
        .verify_with_report_limited(OBS, ResiliencySpec::split(2, 1), &expired)
        .verdict;
    assert!(verdict.is_unknown(), "expired deadline must yield Unknown");
    // Same analyzer, no limits: the seed verdicts still hold.
    assert!(analyzer
        .verify(OBS, ResiliencySpec::split(1, 1))
        .is_resilient());
    assert!(!analyzer
        .verify(OBS, ResiliencySpec::split(2, 1))
        .is_resilient());
}

/// A tiny conflict budget that comes back `Unknown` escalates (×2 per
/// attempt) to a definite verdict matching the unlimited run.
#[test]
fn escalating_retry_reaches_definite_verdict() {
    let input = five_bus_case_study();
    for spec in [ResiliencySpec::split(1, 1), ResiliencySpec::split(2, 1)] {
        let reference = Analyzer::new(&input).verify(OBS, spec);
        let limits = QueryLimits::none()
            .with_conflict_budget(1)
            .with_retry(RetryPolicy::escalating(32));
        let mut analyzer = Analyzer::new(&input);
        let report = analyzer.verify_with_report_limited(OBS, spec, &limits);
        assert!(
            !report.verdict.is_unknown(),
            "escalation must decide {spec}"
        );
        assert_eq!(
            report.verdict.is_resilient(),
            reference.is_resilient(),
            "bounded verdict must match the unlimited one at {spec}"
        );
        assert!(report.attempts >= 1);
    }
}

/// Without retry, the same tiny budget may stay Unknown — and that is
/// reported, not silently upgraded.
#[test]
fn no_retry_keeps_unknown_with_metadata() {
    let input = five_bus_case_study();
    let limits = QueryLimits::none().with_conflict_budget(1);
    let mut analyzer = Analyzer::new(&input);
    let report = analyzer.verify_with_report_limited(OBS, ResiliencySpec::split(2, 1), &limits);
    if let Verdict::Unknown { conflicts, elapsed } = report.verdict {
        assert!(conflicts >= 1, "budget was actually consumed");
        assert!(elapsed <= report.duration + Duration::from_millis(5));
        assert_eq!(report.attempts, 1, "no retry requested");
    }
}

/// RetryPolicy growth arithmetic saturates instead of overflowing.
#[test]
fn retry_policy_budget_growth() {
    let p = RetryPolicy::escalating(5);
    assert_eq!(p.budget_for(100, 0), 100);
    assert_eq!(p.budget_for(100, 1), 200);
    assert_eq!(p.budget_for(100, 4), 1600);
    assert_eq!(p.budget_for(u64::MAX, 3), u64::MAX);
    assert_eq!(RetryPolicy::escalating(0).attempts, 1);
}

/// A sweep under an expired deadline degrades on every worker — no
/// panic, no hang — to the sound "nothing proven" answer, while the
/// unlimited sweep matches the serial seed.
#[test]
fn bounded_batch_degrades_per_query() {
    let input = five_bus_case_study();
    let expired = QueryContext {
        limits: QueryLimits::none().with_deadline(Instant::now()),
        ..QueryContext::default()
    };
    let bounded = par_max_resiliency(&input, OBS, BudgetAxis::Total, 1, 2, &expired);
    assert_eq!(bounded, None, "every rung shares the expired deadline");
    // The unlimited sweep still decides everything.
    let unlimited = par_max_resiliency(
        &input,
        OBS,
        BudgetAxis::Total,
        1,
        2,
        &QueryContext::default(),
    );
    assert_eq!(
        unlimited,
        Analyzer::new(&input).max_resiliency(OBS, BudgetAxis::Total, 1)
    );
}

/// A panicking job inside a parallel fleet: the original message
/// surfaces on the caller, siblings do not cascade, and the process can
/// keep running fleets afterwards (no deadlock, no poisoned state).
#[test]
fn fleet_panic_surfaces_original_message() {
    let items: Vec<usize> = (0..32).collect();
    let result = catch_unwind(AssertUnwindSafe(|| {
        par_map(&items, 4, &Obs::none(), |_, &x, _| {
            if x == 5 {
                panic!("injected fault in job five");
            }
            x * 2
        })
    }));
    let payload = result.expect_err("the fleet must re-raise the job panic");
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .expect("original payload type preserved");
    assert_eq!(message, "injected fault in job five");

    // The pool is reusable after the failure — rerun a clean fleet on
    // the same thread.
    let doubled = par_map(&items, 4, &Obs::none(), |_, &x, _| x * 2);
    assert_eq!(doubled[31], 62);
}

/// Repeated panicking fleets never deadlock and always re-raise the
/// first root cause (not a secondary panic from a cancelled sibling).
#[test]
fn fleet_panic_is_stable_across_repeats() {
    let items: Vec<usize> = (0..16).collect();
    for _ in 0..20 {
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, 8, &Obs::none(), |_, &x, _| {
                if x % 7 == 3 {
                    panic!("fault {}", x % 7);
                }
                x
            })
        }));
        let payload = result.expect_err("must re-raise");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("formatted payload");
        assert_eq!(message, "fault 3", "only the injected fault may surface");
    }
}

/// Runs the `scada-analyzer` binary on its own `--template` config with
/// `SCADA_CERTIFY_FAULT` set, for the CLI-level mutation tests below.
fn certified_cli_with_fault(test: &str, fault: &str, args: &[&str]) -> std::process::Output {
    use std::process::Command;
    let template = Command::new(env!("CARGO_BIN_EXE_scada-analyzer"))
        .arg("--template")
        .output()
        .expect("run --template");
    assert!(template.status.success());
    let config = std::env::temp_dir().join(format!(
        "scada-analyzer-degradation-{}-{test}.scada",
        std::process::id()
    ));
    std::fs::write(&config, &template.stdout).expect("write template config");
    Command::new(env!("CARGO_BIN_EXE_scada-analyzer"))
        .arg(&config)
        .args(args)
        .arg("--certify")
        .env("SCADA_CERTIFY_FAULT", fault)
        .output()
        .expect("spawn scada-analyzer")
}

/// Mutation test: a deliberately corrupted DRAT proof must be rejected
/// by the independent checker, flipping the exit code to 4 even though
/// the verdict itself (RESILIENT, normally exit 0) is fine. This is the
/// end-to-end proof that proof checking is not vacuous.
#[test]
fn corrupted_proof_is_rejected_with_exit_4() {
    let out = certified_cli_with_fault(
        "proof",
        "proof",
        &["--property", "obs", "--k", "0", "--r", "0"],
    );
    assert_eq!(
        out.status.code(),
        Some(4),
        "certification failure outranks exit 0"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("certification failed"),
        "stderr must name the failure: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("failure(s)"), "summary line: {stdout}");
    assert!(
        !stdout.contains(" 0 failure(s)"),
        "at least one failure: {stdout}"
    );
}

/// Mutation test: a deliberately corrupted sat model must be rejected
/// by the model checker, flipping the exit code to 4 even though the
/// verdict itself (THREAT, normally exit 1) is fine.
#[test]
fn corrupted_model_is_rejected_with_exit_4() {
    let out = certified_cli_with_fault("model", "model", &["--property", "obs", "--k", "5"]);
    assert_eq!(
        out.status.code(),
        Some(4),
        "certification failure outranks exit 1"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("certification failed"),
        "stderr must name the failure: {stderr}"
    );
}

/// A panic on the checker thread that replays proofs beside the solver
/// must fail certification and flip the exit code to 4, not hang the run
/// or take it down.
#[test]
fn checker_thread_panic_is_rejected_with_exit_4() {
    let out = certified_cli_with_fault(
        "checker",
        "checker",
        &["--property", "obs", "--k", "0", "--r", "0"],
    );
    assert_eq!(
        out.status.code(),
        Some(4),
        "certification failure outranks exit 0"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("certification failed: proof checker thread panicked"),
        "stderr must name the failure: {stderr}"
    );
}

/// An unrecognised fault name is a usage error, not a silent no-op —
/// a typo in the fault hook must never run an unfaulted "mutation"
/// test that vacuously passes.
#[test]
fn unknown_fault_name_is_a_usage_error() {
    let out = certified_cli_with_fault("badfault", "chaos", &["--property", "obs"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("SCADA_CERTIFY_FAULT"), "stderr: {stderr}");
}

/// A panicking verification job inside a fleet does not corrupt
/// sibling verdicts: rerunning the clean part of the batch afterwards
/// still matches the seed results.
#[test]
fn panicking_verification_job_leaves_siblings_sound() {
    let input = five_bus_case_study();
    let queries: Vec<(Property, ResiliencySpec)> =
        (0..4).map(|k| (OBS, ResiliencySpec::total(k))).collect();
    // Simulate a poisoned job via par_map over the same query list: the
    // job for k == 2 blows up mid-"verification".
    let result = catch_unwind(AssertUnwindSafe(|| {
        par_map(&queries, 2, &Obs::none(), |i, &(p, s), _| {
            if i == 2 {
                panic!("query {i} poisoned");
            }
            Analyzer::new(&input).verify(p, s).is_resilient()
        })
    }));
    assert!(result.is_err(), "fleet must fail loudly, not partially");

    // A clean batch on the same inputs afterwards is unaffected.
    let resilient = par_map(&queries, 2, &Obs::none(), |_, &(p, s), _| {
        Analyzer::new(&input).verify(p, s).is_resilient()
    });
    assert!(resilient[0]);
    assert!(resilient[1]);
    assert!(!resilient[3]);
}
