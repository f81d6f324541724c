//! The parallel verification engine.
//!
//! The sweeps this analyzer runs — batches of independent queries,
//! maximum-resiliency searches, `(k1, k2)` frontiers — decompose into
//! per-query subproblems that share no solver state, exactly the
//! decomposition Hendrickx et al. and Sou et al. exploit to make
//! security-index computations tractable at IEEE-118 scale: *the
//! decomposition is the parallelism*.
//!
//! Each worker owns its own [`Analyzer`] (the encoder and solver are
//! single-threaded, `&mut`-stateful structures and are never shared);
//! jobs are distributed work-stealing-style over a shared injector
//! queue (`crate::pool`), and results are returned in deterministic
//! input order regardless of scheduling. Sweep shapes early-cancel:
//! once some budget `k` is known non-resilient, all queries at `k' ≥ k`
//! are redundant and are skipped on every worker.
//!
//! **Determinism.** [`verify_batch`] solves every query on a fresh
//! per-query model, so verdicts — including the exhibited threat
//! vectors — are a pure function of `(input, property, spec)` and are
//! bit-identical across `jobs = 1` and `jobs = N`. The sweep searches
//! reuse one analyzer per worker (budgets are assumptions on the
//! incremental encoding); their `Option<usize>` answers are semantic
//! (sat/unsat) and therefore scheduling-independent too.
//!
//! **Failure isolation.** Every job runs under `catch_unwind`: a
//! panicking query records its payload, raises the fleet's interrupt
//! flag (cancelling in-flight sibling solves — they come back
//! `Unknown`, which is discarded with the fleet), and the original
//! panic is re-raised on the calling thread once every worker has
//! drained. One poisoned query never deadlocks the fleet or masks its
//! own root cause behind secondary "poisoned mutex" panics.
//!
//! **One context.** Every entry point takes a [`QueryContext`]: its
//! [`QueryLimits`] bound every query, its [`Obs`] receives fleet and
//! query events, and its [`crate::CertifyOptions`] make every worker's
//! analyzer certify into one shared log. The default context is plain,
//! unlimited behaviour.
//!
//! **Degradation.** In sweeps, an `Unknown` verdict is conservatively
//! treated as *not proven resilient*, so bounded sweep answers are sound
//! lower bounds on the true resiliency (see DESIGN.md, "Degradation
//! semantics").
//!
//! # Examples
//!
//! ```
//! use scada_analyzer::casestudy::five_bus_case_study;
//! use scada_analyzer::parallel::verify_batch;
//! use scada_analyzer::{Property, QueryContext, ResiliencySpec};
//!
//! let input = five_bus_case_study();
//! let queries: Vec<_> = (0..3)
//!     .map(|k| (Property::Observability, ResiliencySpec::total(k)))
//!     .collect();
//! let reports = verify_batch(&input, &queries, 2, &QueryContext::default());
//! assert_eq!(reports.len(), 3);
//! assert!(reports[0].verdict.is_resilient());
//! ```

use std::sync::atomic::AtomicBool;
use std::sync::mpsc;
use std::sync::Arc;

use crate::input::AnalysisInput;
use crate::maxres::BudgetAxis;
use crate::obs::{Obs, TraceEvent};
use crate::pool::{effective_jobs, run_workers_guarded, CancelBound, FleetGuard, Injector};
use crate::spec::{Property, QueryContext, QueryLimits, ResiliencySpec};
use crate::verify::{Analyzer, VerificationReport};

/// Applies `f` to every item on `jobs` workers, returning results in
/// input order. `jobs = 0` uses all available parallelism; `jobs = 1`
/// runs inline (the serial baseline). No more workers start than there
/// are items, whatever `jobs` asks for.
///
/// `f` also receives the fleet's shared cancellation flag, for
/// threading into [`QueryLimits::with_interrupt`] so that a panic in
/// one job interrupts sibling solves *in flight* instead of merely
/// skipping queued ones. Each worker reports its jobs run through `obs`
/// when it drains, and an observed fleet cancellation is traced;
/// per-query events are the closure's business (thread an [`Obs`] into
/// the analyzers it builds).
///
/// This is the generic fan-out primitive under [`verify_batch`]; the
/// bench harness reuses it to spread whole workloads across cores.
///
/// # Panics
///
/// A panicking call is isolated: siblings finish (or are skipped), then
/// the first panic is re-raised here with its original payload, after
/// the whole fleet has drained. (With a panicking job the fleet is
/// cancelled, so some results never materialize; they are discarded
/// along with the fleet.)
pub fn par_map<T, R, F>(items: &[T], jobs: usize, obs: &Obs, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T, &Arc<AtomicBool>) -> R + Sync,
{
    let jobs = effective_jobs(jobs).min(items.len().max(1));
    let injector = Injector::new(0..items.len());
    let guard = FleetGuard::new();
    let cancel = guard.cancel_flag();
    let (sender, receiver) = mpsc::channel::<(usize, R)>();
    run_workers_guarded(jobs, &guard, |worker| {
        let sender = sender.clone();
        let mut ran: u64 = 0;
        while let Some(index) = injector.steal() {
            if guard.cancelled() {
                obs.trace(|| TraceEvent::Interrupted { worker });
                break;
            }
            if let Some(result) = guard.run_job(|| f(index, &items[index], &cancel)) {
                ran += 1;
                sender
                    .send((index, result))
                    .expect("result receiver dropped");
            }
        }
        obs.trace(|| TraceEvent::WorkerDone {
            worker,
            ran,
            skipped: 0,
        });
        obs.count("fleet_jobs", ran);
    });
    drop(sender);
    guard.rethrow();
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (index, result) in receiver {
        debug_assert!(slots[index].is_none(), "job {index} ran twice");
        slots[index] = Some(result);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("missing result slot"))
        .collect()
}

/// Per-query limits for one fleet: the caller's limits, plus the fleet's
/// cancellation flag as interrupt when the caller did not install one of
/// their own.
fn fleet_limits(limits: &QueryLimits, cancel: &Arc<AtomicBool>) -> QueryLimits {
    let per_query = limits.clone();
    if limits.has_interrupt() {
        per_query
    } else {
        per_query.with_interrupt(cancel.clone())
    }
}

/// Verifies a batch of independent queries against one input across
/// `jobs` workers, returning reports in input order.
///
/// Every query is solved on a fresh model, so the reports (verdicts
/// *and* threat vectors) are identical to running each query serially
/// from scratch — only the wall-clock changes with `jobs`.
///
/// Each query gets its own copy of `ctx.limits` (deadline, conflict
/// budget, retry policy), and — unless the caller installed an
/// interrupt flag of their own — the fleet's cancellation flag, so a
/// panicking sibling cancels in-flight solves. Queries stopped by a
/// limit report [`crate::Verdict::Unknown`]; the rest of the batch is
/// unaffected. Fleet events and per-worker drain reports flow through
/// `ctx.obs`, and every per-query analyzer carries it too. With
/// `ctx.certify` enabled every worker's analyzer independently
/// re-checks its verdicts (see [`crate::certify`]); the certificates
/// land on the returned reports and in the one shared `certify.log`.
pub fn verify_batch(
    input: &AnalysisInput,
    queries: &[(Property, ResiliencySpec)],
    jobs: usize,
    ctx: &QueryContext,
) -> Vec<VerificationReport> {
    let QueryContext {
        limits,
        obs,
        certify,
    } = ctx;
    obs.trace(|| TraceEvent::FleetStart {
        label: "verify_batch",
        jobs: effective_jobs(jobs),
        items: queries.len(),
    });
    par_map(queries, jobs, obs, |_, &(property, spec), cancel| {
        let per_query = fleet_limits(limits, cancel);
        Analyzer::with_options(input, obs.clone(), certify.clone())
            .verify_with_report_limited(property, spec, &per_query)
    })
}

/// Parallel [`Analyzer::max_resiliency`]: the maximum `k` along `axis`
/// for which the property is `k`-resilient, or `None` if it already
/// fails at `k = 0`.
///
/// All budgets `0..=limit` go into the injector; a worker that proves
/// some `k` non-resilient lowers the shared cancel bound so every
/// pending query at `k' ≥ k` is skipped. The answer equals the serial
/// scan's for *any* property behaviour (not only monotone ones): it is
/// one below the smallest non-resilient budget, with every smaller
/// budget actually verified resilient.
///
/// Under `ctx.limits`, a budget whose query comes back `Unknown` counts
/// as *not proven resilient* — it stops the sweep exactly like a threat
/// — so the answer is a sound lower bound on the true maximum
/// resiliency (and equals it whenever no query was cut short). Fleet
/// events and cancel-bound cuts flow through `ctx.obs`; every worker's
/// analyzer certifies into `ctx.certify.log` when enabled.
pub fn par_max_resiliency(
    input: &AnalysisInput,
    property: Property,
    axis: BudgetAxis,
    r: usize,
    jobs: usize,
    ctx: &QueryContext,
) -> Option<usize> {
    let QueryContext {
        limits,
        obs,
        certify,
    } = ctx;
    let jobs = effective_jobs(jobs);
    let limit = axis.limit(input);
    obs.trace(|| TraceEvent::FleetStart {
        label: "max_resiliency",
        jobs,
        items: limit + 1,
    });
    let injector = Injector::new(0..=limit);
    let bound = CancelBound::unbounded();
    let guard = FleetGuard::new();
    let cancel = guard.cancel_flag();
    run_workers_guarded(jobs, &guard, |worker| {
        let mut analyzer = Analyzer::with_options(input, obs.clone(), certify.clone());
        let mut ran: u64 = 0;
        let mut skipped: u64 = 0;
        while let Some(k) = injector.steal() {
            if guard.cancelled() {
                obs.trace(|| TraceEvent::Interrupted { worker });
                break;
            }
            if k >= bound.get() {
                skipped += 1;
                continue;
            }
            let per_query = fleet_limits(limits, &cancel);
            let Some(verdict) = guard.run_job(|| {
                analyzer
                    .verify_with_report_limited(property, axis.spec(k, r), &per_query)
                    .verdict
            }) else {
                // This worker's analyzer may be mid-query after a panic;
                // stop using it. The fleet is cancelled either way.
                break;
            };
            ran += 1;
            if !verdict.is_resilient() {
                bound.lower_to(k);
                obs.trace(|| TraceEvent::CancelCut { worker, bound: k });
                obs.count("cancel_cuts", 1);
            }
        }
        obs.trace(|| TraceEvent::WorkerDone {
            worker,
            ran,
            skipped,
        });
        obs.count("fleet_jobs", ran);
        obs.count("fleet_skipped", skipped);
    });
    guard.rethrow();
    match bound.get() {
        0 => None,
        usize::MAX => Some(limit),
        first_failing => Some(first_failing - 1),
    }
}

/// Parallel [`Analyzer::resiliency_frontier`]: for each IED budget `k1`
/// from 0 up, the largest RTU budget `k2` keeping the system resilient
/// (`None` once no `k2` works), ending at the first `k1` whose row has
/// no resilient `k2` — byte-for-byte the serial frontier.
///
/// Rows are the unit of work: each worker sweeps whole `k1` rows with
/// its own incremental analyzer, and the first row proven hopeless
/// (`best = None`) early-cancels all higher rows.
///
/// Under `ctx.limits`, an `Unknown` verdict ends its row like a threat
/// (the reported `k2` is a sound lower bound); a row whose `k2 = 0`
/// query is `Unknown` counts as hopeless and ends the frontier. Fleet
/// events and cutoff cuts flow through `ctx.obs`; every worker's
/// analyzer certifies into `ctx.certify.log` when enabled.
pub fn par_resiliency_frontier(
    input: &AnalysisInput,
    property: Property,
    r: usize,
    jobs: usize,
    ctx: &QueryContext,
) -> Vec<(usize, Option<usize>)> {
    let QueryContext {
        limits,
        obs,
        certify,
    } = ctx;
    let jobs = effective_jobs(jobs);
    let max_ieds = input.topology.ieds().count();
    let max_rtus = input.topology.rtus().count();
    obs.trace(|| TraceEvent::FleetStart {
        label: "resiliency_frontier",
        jobs,
        items: max_ieds + 1,
    });
    let injector = Injector::new(0..=max_ieds);
    // The smallest k1 whose row came out all-threat; rows above it are
    // outside the serial output and need not be computed.
    let cutoff = CancelBound::unbounded();
    let guard = FleetGuard::new();
    let cancel = guard.cancel_flag();
    let (sender, receiver) = mpsc::channel::<(usize, Option<usize>)>();
    run_workers_guarded(jobs, &guard, |worker| {
        let sender = sender.clone();
        let mut analyzer = Analyzer::with_options(input, obs.clone(), certify.clone());
        let mut ran: u64 = 0;
        let mut skipped: u64 = 0;
        while let Some(k1) = injector.steal() {
            if guard.cancelled() {
                obs.trace(|| TraceEvent::Interrupted { worker });
                break;
            }
            if k1 > cutoff.get() {
                skipped += 1;
                continue;
            }
            let row = guard.run_job(|| {
                let mut best: Option<usize> = None;
                for k2 in 0..=max_rtus {
                    let spec = ResiliencySpec::split(k1, k2).with_corrupted(r);
                    let per_query = fleet_limits(limits, &cancel);
                    if analyzer
                        .verify_with_report_limited(property, spec, &per_query)
                        .verdict
                        .is_resilient()
                    {
                        best = Some(k2);
                    } else {
                        break;
                    }
                }
                best
            });
            let Some(best) = row else { break };
            ran += 1;
            if best.is_none() {
                cutoff.lower_to(k1);
                obs.trace(|| TraceEvent::CancelCut { worker, bound: k1 });
                obs.count("cancel_cuts", 1);
            }
            sender.send((k1, best)).expect("frontier receiver dropped");
        }
        obs.trace(|| TraceEvent::WorkerDone {
            worker,
            ran,
            skipped,
        });
        obs.count("fleet_jobs", ran);
        obs.count("fleet_skipped", skipped);
    });
    drop(sender);
    guard.rethrow();
    let mut rows: Vec<Option<Option<usize>>> = vec![None; max_ieds + 1];
    for (k1, best) in receiver {
        rows[k1] = Some(best);
    }
    // Keep rows up to and including the first all-threat one, exactly
    // like the serial loop's early exit.
    let end = cutoff.get().min(max_ieds);
    (0..=end)
        .map(|k1| (k1, rows[k1].expect("row below cutoff not computed")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::casestudy::five_bus_case_study;

    fn all_queries() -> Vec<(Property, ResiliencySpec)> {
        let mut queries = Vec::new();
        for property in [
            Property::Observability,
            Property::SecuredObservability,
            Property::BadDataDetectability,
        ] {
            for k in 0..4 {
                queries.push((property, ResiliencySpec::total(k)));
            }
            for (k1, k2) in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)] {
                queries.push((property, ResiliencySpec::split(k1, k2)));
            }
        }
        queries
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        for jobs in [1, 2, 8] {
            let doubled = par_map(&items, jobs, &Obs::none(), |i, &x, _| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    /// A `jobs` larger than the item count starts one worker per item,
    /// not `jobs` threads.
    #[test]
    fn par_map_starts_no_more_workers_than_items() {
        let items = [1, 2, 3];
        let sink = Arc::new(crate::obs::BufferSink::new());
        let obs = Obs::none().with_tracer(sink.clone());
        assert_eq!(par_map(&items, 64, &obs, |_, &x, _| x), items);
        let workers = sink
            .lines()
            .iter()
            .filter(|line| line.contains("\"worker_done\""))
            .count();
        assert_eq!(workers, items.len());
    }

    #[test]
    fn batch_matches_serial_verdicts_in_order() {
        let input = five_bus_case_study();
        let queries = all_queries();
        let serial: Vec<_> = queries
            .iter()
            .map(|&(p, s)| Analyzer::new(&input).verify_with_report(p, s))
            .collect();
        for jobs in [1, 2, 8] {
            let parallel = verify_batch(&input, &queries, jobs, &QueryContext::default());
            assert_eq!(parallel.len(), serial.len());
            for (p, s) in parallel.iter().zip(&serial) {
                assert_eq!(p.property, s.property);
                assert_eq!(p.spec, s.spec);
                assert_eq!(p.verdict, s.verdict, "jobs-dependent verdict at {}", p.spec);
            }
        }
    }

    #[test]
    fn max_resiliency_matches_serial_on_every_axis() {
        let input = five_bus_case_study();
        for property in [Property::Observability, Property::SecuredObservability] {
            for axis in [
                BudgetAxis::IedsOnly,
                BudgetAxis::RtusOnly,
                BudgetAxis::Total,
            ] {
                let serial = Analyzer::new(&input).max_resiliency(property, axis, 1);
                for jobs in [1, 2, 8] {
                    assert_eq!(
                        par_max_resiliency(
                            &input,
                            property,
                            axis,
                            1,
                            jobs,
                            &QueryContext::default()
                        ),
                        serial,
                        "{property} along {axis:?} with jobs={jobs}"
                    );
                }
            }
        }
    }

    #[test]
    fn frontier_matches_serial() {
        let input = five_bus_case_study();
        for property in [Property::Observability, Property::SecuredObservability] {
            let serial =
                Analyzer::new(&input).resiliency_frontier(property, 1, &QueryLimits::none());
            for jobs in [1, 2, 8] {
                assert_eq!(
                    par_resiliency_frontier(&input, property, 1, jobs, &QueryContext::default()),
                    serial,
                    "{property} with jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn zero_jobs_means_available_parallelism() {
        let input = five_bus_case_study();
        let queries = [(Property::Observability, ResiliencySpec::total(1))];
        let reports = verify_batch(&input, &queries, 0, &QueryContext::default());
        assert!(reports[0].verdict.is_resilient());
    }
}
