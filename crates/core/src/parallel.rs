//! The parallel verification engine.
//!
//! The sweeps this analyzer runs — maximum-resiliency searches, whole
//! fleets of independent workloads — decompose into per-query
//! subproblems that share no solver state, exactly the decomposition
//! Hendrickx et al. and Sou et al. exploit to make security-index
//! computations tractable at IEEE-118 scale: *the decomposition is the
//! parallelism*.
//!
//! Each worker owns its own [`Analyzer`] (the encoder and solver are
//! single-threaded, `&mut`-stateful structures and are never shared);
//! jobs are distributed work-stealing-style over a shared injector
//! queue (`crate::pool`), and results are returned in deterministic
//! input order regardless of scheduling. Sweep shapes early-cancel:
//! once some budget `k` is known non-resilient, all queries at `k' ≥ k`
//! are redundant and are skipped on every worker.
//!
//! **Determinism.** [`par_map`] returns results in input order, so a
//! closure that is a pure function of its item gives the same vector
//! for every `jobs`. [`par_max_resiliency`] reuses one analyzer per
//! worker (budgets are assumptions on the incremental encoding); its
//! `Option<usize>` answer is semantic (sat/unsat) and therefore
//! scheduling-independent too.
//!
//! **Failure isolation.** Every job runs under `catch_unwind`: a
//! panicking query records its payload, raises the fleet's interrupt
//! flag (cancelling in-flight sibling solves — they come back
//! `Unknown`, which is discarded with the fleet), and the original
//! panic is re-raised on the calling thread once every worker has
//! drained. One poisoned query never deadlocks the fleet or masks its
//! own root cause behind secondary "poisoned mutex" panics.
//!
//! **One context.** [`par_max_resiliency`] takes a [`QueryContext`]:
//! its [`QueryLimits`] bound every query, its [`Obs`] receives fleet
//! and query events, and its [`crate::CertifyOptions`] make every
//! worker's analyzer certify into one shared log. The default context
//! is plain, unlimited behaviour.
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
//! use scada_analyzer::parallel::par_max_resiliency;
//! use scada_analyzer::{BudgetAxis, Property, QueryContext};
//!
//! let input = five_bus_case_study();
//! let ctx = QueryContext::default();
//! let max = par_max_resiliency(&input, Property::Observability, BudgetAxis::IedsOnly, 1, 2, &ctx);
//! assert_eq!(max, Some(3), "the case study tolerates three IED failures");
//! ```

use std::sync::atomic::AtomicBool;
use std::sync::mpsc;
use std::sync::Arc;

use crate::input::AnalysisInput;
use crate::maxres::BudgetAxis;
use crate::obs::{Obs, TraceEvent};
use crate::pool::{effective_jobs, run_workers_guarded, CancelBound, FleetGuard, Injector};
use crate::spec::{Property, QueryContext, QueryLimits};
use crate::verify::Analyzer;

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
/// This is the generic fan-out primitive: the fleet audit spreads
/// configs and clusters with it, and the bench harness whole workloads.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::casestudy::five_bus_case_study;

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
    fn zero_jobs_means_available_parallelism() {
        let input = five_bus_case_study();
        let ctx = QueryContext::default();
        let max = par_max_resiliency(
            &input,
            Property::Observability,
            BudgetAxis::Total,
            1,
            0,
            &ctx,
        );
        assert_eq!(
            max,
            Analyzer::new(&input).max_resiliency(Property::Observability, BudgetAxis::Total, 1)
        );
    }
}
