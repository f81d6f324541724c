//! A minimal worker pool for the parallel verification engine.
//!
//! No external dependencies: scoped `std::thread` workers repeatedly
//! *steal* jobs from a shared injector queue until it runs dry. A
//! [`CancelBound`] provides the monotone early-cancel used by sweep
//! shapes (once some budget `k` is known to fail, all `k' ≥ k` queries
//! are redundant and are skipped, on every worker).
//!
//! The pool is failure-isolated: every job runs under
//! [`std::panic::catch_unwind`] (via [`FleetGuard::run_job`]), a
//! panicking job cancels its in-flight siblings through a shared
//! interrupt flag instead of cascading, and the *first* root-cause panic
//! payload is re-raised once after the fleet drains — so one poisoned
//! query surfaces its original message without taking unrelated workers
//! down with secondary "poisoned mutex" noise.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The first panic payload captured by a fleet.
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// The message of a panic payload (`panic!` with a literal or a
/// formatted string), for reporting a caught panic.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// A shared job queue: workers pull (`steal`) until empty.
pub(crate) struct Injector<T> {
    jobs: Mutex<VecDeque<T>>,
}

impl<T> Injector<T> {
    /// An injector preloaded with `jobs`, dispensed in order.
    pub(crate) fn new(jobs: impl IntoIterator<Item = T>) -> Injector<T> {
        Injector {
            jobs: Mutex::new(jobs.into_iter().collect()),
        }
    }

    /// Takes the next job, or `None` when the queue is exhausted.
    ///
    /// Poison-tolerant: the queue state is a plain `VecDeque`, which a
    /// panicking thread cannot leave half-updated, so a poisoned lock is
    /// safe to keep using. Recovering here keeps surviving workers alive
    /// and lets the fleet report the *original* panic instead of dying
    /// with a misleading "injector poisoned" message.
    pub(crate) fn steal(&self) -> Option<T> {
        self.jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
    }
}

/// A monotonically decreasing `usize` bound shared across workers.
///
/// Sweeps publish the smallest budget known to fail; jobs at or above
/// the bound are redundant and get skipped. Starts unbounded.
pub(crate) struct CancelBound(AtomicUsize);

impl CancelBound {
    /// A bound that cancels nothing.
    pub(crate) fn unbounded() -> CancelBound {
        CancelBound(AtomicUsize::new(usize::MAX))
    }

    /// The current bound (`usize::MAX` when nothing was cancelled).
    pub(crate) fn get(&self) -> usize {
        self.0.load(Ordering::Acquire)
    }

    /// Lowers the bound to `value` if it is below the current bound.
    pub(crate) fn lower_to(&self, value: usize) {
        self.0.fetch_min(value, Ordering::AcqRel);
    }
}

/// Shared failure state of one fleet run: a cooperative cancellation
/// flag plus the first panic payload.
///
/// Workers run each job through [`FleetGuard::run_job`]; the first job
/// that panics records its payload and raises the cancel flag, in-flight
/// sibling solves observe the flag through their query limits and come
/// back `Unknown`, queued jobs are skipped, and after the fleet drains
/// [`FleetGuard::rethrow`] re-raises the recorded root cause.
pub(crate) struct FleetGuard {
    cancel: Arc<AtomicBool>,
    panic: Mutex<Option<PanicPayload>>,
}

impl FleetGuard {
    pub(crate) fn new() -> FleetGuard {
        FleetGuard {
            cancel: Arc::new(AtomicBool::new(false)),
            panic: Mutex::new(None),
        }
    }

    /// The cancellation flag, for threading into solver interrupts.
    pub(crate) fn cancel_flag(&self) -> Arc<AtomicBool> {
        self.cancel.clone()
    }

    /// Whether the fleet has been cancelled (by a panicking job).
    pub(crate) fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Records a panic payload (keeping only the first) and cancels the
    /// fleet's remaining work.
    fn record_panic(&self, payload: PanicPayload) {
        let mut slot = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(payload);
        }
        drop(slot);
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Runs one job, isolating a panic: the payload is recorded, the
    /// fleet is cancelled, and `None` is returned. Jobs after
    /// cancellation are skipped outright.
    pub(crate) fn run_job<R>(&self, job: impl FnOnce() -> R) -> Option<R> {
        if self.cancelled() {
            return None;
        }
        match catch_unwind(AssertUnwindSafe(job)) {
            Ok(result) => Some(result),
            Err(payload) => {
                self.record_panic(payload);
                None
            }
        }
    }

    /// Re-raises the first recorded panic, if any. Call after every
    /// worker has drained — this is what makes a fleet fail with its
    /// root cause instead of deadlocking or dying on secondary effects.
    pub(crate) fn rethrow(&self) {
        let payload = self
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

/// The worker count to use for a requested `jobs`: `0` means "all
/// available parallelism".
pub(crate) fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// Runs `jobs` workers to completion under `guard`. Each worker receives
/// its index; `jobs <= 1` runs inline on the calling thread (the serial
/// baseline pays no spawn overhead). A panic escaping a worker body —
/// e.g. from per-worker setup outside any [`FleetGuard::run_job`] — is
/// caught and recorded rather than cascading through the thread scope.
/// The caller decides when to [`FleetGuard::rethrow`].
pub(crate) fn run_workers_guarded<F>(jobs: usize, guard: &FleetGuard, worker: F)
where
    F: Fn(usize) + Sync,
{
    let isolated = |id: usize| {
        guard.run_job(|| worker(id));
    };
    if jobs <= 1 {
        isolated(0);
        return;
    }
    std::thread::scope(|scope| {
        for id in 0..jobs {
            let isolated = &isolated;
            scope.spawn(move || isolated(id));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Fleet in a box: run workers, re-raise the first panic after the
    /// drain.
    fn run_workers<F>(jobs: usize, worker: F)
    where
        F: Fn(usize) + Sync,
    {
        let guard = FleetGuard::new();
        run_workers_guarded(jobs, &guard, worker);
        guard.rethrow();
    }

    #[test]
    fn injector_dispenses_each_job_once() {
        let injector = Injector::new(0..1000u64);
        let sum = AtomicU64::new(0);
        let count = AtomicUsize::new(0);
        run_workers(8, |_| {
            while let Some(j) = injector.steal() {
                sum.fetch_add(j, Ordering::Relaxed);
                count.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(count.into_inner(), 1000);
        assert_eq!(sum.into_inner(), 999 * 1000 / 2);
    }

    #[test]
    fn injector_recovers_from_poisoning() {
        let injector = Injector::new(0..4u32);
        // Poison the mutex: panic while holding the lock.
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            let _guard = injector.jobs.lock().expect("not yet poisoned");
            panic!("worker died mid-steal");
        }));
        assert!(poisoned.is_err());
        assert!(injector.jobs.lock().is_err(), "mutex should be poisoned");
        // The queue state is a plain VecDeque: stealing keeps working.
        assert_eq!(injector.steal(), Some(0));
        assert_eq!(injector.steal(), Some(1));
    }

    #[test]
    fn cancel_bound_only_decreases() {
        let bound = CancelBound::unbounded();
        assert_eq!(bound.get(), usize::MAX);
        bound.lower_to(10);
        bound.lower_to(20);
        assert_eq!(bound.get(), 10);
        bound.lower_to(3);
        assert_eq!(bound.get(), 3);
    }

    #[test]
    fn single_job_runs_inline() {
        let hits = AtomicUsize::new(0);
        run_workers(1, |id| {
            assert_eq!(id, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.into_inner(), 1);
    }

    #[test]
    fn effective_jobs_resolves_zero() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }

    #[test]
    fn guard_reports_first_panic_and_cancels_siblings() {
        let guard = FleetGuard::new();
        assert_eq!(guard.run_job(|| 7), Some(7));
        assert!(!guard.cancelled());
        assert!(guard.run_job(|| panic!("root cause")).is_none());
        assert!(guard.cancelled());
        // Later panics do not overwrite the first payload …
        assert!(guard.run_job(|| panic!("secondary")).is_none());
        // … and jobs after cancellation are skipped, not run.
        assert_eq!(guard.run_job(|| 9), None);
        let err =
            catch_unwind(AssertUnwindSafe(|| guard.rethrow())).expect_err("rethrow must re-raise");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .expect("payload is the original &str");
        assert_eq!(msg, "root cause");
    }

    #[test]
    fn worker_panic_is_deferred_until_fleet_drains() {
        let completed = AtomicUsize::new(0);
        let injector = Injector::new(0..64usize);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let guard = FleetGuard::new();
            run_workers_guarded(4, &guard, |_| {
                while let Some(j) = injector.steal() {
                    if guard.cancelled() {
                        break;
                    }
                    guard.run_job(|| {
                        if j == 3 {
                            panic!("job {j} exploded");
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            guard.rethrow();
        }));
        let err = result.expect_err("fleet must re-raise the job panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("payload is the formatted message");
        assert_eq!(msg, "job 3 exploded");
        // Independent sibling jobs either completed or were cleanly
        // skipped after cancellation — but nothing deadlocked and the
        // queue is fully drained or abandoned.
        assert!(completed.load(Ordering::Relaxed) < 64);
    }
}
