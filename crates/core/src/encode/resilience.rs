//! Failure budgets (the `k` / `(k1, k2)` constraints of §III-C).
//!
//! Device unavailability counts are unary counters over the negated
//! availability literals. Budgets are imposed as *assumptions* on the
//! counter outputs rather than asserted clauses, so one encoding answers
//! queries at every `k` — this is what makes the maximum-resiliency
//! search (Fig 7a) and threat-space sweeps (Fig 7b) incremental.
//!
//! A budget `k` only reads the output `Σ ≥ k+1`, so each counter is a
//! k-simplified totalizer capped at [`COUNTER_CAP`] outputs, and grows
//! (cap doubled) when a query's budget reads past the cap. The old
//! counter's clauses stay in the solver: they only define its own
//! auxiliary variables, so they are a conservative extension that no
//! later assumption mentions.

use boolexpr::UnaryCounter;
use satcore::{Lit, Solver};
use scadasim::DeviceId;

use crate::spec::FailureBudget;

/// Outputs a failure counter starts with: every served budget is at
/// most 3, so `Σ ≥ k+1` stays under the cap without a rebuild.
const COUNTER_CAP: usize = 8;

/// A capped unary counter over a fixed input set that rebuilds itself
/// with a doubled cap when a bound reads past the cap.
#[derive(Debug)]
pub(crate) struct GrowingCounter {
    inputs: Vec<Lit>,
    cap: usize,
    counter: UnaryCounter,
}

impl GrowingCounter {
    pub(crate) fn new(solver: &mut Solver, inputs: Vec<Lit>) -> GrowingCounter {
        let counter = UnaryCounter::build_capped(solver, &inputs, COUNTER_CAP);
        GrowingCounter {
            inputs,
            cap: COUNTER_CAP,
            counter,
        }
    }

    /// Rebuilds over a new input set, keeping the largest cap reached.
    pub(crate) fn rebuild(&mut self, solver: &mut Solver, inputs: Vec<Lit>) {
        self.counter = UnaryCounter::build_capped(solver, &inputs, self.cap);
        self.inputs = inputs;
    }

    /// Literal equivalent to `Σ ≤ k`, or `None` when the bound is
    /// trivially true. Grows the counter first if `Σ ≥ k+1` is past the
    /// cap.
    pub(crate) fn leq_lit(&mut self, solver: &mut Solver, k: usize) -> Option<Lit> {
        let need = k.saturating_add(1);
        if !self.counter.covers(need) {
            while self.cap < need.min(self.inputs.len()) {
                self.cap = self.cap.saturating_mul(2);
            }
            self.counter = UnaryCounter::build_capped(solver, &self.inputs, self.cap);
        }
        self.counter.leq_lit(k)
    }
}

/// Unary failure counters over the field devices.
#[derive(Debug)]
pub(crate) struct FailureCounters {
    pub ieds: Vec<DeviceId>,
    pub rtus: Vec<DeviceId>,
    ied_counter: GrowingCounter,
    rtu_counter: GrowingCounter,
    total_counter: GrowingCounter,
}

/// `¬Node_i` for IEDs, RTUs, and their union.
fn failure_lits(node: &[Lit], ieds: &[DeviceId], rtus: &[DeviceId]) -> [Vec<Lit>; 3] {
    let ied_fail: Vec<Lit> = ieds.iter().map(|d| !node[d.index()]).collect();
    let rtu_fail: Vec<Lit> = rtus.iter().map(|d| !node[d.index()]).collect();
    let all_fail: Vec<Lit> = ied_fail.iter().chain(rtu_fail.iter()).copied().collect();
    [ied_fail, rtu_fail, all_fail]
}

impl FailureCounters {
    /// Builds counters over `¬Node_i` for IEDs, RTUs, and their union.
    pub(crate) fn build(
        solver: &mut Solver,
        node: &[Lit],
        ieds: Vec<DeviceId>,
        rtus: Vec<DeviceId>,
    ) -> FailureCounters {
        let [ied_fail, rtu_fail, all_fail] = failure_lits(node, &ieds, &rtus);
        FailureCounters {
            ieds,
            rtus,
            ied_counter: GrowingCounter::new(solver, ied_fail),
            rtu_counter: GrowingCounter::new(solver, rtu_fail),
            total_counter: GrowingCounter::new(solver, all_fail),
        }
    }

    /// Rebuilds the counters over a moved budget population, keeping
    /// each counter's grown cap.
    pub(crate) fn rebuild(
        &mut self,
        solver: &mut Solver,
        node: &[Lit],
        ieds: Vec<DeviceId>,
        rtus: Vec<DeviceId>,
    ) {
        let [ied_fail, rtu_fail, all_fail] = failure_lits(node, &ieds, &rtus);
        self.ied_counter.rebuild(solver, ied_fail);
        self.rtu_counter.rebuild(solver, rtu_fail);
        self.total_counter.rebuild(solver, all_fail);
        self.ieds = ieds;
        self.rtus = rtus;
    }

    /// Assumption literals imposing the budget (empty entries for
    /// trivially satisfied bounds), growing a counter the budget reads
    /// past.
    pub(crate) fn assumptions(&mut self, solver: &mut Solver, budget: FailureBudget) -> Vec<Lit> {
        let bounds = match budget {
            FailureBudget::Total(k) => vec![self.total_counter.leq_lit(solver, k)],
            FailureBudget::Split { ieds, rtus } => vec![
                self.ied_counter.leq_lit(solver, ieds),
                self.rtu_counter.leq_lit(solver, rtus),
            ],
        };
        bounds.into_iter().flatten().collect()
    }
}
