//! Maximum-resiliency search (Fig 7a of the paper).
//!
//! The largest `k` such that the system is still resilient when `k`
//! devices along the chosen axis fail. Queries reuse one incremental
//! encoding — budgets are assumptions on unary counter outputs, so each
//! step is a new assumption set, not a new model.

use crate::spec::{Property, QueryLimits, ResiliencySpec};
use crate::verify::Analyzer;

/// Which failure dimension to maximize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetAxis {
    /// Only IEDs fail: maximize `k1` in `(k1, 0)`.
    IedsOnly,
    /// Only RTUs fail: maximize `k2` in `(0, k2)`.
    RtusOnly,
    /// Any field devices fail: maximize `k` in total-`k` resiliency.
    Total,
}

impl BudgetAxis {
    pub(crate) fn spec(self, k: usize, r: usize) -> ResiliencySpec {
        match self {
            BudgetAxis::IedsOnly => ResiliencySpec::split(k, 0).with_corrupted(r),
            BudgetAxis::RtusOnly => ResiliencySpec::split(0, k).with_corrupted(r),
            BudgetAxis::Total => ResiliencySpec::total(k).with_corrupted(r),
        }
    }

    /// The largest meaningful budget along this axis: the number of
    /// devices that could possibly fail.
    pub(crate) fn limit(self, input: &crate::input::AnalysisInput) -> usize {
        match self {
            BudgetAxis::IedsOnly => input.topology.ieds().count(),
            BudgetAxis::RtusOnly => input.topology.rtus().count(),
            BudgetAxis::Total => input.field_devices().len(),
        }
    }
}

impl Analyzer<'_> {
    /// The maximum `k` along an axis for which the property is
    /// `k`-resilient, or `None` if it already fails with zero failures.
    ///
    /// `r` is the corrupted-measurement tolerance (only meaningful for
    /// bad-data detectability).
    pub fn max_resiliency(
        &mut self,
        property: Property,
        axis: BudgetAxis,
        r: usize,
    ) -> Option<usize> {
        self.max_resiliency_limited(property, axis, r, &QueryLimits::none())
    }

    /// [`Analyzer::max_resiliency`] under resource limits. A budget
    /// whose query comes back `Unknown` counts as *not proven resilient*
    /// and stops the sweep, so the answer is a sound lower bound on the
    /// true maximum (exact whenever no query was cut short).
    pub fn max_resiliency_limited(
        &mut self,
        property: Property,
        axis: BudgetAxis,
        r: usize,
        limits: &QueryLimits,
    ) -> Option<usize> {
        let limit = axis.limit(self.input());
        let mut max: Option<usize> = None;
        for k in 0..=limit {
            let verdict = self
                .verify_with_report_limited(property, axis.spec(k, r), limits)
                .verdict;
            if verdict.is_resilient() {
                max = Some(k);
            } else {
                break;
            }
        }
        max
    }

    /// The full `(k1, k2)` resiliency frontier: for each IED budget `k1`
    /// from 0 up, the largest `k2` keeping the system resilient (`None`
    /// once no `k2` works). Stops at the first `k1` where even `k2 = 0`
    /// fails.
    ///
    /// Under `limits`, an `Unknown` verdict ends its row like a threat —
    /// each row's `k2` is a sound lower bound on the true frontier.
    pub fn resiliency_frontier(
        &mut self,
        property: Property,
        r: usize,
        limits: &QueryLimits,
    ) -> Vec<(usize, Option<usize>)> {
        let max_ieds = self.input().topology.ieds().count();
        let max_rtus = self.input().topology.rtus().count();
        let mut frontier = Vec::new();
        for k1 in 0..=max_ieds {
            let mut best: Option<usize> = None;
            for k2 in 0..=max_rtus {
                let spec = ResiliencySpec::split(k1, k2).with_corrupted(r);
                if self
                    .verify_with_report_limited(property, spec, limits)
                    .verdict
                    .is_resilient()
                {
                    best = Some(k2);
                } else {
                    break;
                }
            }
            frontier.push((k1, best));
            if best.is_none() {
                break;
            }
        }
        frontier
    }
}
