//! Reference semantics by direct evaluation.
//!
//! [`DirectEvaluator`] computes delivery, secured delivery, and the three
//! properties for a concrete failure set by walking precomputed paths —
//! no SAT involved. It serves three purposes: minimizing threat vectors
//! returned by the solver, cross-validating the SAT pipeline
//! (property-tested in `tests/cross_validation.rs`), and providing an
//! exhaustive baseline ([`DirectEvaluator::find_threat_exhaustive`])
//! whose cost the benchmarks compare against the SAT encoding.
//!
//! The precomputed paths are the model's path table, the one the SAT
//! encoder reads: an [`crate::Analyzer`] enumerates it once per model
//! version and shares it. The path sets are not what the cross-check
//! tests: separate copies would come from the same `scadasim::paths`
//! functions. What stays independent is everything built on them:
//! this module evaluates delivery, observability and detectability
//! directly for one failure set, while the encoder turns the same paths
//! into Tseitin definitions, counters and a solver search.

use std::collections::HashSet;
use std::sync::{Arc, LazyLock};

use powergrid::observability::boolean_observability;
use scadasim::DeviceId;

use crate::encode::paths::{enumerate_paths, PathTable, PathWithLinks};
use crate::input::AnalysisInput;
use crate::spec::{FailureBudget, Property, ResiliencySpec};
use crate::threat::ThreatVector;

/// Direct (non-symbolic) evaluator for the three resiliency properties.
///
/// Holds a shared snapshot of its input (an [`crate::Analyzer`] shares
/// its own): a warm session that patches its model in place
/// ([`crate::Analyzer::apply_patch`]) swaps in a fresh evaluator without
/// invalidating borrows held elsewhere.
#[derive(Debug)]
pub struct DirectEvaluator {
    input: Arc<AnalysisInput>,
    /// The model's path table: assured and secured paths per device
    /// index (empty for non-IEDs).
    paths: PathTable,
    /// Recording IED per measurement.
    recorded_by: Vec<Option<DeviceId>>,
}

/// An empty link-failure set, for the device-only entry points.
static NO_LINKS: LazyLock<HashSet<usize>> = LazyLock::new(HashSet::new);

impl DirectEvaluator {
    /// Enumerates the paths of every IED (cloning the input).
    pub fn new(input: &AnalysisInput) -> DirectEvaluator {
        DirectEvaluator::with_paths(Arc::new(input.clone()), enumerate_paths(input))
    }

    /// Builds the evaluator over `input`'s already enumerated path table.
    pub(crate) fn with_paths(input: Arc<AnalysisInput>, paths: PathTable) -> DirectEvaluator {
        DirectEvaluator {
            recorded_by: input.recorded_by(),
            input,
            paths,
        }
    }

    /// The evaluator's path table.
    pub(crate) fn paths(&self) -> &PathTable {
        &self.paths
    }

    /// Whether two evaluators walk the same forwarding paths: equal
    /// assured and secured path sets, devices and links in order, for
    /// every device. A warm [`crate::Analyzer`]'s evaluator walks the
    /// same paths as `DirectEvaluator::new` on its current input.
    pub fn same_paths(&self, other: &DirectEvaluator) -> bool {
        self.paths == other.paths
    }

    /// Whether some path survives the failure sets.
    fn any_alive(
        paths: &[PathWithLinks],
        failed: &HashSet<DeviceId>,
        failed_links: &HashSet<usize>,
    ) -> bool {
        paths.iter().any(|(path, links)| {
            path.iter().all(|d| !failed.contains(d))
                && links.iter().all(|li| !failed_links.contains(li))
        })
    }

    /// The paper's `AssuredDelivery_I` for a concrete failure set.
    pub fn assured_delivery(&self, ied: DeviceId, failed: &HashSet<DeviceId>) -> bool {
        self.assured_delivery_full(ied, failed, &NO_LINKS)
    }

    /// Assured delivery under device *and* link failures.
    pub fn assured_delivery_full(
        &self,
        ied: DeviceId,
        failed: &HashSet<DeviceId>,
        failed_links: &HashSet<usize>,
    ) -> bool {
        Self::any_alive(&self.paths[ied.index()].all, failed, failed_links)
    }

    /// The paper's `SecuredDelivery_I`.
    pub fn secured_delivery(&self, ied: DeviceId, failed: &HashSet<DeviceId>) -> bool {
        self.secured_delivery_full(ied, failed, &NO_LINKS)
    }

    /// Secured delivery under device *and* link failures.
    pub fn secured_delivery_full(
        &self,
        ied: DeviceId,
        failed: &HashSet<DeviceId>,
        failed_links: &HashSet<usize>,
    ) -> bool {
        Self::any_alive(&self.paths[ied.index()].secured, failed, failed_links)
    }

    /// Delivery flags per measurement (`D_Z`).
    pub fn delivered(&self, failed: &HashSet<DeviceId>) -> Vec<bool> {
        self.flags(failed, &NO_LINKS, false)
    }

    /// Secured flags per measurement (`S_Z`).
    pub fn secured(&self, failed: &HashSet<DeviceId>) -> Vec<bool> {
        self.flags(failed, &NO_LINKS, true)
    }

    fn flags(
        &self,
        failed: &HashSet<DeviceId>,
        failed_links: &HashSet<usize>,
        secured: bool,
    ) -> Vec<bool> {
        let mut delivery_of_ied = vec![false; self.input.topology.num_devices()];
        for ied in self.input.topology.ieds() {
            delivery_of_ied[ied.id().index()] = if secured {
                self.secured_delivery_full(ied.id(), failed, failed_links)
            } else {
                self.assured_delivery_full(ied.id(), failed, failed_links)
            };
        }
        self.recorded_by
            .iter()
            .map(|by| by.is_some_and(|ied| delivery_of_ied[ied.index()]))
            .collect()
    }

    /// Whether the property *holds* under the failure set.
    pub fn holds(&self, property: Property, r: usize, failed: &HashSet<DeviceId>) -> bool {
        self.holds_full(property, r, failed, &NO_LINKS)
    }

    /// Whether the property holds under device *and* link failures.
    pub fn holds_full(
        &self,
        property: Property,
        r: usize,
        failed: &HashSet<DeviceId>,
        failed_links: &HashSet<usize>,
    ) -> bool {
        match property {
            Property::Observability | Property::SecuredObservability => {
                let secured = property == Property::SecuredObservability;
                let flags = self.flags(failed, failed_links, secured);
                boolean_observability(&self.input.measurements, &flags).observable
            }
            Property::BadDataDetectability => {
                let secured = self.flags(failed, failed_links, true);
                let ms = &self.input.measurements;
                (0..ms.num_states()).all(|x| {
                    let count = ms
                        .ids()
                        .filter(|&z| secured[z.index()] && ms.state_set(z).contains(&x))
                        .count();
                    count > r
                })
            }
        }
    }

    /// Whether the failure set *violates* the property.
    pub fn violates(&self, property: Property, r: usize, failed: &HashSet<DeviceId>) -> bool {
        !self.holds(property, r, failed)
    }

    /// Whether device and link failures together violate the property.
    pub fn violates_full(
        &self,
        property: Property,
        r: usize,
        failed: &HashSet<DeviceId>,
        failed_links: &HashSet<usize>,
    ) -> bool {
        !self.holds_full(property, r, failed, failed_links)
    }

    /// Shrinks a violating failure set to a minimal one (removing any
    /// device stops the violation). Deterministic: devices are retried in
    /// ascending id order.
    pub fn minimize(
        &self,
        property: Property,
        r: usize,
        failed: &HashSet<DeviceId>,
    ) -> ThreatVector {
        self.minimize_full(property, r, failed, &NO_LINKS)
    }

    /// Shrinks a violating device+link failure set to a minimal one.
    pub fn minimize_full(
        &self,
        property: Property,
        r: usize,
        failed: &HashSet<DeviceId>,
        failed_links: &HashSet<usize>,
    ) -> ThreatVector {
        debug_assert!(self.violates_full(property, r, failed, failed_links));
        let mut devices: Vec<DeviceId> = failed.iter().copied().collect();
        devices.sort();
        let mut links: Vec<usize> = failed_links.iter().copied().collect();
        links.sort_unstable();
        // Drop gratuitous devices first, then gratuitous links.
        let mut i = 0;
        while i < devices.len() {
            let without: HashSet<DeviceId> = devices
                .iter()
                .copied()
                .filter(|&d| d != devices[i])
                .collect();
            if self.violates_full(property, r, &without, failed_links) {
                devices.remove(i);
            } else {
                i += 1;
            }
        }
        let dset: HashSet<DeviceId> = devices.iter().copied().collect();
        let mut i = 0;
        while i < links.len() {
            let without: HashSet<usize> =
                links.iter().copied().filter(|&l| l != links[i]).collect();
            if self.violates_full(property, r, &dset, &without) {
                links.remove(i);
            } else {
                i += 1;
            }
        }
        ThreatVector::from_failed_with_links(&self.input.topology, devices, links)
    }

    /// Exhaustively searches for a threat vector within the budget
    /// (baseline for benchmarks; exponential in the budget). Subsets are
    /// tried by increasing size, each size in lexicographic order over
    /// IEDs then RTUs, so the first hit is cardinality-minimal.
    pub fn find_threat_exhaustive(
        &self,
        property: Property,
        spec: ResiliencySpec,
    ) -> Option<ThreatVector> {
        let topology = &self.input.topology;
        let n_ieds = topology.ieds().count();
        let all: Vec<DeviceId> = topology
            .ieds()
            .chain(topology.rtus())
            .map(|d| d.id())
            .collect();
        let n = all.len();
        let (max_ied, max_rtu, max_total) = match spec.budget {
            FailureBudget::Split { ieds: a, rtus: b } => (a, b, a + b),
            FailureBudget::Total(k) => (k, k, k),
        };
        for size in 0..=max_total.min(n) {
            // Indices into `all` of the current subset, ascending.
            let mut subset: Vec<usize> = (0..size).collect();
            loop {
                let in_ieds = subset.iter().filter(|&&i| i < n_ieds).count();
                if in_ieds <= max_ied && size - in_ieds <= max_rtu {
                    let failed: HashSet<DeviceId> = subset.iter().map(|&i| all[i]).collect();
                    if self.violates(property, spec.corrupted, &failed) {
                        return Some(ThreatVector::from_failed(topology, failed));
                    }
                }
                // Advance to the next subset: bump the last index that
                // can still move and reset the ones after it.
                let Some(p) = (0..size).rev().find(|&p| subset[p] < n - size + p) else {
                    break;
                };
                subset[p] += 1;
                for q in p + 1..size {
                    subset[q] = subset[q - 1] + 1;
                }
            }
        }
        None
    }
}
