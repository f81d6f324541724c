//! The formal model encoder.
//!
//! [`ModelEncoder`] translates an [`AnalysisInput`] into CNF on the
//! [`satcore::Solver`], mirroring §III of the paper with one systematic
//! strengthening: every derived term (`AssuredDelivery_I`,
//! `SecuredDelivery_I`, `D_Z`, `S_Z`, `DE_X`, `DelUMsr_E`,
//! `Observable`, …) is defined as a biconditional, not a one-directional
//! implication, so that satisfying assignments are exactly the real
//! threat scenarios (see DESIGN.md, "Encoding notes").
//!
//! Encodings are built lazily per property: an observability-only
//! workload never pays for the secured chain or the bad-data counters —
//! this keeps the Fig 5(a)/5(b) time comparison faithful to the paper's
//! "the secured model is bigger, hence slower" observation.

mod baddata;
mod delivery;
mod observability;
pub(crate) mod paths;
mod resilience;

use std::collections::HashMap;

use boolexpr::{Encoder, ExprPool};
use satcore::{Lit, ProofSink, SolveResult, Solver};
use scadasim::{DeviceId, DeviceKind};

use crate::input::AnalysisInput;
use crate::spec::{Property, ResiliencySpec};

use baddata::BadDataEncoding;
use observability::ObservabilityLits;
use paths::PathTable;
use resilience::{FailureCounters, GrowingCounter};

/// Whether a device's availability literal is pinned true: the device
/// sits outside the failure model (MTU, non-failing router) or has been
/// retired by a model patch.
fn pin_device(d: &scadasim::Device, routers_can_fail: bool) -> bool {
    d.retired()
        || match d.kind() {
            DeviceKind::Mtu => true,
            DeviceKind::Router => !routers_can_fail,
            DeviceKind::Ied | DeviceKind::Rtu => false,
        }
}

/// The failure-budget population: IED ids and RTU ids (extended with
/// routers when those may fail). Retired devices stay in the population
/// — their pinned availability contributes zero to every count, exactly
/// as in a cold build of the patched model.
fn budget_population(input: &AnalysisInput) -> (Vec<DeviceId>, Vec<DeviceId>) {
    let ieds: Vec<DeviceId> = input.topology.ieds().map(|d| d.id()).collect();
    let mut rtus: Vec<DeviceId> = input.topology.rtus().map(|d| d.id()).collect();
    if input.routers_can_fail {
        rtus.extend(
            input
                .topology
                .devices_of_kind(DeviceKind::Router)
                .map(|d| d.id()),
        );
        rtus.sort();
    }
    (ieds, rtus)
}

/// What one incremental delta application did to the encoding — the
/// basis for the service's cache-invalidation decision (a property chain
/// whose path sets did not move keeps its cached verdicts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Availability variables allocated for newly added devices.
    pub new_devices: usize,
    /// Availability variables allocated for newly added links.
    pub new_links: usize,
    /// Devices newly pinned available (retired by this delta).
    pub newly_pinned: usize,
    /// Some IED's plain path set changed: the plain observability chain
    /// (and any verdict derived from it) is stale.
    pub plain_dirty: bool,
    /// Some IED's secured path set changed: the secured and bad-data
    /// chains (and their verdicts) are stale.
    pub secured_dirty: bool,
    /// The failure counters were rebuilt (the budget population moved).
    pub counters_rebuilt: bool,
}

/// Sizes of the encoded model, for the scalability evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EncodingStats {
    /// Solver variables allocated.
    pub variables: usize,
    /// Clauses added.
    pub clauses: usize,
}

/// A satisfying assignment of the threat search: the failed devices and
/// links exhibited by the solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Unavailable field devices.
    pub devices: Vec<DeviceId>,
    /// Downed links (indices into the topology's link list).
    pub links: Vec<usize>,
}

/// The outcome of one threat search on the symbolic model.
///
/// `Unknown` surfaces when a resource limit (conflict budget, deadline,
/// or interrupt) on the underlying solver stopped the search before a
/// verdict; it is a first-class outcome, never a panic, and never
/// conflated with `Resilient`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchOutcome {
    /// `sat`: the exhibited failure set violates the property.
    Violation(Violation),
    /// `unsat`: no failure set within the budget violates the property.
    Resilient,
    /// A solver resource limit stopped the search before a verdict.
    Unknown,
}

impl SearchOutcome {
    /// The violation, if the search found one.
    pub fn violation(self) -> Option<Violation> {
        match self {
            SearchOutcome::Violation(v) => Some(v),
            SearchOutcome::Resilient | SearchOutcome::Unknown => None,
        }
    }

    /// Whether the search found a violation.
    pub fn is_violation(&self) -> bool {
        matches!(self, SearchOutcome::Violation(_))
    }

    /// Whether a resource limit stopped the search.
    pub fn is_unknown(&self) -> bool {
        matches!(self, SearchOutcome::Unknown)
    }
}

/// The symbolic model of one SCADA system.
#[derive(Debug)]
pub struct ModelEncoder {
    solver: Solver,
    pool: ExprPool,
    enc: Encoder,
    /// Availability literal per device (`Node_i`).
    node: Vec<Lit>,
    /// Availability literal per link (`LinkStatus_l`).
    link_up: Vec<Lit>,
    /// Which devices carry a pinning unit clause (`pinned[i]` ⇒ the
    /// clause `node[i]` is in the solver). Pinning is monotone — clauses
    /// are never removed — so this marks what a delta must not re-add.
    pinned: Vec<bool>,
    counters: FailureCounters,
    /// Counter over link failures, built on the first query that grants
    /// a link budget.
    link_counter: Option<GrowingCounter>,
    /// Per-device delivery expressions (built with the plain chain).
    plain: Option<ObservabilityLits>,
    secured: Option<ObservabilityLits>,
    baddata: Option<BadDataEncoding>,
    not_detectable_cache: HashMap<usize, Lit>,
    /// The model's path table (shared by plain/secured/baddata, and
    /// with the analyzer's direct evaluator).
    paths: PathTable,
    /// Assumptions of the most recent [`ModelEncoder::find_violation`]
    /// query, kept for verdict certification (an unsat certificate must
    /// refute exactly these).
    last_assumptions: Vec<Lit>,
}

impl ModelEncoder {
    /// Builds the base encoding: availability variables and failure
    /// counters. Property chains are added on first use.
    pub fn new(input: &AnalysisInput) -> ModelEncoder {
        ModelEncoder::with_proof_sink(input, paths::enumerate_paths(input), None)
    }

    /// Like [`ModelEncoder::new`], but with `sink` installed on the
    /// solver *before* the first variable or clause exists: every
    /// original clause, learnt clause, simplification, and deletion
    /// streams into it. `paths` must be `input`'s path table.
    pub(crate) fn with_proof_sink(
        input: &AnalysisInput,
        paths: PathTable,
        sink: Option<Box<dyn ProofSink>>,
    ) -> ModelEncoder {
        use satcore::CnfSink;
        let mut solver = Solver::new();
        solver.set_proof_sink(sink);
        let node: Vec<Lit> = input
            .topology
            .devices()
            .iter()
            .map(|_| solver.new_var().positive())
            .collect();
        // Pin devices outside the failure model as available. Retired
        // devices are pinned too: they keep their id slot but carry no
        // forwarding paths, so whether they "fail" can never matter —
        // pinning keeps them out of every exhibited threat vector.
        let mut pinned = vec![false; node.len()];
        for d in input.topology.devices() {
            if pin_device(d, input.routers_can_fail) {
                solver.add_clause(&[node[d.id().index()]]);
                pinned[d.id().index()] = true;
            }
        }
        let (ieds, rtus) = budget_population(input);
        let counters = FailureCounters::build(&mut solver, &node, ieds, rtus);
        // One availability variable per link. Links that are statically
        // down never appear on enumerated paths; their variables are
        // simply unconstrained.
        let link_up: Vec<Lit> = input
            .topology
            .links()
            .iter()
            .map(|_| solver.new_var().positive())
            .collect();
        ModelEncoder {
            solver,
            pool: ExprPool::new(),
            enc: Encoder::new(),
            node,
            pinned,
            link_up,
            counters,
            link_counter: None,
            plain: None,
            secured: None,
            baddata: None,
            not_detectable_cache: HashMap::new(),
            paths,
            last_assumptions: Vec::new(),
        }
    }

    /// The availability literal of a device.
    pub fn node_lit(&self, d: DeviceId) -> Lit {
        self.node[d.index()]
    }

    /// Incrementally re-encodes after a model delta, without rebuilding
    /// the solver: learned clauses, variable activities, and every
    /// definitional clause that survives the delta are kept.
    ///
    /// `input` must be the *patched* model this encoder was built from —
    /// the same device/link prefix, mutated only through
    /// [`ModelPatch::apply`](crate::ModelPatch::apply) (devices and
    /// links are appended or mutated in place, never re-indexed) — and
    /// `paths` its path table.
    ///
    /// The incremental story, element by element:
    ///
    /// * **New devices/links** get fresh availability variables; the
    ///   existing ones keep theirs, so every clause mentioning them
    ///   stays meaningful.
    /// * **Retirement** is a *pinning unit clause* (`node[d]`), the
    ///   assumption-flip trick made permanent: retirement is monotone,
    ///   so asserting availability once is equivalent to flipping the
    ///   device out of every failure scenario, and no clause has to be
    ///   deleted.
    /// * **Property chains** are diffed by their per-IED path sets
    ///   (devices *and* link indices). A chain whose path sets did not
    ///   move is kept verbatim. A dirty chain is dropped and lazily
    ///   rebuilt on the next query — and because the expression pool
    ///   hash-conses and the Tseitin encoder memoizes, the rebuild
    ///   re-encodes only the *touched cone*: subexpressions whose paths
    ///   are unchanged resolve to their existing literals and add zero
    ///   clauses. Stale definitions left behind are conservative
    ///   extensions (pure biconditional definitions over their own
    ///   Tseitin variables), so they can never corrupt a verdict — they
    ///   are simply never assumed again.
    /// * **Failure counters** are rebuilt only when the budget
    ///   population changes (a device was added); retirement keeps the
    ///   population and pins the retired device's contribution to zero,
    ///   exactly as a cold build of the patched model would. A rebuild
    ///   keeps the largest cap a counter has grown to, and the old
    ///   counter's clauses, like a dirty chain's, stay behind as a
    ///   conservative extension.
    pub(crate) fn apply_delta(&mut self, input: &AnalysisInput, paths: PathTable) -> DeltaStats {
        use satcore::CnfSink;
        let mut stats = DeltaStats::default();

        // New devices: fresh availability variables, appended in id order.
        let n = input.topology.num_devices();
        assert!(n >= self.node.len(), "deltas never delete device slots");
        for _ in self.node.len()..n {
            self.node.push(self.solver.new_var().positive());
            self.pinned.push(false);
            stats.new_devices += 1;
        }

        // Pinning is monotone: emit units only for newly pinned devices.
        for d in input.topology.devices() {
            let i = d.id().index();
            if pin_device(d, input.routers_can_fail) && !self.pinned[i] {
                self.solver.add_clause(&[self.node[i]]);
                self.pinned[i] = true;
                stats.newly_pinned += 1;
            }
        }

        // New links: fresh availability variables. A link counter built
        // over the old link set no longer covers the budget domain, so
        // it is rebuilt over the new set; rewired links keep their index
        // and variable, so an existing counter stays valid.
        let m = input.topology.links().len();
        assert!(m >= self.link_up.len(), "deltas never delete links");
        if m > self.link_up.len() {
            for _ in self.link_up.len()..m {
                self.link_up.push(self.solver.new_var().positive());
                stats.new_links += 1;
            }
            if let Some(counter) = &mut self.link_counter {
                counter.rebuild(&mut self.solver, self.link_up.iter().map(|&l| !l).collect());
            }
        }

        // Budget population: rebuild the counters only if it moved.
        let (ieds, rtus) = budget_population(input);
        if ieds != self.counters.ieds || rtus != self.counters.rtus {
            self.counters
                .rebuild(&mut self.solver, &self.node, ieds, rtus);
            stats.counters_rebuilt = true;
        }

        // Diff the per-IED path sets to find the touched cone. Entries
        // beyond the old length belong to devices added by this delta;
        // they record no measurements (patches never touch the
        // association), so no existing chain references them.
        for (old, new) in self.paths.iter().zip(paths.iter()) {
            if old.all != new.all {
                stats.plain_dirty = true;
            }
            if old.secured != new.secured {
                stats.secured_dirty = true;
            }
        }
        self.paths = paths;
        if stats.plain_dirty {
            self.plain = None;
        }
        if stats.secured_dirty {
            self.secured = None;
            self.baddata = None;
            self.not_detectable_cache.clear();
        }
        stats
    }

    /// Current encoding sizes.
    pub fn stats(&self) -> EncodingStats {
        use satcore::CnfSink;
        EncodingStats {
            variables: self.solver.num_vars(),
            clauses: self.solver.num_original_clauses(),
        }
    }

    /// Direct access to the underlying solver (e.g. for blocking clauses
    /// during threat enumeration).
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// Shared access to the underlying solver (model values).
    pub(crate) fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Assumptions of the most recent [`ModelEncoder::find_violation`].
    pub(crate) fn last_assumptions(&self) -> &[Lit] {
        &self.last_assumptions
    }

    /// The plain (`secured == false`) or secured observability chain,
    /// built from the path table on first use.
    fn chain(&mut self, input: &AnalysisInput, secured: bool) -> &ObservabilityLits {
        if self.chain_slot(secured).is_none() {
            let mut per_ied = vec![self.pool.fls(); input.topology.num_devices()];
            for ied in input.topology.ieds() {
                let paths = &self.paths[ied.id().index()];
                let set = if secured { &paths.secured } else { &paths.all };
                per_ied[ied.id().index()] =
                    delivery::delivery_expr(&mut self.pool, &self.node, &self.link_up, set);
            }
            let meas = delivery::measurement_exprs(input, &mut self.pool, &per_ied);
            let lits = observability::encode_observability(
                input,
                &mut self.pool,
                &mut self.enc,
                &mut self.solver,
                &meas,
            );
            *self.chain_slot(secured) = Some(lits);
        }
        self.chain_slot(secured).as_ref().expect("just built")
    }

    fn chain_slot(&mut self, secured: bool) -> &mut Option<ObservabilityLits> {
        if secured {
            &mut self.secured
        } else {
            &mut self.plain
        }
    }

    /// `D_Z` literals (building the plain chain if needed).
    pub fn delivered_lits(&mut self, input: &AnalysisInput) -> Vec<Lit> {
        self.chain(input, false).per_measurement.clone()
    }

    /// `S_Z` literals (building the secured chain if needed).
    pub fn secured_lits(&mut self, input: &AnalysisInput) -> Vec<Lit> {
        self.chain(input, true).per_measurement.clone()
    }

    /// A literal equivalent to the *violation* of the property: the
    /// paper's `~Observability`, `~SecuredObservability`, or
    /// `~BadDataDetectability(r)`.
    pub fn violation_lit(&mut self, input: &AnalysisInput, property: Property, r: usize) -> Lit {
        match property {
            Property::Observability => !self.chain(input, false).observable,
            Property::SecuredObservability => !self.chain(input, true).observable,
            Property::BadDataDetectability => {
                if let Some(&l) = self.not_detectable_cache.get(&r) {
                    return l;
                }
                if self.baddata.is_none() {
                    let secured = self.chain(input, true).per_measurement.clone();
                    self.baddata = Some(BadDataEncoding::build(input, &mut self.solver, &secured));
                }
                let bd = self.baddata.as_ref().expect("just built");
                let l = bd.not_detectable_lit(&mut self.pool, &mut self.enc, &mut self.solver, r);
                self.not_detectable_cache.insert(r, l);
                l
            }
        }
    }

    /// Assumption literals imposing the failure budget (device budgets
    /// plus, when granted, the link budget). A budget past a counter's
    /// cap grows that counter first.
    pub fn budget_assumptions(&mut self, spec: ResiliencySpec) -> Vec<Lit> {
        let mut assumptions = self.counters.assumptions(&mut self.solver, spec.budget);
        if spec.link_failures == 0 {
            // The paper's semantics: links do not fail. Assume each link
            // up individually — cheap, and keeps the encoding free of a
            // link counter until a query actually grants a link budget.
            assumptions.extend(self.link_up.iter().copied());
        } else {
            let solver = &mut self.solver;
            let counter = self.link_counter.get_or_insert_with(|| {
                GrowingCounter::new(solver, self.link_up.iter().map(|&l| !l).collect())
            });
            assumptions.extend(counter.leq_lit(solver, spec.link_failures));
        }
        assumptions
    }

    /// Solves for a property violation within the budget.
    ///
    /// Any resource limit armed on the underlying solver (conflict
    /// budget, deadline, interrupt — see [`satcore::Solver`]) degrades
    /// the answer to [`SearchOutcome::Unknown`] instead of hanging or
    /// panicking.
    pub fn find_violation(
        &mut self,
        input: &AnalysisInput,
        property: Property,
        spec: ResiliencySpec,
    ) -> SearchOutcome {
        let violation = self.violation_lit(input, property, spec.corrupted);
        let mut assumptions = self.budget_assumptions(spec);
        assumptions.push(violation);
        let result = self.solver.solve_with_assumptions(&assumptions);
        self.last_assumptions = assumptions;
        match result {
            SolveResult::Sat => {
                let devices = self
                    .counters
                    .ieds
                    .iter()
                    .chain(self.counters.rtus.iter())
                    .copied()
                    .filter(|d| self.solver.value_of(self.node[d.index()].var()) == Some(false))
                    .collect();
                let links = self
                    .link_up
                    .iter()
                    .enumerate()
                    .filter(|&(_, l)| self.solver.value_of(l.var()) == Some(false))
                    .map(|(i, _)| i)
                    .collect();
                SearchOutcome::Violation(Violation { devices, links })
            }
            SolveResult::Unsat => SearchOutcome::Resilient,
            SolveResult::Unknown => SearchOutcome::Unknown,
        }
    }

    /// The availability literal of a link (by index into the topology's
    /// link list).
    pub fn link_lit(&self, index: usize) -> Lit {
        self.link_up[index]
    }

    /// Solver statistics.
    pub fn solver_stats(&self) -> satcore::SolverStats {
        self.solver.stats()
    }
}
