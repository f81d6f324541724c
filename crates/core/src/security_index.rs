//! Security indices: the served min-cut path, its max-flow certificate
//! checker, and the cardinality-minimizing SAT engine kept as the
//! differential oracle.
//!
//! The security index of measurement `k` is `min ‖a‖₀` over undetectable
//! attacks `a = H·c` with `a_k ≠ 0` (Sou et al., arXiv:1201.5019). For
//! the DC model's Jacobian sign structure, binary state perturbations
//! `c ∈ {0, 1}^buses` are optimal (Hendrickx et al., arXiv:1204.6174):
//! a flow measurement is perturbed iff its line crosses the support's
//! boundary, and an injection iff any incident line does — no
//! cancellation is possible because every term has the same sign.
//!
//! **Served path.** [`served_distribution`] prices every measurement by
//! [`powergrid::securityindex::min_cut_indices`]: one max-flow per line
//! over a gadget network. Under certification each electrical
//! component's index is checked here, without `powergrid`'s network
//! code, from the measurement list alone:
//!
//! * *lower bound* — the gadget's arc capacities are rebuilt on
//!   canonically named nodes (bus, `p_v`, `q_v`); each max-flow must
//!   respect them, conserve flow at every node but the line's two ends,
//!   and send its claimed value out of the source. Weak duality makes
//!   that value a lower bound on every cut, and the gadget lemma makes
//!   every attack that cuts the line such a cut;
//! * *upper bound* — the min cut's source side is re-priced as an
//!   attack by `priced_affected`, must separate the line's ends and
//!   must perturb the target.
//!
//! **SAT oracle.** [`SecurityIndexAnalyzer`] answers the same question
//! as a propositional one, for the differential tests and benchmarks:
//!
//! * one variable `c_b` per bus (the perturbation support),
//! * one Tseitin difference literal `d_l ⟺ c_x ⊕ c_y` per line,
//! * one *affected* literal `y_m` per measurement — the line's `d_l`
//!   for a flow, `⋁ d_l` over incident lines for an injection,
//! * one [`UnaryCounter`] over all `y_m`, built **once per measurement
//!   set**: every target and every bound is an assumption, never an
//!   asserted clause, so the whole index distribution runs on a single
//!   incremental encoding with all learned clauses shared.
//!
//! A query assumes `y_target` and walks the bound down MaxSAT-style:
//! solve, count the model's affected measurements, assume `Σ y ≤
//! count − 1`, repeat until unsat. The final unsat answer is what makes
//! the minimality claim — so under certification it is DRAT-certified:
//! the solver's proof is replayed by an independent [`RupChecker`] that
//! must refute the final assumptions, the optimal model is re-checked
//! against the mirrored clauses, and the extracted attack is re-priced
//! directly from the measurement list.
//!
//! The SAT engine shares no code with [`powergrid::securityindex`], so
//! the two agreeing everywhere cross-validates the served answers.

use std::collections::HashMap;
use std::time::Instant;

use boolexpr::UnaryCounter;
use powergrid::securityindex::{min_cut_indices, BranchCut, FlowNode, MinCutIndices};
use powergrid::{BranchId, BusId, MeasurementId, MeasurementKind, MeasurementSet};
use satcore::{
    check_model, CnfSink as _, LBool, Lit, ProofBuffer, ProofStep, RupChecker, SolveResult, Solver,
};

use crate::certify::{CertFault, Certificate, CertifyOptions};

/// One measurement's security index with its optimal attack witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecurityIndexReport {
    /// The queried measurement.
    pub target: MeasurementId,
    /// `‖a‖₀` of the sparsest undetectable attack touching the target
    /// (counts the target itself, so always ≥ 1).
    pub index: usize,
    /// The perturbed bus set (support of the binary attack).
    pub attack_buses: Vec<BusId>,
    /// The measurements the optimal attack perturbs.
    pub affected: Vec<MeasurementId>,
    /// Incremental solver calls the descent needed.
    pub solves: usize,
    /// The verdict's certificate when certification is enabled.
    pub certificate: Option<Certificate>,
}

/// The index of every measurement plus the summary the service and the
/// benchmarks report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecurityIndexDistribution {
    /// Per-measurement indices, in measurement order.
    pub indices: Vec<usize>,
    /// The sparsest attack anywhere (the system's weakest point).
    pub min: usize,
    /// The best-protected measurement's index.
    pub max: usize,
    /// Work units across the distribution: max-flows on the served
    /// path, incremental solver calls on the SAT engine.
    pub solves: usize,
    /// Certification failures across the distribution (0 when
    /// certification is off or everything checked).
    pub cert_failures: usize,
}

/// Serves the index distribution from min-cut: one max-flow per line
/// that some measurement depends on, and `solves` counts them.
///
/// With `certify.enabled`, every electrical component's index is
/// checked against its max-flow lower bound and its re-priced witness,
/// one [`Certificate`] per component recorded in `certify.log`; with
/// `certify.proof_dir` set, each component's cuts are also written to
/// `secidx-NNNN.flow` there.
///
/// # Errors
///
/// A measurement no attack can change (an injection at a bus with no
/// incident line) has no index; the error names it and its bus.
pub fn served_distribution(
    ms: &MeasurementSet,
    certify: &CertifyOptions,
) -> Result<SecurityIndexDistribution, String> {
    let MinCutIndices { indices, cuts } = min_cut_indices(ms).map_err(|e| e.to_string())?;
    let solves = cuts.len();
    let cert_failures = if certify.enabled {
        certify_served(ms, &indices, cuts, certify)
    } else {
        0
    };
    Ok(SecurityIndexDistribution {
        min: indices.iter().copied().min().unwrap_or(0),
        max: indices.iter().copied().max().unwrap_or(0),
        indices,
        solves,
        cert_failures,
    })
}

/// Checks every component of a served distribution and records one
/// certificate each; returns the failures. The faults of
/// [`CertifyOptions::fault`] corrupt one arc flow (`CorruptProof`) or
/// flip the source bus of the witness (`CorruptModel`) of every cut.
fn certify_served(
    ms: &MeasurementSet,
    indices: &[usize],
    mut cuts: Vec<BranchCut>,
    certify: &CertifyOptions,
) -> usize {
    let sys = ms.system();
    for cut in &mut cuts {
        match certify.fault {
            Some(CertFault::CorruptProof) => {
                if let Some(arc) = cut.flows.first_mut() {
                    arc.flow += 1;
                }
            }
            Some(CertFault::CorruptModel) => {
                let source = sys.branch(cut.branch).from;
                match cut.witness.iter().position(|&bus| bus == source) {
                    Some(i) => {
                        cut.witness.remove(i);
                    }
                    None => cut.witness.push(source),
                }
            }
            None => {}
        }
    }
    let capacities = gadget_capacities(ms);
    let lower: Vec<Result<(), String>> = cuts
        .iter()
        .map(|cut| check_flow(ms, &capacities, cut))
        .collect();

    let mut failures = 0;
    for (seq, group) in ms.unique_components().iter().enumerate() {
        let start = Instant::now();
        let target = group[0];
        let claimed = indices[target.index()];
        let checked = check_component(ms, &cuts, &lower, target, claimed)
            .and_then(|arcs| write_flow_file(certify, seq, ms, &cuts, target).map(|()| arcs));
        let certificate = match checked {
            Ok(arcs) => Certificate::Proof {
                steps: arcs,
                propagations: 0,
                elapsed: start.elapsed(),
            },
            Err(reason) => {
                failures += 1;
                Certificate::Failed { reason }
            }
        };
        certify.log.record(&certificate);
    }
    failures
}

/// Gadget arc capacities rebuilt from the measurement list, keyed by
/// canonically named endpoints; `None` marks an uncapacitated (∞) arc.
type Capacities = HashMap<(FlowNode, FlowNode), Option<usize>>;

/// Rebuilds the min-cut gadget's arcs: antiparallel line arcs weighted
/// by measured flows, and for each measured injection at `v` the unit
/// arcs `v → p_v`, `q_v → v` plus uncapacitated `p_v → u`, `u → q_v`
/// for every neighbor `u`.
fn gadget_capacities(ms: &MeasurementSet) -> Capacities {
    let sys = ms.system();
    let mut capacities = Capacities::new();
    for &kind in ms.kinds() {
        match kind {
            MeasurementKind::FlowForward(b) | MeasurementKind::FlowBackward(b) => {
                let line = sys.branch(b);
                let (x, y) = (FlowNode::Bus(line.from), FlowNode::Bus(line.to));
                for arc in [(x, y), (y, x)] {
                    let cap = capacities.entry(arc).or_insert(Some(0));
                    *cap = cap.map(|c| c + 1);
                }
            }
            MeasurementKind::Injection(v) => {
                capacities.insert((FlowNode::Bus(v), FlowNode::P(v)), Some(1));
                capacities.insert((FlowNode::Q(v), FlowNode::Bus(v)), Some(1));
                for &b in sys.branches_at(v) {
                    let line = sys.branch(b);
                    let u = if line.from == v { line.to } else { line.from };
                    capacities.insert((FlowNode::P(v), FlowNode::Bus(u)), None);
                    capacities.insert((FlowNode::Bus(u), FlowNode::Q(v)), None);
                }
            }
        }
    }
    capacities
}

/// The lower-bound half of a cut's certificate: `cut.flows` must be a
/// feasible flow of value `cut.value` from the line's `from` end to its
/// `to` end — within every capacity, conserved at every other node.
fn check_flow(ms: &MeasurementSet, capacities: &Capacities, cut: &BranchCut) -> Result<(), String> {
    let sys = ms.system();
    if cut.branch.index() >= sys.num_branches() {
        return Err(format!("max-flow for unknown {}", cut.branch));
    }
    let line = sys.branch(cut.branch);
    let (source, sink) = (FlowNode::Bus(line.from), FlowNode::Bus(line.to));
    // Flow per arc, summed over repeated listings, in node order.
    let mut arcs: Vec<((FlowNode, FlowNode), usize)> =
        cut.flows.iter().map(|a| ((a.from, a.to), a.flow)).collect();
    arcs.sort_unstable_by_key(|&(arc, _)| arc);
    arcs.dedup_by(|next, kept| {
        let repeated = next.0 == kept.0;
        if repeated {
            kept.1 = kept.1.saturating_add(next.1);
        }
        repeated
    });
    // Net outflow per node: buses, then every `p_v`, then every `q_v`
    // (the order `FlowNode` sorts in). Only gadget nodes get here.
    let buses = sys.num_buses();
    let slot = |node: FlowNode| match node {
        FlowNode::Bus(v) => v.index(),
        FlowNode::P(v) => buses + v.index(),
        FlowNode::Q(v) => 2 * buses + v.index(),
    };
    let mut outflow = vec![0i128; 3 * buses];
    for &((from, to), flow) in &arcs {
        match capacities.get(&(from, to)) {
            None => {
                return Err(format!(
                    "max-flow for {}: flow {flow} on {from}→{to}, which is not a gadget arc",
                    cut.branch
                ))
            }
            Some(Some(cap)) if flow > *cap => {
                return Err(format!(
                    "max-flow for {}: flow {flow} on {from}→{to} exceeds its capacity {cap}",
                    cut.branch
                ))
            }
            Some(_) => {}
        }
        outflow[slot(from)] += flow as i128;
        outflow[slot(to)] -= flow as i128;
    }
    let ends = [slot(source), slot(sink)];
    if let Some((i, net)) = outflow
        .iter()
        .enumerate()
        .find(|&(i, &net)| net != 0 && !ends.contains(&i))
    {
        let node = match i / buses {
            0 => FlowNode::Bus(BusId(i)),
            1 => FlowNode::P(BusId(i - buses)),
            _ => FlowNode::Q(BusId(i - 2 * buses)),
        };
        return Err(format!(
            "max-flow for {}: flow is not conserved at {node} (net outflow {net})",
            cut.branch
        ));
    }
    let value = outflow[slot(source)];
    if value != cut.value as i128 {
        return Err(format!(
            "max-flow for {}: net flow out of {source} is {value}, but the claimed value is {}",
            cut.branch, cut.value
        ));
    }
    Ok(())
}

/// The lines an attack on `target` must cut: its own line for a flow,
/// any incident line for an injection.
fn bounding_lines(ms: &MeasurementSet, target: MeasurementId) -> Vec<BranchId> {
    match ms.kind(target) {
        MeasurementKind::FlowForward(b) | MeasurementKind::FlowBackward(b) => vec![b],
        MeasurementKind::Injection(v) => ms.system().branches_at(v).to_vec(),
    }
}

/// Certifies one measurement's served index. Every line an attack on
/// `target` must cut carries a checked max-flow (`lower`, parallel to
/// `cuts`), so no attack is cheaper than the smallest value; that value
/// must be `claimed`, and its cut's witness must separate the line's
/// ends and re-price to `claimed` perturbed measurements, `target`
/// among them. Returns the arc flows checked.
fn check_component(
    ms: &MeasurementSet,
    cuts: &[BranchCut],
    lower: &[Result<(), String>],
    target: MeasurementId,
    claimed: usize,
) -> Result<u64, String> {
    let sys = ms.system();
    let mut best: Option<&BranchCut> = None;
    let mut arcs = 0;
    for b in bounding_lines(ms, target) {
        let i = cuts
            .binary_search_by_key(&b, |cut| cut.branch)
            .map_err(|_| format!("no max-flow bounds attacks on {target} across {b}"))?;
        lower[i].clone()?;
        arcs += cuts[i].flows.len() as u64;
        if best.is_none_or(|cut| cuts[i].value < cut.value) {
            best = Some(&cuts[i]);
        }
    }
    let best = best.ok_or_else(|| format!("{target} has no line an attack could cut"))?;
    if best.value != claimed {
        return Err(format!(
            "served index {claimed} for {target}, but its max-flow lower bound is {}",
            best.value
        ));
    }
    let line = sys.branch(best.branch);
    let mut support = vec![false; sys.num_buses()];
    for &bus in &best.witness {
        *support
            .get_mut(bus.index())
            .ok_or_else(|| format!("witness for {target} names unknown {bus}"))? = true;
    }
    if support[line.from.index()] == support[line.to.index()] {
        return Err(format!(
            "witness for {target} does not separate {} from {} across {}",
            line.from, line.to, best.branch
        ));
    }
    let repriced = priced_affected(ms, &support);
    if repriced.len() != claimed {
        return Err(format!(
            "witness for {target} re-prices to {} measurements, claimed {claimed}",
            repriced.len()
        ));
    }
    if !repriced.contains(&target) {
        return Err(format!("witness for {target} does not perturb it"));
    }
    Ok(arcs)
}

/// Writes one component's certificate to `secidx-NNNN.flow` under the
/// proof directory, if one is set: per line an attack must cut, the
/// cut's value, its witness buses and its arc flows.
fn write_flow_file(
    certify: &CertifyOptions,
    seq: usize,
    ms: &MeasurementSet,
    cuts: &[BranchCut],
    target: MeasurementId,
) -> Result<(), String> {
    let Some(dir) = certify.proof_dir.as_ref() else {
        return Ok(());
    };
    let lines = bounding_lines(ms, target);
    let mut text = format!("c security index of {target} {}\n", ms.kind(target));
    for cut in cuts.iter().filter(|cut| lines.contains(&cut.branch)) {
        text.push_str(&format!("cut {} value {}\nwitness", cut.branch, cut.value));
        for bus in &cut.witness {
            text.push_str(&format!(" {bus}"));
        }
        text.push('\n');
        for arc in &cut.flows {
            text.push_str(&format!("flow {} {} {}\n", arc.from, arc.to, arc.flow));
        }
    }
    let path = dir.join(format!("secidx-{seq:04}.flow"));
    std::fs::write(&path, text)
        .map_err(|e| format!("writing certificate file {}: {e}", path.display()))
}

/// Incremental certification state: one RUP checker audits the whole
/// descending-bound session, consuming mirror/proof deltas per query.
struct CertState {
    checker: RupChecker,
    buffer: ProofBuffer,
    mirrored: usize,
    seq: u64,
    options: CertifyOptions,
}

/// The SAT-side engine: one encoding per measurement set, every query
/// answered by assumptions against it.
pub struct SecurityIndexAnalyzer {
    solver: Solver,
    /// Per-bus perturbation variables.
    c: Vec<Lit>,
    /// Per-measurement affected literals (flow = its line's difference
    /// literal; injection = a fresh OR definition).
    y: Vec<Lit>,
    counter: UnaryCounter,
    ms: MeasurementSet,
    cert: Option<CertState>,
}

impl SecurityIndexAnalyzer {
    /// Builds the encoding for a measurement set (uncertified).
    pub fn new(ms: &MeasurementSet) -> SecurityIndexAnalyzer {
        SecurityIndexAnalyzer::with_certification(ms, &CertifyOptions::default())
    }

    /// Builds the encoding; with `certify.enabled` every query's final
    /// unsat bound is DRAT-replayed and its optimal model re-checked,
    /// outcomes tallied into `certify.log`.
    pub fn with_certification(
        ms: &MeasurementSet,
        certify: &CertifyOptions,
    ) -> SecurityIndexAnalyzer {
        let mut solver = Solver::new();
        let cert = certify.enabled.then(|| {
            let buffer = ProofBuffer::new();
            solver.set_clause_mirror(true);
            solver.set_proof_sink(Some(Box::new(buffer.clone())));
            CertState {
                checker: RupChecker::new(),
                buffer,
                mirrored: 0,
                seq: 0,
                options: certify.clone(),
            }
        });

        let sys = ms.system();
        let c: Vec<Lit> = (0..sys.num_buses())
            .map(|_| solver.new_var().positive())
            .collect();
        // The cost of a support is invariant under complementing it, and
        // so is every y literal — pin bus 1 out of the support to halve
        // the search space.
        if let Some(&first) = c.first() {
            solver.add_clause(&[!first]);
        }
        // d_l ⟺ c_x ⊕ c_y per line.
        let d: Vec<Lit> = sys
            .branches()
            .iter()
            .map(|branch| {
                let dl = solver.new_var().positive();
                let (cx, cy) = (c[branch.from.index()], c[branch.to.index()]);
                solver.add_clause(&[!dl, cx, cy]);
                solver.add_clause(&[!dl, !cx, !cy]);
                solver.add_clause(&[dl, !cx, cy]);
                solver.add_clause(&[dl, cx, !cy]);
                dl
            })
            .collect();
        let y: Vec<Lit> = ms
            .ids()
            .map(|id| match ms.kind(id) {
                MeasurementKind::FlowForward(b) | MeasurementKind::FlowBackward(b) => d[b.index()],
                MeasurementKind::Injection(v) => {
                    let ym = solver.new_var().positive();
                    let incident = sys.branches_at(v);
                    let mut or: Vec<Lit> = Vec::with_capacity(incident.len() + 1);
                    for &b in incident {
                        solver.add_clause(&[!d[b.index()], ym]);
                        or.push(d[b.index()]);
                    }
                    or.push(!ym);
                    solver.add_clause(&or);
                    ym
                }
            })
            .collect();
        let counter = UnaryCounter::build(&mut solver, &y);
        SecurityIndexAnalyzer {
            solver,
            c,
            y,
            counter,
            ms: ms.clone(),
            cert,
        }
    }

    /// The measurement set the encoding was built for.
    pub fn measurements(&self) -> &MeasurementSet {
        &self.ms
    }

    /// Solver clauses in the encoding — flat across every query, since
    /// targets and bounds are assumptions only.
    pub fn clauses(&self) -> usize {
        self.solver.num_original_clauses()
    }

    /// The security index of one measurement.
    ///
    /// # Panics
    ///
    /// Panics if the target's affected literal can never hold, which
    /// only happens for an injection at an isolated bus (a measurement
    /// whose Jacobian row is structurally zero has no index).
    pub fn index_of(&mut self, target: MeasurementId) -> SecurityIndexReport {
        let yt = self.y[target.index()];
        let mut solves = 0;

        // Opening solve, pre-bounded by a concrete single-bus attack:
        // perturbing one endpoint (or the injection bus / a neighbor)
        // always touches the target, and pricing that support in plain
        // code gives a feasible upper bound, so the solver starts its
        // descent near the optimum instead of from an arbitrary model.
        let opening_bound = self.single_bus_bound(target);
        let mut assumptions = vec![yt];
        if let Some(bound) = self.counter.leq_lit(opening_bound) {
            assumptions.push(bound);
        }
        solves += 1;
        let mut outcome = self.solver.solve_with_assumptions(&assumptions);
        assert_eq!(
            outcome,
            SolveResult::Sat,
            "{target} is structurally unattackable (isolated-bus injection?)"
        );
        let mut best = self.snapshot();
        let mut final_assumptions = vec![yt];

        // MaxSAT-style descent: tighten Σy ≤ best−1 by assumption until
        // the bound refutes. `leq_lit` is Some for every bound we try
        // (best ≤ m, so best − 1 < m).
        while best.count > 1 {
            let bound = self
                .counter
                .leq_lit(best.count - 1)
                .expect("descending bound within counter range");
            solves += 1;
            outcome = self.solver.solve_with_assumptions(&[yt, bound]);
            if outcome != SolveResult::Sat {
                final_assumptions = vec![yt, bound];
                break;
            }
            let next = self.snapshot();
            assert!(next.count < best.count, "descent must strictly tighten");
            best = next;
        }
        // `best.count == 1` needs no refutation: the index counts the
        // target itself, so 1 is the unconditional floor.
        let proved_unsat = outcome == SolveResult::Unsat;

        let certificate = self
            .cert
            .is_some()
            .then(|| self.certify(target, &best, proved_unsat.then_some(&final_assumptions)));

        let affected: Vec<MeasurementId> = best
            .y_values
            .iter()
            .enumerate()
            .filter(|(_, &v)| v)
            .map(|(i, _)| MeasurementId(i))
            .collect();
        debug_assert!(affected.contains(&target));
        SecurityIndexReport {
            target,
            index: best.count,
            attack_buses: best
                .support
                .iter()
                .enumerate()
                .filter(|(_, &s)| s)
                .map(|(b, _)| BusId(b))
                .collect(),
            affected,
            solves,
            certificate,
        }
    }

    /// The full distribution, one descent per *electrical component*:
    /// forward and backward flow on a line share the same difference
    /// literal, hence the same index, so each line is solved once.
    pub fn distribution(&mut self) -> SecurityIndexDistribution {
        let mut indices = vec![0usize; self.ms.len()];
        let mut solves = 0;
        let mut cert_failures = 0;
        for group in self.ms.unique_components() {
            let report = self.index_of(group[0]);
            solves += report.solves;
            if report.certificate.as_ref().is_some_and(|c| c.is_failure()) {
                cert_failures += 1;
            }
            for id in group {
                indices[id.index()] = report.index;
            }
        }
        let min = indices.iter().copied().min().unwrap_or(0);
        let max = indices.iter().copied().max().unwrap_or(0);
        SecurityIndexDistribution {
            indices,
            min,
            max,
            solves,
            cert_failures,
        }
    }

    /// The cheapest single-bus attack that touches `target`, priced in
    /// plain code: a feasible solution, hence an upper bound that lets
    /// the descent skip the unconstrained opening model.
    ///
    /// # Panics
    ///
    /// Panics for an injection at an isolated bus (structurally
    /// unattackable, no index).
    fn single_bus_bound(&self, target: MeasurementId) -> usize {
        let sys = self.ms.system();
        let candidates: Vec<BusId> = match self.ms.kind(target) {
            MeasurementKind::FlowForward(b) | MeasurementKind::FlowBackward(b) => {
                let branch = sys.branch(b);
                vec![branch.from, branch.to]
            }
            MeasurementKind::Injection(v) => {
                let mut around = sys.neighbors(v);
                around.push(v);
                around
            }
        };
        candidates
            .into_iter()
            .map(|bus| {
                let mut support = vec![false; sys.num_buses()];
                support[bus.index()] = true;
                priced_affected(&self.ms, &support).len()
            })
            .min()
            .expect("injection-measured bus with no incident line")
    }

    /// Captures the current model's support and affected set.
    fn snapshot(&self) -> Witness {
        let support: Vec<bool> = self
            .c
            .iter()
            .map(|l| self.solver.value_of(l.var()) == Some(l.is_positive()))
            .collect();
        let y_values: Vec<bool> = self
            .y
            .iter()
            .map(|l| self.solver.value_of(l.var()) == Some(l.is_positive()))
            .collect();
        Witness {
            count: y_values.iter().filter(|&&v| v).count(),
            support,
            y_values,
            model: self.solver.model_values().to_vec(),
        }
    }

    /// Certifies one query: replay the proof delta, refute the final
    /// bound (when one was proven), re-check the optimal model, and
    /// re-price the extracted attack from the measurement list.
    fn certify(
        &mut self,
        target: MeasurementId,
        best: &Witness,
        unsat_assumptions: Option<&Vec<Lit>>,
    ) -> Certificate {
        let start = std::time::Instant::now();
        let cert = self.cert.as_mut().expect("certification state");
        let before = cert.checker.stats();

        let mut proof = cert.buffer.take_hinted();
        if cert.options.fault == Some(CertFault::CorruptProof) {
            proof.insert_unhinted(0, ProofStep::Add(Vec::new()));
        }
        let certificate = (|| {
            let mirror = self
                .solver
                .mirror()
                .ok_or_else(|| "certification enabled but solver mirror missing".to_string())?;
            for clause in &mirror.clauses[cert.mirrored.min(mirror.clauses.len())..] {
                cert.checker.add_axiom(clause);
            }
            cert.mirrored = mirror.clauses.len();
            cert.checker
                .replay(&proof)
                .map_err(|e| format!("proof replay failed: {e}"))?;

            // The minimality half: the final bound must propagate to a
            // conflict in the independent engine.
            if let Some(assumptions) = unsat_assumptions {
                if !cert.checker.refutes(assumptions) {
                    return Err(format!(
                        "proof does not refute the final bound for {target}"
                    ));
                }
            }

            // The witness half: the optimal model satisfies the mirrored
            // clauses and the target assumption …
            let mut model = best.model.clone();
            if cert.options.fault == Some(CertFault::CorruptModel) {
                if let Some(v) = model.iter_mut().find(|v| v.is_defined()) {
                    *v = v.negate();
                }
            }
            check_model(mirror, &model).map_err(|e| format!("model check failed: {e}"))?;
            let yt = self.y[target.index()];
            let value = model.get(yt.var().index()).copied().unwrap_or(LBool::Undef);
            if value != LBool::from_bool(yt.is_positive()) {
                return Err(format!(
                    "model does not satisfy the target literal for {target}"
                ));
            }

            // … and the extracted attack re-prices to the claimed index
            // directly from the measurement list (no solver, no flow
            // network).
            let repriced = priced_affected(&self.ms, &best.support);
            if repriced.len() != best.count {
                return Err(format!(
                    "extracted attack re-prices to {} measurements, claimed {}",
                    repriced.len(),
                    best.count
                ));
            }
            if !repriced.contains(&target) {
                return Err(format!("extracted attack does not perturb {target}"));
            }
            Ok(())
        })();

        let seq = cert.seq;
        cert.seq += 1;
        let certificate = match certificate.and_then(|()| {
            let Some(dir) = cert.options.proof_dir.as_ref() else {
                return Ok(());
            };
            let path = dir.join(format!("secidx-{seq:04}.drat"));
            let mut bytes = Vec::new();
            satcore::write_drat(proof.steps(), &mut bytes)
                .map_err(|e| format!("serializing proof for {target}: {e}"))?;
            std::fs::write(&path, bytes)
                .map_err(|e| format!("writing proof file {}: {e}", path.display()))
        }) {
            Err(reason) => Certificate::Failed { reason },
            Ok(()) => {
                let stats = cert.checker.stats();
                if unsat_assumptions.is_some() {
                    Certificate::Proof {
                        steps: stats.steps - before.steps,
                        propagations: stats.propagations - before.propagations,
                        elapsed: start.elapsed(),
                    }
                } else {
                    Certificate::Threat {
                        steps: stats.steps - before.steps,
                        elapsed: start.elapsed(),
                    }
                }
            }
        };
        cert.options.log.record(&certificate);
        certificate
    }
}

/// One satisfying assignment of the descent, with enough state captured
/// to certify it after later (unsat) solves overwrite the solver model.
struct Witness {
    count: usize,
    support: Vec<bool>,
    y_values: Vec<bool>,
    model: Vec<LBool>,
}

/// Prices a binary attack support directly against the measurement
/// list — the certification-side evaluator, independent of both the CNF
/// encoding and the min-cut network.
fn priced_affected(ms: &MeasurementSet, support: &[bool]) -> Vec<MeasurementId> {
    let sys = ms.system();
    let cut = |b: powergrid::BranchId| {
        let branch = sys.branch(b);
        support[branch.from.index()] != support[branch.to.index()]
    };
    ms.ids()
        .filter(|&id| match ms.kind(id) {
            MeasurementKind::FlowForward(b) | MeasurementKind::FlowBackward(b) => cut(b),
            MeasurementKind::Injection(v) => sys.branches_at(v).iter().any(|&b| cut(b)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use powergrid::ieee::{case5, ieee14};

    #[test]
    fn matches_hand_computed_path() {
        // Path 1–2–3, full measurements: every index is 4 (see the
        // min-cut module's derivation).
        let sys = powergrid::PowerSystem::new(
            "path3",
            3,
            vec![
                powergrid::Branch::new(BusId(0), BusId(1), 1.0),
                powergrid::Branch::new(BusId(1), BusId(2), 1.0),
            ],
        );
        let ms = MeasurementSet::full(sys);
        let mut analyzer = SecurityIndexAnalyzer::new(&ms);
        for id in ms.ids() {
            assert_eq!(analyzer.index_of(id).index, 4, "{id}");
        }
    }

    #[test]
    fn clause_count_flat_across_queries() {
        let ms = MeasurementSet::full(case5());
        let mut analyzer = SecurityIndexAnalyzer::new(&ms);
        let before = analyzer.clauses();
        let distribution = analyzer.distribution();
        assert_eq!(
            analyzer.clauses(),
            before,
            "descending bounds must be assumptions, not clauses"
        );
        assert!(distribution.solves >= distribution.indices.len() / 2);
        assert!(distribution.min >= 1);
    }

    #[test]
    fn witness_prices_to_the_index() {
        let ms = MeasurementSet::full(ieee14());
        let mut analyzer = SecurityIndexAnalyzer::new(&ms);
        for id in ms.ids().take(8) {
            let report = analyzer.index_of(id);
            let support: Vec<bool> = (0..ms.system().num_buses())
                .map(|b| report.attack_buses.contains(&BusId(b)))
                .collect();
            assert_eq!(priced_affected(&ms, &support).len(), report.index, "{id}");
            assert!(report.affected.contains(&id), "{id}");
        }
    }

    /// Path 1–2–3–4 with every flow and injection measured, and the
    /// served cut of its middle line (source bus 2, sink bus 3).
    fn path4_middle_cut() -> (MeasurementSet, BranchCut) {
        let sys = powergrid::PowerSystem::new(
            "path4",
            4,
            (0..3)
                .map(|i| powergrid::Branch::new(BusId(i), BusId(i + 1), 1.0))
                .collect(),
        );
        let ms = MeasurementSet::full(sys);
        let mut cuts = min_cut_indices(&ms).unwrap().cuts;
        assert_eq!(cuts[1].branch, BranchId(1));
        (ms, cuts.swap_remove(1))
    }

    /// Adds `delta` units on the arc `from → to`, listing it if absent.
    fn bump(cut: &mut BranchCut, from: FlowNode, to: FlowNode, delta: usize) {
        match cut.flows.iter_mut().find(|a| a.from == from && a.to == to) {
            Some(arc) => arc.flow += delta,
            None => cut.flows.push(powergrid::securityindex::ArcFlow {
                from,
                to,
                flow: delta,
            }),
        }
    }

    fn flow_error(ms: &MeasurementSet, cut: &BranchCut) -> String {
        check_flow(ms, &gadget_capacities(ms), cut).unwrap_err()
    }

    #[test]
    fn flow_checker_accepts_served_cuts() {
        let (ms, cut) = path4_middle_cut();
        assert_eq!(check_flow(&ms, &gadget_capacities(&ms), &cut), Ok(()));
        let certify = CertifyOptions::enabled();
        let served = served_distribution(&MeasurementSet::full(ieee14()), &certify).unwrap();
        assert_eq!(served.cert_failures, 0);
        assert_eq!(certify.log.failures(), 0);
    }

    #[test]
    fn flow_checker_rejects_a_flow_above_capacity() {
        // Bus 2 → bus 3 carries both measured flows: capacity 2.
        let (ms, mut cut) = path4_middle_cut();
        bump(
            &mut cut,
            FlowNode::Bus(BusId(1)),
            FlowNode::Bus(BusId(2)),
            1,
        );
        assert!(flow_error(&ms, &cut).contains("exceeds its capacity 2"));
    }

    #[test]
    fn flow_checker_rejects_an_arc_outside_the_gadget() {
        let (ms, mut cut) = path4_middle_cut();
        bump(
            &mut cut,
            FlowNode::Bus(BusId(0)),
            FlowNode::Bus(BusId(2)),
            1,
        );
        assert!(flow_error(&ms, &cut).contains("not a gadget arc"));
    }

    #[test]
    fn flow_checker_rejects_broken_conservation() {
        // Each bump touches one node besides the source and sink, which
        // must be named: bus 1 (via p_bus2, whose imbalance sorts
        // after it), p_bus4 (into the sink) and q_bus1 (out of the
        // source).
        for (from, to, node) in [
            (FlowNode::P(BusId(1)), FlowNode::Bus(BusId(0)), "at bus1 "),
            (FlowNode::P(BusId(3)), FlowNode::Bus(BusId(2)), "at p_bus4 "),
            (FlowNode::Bus(BusId(1)), FlowNode::Q(BusId(0)), "at q_bus1 "),
        ] {
            let (ms, mut cut) = path4_middle_cut();
            bump(&mut cut, from, to, 1);
            let error = flow_error(&ms, &cut);
            assert!(
                error.contains("not conserved") && error.contains(node),
                "{from}→{to}: {error}"
            );
        }
    }

    #[test]
    fn flow_checker_rejects_a_value_the_flow_does_not_carry() {
        let (ms, mut cut) = path4_middle_cut();
        cut.value += 1;
        assert!(flow_error(&ms, &cut).contains("net flow out of bus2"));
    }

    #[test]
    fn component_checker_rejects_a_witness_that_does_not_separate() {
        let (ms, cut) = path4_middle_cut();
        let flow = MeasurementId(1); // P(line2)
        let lower = [Ok(())];
        let claimed = cut.value;
        let check = |cut: &BranchCut, claimed| {
            check_component(&ms, std::slice::from_ref(cut), &lower, flow, claimed)
        };
        assert!(check(&cut, claimed).is_ok());
        assert!(check(&cut, claimed + 1)
            .unwrap_err()
            .contains("lower bound"));
        let mut joined = cut.clone();
        joined.witness.push(BusId(2));
        assert!(check(&joined, claimed)
            .unwrap_err()
            .contains("does not separate"));
    }

    #[test]
    fn served_certificates_catch_both_faults() {
        let ms = MeasurementSet::full(case5());
        for fault in [CertFault::CorruptProof, CertFault::CorruptModel] {
            let mut options = CertifyOptions::enabled();
            options.fault = Some(fault);
            let served = served_distribution(&ms, &options).unwrap();
            let components = ms.unique_components().len();
            assert_eq!(served.cert_failures, components, "{fault:?}");
            assert_eq!(options.log.failures(), components as u64, "{fault:?}");
        }
    }

    #[test]
    fn certified_queries_check_and_fault_injection_is_caught() {
        let ms = MeasurementSet::full(case5());
        let certify = CertifyOptions::enabled();
        let mut analyzer = SecurityIndexAnalyzer::with_certification(&ms, &certify);
        let report = analyzer.index_of(MeasurementId(0));
        match report.certificate {
            Some(Certificate::Proof { .. }) | Some(Certificate::Threat { .. }) => {}
            other => panic!("expected a passing certificate, got {other:?}"),
        }
        assert_eq!(certify.log.failures(), 0);

        for fault in [CertFault::CorruptProof, CertFault::CorruptModel] {
            let mut options = CertifyOptions::enabled();
            options.fault = Some(fault);
            let mut analyzer = SecurityIndexAnalyzer::with_certification(&ms, &options);
            let report = analyzer.index_of(MeasurementId(0));
            assert!(
                report.certificate.as_ref().is_some_and(|c| c.is_failure()),
                "{fault:?} must be rejected, got {:?}",
                report.certificate
            );
            assert_eq!(options.log.failures(), 1, "{fault:?}");
        }
    }
}
