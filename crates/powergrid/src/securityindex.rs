//! Security index by min-cut (Hendrickx et al., arXiv:1204.6174).
//!
//! The *security index* of measurement `k` is the size of the sparsest
//! undetectable false-data attack that touches `k`: a state perturbation
//! `c` whose measurement image `a = H·c` has `a_k ≠ 0`, minimizing
//! `‖a‖₀`. For the DC measurement model, where every Jacobian entry has
//! the sign structure of the incidence matrix and all susceptances are
//! positive, Hendrickx et al. prove *binary* perturbations
//! (`c ∈ {0, 1}^buses`) are optimal: an injection's attack component is
//! a same-sign sum over its cut incident lines, so no cancellation is
//! possible. The problem becomes combinatorial — choose a bus set `S`
//! (`c_i = 1 ⟺ i ∈ S`) and pay
//!
//! * one per *measured flow* on a line with exactly one endpoint in `S`
//!   (its flow changes), and
//! * one per *measured injection* at a bus incident to such a cut line
//!   (its net injection changes),
//!
//! minimized over all `S` separating the target's endpoints. That is a
//! minimum `s`–`t` cut, computed here by max-flow over a gadget graph:
//!
//! * each line carries antiparallel arcs with capacity = its measured
//!   flow count (0, 1, or 2);
//! * each injection-measured bus `v` gets two auxiliary nodes charging
//!   one unit exactly when `v` lies on the cut boundary: `p_v` with
//!   `v → p_v` (capacity 1) and `p_v → u` (∞) for each neighbor `u`
//!   (fires when `v ∈ S` has a neighbor outside), and `q_v` with
//!   `q_v → v` (capacity 1) and `u → q_v` (∞) for each neighbor
//!   (fires when `v ∉ S` has a neighbor inside).
//!
//! The cheapest attack that cuts line `(x, y)` is the min cut with `x`
//! on the source side and `y` on the sink side (one orientation
//! suffices — the cost is invariant under complementing `S`). A flow
//! measurement is touched exactly when its line is cut, so its index is
//! its line's cut value; an injection at `v` is touched when *some*
//! incident line is cut, so its index is the minimum over those lines'
//! cut values. The gadget is built once per measurement set and each
//! distinct line gets one max-flow, on a fresh copy of its capacities.
//!
//! Every cut is returned with both halves of its certificate: the
//! maximum flow (arc by arc, on canonically named nodes — a lower bound
//! by weak duality) and the source-side bus set (an attack achieving
//! the value — an upper bound). `scada_analyzer::security_index` checks
//! both without this module's code, and implements the same quantity by
//! cardinality-minimizing SAT as the differential oracle.

use std::fmt;

use crate::measurement::{MeasurementId, MeasurementKind, MeasurementSet};
use crate::system::{BranchId, BusId};

/// A node of the gadget flow network, named by the bus it belongs to so
/// a checker can rebuild the network's arcs from the measurement list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlowNode {
    /// A grid bus.
    Bus(BusId),
    /// `p_v`: charges `v`'s injection when `v ∈ S` has a neighbor
    /// outside `S`.
    P(BusId),
    /// `q_v`: charges `v`'s injection when `v ∉ S` has a neighbor
    /// inside `S`.
    Q(BusId),
}

impl fmt::Display for FlowNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowNode::Bus(v) => write!(f, "{v}"),
            FlowNode::P(v) => write!(f, "p_{v}"),
            FlowNode::Q(v) => write!(f, "q_{v}"),
        }
    }
}

/// The flow a maximum flow routes over one gadget arc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArcFlow {
    /// The arc's tail.
    pub from: FlowNode,
    /// The arc's head.
    pub to: FlowNode,
    /// Units routed (always positive in a [`BranchCut`]).
    pub flow: usize,
}

/// The cheapest attack that cuts one line, with its certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchCut {
    /// The line; its `from` end is the source, its `to` end the sink.
    pub branch: BranchId,
    /// The max-flow value, equal to the min-cut capacity: the number of
    /// measurements the cheapest attack cutting this line perturbs.
    pub value: usize,
    /// The min cut's source-side buses, in bus order: an attacked bus
    /// set `S` that contains the line's `from` end but not its `to` end.
    pub witness: Vec<BusId>,
    /// The maximum flow, as its positive arc flows.
    pub flows: Vec<ArcFlow>,
}

/// Every measurement's security index, with the cuts that determine it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinCutIndices {
    /// Per-measurement indices, in measurement order.
    pub indices: Vec<usize>,
    /// One cut per line that some measurement depends on (its own line
    /// for a flow, every incident line for an injection), in branch
    /// order. Its length is the number of max-flows run.
    pub cuts: Vec<BranchCut>,
}

/// Why the security indices of a measurement set cannot be computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecurityIndexError {
    /// An injection measured at a bus with no incident line: no attack
    /// changes it, so it has no index.
    Unattackable {
        /// The injection measurement.
        measurement: MeasurementId,
        /// Its bus.
        bus: BusId,
    },
    /// A min cut's source side prices differently from its max-flow
    /// value, which means the gadget construction is wrong.
    WitnessMismatch {
        /// The line whose cut disagreed.
        branch: BranchId,
        /// The max-flow value.
        value: usize,
        /// The witness priced against the measurement list.
        priced: usize,
    },
}

impl fmt::Display for SecurityIndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SecurityIndexError::Unattackable { measurement, bus } => write!(
                f,
                "measurement {measurement} is an injection at {bus}, which has no incident \
                 line: no attack can change it, so it has no security index"
            ),
            SecurityIndexError::WitnessMismatch {
                branch,
                value,
                priced,
            } => write!(
                f,
                "min-cut witness for {branch} prices to {priced} measurements, \
                 but the max-flow value is {value}"
            ),
        }
    }
}

impl std::error::Error for SecurityIndexError {}

/// A flow network in flat form. Arcs come in pairs — a forward arc `2k`
/// and its zero-capacity reverse `2k + 1` — so `a ^ 1` is always the
/// partner, and arc `a` runs from `head[a ^ 1]` to `head[a]`.
/// Residual capacities live in a separate vector, so each max-flow
/// starts from a plain copy of the initial capacities.
#[derive(Debug)]
struct FlowNet {
    /// Each node's arcs are `out[first[v]..first[v + 1]]`.
    first: Vec<usize>,
    out: Vec<usize>,
    head: Vec<usize>,
    /// Initial capacity of every arc.
    cap: Vec<usize>,
}

impl FlowNet {
    /// Builds the network from its forward arcs `(from, to, capacity)`;
    /// forward arc `k` becomes arc `2k`.
    fn new(nodes: usize, arcs: &[(usize, usize, usize)]) -> FlowNet {
        let mut head = Vec::with_capacity(2 * arcs.len());
        let mut cap = Vec::with_capacity(2 * arcs.len());
        let mut degree = vec![0usize; nodes + 1];
        for &(from, to, c) in arcs {
            head.extend([to, from]);
            cap.extend([c, 0]);
            degree[from] += 1;
            degree[to] += 1;
        }
        let mut first = vec![0usize; nodes + 1];
        for v in 0..nodes {
            first[v + 1] = first[v] + degree[v];
        }
        let mut fill = first.clone();
        let mut out = vec![0usize; head.len()];
        for a in 0..head.len() {
            let tail = head[a ^ 1];
            out[fill[tail]] = a;
            fill[tail] += 1;
        }
        FlowNet {
            first,
            out,
            head,
            cap,
        }
    }

    /// Max flow from `s` to `t` by shortest augmenting paths. Each
    /// search stops as soon as it reaches `t`, so it explores only the
    /// neighbourhood the cut lies in. Returns the value, the residual
    /// capacities and the nodes the last (failed) search reached: the
    /// min cut's source side.
    fn max_flow(&self, s: usize, t: usize) -> (usize, Vec<usize>, Vec<bool>) {
        let nodes = self.first.len() - 1;
        let mut cap = self.cap.clone();
        let mut via = vec![0usize; nodes];
        let mut seen = vec![false; nodes];
        let mut queue = Vec::with_capacity(nodes);
        let mut value = 0;
        loop {
            seen.fill(false);
            seen[s] = true;
            queue.clear();
            queue.push(s);
            let mut next = 0;
            'search: while let Some(&u) = queue.get(next) {
                next += 1;
                for &a in &self.out[self.first[u]..self.first[u + 1]] {
                    let v = self.head[a];
                    if cap[a] > 0 && !seen[v] {
                        seen[v] = true;
                        via[v] = a;
                        if v == t {
                            break 'search;
                        }
                        queue.push(v);
                    }
                }
            }
            if !seen[t] {
                return (value, cap, seen);
            }
            let mut push = usize::MAX;
            let mut v = t;
            while v != s {
                push = push.min(cap[via[v]]);
                v = self.head[via[v] ^ 1];
            }
            let mut v = t;
            while v != s {
                cap[via[v]] -= push;
                cap[via[v] ^ 1] += push;
                v = self.head[via[v] ^ 1];
            }
            value += push;
        }
    }
}

/// The gadget network of one measurement set, built once and run once
/// per line. Node layout: buses `0..B`, then a `p_v`/`q_v` pair per
/// injection-measured bus.
struct Gadget {
    net: FlowNet,
    /// The canonical name of every node.
    names: Vec<FlowNode>,
}

impl Gadget {
    fn build(ms: &MeasurementSet) -> Gadget {
        let sys = ms.system();
        let buses = sys.num_buses();
        let mut flow_weight = vec![0usize; sys.num_branches()];
        let mut injection = vec![false; buses];
        for &kind in ms.kinds() {
            match kind {
                MeasurementKind::FlowForward(b) | MeasurementKind::FlowBackward(b) => {
                    flow_weight[b.index()] += 1;
                }
                MeasurementKind::Injection(v) => injection[v.index()] = true,
            }
        }
        let mut names: Vec<FlowNode> = sys.buses().map(FlowNode::Bus).collect();
        for v in sys.buses().filter(|v| injection[v.index()]) {
            names.push(FlowNode::P(v));
            names.push(FlowNode::Q(v));
        }
        let mut arcs = Vec::new();
        // Any capacity strictly above the largest finite cut acts as ∞.
        let infinite = ms.len() + 1;

        for (bi, branch) in sys.branches().iter().enumerate() {
            let w = flow_weight[bi];
            if w > 0 {
                arcs.push((branch.from.index(), branch.to.index(), w));
                arcs.push((branch.to.index(), branch.from.index(), w));
            }
        }
        let mut aux = buses;
        for v in sys.buses().filter(|v| injection[v.index()]) {
            let (p, q) = (aux, aux + 1);
            aux += 2;
            arcs.push((v.index(), p, 1));
            arcs.push((q, v.index(), 1));
            for u in sys.neighbors(v) {
                arcs.push((p, u.index(), infinite));
                arcs.push((u.index(), q, infinite));
            }
        }
        Gadget {
            net: FlowNet::new(names.len(), &arcs),
            names,
        }
    }

    /// The min cut separating `branch`'s `from` end from its `to` end.
    fn cut(&self, ms: &MeasurementSet, branch: BranchId) -> Result<BranchCut, SecurityIndexError> {
        let sys = ms.system();
        let ends = sys.branch(branch);
        let (value, residual, reachable) = self.net.max_flow(ends.from.index(), ends.to.index());
        let in_s = &reachable[..sys.num_buses()];
        let priced = priced(ms, in_s);
        if priced != value {
            return Err(SecurityIndexError::WitnessMismatch {
                branch,
                value,
                priced,
            });
        }
        let flows = (0..self.net.cap.len())
            .step_by(2)
            .filter_map(|a| {
                let flow = self.net.cap[a] - residual[a];
                (flow > 0).then(|| ArcFlow {
                    from: self.names[self.net.head[a ^ 1]],
                    to: self.names[self.net.head[a]],
                    flow,
                })
            })
            .collect();
        Ok(BranchCut {
            branch,
            value,
            witness: sys.buses().filter(|b| in_s[b.index()]).collect(),
            flows,
        })
    }
}

/// The number of measurements perturbed by the binary attack `S` (bus
/// support), priced directly from the measurement list — the cut value
/// recomputed without the flow network, used to cross-check the witness.
fn priced(ms: &MeasurementSet, in_s: &[bool]) -> usize {
    let sys = ms.system();
    let cut = |b: BranchId| {
        let branch = sys.branch(b);
        in_s[branch.from.index()] != in_s[branch.to.index()]
    };
    ms.kinds()
        .iter()
        .filter(|&&kind| match kind {
            MeasurementKind::FlowForward(b) | MeasurementKind::FlowBackward(b) => cut(b),
            MeasurementKind::Injection(v) => sys.branches_at(v).iter().any(|&b| cut(b)),
        })
        .count()
}

/// Every measurement's security index, by one max-flow per line that
/// some measurement depends on.
///
/// # Errors
///
/// [`SecurityIndexError::Unattackable`] for an injection measured at a
/// bus with no incident line; [`SecurityIndexError::WitnessMismatch`]
/// if a cut's witness does not price to its value (a bug, checked on
/// every cut).
pub fn min_cut_indices(ms: &MeasurementSet) -> Result<MinCutIndices, SecurityIndexError> {
    let sys = ms.system();
    let mut needed = vec![false; sys.num_branches()];
    for id in ms.ids() {
        match ms.kind(id) {
            MeasurementKind::FlowForward(b) | MeasurementKind::FlowBackward(b) => {
                needed[b.index()] = true;
            }
            MeasurementKind::Injection(v) => {
                let incident = sys.branches_at(v);
                if incident.is_empty() {
                    return Err(SecurityIndexError::Unattackable {
                        measurement: id,
                        bus: v,
                    });
                }
                for &b in incident {
                    needed[b.index()] = true;
                }
            }
        }
    }

    let gadget = Gadget::build(ms);
    let mut value_of = vec![usize::MAX; sys.num_branches()];
    let mut cuts = Vec::new();
    for b in (0..sys.num_branches()).filter(|&b| needed[b]).map(BranchId) {
        let cut = gadget.cut(ms, b)?;
        value_of[b.index()] = cut.value;
        cuts.push(cut);
    }
    let indices = ms
        .ids()
        .map(|id| match ms.kind(id) {
            MeasurementKind::FlowForward(b) | MeasurementKind::FlowBackward(b) => {
                value_of[b.index()]
            }
            MeasurementKind::Injection(v) => sys
                .branches_at(v)
                .iter()
                .map(|b| value_of[b.index()])
                .min()
                .unwrap_or(usize::MAX),
        })
        .collect();
    Ok(MinCutIndices { indices, cuts })
}

/// The full index distribution: the security index of every measurement
/// in `ms`, in measurement order.
///
/// # Panics
///
/// Panics where [`min_cut_indices`] returns an error, e.g. for an
/// injection measured at a bus with no incident line.
pub fn security_indices(ms: &MeasurementSet) -> Vec<usize> {
    match min_cut_indices(ms) {
        Ok(mincut) => mincut.indices,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ieee::{case5, ieee14};
    use crate::system::{Branch, PowerSystem};

    /// A path 1–2–3 with both flows on each line and all injections.
    fn path3_full() -> MeasurementSet {
        let sys = PowerSystem::new(
            "path3",
            3,
            vec![
                Branch::new(BusId(0), BusId(1), 1.0),
                Branch::new(BusId(1), BusId(2), 1.0),
            ],
        );
        MeasurementSet::full(sys)
    }

    #[test]
    fn path_indices_by_hand() {
        let ms = path3_full();
        // Measurements: P(l1) P(l2) P'(l1) P'(l2) inj1 inj2 inj3.
        // Attacking line 1 alone (S = {bus1}): both its flows change,
        // plus injections at buses 1 and 2 → 4. Cutting both lines
        // (S = {bus2}) costs 4 + all three injections = 7, and cutting
        // nothing affects nothing, so 4 is optimal for every target
        // touching line 1. The middle injection can pick either line,
        // also 4.
        let got = min_cut_indices(&ms).unwrap();
        assert_eq!(got.indices, vec![4; 7]);
        assert_eq!(got.cuts.len(), 2, "one max-flow per line");
        assert_eq!(got.cuts[0].branch, BranchId(0));
        assert_eq!(got.cuts[0].witness, vec![BusId(0)]);
        assert_eq!(priced(&ms, &[true, false, false]), 4);
    }

    #[test]
    fn flow_only_indices_are_edge_connectivities() {
        // With no injections, the cost of S is just the number of
        // measured-flow arcs cut: for a triangle with one flow per
        // line, separating any two buses costs exactly 2.
        let sys = PowerSystem::new(
            "triangle",
            3,
            vec![
                Branch::new(BusId(0), BusId(1), 1.0),
                Branch::new(BusId(1), BusId(2), 1.0),
                Branch::new(BusId(0), BusId(2), 1.0),
            ],
        );
        let kinds = (0..3).map(|i| MeasurementKind::FlowForward(BranchId(i)));
        let ms = MeasurementSet::new(sys, kinds.collect());
        assert_eq!(security_indices(&ms), vec![2, 2, 2]);
    }

    #[test]
    fn unmeasured_lines_are_free_to_cut() {
        // Square 1-2-3-4-1; only line 1-2 measured. Cutting around the
        // square's other lines costs nothing, so the index is 1, and
        // only the measured line needs a max-flow.
        let sys = PowerSystem::new(
            "square",
            4,
            vec![
                Branch::new(BusId(0), BusId(1), 1.0),
                Branch::new(BusId(1), BusId(2), 1.0),
                Branch::new(BusId(2), BusId(3), 1.0),
                Branch::new(BusId(3), BusId(0), 1.0),
            ],
        );
        let ms = MeasurementSet::new(sys, vec![MeasurementKind::FlowForward(BranchId(0))]);
        let got = min_cut_indices(&ms).unwrap();
        assert_eq!(got.indices, vec![1]);
        assert_eq!(got.cuts.len(), 1);
        assert_eq!(got.cuts[0].flows.len(), 1);
    }

    #[test]
    fn cut_invariants_hold_on_ieee_cases() {
        for sys in [case5(), ieee14()] {
            let ms = MeasurementSet::full(sys);
            let got = min_cut_indices(&ms).unwrap();
            assert_eq!(got.cuts.len(), ms.system().num_branches());
            for cut in &got.cuts {
                let ends = ms.system().branch(cut.branch);
                assert!(cut.witness.contains(&ends.from), "{}", cut.branch);
                assert!(!cut.witness.contains(&ends.to), "{}", cut.branch);
                let out: usize = cut
                    .flows
                    .iter()
                    .filter(|a| a.from == FlowNode::Bus(ends.from))
                    .map(|a| a.flow)
                    .sum();
                assert_eq!(out, cut.value, "{}", cut.branch);
            }
            assert!(got.indices.iter().all(|&i| (1..=ms.len()).contains(&i)));
        }
    }

    #[test]
    fn forward_and_backward_flows_share_an_index() {
        let ms = MeasurementSet::full(ieee14());
        let branches = ms.system().num_branches();
        let all = security_indices(&ms);
        for b in 0..branches {
            // full() lays out forwards then backwards, branch order.
            assert_eq!(all[b], all[branches + b], "line{}", b + 1);
        }
    }

    #[test]
    fn isolated_injection_is_an_error_naming_its_bus() {
        let sys = PowerSystem::new("island", 3, vec![Branch::new(BusId(0), BusId(1), 1.0)]);
        let ms = MeasurementSet::new(
            sys,
            vec![
                MeasurementKind::FlowForward(BranchId(0)),
                MeasurementKind::Injection(BusId(2)),
            ],
        );
        let err = min_cut_indices(&ms).unwrap_err();
        assert_eq!(
            err,
            SecurityIndexError::Unattackable {
                measurement: MeasurementId(1),
                bus: BusId(2)
            }
        );
        assert!(err.to_string().contains("bus3"), "{err}");
    }
}
