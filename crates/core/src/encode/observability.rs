//! Observability encoding (§III-C, §III-D).
//!
//! Shared between plain and secured observability: given one delivery
//! expression per measurement (`D_Z` or `S_Z`), build
//!
//! * `DE_X ⟺ ∨_{Z : X ∈ StateSet_Z} D_Z` per state,
//! * `DelUMsr_E ⟺ ∨_{Z ∈ UMsrSet_E} D_Z` per electrical component,
//! * a unary counter over the `DelUMsr_E` literals, capped at `n` outputs,
//! * `Observable ⟺ (∧_X DE_X) ∧ (Σ_E DelUMsr_E ≥ n)`.
//!
//! The count threshold uses `n` (number of states), reading the paper's
//! `< m` in the `~Observability` equation as the typo its prose and its
//! secured twin (`< n`) indicate.

use boolexpr::{Encoder, ExprPool, NodeRef, UnaryCounter};
use satcore::{Lit, Solver};

use crate::input::AnalysisInput;

/// The literals produced by one observability encoding.
#[derive(Debug, Clone)]
pub(crate) struct ObservabilityLits {
    /// Per-measurement delivery literal (`D_Z` or `S_Z`).
    pub per_measurement: Vec<Lit>,
    /// `Observable` (full biconditional definition).
    pub observable: Lit,
}

/// Encodes the observability predicate over per-measurement delivery
/// expressions.
pub(crate) fn encode_observability(
    input: &AnalysisInput,
    pool: &mut ExprPool,
    enc: &mut Encoder,
    solver: &mut Solver,
    meas_exprs: &[NodeRef],
) -> ObservabilityLits {
    let ms = &input.measurements;
    let n = ms.num_states();

    // DE_X per state.
    let mut de_states: Vec<NodeRef> = Vec::with_capacity(n);
    let mut covering: Vec<Vec<NodeRef>> = vec![Vec::new(); n];
    for z in ms.ids() {
        for x in ms.state_set(z) {
            covering[x].push(meas_exprs[z.index()]);
        }
    }
    for c in covering {
        de_states.push(pool.or(c));
    }

    // DelUMsr_E per component group, reified for the counter.
    let group_lits: Vec<Lit> = ms
        .unique_components()
        .iter()
        .map(|group| {
            let members: Vec<NodeRef> = group.iter().map(|z| meas_exprs[z.index()]).collect();
            let expr = pool.or(members);
            enc.literal(pool, expr, solver)
        })
        .collect();
    // Only `Σ ≥ n` is read, so the counter stops at n outputs.
    let counter = UnaryCounter::build_capped(solver, &group_lits, n);
    let count_ok: NodeRef = match counter.geq_lit(n) {
        Some(l) => pool.lit(l),
        // Fewer groups than states: the count condition can never hold.
        None => pool.fls(),
    };

    let mut conjuncts = de_states;
    conjuncts.push(count_ok);
    let observable_expr = pool.and(conjuncts);
    let observable = enc.literal(pool, observable_expr, solver);

    let per_measurement: Vec<Lit> = meas_exprs
        .iter()
        .map(|&e| enc.literal(pool, e, solver))
        .collect();

    ObservabilityLits {
        per_measurement,
        observable,
    }
}
