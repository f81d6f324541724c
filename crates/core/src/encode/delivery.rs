//! Delivery constraints (§III-C, §III-D).
//!
//! `AssuredDelivery_I` holds iff some forwarding path from IED `I` to the
//! MTU has every device available (links are static; statically
//! incompatible hops were already excluded when the model's path table,
//! [`super::paths`], was built).
//! `SecuredDelivery_I` additionally requires every security hop of the
//! path to be authenticated and integrity-protected under the policy.
//!
//! Both are built as pool expressions over the per-device availability
//! literals, so the Tseitin encoder defines them as biconditionals — the
//! soundness fix described in DESIGN.md.

use boolexpr::{ExprPool, NodeRef};
use satcore::Lit;
use scadasim::DeviceId;

use super::paths::PathWithLinks;
use crate::input::AnalysisInput;

/// `∨_paths (∧_{devices on path} Node_d ∧ ∧_{links on path} LinkUp_l)`
/// over availability literals.
pub(crate) fn delivery_expr(
    pool: &mut ExprPool,
    node: &[Lit],
    link_up: &[Lit],
    paths: &[PathWithLinks],
) -> NodeRef {
    let path_exprs: Vec<NodeRef> = paths
        .iter()
        .map(|(p, links)| {
            let mut lits: Vec<NodeRef> = p.iter().map(|d| pool.lit(node[d.index()])).collect();
            lits.extend(links.iter().map(|&li| pool.lit(link_up[li])));
            pool.and(lits)
        })
        .collect();
    pool.or(path_exprs)
}

/// Per-measurement delivery expressions: the recording IED's delivery
/// expression, or constant false for unrecorded measurements.
pub(crate) fn measurement_exprs(
    input: &AnalysisInput,
    pool: &mut ExprPool,
    per_ied: &[NodeRef],
) -> Vec<NodeRef> {
    let recorded_by: Vec<Option<DeviceId>> = input.recorded_by();
    recorded_by
        .iter()
        .map(|by| match by {
            Some(ied) => per_ied[ied.index()],
            None => pool.fls(),
        })
        .collect()
}
