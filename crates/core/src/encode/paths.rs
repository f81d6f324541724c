//! The forwarding-path table `P_I` of one model version (§III-C/D).
//!
//! Both the SAT encoder and the direct evaluator quantify over the same
//! per-IED path sets, so a model version enumerates them once:
//! [`crate::Analyzer`] builds the table on construction and on every
//! patch and hands the same [`PathTable`] to the encoder and to the
//! evaluator. The evaluator stays an independent oracle for what it
//! checks — delivery, observability and detectability evaluated by
//! walking paths under a concrete failure set, with no SAT — while the
//! path sets themselves are `scadasim::paths` semantics either way.
//!
//! A `set_profile` patch usually keeps the table's paths:
//! [`paths_after_set_profile`] reuses every IED's assured paths when the
//! patched pair was crypto-compatible already, and re-filters secured
//! paths only for IEDs whose paths pass through both endpoints.

use std::sync::Arc;

use scadasim::paths::{forwarding_paths, links_of_path, path_secured, ForwardingPath};
use scadasim::DeviceId;

use crate::input::AnalysisInput;

/// One forwarding path with the link indices it traverses. The link
/// indices are captured at enumeration time so the incremental encoder
/// can diff path sets *including* their physical links: a rewire that
/// swaps which of two parallel links carries a hop changes this pair
/// even though the device sequence is unchanged.
pub(crate) type PathWithLinks = (ForwardingPath, Vec<usize>);

/// The enumerated paths of one IED, split by security. `PartialEq` is
/// the incremental encoder's dirtiness test (see
/// [`crate::encode::ModelEncoder::apply_delta`]): equal path sets mean
/// the IED's delivery expressions are unchanged by a model delta. The
/// sets are shared, so a table built from its predecessor compares a
/// kept set by pointer.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct IedPaths {
    /// All forwarding paths (assured delivery).
    pub all: Arc<[PathWithLinks]>,
    /// Paths whose every security hop is secured (secured delivery), in
    /// `all`'s order.
    pub secured: Arc<[PathWithLinks]>,
}

/// Path sets per device index (non-IEDs get empty entries), shared
/// between the encoder and the evaluator of one model version.
pub(crate) type PathTable = Arc<[IedPaths]>;

/// Enumerates the path table of `input`.
pub(crate) fn enumerate_paths(input: &AnalysisInput) -> PathTable {
    let mut out = vec![IedPaths::default(); input.topology.num_devices()];
    for ied in input.topology.ieds() {
        let all: Vec<PathWithLinks> =
            forwarding_paths(&input.topology, ied.id(), &input.path_limits)
                .into_iter()
                .map(|p| {
                    let links = links_of_path(&input.topology, &p);
                    (p, links)
                })
                .collect();
        out[ied.id().index()] = IedPaths {
            secured: secured_subset(input, &all),
            all: all.into(),
        };
    }
    out.into()
}

/// The paths of `all` that are secured in `input`, in order.
fn secured_subset(input: &AnalysisInput, all: &[PathWithLinks]) -> Arc<[PathWithLinks]> {
    all.iter()
        .filter(|(p, _)| path_secured(&input.topology, &input.policy, p))
        .cloned()
        .collect()
}

/// The path table of `next`: the model `prev` with a `set_profile` on
/// the pair `(a, b)` applied, whose table was `prev_table`.
///
/// An explicit entry makes its pair crypto-compatible
/// ([`scadasim::Topology::crypto_pairing`]), so a new entry may open a
/// hop; the table is then enumerated from scratch. When the pair was
/// compatible already (it had an entry, or its devices pair at device
/// level), every hop stays as it was and so does every IED's `all`
/// set. Only path security can change, and only on a path through both
/// `a` and `b`: `path_secured` reads no other pair's profiles anew. So
/// those IEDs re-filter `secured` from `all`, as [`enumerate_paths`]
/// does, and the rest keep theirs. The result equals
/// `enumerate_paths(next)`.
pub(crate) fn paths_after_set_profile(
    prev: &AnalysisInput,
    prev_table: &PathTable,
    next: &AnalysisInput,
    a: DeviceId,
    b: DeviceId,
) -> PathTable {
    if !prev.topology.crypto_pairing(a, b) {
        return enumerate_paths(next);
    }
    prev_table
        .iter()
        .map(|paths| {
            let through = |(p, _): &PathWithLinks| p.contains(&a) && p.contains(&b);
            IedPaths {
                all: Arc::clone(&paths.all),
                secured: if paths.all.iter().any(through) {
                    secured_subset(next, &paths.all)
                } else {
                    Arc::clone(&paths.secured)
                },
            }
        })
        .collect()
}
