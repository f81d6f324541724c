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

use std::sync::Arc;

use scadasim::paths::{forwarding_paths, links_of_path, path_secured, ForwardingPath};

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
/// the IED's delivery expressions are unchanged by a model delta.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct IedPaths {
    /// All forwarding paths (assured delivery).
    pub all: Vec<PathWithLinks>,
    /// Paths whose every security hop is secured (secured delivery).
    pub secured: Vec<PathWithLinks>,
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
        let secured = all
            .iter()
            .filter(|(p, _)| path_secured(&input.topology, &input.policy, p))
            .cloned()
            .collect();
        out[ied.id().index()] = IedPaths { all, secured };
    }
    out.into()
}
