//! `Topology::validate` stops its reachability search at the first path;
//! it must still flag exactly the non-retired IEDs that have no
//! forwarding path at the default limits.

use powergrid::synthetic::synthetic_system;
use proptest::prelude::*;
use scadasim::paths::{forwarding_paths, PathLimits};
use scadasim::{generate, DeviceId, DeviceKind, ScadaGenConfig, TopologyError};

/// Generates a topology, retires about one in four field devices (picked
/// by `mask`), checks `validate` against full path enumeration, and
/// returns how many IEDs it flagged.
fn check(seed: u64, hierarchy_level: usize, rtu_cross_links: f64, mask: u64) -> usize {
    let cfg = ScadaGenConfig {
        hierarchy_level,
        rtu_cross_links,
        seed,
        ..Default::default()
    };
    let mut topology = generate(synthetic_system("reach", 12, 16, seed), &cfg).topology;
    let field: Vec<DeviceId> = topology
        .devices()
        .iter()
        .filter(|d| d.kind() != DeviceKind::Mtu)
        .map(|d| d.id())
        .collect();
    for (i, id) in field.into_iter().enumerate() {
        if (mask >> (2 * i % 64)) & 3 == 0 {
            topology.retire_device(id);
        }
    }
    let flagged: Vec<TopologyError> = topology.validate();
    let expected: Vec<TopologyError> = topology
        .ieds()
        .filter(|d| !d.retired())
        .filter(|d| forwarding_paths(&topology, d.id(), &PathLimits::default()).is_empty())
        .map(|d| TopologyError::Unreachable(d.id()))
        .collect();
    assert_eq!(flagged, expected, "seed {seed}, mask {mask:#x}");
    flagged.len()
}

#[test]
fn retirement_cuts_some_ieds_off() {
    // Keeps the property below from holding vacuously.
    let flagged: usize = (0..16).map(|s| check(s, 2, 0.3, s * 0x9e37_79b9)).sum();
    assert!(flagged > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn validate_flags_exactly_the_unreachable_ieds(
        seed in 0u64..10_000,
        hierarchy in 1usize..4,
        cross_links in 0.0f64..0.6,
        mask in any::<u64>(),
    ) {
        check(seed, hierarchy, cross_links, mask);
    }
}
