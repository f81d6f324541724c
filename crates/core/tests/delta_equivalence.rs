//! Delta-equivalence properties: a warm analyzer mutated by a random
//! patch sequence must answer exactly like a cold analyzer built from
//! the final model — verify, max-resiliency, and enumeration, with and
//! without certified verdicts.
//!
//! Patch proposals are drawn against the *evolving* model (device and
//! link counts shift as patches land), and invalid proposals are part
//! of the property: a patch the validator rejects must be rejected by
//! the warm session too, leaving it unchanged. A separate regression
//! test pins the proof-flush-at-patch-boundary behaviour: proof steps
//! learned before a patch must be drained into the session checker
//! (and their `patch-<n>.drat` file) before the encoder mutates, or
//! later replays interleave clauses from two encodings. A last property
//! drives `set_profile` sequences, which keep the session's path table
//! where no hop can open, and checks the table against a fresh
//! enumeration after every patch.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;
use scada_analyzer::bruteforce::DirectEvaluator;
use scada_analyzer::{
    enumerate_threats_with, AnalysisInput, Analyzer, BudgetAxis, CertifyOptions, MetricsRegistry,
    ModelPatch, Obs, Property, QueryLimits, ResiliencySpec, ThreatSpace,
};
use scadasim::{
    generate, CryptoAlgorithm, CryptoProfile, DeviceId, DeviceKind, Link, ScadaConfig,
    ScadaGenConfig, Topology,
};

const PROPERTIES: [Property; 3] = [
    Property::Observability,
    Property::SecuredObservability,
    Property::BadDataDetectability,
];

/// A small deterministically generated SCADA system (9 buses) — big
/// enough for patches to matter, small enough for hundreds of cases.
fn base_input(seed: u64) -> AnalysisInput {
    let system = powergrid::synthetic::synthetic_system("delta-eq", 9, 12, seed);
    let scada = generate(
        system,
        &ScadaGenConfig {
            measurement_density: 0.7,
            hierarchy_level: 1,
            secure_fraction: 0.8,
            seed,
            ..Default::default()
        },
    );
    AnalysisInput::from(ScadaConfig {
        measurements: scada.measurements,
        topology: scada.topology,
        ied_measurements: scada.ied_measurements,
        resilience: (1, 1),
        corrupted: 1,
        link_failures: 0,
    })
}

/// Turns one random draw into a concrete patch against the current
/// model. Ids are reduced modulo the live device/link counts so most
/// proposals are applicable, but not all — rejection equivalence is
/// part of the property under test.
fn materialize(kind: usize, bits: u64, input: &AnalysisInput) -> ModelPatch {
    let n = input.topology.num_devices();
    let pick = |s: u64| DeviceId((s as usize) % n);
    match kind {
        0 => ModelPatch::AddDevice {
            kind: [DeviceKind::Ied, DeviceKind::Rtu, DeviceKind::Router][(bits % 3) as usize],
            peers: vec![pick(bits >> 2)],
        },
        1 => ModelPatch::RemoveDevice { id: pick(bits) },
        2 => ModelPatch::SetProfile {
            a: pick(bits),
            b: pick(bits >> 17),
            profiles: if bits.is_multiple_of(2) {
                vec![CryptoProfile::new(CryptoAlgorithm::Aes, 256)]
            } else {
                Vec::new()
            },
        },
        _ => ModelPatch::RewireLink {
            link: (bits as usize) % input.topology.links().len(),
            a: pick(bits >> 9),
            b: pick(bits >> 23),
        },
    }
}

/// Drives `choices` through the warm analyzer, mirroring accepted
/// patches onto `current`. Returns how many patches were accepted.
fn apply_sequence(
    warm: &mut Analyzer<'static>,
    current: &mut AnalysisInput,
    choices: &[(usize, u64)],
) -> usize {
    let mut applied = 0;
    for &(kind, bits) in choices {
        let patch = materialize(kind, bits, current);
        match patch.apply(current) {
            Ok(next) => {
                warm.apply_patch(&patch)
                    .unwrap_or_else(|e| panic!("valid patch `{patch}` rejected warm: {e}"));
                *current = next;
                applied += 1;
            }
            Err(_) => {
                assert!(
                    warm.apply_patch(&patch).is_err(),
                    "warm session accepted invalid patch `{patch}`"
                );
            }
        }
    }
    applied
}

/// Order-independent form of a threat space for comparison.
type CanonicalVectors = Vec<(Vec<usize>, Vec<usize>, Vec<usize>, Vec<(usize, usize)>)>;

fn canonical(space: &ThreatSpace) -> CanonicalVectors {
    let mut vectors: CanonicalVectors = space
        .vectors
        .iter()
        .map(|t| {
            (
                t.ieds.iter().map(|d| d.index()).collect(),
                t.rtus.iter().map(|d| d.index()).collect(),
                t.others.iter().map(|d| d.index()).collect(),
                t.links
                    .iter()
                    .map(|(a, b)| (a.index(), b.index()))
                    .collect(),
            )
        })
        .collect();
    vectors.sort();
    vectors
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Verify, maxres, and enumerate agree between a patched warm
    /// session and a cold rebuild of the final model.
    #[test]
    fn patched_warm_session_matches_cold_rebuild(
        seed in 0u64..1000,
        choices in proptest::collection::vec((0usize..4, any::<u64>()), 1..5),
    ) {
        let mut current = base_input(seed);
        let mut warm =
            Analyzer::owning(current.clone(), Obs::none(), CertifyOptions::default());
        // Warm the solver up before patching, as a service session would.
        warm.verify(Property::Observability, ResiliencySpec::split(1, 1));
        let applied = apply_sequence(&mut warm, &mut current, &choices);
        prop_assert_eq!(warm.patches_applied(), applied as u64);
        let mut cold =
            Analyzer::owning(current.clone(), Obs::none(), CertifyOptions::default());

        // The patched session's direct evaluator reads the path table
        // the patch handed it; it must judge every failure scenario of
        // size ≤ 1 exactly like the cold evaluator.
        let scenarios = std::iter::once((HashSet::new(), HashSet::new()))
            .chain(
                (0..current.topology.num_devices())
                    .map(|d| (HashSet::from([DeviceId(d)]), HashSet::new())),
            )
            .chain(
                (0..current.topology.links().len())
                    .map(|l| (HashSet::new(), HashSet::from([l]))),
            );
        for (devices, links) in scenarios {
            for property in PROPERTIES {
                prop_assert_eq!(
                    warm.evaluator().violates_full(property, 1, &devices, &links),
                    cold.evaluator().violates_full(property, 1, &devices, &links),
                    "evaluator {:?} diverged on devices {:?}, links {:?} after {} patch(es)",
                    property, devices, links, applied
                );
            }
        }

        for property in PROPERTIES {
            for spec in [
                ResiliencySpec::split(1, 1).with_corrupted(1),
                ResiliencySpec::total(2).with_corrupted(1),
            ] {
                let w = warm.verify(property, spec);
                let c = cold.verify(property, spec);
                prop_assert_eq!(
                    w.is_resilient(),
                    c.is_resilient(),
                    "verify({:?}, {}) diverged after {} patch(es)",
                    property, spec, applied
                );
            }
            prop_assert_eq!(
                warm.max_resiliency(property, BudgetAxis::Total, 1),
                cold.max_resiliency(property, BudgetAxis::Total, 1),
                "maxres({:?}) diverged after {} patch(es)",
                property, applied
            );
        }
        // Enumeration last: its blocking clauses poison later queries on
        // the same analyzer (both analyzers retire together here).
        let w = enumerate_threats_with(
            &mut warm,
            Property::Observability,
            ResiliencySpec::split(1, 1),
            64,
            &QueryLimits::none(),
        );
        let c = enumerate_threats_with(
            &mut cold,
            Property::Observability,
            ResiliencySpec::split(1, 1),
            64,
            &QueryLimits::none(),
        );
        prop_assert_eq!(canonical(&w), canonical(&c));
        prop_assert_eq!((w.truncated, w.undecided), (c.truncated, c.undecided));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same equivalence with certification on: every verdict on the
    /// patched warm session carries a valid certificate (DRAT proofs
    /// replay in the independent checker across patch boundaries).
    #[test]
    fn certified_verdicts_survive_patching(
        seed in 0u64..1000,
        choices in proptest::collection::vec((0usize..4, any::<u64>()), 1..4),
    ) {
        let mut current = base_input(seed);
        let certify = CertifyOptions::enabled();
        let mut warm = Analyzer::owning(current.clone(), Obs::none(), certify.clone());
        warm.verify(Property::Observability, ResiliencySpec::split(1, 1));
        apply_sequence(&mut warm, &mut current, &choices);
        let cold_certify = CertifyOptions::enabled();
        let mut cold = Analyzer::owning(current.clone(), Obs::none(), cold_certify.clone());

        for property in PROPERTIES {
            let spec = ResiliencySpec::split(1, 1).with_corrupted(1);
            let w = warm.verify_with_report(property, spec);
            let c = cold.verify_with_report(property, spec);
            prop_assert_eq!(w.verdict.is_resilient(), c.verdict.is_resilient());
            let cert = w.certificate.as_ref().expect("warm verdict must be certified");
            prop_assert!(
                !cert.is_failure(),
                "certificate failed on patched session: {:?}",
                cert
            );
        }
        prop_assert_eq!(certify.log.failures(), 0);
        prop_assert_eq!(cold_certify.log.failures(), 0);
    }
}

/// Regression: patch application waits on the proof flush. A patch
/// landing between two certified queries must drain the first query's
/// proof steps into the session checker and its own `patch-<n>.drat`
/// file *before* the encoder mutates — interleaving them with
/// post-patch clauses corrupted later replays.
#[test]
fn patch_boundary_flushes_proofs_between_certified_queries() {
    let dir = std::env::temp_dir().join(format!("scada-delta-{}-proofs", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let certify = CertifyOptions {
        proof_dir: Some(dir.clone()),
        ..CertifyOptions::enabled()
    };
    let input = base_input(7);
    let mtu = input.topology.mtu();
    let mut warm = Analyzer::owning(input, Obs::none(), certify.clone());

    for round in 0..3u32 {
        let report =
            warm.verify_with_report(Property::SecuredObservability, ResiliencySpec::split(1, 1));
        let cert = report.certificate.as_ref().expect("certified verdict");
        assert!(!cert.is_failure(), "round {round}: {cert:?}");
        let patch = ModelPatch::SetProfile {
            a: DeviceId(0),
            b: mtu,
            profiles: vec![CryptoProfile::new(
                CryptoAlgorithm::Aes,
                if round % 2 == 0 { 256 } else { 128 },
            )],
        };
        warm.apply_patch(&patch).expect("profile patch applies");
    }
    // One more certified query on the final model: its proof must not
    // contain steps from before the last boundary.
    let report = warm.verify_with_report(Property::SecuredObservability, ResiliencySpec::total(2));
    assert!(!report.certificate.as_ref().unwrap().is_failure());
    assert_eq!(certify.log.failures(), 0);
    assert!(certify.log.checks() >= 4);

    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    for n in 0..3 {
        let expect = format!("patch-{n:04}.drat");
        assert!(
            names.iter().any(|f| f == &expect),
            "missing {expect} in {names:?}"
        );
    }
    assert!(
        names.iter().any(|f| f.starts_with("query-")),
        "no per-query proofs in {names:?}"
    );
    for name in &names {
        let text = std::fs::read_to_string(dir.join(name)).unwrap();
        satcore::parse_drat(&text)
            .unwrap_or_else(|e| panic!("{name} is not a valid DRAT file: {e}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Failure counters start capped at 8 outputs and grow (cap doubled)
/// when a budget reads past the cap. A device added afterwards moves
/// the budget population and rebuilds them: the rebuild must keep the
/// grown cap — a budget of 9 then reads no new clause — and the patched
/// session must still answer like a cold build of the final model.
#[test]
fn device_added_after_counter_growth_keeps_the_grown_cap() {
    for seed in [3, 11, 29] {
        let mut current = base_input(seed);
        let ieds = current.topology.ieds().count();
        let rtus = current.topology.rtus().count();
        assert!(
            ieds > 8 && ieds + rtus > 8,
            "seed {seed}: population too small to grow"
        );
        let mut warm = Analyzer::owning(current.clone(), Obs::none(), CertifyOptions::default());
        let spec9 = ResiliencySpec::total(9).with_corrupted(1);
        let ieds9 = ResiliencySpec::split(9, 0).with_corrupted(1);
        let before = warm
            .verify_with_report(Property::Observability, ResiliencySpec::total(1))
            .encoding;
        warm.verify(Property::Observability, spec9);
        let grown = warm
            .verify_with_report(Property::Observability, ieds9)
            .encoding;
        assert!(grown.clauses > before.clauses, "seed {seed}: k=9 regrows");

        let rtu = current.topology.rtus().next().expect("an RTU").id();
        let patch = ModelPatch::AddDevice {
            kind: DeviceKind::Ied,
            peers: vec![rtu],
        };
        current = patch.apply(&current).expect("patch applies");
        let stats = warm.apply_patch(&patch).expect("patch applies warm");
        assert!(
            stats.counters_rebuilt,
            "seed {seed}: a new IED moves the population"
        );

        let rebuilt = warm
            .verify_with_report(Property::Observability, ResiliencySpec::total(0))
            .encoding;
        for spec in [spec9, ieds9] {
            let at_nine = warm
                .verify_with_report(Property::Observability, spec)
                .encoding;
            assert_eq!(
                at_nine.clauses, rebuilt.clauses,
                "seed {seed}: {spec} re-grew a counter the rebuild should have kept grown"
            );
        }

        let mut cold = Analyzer::owning(current.clone(), Obs::none(), CertifyOptions::default());
        for property in PROPERTIES {
            for k in [0, 1, 2, 3, 8, 9, 10] {
                for spec in [
                    ResiliencySpec::total(k).with_corrupted(1),
                    ResiliencySpec::split(k, 1).with_corrupted(1),
                    ResiliencySpec::split(1, k).with_corrupted(1),
                ] {
                    assert_eq!(
                        warm.verify(property, spec).is_resilient(),
                        cold.verify(property, spec).is_resilient(),
                        "seed {seed}: verify({property}, {spec}) diverged after regrowth"
                    );
                }
            }
            for axis in [
                BudgetAxis::Total,
                BudgetAxis::IedsOnly,
                BudgetAxis::RtusOnly,
            ] {
                assert_eq!(
                    warm.max_resiliency(property, axis, 1),
                    cold.max_resiliency(property, axis, 1),
                    "seed {seed}: maxres({property}, {axis:?}) diverged after regrowth"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Path-table reuse across `set_profile` patches
// ---------------------------------------------------------------------------

/// A 9-bus model in which every IED that stays reachable requires
/// crypto it has no suite for and gains a spare link, without a pair
/// entry, to an RTU it was not linked to: the spare link is a closed
/// hop, which a `set_profile` on it opens.
fn closed_hop_input(seed: u64) -> AnalysisInput {
    let system = powergrid::synthetic::synthetic_system("reuse", 9, 12, seed);
    let scada = generate(
        system,
        &ScadaGenConfig {
            measurement_density: 0.7,
            hierarchy_level: 1,
            secure_fraction: 0.5,
            seed,
            ..Default::default()
        },
    );
    let mut topology = scada.topology;
    let ieds: Vec<DeviceId> = topology.ieds().map(|d| d.id()).collect();
    let rtus: Vec<DeviceId> = topology.rtus().map(|d| d.id()).collect();
    for ied in ieds {
        let neighbors = topology.neighbors(ied);
        let Some(&spare) = rtus.iter().find(|r| !neighbors.contains(r)) else {
            continue;
        };
        let mut devices = topology.devices().to_vec();
        devices[ied.index()] = devices[ied.index()].clone().requiring_crypto();
        let mut links = topology.links().to_vec();
        links.push(Link::new(ied, spare));
        let mut closed = Topology::new(devices, links);
        for (a, b, profiles) in topology.pair_security_entries() {
            closed.set_pair_security(a, b, profiles.to_vec());
        }
        if closed.validate().is_empty() {
            topology = closed;
        }
    }
    AnalysisInput::new(scada.measurements, topology, scada.ied_measurements)
}

/// Profile lists a patch draws from: strong, weak, and empty.
fn palette(i: usize) -> Vec<CryptoProfile> {
    let p = CryptoProfile::new;
    match i % 4 {
        0 => vec![p(CryptoAlgorithm::Aes, 256), p(CryptoAlgorithm::Sha2, 256)],
        1 => vec![p(CryptoAlgorithm::Hmac, 128)],
        2 => vec![p(CryptoAlgorithm::Des, 56)],
        _ => Vec::new(),
    }
}

/// A `set_profile` on a linked pair of `input`: one that replaces an
/// explicit entry (`kind` 0), adds one where the devices pair at device
/// level (1), or adds one where they do not, opening a hop (2). `None`
/// when the model has no such pair.
fn profile_patch(
    kind: usize,
    bits: u64,
    profiles: usize,
    input: &AnalysisInput,
) -> Option<ModelPatch> {
    let topology = &input.topology;
    let pairs: Vec<(DeviceId, DeviceId)> = topology
        .links()
        .iter()
        .map(|l| (l.a, l.b))
        .filter(|&(a, b)| {
            let explicit = topology.explicit_pair_security(a, b).is_some();
            let device_level = topology.device(a).crypto_pairing(topology.device(b));
            match kind {
                0 => explicit,
                1 => !explicit && device_level,
                _ => !explicit && !device_level,
            }
        })
        .collect();
    let &(a, b) = pairs.get(bits as usize % pairs.len().max(1))?;
    Some(ModelPatch::SetProfile {
        a,
        b,
        profiles: palette(profiles),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random `set_profile` sequences — replacing entries, adding them,
    /// and opening hops — on a certified warm session: after every
    /// patch the session's path table equals a fresh enumeration, and
    /// at the end its verdicts equal a cold rebuild's, with every
    /// certified chain replayed without a hint fallback.
    #[test]
    fn set_profile_sequences_keep_the_path_table_fresh(
        seed in 0u64..1000,
        choices in proptest::collection::vec((0usize..3, any::<u64>(), 0usize..4), 1..7),
    ) {
        let mut current = closed_hop_input(seed);
        let metrics = Arc::new(MetricsRegistry::new());
        let certify = CertifyOptions::enabled();
        let obs = Obs::none().with_metrics(metrics.clone());
        let mut warm = Analyzer::owning(current.clone(), obs, certify.clone());
        let spec = ResiliencySpec::split(1, 1).with_corrupted(1);
        for property in PROPERTIES {
            warm.verify(property, spec);
        }
        for &(kind, bits, profiles) in &choices {
            let Some(patch) = profile_patch(kind, bits, profiles, &current) else {
                continue;
            };
            current = patch.apply(&current).expect("set_profile on a linked pair applies");
            warm.apply_patch(&patch).expect("the warm session applies it too");
            prop_assert!(
                warm.evaluator().same_paths(&DirectEvaluator::new(&current)),
                "path table went stale after `{}` (seed {})",
                patch,
                seed
            );
            warm.verify(Property::SecuredObservability, spec);
        }
        let mut cold = Analyzer::owning(current.clone(), Obs::none(), CertifyOptions::enabled());
        for property in PROPERTIES {
            for spec in [spec, ResiliencySpec::total(2).with_corrupted(1)] {
                let w = warm.verify_with_report(property, spec);
                let c = cold.verify_with_report(property, spec);
                prop_assert_eq!(
                    w.verdict.is_resilient(),
                    c.verdict.is_resilient(),
                    "verify({:?}, {}) diverged (seed {})",
                    property, spec, seed
                );
                prop_assert!(w.certificate.is_some_and(|c| !c.is_failure()));
            }
        }
        prop_assert_eq!(certify.log.failures(), 0);
        prop_assert_eq!(metrics.counter("cert_hint_fallbacks"), 0);
    }
}

/// The property above exercises every kind of `set_profile`: the seeded
/// models offer pairs with an entry, pairs without one that pair at
/// device level, and closed hops.
#[test]
fn closed_hop_inputs_offer_every_kind_of_set_profile() {
    let mut offered = [0usize; 3];
    for seed in 0..20 {
        let input = closed_hop_input(seed);
        for (kind, count) in offered.iter_mut().enumerate() {
            if profile_patch(kind, 0, 0, &input).is_some() {
                *count += 1;
            }
        }
    }
    assert!(offered.iter().all(|&n| n >= 5), "{offered:?} of 20 models");
}
