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
//! later replays interleave clauses from two encodings.

use proptest::prelude::*;
use scada_analyzer::{
    enumerate_threats_with, AnalysisInput, Analyzer, BudgetAxis, CertifyOptions, ModelPatch, Obs,
    Property, QueryLimits, ResiliencySpec, ThreatSpace,
};
use scadasim::{
    generate, CryptoAlgorithm, CryptoProfile, DeviceId, DeviceKind, ScadaConfig, ScadaGenConfig,
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
