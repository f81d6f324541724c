//! Zero-failure short-circuit: a plain analyzer answers a property that
//! already fails with nothing failed as `Threat(∅)` (and `maxres` as
//! `None`) without encoding or solving. These tests pin that the
//! short-circuit is exact — verdicts, threat vectors and `maxres` equal
//! both a certified analyzer (which always runs the SAT path) and an
//! exhaustive direct-evaluation search — on small models, for all three
//! properties, total/split/link budgets, and patched models, covering
//! models that do and do not fail at zero.

use std::collections::HashSet;

use scada_analyzer::bruteforce::DirectEvaluator;
use scada_analyzer::{
    AnalysisInput, Analyzer, BudgetAxis, CertifyOptions, FailureBudget, ModelPatch, Obs, Property,
    ResiliencySpec, Verdict,
};
use scadasim::{generate, CryptoAlgorithm, CryptoProfile, DeviceId, ScadaConfig, ScadaGenConfig};

const PROPERTIES: [Property; 3] = [
    Property::Observability,
    Property::SecuredObservability,
    Property::BadDataDetectability,
];

const AXES: [BudgetAxis; 3] = [
    BudgetAxis::IedsOnly,
    BudgetAxis::RtusOnly,
    BudgetAxis::Total,
];

/// A small generated system: few enough field devices and links for an
/// exhaustive search over every failure set in the budget.
fn small_input(seed: u64) -> AnalysisInput {
    let branches = 4 + (seed as usize % 3);
    let system = powergrid::synthetic::synthetic_system("zero", 4, branches, seed);
    let scada = generate(
        system,
        &ScadaGenConfig {
            measurement_density: 0.6,
            hierarchy_level: 1,
            // Low secure fractions leave secured observability failing
            // with nothing failed; high ones keep it holding.
            secure_fraction: [0.0, 0.3, 0.7, 1.0][seed as usize % 4],
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

/// Every subset of `items` with at most `max` elements.
fn subsets<T: Copy>(items: &[T], max: usize) -> Vec<Vec<T>> {
    let mut out = vec![Vec::new()];
    for &item in items {
        let grown: Vec<Vec<T>> = out
            .iter()
            .filter(|s| s.len() < max)
            .map(|s| {
                let mut s = s.clone();
                s.push(item);
                s
            })
            .collect();
        out.extend(grown);
    }
    out
}

/// Whether some device+link failure set within `spec` violates the
/// property, by trying every one.
fn exhaustive_violates(input: &AnalysisInput, property: Property, spec: ResiliencySpec) -> bool {
    let evaluator = DirectEvaluator::new(input);
    let ieds: Vec<DeviceId> = input.topology.ieds().map(|d| d.id()).collect();
    let rtus: Vec<DeviceId> = input.topology.rtus().map(|d| d.id()).collect();
    let (max_ieds, max_rtus, max_total) = match spec.budget {
        FailureBudget::Split { ieds, rtus } => (ieds, rtus, ieds + rtus),
        FailureBudget::Total(k) => (k, k, k),
    };
    let links: Vec<usize> = (0..input.topology.links().len()).collect();
    let link_sets = subsets(&links, spec.link_failures);
    for failed_ieds in subsets(&ieds, max_ieds) {
        for failed_rtus in subsets(&rtus, max_rtus) {
            if failed_ieds.len() + failed_rtus.len() > max_total {
                continue;
            }
            let failed: HashSet<DeviceId> =
                failed_ieds.iter().chain(&failed_rtus).copied().collect();
            for failed_links in &link_sets {
                let failed_links: HashSet<usize> = failed_links.iter().copied().collect();
                if evaluator.violates_full(property, spec.corrupted, &failed, &failed_links) {
                    return true;
                }
            }
        }
    }
    false
}

/// The exhaustive maximum resiliency along an axis.
fn exhaustive_max(
    input: &AnalysisInput,
    property: Property,
    axis: BudgetAxis,
    r: usize,
) -> Option<usize> {
    let limit = match axis {
        BudgetAxis::IedsOnly => input.topology.ieds().count(),
        BudgetAxis::RtusOnly => input.topology.rtus().count(),
        BudgetAxis::Total => input.field_devices().len(),
    };
    let spec = |k| match axis {
        BudgetAxis::IedsOnly => ResiliencySpec::split(k, 0),
        BudgetAxis::RtusOnly => ResiliencySpec::split(0, k),
        BudgetAxis::Total => ResiliencySpec::total(k),
    };
    (0..=limit)
        .take_while(|&k| !exhaustive_violates(input, property, spec(k).with_corrupted(r)))
        .last()
}

fn specs() -> Vec<ResiliencySpec> {
    let mut specs = Vec::new();
    for r in [0, 1] {
        specs.extend([
            ResiliencySpec::split(0, 0).with_corrupted(r),
            ResiliencySpec::split(1, 0).with_corrupted(r),
            ResiliencySpec::split(1, 1).with_corrupted(r),
            ResiliencySpec::total(2).with_corrupted(r),
            ResiliencySpec::split(0, 0)
                .with_corrupted(r)
                .with_link_failures(1),
            ResiliencySpec::total(1)
                .with_corrupted(r)
                .with_link_failures(1),
        ]);
    }
    specs
}

/// Which `(property, r)` pairs of the current model fail with nothing
/// failed, per the direct evaluator.
fn fails_at_zero(input: &AnalysisInput, property: Property, r: usize) -> bool {
    DirectEvaluator::new(input).violates_full(property, r, &HashSet::new(), &HashSet::new())
}

/// Tallies which sides of the short-circuit a run exercised.
#[derive(Default)]
struct Coverage {
    failing: usize,
    holding: usize,
}

/// Checks every property, spec and axis on one model state: the plain
/// analyzer against the certified one and the exhaustive search.
fn check_state(
    plain: &mut Analyzer<'_>,
    certified: &mut Analyzer<'_>,
    label: &str,
    coverage: &mut Coverage,
) {
    let input = plain.input().clone();
    assert!(
        input.field_devices().len() <= 9,
        "{label}: {} field devices is too many for the exhaustive search",
        input.field_devices().len()
    );
    for property in PROPERTIES {
        for spec in specs() {
            let at_zero = fails_at_zero(&input, property, spec.corrupted);
            if at_zero {
                coverage.failing += 1;
            } else {
                coverage.holding += 1;
            }
            let fast = plain.verify_with_report(property, spec);
            let sat = certified.verify_with_report(property, spec);
            let what = format!("{label}: {property} at {spec}");
            assert_eq!(fast.verdict, sat.verdict, "{what}: plain vs certified");
            assert!(
                sat.certificate.is_some(),
                "{what}: certified verdict unchecked"
            );
            assert_eq!(
                matches!(fast.verdict, Verdict::Threat(_)),
                exhaustive_violates(&input, property, spec),
                "{what}: plain vs exhaustive"
            );
            if at_zero {
                let Verdict::Threat(vector) = &fast.verdict else {
                    panic!("{what}: fails at zero but answered {:?}", fast.verdict);
                };
                assert!(vector.is_empty(), "{what}: non-empty vector {vector}");
                assert_eq!((fast.attempts, fast.conflicts), (0, 0), "{what}: solved");
                assert!(
                    sat.attempts >= 1,
                    "{what}: certified run skipped the solver"
                );
            } else {
                assert!(
                    fast.attempts >= 1,
                    "{what}: short-circuited a holding model"
                );
            }
        }
        for axis in AXES {
            for r in [0, 1] {
                let fast = plain.max_resiliency(property, axis, r);
                let sat = certified.max_resiliency(property, axis, r);
                let what = format!("{label}: maxres {property} {axis:?} r={r}");
                assert_eq!(fast, sat, "{what}: plain vs certified");
                assert_eq!(fast, exhaustive_max(&input, property, axis, r), "{what}");
            }
        }
    }
}

#[test]
fn short_circuit_matches_certified_and_exhaustive_search() {
    let mut coverage = Coverage::default();
    for seed in 0..8 {
        let input = small_input(seed);
        let mut plain = Analyzer::new(&input);
        let mut certified = Analyzer::with_options(&input, Obs::none(), CertifyOptions::enabled());
        check_state(
            &mut plain,
            &mut certified,
            &format!("seed {seed}"),
            &mut coverage,
        );
    }
    assert!(coverage.failing > 0, "no model failed with nothing failed");
    assert!(
        coverage.holding > 0,
        "every model failed with nothing failed"
    );
}

/// Patches move a model across the zero-failure line in both
/// directions; the memo must follow (it is cleared by every patch).
#[test]
fn short_circuit_follows_patches() {
    let mut coverage = Coverage::default();
    let mut flips = 0;
    for seed in 0..8 {
        let input = small_input(seed);
        let mut plain = Analyzer::owning(input.clone(), Obs::none(), CertifyOptions::default());
        let mut certified = Analyzer::owning(input, Obs::none(), CertifyOptions::enabled());
        check_state(
            &mut plain,
            &mut certified,
            &format!("seed {seed}"),
            &mut coverage,
        );
        // Secure every link, then strip the security again, then retire
        // an IED: secured properties flip with the first two patches.
        let links: Vec<(DeviceId, DeviceId)> = plain
            .input()
            .topology
            .links()
            .iter()
            .map(|l| (l.a, l.b))
            .collect();
        let aes = vec![CryptoProfile::new(CryptoAlgorithm::Aes, 256)];
        let mut steps: Vec<Vec<ModelPatch>> = Vec::new();
        for profiles in [aes, Vec::new()] {
            steps.push(
                links
                    .iter()
                    .map(|&(a, b)| ModelPatch::SetProfile {
                        a,
                        b,
                        profiles: profiles.clone(),
                    })
                    .collect(),
            );
        }
        let ied = plain.input().topology.ieds().next().expect("an IED").id();
        steps.push(vec![ModelPatch::RemoveDevice { id: ied }]);
        for (step, patches) in steps.iter().enumerate() {
            let before = fails_at_zero(plain.input(), Property::SecuredObservability, 1);
            for patch in patches {
                plain.apply_patch(patch).expect("valid patch");
                certified.apply_patch(patch).expect("valid patch");
            }
            if fails_at_zero(plain.input(), Property::SecuredObservability, 1) != before {
                flips += 1;
            }
            let label = format!("seed {seed} after patch step {step}");
            check_state(&mut plain, &mut certified, &label, &mut coverage);
        }
    }
    assert!(coverage.failing > 0 && coverage.holding > 0);
    assert!(
        flips > 0,
        "no patch moved a model across the zero-failure line"
    );
}
