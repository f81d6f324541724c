//! Cross-validation: the SAT-based pipeline must agree with the direct
//! (brute-force) reference semantics on randomly generated SCADA systems
//! for every property and a range of specifications.

use scada_analysis::analyzer::{Analyzer, Property, ResiliencySpec};
use scada_analysis::power::ieee::ieee14;
use scada_analysis::power::synthetic::synthetic_system;
use scada_analysis::scada::{generate, ScadaGenConfig};

fn check_agreement(input: &scada_analysis::analyzer::AnalysisInput, label: &str) {
    let mut analyzer = Analyzer::new(input);
    let properties = [
        Property::Observability,
        Property::SecuredObservability,
        Property::BadDataDetectability,
    ];
    let specs = [
        ResiliencySpec::split(0, 0),
        ResiliencySpec::split(1, 0),
        ResiliencySpec::split(0, 1),
        ResiliencySpec::split(1, 1),
        ResiliencySpec::split(2, 1),
        ResiliencySpec::total(1),
        ResiliencySpec::total(2),
    ];
    for property in properties {
        for spec in specs {
            let verdict = analyzer.verify(property, spec);
            let reference = analyzer.evaluator().find_threat_exhaustive(property, spec);
            assert_eq!(
                verdict.is_resilient(),
                reference.is_none(),
                "{label}: disagreement on {property} at {spec} \
                 (sat={verdict:?}, reference={reference:?})"
            );
        }
    }
}

#[test]
fn sat_agrees_with_bruteforce_on_small_synthetic_grids() {
    for seed in 0..6 {
        let system = synthetic_system(format!("g{seed}"), 8, 10, seed);
        let scada = generate(
            system,
            &ScadaGenConfig {
                measurement_density: 0.5,
                hierarchy_level: 1 + (seed as usize % 3),
                secure_fraction: 0.6,
                seed,
                ..Default::default()
            },
        );
        let input = scada_analysis::analyzer::AnalysisInput::new(
            scada.measurements,
            scada.topology,
            scada.ied_measurements,
        );
        check_agreement(&input, &format!("synthetic seed {seed}"));
    }
}

#[test]
fn sat_agrees_with_bruteforce_on_ieee14_scada() {
    for seed in 0..3 {
        let scada = generate(
            ieee14(),
            &ScadaGenConfig {
                measurement_density: 0.6,
                hierarchy_level: 2,
                secure_fraction: 0.7,
                seed,
                ..Default::default()
            },
        );
        let input = scada_analysis::analyzer::AnalysisInput::new(
            scada.measurements,
            scada.topology,
            scada.ied_measurements,
        );
        check_agreement(&input, &format!("ieee14 seed {seed}"));
    }
}

#[test]
fn threat_vectors_are_minimal_and_real() {
    use scada_analysis::analyzer::{enumerate_threats, QueryContext};
    use std::collections::HashSet;
    let scada = generate(
        ieee14(),
        &ScadaGenConfig {
            measurement_density: 0.45,
            hierarchy_level: 2,
            secure_fraction: 0.5,
            seed: 17,
            ..Default::default()
        },
    );
    let input = scada_analysis::analyzer::AnalysisInput::new(
        scada.measurements,
        scada.topology,
        scada.ied_measurements,
    );
    let analyzer = Analyzer::new(&input);
    let eval = analyzer.evaluator();
    for property in [Property::Observability, Property::SecuredObservability] {
        let space = enumerate_threats(
            &input,
            property,
            ResiliencySpec::split(2, 1),
            200,
            &QueryContext::default(),
        );
        for v in &space.vectors {
            let failed: HashSet<_> = v.devices().collect();
            assert!(
                eval.violates(property, 1, &failed),
                "{property}: vector {v} does not violate"
            );
            // Minimality: removing any device restores the property.
            for d in v.devices() {
                let mut smaller = failed.clone();
                smaller.remove(&d);
                assert!(
                    eval.holds(property, 1, &smaller),
                    "{property}: vector {v} is not minimal (drop {d})"
                );
            }
        }
        // Vectors are pairwise distinct and incomparable.
        for (i, a) in space.vectors.iter().enumerate() {
            for b in space.vectors.iter().skip(i + 1) {
                assert!(!a.is_subset_of(b) && !b.is_subset_of(a), "{a} vs {b}");
            }
        }
    }
}

#[test]
fn budget_axes_are_monotone() {
    // Resilience can only get harder as budgets grow.
    let scada = generate(
        ieee14(),
        &ScadaGenConfig {
            measurement_density: 0.8,
            hierarchy_level: 1,
            seed: 5,
            ..Default::default()
        },
    );
    let input = scada_analysis::analyzer::AnalysisInput::new(
        scada.measurements,
        scada.topology,
        scada.ied_measurements,
    );
    let mut analyzer = Analyzer::new(&input);
    let mut previous = true;
    for k in 0..5 {
        let resilient = analyzer
            .verify(Property::Observability, ResiliencySpec::total(k))
            .is_resilient();
        assert!(
            previous || !resilient,
            "resilient at k={k} but not at k={}",
            k - 1
        );
        previous = resilient;
    }
}
