//! Integration tests reproducing §IV of the paper: every verification
//! outcome reported for Scenario 1 (observability) and Scenario 2
//! (secured observability) on the 5-bus case study, now exercised
//! through the full SAT pipeline (the calibration used only the direct
//! evaluator).

use scada_analysis::analyzer::casestudy::{five_bus_case_study, five_bus_fig4};
use scada_analysis::analyzer::{
    enumerate_threats, Analyzer, BudgetAxis, Property, QueryContext, ResiliencySpec, Verdict,
};

const OBS: Property = Property::Observability;
const SEC: Property = Property::SecuredObservability;

#[test]
fn scenario1_fig3_is_1_1_resilient() {
    let input = five_bus_case_study();
    let mut analyzer = Analyzer::new(&input);
    assert!(analyzer
        .verify(OBS, ResiliencySpec::split(1, 1))
        .is_resilient());
}

#[test]
fn scenario1_fig3_2_1_has_threats_including_ied2_ied7_rtu11() {
    let input = five_bus_case_study();
    let space = enumerate_threats(
        &input,
        OBS,
        ResiliencySpec::split(2, 1),
        64,
        &QueryContext::default(),
    );
    assert!(!space.truncated);
    // The paper's example vector plus "another 8": nine in total.
    assert_eq!(space.len(), 9, "vectors: {:?}", space.vectors);
    let reported = space.vectors.iter().any(|v| {
        let ieds: Vec<usize> = v.ieds.iter().map(|d| d.one_based()).collect();
        let rtus: Vec<usize> = v.rtus.iter().map(|d| d.one_based()).collect();
        ieds == vec![2, 7] && rtus == vec![11]
    });
    assert!(reported, "{{IED2, IED7, RTU11}} must be among the vectors");
}

#[test]
fn scenario1_fig3_tolerates_three_ied_failures() {
    let input = five_bus_case_study();
    let mut analyzer = Analyzer::new(&input);
    assert_eq!(
        analyzer.max_resiliency(OBS, BudgetAxis::IedsOnly, 1),
        Some(3),
        "the paper: 'the system can tolerate up to the failures of 3 IEDs'"
    );
}

#[test]
fn scenario1_fig4_breaks_at_1_1_with_ied4_rtu12() {
    let input = five_bus_fig4();
    let mut analyzer = Analyzer::new(&input);
    match analyzer.verify(OBS, ResiliencySpec::split(1, 1)) {
        Verdict::Threat(v) => {
            // Some (1,1) vector exists; the paper exhibits {IED4, RTU12}.
            assert!(v.len() <= 2);
        }
        other => panic!("fig4 must not be (1,1)-resilient, got {other:?}"),
    }
    // The specific reported vector is a real threat.
    use scada_analysis::scada::DeviceId;
    use std::collections::HashSet;
    let eval = analyzer.evaluator();
    let failed: HashSet<DeviceId> = [DeviceId::from_one_based(4), DeviceId::from_one_based(12)]
        .into_iter()
        .collect();
    assert!(eval.violates(OBS, 1, &failed));
}

#[test]
fn scenario1_fig4_rtu12_alone_is_fatal_and_max_is_3_0() {
    let input = five_bus_fig4();
    let mut analyzer = Analyzer::new(&input);
    // "If RTU 12 fails, there is no way to observe the system."
    match analyzer.verify(OBS, ResiliencySpec::split(0, 1)) {
        Verdict::Threat(v) => {
            assert_eq!(v.rtus.len(), 1);
            assert_eq!(v.rtus[0].one_based(), 12);
            assert!(v.ieds.is_empty());
        }
        other => panic!("fig4 must fail a single RTU failure, got {other:?}"),
    }
    // "This system is maximally (3,0)-resilient observable."
    assert_eq!(
        analyzer.max_resiliency(OBS, BudgetAxis::IedsOnly, 1),
        Some(3)
    );
    // "Not resilient to any RTU failure": zero is the best RTU budget.
    assert_eq!(
        analyzer.max_resiliency(OBS, BudgetAxis::RtusOnly, 1),
        Some(0)
    );
}

#[test]
fn scenario2_fig3_not_1_1_resilient_with_ied3_rtu11() {
    let input = five_bus_case_study();
    let space = enumerate_threats(
        &input,
        SEC,
        ResiliencySpec::split(1, 1),
        64,
        &QueryContext::default(),
    );
    // "There are 4 more threat vectors": five in total.
    assert_eq!(space.len(), 5, "vectors: {:?}", space.vectors);
    let reported = space.vectors.iter().any(|v| {
        let ieds: Vec<usize> = v.ieds.iter().map(|d| d.one_based()).collect();
        let rtus: Vec<usize> = v.rtus.iter().map(|d| d.one_based()).collect();
        ieds == vec![3] && rtus == vec![11]
    });
    assert!(reported, "{{IED3, RTU11}} must be among the vectors");
}

#[test]
fn scenario2_fig3_1_0_and_0_1_are_resilient() {
    let input = five_bus_case_study();
    let mut analyzer = Analyzer::new(&input);
    assert!(analyzer
        .verify(SEC, ResiliencySpec::split(1, 0))
        .is_resilient());
    assert!(analyzer
        .verify(SEC, ResiliencySpec::split(0, 1))
        .is_resilient());
    // But (1,1) is not (consistent with the enumeration test).
    assert!(!analyzer
        .verify(SEC, ResiliencySpec::split(1, 1))
        .is_resilient());
}

#[test]
fn scenario2_fig4_single_secured_threat_vector_rtu12() {
    let input = five_bus_fig4();
    let space = enumerate_threats(
        &input,
        SEC,
        ResiliencySpec::split(0, 1),
        64,
        &QueryContext::default(),
    );
    assert_eq!(space.len(), 1, "vectors: {:?}", space.vectors);
    let v = &space.vectors[0];
    assert!(v.ieds.is_empty());
    assert_eq!(v.rtus.len(), 1);
    assert_eq!(v.rtus[0].one_based(), 12);
}

#[test]
fn secured_observability_is_stricter_than_observability() {
    // Scenario 2's headline: the system is (1,1)-resilient observable but
    // NOT (1,1)-resilient securely observable.
    let input = five_bus_case_study();
    let mut analyzer = Analyzer::new(&input);
    assert!(analyzer
        .verify(OBS, ResiliencySpec::split(1, 1))
        .is_resilient());
    assert!(!analyzer
        .verify(SEC, ResiliencySpec::split(1, 1))
        .is_resilient());
}

#[test]
fn bad_data_detectability_on_case_study() {
    // Not reported by the paper, but the property must behave sanely on
    // its own case study: with r = 1 every state needs two secured
    // measurements, which the (weakly covered) 5-bus system cannot
    // provide once selected devices fail; with r = 0 detectability
    // coincides with secured coverage.
    let input = five_bus_case_study();
    let mut analyzer = Analyzer::new(&input);
    let bdd = Property::BadDataDetectability;
    // Zero failures tolerated at r=1 or not — whatever the verdict, it
    // must agree with the direct evaluator.
    for (k1, k2) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
        let spec = ResiliencySpec::split(k1, k2).with_corrupted(1);
        let verdict = analyzer.verify(bdd, spec);
        let reference = analyzer
            .evaluator()
            .find_threat_exhaustive(bdd, spec)
            .is_none();
        assert_eq!(verdict.is_resilient(), reference, "({k1},{k2})");
    }
}

#[test]
fn reports_carry_measurements() {
    let input = five_bus_case_study();
    let mut analyzer = Analyzer::new(&input);
    let report = analyzer.verify_with_report(OBS, ResiliencySpec::split(1, 1));
    assert!(report.encoding.variables > 0);
    assert!(report.encoding.clauses > 0);
    assert!(report.verdict.is_resilient());
}
