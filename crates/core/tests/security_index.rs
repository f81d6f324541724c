//! Cross-validation of the security-index implementations.
//!
//! The served path (`scada_analyzer::served_distribution`, min-cut with
//! a checked max-flow certificate), the SAT engine
//! (`scada_analyzer::security_index`, cardinality descent over the CNF
//! encoding) and the min-cut engine (`powergrid::securityindex`) must
//! agree on every measurement. The SAT engine shares no code with the
//! min-cut side, so any disagreement is a bug in one of them. The
//! differential tests sweep every measurement of the four IEEE systems;
//! the proptests fuzz random measurement subsets at random densities,
//! and random small grids against an exhaustive search over every
//! attack — the gadget lemma the max-flow certificate trusts.

use powergrid::measurement::{MeasurementKind, MeasurementSet};
use powergrid::securityindex::security_indices;
use powergrid::{Branch, BranchId, BusId, PowerSystem};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use scada_analyzer::{
    served_distribution, Certificate, CertifyOptions, SecurityIndexAnalyzer,
    SecurityIndexDistribution,
};

/// The served distribution, plain and certified: both must agree with
/// `expected` on indices, min and max, and the certified one must check.
fn assert_served_matches(ms: &MeasurementSet, expected: &SecurityIndexDistribution, label: &str) {
    let plain = served_distribution(ms, &CertifyOptions::default()).unwrap();
    let certify = CertifyOptions::enabled();
    let certified = served_distribution(ms, &certify).unwrap();
    for (mode, served) in [("plain", &plain), ("certified", &certified)] {
        assert_eq!(served.indices, expected.indices, "{mode} served on {label}");
        assert_eq!(served.min, expected.min, "{mode} served min on {label}");
        assert_eq!(served.max, expected.max, "{mode} served max on {label}");
    }
    assert_eq!(certified.cert_failures, 0, "{label}");
    assert_eq!(certify.log.failures(), 0, "{label}");
    assert_eq!(
        certify.log.checks(),
        ms.unique_components().len() as u64,
        "one certificate per component on {label}"
    );
}

/// SAT ≡ min-cut ≡ served on every measurement of one system.
fn assert_engines_agree(ms: &MeasurementSet, label: &str) {
    let mincut = security_indices(ms);
    let sat = SecurityIndexAnalyzer::new(ms).distribution();
    assert_eq!(mincut, sat.indices, "engines disagree on {label}");
    assert!(sat.indices.iter().all(|&i| i >= 1), "{label} index below 1");
    assert_served_matches(ms, &sat, label);
}

#[test]
fn engines_agree_on_ieee14_and_30() {
    assert_engines_agree(&MeasurementSet::full(powergrid::ieee::ieee14()), "ieee14");
    assert_engines_agree(
        &MeasurementSet::full(powergrid::synthetic::ieee_sized(30, 0)),
        "ieee30",
    );
}

#[test]
fn engines_agree_on_ieee57() {
    assert_engines_agree(
        &MeasurementSet::full(powergrid::synthetic::ieee_sized(57, 0)),
        "ieee57",
    );
}

#[test]
fn engines_agree_on_ieee118() {
    assert_engines_agree(
        &MeasurementSet::full(powergrid::synthetic::ieee_sized(118, 0)),
        "ieee118",
    );
}

/// Sampled (partial) measurement sets exercise zero-weight lines and
/// boundary buses without measured injections — the gadget cases a full
/// set never hits.
#[test]
fn engines_agree_on_sampled_sets() {
    for (density, seed) in [(0.4, 7), (0.6, 11), (0.8, 13)] {
        let ms = MeasurementSet::sampled(powergrid::ieee::ieee14(), density, seed);
        assert_engines_agree(&ms, &format!("ieee14 density {density} seed {seed}"));
    }
}

/// Certified SAT distribution: every per-component verdict checks (the
/// final unsat bound DRAT-replays, the optimal model re-validates), and
/// the indices still match the min-cut engine and the certified served
/// path.
#[test]
fn engines_agree_certified() {
    let ms = MeasurementSet::full(powergrid::ieee::ieee14());
    let certify = CertifyOptions::enabled();
    let mut analyzer = SecurityIndexAnalyzer::with_certification(&ms, &certify);
    let sat = analyzer.distribution();
    assert_eq!(sat.cert_failures, 0);
    assert_eq!(certify.log.failures(), 0);
    assert!(certify.log.checks() > 0);
    assert_eq!(security_indices(&ms), sat.indices);
    assert_served_matches(&ms, &sat, "certified ieee14");
}

/// An above-floor verdict certifies with a real DRAT refutation: the
/// tightened bound must be refuted by the replayed proof, not assumed.
#[test]
fn unsat_bound_is_drat_certified() {
    // Path 1–2, full measurements: attacking the single line affects
    // both its flows and both injections (index 4 for every target).
    let sys = PowerSystem::new("pair", 2, vec![Branch::new(BusId(0), BusId(1), 1.0)]);
    let ms = MeasurementSet::full(sys);
    let certify = CertifyOptions::enabled();
    let mut analyzer = SecurityIndexAnalyzer::with_certification(&ms, &certify);
    let report = analyzer.index_of(powergrid::MeasurementId(0));
    assert_eq!(report.index, 4);
    match report.certificate {
        Some(Certificate::Proof { .. }) => {}
        other => panic!("expected a DRAT-backed proof certificate, got {other:?}"),
    }
}

/// The security index as its definition, in the pindakaas `Checker`
/// idiom: the exhaustive minimum over every binary attack, against which
/// an engine's answer is checked.
struct ExhaustiveIndex {
    /// α per measurement: the fewest measurements any attack that
    /// perturbs it perturbs.
    alpha: Vec<usize>,
}

impl ExhaustiveIndex {
    /// Prices every bus support with bus 0 pinned outside it (the cost
    /// is invariant under complementing the support).
    fn new(ms: &MeasurementSet) -> ExhaustiveIndex {
        let sys = ms.system();
        let buses = sys.num_buses();
        let mut alpha = vec![usize::MAX; ms.len()];
        for mask in 0u32..1 << (buses - 1) {
            let in_s = |bus: BusId| bus.index() > 0 && mask >> (bus.index() - 1) & 1 == 1;
            let cut = |b: BranchId| in_s(sys.branch(b).from) != in_s(sys.branch(b).to);
            let affected: Vec<usize> = ms
                .ids()
                .filter(|&id| match ms.kind(id) {
                    MeasurementKind::FlowForward(b) | MeasurementKind::FlowBackward(b) => cut(b),
                    MeasurementKind::Injection(v) => sys.branches_at(v).iter().any(|&b| cut(b)),
                })
                .map(|id| id.index())
                .collect();
            for &m in &affected {
                alpha[m] = alpha[m].min(affected.len());
            }
        }
        ExhaustiveIndex { alpha }
    }

    fn check(&self, engine: &str, indices: &[usize]) -> Result<(), String> {
        if indices == self.alpha.as_slice() {
            Ok(())
        } else {
            Err(format!(
                "{engine} answered {indices:?}, exhaustive α is {:?}",
                self.alpha
            ))
        }
    }
}

/// A random grid of `buses` buses (each pair joined with probability
/// `edge_p`) and a random subset of its full measurement set (each kept
/// with probability `density`), minus injections at isolated buses,
/// which have no index.
fn random_grid(buses: usize, edge_p: f64, density: f64, seed: u64) -> MeasurementSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut branches = Vec::new();
    for i in 0..buses {
        for j in i + 1..buses {
            if rng.random_bool(edge_p) {
                branches.push(Branch::new(BusId(i), BusId(j), 1.0));
            }
        }
    }
    let sys = PowerSystem::new("random", buses, branches);
    let kinds = MeasurementSet::full(sys.clone())
        .kinds()
        .iter()
        .copied()
        .filter(|&kind| match kind {
            MeasurementKind::Injection(v) => !sys.branches_at(v).is_empty(),
            _ => true,
        })
        .filter(|_| rng.random_bool(density))
        .collect();
    MeasurementSet::new(sys, kinds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random measurement subsets of the 14-bus system: the engines
    /// must agree on every member, at any density.
    #[test]
    fn engines_agree_on_random_subsets(density in 0.2f64..1.0, seed in 0u64..10_000) {
        let ms = MeasurementSet::sampled(powergrid::ieee::ieee14(), density, seed);
        if ms.is_empty() {
            return;
        }
        let mincut = security_indices(&ms);
        let sat = SecurityIndexAnalyzer::new(&ms).distribution();
        prop_assert_eq!(
            &mincut,
            &sat.indices,
            "engines disagree at density {} seed {}",
            density,
            seed
        );
        let served = served_distribution(&ms, &CertifyOptions::default()).unwrap();
        prop_assert_eq!(&served.indices, &sat.indices, "served at density {} seed {}", density, seed);
    }

    /// Random grids of at most 9 buses: exhaustive α ≡ served (plain and
    /// certified) ≡ SAT ≡ min-cut on every measurement. This is the
    /// gadget lemma — every attack cutting a line is a gadget cut of the
    /// same price — that the max-flow certificate takes on trust.
    #[test]
    fn engines_agree_with_exhaustive_search(
        buses in 2usize..=9,
        edge_p in 0.15f64..0.8,
        density in 0.2f64..1.0,
        seed in any::<u64>(),
    ) {
        let ms = random_grid(buses, edge_p, density, seed);
        if ms.is_empty() {
            return;
        }
        let spec = ExhaustiveIndex::new(&ms);
        let certify = CertifyOptions::enabled();
        let certified = served_distribution(&ms, &certify).unwrap();
        prop_assert_eq!(certified.cert_failures, 0);
        let plain = served_distribution(&ms, &CertifyOptions::default()).unwrap();
        for (engine, indices) in [
            ("served", plain.indices),
            ("served certified", certified.indices),
            ("SAT", SecurityIndexAnalyzer::new(&ms).distribution().indices),
            ("min-cut", security_indices(&ms)),
        ] {
            prop_assert_eq!(
                spec.check(engine, &indices),
                Ok(()),
                "on {} buses seed {}",
                buses,
                seed
            );
        }
    }
}
