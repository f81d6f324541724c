//! Security-configuration synthesis — the paper's stated future work
//! (§VII: "automated synthesis of necessary configurations for resilient
//! SCADA systems satisfying the security and resiliency requirements").
//!
//! Given a system that fails a secured-observability (or bad-data)
//! specification, find a **minimal set of hop-security upgrades** —
//! host pairs whose profiles should be raised to an
//! authenticated + integrity-protected suite — after which the
//! specification holds.
//!
//! The search is counterexample-guided: candidate upgrade sets are
//! enumerated by increasing size (so the first success is
//! cardinality-minimal), each candidate is *verified* with the full SAT
//! pipeline, and the counterexample threat vectors of failed candidates
//! prune later ones (an upgrade set that leaves a known threat vector
//! violating cannot succeed, and vectors are re-checked with the cheap
//! direct evaluator before paying for SAT).

use std::sync::Arc;

use scadasim::paths::{forwarding_paths, security_hops};
use scadasim::{CryptoAlgorithm, CryptoProfile, DeviceId};

use crate::bruteforce::DirectEvaluator;
use crate::certify::CertifyOptions;
use crate::encode::paths::enumerate_paths;
use crate::input::AnalysisInput;
use crate::obs::{Obs, TraceEvent};
use crate::spec::{Property, ResiliencySpec};
use crate::verify::{Analyzer, Verdict};

/// A hop (host pair) whose security should be upgraded.
pub type Upgrade = (DeviceId, DeviceId);

/// The outcome of a synthesis run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesisResult {
    /// The specification already holds; nothing to do.
    AlreadyResilient,
    /// Upgrading these hops (cardinality-minimal) makes the
    /// specification hold.
    Upgrades(Vec<Upgrade>),
    /// No upgrade set within the size limit helps — the weakness is
    /// topological (e.g. a single RTU carries too much), not
    /// cryptographic.
    Infeasible,
}

/// Options for the synthesis search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthesisOptions {
    /// Maximum number of hops to upgrade.
    pub max_upgrades: usize,
    /// The profile suite installed on upgraded hops.
    pub upgrade_suite: UpgradeSuite,
}

impl Default for SynthesisOptions {
    fn default() -> SynthesisOptions {
        SynthesisOptions {
            max_upgrades: 4,
            upgrade_suite: UpgradeSuite::ChapSha2,
        }
    }
}

/// Which secured suite an upgrade installs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpgradeSuite {
    /// CHAP-64 authentication + SHA-2-256 integrity (field-hop grade).
    ChapSha2,
    /// RSA-2048 + AES-256 (backhaul grade).
    RsaAes,
}

impl UpgradeSuite {
    fn profiles(self) -> Vec<CryptoProfile> {
        match self {
            UpgradeSuite::ChapSha2 => vec![
                CryptoProfile::new(CryptoAlgorithm::Chap, 64),
                CryptoProfile::new(CryptoAlgorithm::Sha2, 256),
            ],
            UpgradeSuite::RsaAes => vec![
                CryptoProfile::new(CryptoAlgorithm::Rsa, 2048),
                CryptoProfile::new(CryptoAlgorithm::Aes, 256),
            ],
        }
    }
}

/// Hops that are candidates for upgrading: host pairs adjacent on some
/// forwarding path whose current profiles are not secured.
pub fn upgradable_hops(input: &AnalysisInput) -> Vec<Upgrade> {
    let mut hops: Vec<Upgrade> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for ied in input.topology.ieds() {
        for path in forwarding_paths(&input.topology, ied.id(), &input.path_limits) {
            for (a, b) in security_hops(&input.topology, &path) {
                let key = (a.min(b), a.max(b));
                if seen.insert(key)
                    && !input
                        .policy
                        .hop_secured(&input.topology.pair_security(a, b))
                {
                    hops.push(key);
                }
            }
        }
    }
    hops.sort();
    hops
}

/// Applies an upgrade set, returning the modified input.
pub fn apply_upgrades(
    input: &AnalysisInput,
    upgrades: &[Upgrade],
    suite: UpgradeSuite,
) -> AnalysisInput {
    let mut out = input.clone();
    for &(a, b) in upgrades {
        out.topology.set_pair_security(a, b, suite.profiles());
    }
    out
}

/// Synthesizes a cardinality-minimal upgrade set making `property`
/// `spec`-resilient.
///
/// Every candidate tried is traced through `obs`
/// (`pruned`/`threat`/`undecided`/`repaired`), as are the verification
/// queries underneath, plus a final outcome event. With `certify`
/// enabled every verification query underneath the search — the initial
/// resiliency check and each candidate's — runs on a certifying
/// analyzer, so the repaired verdict synthesis returns carries an
/// independently checked proof (see [`crate::certify`]).
///
/// Synthesis takes no [`QueryLimits`](crate::QueryLimits) (and so no
/// [`QueryContext`](crate::QueryContext)) on purpose: a candidate whose
/// verification came back `Unknown` is skipped, so a resource limit
/// could turn a repairable system into a false
/// [`SynthesisResult::Infeasible`].
///
/// # Panics
///
/// Panics if called for [`Property::Observability`] — plain observability
/// does not depend on security profiles, so upgrades cannot repair it.
pub fn synthesize_upgrades(
    input: &AnalysisInput,
    property: Property,
    spec: ResiliencySpec,
    options: &SynthesisOptions,
    obs: &Obs,
    certify: &CertifyOptions,
) -> SynthesisResult {
    let result = synthesize_inner(input, property, spec, options, obs, certify);
    obs.trace(|| TraceEvent::SynthDone {
        result: match &result {
            SynthesisResult::AlreadyResilient => "already_resilient",
            SynthesisResult::Upgrades(_) => "upgrades",
            SynthesisResult::Infeasible => "infeasible",
        },
        upgrades: match &result {
            SynthesisResult::Upgrades(u) => u.len(),
            _ => 0,
        },
    });
    result
}

fn synthesize_inner(
    input: &AnalysisInput,
    property: Property,
    spec: ResiliencySpec,
    options: &SynthesisOptions,
    obs: &Obs,
    certify: &CertifyOptions,
) -> SynthesisResult {
    assert_ne!(
        property,
        Property::Observability,
        "plain observability is security-independent; upgrades cannot help"
    );
    // Already resilient?
    let mut analyzer = Analyzer::with_options(input, obs.clone(), certify.clone());
    let mut counterexamples: Vec<Vec<DeviceId>> = Vec::new();
    match analyzer.verify(property, spec) {
        Verdict::Resilient => return SynthesisResult::AlreadyResilient,
        Verdict::Threat(v) => counterexamples.push(v.devices().collect()),
        // Unlimited queries always reach a definite verdict; if this
        // ever ran bounded, proceeding without a counterexample is still
        // sound (the pre-check set just starts empty).
        Verdict::Unknown { .. } => {}
    }
    drop(analyzer);

    let hops = upgradable_hops(input);
    if hops.is_empty() {
        return SynthesisResult::Infeasible;
    }
    let max = options.max_upgrades.min(hops.len());

    // Enumerate upgrade subsets by increasing size.
    for size in 1..=max {
        let mut indices: Vec<usize> = (0..size).collect();
        loop {
            let candidate: Vec<Upgrade> = indices.iter().map(|&i| hops[i]).collect();
            if let Some(result) = try_candidate(
                input,
                property,
                spec,
                &candidate,
                options,
                &mut counterexamples,
                obs,
                certify,
            ) {
                return result;
            }
            // Next combination.
            let mut pos = size;
            loop {
                if pos == 0 {
                    break;
                }
                pos -= 1;
                if indices[pos] != pos + hops.len() - size {
                    break;
                }
                if pos == 0 {
                    break;
                }
            }
            if indices[pos] == pos + hops.len() - size {
                break;
            }
            indices[pos] += 1;
            for j in (pos + 1)..size {
                indices[j] = indices[j - 1] + 1;
            }
        }
    }
    SynthesisResult::Infeasible
}

#[allow(clippy::too_many_arguments)]
fn try_candidate(
    input: &AnalysisInput,
    property: Property,
    spec: ResiliencySpec,
    candidate: &[Upgrade],
    options: &SynthesisOptions,
    counterexamples: &mut Vec<Vec<DeviceId>>,
    obs: &Obs,
    certify: &CertifyOptions,
) -> Option<SynthesisResult> {
    let size = candidate.len();
    obs.count("synth_candidates", 1);
    let upgraded = Arc::new(apply_upgrades(input, candidate, options.upgrade_suite));
    // One path table serves the pre-check and the SAT check.
    let paths = enumerate_paths(&upgraded);
    // Cheap pre-check: all known counterexamples must now pass.
    {
        let eval = DirectEvaluator::with_paths(Arc::clone(&upgraded), paths.clone());
        for cx in counterexamples.iter() {
            let failed: std::collections::HashSet<DeviceId> = cx.iter().copied().collect();
            if eval.violates(property, spec.corrupted, &failed) {
                obs.trace(|| TraceEvent::SynthCandidate {
                    size,
                    outcome: "pruned",
                });
                obs.count("synth_pruned", 1);
                return None; // pruned without SAT
            }
        }
    }
    // Full verification of the candidate.
    let mut analyzer = Analyzer::with_paths(upgraded, paths, obs.clone(), certify.clone());
    let (outcome, result) = match analyzer.verify(property, spec) {
        Verdict::Resilient => (
            "repaired",
            Some(SynthesisResult::Upgrades(candidate.to_vec())),
        ),
        Verdict::Threat(v) => {
            counterexamples.push(v.devices().collect());
            ("threat", None)
        }
        // Never accept a candidate on an undecided query: only a proven
        // `Resilient` verdict may certify a repair.
        Verdict::Unknown { .. } => ("undecided", None),
    };
    obs.trace(|| TraceEvent::SynthCandidate { size, outcome });
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::casestudy::five_bus_case_study;

    #[test]
    fn upgradable_hops_of_case_study() {
        let input = five_bus_case_study();
        let hops = upgradable_hops(&input);
        // Insecure hops on paths: 1-9 (hmac only), 4-10 (none), 10-11
        // (hmac only). The 9-12 hop only exists in Fig 4.
        let rendered: Vec<(usize, usize)> = hops
            .iter()
            .map(|&(a, b)| (a.one_based(), b.one_based()))
            .collect();
        assert_eq!(rendered, vec![(1, 9), (4, 10), (10, 11)]);
    }

    #[test]
    fn synthesis_repairs_scenario_2() {
        // Scenario 2: the case study is not (1,1)-resilient securely
        // observable. Synthesis must find a minimal upgrade fixing it.
        let input = five_bus_case_study();
        let spec = ResiliencySpec::split(1, 1);
        let result = synthesize_upgrades(
            &input,
            Property::SecuredObservability,
            spec,
            &SynthesisOptions::default(),
            &Obs::none(),
            &CertifyOptions::default(),
        );
        match result {
            SynthesisResult::Upgrades(upgrades) => {
                // The repair must verify.
                let fixed = apply_upgrades(&input, &upgrades, UpgradeSuite::ChapSha2);
                let mut analyzer = Analyzer::new(&fixed);
                assert!(analyzer
                    .verify(Property::SecuredObservability, spec)
                    .is_resilient());
                // And be minimal: removing any upgrade breaks it.
                for i in 0..upgrades.len() {
                    let mut smaller = upgrades.clone();
                    smaller.remove(i);
                    let partial = apply_upgrades(&input, &smaller, UpgradeSuite::ChapSha2);
                    let mut analyzer = Analyzer::new(&partial);
                    assert!(
                        !analyzer
                            .verify(Property::SecuredObservability, spec)
                            .is_resilient(),
                        "upgrade {i} is unnecessary"
                    );
                }
            }
            other => panic!("expected upgrades, got {other:?}"),
        }
    }

    #[test]
    fn already_resilient_systems_need_nothing() {
        let input = five_bus_case_study();
        let result = synthesize_upgrades(
            &input,
            Property::SecuredObservability,
            ResiliencySpec::split(1, 0),
            &SynthesisOptions::default(),
            &Obs::none(),
            &CertifyOptions::default(),
        );
        assert_eq!(result, SynthesisResult::AlreadyResilient);
    }

    #[test]
    #[should_panic(expected = "security-independent")]
    fn plain_observability_rejected() {
        let input = five_bus_case_study();
        synthesize_upgrades(
            &input,
            Property::Observability,
            ResiliencySpec::split(1, 1),
            &SynthesisOptions::default(),
            &Obs::none(),
            &CertifyOptions::default(),
        );
    }

    #[test]
    fn infeasible_when_topology_is_the_problem() {
        // Fig 4 secured at (0,1): RTU 12 physically carries six IEDs'
        // only secured-capable paths… but upgrading 1-9/4-10/10-11 plus
        // the 9-12 hop may still leave RTU12 on every path of IEDs 7, 8
        // and (via 9-12) 1-3. Whether synthesis succeeds depends on
        // whether IEDs 4-6 alone can observe; verify the result is
        // *consistent* either way.
        use crate::casestudy::five_bus_fig4;
        let input = five_bus_fig4();
        let spec = ResiliencySpec::split(0, 1);
        let result = synthesize_upgrades(
            &input,
            Property::SecuredObservability,
            spec,
            &SynthesisOptions::default(),
            &Obs::none(),
            &CertifyOptions::default(),
        );
        match result {
            SynthesisResult::Upgrades(upgrades) => {
                let fixed = apply_upgrades(&input, &upgrades, UpgradeSuite::ChapSha2);
                let mut analyzer = Analyzer::new(&fixed);
                assert!(analyzer
                    .verify(Property::SecuredObservability, spec)
                    .is_resilient());
            }
            SynthesisResult::Infeasible => {
                // Then even upgrading everything must not help.
                let all = upgradable_hops(&input);
                let fixed = apply_upgrades(&input, &all, UpgradeSuite::ChapSha2);
                let mut analyzer = Analyzer::new(&fixed);
                assert!(!analyzer
                    .verify(Property::SecuredObservability, spec)
                    .is_resilient());
            }
            SynthesisResult::AlreadyResilient => {
                panic!("fig4 secured (0,1) is known non-resilient")
            }
        }
    }
}
