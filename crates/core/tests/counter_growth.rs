//! Failure counters are k-simplified totalizers capped at 8 outputs,
//! rebuilt with the cap doubled when a budget reads past it. These
//! ladders walk every budget axis to k = 10 — past the first doubling
//! rung (k = 8 reads `Σ ≥ 9`) — and check each rung's verdict, and each
//! axis's maximum resiliency, against exhaustive direct evaluation. The
//! clause count may only move on a rung that first touches an encoding
//! (k = 0, or the first link budget) and on a doubling rung.

use std::collections::HashSet;

use scada_analyzer::casestudy::five_bus_case_study;
use scada_analyzer::{AnalysisInput, Analyzer, BudgetAxis, Property, ResiliencySpec, Verdict};
use scadasim::{generate, DeviceId, DeviceKind, ScadaGenConfig};

/// The deepest rung of every ladder.
const TOP: usize = 10;
/// The rung whose budget first reads past the initial cap of 8 outputs.
const DOUBLING_RUNG: usize = 8;

fn ieee(buses: usize) -> AnalysisInput {
    let system = if buses == 14 {
        powergrid::ieee::ieee14()
    } else {
        powergrid::synthetic::ieee_sized(buses, 0)
    };
    let scada = generate(
        system,
        &ScadaGenConfig {
            measurement_density: 1.0,
            hierarchy_level: 1,
            secure_fraction: 0.8,
            seed: 3,
            ..Default::default()
        },
    );
    AnalysisInput::new(scada.measurements, scada.topology, scada.ied_measurements)
}

/// One budget axis walked from k = 0 to [`TOP`].
#[derive(Debug, Clone, Copy)]
enum Ladder {
    Total,
    IedsOnly,
    RtusOnly,
    Links,
    /// Total budget with routers in the failure model.
    Routers,
}

impl Ladder {
    const ALL: [Ladder; 5] = [
        Ladder::Total,
        Ladder::IedsOnly,
        Ladder::RtusOnly,
        Ladder::Links,
        Ladder::Routers,
    ];

    fn spec(self, k: usize) -> ResiliencySpec {
        let spec = match self {
            Ladder::Total | Ladder::Routers => ResiliencySpec::total(k),
            Ladder::IedsOnly => ResiliencySpec::split(k, 0),
            Ladder::RtusOnly => ResiliencySpec::split(0, k),
            Ladder::Links => ResiliencySpec::total(0).with_link_failures(k),
        };
        spec.with_corrupted(1)
    }

    fn axis(self) -> Option<BudgetAxis> {
        match self {
            Ladder::Total | Ladder::Routers => Some(BudgetAxis::Total),
            Ladder::IedsOnly => Some(BudgetAxis::IedsOnly),
            Ladder::RtusOnly => Some(BudgetAxis::RtusOnly),
            Ladder::Links => None,
        }
    }

    fn input(self, base: &AnalysisInput) -> AnalysisInput {
        match self {
            Ladder::Routers => base.clone().allowing_router_failures(),
            _ => base.clone(),
        }
    }

    /// The devices this ladder's budget counts (empty for links).
    fn devices(self, input: &AnalysisInput) -> Vec<DeviceId> {
        let of = |kinds: &[DeviceKind]| -> Vec<DeviceId> {
            input
                .topology
                .devices()
                .iter()
                .filter(|d| kinds.contains(&d.kind()))
                .map(|d| d.id())
                .collect()
        };
        match self {
            Ladder::Total => of(&[DeviceKind::Ied, DeviceKind::Rtu]),
            Ladder::IedsOnly => of(&[DeviceKind::Ied]),
            Ladder::RtusOnly => of(&[DeviceKind::Rtu]),
            Ladder::Links => Vec::new(),
            Ladder::Routers => of(&[DeviceKind::Ied, DeviceKind::Rtu, DeviceKind::Router]),
        }
    }

    /// How many devices or links this ladder's budget counts.
    fn counted(self, input: &AnalysisInput) -> usize {
        match self {
            Ladder::Links => input.topology.links().len(),
            _ => self.devices(input).len(),
        }
    }
}

/// Calls `visit` on every `size`-subset of `0..n` until it returns true.
fn any_subset(n: usize, size: usize, visit: &mut dyn FnMut(&[usize]) -> bool) -> bool {
    fn go(
        n: usize,
        size: usize,
        from: usize,
        picked: &mut Vec<usize>,
        visit: &mut dyn FnMut(&[usize]) -> bool,
    ) -> bool {
        if picked.len() == size {
            return visit(picked);
        }
        for i in from..=n - (size - picked.len()) {
            picked.push(i);
            if go(n, size, i + 1, picked, visit) {
                return true;
            }
            picked.pop();
        }
        false
    }
    go(n, size, 0, &mut Vec::with_capacity(size), visit)
}

/// The fewest failures along the ladder that violate the property, by
/// exhaustive direct evaluation up to [`TOP`] (`None`: none that small).
fn smallest_threat(ladder: Ladder, analyzer: &Analyzer, property: Property) -> Option<usize> {
    let evaluator = analyzer.evaluator();
    let devices = ladder.devices(analyzer.input());
    let n = ladder.counted(analyzer.input());
    (0..=TOP.min(n)).find(|&size| {
        any_subset(n, size, &mut |picked| {
            let (failed, down): (HashSet<DeviceId>, HashSet<usize>) =
                if matches!(ladder, Ladder::Links) {
                    (HashSet::new(), picked.iter().copied().collect())
                } else {
                    (picked.iter().map(|&i| devices[i]).collect(), HashSet::new())
                };
            evaluator.violates_full(property, 1, &failed, &down)
        })
    })
}

/// Walks every ladder on `base` for `property` on fresh analyzers.
fn check_ladders(label: &str, base: &AnalysisInput, property: Property) {
    for ladder in Ladder::ALL {
        let input = ladder.input(base);
        let mut analyzer = Analyzer::new(&input);
        let smallest = smallest_threat(ladder, &analyzer, property);
        let counted = ladder.counted(&input);
        let mut clauses = Vec::new();
        for k in 0..=TOP {
            let report = analyzer.verify_with_report(property, ladder.spec(k));
            let expect_resilient = smallest.is_none_or(|m| k < m);
            match &report.verdict {
                Verdict::Resilient => assert!(
                    expect_resilient,
                    "{label} {property} {ladder:?} k={k}: resilient, but {smallest:?} failures break it"
                ),
                Verdict::Threat(t) => {
                    assert!(
                        !expect_resilient,
                        "{label} {property} {ladder:?} k={k}: threat {t}, but none within {k}"
                    );
                    assert!(t.len() <= k, "{label} {ladder:?} k={k}: threat {t} over budget");
                }
                Verdict::Unknown { .. } => panic!("{label} {ladder:?} k={k}: unlimited query undecided"),
            }
            clauses.push(report.encoding.clauses);
        }
        for k in 1..=TOP {
            let moved = clauses[k] != clauses[k - 1];
            let first_link_rung = matches!(ladder, Ladder::Links) && k == 1;
            let grows = k == DOUBLING_RUNG && counted > DOUBLING_RUNG;
            assert!(
                !moved || first_link_rung || grows,
                "{label} {property} {ladder:?}: clause count moved at k={k} ({clauses:?})"
            );
            if grows {
                assert!(
                    moved,
                    "{label} {property} {ladder:?}: no regrowth at k={k} over {counted} inputs ({clauses:?})"
                );
            }
        }
        if let Some(axis) = ladder.axis() {
            let got = analyzer.max_resiliency(property, axis, 1);
            match smallest {
                Some(m) => assert_eq!(
                    got,
                    m.checked_sub(1),
                    "{label} {property} {ladder:?}: max resiliency"
                ),
                None => assert!(
                    got.is_some_and(|k| k >= TOP),
                    "{label} {property} {ladder:?}: max resiliency {got:?}, nothing breaks within {TOP}"
                ),
            }
        }
    }
}

#[test]
fn growth_past_cap_on_case_study() {
    let input = five_bus_case_study();
    check_ladders("case study", &input, Property::Observability);
    check_ladders("case study", &input, Property::SecuredObservability);
}

#[test]
fn growth_past_cap_on_ieee14() {
    check_ladders("IEEE-14", &ieee(14), Property::Observability);
}

#[test]
fn growth_past_cap_on_ieee30() {
    check_ladders("IEEE-30", &ieee(30), Property::Observability);
}
