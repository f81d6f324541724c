//! Property-based determinism check for the parallel engine: on random
//! `Workload`s, every parallel jobs count produces exactly the serial
//! fleet result.

use proptest::prelude::*;
use scada_analyzer::{Property, QueryContext, ResiliencySpec};
use scada_bench::{measure_fleet, FleetQuery, Workload};

fn workload_strategy() -> impl Strategy<Value = Workload> {
    (
        prop_oneof![Just(14usize), Just(30usize)],
        0.4f64..1.0,
        1usize..=3,
        0.5f64..1.0,
        0u64..1000,
    )
        .prop_map(
            |(buses, density, hierarchy, secure_fraction, seed)| Workload {
                buses,
                density,
                hierarchy,
                secure_fraction,
                seed,
            },
        )
}

fn property_strategy() -> impl Strategy<Value = Property> {
    prop_oneof![
        Just(Property::Observability),
        Just(Property::SecuredObservability),
        Just(Property::BadDataDetectability),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fleet_is_deterministic_across_jobs(
        workload in workload_strategy(),
        property in property_strategy(),
        k in 0usize..4,
    ) {
        let fleet: Vec<FleetQuery> = (0..4usize)
            .map(|i| FleetQuery {
                workload,
                property,
                spec: ResiliencySpec::total(k + i % 2),
            })
            .collect();
        let serial = measure_fleet(&fleet, 1, &QueryContext::default());
        for jobs in [2usize, 8] {
            let parallel = measure_fleet(&fleet, jobs, &QueryContext::default());
            prop_assert_eq!(parallel.len(), serial.len());
            for (p, s) in parallel.iter().zip(&serial) {
                prop_assert_eq!(p.outcome, s.outcome);
                prop_assert_eq!(p.variables, s.variables);
                prop_assert_eq!(p.clauses, s.clauses);
            }
        }
    }
}
