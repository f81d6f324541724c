//! Criterion bench for the parallel verification engine: serial vs
//! parallel wall-clock on IEEE-30/57 experiment fleets.
//!
//! Each fleet is the fig5-style sweep for one bus size — every seed ×
//! budget query around the resiliency boundary — run once through
//! `measure_fleet` with `jobs = 1` (the serial baseline) and once with
//! `jobs = 4`. The acceptance target is ≥2× speedup on 4 cores for the
//! 57-bus fleet; results land in the criterion report as
//! `fleet/{serial,jobs4}/{30,57}`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scada_analyzer::{Property, QueryContext, ResiliencySpec};
use scada_bench::{measure_fleet, resiliency_boundary, FleetQuery, Workload};
use std::hint::black_box;

/// The fig5-shaped fleet for one bus size: 4 seeds × {unsat, sat}
/// boundary queries = up to 8 independent verifications.
fn fleet_for(buses: usize) -> Vec<FleetQuery> {
    let mut fleet = Vec::new();
    for seed in 0..4u64 {
        let workload = Workload {
            buses,
            density: 0.9,
            hierarchy: 1,
            secure_fraction: 0.9,
            seed,
        };
        let input = workload.build();
        let Some((k_unsat, k_sat)) = resiliency_boundary(&input, Property::Observability, 8) else {
            continue;
        };
        for k in [k_unsat, k_sat] {
            fleet.push(FleetQuery {
                workload,
                property: Property::Observability,
                spec: ResiliencySpec::total(k),
            });
        }
    }
    fleet
}

fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet");
    group.sample_size(10);
    for buses in [30usize, 57] {
        let fleet = fleet_for(buses);
        group.bench_with_input(BenchmarkId::new("serial", buses), &buses, |b, _| {
            b.iter(|| measure_fleet(black_box(&fleet), 1, &QueryContext::default()))
        });
        group.bench_with_input(BenchmarkId::new("jobs4", buses), &buses, |b, _| {
            b.iter(|| measure_fleet(black_box(&fleet), 4, &QueryContext::default()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
