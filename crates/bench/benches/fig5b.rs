//! Criterion bench for Fig 5(b): k-resilient *secured* observability
//! verification time vs problem size. The paper's observation to
//! reproduce: the secured model is larger, so times sit slightly above
//! the Fig 5(a) series.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scada_analyzer::{Property, QueryContext, ResiliencySpec};
use scada_bench::{measure, resiliency_boundary, Workload};
use std::hint::black_box;

fn bench_fig5b(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5b_secured_observability");
    group.sample_size(10);
    for buses in [14usize, 30, 57] {
        let input = Workload {
            buses,
            density: 0.9,
            hierarchy: 1,
            secure_fraction: 0.9,
            seed: 0,
        }
        .build();
        let Some((k_unsat, k_sat)) = resiliency_boundary(&input, Property::SecuredObservability, 8)
        else {
            continue;
        };
        group.bench_with_input(BenchmarkId::new("unsat", buses), &buses, |b, _| {
            b.iter(|| {
                measure(
                    black_box(&input),
                    Property::SecuredObservability,
                    ResiliencySpec::total(k_unsat),
                    &QueryContext::default(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("sat", buses), &buses, |b, _| {
            b.iter(|| {
                measure(
                    black_box(&input),
                    Property::SecuredObservability,
                    ResiliencySpec::total(k_sat),
                    &QueryContext::default(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig5b);
criterion_main!(benches);
