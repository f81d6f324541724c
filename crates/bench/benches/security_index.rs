//! Criterion bench: security-index distribution times, IEEE 14 → 118.
//!
//! Four series per grid size answer "what does each path pay to price
//! every measurement": `sat/ieeeN` runs the incremental SAT engine (one
//! shared `UnaryCounter`, assumption-guided descent, the differential
//! oracle) over the full measurement set; `mincut/ieeeN` runs the
//! min-cut pricer from Hendrickx et al. on the same set;
//! `served/ieeeN` and `served-certified/ieeeN` run the path `scadad`
//! serves, without and with the max-flow certificate check. The
//! absolute numbers feed the EXPERIMENTS.md index-distribution figure;
//! the series must of course agree on every index (the differential
//! test suite enforces that — here we only measure).

use criterion::{criterion_group, criterion_main, Criterion};
use powergrid::measurement::MeasurementSet;
use scada_analyzer::{served_distribution, CertifyOptions, SecurityIndexAnalyzer};
use std::hint::black_box;

/// Full (flow + injection) measurement set over an IEEE-shaped grid.
fn grid(buses: usize) -> MeasurementSet {
    let system = if buses == 14 {
        powergrid::ieee::ieee14()
    } else {
        powergrid::synthetic::ieee_sized(buses, 0)
    };
    MeasurementSet::full(system)
}

fn bench_security_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("security_index");
    group.sample_size(10);

    for buses in [14, 30, 57, 118] {
        let ms = grid(buses);
        group.bench_function(format!("sat/ieee{buses}"), |bench| {
            bench.iter(|| {
                let mut engine = SecurityIndexAnalyzer::new(&ms);
                black_box(engine.distribution())
            })
        });
        group.bench_function(format!("mincut/ieee{buses}"), |bench| {
            bench.iter(|| black_box(powergrid::securityindex::security_indices(&ms)))
        });
        for (series, certify) in [
            ("served", CertifyOptions::default()),
            ("served-certified", CertifyOptions::enabled()),
        ] {
            group.bench_function(format!("{series}/ieee{buses}"), |bench| {
                bench.iter(|| black_box(served_distribution(&ms, &certify)))
            });
        }
    }

    group.finish();
}

criterion_group!(benches, bench_security_index);
criterion_main!(benches);
