//! Regenerates every table and figure of the DSN'16 evaluation.
//!
//! ```text
//! cargo run --release -p scada-bench --bin experiments -- [--fig5a] [--fig5b]
//!     [--fig6] [--fig7a] [--fig7b] [--case-study] [--headline] [--overhead]
//!     [--all] [--runs N] [--seeds N] [--jobs N] [--timeout DUR]
//!     [--conflict-budget N] [--certify] [--smoke]
//! ```
//!
//! Each experiment prints a paper-style table and writes a CSV under
//! `results/`. The fig5/fig6 fleets, the fig7 sweeps, and the headline
//! run fan out across `--jobs` workers (default: all available cores;
//! `--jobs 1` reproduces the serial harness). `--smoke` is a fast CI
//! self-check on a tiny 14-bus fleet. See EXPERIMENTS.md for the
//! paper-vs-measured comparison.
//!
//! `--timeout` / `--conflict-budget` bound each individual query —
//! including the case-study and fig7b threat enumerations: a query that
//! runs out of resources lands as an `unknown` cell in the tables and
//! CSVs instead of aborting (or hanging) the whole sweep.
//!
//! `--trace PATH` writes a structured JSONL event trace of every solve
//! attempt; `--stats` prints a metrics summary table after the run.
//!
//! `--certify` re-checks every verdict of the run with the independent
//! proof/model checker ([`scada_analyzer::certify`]); any certification
//! failure makes the process exit with code 4. `--overhead` measures
//! the certification overhead itself on an IEEE-30 sweep (every query
//! solved plain and certified side by side) and fails if the check ever
//! costs more than 2x the solve.

use std::path::Path;
use std::time::{Duration, Instant};

use scada_analyzer::casestudy::{five_bus_case_study, five_bus_fig4};
use scada_analyzer::cli;
use scada_analyzer::parallel::par_map;
use scada_analyzer::{
    enumerate_threats, par_max_resiliency, Analyzer, BudgetAxis, CertifyOptions, Obs, Property,
    QueryContext, ResiliencySpec,
};
use scada_bench::csv::Table;
use scada_bench::{mean, measure, measure_fleet, resiliency_boundary, FleetQuery, Workload};

/// The shared context flags this binary takes: all but `--proof-dir`.
const CONTEXT_FLAGS: [&str; 5] = [
    "--timeout",
    "--conflict-budget",
    "--certify",
    "--trace",
    "--stats",
];

const OBS: Property = Property::Observability;
const SEC: Property = Property::SecuredObservability;

fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Mean time cell: `unknown` when every sample of the series was cut
/// short by a resource limit, the mean otherwise.
fn ms_cell(times: &[Duration], unknowns: usize) -> String {
    if times.is_empty() && unknowns > 0 {
        "unknown".into()
    } else {
        ms(mean(times))
    }
}

struct Options {
    runs: usize,
    seeds: u64,
    jobs: usize,
    ctx: QueryContext,
}

/// Reports a usage error and exits with code 2.
fn usage_error<T>(message: String) -> T {
    eprintln!("error: {message}");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| cli::flag(&args, name) || cli::flag(&args, "--all");
    if args.is_empty() {
        eprintln!(
            "usage: experiments [--case-study] [--fig5a] [--fig5b] [--fig6] \
             [--fig7a] [--fig7b] [--headline] [--overhead] [--all] [--runs N] \
             [--seeds N] [--jobs N] [--timeout DUR] [--conflict-budget N] \
             [--trace PATH] [--stats] [--certify] [--smoke]"
        );
        std::process::exit(2);
    }
    // Limits, observability (a JSONL trace sink and/or a metrics
    // registry) and `--certify` — every verdict of the run re-checked,
    // all checks tallied into one shared log — for every experiment of
    // the run. (`--certify` is an exact match on purpose: unlike the
    // experiment selectors, `--all` does not imply it.)
    let (ctx, (tracer, metrics)) =
        cli::query_context(&args, &CONTEXT_FLAGS).unwrap_or_else(usage_error);
    let count = |name, default| {
        cli::opt(&args, name)
            .unwrap_or_else(usage_error)
            .unwrap_or(default)
    };
    let opts = Options {
        runs: count("--runs", 5),
        seeds: count("--seeds", 3) as u64,
        jobs: count("--jobs", 0),
        ctx,
    };

    // CI smoke check; deliberately not part of --all.
    if args.iter().any(|a| a == "--smoke") {
        smoke(&opts);
    }

    if flag("--case-study") {
        case_study(&opts);
    }
    if flag("--fig5a") {
        fig5(OBS, "fig5a", &opts);
    }
    if flag("--fig5b") {
        fig5(SEC, "fig5b", &opts);
    }
    if flag("--fig6") {
        fig6(&opts);
    }
    if flag("--fig7a") {
        fig7a(&opts);
    }
    if flag("--fig7b") {
        fig7b(&opts);
    }
    if flag("--headline") {
        headline(&opts);
    }
    if flag("--overhead") {
        overhead(&opts);
    }

    if let Some(tracer) = &tracer {
        tracer.flush();
        eprintln!("trace: {} event(s) written", tracer.events());
    }
    if let Some(metrics) = &metrics {
        println!("== metrics ==");
        let mut table = Table::new(["metric", "count", "sum", "mean", "min", "max"]);
        for row in metrics.rows() {
            table.push(row);
        }
        print!("{}", table.to_aligned());
    }
    if opts.ctx.certify.enabled {
        let log = &opts.ctx.certify.log;
        println!(
            "certification: {} verdict(s) checked, {} failure(s)",
            log.checks(),
            log.failures()
        );
        if log.failures() > 0 {
            if let Some(reason) = log.first_failure() {
                eprintln!("certification failure: {reason}");
            }
            std::process::exit(4);
        }
    }
}

/// A fast self-check for CI: a tiny 14-bus fleet through the parallel
/// runner, asserting parallel results agree with the serial baseline.
fn smoke(opts: &Options) {
    let jobs = if opts.jobs == 0 { 2 } else { opts.jobs };
    println!("== smoke: 14-bus fleet, {jobs} worker(s) ==");
    let fleet: Vec<FleetQuery> = (0..2u64)
        .map(|seed| FleetQuery {
            workload: Workload {
                seed,
                ..Default::default()
            },
            property: OBS,
            spec: ResiliencySpec::total(1),
        })
        .collect();
    let serial = measure_fleet(&fleet, 1, &opts.ctx);
    let parallel = measure_fleet(&fleet, jobs, &opts.ctx);
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        // Definite verdicts must agree; an `unknown` (possible only when
        // running bounded) is timing-dependent and tolerated.
        if !s.outcome.is_unknown() && !p.outcome.is_unknown() {
            assert_eq!(s.outcome, p.outcome, "verdict drift at fleet entry {i}");
        }
        assert_eq!(
            s.variables, p.variables,
            "encoding drift at fleet entry {i}"
        );
        println!(
            "  entry {i}: {} ({} vars, {} clauses)",
            p.outcome.label(),
            p.variables,
            p.clauses,
        );
    }
    let input = Workload::default().build();
    let serial_max = Analyzer::new(&input).max_resiliency_limited(
        OBS,
        BudgetAxis::IedsOnly,
        1,
        &opts.ctx.limits,
    );
    let parallel_max = par_max_resiliency(&input, OBS, BudgetAxis::IedsOnly, 1, jobs, &opts.ctx);
    if opts.ctx.limits.is_unbounded() {
        assert_eq!(serial_max, parallel_max, "max-resiliency drift");
        println!("  max IED-only resiliency: {parallel_max:?} (serial == parallel)");
    } else {
        // Bounded sweeps are sound lower bounds; serial and parallel may
        // legitimately stop at different budgets under a wall clock.
        println!("  max IED-only resiliency ≥ {parallel_max:?} (bounded sweep)");
    }
    println!("smoke ok");
    println!();
}

/// §IV — both case-study scenarios, paper claim vs measured outcome.
fn case_study(opts: &Options) {
    println!("== Case study (paper §IV) ==");
    let fig3 = five_bus_case_study();
    let fig4 = five_bus_fig4();
    let mut table = Table::new(["experiment", "paper", "measured", "match"]);

    let analyzer =
        |input| Analyzer::with_options(input, opts.ctx.obs.clone(), opts.ctx.certify.clone());
    let mut a3 = analyzer(&fig3);
    let mut a4 = analyzer(&fig4);

    // Enumeration mutates the analyzer's solver with blocking clauses,
    // so each threat-space count gets its own fresh analyzer; `--timeout`
    // / `--conflict-budget` bound the whole enumeration run.
    let enumerate = |input, property, spec| enumerate_threats(input, property, spec, 64, &opts.ctx);

    let row = |table: &mut Table, name: &str, paper: &str, measured: String| {
        let ok = paper == measured;
        table.push([name, paper, &measured, if ok { "yes" } else { "NO" }]);
    };

    let v = a3.verify(OBS, ResiliencySpec::split(1, 1));
    row(
        &mut table,
        "S1 fig3 (1,1) observability",
        "resilient",
        verdict_str(&v),
    );
    let space = enumerate(&fig3, OBS, ResiliencySpec::split(2, 1));
    row(
        &mut table,
        "S1 fig3 (2,1) threat vectors",
        "9",
        space.len().to_string(),
    );
    let has = space.vectors.iter().any(|v| {
        v.ieds.iter().map(|d| d.one_based()).collect::<Vec<_>>() == vec![2, 7]
            && v.rtus.iter().map(|d| d.one_based()).collect::<Vec<_>>() == vec![11]
    });
    row(
        &mut table,
        "S1 fig3 {IED2,IED7,RTU11} found",
        "yes",
        if has { "yes" } else { "no" }.into(),
    );
    let max = a3.max_resiliency(OBS, BudgetAxis::IedsOnly, 1);
    row(
        &mut table,
        "S1 fig3 max IED-only",
        "3",
        max.map_or("none".into(), |k| k.to_string()),
    );
    let v = a4.verify(OBS, ResiliencySpec::split(1, 1));
    row(
        &mut table,
        "S1 fig4 (1,1) observability",
        "threat",
        verdict_str(&v),
    );
    let v = a4.verify(OBS, ResiliencySpec::split(0, 1));
    row(
        &mut table,
        "S1 fig4 (0,1) observability",
        "threat",
        verdict_str(&v),
    );
    let max = a4.max_resiliency(OBS, BudgetAxis::IedsOnly, 1);
    row(
        &mut table,
        "S1 fig4 max IED-only",
        "3",
        max.map_or("none".into(), |k| k.to_string()),
    );

    let v = a3.verify(SEC, ResiliencySpec::split(1, 1));
    row(
        &mut table,
        "S2 fig3 (1,1) secured",
        "threat",
        verdict_str(&v),
    );
    let space = enumerate(&fig3, SEC, ResiliencySpec::split(1, 1));
    row(
        &mut table,
        "S2 fig3 (1,1) secured vectors",
        "5",
        space.len().to_string(),
    );
    let v = a3.verify(SEC, ResiliencySpec::split(1, 0));
    row(
        &mut table,
        "S2 fig3 (1,0) secured",
        "resilient",
        verdict_str(&v),
    );
    let v = a3.verify(SEC, ResiliencySpec::split(0, 1));
    row(
        &mut table,
        "S2 fig3 (0,1) secured",
        "resilient",
        verdict_str(&v),
    );
    let space = enumerate(&fig4, SEC, ResiliencySpec::split(0, 1));
    row(
        &mut table,
        "S2 fig4 (0,1) secured vectors",
        "1",
        space.len().to_string(),
    );

    print!("{}", table.to_aligned());
    table
        .write_to(Path::new("results/case_study.csv"))
        .expect("write results/case_study.csv");
    println!();
}

fn verdict_str(v: &scada_analyzer::Verdict) -> String {
    match v {
        scada_analyzer::Verdict::Resilient => "resilient".into(),
        scada_analyzer::Verdict::Threat(_) => "threat".into(),
        scada_analyzer::Verdict::Unknown { .. } => "unknown".into(),
    }
}

/// Fig 5(a)/(b): execution time vs bus size, sat and unsat series. The
/// per-seed boundary searches and the runs×seeds measurement fleet both
/// fan out across `--jobs` workers.
fn fig5(property: Property, name: &str, opts: &Options) {
    println!("== {name}: time vs problem size ({property}) ==");
    let mut table = Table::new([
        "buses",
        "field_devices",
        "measurements",
        "vars",
        "clauses",
        "k_unsat",
        "k_sat",
        "unsat_ms",
        "sat_ms",
        "mean_conflicts",
        "unknown",
    ]);
    for buses in [14usize, 30, 57, 118] {
        let workloads: Vec<Workload> = (0..opts.seeds)
            .map(|seed| Workload {
                buses,
                density: 0.9,
                hierarchy: 1,
                secure_fraction: 0.9,
                seed,
            })
            .collect();
        let boundaries = par_map(&workloads, opts.jobs, &Obs::none(), |_, w, _| {
            let input = w.build();
            (
                input.field_devices().len(),
                input.measurements.len(),
                resiliency_boundary(&input, property, 8),
            )
        });

        let mut fleet = Vec::new();
        let mut expect_resilient = Vec::new();
        let mut field = 0;
        let mut meas = 0;
        let mut k_unsat_sum = 0.0;
        let mut k_sat_sum = 0.0;
        let mut found: f64 = 0.0;
        for (w, (f, m, boundary)) in workloads.iter().zip(&boundaries) {
            field = *f;
            meas = *m;
            let Some((k_unsat, k_sat)) = boundary else {
                continue;
            };
            k_unsat_sum += *k_unsat as f64;
            k_sat_sum += *k_sat as f64;
            found += 1.0;
            for _ in 0..opts.runs {
                for (k, resilient) in [(k_unsat, true), (k_sat, false)] {
                    fleet.push(FleetQuery {
                        workload: *w,
                        property,
                        spec: ResiliencySpec::total(*k),
                    });
                    expect_resilient.push(resilient);
                }
            }
        }
        let measured = measure_fleet(&fleet, opts.jobs, &opts.ctx);

        let mut unsat_times = Vec::new();
        let mut sat_times = Vec::new();
        let mut unknowns = 0usize;
        let mut conflicts_sum = 0u64;
        let mut decided = 0u64;
        let mut vars = 0;
        let mut clauses = 0;
        for (m, &resilient) in measured.iter().zip(&expect_resilient) {
            if m.outcome.is_unknown() {
                // A bounded run cut this sample short: record the cell as
                // unknown instead of aborting the sweep.
                unknowns += 1;
                continue;
            }
            assert_eq!(
                m.outcome.is_resilient(),
                resilient,
                "boundary query flipped verdict"
            );
            conflicts_sum += m.conflicts;
            decided += 1;
            if resilient {
                unsat_times.push(m.duration);
                vars = m.variables;
                clauses = m.clauses;
            } else {
                sat_times.push(m.duration);
            }
        }
        let b = found.max(1.0);
        table.push([
            buses.to_string(),
            field.to_string(),
            meas.to_string(),
            vars.to_string(),
            clauses.to_string(),
            format!("{:.1}", k_unsat_sum / b),
            format!("{:.1}", k_sat_sum / b),
            ms_cell(&unsat_times, unknowns),
            ms_cell(&sat_times, unknowns),
            format!("{:.1}", conflicts_sum as f64 / decided.max(1) as f64),
            unknowns.to_string(),
        ]);
    }
    print!("{}", table.to_aligned());
    table
        .write_to(Path::new(&format!("results/{name}.csv")))
        .expect("write csv");
    println!();
}

/// Fig 6: execution time vs hierarchy level (14- and 57-bus), measured
/// through the parallel fleet runner.
fn fig6(opts: &Options) {
    println!("== fig6: time vs hierarchy level (observability) ==");
    let mut table = Table::new(["buses", "hierarchy", "unsat_ms", "sat_ms"]);
    for buses in [14usize, 57] {
        for hierarchy in 1..=4 {
            let workloads: Vec<Workload> = (0..opts.seeds)
                .map(|seed| Workload {
                    buses,
                    density: 0.9,
                    hierarchy,
                    secure_fraction: 0.9,
                    seed,
                })
                .collect();
            let boundaries = par_map(&workloads, opts.jobs, &Obs::none(), |_, w, _| {
                let input = w.build();
                resiliency_boundary(&input, OBS, 8)
            });

            let mut fleet = Vec::new();
            let mut is_unsat = Vec::new();
            for (w, boundary) in workloads.iter().zip(&boundaries) {
                let Some((k_unsat, k_sat)) = boundary else {
                    continue;
                };
                for _ in 0..opts.runs {
                    for (k, unsat) in [(k_unsat, true), (k_sat, false)] {
                        fleet.push(FleetQuery {
                            workload: *w,
                            property: OBS,
                            spec: ResiliencySpec::total(*k),
                        });
                        is_unsat.push(unsat);
                    }
                }
            }
            let measured = measure_fleet(&fleet, opts.jobs, &opts.ctx);

            let mut unsat_times = Vec::new();
            let mut sat_times = Vec::new();
            let mut unknowns = 0usize;
            for (m, &unsat) in measured.iter().zip(&is_unsat) {
                if m.outcome.is_unknown() {
                    unknowns += 1;
                } else if unsat {
                    unsat_times.push(m.duration);
                } else {
                    sat_times.push(m.duration);
                }
            }
            table.push([
                buses.to_string(),
                hierarchy.to_string(),
                ms_cell(&unsat_times, unknowns),
                ms_cell(&sat_times, unknowns),
            ]);
        }
    }
    print!("{}", table.to_aligned());
    table
        .write_to(Path::new("results/fig6.csv"))
        .expect("write csv");
    println!();
}

/// Fig 7a: maximum resiliency vs measurement density (14-bus); the
/// per-seed searches fan out across workers.
fn fig7a(opts: &Options) {
    println!("== fig7a: max resiliency vs measurement density (14-bus) ==");
    let mut table = Table::new(["density_pct", "avg_measurements", "max_ied", "max_rtu"]);
    for density in [0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
        let workloads: Vec<Workload> = (0..opts.seeds)
            .map(|seed| Workload {
                buses: 14,
                density,
                hierarchy: 1,
                secure_fraction: 1.0,
                seed,
            })
            .collect();
        let rows = par_map(&workloads, opts.jobs, &Obs::none(), |_, w, _| {
            let input = w.build();
            let QueryContext {
                limits,
                obs,
                certify,
            } = &opts.ctx;
            let mut analyzer = Analyzer::with_options(&input, obs.clone(), certify.clone());
            let ied = analyzer
                .max_resiliency_limited(OBS, BudgetAxis::IedsOnly, 1, limits)
                .map_or(-1.0, |k| k as f64);
            let rtu = analyzer
                .max_resiliency_limited(OBS, BudgetAxis::RtusOnly, 1, limits)
                .map_or(-1.0, |k| k as f64);
            (ied, rtu, input.measurements.len() as f64)
        });
        let n = rows.len().max(1) as f64;
        let ied_sum: f64 = rows.iter().map(|r| r.0).sum();
        let rtu_sum: f64 = rows.iter().map(|r| r.1).sum();
        let meas_sum: f64 = rows.iter().map(|r| r.2).sum();
        table.push([
            format!("{:.0}", density * 100.0),
            format!("{:.1}", meas_sum / n),
            format!("{:.2}", ied_sum / n),
            format!("{:.2}", rtu_sum / n),
        ]);
    }
    print!("{}", table.to_aligned());
    table
        .write_to(Path::new("results/fig7a.csv"))
        .expect("write csv");
    println!();
}

/// Fig 7b: threat-space size vs hierarchy level (14-bus); every
/// (hierarchy, spec, seed) enumeration is an independent fleet job.
fn fig7b(opts: &Options) {
    println!("== fig7b: threat vectors vs hierarchy level (14-bus) ==");
    let mut table = Table::new(["hierarchy", "spec", "avg_threat_vectors"]);
    let mut items = Vec::new();
    for hierarchy in 1..=4usize {
        for (k1, k2) in [(1, 1), (2, 1), (2, 2)] {
            for seed in 0..opts.seeds {
                items.push((hierarchy, k1, k2, seed));
            }
        }
    }
    let counts = par_map(
        &items,
        opts.jobs,
        &opts.ctx.obs,
        |_, &(hierarchy, k1, k2, seed), _| {
            let input = Workload {
                buses: 14,
                density: 0.7,
                hierarchy,
                secure_fraction: 0.9,
                seed: seed + 100,
            }
            .build();
            // Bounded enumeration: a limit-exhausted run yields a partial
            // (undecided) space instead of hanging the whole sweep.
            enumerate_threats(&input, OBS, ResiliencySpec::split(k1, k2), 2000, &opts.ctx).len()
                as f64
        },
    );
    for hierarchy in 1..=4usize {
        for (k1, k2) in [(1, 1), (2, 1), (2, 2)] {
            let (total, n): (f64, f64) = items
                .iter()
                .zip(&counts)
                .filter(|((h, a, b, _), _)| *h == hierarchy && *a == k1 && *b == k2)
                .fold((0.0, 0.0), |(t, n), (_, &c)| (t + c, n + 1.0));
            table.push([
                hierarchy.to_string(),
                format!("({k1},{k2})"),
                format!("{:.1}", total / n.max(1.0)),
            ]);
        }
    }
    print!("{}", table.to_aligned());
    table
        .write_to(Path::new("results/fig7b.csv"))
        .expect("write csv");
    println!();
}

/// §VII headline: a ~400-field-device SCADA system verifies in bounded
/// time (the paper: within 30 s on an i5). The six property×budget
/// queries run concurrently.
fn headline(opts: &Options) {
    println!("== headline: ~400-device SCADA system ==");
    let input = Workload {
        buses: 118,
        density: 1.0,
        hierarchy: 2,
        secure_fraction: 0.9,
        seed: 0,
    }
    .build();
    let devices = input.field_devices().len();
    println!("field devices: {devices}");
    let mut table = Table::new([
        "property",
        "k",
        "verdict",
        "time_ms",
        "vars",
        "clauses",
        "conflicts",
        "attempts",
    ]);
    let mut queries = Vec::new();
    for property in [OBS, SEC] {
        for k in [1usize, 2, 3] {
            queries.push((property, k));
        }
    }
    let measured = par_map(
        &queries,
        opts.jobs,
        &opts.ctx.obs,
        |_, &(property, k), _| measure(&input, property, ResiliencySpec::total(k), &opts.ctx),
    );
    for ((property, k), m) in queries.iter().zip(&measured) {
        use scada_bench::Outcome;
        table.push([
            property.to_string(),
            k.to_string(),
            match m.outcome {
                Outcome::Resilient => "unsat",
                Outcome::Threat => "sat",
                Outcome::Unknown => "unknown",
            }
            .to_string(),
            ms(m.duration),
            m.variables.to_string(),
            m.clauses.to_string(),
            m.conflicts.to_string(),
            m.attempts.to_string(),
        ]);
    }
    print!("{}", table.to_aligned());
    table
        .write_to(Path::new("results/headline.csv"))
        .expect("write csv");
    println!();
}

/// Certification overhead on the IEEE-30 smoke, measured the way
/// `--certify` actually runs: one incremental analyzer per sweep, so
/// the checker ingests the encoding once and each query pays only its
/// own proof replay and model/refutation checks. Every query of the
/// plain sweep is re-run on a certifying analyzer; total check time
/// (the checker's work, [`scada_analyzer::Certificate`]'s `elapsed`)
/// must stay under 2x the total plain solve time. The checker runs
/// beside the solver, so most of that work is hidden: the printed wall
/// ratio (certified query time over plain solve time) shows how much.
fn overhead(opts: &Options) {
    println!("== certification overhead: IEEE-30 sweep ==");
    let input = Workload {
        buses: 30,
        density: 0.9,
        hierarchy: 1,
        secure_fraction: 0.9,
        seed: 0,
    }
    .build();
    let queries: Vec<(Property, usize)> = [OBS, SEC]
        .iter()
        .flat_map(|&p| (0..4).map(move |k| (p, k)))
        .collect();
    let certify = CertifyOptions {
        enabled: true,
        ..opts.ctx.certify.clone()
    };
    let obs = &opts.ctx.obs;
    let mut plain_analyzer = Analyzer::with_options(&input, obs.clone(), CertifyOptions::default());
    let mut cert_analyzer = Analyzer::with_options(&input, obs.clone(), certify.clone());
    let mut table = Table::new([
        "property",
        "k",
        "verdict",
        "solve_ms",
        "certified_ms",
        "check_ms",
        "proof_steps",
    ]);
    let mut plain_total = Duration::ZERO;
    let mut certified_total = Duration::ZERO;
    let mut check_total = Duration::ZERO;
    for &(property, k) in &queries {
        let spec = ResiliencySpec::total(k);
        let t = Instant::now();
        let plain = plain_analyzer.verify_with_report_limited(property, spec, &opts.ctx.limits);
        let solve = t.elapsed();
        plain_total += solve;
        let t = Instant::now();
        let certified = cert_analyzer.verify_with_report_limited(property, spec, &opts.ctx.limits);
        let certified_elapsed = t.elapsed();
        certified_total += certified_elapsed;
        assert_eq!(
            verdict_str(&plain.verdict),
            verdict_str(&certified.verdict),
            "certification changed a verdict at {property} k={k}",
        );
        let (check, steps) = match certified.certificate {
            Some(scada_analyzer::Certificate::Proof { steps, elapsed, .. })
            | Some(scada_analyzer::Certificate::Threat { steps, elapsed }) => (elapsed, steps),
            _ => (Duration::ZERO, 0),
        };
        check_total += check;
        table.push([
            property.to_string(),
            k.to_string(),
            verdict_str(&certified.verdict),
            ms(solve),
            ms(certified_elapsed),
            ms(check),
            steps.to_string(),
        ]);
    }
    print!("{}", table.to_aligned());
    table
        .write_to(Path::new("results/certify_overhead.csv"))
        .expect("write csv");
    let plain_s = plain_total.as_secs_f64().max(1e-9);
    let ratio = check_total.as_secs_f64() / plain_s;
    println!(
        "checked {} verdict(s), {} failure(s); total check {} ms vs total solve {} ms (ratio {ratio:.2})",
        certify.log.checks(),
        certify.log.failures(),
        ms(check_total),
        ms(plain_total),
    );
    println!(
        "wall clock: certified queries {} ms vs plain solves {} ms (wall ratio {:.2})",
        ms(certified_total),
        ms(plain_total),
        certified_total.as_secs_f64() / plain_s,
    );
    assert_eq!(
        certify.log.failures(),
        0,
        "overhead sweep certification failed: {:?}",
        certify.log.first_failure()
    );
    assert!(
        ratio < 2.0,
        "certification overhead exceeded 2x solve time (ratio {ratio:.2})"
    );
    println!();
}
