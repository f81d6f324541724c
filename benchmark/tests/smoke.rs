//! Drift tests for the benchmark itself: every workload reports exactly
//! the metrics `BENCHMARK.json` declares, with no failed request, and
//! input generation is a pure function of the seed.

use std::process::Command;

use scada_analyzer::service::{parse_json, Json};
use scada_benchmark::gen;
use scada_benchmark::suite::{benchmark_manifest, declared};
use scada_benchmark::workloads::WORKLOADS;

/// Runs one `--smoke` workload and returns its summary line.
fn smoke(workload: &str, trace: bool) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_scada-benchmark"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.trim_end().lines().last().expect("a summary line");
    parse_json(last).expect("the summary is JSON")
}

fn metric_names(summary: &Json) -> Vec<String> {
    match summary.get("metrics") {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("summary has no metrics object: {other:?}"),
    }
}

#[test]
fn every_workload_reports_the_declared_metrics() {
    let manifest = benchmark_manifest().expect("BENCHMARK.json parses");
    let names = |section: &str| -> Vec<String> {
        declared(&manifest, section)
            .into_iter()
            .map(|m| m.name)
            .collect()
    };
    for workload in WORKLOADS {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let summary = smoke(workload, trace);
            assert_eq!(
                metric_names(&summary),
                names(section),
                "{workload} (trace {trace}) must report exactly the {section} metrics"
            );
            assert_eq!(summary.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(
                summary.get("failed").and_then(Json::as_u64),
                Some(0),
                "{workload} (trace {trace}) had failed requests"
            );
            assert!(summary.get("attempted").and_then(Json::as_u64) > Some(0));
        }
    }
}

#[test]
fn generation_is_a_pure_function_of_the_seed() {
    let hot = |seed| {
        let models: Vec<String> = gen::hot_models(seed).iter().map(gen::load_line).collect();
        let mut zipf = gen::Zipf::new(96, gen::Rng::new(seed, "hot_read/zipf"));
        let ranks: Vec<usize> = (0..1000).map(|_| zipf.next_rank()).collect();
        (models, gen::hot_ranking(seed), ranks)
    };
    let operator = |seed| {
        gen::operator_cycles(seed, 0, 4)
            .into_iter()
            .map(|c| (c.load, c.steps))
            .collect::<Vec<_>>()
    };
    let certify = |seed| {
        gen::certify_models(seed, 2)
            .iter()
            .map(gen::load_line)
            .collect::<Vec<_>>()
    };
    for seed in [1, 2] {
        assert_eq!(hot(seed), hot(seed));
        assert_eq!(operator(seed), operator(seed));
        assert_eq!(gen::portfolio(seed), gen::portfolio(seed));
        assert_eq!(certify(seed), certify(seed));
    }
    assert_ne!(gen::portfolio(1), gen::portfolio(2), "seeds must matter");
    assert_ne!(operator(1), operator(2), "seeds must matter");
}
