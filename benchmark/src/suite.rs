//! The `run`, `trace` and `compare` subcommands: each workload runs in
//! a fresh child process (so `peak_heap_mb` is that workload's own), and
//! results files collect runs for `compare`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use scada_analyzer::service::{parse_json, Json};

use crate::stats;
use crate::workloads::WORKLOADS;

/// `BENCHMARK.json`, which holds the metric names, directions and
/// bounds every workload must report against.
pub fn benchmark_manifest() -> Result<Json, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One metric declaration from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the baseline median.
    pub bound: f64,
}

/// The declared metrics of one section (`end_to_end` or `per_layer`).
pub fn declared(manifest: &Json, section: &str) -> Vec<Declared> {
    manifest
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| Declared {
            name: m
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
            bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
        })
        .collect()
}

/// Runs one workload in a child process; returns its summary, the
/// report lines it printed before it, and whether it succeeded.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    smoke: bool,
    spans: Option<&Path>,
) -> Result<(Json, String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if spans.is_some() { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        command.arg("--smoke");
    }
    if let Some(dir) = spans {
        command.arg("--spans").arg(dir);
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let (table, last) = match stdout.trim_end().rsplit_once('\n') {
        Some((table, last)) => (table.to_string() + "\n", last),
        None => (String::new(), stdout.trim_end()),
    };
    let summary = parse_json(last).map_err(|e| {
        format!(
            "{workload} exited with {} and no summary line ({e}): {stdout}",
            output.status
        )
    })?;
    Ok((summary, table, output.status.success()))
}

/// `run` / `trace`: every workload once, each in its own process. With
/// `out`, the run is appended to that results file. Fails when any
/// workload's output checks failed.
pub fn run_all(
    seed: Option<u64>,
    seconds: f64,
    smoke: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
) -> Result<ExitCode, String> {
    let seed = seed.ok_or("--seed is required")?;
    let mut results = Vec::new();
    let mut failed = Vec::new();
    for workload in WORKLOADS {
        let (summary, table, ok) = child(workload, seed, seconds, smoke, spans.as_deref())?;
        print!("{table}");
        if !ok {
            failed.push(workload);
        }
        results.push((workload.to_string(), summary));
    }
    if let Some(path) = out {
        append_run(&path, seed, seconds, spans.is_some(), results)?;
        println!("appended to {}", path.display());
    }
    if let Some(dir) = spans {
        println!("spans in {}", dir.display());
    }
    if failed.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        Err(format!("output checks failed on {failed:?}"))
    }
}

/// Appends one run to a results file (created when missing). The file
/// ends with `"claim":null`: a results file records measurements, and a
/// change that claims a gain states it in its own description.
fn append_run(
    path: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
    workloads: Vec<(String, Json)>,
) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => runs_of(&parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    runs.push(Json::Obj(vec![
        ("seed".to_string(), Json::Num(seed as f64)),
        ("seconds".to_string(), Json::Num(seconds)),
        ("trace".to_string(), Json::Bool(traced)),
        (
            "available_parallelism".to_string(),
            Json::Num(parallelism as f64),
        ),
        ("workloads".to_string(), Json::Obj(workloads)),
    ]));
    let file = Json::Obj(vec![
        (
            "benchmark".to_string(),
            Json::Str("scada-benchmark".to_string()),
        ),
        ("runs".to_string(), Json::Arr(runs)),
        ("claim".to_string(), Json::Null),
    ]);
    let text = file.render().map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn runs_of(file: &Json) -> Result<Vec<Json>, String> {
    file.get("runs")
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .ok_or_else(|| "results file has no \"runs\" array".to_string())
}

/// Every value of `metric` on `workload` across a results file's runs.
fn values(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// The verdict on one (workload, metric) row.
pub fn classify(baseline: &[f64], change: &[f64], metric: &Declared) -> (&'static str, f64) {
    let (a, b) = (stats::median(baseline), stats::median(change));
    // Positive means the change is worse.
    let worse_by = if metric.lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    };
    let spread = stats::spread(baseline).max(stats::spread(change));
    let beats = |x: f64, y: f64| {
        if metric.lower_is_better {
            x < y
        } else {
            x > y
        }
    };
    let dominates = change
        .iter()
        .all(|&c| baseline.iter().all(|&p| beats(c, p)));
    let verdict = if spread > metric.bound && !dominates {
        "unresolved"
    } else if worse_by > metric.bound {
        "worse"
    } else if -worse_by > metric.bound.max(spread) {
        "better"
    } else {
        "same"
    };
    (verdict, worse_by)
}

/// `compare A.json B.json`: B (the change) against A (the baseline),
/// under the bounds `BENCHMARK.json` fixes. Exits non-zero when any row
/// is `worse`.
pub fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let read = |path: &str| -> Result<Vec<Json>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        runs_of(&parse_json(&text).map_err(|e| format!("{path}: {e}"))?)
    };
    let (runs_a, runs_b) = (read(a)?, read(b)?);
    let manifest = benchmark_manifest()?;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "worse", "spreadA", "spreadB"
    );
    let mut any_worse = false;
    for workload in WORKLOADS {
        for metric in declared(&manifest, "end_to_end") {
            let (va, vb) = (
                values(&runs_a, workload, &metric.name),
                values(&runs_b, workload, &metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<14} {:<16} missing", metric.name);
                continue;
            }
            let (verdict, worse_by) = classify(&va, &vb, &metric);
            any_worse |= verdict == "worse";
            println!(
                "{workload:<14} {:<16} {:>14.6} {:>14.6} {:>7.2}% {:>7.2}% {:>7.2}%  {verdict}",
                metric.name,
                stats::median(&va),
                stats::median(&vb),
                worse_by * 100.0,
                stats::spread(&va) * 100.0,
                stats::spread(&vb) * 100.0,
            );
        }
    }
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Declared {
        Declared {
            name: "latency".to_string(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn classify_applies_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0];
        assert_eq!(
            classify(&base, &[100.0, 102.0, 101.0], &lower(0.1)).0,
            "same"
        );
        assert_eq!(
            classify(&base, &[120.0, 121.0, 119.0], &lower(0.1)).0,
            "worse"
        );
        assert_eq!(
            classify(&base, &[80.0, 81.0, 79.0], &lower(0.1)).0,
            "better"
        );
        let noisy = [60.0, 100.0, 140.0];
        assert_eq!(
            classify(&noisy, &[100.0, 101.0, 99.0], &lower(0.1)).0,
            "unresolved"
        );
    }
}
