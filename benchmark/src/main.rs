//! Command-line entry point. See `README.md`.
//!
//! ```text
//! scada-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! scada-benchmark run --seed N [--seconds S] [--smoke] [--out results.json]
//! scada-benchmark trace --seed N [--seconds S] [--smoke] [--spans DIR]
//! scada-benchmark compare A.json B.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use scada_benchmark::workloads::{self, RunOptions, WORKLOADS};
use scada_benchmark::{report::Outcome, suite};

/// Window of `--smoke` runs.
const SMOKE_SECONDS: f64 = 1.0;

const USAGE: &str = "usage:
  scada-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--spans DIR]
  scada-benchmark run --seed N [--seconds S] [--smoke] [--out FILE]
  scada-benchmark trace --seed N [--seconds S] [--smoke] [--spans DIR]
  scada-benchmark compare A.json B.json";

#[derive(Debug, Default)]
struct Args {
    command: Option<String>,
    positional: Vec<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad --seconds {v:?}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?} (want 0 or 1)")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value("--out")?.into()),
            "--spans" => args.spans = Some(value("--spans")?.into()),
            s if s.starts_with("--") => return Err(format!("unknown flag {s}")),
            s if args.command.is_none() && args.workload.is_none() => {
                args.command = Some(s.to_string())
            }
            s => args.positional.push(s.to_string()),
        }
    }
    Ok(args)
}

/// The directory every run keeps its scratch files and outputs in.
fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn window(args: &Args) -> f64 {
    if args.smoke {
        SMOKE_SECONDS
    } else {
        args.seconds.unwrap_or(20.0)
    }
}

/// Runs one workload in this process and prints its report, the
/// summary JSON last.
fn run_workload(args: &Args, workload: &str) -> Result<ExitCode, String> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?} (want one of {WORKLOADS:?})"
        ));
    }
    let seed = args.seed.ok_or("--seed is required")?;
    let scratch = results_dir().join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let opts = RunOptions {
        seed,
        window: Duration::from_secs_f64(window(args)),
        scratch: scratch.clone(),
        record: false,
    };
    let spans = args
        .spans
        .clone()
        .unwrap_or_else(|| results_dir().join("spans"));
    let result = if args.trace {
        scada_benchmark::layers::trace(workload, &opts, &spans)
    } else {
        workloads::run(workload, &opts)
    };
    workloads::remove_tree(&scratch);
    // Leave no empty results directory behind (spans keep it alive).
    let _ = std::fs::remove_dir(results_dir());
    let outcome: Outcome = result?;
    print!("{}", outcome.table(workload));
    for problem in &outcome.problems {
        eprintln!("{workload}: check failed: {problem}");
    }
    println!("{}", outcome.summary_line());
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (args.command.as_deref(), args.workload.clone()) {
        (None, Some(workload)) => run_workload(&args, &workload),
        (Some("run"), None) => {
            suite::run_all(args.seed, window(&args), args.smoke, args.out.clone(), None)
        }
        (Some("trace"), None) => suite::run_all(
            args.seed,
            window(&args),
            args.smoke,
            args.out.clone(),
            Some(
                args.spans
                    .clone()
                    .unwrap_or_else(|| results_dir().join("spans")),
            ),
        ),
        (Some("compare"), None) if args.positional.len() == 2 => {
            suite::compare_files(&args.positional[0], &args.positional[1])
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("scada-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
