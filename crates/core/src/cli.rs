//! Command-line flag parsing shared by the workspace binaries
//! (`scada-analyzer`, `scadad`, `experiments`).
//!
//! Every helper returns `Err(message)` for a usage error; the binaries
//! print it as `error: {message}` and exit with code 2. Malformed values
//! are usage errors, never silent fallbacks to a default.
//!
//! [`query_context`] turns the flags shared across binaries —
//! `--timeout`, `--conflict-budget`, `--certify`, `--proof-dir`,
//! `--trace` and `--stats` — into a [`QueryContext`], restricted to the
//! subset a binary accepts.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use crate::certify::CertifyOptions;
use crate::obs::{JsonlTracer, MetricsRegistry, Obs};
use crate::spec::{parse_duration, QueryContext, QueryLimits, RetryPolicy};

/// Every flag [`query_context`] understands.
pub const CONTEXT_FLAGS: [&str; 6] = [
    "--timeout",
    "--conflict-budget",
    "--certify",
    "--proof-dir",
    "--trace",
    "--stats",
];

/// The trace sink and metrics registry behind a parsed context's `obs`,
/// kept so the binary can flush the trace and print the metrics table
/// when it finishes.
pub type ObsHandles = (Option<Arc<JsonlTracer>>, Option<Arc<MetricsRegistry>>);

/// Whether the bare flag `name` is present.
pub fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The value following option `name`, if the option is present.
///
/// # Errors
///
/// The option being present without a value is a usage error.
pub fn raw<'a>(args: &'a [String], name: &str) -> Result<Option<&'a String>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v)),
            None => Err(format!("{name} requires a value")),
        },
    }
}

/// Every value of a repeatable option, in the order given.
///
/// # Errors
///
/// Any occurrence without a value is a usage error.
pub fn raw_all<'a>(args: &'a [String], name: &str) -> Result<Vec<&'a String>, String> {
    let mut values = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == name {
            match args.get(i + 1) {
                Some(v) => values.push(v),
                None => return Err(format!("{name} requires a value")),
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(values)
}

/// A numeric option.
///
/// # Errors
///
/// A missing or unparsable value is a usage error.
pub fn opt<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match raw(args, name)? {
        None => Ok(None),
        Some(v) => v
            .parse::<T>()
            .map(Some)
            .map_err(|_| format!("bad {name} `{v}` (expected a number)")),
    }
}

/// The `--timeout DUR` option (`150ms`, `5s`, `2m`; see
/// [`parse_duration`]).
///
/// # Errors
///
/// A missing or unparsable duration is a usage error.
pub fn timeout(args: &[String]) -> Result<Option<Duration>, String> {
    match raw(args, "--timeout")? {
        None => Ok(None),
        Some(v) => parse_duration(v)
            .map(Some)
            .ok_or_else(|| format!("bad --timeout `{v}` (use e.g. 150ms, 5s, 2m)")),
    }
}

/// Parses the flags of [`CONTEXT_FLAGS`] that appear in `accepted`;
/// the others are left alone, exactly as if the binary did not know
/// them. Returns the context plus the handles behind its `obs`.
///
/// * `--timeout DUR` bounds each query's wall clock;
///   `--conflict-budget N` bounds each solve attempt, with an escalating
///   ×2 retry of up to four attempts.
/// * `--certify` re-checks every verdict; `--proof-dir DIR` creates
///   `DIR`, writes each query's DRAT proof there, and implies
///   `--certify`.
/// * `--trace PATH` writes a JSONL event trace; `--stats` collects
///   metrics for a summary table.
///
/// # Errors
///
/// Malformed values, and a proof directory or trace file that cannot be
/// created, are usage errors.
pub fn query_context(
    args: &[String],
    accepted: &[&str],
) -> Result<(QueryContext, ObsHandles), String> {
    let accepts = |name: &str| accepted.contains(&name);
    let mut limits = QueryLimits::none();
    if accepts("--timeout") {
        if let Some(timeout) = timeout(args)? {
            limits = limits.with_timeout(timeout);
        }
    }
    if accepts("--conflict-budget") {
        if let Some(budget) = opt::<u64>(args, "--conflict-budget")? {
            limits = limits
                .with_conflict_budget(budget)
                .with_retry(RetryPolicy::escalating(4));
        }
    }

    let mut certify = CertifyOptions {
        enabled: accepts("--certify") && flag(args, "--certify"),
        ..CertifyOptions::default()
    };
    if accepts("--proof-dir") {
        if let Some(dir) = raw(args, "--proof-dir")? {
            let dir = PathBuf::from(dir);
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("cannot create proof dir {}: {e}", dir.display()))?;
            certify.proof_dir = Some(dir);
            certify.enabled = true;
        }
    }

    let mut obs = Obs::none();
    let mut tracer = None;
    if accepts("--trace") {
        if let Some(path) = raw(args, "--trace")? {
            let sink = JsonlTracer::to_file(Path::new(path))
                .map_err(|e| format!("cannot create trace file {path}: {e}"))?;
            let sink = Arc::new(sink);
            tracer = Some(sink.clone());
            obs = obs.with_tracer(sink);
        }
    }
    let mut metrics = None;
    if accepts("--stats") && flag(args, "--stats") {
        let registry = Arc::new(MetricsRegistry::new());
        metrics = Some(registry.clone());
        obs = obs.with_metrics(registry);
    }

    let ctx = QueryContext {
        limits,
        obs,
        certify,
    };
    Ok((ctx, (tracer, metrics)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unaccepted_flags_are_ignored() {
        let a = args(&["--stats", "--timeout", "fast", "--certify"]);
        let (ctx, (tracer, metrics)) = query_context(&a, &["--certify"]).unwrap();
        assert!(ctx.certify.enabled);
        assert!(ctx.limits.is_unbounded());
        assert!(tracer.is_none() && metrics.is_none());
        assert!(query_context(&a, &CONTEXT_FLAGS).is_err());
    }
}
