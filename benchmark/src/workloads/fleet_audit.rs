//! `fleet_audit`: repeated local `--batch --jobs 2` audits of a seeded
//! portfolio on a fresh engine each pass. Ingest, hashing, planning,
//! cold anchors, patch chains and cache duplicates do the work; no
//! transport is involved.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use scada_analyzer::fleet::{run_batch, BatchOutcome};
use scada_analyzer::service::Engine;

use crate::report::{strip_elapsed, Outcome};
use crate::workloads::{end_to_end, serve_options, timed_setup, RunOptions};
use crate::{gen, heap};

/// Worker threads of one pass (`--jobs 2`).
pub const JOBS: usize = 2;
/// Sessions of the per-pass engine: one live chain per worker.
pub const SESSIONS: usize = 8;
/// Admission bound of the per-pass engine.
pub const MAX_INFLIGHT: usize = 2;

/// Writes the seeded portfolio under `dir`.
pub fn write_portfolio(
    portfolio: &[(String, BTreeMap<String, String>)],
    dir: &Path,
) -> Result<(), String> {
    for (name, files) in portfolio {
        for (rel, text) in files {
            let path = dir.join(name).join(rel);
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
            }
            std::fs::write(&path, text).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// One audit pass on a fresh engine.
fn pass(dir: &Path) -> Result<BatchOutcome, String> {
    let engine = Engine::new(serve_options(SESSIONS, MAX_INFLIGHT, false));
    let submit = |line: &str| engine.handle_line(line).line;
    let outcome = run_batch(dir, JOBS, &submit).map_err(|e| e.to_string());
    engine.drain();
    outcome
}

/// Whether an error text is addressed `file:line:column: message`.
fn addressed(error: &str) -> bool {
    let parts: Vec<&str> = error.splitn(4, ':').collect();
    parts.len() == 4
        && parts[0].ends_with(".csv")
        && parts[1].parse::<usize>().is_ok_and(|n| n > 0)
        && parts[2].parse::<usize>().is_ok_and(|n| n > 0)
}

/// Checks a reference pass: only the planted configs may error, each
/// with an addressed error. Returns the rows with timing zeroed.
pub fn check_reference(batch: &BatchOutcome) -> Result<Vec<String>, String> {
    let errors: Vec<_> = batch.rows.iter().filter(|r| r.error.is_some()).collect();
    let planted = errors
        .iter()
        .filter(|r| r.config.starts_with("zz-bad-"))
        .filter(|r| addressed(r.error.as_deref().unwrap_or_default()))
        .count();
    if errors.len() != gen::PLANTED || planted != gen::PLANTED {
        let listed: Vec<String> = errors
            .iter()
            .map(|r| format!("{}: {}", r.config, r.error.as_deref().unwrap_or_default()))
            .collect();
        return Err(format!(
            "expected exactly the {} planted configs to error with file:line:column, got {listed:?}",
            gen::PLANTED
        ));
    }
    Ok(batch
        .rows
        .iter()
        .map(|r| strip_elapsed(&r.render_json()))
        .collect())
}

/// Compares a pass with the reference; returns unexpected failures.
fn check_pass(batch: &BatchOutcome, reference: &[String], outcome: &mut Outcome) -> u64 {
    let rows: Vec<String> = batch
        .rows
        .iter()
        .map(|r| strip_elapsed(&r.render_json()))
        .collect();
    let mut failed = 0;
    if rows.len() != reference.len() {
        outcome.problem(format!(
            "pass produced {} rows, the reference {}",
            rows.len(),
            reference.len()
        ));
    }
    for (row, want) in rows.iter().zip(reference) {
        if row != want {
            outcome.problem(format!(
                "row differs from the reference pass: {row} vs {want}"
            ));
        }
    }
    for row in &batch.rows {
        if row.error.is_some() && !row.config.starts_with("zz-bad-") {
            failed += 1;
        }
    }
    failed
}

/// The end-to-end run.
pub fn run(opts: &RunOptions) -> Result<Outcome, String> {
    let dir = opts
        .dir("fleet_audit-portfolio")
        .map_err(|e| e.to_string())?;
    write_portfolio(&gen::portfolio(opts.seed), &dir)?;
    let (reference, setup_s) = timed_setup(|_| check_reference(&pass(&dir)?))?;
    let mut outcome = Outcome::default();
    let mut passes = Vec::new();
    let mut rows = 0u64;
    heap::reset_peak();
    let start = Instant::now();
    while start.elapsed() < opts.window || passes.is_empty() {
        let t = Instant::now();
        let batch = pass(&dir)?;
        passes.push(t.elapsed().as_secs_f64() * 1e6);
        rows += batch.rows.len() as u64;
        outcome.failed += check_pass(&batch, &reference, &mut outcome);
    }
    let peak_heap_mb = heap::peak_mb();
    outcome.attempted = rows;
    // Configs per second of the median pass: every pass audits the same
    // portfolio, so the median pass prices it without one stalled pass.
    let ops_per_s = reference.len() as f64 / (crate::stats::median(&passes) / 1e6);
    end_to_end(&mut outcome, setup_s, ops_per_s, passes, peak_heap_mb);
    Ok(outcome)
}
