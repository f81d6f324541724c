//! The four workloads. Each one builds its inputs from the seed, sets
//! up the program several times (keeping the last set-up and reporting
//! the median set-up time), measures for the requested window, and
//! checks every output.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use scada_analyzer::obs::Obs;
use scada_analyzer::service::ServeOptions;
use scada_analyzer::CertifyOptions;

use crate::report::Outcome;
use crate::stats;

pub mod certify_large;
pub mod fleet_audit;
pub mod hot_read;
pub mod operator_mix;

/// Workload names, in report order.
pub const WORKLOADS: [&str; 4] = ["hot_read", "operator_mix", "fleet_audit", "certify_large"];

/// Set-ups per run: at least `SETUP_MIN_REPS`, then more while all of
/// them together took less than `SETUP_BUDGET`, up to
/// `SETUP_MAX_REPS`. `setup_s` is their median, so a set-up of tens of
/// milliseconds is repeated often enough for a steady median.
pub const SETUP_MIN_REPS: usize = 3;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_MAX_REPS: usize = 15;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// How one run is parameterised.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload seed: the only source of input variation.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// A run directory inside the checkout for journals and portfolios.
    pub scratch: PathBuf,
    /// Record per-request round trips and generator lag (the traced
    /// variant of the end-to-end run).
    pub record: bool,
}

impl RunOptions {
    /// A fresh, empty subdirectory of the scratch directory.
    pub fn dir(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.scratch.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// A share of the measured window.
    pub fn share(&self, fraction: f64) -> Duration {
        self.window.mul_f64(fraction)
    }
}

/// Explicit service options. Every field is spelled out so a change of
/// a library default cannot silently change what the benchmark runs.
pub fn serve_options(sessions: usize, max_inflight: usize, certify: bool) -> ServeOptions {
    ServeOptions {
        sessions,
        cache: 4096,
        max_inflight,
        max_line: 1 << 22,
        obs: Obs::none(),
        certify: if certify {
            CertifyOptions::enabled()
        } else {
            CertifyOptions::default()
        },
        fleet_root: None,
    }
}

/// Runs `setup` as [`SETUP_MIN_REPS`] describes, dropping all but the
/// last result, and returns it with the median set-up time in seconds.
pub fn timed_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_MAX_REPS);
    let mut kept = None;
    let mut total = Duration::ZERO;
    for rep in 0..SETUP_MAX_REPS {
        if rep >= SETUP_MIN_REPS && total >= SETUP_BUDGET {
            break;
        }
        // Tear down the previous set-up before timing the next one.
        drop(kept.take());
        let start = Instant::now();
        let value = setup(rep)?;
        let took = start.elapsed();
        total += took;
        times.push(took.as_secs_f64());
        kept = Some(value);
    }
    Ok((kept.expect("SETUP_MIN_REPS > 0"), stats::median(&times)))
}

/// Slices of a measured window, counting completions in each. The
/// median of the per-slice rates is the reported throughput: one stall
/// of the shared machine then moves one slice, not the result.
#[derive(Debug)]
pub struct Slices {
    start: Instant,
    width: Duration,
    counts: Vec<u64>,
}

/// Slices per throughput window.
pub const SLICES: u32 = 10;

impl Slices {
    /// Slices of a window that starts now.
    pub fn new(window: Duration) -> Slices {
        Slices {
            start: Instant::now(),
            width: window / SLICES,
            counts: vec![0; SLICES as usize],
        }
    }

    /// Counts one completion at `at`; completions after the window
    /// (while outstanding requests drain) are not counted.
    pub fn hit(&mut self, at: Instant) {
        let index = (at.saturating_duration_since(self.start).as_secs_f64()
            / self.width.as_secs_f64()) as usize;
        if let Some(count) = self.counts.get_mut(index) {
            *count += 1;
        }
    }

    /// Median completions per second over the slices.
    pub fn median_rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .counts
            .iter()
            .map(|&c| c as f64 / self.width.as_secs_f64())
            .collect();
        stats::median(&rates)
    }
}

/// Records the end-to-end metrics every workload reports, in the order
/// `BENCHMARK.json` lists them. `latencies_us` holds one sample per
/// unit of the workload's work (a request, a fleet pass, a model
/// audit); `peak_heap_mb` is the measured window's
/// [`crate::heap::peak_mb`].
pub fn end_to_end(
    outcome: &mut Outcome,
    setup_s: f64,
    ops_per_s: f64,
    latencies_us: Vec<f64>,
    peak_heap_mb: f64,
) {
    let sorted = stats::sorted(latencies_us);
    let n = sorted.len();
    outcome.metric("setup_s", setup_s, "s");
    outcome.metric("ops_per_s", ops_per_s, "1/s");
    outcome.sampled("latency_p50_us", stats::percentile(&sorted, 0.50), "us", n);
    outcome.sampled("latency_p90_us", stats::percentile(&sorted, 0.90), "us", n);
    outcome.metric("peak_heap_mb", peak_heap_mb, "MiB");
    for q in [0.99, 0.999] {
        outcome.note(format!(
            "latency p{} {:.1} us",
            q * 100.0,
            stats::percentile(&sorted, q)
        ));
    }
}

/// Runs the end-to-end measurement of `workload`.
pub fn run(workload: &str, opts: &RunOptions) -> Result<Outcome, String> {
    match workload {
        "hot_read" => hot_read::run(opts),
        "operator_mix" => operator_mix::run(opts),
        "fleet_audit" => fleet_audit::run(opts),
        "certify_large" => certify_large::run(opts),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Removes a directory tree, ignoring a missing one.
pub fn remove_tree(dir: &Path) {
    if dir.exists() {
        let _ = std::fs::remove_dir_all(dir);
    }
}
