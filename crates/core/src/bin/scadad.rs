//! `scadad` — the long-running analysis service.
//!
//! ```text
//! scadad [options]
//!
//! options:
//!   --listen ADDR    serve the line-delimited JSON protocol on a TCP
//!                    socket (e.g. 127.0.0.1:0 for an ephemeral port);
//!                    prints `scadad: listening on HOST:PORT` once bound
//!   --stdio          serve on stdin/stdout (the default)
//!   --shards N       engine shards; each owns a disjoint slice of the
//!                    sessions and the verdict cache, routed by model
//!                    hash (default 1; totals below are divided across
//!                    shards; >1 also replicates hot verdicts)
//!   --sessions N     warm analyzer sessions kept alive (default 8)
//!   --cache N        cached verdicts kept (default 1024, 0 disables)
//!   --max-inflight N concurrent queries admitted (0 = one per core)
//!   --max-line N     longest accepted request line in bytes (default 1 MiB)
//!   --fleet-root DIR enable the `batch` op, restricted to channel
//!                    directories under DIR; without this flag the op
//!                    is rejected (a network client must not resolve
//!                    arbitrary server paths)
//!   --certify        independently re-check every verdict (fixed for
//!                    the service lifetime)
//!   --proof-dir DIR  also write DRAT proofs to DIR (implies --certify)
//!   --trace PATH     write a structured JSONL event trace to PATH
//!   --journal DIR    write-ahead journal of state-mutating ops (load /
//!                    patch / evict) under DIR; on restart the warm
//!                    sessions are rebuilt by replaying the journal
//!                    (works across a `--shards` change)
//!   --durability strict|batch|off
//!                    with --journal: fsync policy (default strict — an
//!                    op is acknowledged only after its record is on
//!                    disk; batch syncs every 32 appends; off leaves
//!                    syncing to the OS)
//! ```
//!
//! With `--listen`, requests may be pipelined: write many lines without
//! waiting, optionally tagging each with an `"id"` (echoed on the
//! reply); replies come back in request order per connection.
//!
//! The service keeps an [`Analyzer`](scada_analyzer::Analyzer) warm per
//! loaded model (so repeat queries reuse learned solver state) and a
//! verdict cache in front of the sessions (so repeated queries answer
//! without touching the solver at all). Clients speak one JSON object
//! per line: `load`, `verify`, `maxres`, `enumerate`, `security_index`,
//! `patch`, `batch`, `stats`, `evict`, `health`, `shutdown`.
//! `scada-analyzer --connect ADDR` is a ready-made client.
//!
//! The `batch` op (`{"op":"batch","dir":"fleet/","jobs":4}`) audits a
//! whole directory of channel-directory configs in one request: the
//! fleet planner dedups near-duplicate configs into patch chains over
//! this service's warm sessions, and the reply carries one report row
//! per config. Inner loads and patches go through the normal admission
//! control and, when configured, the journal. The op requires
//! `--fleet-root`; `dir` is resolved relative to that root and may not
//! escape it (`.` or an empty `dir` audits the root itself).
//!
//! On `shutdown` — or SIGTERM/SIGINT — the service drains: in-flight
//! queries finish (flushing any DRAT proofs when certifying, and the
//! journal when one is configured), then the process exits 0.
//!
//! With `--journal`, startup replays the journal in the background
//! while the server answers `{"error":"warming","retry":true}`; the
//! `health` op reports `recovering` until the replay finishes, then
//! `ready`. A journal directory that fails validation (truncated
//! headers, torn records anywhere but the newest segment's tail) or a
//! replay that cannot reproduce the recorded model lineage exits with
//! code 5 rather than serving divergent state.

use std::process::ExitCode;
use std::sync::Arc;

use scada_analyzer::cli::{self, opt, raw};
use scada_analyzer::service::{
    serve_stdio, signal, Durability, FaultPlan, JournalConfig, JournaledEngine, LineHandler,
    ServeOptions, ShardedEngine,
};

/// Exit code for a journal that fails closed: validation at open, or a
/// replay that cannot reproduce the recorded lineage.
const EXIT_JOURNAL: u8 = 5;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(usage) => {
            eprintln!("error: {usage}");
            ExitCode::from(2)
        }
    }
}

/// Serves the chosen transport, generic over the handler so the bare
/// sharded engine and the journal wrapper share every code path: a
/// bound listener runs the readiness event loop on unix and the
/// thread-per-connection transport elsewhere; otherwise stdio.
fn serve<H: LineHandler>(
    engine: Arc<H>,
    listener: Option<std::net::TcpListener>,
) -> std::io::Result<()> {
    let Some(listener) = listener else {
        return serve_stdio(&*engine, std::io::stdin(), std::io::stdout());
    };
    #[cfg(unix)]
    {
        scada_analyzer::service::serve_event_loop(engine, listener, 0)
    }
    #[cfg(not(unix))]
    {
        scada_analyzer::service::serve_tcp(engine, listener)
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let flag = |name: &str| cli::flag(args, name);
    const TAKES_VALUE: [&str; 11] = [
        "--listen",
        "--shards",
        "--sessions",
        "--cache",
        "--max-inflight",
        "--max-line",
        "--fleet-root",
        "--proof-dir",
        "--trace",
        "--journal",
        "--durability",
    ];
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if TAKES_VALUE.contains(&arg.as_str()) {
            i += 2; // the value is consumed by raw()/opt() below
        } else if arg.starts_with("--") {
            i += 1;
        } else {
            // A bare word is a typo, not a config file: models are
            // loaded over the protocol, not from the command line.
            return Err(format!(
                "unexpected argument `{arg}` (scadad takes options only; \
                 load models over the protocol)"
            ));
        }
    }

    let (ctx, (tracer, _)) = cli::query_context(args, &["--certify", "--proof-dir", "--trace"])?;

    let fleet_root = match raw(args, "--fleet-root")? {
        None => None,
        Some(dir) => {
            let dir = std::path::PathBuf::from(dir);
            if !dir.is_dir() {
                return Err(format!("--fleet-root {} is not a directory", dir.display()));
            }
            Some(dir)
        }
    };

    let defaults = ServeOptions::default();
    let options = ServeOptions {
        sessions: opt(args, "--sessions")?.unwrap_or(defaults.sessions),
        cache: opt(args, "--cache")?.unwrap_or(defaults.cache),
        max_inflight: opt(args, "--max-inflight")?.unwrap_or(defaults.max_inflight),
        max_line: opt(args, "--max-line")?.unwrap_or(defaults.max_line),
        obs: ctx.obs,
        certify: ctx.certify,
        fleet_root,
    };

    let listen = raw(args, "--listen")?.cloned();
    if listen.is_some() && flag("--stdio") {
        return Err("--listen and --stdio are mutually exclusive".to_string());
    }
    let shards: usize = opt(args, "--shards")?.unwrap_or(1);
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }

    let journal_dir = raw(args, "--journal")?.cloned();
    let durability = match raw(args, "--durability")? {
        None => Durability::Strict,
        Some(v) => {
            if journal_dir.is_none() {
                return Err("--durability requires --journal".to_string());
            }
            v.parse::<Durability>()?
        }
    };

    // SIGTERM/SIGINT request the same graceful drain a `shutdown` op
    // would; on platforms without the raw-syscall backend the signals
    // simply keep their default disposition.
    let _ = signal::install();

    let sessions = options.sessions;
    let engine = Arc::new(ShardedEngine::new(options, shards));
    let listener = match &listen {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr)
                .map_err(|e| format!("cannot bind {addr}: {e}"))?;
            let local = listener
                .local_addr()
                .map_err(|e| format!("cannot resolve bound address: {e}"))?;
            // The one line clients (and CI scripts) wait for: with port
            // 0 this is the only way to learn the real port. Printed
            // before recovery finishes on purpose — clients may connect
            // and poll `health` while the service warms.
            println!("scadad: listening on {local}");
            use std::io::Write as _;
            std::io::stdout().flush().ok();
            Some(listener)
        }
        None => None,
    };

    let served = match journal_dir {
        Some(dir) => {
            let mut config = JournalConfig::new(&dir);
            config.durability = durability;
            // Retain more recipes than the engine holds sessions so
            // replay re-runs the engine's own LRU decisions instead of
            // being clipped by them.
            config.retain_models = sessions * 2 + 8;
            if let Ok(v) = std::env::var("SCADAD_JOURNAL_SEGMENT_BYTES") {
                config.segment_bytes = v
                    .parse()
                    .map_err(|_| format!("bad SCADAD_JOURNAL_SEGMENT_BYTES `{v}`"))?;
            }
            config.fault = FaultPlan::from_env()?;
            let journaled = match JournaledEngine::open(engine, config) {
                Ok(j) => Arc::new(j),
                Err(e) => {
                    eprintln!("error: journal {dir}: {e}");
                    return Ok(ExitCode::from(EXIT_JOURNAL));
                }
            };
            if journaled.needs_recovery() {
                let stats = journaled.open_stats();
                eprintln!(
                    "scadad: recovering {} session(s) from {} journal record(s)",
                    stats.models, stats.replayed
                );
                let worker = Arc::clone(&journaled);
                std::thread::Builder::new()
                    .name("scadad-recovery".to_string())
                    .spawn(move || {
                        // Test hook: hold the service in `recovering`
                        // long enough for a client to observe it.
                        if let Some(ms) = std::env::var("SCADAD_RECOVERY_DELAY_MS")
                            .ok()
                            .and_then(|v| v.parse::<u64>().ok())
                        {
                            std::thread::sleep(std::time::Duration::from_millis(ms));
                        }
                        if let Err(e) = worker.recover() {
                            eprintln!("error: recovery failed: {e}");
                            // Fail closed: serving would hand out state
                            // that disagrees with the journal.
                            std::process::exit(i32::from(EXIT_JOURNAL));
                        }
                    })
                    .map_err(|e| format!("cannot spawn recovery thread: {e}"))?;
            }
            serve(journaled, listener)
        }
        None => serve(engine, listener),
    };
    if let Err(e) = served {
        eprintln!("error: transport failed: {e}");
        return Ok(ExitCode::FAILURE);
    }

    if let Some(tracer) = &tracer {
        tracer.flush();
        eprintln!("trace: {} event(s) written", tracer.events());
    }
    Ok(ExitCode::SUCCESS)
}
