//! `certify_large`: certified audits of IEEE-57 models through
//! `scadad --certify`. Solving, DRAT replay and the security-index SAT
//! engine do nearly all the work; transport and cache do none.

use std::sync::Arc;
use std::time::Instant;

use scada_analyzer::service::Engine;
use scadasim::ScadaConfig;

use crate::net::{self, Conn, Server};
use crate::report::{field, model_of, reply_ok, Outcome};
use crate::workloads::{end_to_end, serve_options, timed_setup, RunOptions};
use crate::{gen, heap};

/// Sessions: one model is audited at a time.
pub const SESSIONS: usize = 4;
/// Admission bound; one connection never exceeds it.
pub const MAX_INFLIGHT: usize = 2;

/// The audit script for one model, as request builders.
pub fn battery_lines(model: &str) -> Vec<String> {
    let mut lines: Vec<String> = gen::CERTIFY_BATTERY
        .iter()
        .map(|(property, k)| {
            format!(
                "{{\"op\":\"verify\",\"model\":\"{model}\",\"property\":\"{property}\",\"spec\":{{\"k\":{k}}}}}"
            )
        })
        .collect();
    lines.push(format!(
        "{{\"op\":\"security_index\",\"model\":\"{model}\"}}"
    ));
    lines.push(format!("{{\"op\":\"evict\",\"model\":\"{model}\"}}"));
    lines
}

/// Checks one certified reply: verdicts must carry a `proof` or
/// `threat` certificate, and the index must have no failed component.
pub fn check_reply(reply: &str) -> Result<(), String> {
    let json = reply_ok(reply)?;
    match field(&json, "op") {
        Some("verify") => match field(&json, "certificate") {
            Some("proof" | "threat") => Ok(()),
            other => Err(format!("certificate {other:?}: {reply}")),
        },
        Some("security_index") => match json.get("cert_failures").and_then(|v| v.as_u64()) {
            Some(0) => Ok(()),
            other => Err(format!("security index cert_failures {other:?}")),
        },
        _ => Ok(()),
    }
}

/// A certified engine behind the event loop.
struct Certified {
    /// The listening event loop.
    server: Server,
    /// The generator's connection.
    conn: Conn,
}

fn setup(warmup: &ScadaConfig) -> Result<Certified, String> {
    let engine = Arc::new(Engine::new(serve_options(SESSIONS, MAX_INFLIGHT, true)));
    let server = Server::start(engine).map_err(|e| e.to_string())?;
    let mut conn = Conn::connect(server.addr()).map_err(|e| e.to_string())?;
    let load = conn
        .call(&gen::load_line(warmup))
        .map_err(|e| e.to_string())?;
    let json = reply_ok(&load)?;
    let model = field(&json, "model").unwrap_or_default().to_string();
    let lines = battery_lines(&model);
    for line in [&lines[0], &lines[lines.len() - 1]] {
        let reply = conn.call(line).map_err(|e| e.to_string())?;
        check_reply(&reply)?;
    }
    Ok(Certified { server, conn })
}

/// Where the single connection is in its audit of one model.
struct Auditor {
    loads: Vec<String>,
    model: usize,
    lines: Vec<String>,
    step: usize,
    started: Instant,
}

/// The end-to-end run.
pub fn run(opts: &RunOptions) -> Result<Outcome, String> {
    let models = gen::certify_models(opts.seed, gen::CERTIFY_MODELS);
    let warmup = gen::certify_warmup();
    let (mut certified, setup_s) = timed_setup(|_| setup(&warmup))?;
    let mut auditor = Auditor {
        loads: models.iter().map(gen::load_line).collect(),
        model: 0,
        lines: Vec::new(),
        step: 0,
        started: Instant::now(),
    };
    let mut outcome = Outcome::default();
    let mut audits = Vec::new();
    heap::reset_peak();
    let start = Instant::now();
    outcome.gen_lag_us = net::closed_loop::<()>(
        std::slice::from_mut(&mut certified.conn),
        1,
        start + opts.window,
        |_, reply, want| {
            if let Some((request, line, at)) = reply {
                outcome.attempted += 1;
                if opts.record {
                    outcome
                        .roundtrips
                        .push((at - request.sent).as_secs_f64() * 1e6);
                }
                if let Err(e) = check_reply(&line) {
                    outcome.failed += 1;
                    outcome.problem(format!("certified audit: {e}"));
                }
                if auditor.step == 0 {
                    let model = model_of(&line);
                    auditor.lines = battery_lines(&model);
                }
                auditor.step += 1;
                if auditor.step > auditor.lines.len() {
                    audits.push((at - auditor.started).as_secs_f64() * 1e6);
                    auditor.step = 0;
                    auditor.model += 1;
                }
            }
            // An audit in progress always finishes, so every model in
            // the window is audited in full.
            (want || auditor.step > 0)
                .then(|| {
                    if auditor.step == 0 {
                        auditor.started = Instant::now();
                        auditor.loads[auditor.model % auditor.loads.len()].clone()
                    } else {
                        auditor.lines[auditor.step - 1].clone()
                    }
                })
                .map(|line| (line, ()))
        },
    )
    .map_err(|e| e.to_string())?;
    let peak_heap_mb = heap::peak_mb();
    certified.server.stop().map_err(|e| e.to_string())?;
    // Requests per second of audit time (every audit runs to the end).
    let elapsed: f64 = audits.iter().sum::<f64>() / 1e6;
    let ops_per_s = outcome.attempted as f64 / elapsed;
    end_to_end(&mut outcome, setup_s, ops_per_s, audits, peak_heap_mb);
    Ok(outcome)
}
