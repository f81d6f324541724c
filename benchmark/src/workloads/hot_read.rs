//! `hot_read`: every reply is a verdict-cache or replica hit, so the
//! event loop, the protocol and the caches do all the work.
//!
//! Two phases share the window: a closed loop (2 connections, pipeline
//! depth 8) measures capacity, then an open loop at the fixed rate
//! [`RATE_PER_S`] measures latency from each request's due time.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use scada_analyzer::service::ShardedEngine;

use crate::gen::{self, Rng, Zipf};
use crate::heap;
use crate::net::{self, Conn, Server};
use crate::report::{field, reply_ok, strip_elapsed, Outcome};
use crate::workloads::{end_to_end, serve_options, timed_setup, RunOptions, Slices};

/// Shards of the hot engine.
pub const SHARDS: usize = 2;
/// Session capacity (total over shards): far above the 24 hot models,
/// so routing skew can never evict one.
pub const SESSIONS: usize = 64;
/// Admission bound; cache hits bypass it.
pub const MAX_INFLIGHT: usize = 4;
/// Closed-loop pipeline depth per connection.
pub const DEPTH: usize = 8;
/// Open-loop arrival rate: a quarter of the closed-loop capacity
/// measured at the commit that introduced this benchmark. At half, a
/// shared machine that slowed down by half for a minute overloaded the
/// open loop and its latencies grew a hundredfold (see the README).
pub const RATE_PER_S: f64 = 13500.0;

/// A primed hot engine behind the event loop.
struct Hot {
    /// The listening event loop.
    server: Server,
    /// The generator's two connections.
    conns: Vec<Conn>,
    /// Request line of each query, by popularity rank.
    lines: Vec<String>,
    /// Each query's primed reply with timing zeroed.
    expected: Vec<String>,
}

/// Starts the engine, loads the 24 models and primes all 96 queries
/// three times over (cold, primary-cache hit, replica hit).
fn setup(models: &[scadasim::ScadaConfig], seed: u64) -> Result<Hot, String> {
    let engine = Arc::new(ShardedEngine::new(
        serve_options(SESSIONS, MAX_INFLIGHT, false),
        SHARDS,
    ));
    let server = Server::start(engine).map_err(|e| e.to_string())?;
    let mut conns = (0..2)
        .map(|_| Conn::connect(server.addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut hashes = Vec::with_capacity(models.len());
    for model in models {
        let reply = conns[0]
            .call(&gen::load_line(model))
            .map_err(|e| e.to_string())?;
        let json = reply_ok(&reply).map_err(|e| format!("hot load: {e}"))?;
        hashes.push(field(&json, "model").unwrap_or_default().to_string());
    }
    let lines: Vec<String> = gen::hot_ranking(seed)
        .into_iter()
        .map(|(model, kind)| gen::hot_query_line(&hashes[model], kind))
        .collect();
    let mut expected = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let mut last = String::new();
        for round in 0..3 {
            last = conns[(i + round) % 2]
                .call(line)
                .map_err(|e| e.to_string())?;
            reply_ok(&last).map_err(|e| format!("priming {line}: {e}"))?;
        }
        let json = reply_ok(&last)?;
        if field(&json, "provenance") != Some("cached") {
            return Err(format!("primed query is not cached: {last}"));
        }
        expected.push(strip_elapsed(&last));
    }
    Ok(Hot {
        server,
        conns,
        lines,
        expected,
    })
}

/// Fails the run when a reply differs from its primed reply.
fn check(outcome: &mut Outcome, expected: &str, reply: &str) {
    if strip_elapsed(reply) != expected {
        outcome.failed += 1;
        outcome.problem(format!(
            "hot reply differs from its primed reply: {reply} vs {expected}"
        ));
    }
}

/// Phase A: closed loop, Zipf-drawn. Returns the median requests per
/// second over the window's slices.
fn closed_phase(
    hot: &mut Hot,
    zipf: &mut Zipf,
    window: Duration,
    record: bool,
    outcome: &mut Outcome,
) -> Result<f64, String> {
    let mut slices = Slices::new(window);
    let until = Instant::now() + window;
    let mut completed = 0u64;
    let Hot {
        conns,
        lines,
        expected,
        ..
    } = hot;
    net::closed_loop::<usize>(conns, DEPTH, until, |_, reply, want| {
        if let Some((request, line, at)) = reply {
            completed += 1;
            slices.hit(at);
            if record {
                outcome
                    .roundtrips
                    .push((at - request.sent).as_secs_f64() * 1e6);
            }
            check(outcome, &expected[request.tag], &line);
        }
        want.then(|| {
            let rank = zipf.next_rank();
            (lines[rank].clone(), rank)
        })
    })
    .map_err(|e| e.to_string())?;
    outcome.attempted += completed;
    Ok(slices.median_rate())
}

/// What the open-loop phase measured.
struct OpenLoop {
    /// Latency of each request from its due time, microseconds.
    latency_us: Vec<f64>,
    /// How late the generator sent each request, microseconds.
    lag_us: Vec<f64>,
}

/// Phase B: open loop at `rate` requests per second, alternating the
/// two connections.
fn open_phase(
    hot: &mut Hot,
    zipf: &mut Zipf,
    rate: f64,
    window: Duration,
    outcome: &mut Outcome,
) -> Result<OpenLoop, String> {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    let end = start + window;
    let mut queues: Vec<VecDeque<(Instant, usize)>> = vec![VecDeque::new(), VecDeque::new()];
    let mut sent = 0u32;
    let mut result = OpenLoop {
        latency_us: Vec::new(),
        lag_us: Vec::new(),
    };
    loop {
        let now = Instant::now();
        let mut due = start + interval * sent;
        while due <= now && due < end {
            let conn = sent as usize % 2;
            let rank = zipf.next_rank();
            hot.conns[conn]
                .send(&hot.lines[rank])
                .map_err(|e| e.to_string())?;
            result.lag_us.push(due.elapsed().as_secs_f64() * 1e6);
            queues[conn].push_back((due, rank));
            sent += 1;
            due = start + interval * sent;
        }
        for (conn, queue) in queues.iter_mut().enumerate() {
            if queue.is_empty() {
                continue;
            }
            hot.conns[conn].fill().map_err(|e| e.to_string())?;
            while let Some(line) = hot.conns[conn].next_line() {
                let at = Instant::now();
                let (due, rank) = queue
                    .pop_front()
                    .ok_or("reply without an outstanding request")?;
                result.latency_us.push((at - due).as_secs_f64() * 1e6);
                check(outcome, &hot.expected[rank], &line);
            }
        }
        let pending = queues.iter().any(|q| !q.is_empty());
        let now = Instant::now();
        if due >= end && !pending {
            break;
        }
        let timeout = if due < end {
            due.saturating_duration_since(now)
        } else {
            Duration::from_millis(50)
        };
        net::wait_readable(&mut hot.conns, timeout).map_err(|e| e.to_string())?;
    }
    outcome.attempted += u64::from(sent);
    Ok(result)
}

/// The end-to-end run.
pub fn run(opts: &RunOptions) -> Result<Outcome, String> {
    let models = gen::hot_models(opts.seed);
    let (mut hot, setup_s) = timed_setup(|_| setup(&models, opts.seed))?;
    let mut outcome = Outcome::default();
    let mut zipf = Zipf::new(hot.lines.len(), Rng::new(opts.seed, "hot_read/zipf"));
    heap::reset_peak();
    let ops_per_s = closed_phase(
        &mut hot,
        &mut zipf,
        opts.share(0.4),
        opts.record,
        &mut outcome,
    )?;
    let open = open_phase(
        &mut hot,
        &mut zipf,
        RATE_PER_S,
        opts.share(0.6),
        &mut outcome,
    )?;
    let peak_heap_mb = heap::peak_mb();
    hot.server.stop().map_err(|e| e.to_string())?;
    outcome.gen_lag_us = open.lag_us;
    end_to_end(
        &mut outcome,
        setup_s,
        ops_per_s,
        open.latency_us,
        peak_heap_mb,
    );
    Ok(outcome)
}
