//! Traced runs: per-layer metrics, measured from outside the program.
//!
//! A traced run of a workload does four things:
//!
//! 1. runs the workload end to end twice on a quarter window, untraced
//!    and with every round trip recorded as an `eventloop.roundtrip`
//!    span, which prices the tracing;
//! 2. replays a fixed prefix of the workload's request stream through
//!    the engine's `handle_line` in process, timing each request as a
//!    `server.<op>` span, and decomposes every request into the public
//!    layer calls it implies (parse, lower, hash, encode, solve,
//!    certify, index, patch, render) on shadow analyzers that mirror
//!    the engine's sessions, each a child span of the request;
//! 3. probes the layers the stream does not reach (a patch, a maxres, a
//!    small fleet, the journal, a certified verify, one-at-a-time cached
//!    verifies over TCP and in process) on the workload's own models, so
//!    every layer metric exists on every workload;
//! 4. writes the spans as JSONL and reports the per-layer table.
//!
//! Counts (conflicts, clauses, routes) come from the fixed-length
//! replay and repeat exactly for one seed.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use scada_analyzer::fleet::{plan_fleet, run_plan, scan_fleet};
use scada_analyzer::ingest::{export_files, from_scada, import_files};
use scada_analyzer::obs::Obs;
use scada_analyzer::service::{
    parse_json, parse_request, Engine, JournaledEngine, Json, Request, ShardedEngine,
};
use scada_analyzer::{
    advance_model_hash, model_hash, AnalysisInput, Analyzer, CertifyOptions, Property,
    ResiliencySpec, SecurityIndexAnalyzer,
};
use scadasim::ScadaConfig;

use crate::gen::{self, Rng, Step, Zipf};
use crate::net::{Conn, Server};
use crate::report::{field, model_of, op_class, reply_ok, strip_elapsed, verdict_name, Outcome};
use crate::spans::{Spans, NO_REQUEST};
use crate::stats;
use crate::workloads::{
    self, certify_large, fleet_audit, hot_read, operator_mix, serve_options, RunOptions,
};

/// Zipf-drawn hot requests replayed after priming.
const HOT_REPLAY: usize = 4000;
/// Operator cycles replayed per connection.
const OPERATOR_REPLAY: usize = 3;
/// Certified model audits replayed.
const CERTIFY_REPLAY: usize = 2;
/// Cached round trips per side of the transport probe.
const TRANSPORT_PROBE: usize = 2000;
/// Round trips of the traced end-to-end run kept as spans.
const ROUNDTRIP_SPANS: usize = 10_000;

/// The result of one request sent through an engine.
pub struct Handled {
    /// The reply line.
    pub reply: String,
    /// Time spent in the engine's `handle_line`.
    pub server: Duration,
    /// Extra time the journal added to this request, when measured.
    pub journal: Option<Duration>,
}

/// Sends a line through a bare `handle_line`.
pub fn handled(handle: impl FnOnce(&str) -> String, line: &str) -> Handled {
    let start = Instant::now();
    let reply = handle(line);
    Handled {
        reply,
        server: start.elapsed(),
        journal: None,
    }
}

/// Shadow state of one served model: analyzers that have seen the same
/// loads and patches as the engine's session.
struct Shadow {
    /// Analyzer in the engine's mode (certified or not).
    primary: Analyzer<'static>,
    /// Plain analyzer next to a certified primary, for solve times and
    /// the certification overhead.
    plain: Option<Analyzer<'static>>,
}

/// Times requests as `server.<op>` spans and replays each through the
/// public layer calls as child spans.
pub struct Decomposer {
    /// Every span recorded so far.
    pub spans: Spans,
    certify: bool,
    shadows: HashMap<u128, Shadow>,
    next_request: u64,
    /// Solver conflicts over the decomposed plain verifies.
    pub conflicts: u64,
    /// Solve attempts over the decomposed plain verifies.
    pub attempts: u64,
    /// Largest clause count an encoding reached.
    pub clauses: usize,
    /// Certified over plain verify time, per paired verify.
    pub cert_ratio: Vec<f64>,
    /// Output-check failures found while decomposing.
    pub problems: Vec<String>,
}

fn certify_options(enabled: bool) -> CertifyOptions {
    if enabled {
        CertifyOptions::enabled()
    } else {
        CertifyOptions::default()
    }
}

fn server_span(class: &str) -> &'static str {
    match class {
        "load" => "server.load",
        "verify" => "server.verify",
        "cached" => "server.cached",
        "patch" => "server.patch",
        "maxres" => "server.maxres",
        "security_index" => "server.security_index",
        "evict" => "server.evict",
        _ => "server.other",
    }
}

impl Decomposer {
    /// A decomposer for an engine that does (or does not) certify.
    pub fn new(certify: bool) -> Decomposer {
        Decomposer {
            spans: Spans::default(),
            certify,
            shadows: HashMap::new(),
            next_request: 0,
            conflicts: 0,
            attempts: 0,
            clauses: 0,
            cert_ratio: Vec::new(),
            problems: Vec::new(),
        }
    }

    /// Sends `line` through `handle`, records the server span, and
    /// replays the request through the layer calls.
    pub fn request(&mut self, line: &str, handle: impl FnOnce(&str) -> Handled) -> String {
        let request = self.next_request;
        self.next_request += 1;
        let start = Instant::now();
        let handled = handle(line);
        let class = op_class(line, &handled.reply);
        let server = self
            .spans
            .record(server_span(class), request, None, start, handled.server);
        if let Some(journal) = handled.journal {
            self.spans
                .record("journal.append", request, Some(server), start, journal);
        }
        self.decompose(request, server, line, &handled.reply);
        handled.reply
    }

    fn decompose(&mut self, id: u64, server: u64, line: &str, reply: &str) {
        let parent = Some(server);
        let request = self
            .spans
            .time("protocol.parse", id, parent, || parse_request(line));
        let answered =
            reply.starts_with("{\"ok\":true") && !reply.contains("\"provenance\":\"cached\"");
        if let (Ok(request), true) = (request, answered) {
            self.layers(id, parent, request, reply);
        }
        let rendered = self.spans.time("protocol.json", id, parent, || {
            parse_json(reply).and_then(|json| json.render())
        });
        if let Err(e) = rendered {
            self.problems
                .push(format!("reply does not round-trip ({e}): {reply}"));
        }
    }

    fn layers(&mut self, id: u64, parent: Option<u64>, request: Request, reply: &str) {
        let spans = &mut self.spans;
        match request {
            Request::Load {
                config: Some(text), ..
            } => {
                let input = spans.time("ingest.config", id, parent, || {
                    scadasim::parse_config(&text).map(AnalysisInput::from)
                });
                let Ok(input) = input else { return };
                let hash = spans.time("hash.model", id, parent, || model_hash(&input));
                if self.shadows.contains_key(&hash.0) {
                    return;
                }
                let certify = self.certify;
                let primary = spans.time("encode.cold", id, parent, || {
                    Analyzer::owning(input.clone(), Obs::none(), certify_options(certify))
                });
                let plain = certify
                    .then(|| Analyzer::owning(input, Obs::none(), CertifyOptions::default()));
                self.shadows.insert(hash.0, Shadow { primary, plain });
            }
            Request::Verify {
                model,
                property,
                spec,
                ..
            } => {
                let Some(shadow) = self.shadows.get_mut(&model.0) else {
                    return;
                };
                let name = if self.certify {
                    "certify.verify"
                } else {
                    "solve.verify"
                };
                let start = Instant::now();
                let report = spans.time(name, id, parent, || {
                    shadow.primary.verify_with_report(property, spec)
                });
                let primary_us = start.elapsed().as_secs_f64();
                let served = reply_ok(reply)
                    .ok()
                    .and_then(|json| field(&json, "verdict").map(str::to_string));
                if served.as_deref() != Some(verdict_name(&report.verdict)) {
                    self.problems.push(format!(
                        "served verdict {served:?} but the public analyzer says {}: {reply}",
                        verdict_name(&report.verdict)
                    ));
                }
                let plain_report = match shadow.plain.as_mut() {
                    Some(plain) => {
                        let start = Instant::now();
                        let plain_report = spans.time("solve.verify", id, None, || {
                            plain.verify_with_report(property, spec)
                        });
                        self.cert_ratio
                            .push(primary_us / start.elapsed().as_secs_f64());
                        plain_report
                    }
                    None => report,
                };
                self.conflicts += plain_report.conflicts;
                self.attempts += u64::from(plain_report.attempts);
                self.clauses = self.clauses.max(plain_report.encoding.clauses);
            }
            Request::MaxRes {
                model,
                property,
                axis,
                r,
                ..
            } => {
                if let Some(shadow) = self.shadows.get_mut(&model.0) {
                    spans.time("solve.maxres", id, parent, || {
                        shadow.primary.max_resiliency(property, axis, r)
                    });
                }
            }
            Request::SecurityIndex { model } => {
                let Some(shadow) = self.shadows.get(&model.0) else {
                    return;
                };
                let ms = shadow.primary.input().measurements.clone();
                let certify = certify_options(self.certify);
                spans.time("security_index.sat", id, parent, || {
                    SecurityIndexAnalyzer::with_certification(&ms, &certify).distribution()
                });
                spans.time("security_index.mincut", id, None, || {
                    powergrid::securityindex::security_indices(&ms)
                });
            }
            Request::Patch { model, patch } => {
                let Some(mut shadow) = self.shadows.remove(&model.0) else {
                    return;
                };
                let applied = spans.time("patch.apply", id, parent, || {
                    patch.apply(shadow.primary.input())
                });
                let next = spans.time("hash.advance", id, parent, || {
                    advance_model_hash(model, &patch)
                });
                if applied.is_err() {
                    return;
                }
                let delta = spans.time("encode.delta", id, parent, || {
                    shadow.primary.apply_patch(&patch)
                });
                if let Some(plain) = shadow.plain.as_mut() {
                    let _ = plain.apply_patch(&patch);
                }
                if delta.is_ok() {
                    self.shadows.insert(next.0, shadow);
                }
            }
            Request::Evict { model } => {
                self.shadows.remove(&model.0);
            }
            _ => {}
        }
    }

    /// Sends every line of `lines` in order through `handle`.
    pub fn script(
        &mut self,
        lines: &[String],
        mut handle: impl FnMut(&str) -> Handled,
    ) -> Vec<String> {
        lines
            .iter()
            .map(|line| self.request(line, &mut handle))
            .collect()
    }
}

/// Runs a model's probe script: load, verify, cached verify, maxres,
/// security index, a profile patch, a verify on the patched model, and
/// evict — every server op class and layer on the workload's own model.
fn probe_requests(
    dec: &mut Decomposer,
    config: &ScadaConfig,
    mut handle: impl FnMut(&str) -> Handled,
    outcome: &mut Outcome,
) {
    let pairs = gen::security_pairs(config);
    let (a, b) = pairs[0];
    let steps = [
        Step::Load,
        Step::Verify("obs", 1),
        Step::Repeat,
        Step::MaxRes,
        Step::SecurityIndex,
        Step::Patch(gen::set_profile_patch(a, b, gen::PALETTE[0])),
        Step::Verify("secured", 1),
        Step::Evict,
    ];
    let load = gen::load_line(config);
    script(outcome, &steps, &load, |line| {
        dec.request(line, &mut handle)
    });
}

/// Runs a script (see [`operator_mix::run_script`]) and counts its
/// requests; a failed request ends the script and fails the run.
fn script(
    outcome: &mut Outcome,
    steps: &[Step],
    load: &str,
    mut send: impl FnMut(&str) -> String,
) -> Vec<(String, String)> {
    match operator_mix::run_script(steps, load, |line| Ok(send(line))) {
        Ok(exchanges) => {
            outcome.attempted += exchanges.len() as u64;
            exchanges
        }
        Err(e) => {
            outcome.attempted += 1;
            outcome.failed += 1;
            outcome.problem(format!("replayed script: {e}"));
            Vec::new()
        }
    }
}

/// Plain versus certified verifies on fresh analyzers of `config`.
fn probe_certify(dec: &mut Decomposer, config: &ScadaConfig) {
    let input = AnalysisInput::from(config.clone());
    let mut plain = Analyzer::owning(input.clone(), Obs::none(), CertifyOptions::default());
    let mut certified = Analyzer::owning(input, Obs::none(), CertifyOptions::enabled());
    let spec = ResiliencySpec::total(1);
    for property in [Property::Observability, Property::SecuredObservability] {
        let start = Instant::now();
        dec.spans.time("solve.verify", NO_REQUEST, None, || {
            plain.verify_with_report(property, spec)
        });
        let plain_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        dec.spans.time("certify.verify", NO_REQUEST, None, || {
            certified.verify_with_report(property, spec)
        });
        dec.cert_ratio.push(start.elapsed().as_secs_f64() / plain_s);
    }
}

/// Imports and lowers channel-directory file maps.
fn probe_ingest(spans: &mut Spans, portfolio: &[(String, BTreeMap<String, String>)]) {
    for (name, files) in portfolio {
        let imported = spans.time("ingest.import", NO_REQUEST, None, || {
            import_files(name, files)
        });
        if let Ok(config) = imported {
            spans.time("ingest.lower", NO_REQUEST, None, || config.input());
        }
    }
}

/// A small portfolio from the workload's models: each model, an exact
/// duplicate and a profile variant.
fn mini_portfolio(configs: &[ScadaConfig]) -> Vec<(String, BTreeMap<String, String>)> {
    let mut fleet = Vec::new();
    for (i, config) in configs.iter().enumerate() {
        let mut variant = config.clone();
        let (a, b) = gen::security_pairs(config)[0];
        variant
            .topology
            .set_pair_security(a, b, gen::profiles(gen::PALETTE[2]));
        for (j, member) in [config, config, &variant].into_iter().enumerate() {
            let name = format!("m{i}-{j}");
            if let Ok(imported) = from_scada(&name, member, "secured") {
                fleet.push((name, export_files(&imported)));
            }
        }
    }
    fleet
}

/// Scans, plans and runs a portfolio directory; returns route counts.
fn probe_fleet(spans: &mut Spans, dir: &Path) -> Result<(usize, usize, usize), String> {
    let scan = spans
        .time("fleet.scan", NO_REQUEST, None, || scan_fleet(dir))
        .map_err(|e| e.to_string())?;
    let plan = spans.time("fleet.plan", NO_REQUEST, None, || plan_fleet(scan));
    let engine = Engine::new(serve_options(
        fleet_audit::SESSIONS,
        fleet_audit::MAX_INFLIGHT,
        false,
    ));
    let submit = |line: &str| engine.handle_line(line).line;
    spans.time("fleet.run", NO_REQUEST, None, || {
        run_plan(&plan, fleet_audit::JOBS, &submit)
    });
    engine.drain();
    Ok(plan.route_counts())
}

/// The journal's cost on `load`/`evict` of `configs`, against a bare
/// engine twin; returns the fsyncs the journal reported.
fn probe_journal(
    dec: &mut Decomposer,
    configs: &[ScadaConfig],
    opts: &RunOptions,
) -> Result<f64, String> {
    let dir = opts.dir("trace-journal").map_err(|e| e.to_string())?;
    let journaled = operator_mix::engine(dir)?;
    let twin = twin_engine();
    for config in configs {
        let load = gen::load_line(config);
        let reply = journaled_request(dec, &journaled, &twin, &load);
        let model = model_of(&reply);
        journaled_request(
            dec,
            &journaled,
            &twin,
            &format!("{{\"op\":\"evict\",\"model\":\"{model}\"}}"),
        );
    }
    let fsyncs = health_counter(
        &journaled.handle_line("{\"op\":\"health\"}").line,
        "journal_fsyncs",
    );
    twin.drain();
    scada_analyzer::service::LineHandler::drain(&journaled);
    Ok(fsyncs)
}

fn twin_engine() -> ShardedEngine {
    ShardedEngine::new(
        serve_options(operator_mix::SESSIONS, operator_mix::MAX_INFLIGHT, false),
        1,
    )
}

/// Sends a line to the journaled engine; mutating lines also go to the
/// bare twin, and the difference is the journal's share.
fn journaled_request(
    dec: &mut Decomposer,
    journaled: &JournaledEngine,
    twin: &ShardedEngine,
    line: &str,
) -> String {
    dec.request(line, |line| {
        let start = Instant::now();
        let reply = journaled.handle_line(line).line;
        let server = start.elapsed();
        let mutating = ["load", "patch", "evict"]
            .iter()
            .any(|op| line.contains(&format!("\"op\":\"{op}\"")));
        let journal = mutating.then(|| {
            let start = Instant::now();
            twin.handle_line(line);
            server.saturating_sub(start.elapsed())
        });
        Handled {
            reply,
            server,
            journal,
        }
    })
}

fn health_counter(line: &str, key: &str) -> f64 {
    parse_json(line)
        .ok()
        .and_then(|j| j.get(key).and_then(Json::as_f64))
        .unwrap_or(0.0)
}

/// `(cache hit ratio, replica hit ratio)` from a `stats` reply.
fn hit_ratios(stats_line: &str) -> (f64, f64) {
    let counters = parse_json(stats_line)
        .ok()
        .and_then(|j| j.get("counters").cloned())
        .unwrap_or(Json::Null);
    let get = |k: &str| counters.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let lookups = get("service_cache_hits") + get("service_cache_misses");
    if lookups == 0.0 {
        return (0.0, 0.0);
    }
    (
        get("service_cache_hits") / lookups,
        get("service_replica_hits") / lookups,
    )
}

/// Cached verifies in process and over TCP, one at a time, on one
/// engine: the event loop's share of a request.
fn probe_transport(config: &ScadaConfig) -> Result<(Vec<f64>, Vec<f64>), String> {
    let engine = Arc::new(Engine::new(serve_options(4, 2, false)));
    let server = Server::start(Arc::clone(&engine)).map_err(|e| e.to_string())?;
    let mut conn = Conn::connect(server.addr()).map_err(|e| e.to_string())?;
    let load = conn
        .call(&gen::load_line(config))
        .map_err(|e| e.to_string())?;
    let model = model_of(&load);
    let verify = gen::hot_query_line(&model, 0);
    let mut inproc = Vec::with_capacity(TRANSPORT_PROBE);
    let mut tcp = Vec::with_capacity(TRANSPORT_PROBE);
    for _ in 0..2 {
        conn.call(&verify).map_err(|e| e.to_string())?;
    }
    for _ in 0..TRANSPORT_PROBE {
        let start = Instant::now();
        engine.handle_line(&verify);
        inproc.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        conn.call(&verify).map_err(|e| e.to_string())?;
        tcp.push(start.elapsed().as_secs_f64() * 1e6);
    }
    server.stop().map_err(|e| e.to_string())?;
    Ok((tcp, inproc))
}

/// What the workload-specific replay hands back.
struct Replay {
    dec: Decomposer,
    /// Models for the probes (the workload's own).
    models: Vec<ScadaConfig>,
    cache: (f64, f64),
    journal_fsyncs: Option<f64>,
    routes: Option<(usize, usize, usize)>,
    gen_lag_us: Vec<f64>,
}

fn replay_hot(opts: &RunOptions, outcome: &mut Outcome) -> Result<Replay, String> {
    let models = gen::hot_models(opts.seed);
    let engine = ShardedEngine::new(
        serve_options(hot_read::SESSIONS, hot_read::MAX_INFLIGHT, false),
        hot_read::SHARDS,
    );
    let mut dec = Decomposer::new(false);
    let handle = |line: &str| handled(|l| engine.handle_line(l).line, line);
    let mut hashes = Vec::new();
    for model in &models {
        let reply = dec.request(&gen::load_line(model), handle);
        hashes.push(model_of(&reply));
    }
    let lines: Vec<String> = gen::hot_ranking(opts.seed)
        .into_iter()
        .map(|(model, kind)| gen::hot_query_line(&hashes[model], kind))
        .collect();
    let mut expected = Vec::new();
    for line in &lines {
        let mut last = String::new();
        for _ in 0..3 {
            last = dec.request(line, handle);
        }
        expected.push(strip_elapsed(&last));
    }
    let mut zipf = Zipf::new(lines.len(), Rng::new(opts.seed, "hot_read/zipf"));
    for _ in 0..HOT_REPLAY {
        let rank = zipf.next_rank();
        let reply = dec.request(&lines[rank], handle);
        outcome.attempted += 1;
        if strip_elapsed(&reply) != expected[rank] {
            outcome.failed += 1;
            outcome.problem(format!("hot replay reply differs: {reply}"));
        }
    }
    let cache = hit_ratios(&engine.handle_line("{\"op\":\"stats\"}").line);
    probe_requests(&mut dec, &models[0], handle, outcome);
    engine.drain();
    Ok(Replay {
        dec,
        models,
        cache,
        journal_fsyncs: None,
        routes: None,
        gen_lag_us: Vec::new(),
    })
}

fn replay_operator(opts: &RunOptions, outcome: &mut Outcome) -> Result<Replay, String> {
    let dir = opts
        .dir("trace-operator-journal")
        .map_err(|e| e.to_string())?;
    let journaled = operator_mix::engine(dir)?;
    let twin = twin_engine();
    let mut dec = Decomposer::new(false);
    let pools: Vec<Vec<gen::Cycle>> = (0..2)
        .map(|conn| gen::operator_cycles(opts.seed, conn, OPERATOR_REPLAY))
        .collect();
    for i in 0..OPERATOR_REPLAY {
        for pool in &pools {
            let cycle = &pool[i];
            let exchanges = script(outcome, &cycle.steps, &cycle.load, |line| {
                journaled_request(&mut dec, &journaled, &twin, line)
            });
            if !exchanges.is_empty() {
                if let Err(e) = operator_mix::check_cold(cycle, &exchanges) {
                    outcome.problem(e);
                }
            }
        }
    }
    let cache = hit_ratios(&journaled.handle_line("{\"op\":\"stats\"}").line);
    let fsyncs = health_counter(
        &journaled.handle_line("{\"op\":\"health\"}").line,
        "journal_fsyncs",
    );
    let models: Vec<ScadaConfig> = pools.iter().map(|p| p[0].config.clone()).collect();
    probe_requests(
        &mut dec,
        &models[0],
        |line| handled(|l| journaled.handle_line(l).line, line),
        outcome,
    );
    twin.drain();
    scada_analyzer::service::LineHandler::drain(&journaled);
    Ok(Replay {
        dec,
        models,
        cache,
        journal_fsyncs: Some(fsyncs),
        routes: None,
        gen_lag_us: Vec::new(),
    })
}

fn replay_fleet(opts: &RunOptions, outcome: &mut Outcome) -> Result<Replay, String> {
    let portfolio = gen::portfolio(opts.seed);
    let dir = opts.dir("trace-portfolio").map_err(|e| e.to_string())?;
    fleet_audit::write_portfolio(&portfolio, &dir)?;
    let mut dec = Decomposer::new(false);
    probe_ingest(&mut dec.spans, &portfolio);
    let routes = probe_fleet(&mut dec.spans, &dir)?;
    // The traced pass: one worker so requests decompose in order; the
    // gaps between requests are the executor's own (client-side) work.
    let plan = plan_fleet(scan_fleet(&dir).map_err(|e| e.to_string())?);
    let engine = Engine::new(serve_options(
        fleet_audit::SESSIONS,
        fleet_audit::MAX_INFLIGHT,
        false,
    ));
    let state = Mutex::new((dec, None::<Instant>, Vec::new()));
    let submit = |line: &str| {
        let mut guard = state.lock().expect("decomposer lock");
        let (dec, last, lags) = &mut *guard;
        if let Some(last) = last.take() {
            lags.push(last.elapsed().as_secs_f64() * 1e6);
        }
        let reply = dec.request(line, |l| handled(|l| engine.handle_line(l).line, l));
        *last = Some(Instant::now());
        reply
    };
    let batch = run_plan(&plan, 1, &submit);
    let (mut dec, _, gen_lag_us) = state.into_inner().expect("decomposer lock");
    outcome.attempted += batch.rows.len() as u64;
    if let Err(e) = fleet_audit::check_reference(&batch) {
        outcome.problem(e);
    }
    let cache = hit_ratios(&engine.handle_line("{\"op\":\"stats\"}").line);
    let models: Vec<ScadaConfig> = plan
        .scan
        .members
        .iter()
        .take(1)
        .map(|m| m.config.scada.clone())
        .collect();
    probe_requests(
        &mut dec,
        &models[0],
        |line| handled(|l| engine.handle_line(l).line, line),
        outcome,
    );
    engine.drain();
    Ok(Replay {
        dec,
        models,
        cache,
        journal_fsyncs: None,
        routes: Some(routes),
        gen_lag_us,
    })
}

fn replay_certify(opts: &RunOptions, outcome: &mut Outcome) -> Result<Replay, String> {
    let models = gen::certify_models(opts.seed, CERTIFY_REPLAY);
    let engine = Engine::new(serve_options(
        certify_large::SESSIONS,
        certify_large::MAX_INFLIGHT,
        true,
    ));
    let mut dec = Decomposer::new(true);
    let handle = |line: &str| handled(|l| engine.handle_line(l).line, line);
    for model in &models {
        let load = dec.request(&gen::load_line(model), handle);
        let hash = model_of(&load);
        for reply in dec.script(&certify_large::battery_lines(&hash), handle) {
            outcome.attempted += 1;
            if let Err(e) = certify_large::check_reply(&reply) {
                outcome.failed += 1;
                outcome.problem(format!("certified replay: {e}"));
            }
        }
    }
    let cache = hit_ratios(&engine.handle_line("{\"op\":\"stats\"}").line);
    probe_requests(&mut dec, &models[0], handle, outcome);
    engine.drain();
    Ok(Replay {
        dec,
        models,
        cache,
        journal_fsyncs: None,
        routes: None,
        gen_lag_us: Vec::new(),
    })
}

fn p50(values: Vec<f64>) -> f64 {
    stats::percentile(&stats::sorted(values), 0.5)
}

/// The traced run of `workload`.
pub fn trace(workload: &str, opts: &RunOptions, spans_dir: &Path) -> Result<Outcome, String> {
    let quarter = RunOptions {
        window: opts.window / 4,
        record: false,
        ..opts.clone()
    };
    let untraced = workloads::run(workload, &quarter)?;
    let traced = workloads::run(
        workload,
        &RunOptions {
            record: true,
            ..quarter.clone()
        },
    )?;
    let mut outcome = Outcome::default();
    for run in [&untraced, &traced] {
        outcome.attempted += run.attempted;
        outcome.failed += run.failed;
        for problem in &run.problems {
            outcome.problem(problem.clone());
        }
    }
    let mut replay = match workload {
        "hot_read" => replay_hot(opts, &mut outcome)?,
        "operator_mix" => replay_operator(opts, &mut outcome)?,
        "fleet_audit" => replay_fleet(opts, &mut outcome)?,
        "certify_large" => replay_certify(opts, &mut outcome)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    for problem in std::mem::take(&mut replay.dec.problems) {
        outcome.problem(problem);
    }

    // Probes for the layers this workload's stream does not reach.
    let probe_models = &replay.models[..replay.models.len().min(2)];
    let routes = match replay.routes {
        Some(routes) => routes,
        None => {
            let portfolio = mini_portfolio(probe_models);
            probe_ingest(&mut replay.dec.spans, &portfolio);
            let dir = opts.dir("trace-mini-fleet").map_err(|e| e.to_string())?;
            fleet_audit::write_portfolio(&portfolio, &dir)?;
            probe_fleet(&mut replay.dec.spans, &dir)?
        }
    };
    let fsyncs = match replay.journal_fsyncs {
        Some(fsyncs) => fsyncs,
        None => probe_journal(&mut replay.dec, probe_models, opts)?,
    };
    if !replay.dec.certify {
        probe_certify(&mut replay.dec, &replay.models[0]);
    }
    let (tcp, inproc) = probe_transport(&replay.models[0])?;
    let transport_us = p50(tcp) - p50(inproc);
    // The closed loops make hundreds of thousands of round trips; the
    // first ones are enough to show their distribution.
    for &us in traced.roundtrips.iter().take(ROUNDTRIP_SPANS) {
        let start = Instant::now();
        replay.dec.spans.record(
            "eventloop.roundtrip",
            NO_REQUEST,
            None,
            start,
            Duration::from_secs_f64(us / 1e6),
        );
    }
    let gen_lag = if replay.gen_lag_us.is_empty() {
        traced.gen_lag_us.clone()
    } else {
        std::mem::take(&mut replay.gen_lag_us)
    };

    let dec = &replay.dec;
    let path = spans_dir.join(format!("{workload}-seed{}.jsonl", opts.seed));
    dec.spans
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    print!("{}", decomposition(&dec.spans));

    let us = |name: &str| p50(dec.spans.durations(name));
    let metric = |o: &mut Outcome, name: &'static str, value: f64, unit: &'static str| {
        o.metric(name, value, unit)
    };
    let o = &mut outcome;
    metric(o, "ingest.import_us", us("ingest.import"), "us");
    metric(o, "ingest.lower_us", us("ingest.lower"), "us");
    metric(o, "ingest.config_us", us("ingest.config"), "us");
    metric(o, "hash.model_us", us("hash.model"), "us");
    metric(o, "hash.advance_us", us("hash.advance"), "us");
    metric(o, "fleet.scan_ms", us("fleet.scan") / 1e3, "ms");
    metric(o, "fleet.plan_ms", us("fleet.plan") / 1e3, "ms");
    metric(o, "fleet.run_ms", us("fleet.run") / 1e3, "ms");
    metric(o, "fleet.cold_routes", routes.0 as f64, "count");
    metric(o, "fleet.patch_routes", routes.1 as f64, "count");
    metric(o, "fleet.dup_routes", routes.2 as f64, "count");
    metric(o, "patch.apply_us", us("patch.apply"), "us");
    metric(o, "encode.cold_us", us("encode.cold"), "us");
    metric(o, "encode.delta_us", us("encode.delta"), "us");
    metric(o, "encode.clauses", dec.clauses as f64, "count");
    metric(o, "solve.verify_us", us("solve.verify"), "us");
    metric(o, "solve.maxres_us", us("solve.maxres"), "us");
    metric(o, "solve.conflicts", dec.conflicts as f64, "count");
    metric(o, "solve.attempts", dec.attempts as f64, "count");
    metric(o, "certify.verify_us", us("certify.verify"), "us");
    metric(
        o,
        "certify.overhead_ratio",
        p50(dec.cert_ratio.clone()),
        "ratio",
    );
    metric(
        o,
        "security_index.sat_ms",
        us("security_index.sat") / 1e3,
        "ms",
    );
    metric(
        o,
        "security_index.mincut_ms",
        us("security_index.mincut") / 1e3,
        "ms",
    );
    metric(o, "protocol.parse_ns", us("protocol.parse") * 1e3, "ns");
    metric(o, "protocol.json_ns", us("protocol.json") * 1e3, "ns");
    metric(o, "cache.hit_ratio", replay.cache.0, "ratio");
    metric(o, "replica.hit_ratio", replay.cache.1, "ratio");
    metric(o, "server.load_us", us("server.load"), "us");
    metric(o, "server.verify_us", us("server.verify"), "us");
    metric(o, "server.cached_us", us("server.cached"), "us");
    metric(o, "server.patch_us", us("server.patch"), "us");
    metric(o, "server.maxres_us", us("server.maxres"), "us");
    metric(
        o,
        "server.security_index_us",
        us("server.security_index"),
        "us",
    );
    metric(o, "server.unattributed_us", unattributed(&dec.spans), "us");
    metric(o, "journal.append_us", us("journal.append"), "us");
    metric(o, "journal.fsyncs", fsyncs, "count");
    metric(o, "eventloop.transport_us", transport_us, "us");
    metric(
        o,
        "bench.gen_lag_p99_us",
        stats::percentile(&stats::sorted(gen_lag), 0.99),
        "us",
    );
    let ops = |run: &Outcome| {
        run.metrics
            .iter()
            .find(|m| m.name == "ops_per_s")
            .map_or(f64::NAN, |m| m.value)
    };
    metric(
        o,
        "bench.trace_overhead_ratio",
        ops(&untraced) / ops(&traced),
        "ratio",
    );
    Ok(outcome)
}

/// Mean per server span of the time no layer span accounts for. It is
/// signed: negative when the replayed layer calls took longer than the
/// server took for the same request.
fn unattributed(spans: &Spans) -> f64 {
    let mut children: HashMap<u64, f64> = HashMap::new();
    for span in spans.all() {
        if let Some(parent) = span.parent {
            *children.entry(parent).or_default() += span.dur_us;
        }
    }
    let rest: Vec<f64> = spans
        .all()
        .iter()
        .filter(|s| s.name.starts_with("server."))
        .map(|s| s.dur_us - children.get(&s.id).copied().unwrap_or(0.0))
        .collect();
    rest.iter().sum::<f64>() / rest.len().max(1) as f64
}

/// The additive decomposition of server time: per layer, the self time
/// of its spans under `server.*` parents, plus what is unattributed.
fn decomposition(spans: &Spans) -> String {
    let servers: HashMap<u64, f64> = spans
        .all()
        .iter()
        .filter(|s| s.name.starts_with("server."))
        .map(|s| (s.id, s.dur_us))
        .collect();
    let total: f64 = servers.values().sum();
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for span in spans.all() {
        if span.parent.is_some_and(|p| servers.contains_key(&p)) {
            *by_layer.entry(span.name).or_default() += span.dur_us;
        }
    }
    let children: f64 = by_layer.values().sum();
    let unattributed = unattributed(spans) * servers.len() as f64;
    let mut out = String::from("# server time decomposition (self time, ms)\n");
    for (layer, us) in &by_layer {
        out.push_str(&format!("#   {layer:<24} {:>12.3}\n", us / 1e3));
    }
    out.push_str(&format!(
        "#   {:<24} {:>12.3}\n#   {:<24} {:>12.3}  (children + unattributed = {:.1}% of server)\n",
        "unattributed",
        unattributed / 1e3,
        "server total",
        total / 1e3,
        100.0 * (children + unattributed) / total.max(f64::MIN_POSITIVE)
    ));
    out
}
