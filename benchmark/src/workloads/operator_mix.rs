//! `operator_mix`: two operators, each looping a scripted session over
//! fresh models against a journaled engine. Cold encode, delta encode,
//! warm solves, journal appends and cache invalidation carry the time;
//! about a quarter of the requests are writes.

use std::sync::Arc;
use std::time::Instant;

use scada_analyzer::service::{
    parse_request, Durability, FaultPlan, JournalConfig, JournaledEngine, Request, ShardedEngine,
};
use scada_analyzer::{AnalysisInput, Analyzer};

use crate::gen::{self, Cycle, Step};
use crate::heap;
use crate::net::{self, Conn, Server};
use crate::report::{field, reply_ok, verdict_name, Outcome};
use crate::workloads::{end_to_end, serve_options, timed_setup, RunOptions, Slices};

/// Sessions kept warm: each operator holds one model at a time.
pub const SESSIONS: usize = 8;
/// Admission bound: never reached by two one-deep connections.
pub const MAX_INFLIGHT: usize = 4;
/// Journal fsync policy.
pub const DURABILITY: Durability = Durability::Batch;
/// Cycles generated per connection; the pool wraps, and because every
/// cycle ends with `evict`, a wrapped load is still cold.
pub const POOL: usize = 48;

/// The journaled engine behind the event loop.
struct Mix {
    /// The listening event loop.
    server: Server,
    /// The generator's two connections.
    conns: Vec<Conn>,
}

/// Builds the journal-backed engine with the given journal directory.
pub fn engine(dir: std::path::PathBuf) -> Result<JournaledEngine, String> {
    let inner = Arc::new(ShardedEngine::new(
        serve_options(SESSIONS, MAX_INFLIGHT, false),
        1,
    ));
    JournaledEngine::open(
        inner,
        JournalConfig {
            dir,
            durability: DURABILITY,
            segment_bytes: 1 << 20,
            retain_models: 24,
            fault: FaultPlan::none(),
        },
    )
    .map_err(|e| e.to_string())
}

/// Runs a script through `send`, one request at a time, carrying the
/// model hash of each `load` and `patch` reply into the requests after
/// it. Returns every `(request, reply)`; stops at the first failure.
pub fn run_script(
    steps: &[Step],
    load: &str,
    mut send: impl FnMut(&str) -> Result<String, String>,
) -> Result<Vec<(String, String)>, String> {
    let mut model = String::new();
    let mut exchanges = Vec::with_capacity(steps.len());
    for step in steps {
        let line = step.line(&model, load);
        let reply = send(&line)?;
        let json = reply_ok(&reply).map_err(|e| format!("{line}: {e}"))?;
        if matches!(step, Step::Load) || step.is_patch() {
            model = field(&json, "model").unwrap_or_default().to_string();
        }
        exchanges.push((line, reply));
    }
    Ok(exchanges)
}

fn setup(opts: &RunOptions, rep: usize, warmup: &Cycle) -> Result<Mix, String> {
    let dir = opts
        .dir(&format!("operator_mix-journal-{rep}"))
        .map_err(|e| e.to_string())?;
    let server = Server::start(Arc::new(engine(dir)?)).map_err(|e| e.to_string())?;
    let mut conns = (0..2)
        .map(|_| Conn::connect(server.addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let conn = &mut conns[0];
    run_script(&warmup.steps, &warmup.load, |line| {
        conn.call(line).map_err(|e| e.to_string())
    })?;
    Ok(Mix { server, conns })
}

/// Replays a cycle's patches on the generated model and checks every
/// served verdict against a cold analyzer built on the patched input.
pub fn check_cold(cycle: &Cycle, exchanges: &[(String, String)]) -> Result<(), String> {
    let mut input = AnalysisInput::from(cycle.config.clone());
    for (line, reply) in exchanges {
        match parse_request(line) {
            Ok(Request::Patch { patch, .. }) => {
                input = patch.apply(&input).map_err(|e| e.to_string())?;
            }
            Ok(Request::Verify { property, spec, .. }) => {
                let cold = Analyzer::new(&input).verify(property, spec);
                let json = reply_ok(reply)?;
                let served = field(&json, "verdict").unwrap_or_default();
                if served != verdict_name(&cold) {
                    return Err(format!(
                        "{line}: served {served}, cold analyzer says {}",
                        verdict_name(&cold)
                    ));
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// One operator's place in its script.
struct Operator {
    cycles: Vec<Cycle>,
    cycle: usize,
    step: usize,
    model: String,
    verdict: Option<String>,
    first: Vec<(String, String)>,
    completed: usize,
}

impl Operator {
    fn current(&self) -> &Cycle {
        &self.cycles[self.cycle % self.cycles.len()]
    }

    /// Consumes one reply and advances the script.
    fn absorb(&mut self, line: String, reply: String, outcome: &mut Outcome) {
        let step = self.current().steps[self.step].clone();
        let json = match reply_ok(&reply) {
            Ok(json) => json,
            Err(e) => {
                outcome.failed += 1;
                outcome.problem(format!("operator request failed: {line}: {e}"));
                // The script cannot continue on an unknown model.
                self.cycle += 1;
                self.step = 0;
                return;
            }
        };
        if self.completed == 0 {
            self.first.push((line, reply.clone()));
        }
        match step {
            Step::Load | Step::Patch(_) => {
                self.model = field(&json, "model").unwrap_or_default().to_string();
            }
            Step::Verify("obs", 1) => {
                self.verdict = field(&json, "verdict").map(str::to_string);
            }
            Step::Repeat => {
                let cached = field(&json, "provenance") == Some("cached");
                if !cached || field(&json, "verdict").map(str::to_string) != self.verdict {
                    outcome.problem(format!("repeated verify was not a cache hit: {reply}"));
                }
            }
            _ => {}
        }
        self.step += 1;
        if self.step == self.current().steps.len() {
            self.step = 0;
            self.cycle += 1;
            self.completed += 1;
        }
    }

    fn next_line(&self) -> String {
        let cycle = self.current();
        cycle.steps[self.step].line(&self.model, &cycle.load)
    }
}

/// The end-to-end run.
pub fn run(opts: &RunOptions) -> Result<Outcome, String> {
    let mut operators: Vec<Operator> = (0..2)
        .map(|conn| Operator {
            cycles: gen::operator_cycles(opts.seed, conn, POOL),
            cycle: 0,
            step: 0,
            model: String::new(),
            verdict: None,
            first: Vec::new(),
            completed: 0,
        })
        .collect();
    // Connection index 2 is no measured operator's stream.
    let warmup = gen::operator_cycles(gen::WARMUP_SEED, 2, 1).remove(0);
    let (mut mix, setup_s) = timed_setup(|rep| setup(opts, rep, &warmup))?;
    let mut outcome = Outcome::default();
    let mut latencies = Vec::new();
    let mut slices = Slices::new(opts.window);
    heap::reset_peak();
    let until = Instant::now() + opts.window;
    outcome.gen_lag_us =
        net::closed_loop::<String>(&mut mix.conns, 1, until, |conn, reply, want| {
            let op = &mut operators[conn];
            if let Some((request, line, at)) = reply {
                outcome.attempted += 1;
                let rtt = (at - request.sent).as_secs_f64() * 1e6;
                latencies.push(rtt);
                if opts.record {
                    outcome.roundtrips.push(rtt);
                }
                slices.hit(at);
                op.absorb(request.tag, line, &mut outcome);
            }
            want.then(|| {
                let line = op.next_line();
                (line.clone(), line)
            })
        })
        .map_err(|e| e.to_string())?;
    let peak_heap_mb = heap::peak_mb();
    mix.server.stop().map_err(|e| e.to_string())?;
    for op in &operators {
        if op.completed > 0 {
            if let Err(e) = check_cold(&op.cycles[0], &op.first) {
                outcome.problem(e);
            }
        }
    }
    end_to_end(
        &mut outcome,
        setup_s,
        slices.median_rate(),
        latencies,
        peak_heap_mb,
    );
    Ok(outcome)
}
