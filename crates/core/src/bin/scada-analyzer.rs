//! The SCADA Analyzer command-line tool (the paper's Fig 2 pipeline).
//!
//! ```text
//! scada-analyzer <config.scada> [options]
//! scada-analyzer --case-study [options]
//!
//! options:
//!   --property obs|secured|baddata   property to verify (default: from all three)
//!   --k N            total failure budget (overrides the config's spec)
//!   --k1 N --k2 N    split IED/RTU budgets
//!   --r N            corrupted-measurement tolerance (bad data)
//!   --links N        additional link-failure budget
//!   --enumerate      list every minimal threat vector
//!   --rank           rank devices by threat-vector participation
//!   --max-resiliency print the maximum tolerated failures per axis
//!   --security-index print each measurement's security index α (the
//!                    cost of the sparsest undetectable attack touching
//!                    it), with a distribution histogram
//!   --repair         synthesize minimal security upgrades (secured/baddata)
//!   --jobs N         verification worker threads (0 = all cores, default)
//!   --timeout DUR    wall-clock limit per query, e.g. 150ms, 5s, 2m
//!   --conflict-budget N  solver conflicts per query (escalating ×2 retry)
//!   --certify        independently re-check every verdict (DRAT proof
//!                    replay for unsat, model + budget + semantic
//!                    re-check for sat)
//!   --proof-dir DIR  also write each query's DRAT proof to
//!                    DIR/query-<id>.drat (implies --certify)
//!   --case-study     analyze the embedded 5-bus case study (no config)
//!   --trace PATH     write a structured JSONL event trace to PATH
//!   --stats          print a metrics summary table after the run
//!   --template       print an example configuration and exit
//!   --batch DIR      audit a whole fleet of channel-directory configs:
//!                    import every subdirectory of DIR, cluster
//!                    near-duplicates, reach each variant from its
//!                    cluster base via model patches (delta/cached
//!                    provenance instead of cold builds), and print one
//!                    consolidated report row per config; a malformed
//!                    config becomes an `error` row, never an abort.
//!                    With --connect, runs server-side as the `batch`
//!                    op: DIR resolves under the service's
//!                    --fleet-root (relative, no `..`), --jobs is
//!                    forwarded to the service, and --format is
//!                    rendered client-side from the returned rows
//!   --format FMT     --batch report format: jsonl (default) or csv
//!   --connect ADDR   run as a client of a `scadad` service instead of
//!                    analyzing locally: load the model, then issue the
//!                    selected queries over the wire (responses carry
//!                    cold/warm/cached provenance)
//!   --patch JSON     with --connect: apply a model patch to the warm
//!                    session before querying (repeatable, applied in
//!                    order), e.g. --patch '{"remove_device":7}' or
//!                    --patch '{"add_device":{"kind":"rtu","peers":[1,4]}}';
//!                    queries then run against the patched model and
//!                    carry `delta` provenance
//!   --shutdown       with --connect: ask the service to drain and exit
//!                    (alone, or after the queries)
//!   --health         with --connect: print the service's health line —
//!                    `recovering|ready|draining` plus journal and
//!                    recovery counters (alone, or after the queries)
//! ```
//!
//! Property verification and the `--max-resiliency` sweeps run on the
//! parallel engine; `--jobs 1` forces the serial baseline and produces
//! identical output.
//!
//! With `--timeout` / `--conflict-budget` a query that runs out of
//! resources prints `UNKNOWN` instead of hanging; the limits also bound
//! `--enumerate`, whose threat space is then reported *undecided* when a
//! search was cut short. Exit codes: 0 all verified resilient, 1 some
//! threat found, 2 usage error (including malformed option values),
//! 3 no threat but at least one query or enumeration undecided, 4 a
//! `--certify` check failed (takes precedence over every other code —
//! an uncertified verdict is worse than a threat), 6 (`--batch` only)
//! at least one config failed to import or execute while the rest of
//! the fleet was audited. Precedence: 4 > 6 > 1 > 3 > 0.

use std::process::ExitCode;

use scada_analyzer::cli::{self, opt, raw, raw_all};
use scada_analyzer::obs::json_escape_into;
use scada_analyzer::service::{parse_json, Json};
use scada_analyzer::synthesis::{synthesize_upgrades, SynthesisOptions, SynthesisResult};
use scada_analyzer::{
    enumerate_threats, par_max_resiliency, verify_batch, AnalysisInput, BudgetAxis, CertFault,
    Certificate, Property, ResiliencySpec, Verdict,
};
use scadasim::parse_config;

const TEMPLATE: &str = "\
# SCADA Analyzer configuration (all ids are 1-based)
[buses]
3
[lines]
1 2 10.0
2 3 5.0
[measurements]
flow 1 2
flow 2 3
injection 2
[devices]
ied 1
ied 2
rtu 3
mtu 4
[links]
1 3
2 3
3 4
[ied-measurements]
1 1 3
2 2
[security]
1 3 chap 64 sha2 128
2 3 hmac 128
3 4 rsa 2048 aes 256
[spec]
resilience 1 0
corrupted 1
";

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

fn run(args: &[String]) -> Result<ExitCode, String> {
    if args.iter().any(|a| a == "--template") {
        print!("{TEMPLATE}");
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(addr) = raw(args, "--connect")? {
        return run_client(addr, args);
    }
    let flag = |name: &str| cli::flag(args, name);
    if flag("--patch") {
        return Err(
            "--patch requires --connect (patches mutate a warm service session; \
                    local runs re-encode from the config anyway)"
                .to_string(),
        );
    }
    if let Some(dir) = raw(args, "--batch")? {
        return run_batch_local(dir, args);
    }
    let config = if flag("--case-study") {
        None
    } else {
        let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
            return Err("usage: scada-analyzer <config-file> [options]   \
                        (--template for an example, --case-study for the built-in system)"
                .to_string());
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
        match parse_config(&text) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("error: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    };

    // Specification: config file values, overridable from the CLI.
    let (mut k1, mut k2) = config.as_ref().map_or((1, 1), |c| c.resilience);
    let mut r = config.as_ref().map_or(1, |c| c.corrupted);
    let config_link_failures = config.as_ref().map_or(0, |c| c.link_failures);
    let mut spec = if let Some(k) = opt(args, "--k")? {
        ResiliencySpec::total(k)
    } else {
        if let Some(v) = opt(args, "--k1")? {
            k1 = v;
        }
        if let Some(v) = opt(args, "--k2")? {
            k2 = v;
        }
        ResiliencySpec::split(k1, k2)
    };
    if let Some(v) = opt(args, "--r")? {
        r = v;
    }
    spec = spec.with_corrupted(r);
    spec = spec.with_link_failures(opt(args, "--links")?.unwrap_or(config_link_failures));
    let jobs = opt(args, "--jobs")?.unwrap_or(0);

    // Resource limits (a bounded query degrades to UNKNOWN, never
    // hangs), certification (failures flip the exit code to 4), and
    // observability (a JSONL trace and/or a metrics registry; both off
    // by default, and then the analyzer pays nothing).
    let (mut ctx, (tracer, metrics)) = cli::query_context(args, &cli::CONTEXT_FLAGS)?;
    // Test hook: deliberately corrupt artifacts before checking, to
    // prove the checkers are not vacuous (see tests/degradation.rs).
    match std::env::var("SCADA_CERTIFY_FAULT").ok().as_deref() {
        Some("proof") => ctx.certify.fault = Some(CertFault::CorruptProof),
        Some("model") => ctx.certify.fault = Some(CertFault::CorruptModel),
        Some("checker") => ctx.certify.fault = Some(CertFault::CheckerPanic),
        Some(other) if !other.is_empty() => {
            return Err(format!(
                "bad SCADA_CERTIFY_FAULT `{other}` (proof|model|checker)"
            ));
        }
        _ => {}
    }
    let certify = &ctx.certify;

    let properties = parse_properties(args)?;

    let input = match config {
        Some(config) => AnalysisInput::from(config),
        None => scada_analyzer::casestudy::five_bus_case_study(),
    };
    println!(
        "system: {} buses, {} measurements; {} IEDs, {} RTUs, {} links; spec: {spec}",
        input.measurements.num_states(),
        input.measurements.len(),
        input.topology.ieds().count(),
        input.topology.rtus().count(),
        input.topology.links().len(),
    );

    let mut any_threat = false;
    let mut any_unknown = false;
    let queries: Vec<(Property, ResiliencySpec)> = properties.iter().map(|&p| (p, spec)).collect();
    let reports = verify_batch(&input, &queries, jobs, &ctx);
    for (&property, report) in properties.iter().zip(&reports) {
        match &report.verdict {
            Verdict::Resilient => {
                println!("[{property}] RESILIENT at {spec}  ({:?})", report.duration);
            }
            Verdict::Threat(v) => {
                any_threat = true;
                println!("[{property}] THREAT {v} at {spec}  ({:?})", report.duration);
            }
            Verdict::Unknown { conflicts, elapsed } => {
                any_unknown = true;
                println!(
                    "[{property}] UNKNOWN at {spec}  (limit exhausted after \
                     {conflicts} conflicts, {} attempt(s), {elapsed:?})",
                    report.attempts
                );
            }
        }
        match &report.certificate {
            Some(Certificate::Proof {
                steps,
                propagations,
                elapsed,
            }) => println!(
                "  certificate: unsat proof checked \
                 ({steps} steps, {propagations} propagations, {elapsed:?})"
            ),
            Some(Certificate::Threat { steps, elapsed }) => println!(
                "  certificate: model + budget + violation re-checked \
                 ({steps} proof steps replayed, {elapsed:?})"
            ),
            Some(Certificate::Unchecked) => {
                println!("  certificate: none (unknown verdicts certify nothing)")
            }
            Some(Certificate::Failed { reason }) => {
                println!("  certificate: FAILED — {reason}")
            }
            None => {}
        }

        if flag("--enumerate") || flag("--rank") {
            // Enumeration honours the same limits as verification: a
            // bounded run terminates and reports an undecided space
            // instead of hanging.
            let space = enumerate_threats(&input, property, spec, 1000, &ctx);
            if space.undecided {
                any_unknown = true;
            }
            println!(
                "  threat space: {} minimal vector(s){}",
                space.len(),
                if space.undecided {
                    " (undecided: limit exhausted)"
                } else if space.truncated {
                    " (truncated)"
                } else {
                    ""
                }
            );
            if flag("--enumerate") {
                for v in &space.vectors {
                    println!("    {v}");
                }
            }
            if flag("--rank") && !space.is_empty() {
                println!("  device criticality (vectors participated in):");
                for (d, count) in space.criticality_ranking() {
                    let kind = input.topology.device(d).kind();
                    println!("    {kind} {:>3}  {count}", d.one_based());
                }
            }
        }

        if flag("--max-resiliency") {
            let fmt = |m: Option<usize>| m.map_or("none".to_string(), |k| k.to_string());
            let ied = par_max_resiliency(&input, property, BudgetAxis::IedsOnly, r, jobs, &ctx);
            let rtu = par_max_resiliency(&input, property, BudgetAxis::RtusOnly, r, jobs, &ctx);
            let total = par_max_resiliency(&input, property, BudgetAxis::Total, r, jobs, &ctx);
            println!(
                "  max resiliency: IEDs-only {}, RTUs-only {}, total {}",
                fmt(ied),
                fmt(rtu),
                fmt(total)
            );
        }

        if flag("--repair") && property != Property::Observability {
            match synthesize_upgrades(
                &input,
                property,
                spec,
                &SynthesisOptions::default(),
                &ctx.obs,
                certify,
            ) {
                SynthesisResult::AlreadyResilient => {
                    println!("  repair: nothing to do");
                }
                SynthesisResult::Upgrades(upgrades) => {
                    let rendered: Vec<String> = upgrades
                        .iter()
                        .map(|(a, b)| format!("{}-{}", a.one_based(), b.one_based()))
                        .collect();
                    println!(
                        "  repair: upgrade hop(s) {} to an authenticated+integrity suite",
                        rendered.join(", ")
                    );
                }
                SynthesisResult::Infeasible => {
                    println!(
                        "  repair: infeasible — the weakness is topological, \
                         not cryptographic"
                    );
                }
            }
        }
    }

    if flag("--security-index") {
        // Property-independent: one max-flow per measured line over the
        // measurement set, each component certified (and
        // fault-injectable) through the same log as the verdicts above.
        let distribution = scada_analyzer::served_distribution(&input.measurements, certify)
            .map_err(|e| format!("security index failed: {e}"))?;
        println!(
            "security index: min {} / max {} over {} measurement(s)  ({} solve(s){})",
            distribution.min,
            distribution.max,
            distribution.indices.len(),
            distribution.solves,
            if certify.enabled {
                format!(", {} cert failure(s)", distribution.cert_failures)
            } else {
                String::new()
            }
        );
        let mut histogram = std::collections::BTreeMap::new();
        for &index in &distribution.indices {
            *histogram.entry(index).or_insert(0usize) += 1;
        }
        let rendered: Vec<String> = histogram
            .iter()
            .map(|(index, count)| format!("α={index} ×{count}"))
            .collect();
        println!("  distribution: {}", rendered.join(", "));
        if let Some(metrics) = &metrics {
            metrics.add("security_index_solves", distribution.solves as u64);
        }
    }

    if let Some(tracer) = &tracer {
        tracer.flush();
        eprintln!("trace: {} event(s) written", tracer.events());
    }
    if let Some(metrics) = &metrics {
        println!();
        print!("{}", metrics.render());
    }

    if certify.enabled {
        println!(
            "certification: {} verdict(s) checked, {} failure(s)",
            certify.log.checks(),
            certify.log.failures()
        );
    }
    Ok(if certify.log.failures() > 0 {
        // An uncertified verdict outranks every other outcome: the
        // pipeline's own answer could not be validated.
        if let Some(reason) = certify.log.first_failure() {
            eprintln!("error: certification failed: {reason}");
        }
        ExitCode::from(4)
    } else if any_threat {
        ExitCode::FAILURE
    } else if any_unknown {
        // No threat found, but not everything was decided either.
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    })
}

/// Runs `--batch DIR` against an in-process engine: every config under
/// DIR is imported, clustered, and audited, with near-duplicates
/// reached via model patches instead of cold builds. One report row
/// per config goes to stdout (JSONL by default, `--format csv` for
/// CSV); a summary goes to stderr.
fn run_batch_local(dir: &str, args: &[String]) -> Result<ExitCode, String> {
    let jobs = opt(args, "--jobs")?.unwrap_or(0);
    let csv = match raw(args, "--format")?.map(|s| s.as_str()) {
        None | Some("jsonl") => false,
        Some("csv") => true,
        Some(other) => return Err(format!("bad --format `{other}` (jsonl|csv)")),
    };
    let (ctx, _) = cli::query_context(args, &["--certify"])?;
    let engine = scada_analyzer::service::Engine::new(scada_analyzer::service::ServeOptions {
        certify: ctx.certify,
        ..scada_analyzer::service::ServeOptions::default()
    });
    let submit = |line: &str| engine.handle_line(line).line;
    let started = std::time::Instant::now();
    let outcome = scada_analyzer::fleet::run_batch(std::path::Path::new(dir), jobs, &submit)
        .map_err(|e| e.to_string())?;
    if csv {
        println!("{}", scada_analyzer::fleet::ReportRow::CSV_HEADER);
        for row in &outcome.rows {
            println!("{}", row.render_csv());
        }
    } else {
        for row in &outcome.rows {
            println!("{}", row.render_json());
        }
    }
    eprintln!(
        "fleet: {} config(s), {} failed; provenance cold {} / warm {} / delta {} / cached {}  \
         ({:?})",
        outcome.rows.len(),
        outcome.failed(),
        outcome.provenance_count("cold"),
        outcome.provenance_count("warm"),
        outcome.provenance_count("delta"),
        outcome.provenance_count("cached"),
        started.elapsed(),
    );
    Ok(ExitCode::from(outcome.exit_code()))
}

/// The properties selected by `--property` (default: all three).
fn parse_properties(args: &[String]) -> Result<Vec<Property>, String> {
    match raw(args, "--property")?.map(|s| s.as_str()) {
        Some("obs") | Some("observability") => Ok(vec![Property::Observability]),
        Some("secured") => Ok(vec![Property::SecuredObservability]),
        Some("baddata") => Ok(vec![Property::BadDataDetectability]),
        Some(other) => Err(format!("unknown property `{other}` (obs|secured|baddata)")),
        None => Ok(vec![
            Property::Observability,
            Property::SecuredObservability,
            Property::BadDataDetectability,
        ]),
    }
}

// ---------------------------------------------------------------------------
// Client mode (--connect): speak the scadad line protocol over TCP
// ---------------------------------------------------------------------------

/// A line-protocol connection to a `scadad` service.
struct Conn {
    reader: std::io::BufReader<std::net::TcpStream>,
    writer: std::net::TcpStream,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream = std::net::TcpStream::connect(addr)
            .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        let reader = std::io::BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cannot clone connection: {e}"))?,
        );
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    /// Sends one request line and parses the response, retrying while
    /// the service reports saturation (`"error":"busy","retry":true`).
    /// Returns the raw response line alongside the parsed value.
    fn request(&mut self, line: &str) -> Result<(String, Json), String> {
        use std::io::{BufRead as _, Write as _};
        for _ in 0..600 {
            writeln!(self.writer, "{line}").map_err(|e| format!("send failed: {e}"))?;
            self.writer
                .flush()
                .map_err(|e| format!("send failed: {e}"))?;
            let mut resp = String::new();
            let n = self
                .reader
                .read_line(&mut resp)
                .map_err(|e| format!("receive failed: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".to_string());
            }
            let raw = resp.trim().to_string();
            let value = parse_json(&raw).map_err(|e| format!("bad response: {e}"))?;
            let busy = value.get("ok").and_then(Json::as_bool) == Some(false)
                && value.get("retry").and_then(Json::as_bool) == Some(true);
            if !busy {
                return Ok((raw, value));
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        Err("service stayed busy for 60s".to_string())
    }
}

fn wire_property(property: Property) -> &'static str {
    match property {
        Property::Observability => "obs",
        Property::SecuredObservability => "secured",
        Property::BadDataDetectability => "baddata",
    }
}

/// Renders a wire id array (`[1,3]`) for display.
fn fmt_ids(ids: Option<&Json>) -> String {
    let mut out = String::from("[");
    if let Some(items) = ids.and_then(Json::as_arr) {
        for (i, id) in items.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match id {
                Json::Num(n) => out.push_str(&format!("{n}")),
                other => out.push_str(&format!("{other:?}")),
            }
        }
    }
    out.push(']');
    out
}

/// Renders a wire threat object for display.
fn fmt_threat(threat: &Json) -> String {
    let mut out = format!(
        "ieds {} rtus {}",
        fmt_ids(threat.get("ieds")),
        fmt_ids(threat.get("rtus"))
    );
    if let Some(others) = threat.get("others").and_then(Json::as_arr) {
        if !others.is_empty() {
            out.push_str(&format!(" others {}", fmt_ids(threat.get("others"))));
        }
    }
    if let Some(links) = threat.get("links").and_then(Json::as_arr) {
        if !links.is_empty() {
            let rendered: Vec<String> = links
                .iter()
                .map(|pair| {
                    let a = pair.as_arr().and_then(|p| p.first()).and_then(Json::as_u64);
                    let b = pair.as_arr().and_then(|p| p.get(1)).and_then(Json::as_u64);
                    match (a, b) {
                        (Some(a), Some(b)) => format!("{a}-{b}"),
                        _ => "?".to_string(),
                    }
                })
                .collect();
            out.push_str(&format!(" links [{}]", rendered.join(", ")));
        }
    }
    out
}

/// Provenance and timing suffix shared by every query printout.
fn fmt_meta(resp: &Json) -> String {
    let provenance = resp.get("provenance").and_then(Json::as_str).unwrap_or("?");
    match resp.get("elapsed_us").and_then(Json::as_u64) {
        Some(us) => format!("({provenance}, {us} µs)"),
        None => format!("({provenance})"),
    }
}

/// Outcome flags a client run accumulates to compute the exit code.
#[derive(Default)]
struct RemoteOutcome {
    any_threat: bool,
    any_unknown: bool,
    any_cert_failed: bool,
}

impl RemoteOutcome {
    fn exit_code(&self) -> ExitCode {
        if self.any_cert_failed {
            ExitCode::from(4)
        } else if self.any_threat {
            ExitCode::FAILURE
        } else if self.any_unknown {
            ExitCode::from(3)
        } else {
            ExitCode::SUCCESS
        }
    }
}

/// Runs as a client of a `scadad` service: load the model, then issue
/// the selected queries over the wire. Exit codes mirror local mode.
fn run_client(addr: &str, args: &[String]) -> Result<ExitCode, String> {
    let flag = |name: &str| cli::flag(args, name);

    if let Some(dir) = raw(args, "--batch")? {
        // Remote batch takes --jobs (forwarded to the service) and
        // --format (rendered client-side); certification stays a
        // service-side setting.
        for unsupported in ["--rank", "--repair", "--certify", "--proof-dir"] {
            if flag(unsupported) {
                return Err(format!(
                    "{unsupported} is not supported with --connect \
                     (certification is a service-side setting)"
                ));
            }
        }
        let mut conn = Conn::connect(addr)?;
        return run_batch_remote(&mut conn, dir, args);
    }

    for unsupported in ["--rank", "--repair", "--jobs", "--certify", "--proof-dir"] {
        if flag(unsupported) {
            return Err(format!(
                "{unsupported} is not supported with --connect \
                 (certification and job count are service-side settings)"
            ));
        }
    }

    let config_path = args.first().filter(|a| !a.starts_with("--"));
    let mut conn = Conn::connect(addr)?;

    if config_path.is_none() && !flag("--case-study") {
        if flag("--health") {
            // Health-only invocation: answered even while the service
            // is recovering or draining, so no model is needed.
            let (raw_line, resp) = conn.request("{\"op\":\"health\"}")?;
            if resp.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err("health failed".to_string());
            }
            println!("health: {raw_line}");
            if !flag("--shutdown") {
                return Ok(ExitCode::SUCCESS);
            }
        }
        if flag("--shutdown") {
            // Shutdown-only invocation: no model needed.
            let (_, resp) = conn.request("{\"op\":\"shutdown\"}")?;
            return if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                println!("service draining");
                Ok(ExitCode::SUCCESS)
            } else {
                eprintln!("error: shutdown rejected");
                Ok(ExitCode::FAILURE)
            };
        }
        return Err(
            "usage: scada-analyzer --connect ADDR <config-file> [options]   \
             (or --case-study; --shutdown alone stops the service, \
             --health alone probes it)"
                .to_string(),
        );
    }

    // Load: ship the raw config text. The spec section is parsed
    // locally so CLI overrides default to the same values as local
    // mode (the wire spec is always explicit).
    let (load_req, (mut k1, mut k2), mut r, config_links) = match config_path {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            };
            let config = match parse_config(&text) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            };
            let mut req = String::from("{\"op\":\"load\",\"config\":\"");
            json_escape_into(&text, &mut req);
            req.push_str("\"}");
            (
                req,
                config.resilience,
                config.corrupted,
                config.link_failures,
            )
        }
        None => {
            let req = "{\"op\":\"load\",\"case_study\":true}".to_string();
            (req, (1, 1), 1, 0)
        }
    };

    let total_k: Option<usize> = opt(args, "--k")?;
    if let Some(v) = opt(args, "--k1")? {
        k1 = v;
    }
    if let Some(v) = opt(args, "--k2")? {
        k2 = v;
    }
    if let Some(v) = opt(args, "--r")? {
        r = v;
    }
    let links: usize = opt(args, "--links")?.unwrap_or(config_links);
    let mut spec = match total_k {
        Some(k) => ResiliencySpec::total(k),
        None => ResiliencySpec::split(k1, k2),
    };
    spec = spec.with_corrupted(r).with_link_failures(links);
    let mut spec_wire = match total_k {
        Some(k) => format!("{{\"k\":{k}"),
        None => format!("{{\"k1\":{k1},\"k2\":{k2}"),
    };
    spec_wire.push_str(&format!(",\"r\":{r},\"links\":{links}}}"));

    let mut limit_fields: Vec<String> = Vec::new();
    if let Some(timeout) = cli::timeout(args)? {
        limit_fields.push(format!("\"timeout_ms\":{}", timeout.as_millis()));
    }
    if let Some(budget) = opt::<u64>(args, "--conflict-budget")? {
        limit_fields.push(format!("\"conflict_budget\":{budget}"));
    }
    let limits_field = if limit_fields.is_empty() {
        String::new()
    } else {
        format!(",\"limits\":{{{}}}", limit_fields.join(","))
    };

    let properties = parse_properties(args)?;

    let (_, loaded) = conn.request(&load_req)?;
    if loaded.get("ok").and_then(Json::as_bool) != Some(true) {
        let msg = loaded.get("error").and_then(Json::as_str).unwrap_or("?");
        eprintln!("error: {addr}: {msg}");
        return Ok(ExitCode::FAILURE);
    }
    let mut model = loaded
        .get("model")
        .and_then(Json::as_str)
        .ok_or("malformed load response (no model hash)")?
        .to_string();
    println!(
        "connected to {addr}: model {model} ({} session, {} devices, {} measurements)",
        loaded.get("session").and_then(Json::as_str).unwrap_or("?"),
        loaded.get("devices").and_then(Json::as_u64).unwrap_or(0),
        loaded
            .get("measurements")
            .and_then(Json::as_u64)
            .unwrap_or(0),
    );

    // Patches mutate the warm session in place and re-key it under the
    // lineage hash, so each reply's `model` becomes the hash every
    // subsequent request (and patch) must address.
    for patch in raw_all(args, "--patch")? {
        if let Err(e) = parse_json(patch) {
            return Err(format!("bad --patch `{patch}`: {e}"));
        }
        let req = format!("{{\"op\":\"patch\",\"model\":\"{model}\",\"patch\":{patch}}}");
        let (_, resp) = conn.request(&req)?;
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            let msg = resp.get("error").and_then(Json::as_str).unwrap_or("?");
            eprintln!("error: patch {patch} rejected: {msg}");
            return Ok(ExitCode::FAILURE);
        }
        model = resp
            .get("model")
            .and_then(Json::as_str)
            .ok_or("malformed patch response (no model hash)")?
            .to_string();
        println!(
            "patched to model {model}: +{} device(s), +{} link(s), {} pinned, \
             dirty plain={} secured={}, {} cached verdict(s) migrated  {}",
            resp.get("new_devices").and_then(Json::as_u64).unwrap_or(0),
            resp.get("new_links").and_then(Json::as_u64).unwrap_or(0),
            resp.get("newly_pinned").and_then(Json::as_u64).unwrap_or(0),
            resp.get("plain_dirty")
                .and_then(Json::as_bool)
                .unwrap_or(true),
            resp.get("secured_dirty")
                .and_then(Json::as_bool)
                .unwrap_or(true),
            resp.get("cache_migrated")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            fmt_meta(&resp),
        );
    }

    let mut outcome = RemoteOutcome::default();
    for &property in &properties {
        let req = format!(
            "{{\"op\":\"verify\",\"model\":\"{model}\",\"property\":\"{}\",\
             \"spec\":{spec_wire}{limits_field}}}",
            wire_property(property)
        );
        let (_, resp) = conn.request(&req)?;
        print_remote_verify(property, &spec, &resp, &mut outcome)?;

        if flag("--enumerate") {
            let req = format!(
                "{{\"op\":\"enumerate\",\"model\":\"{model}\",\"property\":\"{}\",\
                 \"spec\":{spec_wire},\"cap\":1000{limits_field}}}",
                wire_property(property)
            );
            let (_, resp) = conn.request(&req)?;
            print_remote_enumerate(&resp, &mut outcome)?;
        }

        if flag("--max-resiliency") {
            let mut rendered: Vec<String> = Vec::new();
            for axis in ["ieds", "rtus", "total"] {
                let req = format!(
                    "{{\"op\":\"maxres\",\"model\":\"{model}\",\"property\":\"{}\",\
                     \"axis\":\"{axis}\",\"r\":{r}{limits_field}}}",
                    wire_property(property)
                );
                let (_, resp) = conn.request(&req)?;
                if resp.get("ok").and_then(Json::as_bool) != Some(true) {
                    let msg = resp.get("error").and_then(Json::as_str).unwrap_or("?");
                    return Err(format!("maxres failed: {msg}"));
                }
                let max = resp.get("max").and_then(Json::as_u64);
                if max.is_none() {
                    outcome.any_unknown = true;
                }
                rendered.push(format!(
                    "{axis} {} {}",
                    max.map_or("none".to_string(), |k| k.to_string()),
                    fmt_meta(&resp)
                ));
            }
            println!("  max resiliency: {}", rendered.join(", "));
        }
    }

    if flag("--security-index") {
        let req = format!("{{\"op\":\"security_index\",\"model\":\"{model}\"}}");
        let (_, resp) = conn.request(&req)?;
        print_remote_security_index(&resp, &mut outcome)?;
    }

    if flag("--stats") {
        let (raw_line, resp) = conn.request("{\"op\":\"stats\"}")?;
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err("stats failed".to_string());
        }
        // Raw JSON on purpose: scripts grep counters out of this line.
        println!("stats: {raw_line}");
    }

    if flag("--health") {
        let (raw_line, resp) = conn.request("{\"op\":\"health\"}")?;
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err("health failed".to_string());
        }
        println!("health: {raw_line}");
    }

    if flag("--shutdown") {
        let (_, resp) = conn.request("{\"op\":\"shutdown\"}")?;
        if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            println!("service draining");
        } else {
            eprintln!("error: shutdown rejected");
        }
    }

    Ok(outcome.exit_code())
}

/// Runs `--connect … --batch DIR` as the service's `batch` op: the
/// server scans and audits the fleet (DIR resolves under *its*
/// `--fleet-root`), and the rows come back in one consolidated reply.
/// `--jobs` is forwarded to the service; `--format csv` is rendered
/// client-side from the returned rows. One report row per config goes
/// to stdout, like local mode; the exit code follows the same ladder
/// (4 > 6 > 1 > 3 > 0).
fn run_batch_remote(conn: &mut Conn, dir: &str, args: &[String]) -> Result<ExitCode, String> {
    let jobs: Option<usize> = opt(args, "--jobs")?;
    let csv = match raw(args, "--format")?.map(|s| s.as_str()) {
        None | Some("jsonl") => false,
        Some("csv") => true,
        Some(other) => return Err(format!("bad --format `{other}` (jsonl|csv)")),
    };
    let mut req = String::from("{\"op\":\"batch\",\"dir\":\"");
    json_escape_into(dir, &mut req);
    req.push('"');
    if let Some(jobs) = jobs {
        req.push_str(&format!(",\"jobs\":{jobs}"));
    }
    req.push('}');
    let (_, resp) = conn.request(&req)?;
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        let msg = resp.get("error").and_then(Json::as_str).unwrap_or("?");
        eprintln!("error: batch failed: {msg}");
        return Ok(ExitCode::FAILURE);
    }
    let empty: Vec<Json> = Vec::new();
    let rows = resp.get("rows").and_then(Json::as_arr).unwrap_or(&empty);
    let mut cert_failed = false;
    let mut errored = false;
    let mut threat = false;
    let mut unknown = false;
    if csv {
        println!("{}", scada_analyzer::fleet::ReportRow::CSV_HEADER);
    }
    for row in rows {
        if csv {
            println!(
                "{}",
                scada_analyzer::fleet::ReportRow::from_wire(row).render_csv()
            );
        } else {
            println!("{}", row.render()?);
        }
        cert_failed |= row.get("certificate").and_then(Json::as_str) == Some("failed");
        errored |= row.get("ok").and_then(Json::as_bool) == Some(false);
        match row.get("verdict").and_then(Json::as_str) {
            Some("threat") => threat = true,
            Some("unknown") => unknown = true,
            _ => {}
        }
        if matches!(row.get("max"), Some(Json::Null)) {
            unknown = true;
        }
    }
    eprintln!(
        "fleet: {} config(s), {} failed; provenance cold {} / warm {} / delta {} / cached {}",
        resp.get("configs").and_then(Json::as_u64).unwrap_or(0),
        resp.get("failed").and_then(Json::as_u64).unwrap_or(0),
        resp.get("cold").and_then(Json::as_u64).unwrap_or(0),
        resp.get("warm").and_then(Json::as_u64).unwrap_or(0),
        resp.get("delta").and_then(Json::as_u64).unwrap_or(0),
        resp.get("cached").and_then(Json::as_u64).unwrap_or(0),
    );
    Ok(ExitCode::from(if cert_failed {
        4
    } else if errored {
        6
    } else if threat {
        1
    } else if unknown {
        3
    } else {
        0
    }))
}

/// Prints one remote verify response and folds it into the outcome.
fn print_remote_verify(
    property: Property,
    spec: &ResiliencySpec,
    resp: &Json,
    outcome: &mut RemoteOutcome,
) -> Result<(), String> {
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        let msg = resp.get("error").and_then(Json::as_str).unwrap_or("?");
        return Err(format!("verify failed: {msg}"));
    }
    let meta = fmt_meta(resp);
    match resp.get("verdict").and_then(Json::as_str) {
        Some("resilient") => {
            println!("[{property}] RESILIENT at {spec}  {meta}");
        }
        Some("threat") => {
            outcome.any_threat = true;
            let threat = resp
                .get("threat")
                .map(fmt_threat)
                .unwrap_or_else(|| "?".to_string());
            println!("[{property}] THREAT {threat} at {spec}  {meta}");
        }
        Some("unknown") => {
            outcome.any_unknown = true;
            println!(
                "[{property}] UNKNOWN at {spec}  (limit exhausted after \
                 {} conflicts, {} attempt(s))  {meta}",
                resp.get("conflicts").and_then(Json::as_u64).unwrap_or(0),
                resp.get("attempts").and_then(Json::as_u64).unwrap_or(0),
            );
        }
        other => return Err(format!("malformed verify response (verdict {other:?})")),
    }
    match resp.get("certificate").and_then(Json::as_str) {
        Some("failed") => {
            outcome.any_cert_failed = true;
            println!(
                "  certificate: FAILED — {}",
                resp.get("certificate_error")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
            );
        }
        Some(kind) => println!("  certificate: {kind} (checked service-side)"),
        None => {}
    }
    Ok(())
}

/// Prints one remote security-index response and folds it into the
/// outcome (service-side certification failures map to exit 4, like
/// local mode).
fn print_remote_security_index(resp: &Json, outcome: &mut RemoteOutcome) -> Result<(), String> {
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        let msg = resp.get("error").and_then(Json::as_str).unwrap_or("?");
        return Err(format!("security_index failed: {msg}"));
    }
    if resp
        .get("cert_failures")
        .and_then(Json::as_u64)
        .unwrap_or(0)
        > 0
    {
        outcome.any_cert_failed = true;
    }
    println!(
        "security index: min {} / max {} over {} measurement(s), {} solve(s)  {}",
        resp.get("min").and_then(Json::as_u64).unwrap_or(0),
        resp.get("max").and_then(Json::as_u64).unwrap_or(0),
        resp.get("count").and_then(Json::as_u64).unwrap_or(0),
        resp.get("solves").and_then(Json::as_u64).unwrap_or(0),
        fmt_meta(resp)
    );
    Ok(())
}

/// Prints one remote enumerate response and folds it into the outcome.
fn print_remote_enumerate(resp: &Json, outcome: &mut RemoteOutcome) -> Result<(), String> {
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        let msg = resp.get("error").and_then(Json::as_str).unwrap_or("?");
        return Err(format!("enumerate failed: {msg}"));
    }
    let undecided = resp.get("undecided").and_then(Json::as_bool) == Some(true);
    let truncated = resp.get("truncated").and_then(Json::as_bool) == Some(true);
    let vectors = resp.get("vectors").and_then(Json::as_arr).unwrap_or(&[]);
    if undecided {
        outcome.any_unknown = true;
    } else if !vectors.is_empty() {
        outcome.any_threat = true;
    }
    println!(
        "  threat space: {} minimal vector(s){}  {}",
        resp.get("count")
            .and_then(Json::as_u64)
            .unwrap_or(vectors.len() as u64),
        if undecided {
            " (undecided: limit exhausted)"
        } else if truncated {
            " (truncated)"
        } else {
            ""
        },
        fmt_meta(resp)
    );
    for vector in vectors {
        println!("    {}", fmt_threat(vector));
    }
    Ok(())
}
