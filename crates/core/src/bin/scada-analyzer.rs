//! The SCADA Analyzer command-line tool (the paper's Fig 2 pipeline).
//!
//! ```text
//! scada-analyzer <config.scada> [options]
//! scada-analyzer --case-study [options]
//! scada-analyzer --batch DIR [--jobs N] [--format jsonl|csv]
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
//!   --patch JSON     apply a model patch before querying (repeatable,
//!                    applied in order), e.g. --patch '{"remove_device":7}'
//!                    or --patch '{"add_device":{"kind":"rtu","peers":[1,4]}}';
//!                    queries then run against the patched model and
//!                    carry `delta` provenance
//!   --timeout DUR    wall-clock limit per query, e.g. 150ms, 5s, 2m
//!   --conflict-budget N  solver conflicts per query (escalating ×2 retry)
//!   --certify        independently re-check every verdict (DRAT proof
//!                    replay for unsat, model + budget + semantic
//!                    re-check for sat)
//!   --proof-dir DIR  also write each query's DRAT proof to
//!                    DIR/query-<id>-<seq>.drat (implies --certify)
//!   --case-study     analyze the embedded 5-bus case study (no config)
//!   --trace PATH     write a structured JSONL event trace to PATH
//!   --stats          print the engine's `stats` reply line after the run
//!   --template       print an example configuration and exit
//!   --batch DIR      audit a whole fleet of channel-directory configs:
//!                    import every subdirectory of DIR, cluster
//!                    near-duplicates, reach each variant from its
//!                    cluster base via model patches (delta/cached
//!                    provenance instead of cold builds), and print one
//!                    consolidated report row per config; a malformed
//!                    config becomes an `error` row, never an abort
//!   --jobs N         --batch only: worker threads (0 = all cores, default)
//!   --format FMT     --batch report format: jsonl (default) or csv
//!   --connect ADDR   send the requests to a `scadad` service instead of
//!                    an in-process engine; --batch DIR then resolves
//!                    under the service's --fleet-root (relative, no
//!                    `..`), and --certify, --proof-dir, --trace and
//!                    SCADA_CERTIFY_FAULT are service-side settings
//!                    (usage errors here)
//!   --shutdown       ask the engine to drain and exit (alone, or after
//!                    the queries)
//!   --health         print the engine's health line —
//!                    `recovering|ready|draining` plus journal and
//!                    recovery counters (alone, or after the queries)
//! ```
//!
//! Both modes run one request path: the CLI is a client of the `scadad`
//! line protocol, and only the transport differs. By default the
//! requests go to an [`Engine`] built in this process; with `--connect`
//! they go over TCP. The request sequence is `load`, each `--patch`,
//! then per property `verify`, `enumerate` and three `maxres` (one per
//! budget axis) and `repair`, then `security_index`, then
//! `stats`/`health`/`shutdown` — each only when its flag asks for it.
//! `--batch` sends one `batch` request (locally against an engine whose
//! fleet root is DIR). The same printer reads the replies in both
//! modes, so their stdout differs only in timings and the header.
//!
//! With `--timeout` / `--conflict-budget` a query that runs out of
//! resources prints `UNKNOWN` instead of hanging; the limits also bound
//! `--enumerate`, whose threat space is then reported *undecided* when a
//! search was cut short.
//!
//! Exit codes: 0 all verified resilient; 1 some threat found, or the
//! engine rejected a request (a config it cannot load, a bad patch);
//! 2 usage error (including malformed option values and a `--batch`
//! DIR the engine cannot audit); 3 no threat but at least one query or
//! enumeration undecided; 4 a certification check failed (takes
//! precedence over every other code — an uncertified verdict is worse
//! than a threat); 6 (`--batch` only) at least one config failed to
//! import or execute while the rest of the fleet was audited.
//! Precedence: 4 > 6 > 1 > 3 > 0.

use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::process::ExitCode;

use scada_analyzer::cli::{self, opt, raw, raw_all};
use scada_analyzer::fleet::ReportRow;
use scada_analyzer::obs::json_escape_into;
use scada_analyzer::service::{parse_json, parse_pairs, parse_threat, Engine, Json, ServeOptions};
use scada_analyzer::{CertFault, CertificationLog, Property, ResiliencySpec, ThreatSpace};
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

/// Why a run stopped early: a usage error (exit 2) or a request the
/// engine rejected (exit 1). Both print as `error: {message}`.
enum Stop {
    Usage(String),
    Rejected(String),
}

impl From<String> for Stop {
    fn from(message: String) -> Stop {
        Stop::Usage(message)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(Stop::Usage(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
        Err(Stop::Rejected(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, Stop> {
    if cli::flag(args, "--template") {
        print!("{TEMPLATE}");
        return Ok(ExitCode::SUCCESS);
    }
    let batch = raw(args, "--batch")?;
    if batch.is_none() && cli::flag(args, "--jobs") {
        return Err(Stop::Usage("--jobs applies to --batch only".to_string()));
    }
    let (transport, tracer) = match raw(args, "--connect")? {
        Some(addr) => {
            for local_only in ["--certify", "--proof-dir", "--trace"] {
                if cli::flag(args, local_only) {
                    return Err(Stop::Usage(format!(
                        "{local_only} is not supported with --connect \
                         (certification and tracing are service-side settings)"
                    )));
                }
            }
            if std::env::var("SCADA_CERTIFY_FAULT").is_ok_and(|v| !v.is_empty()) {
                return Err(Stop::Usage(
                    "SCADA_CERTIFY_FAULT is not supported with --connect \
                     (certification is a service-side setting)"
                        .to_string(),
                ));
            }
            (Transport::connect(addr)?, None)
        }
        None => {
            let (mut ctx, (tracer, _)) =
                cli::query_context(args, &["--certify", "--proof-dir", "--trace"])?;
            // Test hook: deliberately corrupt artifacts before checking,
            // to prove the checkers are not vacuous (tests/degradation.rs).
            ctx.certify.fault = match std::env::var("SCADA_CERTIFY_FAULT").ok().as_deref() {
                Some("proof") => Some(CertFault::CorruptProof),
                Some("model") => Some(CertFault::CorruptModel),
                Some("checker") => Some(CertFault::CheckerPanic),
                Some(other) if !other.is_empty() => {
                    return Err(Stop::Usage(format!(
                        "bad SCADA_CERTIFY_FAULT `{other}` (proof|model|checker)"
                    )));
                }
                _ => None,
            };
            let log = ctx.certify.log.clone();
            let engine = Engine::new(ServeOptions {
                obs: ctx.obs,
                certify: ctx.certify,
                fleet_root: batch.map(Into::into),
                ..ServeOptions::default()
            });
            (Transport::Local(Box::new(engine), log), tracer)
        }
    };
    let mut client = Client::new(transport);
    let outcome = match batch {
        Some(dir) => client.batch(dir, args),
        None => client.single(args),
    };
    // Drain an in-process engine before exit: certified queries flush
    // their proof files and every session worker is joined.
    if let Transport::Local(engine, _) = &client.transport {
        engine.drain();
    }
    if let Some(tracer) = &tracer {
        tracer.flush();
        eprintln!("trace: {} event(s) written", tracer.events());
    }
    outcome?;
    Ok(client.finish())
}

/// Where request lines go: one seam, two bodies.
enum Transport {
    /// An engine in this process (the default), and the log its
    /// certificates are recorded in.
    Local(Box<Engine>, CertificationLog),
    /// A `scadad` service over TCP (`--connect`).
    Remote {
        addr: String,
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    },
}

impl Transport {
    fn connect(addr: &str) -> Result<Transport, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cannot clone connection: {e}"))?,
        );
        Ok(Transport::Remote {
            addr: addr.to_string(),
            reader,
            writer: stream,
        })
    }

    /// Sends one request line and returns the reply line.
    fn send(&mut self, line: &str) -> Result<String, String> {
        match self {
            Transport::Local(engine, _) => Ok(engine.handle_line(line).line),
            Transport::Remote { reader, writer, .. } => {
                writeln!(writer, "{line}").map_err(|e| format!("send failed: {e}"))?;
                writer.flush().map_err(|e| format!("send failed: {e}"))?;
                let mut reply = String::new();
                let n = reader
                    .read_line(&mut reply)
                    .map_err(|e| format!("receive failed: {e}"))?;
                if n == 0 {
                    return Err("server closed the connection".to_string());
                }
                Ok(reply.trim_end().to_string())
            }
        }
    }

    /// How the run's header names the engine.
    fn describe(&self) -> String {
        match self {
            Transport::Local(..) => "in-process engine".to_string(),
            Transport::Remote { addr, .. } => format!("connected to {addr}"),
        }
    }
}

/// The one client: it issues requests, prints the replies, and folds
/// them into the exit code, whatever the transport.
struct Client {
    transport: Transport,
    /// The model every query addresses (re-keyed by each patch).
    model: String,
    threat: bool,
    unknown: bool,
    errored: bool,
    /// Replies that carried a certificate.
    certified: u64,
    cert_failures: u64,
    first_cert_failure: Option<String>,
}

impl Client {
    fn new(transport: Transport) -> Client {
        Client {
            transport,
            model: String::new(),
            threat: false,
            unknown: false,
            errored: false,
            certified: 0,
            cert_failures: 0,
            first_cert_failure: None,
        }
    }

    /// Sends one request, retrying while the engine reports saturation
    /// (`"retry":true`), and returns the raw and the parsed reply. An
    /// `ok:false` reply is [`Stop::Rejected`], named by `op`.
    fn request(&mut self, op: &str, line: &str) -> Result<(String, Json), Stop> {
        for _ in 0..600 {
            let raw = self.transport.send(line)?;
            let reply = parse_json(&raw).map_err(|e| format!("bad response: {e}"))?;
            if reply.get("ok").and_then(Json::as_bool) == Some(true) {
                return Ok((raw, reply));
            }
            if reply.get("retry").and_then(Json::as_bool) != Some(true) {
                let message = reply.get("error").and_then(Json::as_str).unwrap_or("?");
                return Err(Stop::Rejected(format!("{op} failed: {message}")));
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        Err(Stop::Rejected(format!(
            "{op} failed: service stayed busy for 60s"
        )))
    }

    /// Sends `op` on the current model with the extra JSON `fields`.
    fn query(&mut self, op: &str, fields: &str) -> Result<Json, Stop> {
        let line = format!("{{\"op\":\"{op}\",\"model\":\"{}\"{fields}}}", self.model);
        Ok(self.request(op, &line)?.1)
    }

    /// The exit code every run ends with: 4 > 6 > 1 > 3 > 0.
    fn finish(&mut self) -> ExitCode {
        // Locally the engine's log backs the replies up: a failed check
        // that no reply reported still fails the run.
        if let Transport::Local(_, log) = &self.transport {
            if log.failures() > self.cert_failures {
                self.cert_failures = log.failures();
                if self.first_cert_failure.is_none() {
                    self.first_cert_failure = log.first_failure();
                }
            }
        }
        if self.certified > 0 {
            println!(
                "certification: {} verdict(s) checked, {} failure(s)",
                self.certified, self.cert_failures
            );
        }
        ExitCode::from(if self.cert_failures > 0 {
            if let Some(reason) = &self.first_cert_failure {
                eprintln!("error: certification failed: {reason}");
            }
            4
        } else if self.errored {
            6
        } else if self.threat {
            1
        } else if self.unknown {
            3
        } else {
            0
        })
    }

    fn cert_failed(&mut self, count: u64, reason: impl FnOnce() -> String) {
        if count > 0 {
            self.cert_failures += count;
            self.first_cert_failure.get_or_insert_with(reason);
        }
    }

    /// Folds the `cert_checks` and `cert_failures` of an `op` reply
    /// that certifies several verdicts into the tally.
    fn tally_certs(&mut self, op: &str, reply: &Json) {
        self.certified += number(reply, "cert_checks");
        let failures = number(reply, "cert_failures");
        self.cert_failed(failures, || {
            format!("{failures} {op} certificate failure(s)")
        });
    }

    /// `--batch DIR`: one `batch` request, one report row per config on
    /// stdout and a provenance summary on stderr.
    fn batch(&mut self, dir: &str, args: &[String]) -> Result<(), Stop> {
        let csv = match raw(args, "--format")?.map(String::as_str) {
            None | Some("jsonl") => false,
            Some("csv") => true,
            Some(other) => return Err(Stop::Usage(format!("bad --format `{other}` (jsonl|csv)"))),
        };
        let jobs: usize = opt(args, "--jobs")?.unwrap_or(0);
        // A local engine's fleet root is DIR itself.
        let dir = match self.transport {
            Transport::Local(..) => ".",
            Transport::Remote { .. } => dir,
        };
        let mut line = String::from("{\"op\":\"batch\",\"dir\":\"");
        json_escape_into(dir, &mut line);
        line.push_str(&format!("\",\"jobs\":{jobs}}}"));
        // A DIR the engine cannot audit is a bad argument.
        let reply = match self.request("batch", &line) {
            Err(Stop::Rejected(message)) => return Err(Stop::Usage(message)),
            other => other?.1,
        };
        if csv {
            println!("{}", ReportRow::CSV_HEADER);
        }
        for row in reply.get("rows").and_then(Json::as_arr).unwrap_or(&[]) {
            let row = ReportRow::from_wire(row);
            if csv {
                println!("{}", row.render_csv());
            } else {
                println!("{}", row.render_json());
            }
            if row.certificate.as_deref() == Some("failed") {
                self.cert_failed(1, || format!("config {}", row.config));
            }
            self.errored |= row.error.is_some();
            self.threat |= row.verdict.as_deref() == Some("threat");
            self.unknown |= row.verdict.as_deref() == Some("unknown") || row.max == Some(None);
        }
        let count = |key: &str| reply.get(key).and_then(Json::as_u64).unwrap_or(0);
        eprintln!(
            "fleet: {} config(s), {} failed; provenance cold {} / warm {} / delta {} / cached {}  \
             ({} µs)",
            count("configs"),
            count("failed"),
            count("cold"),
            count("warm"),
            count("delta"),
            count("cached"),
            count("elapsed_us"),
        );
        Ok(())
    }

    /// One model: load, patch, query, and the control ops.
    fn single(&mut self, args: &[String]) -> Result<(), Stop> {
        let flag = |name: &str| cli::flag(args, name);
        let config_path = args.first().filter(|a| !a.starts_with("--"));
        if config_path.is_none() && !flag("--case-study") {
            if flag("--health") || flag("--shutdown") {
                // Control-only invocation: no model needed.
                return self.control(args);
            }
            return Err(Stop::Usage(
                "usage: scada-analyzer <config-file> [options]   (--template for an \
                 example, --case-study for the built-in system; --shutdown or --health \
                 alone address the engine)"
                    .to_string(),
            ));
        }

        // The config's [spec] gives the defaults the flags override;
        // the engine parses the text again on `load`.
        let (load, (k1, k2), r, config_links) = match config_path {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| Stop::Rejected(format!("cannot read {path}: {e}")))?;
                let config = parse_config(&text).map_err(|e| Stop::Rejected(e.to_string()))?;
                let mut load = String::from("{\"op\":\"load\",\"config\":\"");
                json_escape_into(&text, &mut load);
                load.push_str("\"}");
                (
                    load,
                    config.resilience,
                    config.corrupted,
                    config.link_failures,
                )
            }
            None => (
                "{\"op\":\"load\",\"case_study\":true}".to_string(),
                (1, 1),
                1,
                0,
            ),
        };
        let total_k: Option<usize> = opt(args, "--k")?;
        let k1 = opt(args, "--k1")?.unwrap_or(k1);
        let k2 = opt(args, "--k2")?.unwrap_or(k2);
        let r = opt(args, "--r")?.unwrap_or(r);
        let links: usize = opt(args, "--links")?.unwrap_or(config_links);
        let (spec, mut spec_wire) = match total_k {
            Some(k) => (ResiliencySpec::total(k), format!("{{\"k\":{k}")),
            None => (
                ResiliencySpec::split(k1, k2),
                format!("{{\"k1\":{k1},\"k2\":{k2}"),
            ),
        };
        let spec = spec.with_corrupted(r).with_link_failures(links);
        spec_wire.push_str(&format!(",\"r\":{r},\"links\":{links}}}"));

        let mut limits: Vec<String> = Vec::new();
        if let Some(timeout) = cli::timeout(args)? {
            limits.push(format!("\"timeout_ms\":{}", timeout.as_millis()));
        }
        if let Some(budget) = opt::<u64>(args, "--conflict-budget")? {
            limits.push(format!("\"conflict_budget\":{budget}"));
        }
        let limits = if limits.is_empty() {
            String::new()
        } else {
            format!(",\"limits\":{{{}}}", limits.join(","))
        };
        let properties = parse_properties(args)?;
        // Re-rendered, so a patch written over several lines still
        // travels as one request line.
        let patches = raw_all(args, "--patch")?
            .into_iter()
            .map(|patch| {
                parse_json(patch)
                    .and_then(|json| json.render())
                    .map_err(|e| format!("bad --patch `{patch}`: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;

        let (_, loaded) = self.request("load", &load)?;
        self.model = text(&loaded, "model").to_string();
        println!(
            "{}: model {} ({} session, {} devices, {} measurements)",
            self.transport.describe(),
            self.model,
            text(&loaded, "session"),
            number(&loaded, "devices"),
            number(&loaded, "measurements"),
        );
        // A patch re-keys the session under its lineage hash, which
        // every later request (and patch) must address.
        for patch in patches {
            let reply = self.query("patch", &format!(",\"patch\":{patch}"))?;
            self.model = text(&reply, "model").to_string();
            println!(
                "patched to model {}: +{} device(s), +{} link(s), {} pinned, \
                 dirty plain={} secured={}, {} cached verdict(s) migrated  {}",
                self.model,
                number(&reply, "new_devices"),
                number(&reply, "new_links"),
                number(&reply, "newly_pinned"),
                reply.get("plain_dirty").and_then(Json::as_bool) != Some(false),
                reply.get("secured_dirty").and_then(Json::as_bool) != Some(false),
                number(&reply, "cache_migrated"),
                meta(&reply),
            );
        }

        for property in properties {
            let target = format!(
                ",\"property\":\"{}\",\"spec\":{spec_wire}",
                wire_property(property)
            );
            let reply = self.query("verify", &format!("{target}{limits}"))?;
            self.print_verify(property, &spec, &reply)?;
            if flag("--enumerate") || flag("--rank") {
                let reply = self.query("enumerate", &format!("{target},\"cap\":1000{limits}"))?;
                self.tally_certs("enumerate", &reply);
                self.print_enumerate(&reply, flag("--enumerate"), flag("--rank"))?;
            }
            if flag("--max-resiliency") {
                let mut axes = Vec::new();
                for (axis, name) in [
                    ("ieds", "IEDs-only"),
                    ("rtus", "RTUs-only"),
                    ("total", "total"),
                ] {
                    let reply = self.query(
                        "maxres",
                        &format!(
                            ",\"property\":\"{}\",\"axis\":\"{axis}\",\"r\":{r}{limits}",
                            wire_property(property)
                        ),
                    )?;
                    self.tally_certs("maxres", &reply);
                    let max = reply.get("max").and_then(Json::as_u64);
                    // The wire cannot tell "fails with nothing failed"
                    // from an undecided rung: read every null as undecided.
                    self.unknown |= max.is_none();
                    let max = max.map_or("none".to_string(), |k| k.to_string());
                    axes.push(format!("{name} {max} {}", meta(&reply)));
                }
                println!("  max resiliency: {}", axes.join(", "));
            }
            if flag("--repair") && property != Property::Observability {
                let reply = self.query("repair", &target)?;
                self.tally_certs("repair", &reply);
                print_repair(&reply)?;
            }
        }
        if flag("--security-index") {
            let reply = self.query("security_index", "")?;
            self.print_security_index(&reply);
        }
        self.control(args)
    }

    /// `--stats`, `--health` and `--shutdown`, in that order.
    fn control(&mut self, args: &[String]) -> Result<(), Stop> {
        for (name, flag) in [("stats", "--stats"), ("health", "--health")] {
            if cli::flag(args, flag) {
                // Raw JSON on purpose: scripts grep counters out of it.
                let (line, _) = self.request(name, &format!("{{\"op\":\"{name}\"}}"))?;
                println!("{name}: {line}");
            }
        }
        if cli::flag(args, "--shutdown") {
            self.request("shutdown", "{\"op\":\"shutdown\"}")?;
            println!("service draining");
        }
        Ok(())
    }

    fn print_verify(
        &mut self,
        property: Property,
        spec: &ResiliencySpec,
        reply: &Json,
    ) -> Result<(), Stop> {
        let meta = meta(reply);
        match reply.get("verdict").and_then(Json::as_str) {
            Some("resilient") => println!("[{property}] RESILIENT at {spec}  {meta}"),
            Some("threat") => {
                self.threat = true;
                let vector = parse_threat(reply.get("threat").unwrap_or(&Json::Null))
                    .map_err(|e| Stop::Rejected(format!("malformed verify reply: {e}")))?;
                println!("[{property}] THREAT {vector} at {spec}  {meta}");
            }
            Some("unknown") => {
                self.unknown = true;
                println!(
                    "[{property}] UNKNOWN at {spec}  (limit exhausted after {} conflicts, \
                     {} attempt(s))  {meta}",
                    number(reply, "conflicts"),
                    number(reply, "attempts"),
                );
            }
            other => {
                return Err(Stop::Rejected(format!(
                    "malformed verify reply (verdict {other:?})"
                )))
            }
        }
        let Some(certificate) = reply.get("certificate").and_then(Json::as_str) else {
            return Ok(());
        };
        self.certified += 1;
        match certificate {
            "proof" => println!("  certificate: unsat proof checked"),
            "threat" => println!("  certificate: model + budget + violation re-checked"),
            "unchecked" => println!("  certificate: none (unknown verdicts certify nothing)"),
            _ => {
                let reason = text(reply, "certificate_error").to_string();
                println!("  certificate: FAILED — {reason}");
                self.cert_failed(1, || reason);
            }
        }
        Ok(())
    }

    fn print_enumerate(&mut self, reply: &Json, list: bool, rank: bool) -> Result<(), Stop> {
        let space = ThreatSpace {
            vectors: reply
                .get("vectors")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(parse_threat)
                .collect::<Result<_, _>>()
                .map_err(|e| Stop::Rejected(format!("malformed enumerate reply: {e}")))?,
            truncated: reply.get("truncated").and_then(Json::as_bool) == Some(true),
            undecided: reply.get("undecided").and_then(Json::as_bool) == Some(true),
        };
        if space.undecided {
            self.unknown = true;
        } else {
            self.threat |= !space.is_empty();
        }
        println!(
            "  threat space: {} minimal vector(s){}  {}",
            space.len(),
            if space.undecided {
                " (undecided: limit exhausted)"
            } else if space.truncated {
                " (truncated)"
            } else {
                ""
            },
            meta(reply)
        );
        if list {
            for vector in &space.vectors {
                println!("    {vector}");
            }
        }
        if rank && !space.is_empty() {
            println!("  device criticality (vectors participated in):");
            for (device, count) in space.criticality_ranking() {
                let kind = if space.vectors.iter().any(|v| v.ieds.contains(&device)) {
                    "IED"
                } else if space.vectors.iter().any(|v| v.rtus.contains(&device)) {
                    "RTU"
                } else {
                    "router"
                };
                println!("    {kind} {:>3}  {count}", device.one_based());
            }
        }
        Ok(())
    }

    fn print_security_index(&mut self, reply: &Json) {
        let failures = number(reply, "cert_failures");
        self.cert_failed(failures, || {
            format!("{failures} security-index certificate failure(s)")
        });
        let indices = reply.get("indices").and_then(Json::as_arr).unwrap_or(&[]);
        println!(
            "security index: min {} / max {} over {} measurement(s)  ({} solve(s){})  {}",
            number(reply, "min"),
            number(reply, "max"),
            indices.len(),
            number(reply, "solves"),
            if self.certified > 0 {
                format!(", {failures} cert failure(s)")
            } else {
                String::new()
            },
            meta(reply),
        );
        let mut histogram = BTreeMap::new();
        for index in indices.iter().filter_map(Json::as_u64) {
            *histogram.entry(index).or_insert(0usize) += 1;
        }
        let rendered: Vec<String> = histogram
            .iter()
            .map(|(index, count)| format!("α={index} ×{count}"))
            .collect();
        println!("  distribution: {}", rendered.join(", "));
    }
}

fn print_repair(reply: &Json) -> Result<(), Stop> {
    let meta = meta(reply);
    match reply.get("repair").and_then(Json::as_str) {
        Some("nothing") => println!("  repair: nothing to do  {meta}"),
        Some("upgrades") => {
            let upgrades = parse_pairs(reply.get("upgrades").unwrap_or(&Json::Null))
                .map_err(|e| Stop::Rejected(format!("malformed repair reply: {e}")))?;
            let rendered: Vec<String> = upgrades
                .iter()
                .map(|(a, b)| format!("{}-{}", a.one_based(), b.one_based()))
                .collect();
            println!(
                "  repair: upgrade hop(s) {} to an authenticated+integrity suite  {meta}",
                rendered.join(", ")
            );
        }
        _ => println!(
            "  repair: infeasible — the weakness is topological, not cryptographic  {meta}"
        ),
    }
    Ok(())
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

fn wire_property(property: Property) -> &'static str {
    match property {
        Property::Observability => "obs",
        Property::SecuredObservability => "secured",
        Property::BadDataDetectability => "baddata",
    }
}

fn text<'a>(reply: &'a Json, key: &str) -> &'a str {
    reply.get(key).and_then(Json::as_str).unwrap_or("?")
}

fn number(reply: &Json, key: &str) -> u64 {
    reply.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// The provenance and timing suffix every query line ends with.
fn meta(reply: &Json) -> String {
    format!(
        "({}, {} µs)",
        text(reply, "provenance"),
        number(reply, "elapsed_us")
    )
}
