//! Integration tests for the analysis service: canonical model-hash
//! properties, and the `scadad` binary driven over stdio and TCP
//! (protocol robustness, warm-session reuse, graceful drain).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use proptest::prelude::*;
use scada_analyzer::service::{serve_tcp, Engine, ServeOptions};
use scada_analyzer::{model_hash, AnalysisInput};
use scadasim::{generate, parse_config, write_config, ScadaConfig, ScadaGenConfig};

// ---------------------------------------------------------------------------
// Canonical model hash
// ---------------------------------------------------------------------------

/// A small hand-written config exercising every section.
const BASE_CONFIG: &str = "\
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

/// An injection measured at a bus with no incident line has no security
/// index. The op must answer an error naming the bus, not panic the
/// session into a rebuild.
#[test]
fn security_index_of_an_unattackable_injection_is_an_error_not_a_panic() {
    let config = BASE_CONFIG
        .replace("[buses]\n3", "[buses]\n4")
        .replace("injection 2\n", "injection 2\ninjection 4\n");
    let engine = Engine::new(ServeOptions::default());
    let load = engine
        .handle_line(&format!(
            "{{\"op\":\"load\",\"config\":\"{}\"}}",
            config.replace('\n', "\\n")
        ))
        .line;
    let model = load
        .split("\"model\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or_else(|| panic!("load failed: {load}"));
    let reply = engine
        .handle_line(&format!(
            "{{\"op\":\"security_index\",\"model\":\"{model}\"}}"
        ))
        .line;
    assert!(
        reply.starts_with("{\"ok\":false") && reply.contains("bus4"),
        "{reply}"
    );
    assert!(!reply.contains("query panicked"), "{reply}");
    let health = engine.handle_line("{\"op\":\"health\"}").line;
    assert!(health.contains("\"session_rebuilds\":0"), "{health}");
    engine.drain();
}

fn input_from(text: &str) -> AnalysisInput {
    AnalysisInput::from(parse_config(text).unwrap_or_else(|e| panic!("config: {e}")))
}

/// Rotates the body lines of one `[section]` by `rot` (a permutation).
fn rotate_section(text: &str, section: &str, rot: usize) -> String {
    let header = format!("[{section}]");
    let mut out: Vec<String> = Vec::new();
    let mut body: Vec<String> = Vec::new();
    let mut in_section = false;
    for line in text.lines() {
        if line.starts_with('[') {
            if in_section {
                let k = rot % body.len().max(1);
                body.rotate_left(k);
                out.append(&mut body);
                in_section = false;
            }
            if line == header {
                in_section = true;
            }
            out.push(line.to_string());
        } else if in_section && !line.trim().is_empty() {
            body.push(line.to_string());
        } else {
            out.push(line.to_string());
        }
    }
    if in_section && !body.is_empty() {
        let k = rot % body.len();
        body.rotate_left(k);
        out.append(&mut body);
    }
    out.join("\n") + "\n"
}

/// A deterministically generated config (richer than the hand-written
/// one) for the property tests.
fn generated_config(seed: u64, hierarchy: usize, density: f64) -> String {
    let system = powergrid::synthetic::synthetic_system("svc-hash", 9, 12, seed);
    let scada = generate(
        system,
        &ScadaGenConfig {
            measurement_density: density,
            hierarchy_level: hierarchy,
            seed,
            ..Default::default()
        },
    );
    write_config(&ScadaConfig {
        measurements: scada.measurements,
        topology: scada.topology,
        ied_measurements: scada.ied_measurements,
        resilience: (1, 1),
        corrupted: 1,
        link_failures: 0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Re-ordering the incidental-order sections (links, security
    /// pairs, IED associations) never changes the canonical hash.
    #[test]
    fn hash_ignores_incidental_order(
        seed in 0u64..1000,
        hierarchy in 1usize..3,
        density in 0.4f64..1.0,
        rot in 1usize..7,
    ) {
        let text = generated_config(seed, hierarchy, density);
        let base = model_hash(&input_from(&text));
        let mut permuted = text.clone();
        for section in ["links", "security", "ied-measurements"] {
            permuted = rotate_section(&permuted, section, rot);
        }
        prop_assert_ne!(&permuted, &text, "rotation did not change the text");
        prop_assert_eq!(model_hash(&input_from(&permuted)), base);
    }

    /// Mutating one semantic field of the input always changes the
    /// hash (each mutation index picks a different field).
    #[test]
    fn hash_detects_single_field_mutations(
        seed in 0u64..1000,
        choice in 0usize..5,
    ) {
        let text = generated_config(seed, 1, 0.8);
        let mut input = input_from(&text);
        let base = model_hash(&input);
        match choice {
            0 => input.routers_can_fail = !input.routers_can_fail,
            1 => input.path_limits.max_hops += 1,
            2 => input.path_limits.max_paths += 1,
            3 => {
                let dropped = input.ied_measurements.pop();
                prop_assert!(dropped.is_some(), "generated config has no IEDs");
            }
            _ => input.policy = scadasim::SecurityPolicy::empty(),
        }
        prop_assert_ne!(model_hash(&input), base, "mutation {} went unnoticed", choice);
    }
}

#[test]
fn hash_ignores_ied_association_entry_order() {
    let mut input = input_from(BASE_CONFIG);
    let base = model_hash(&input);
    input.ied_measurements.reverse();
    assert_eq!(model_hash(&input), base);
}

#[test]
fn hash_detects_textual_single_token_edits() {
    let base = model_hash(&input_from(BASE_CONFIG));
    // Each edit changes exactly one token of one section.
    let edits = [
        ("1 2 10.0", "1 2 12.5"),                 // line susceptance
        ("injection 2", "injection 1"),           // measurement location
        ("2 3 hmac 128", "2 3 hmac 256"),         // crypto strength
        ("1 3 chap 64 sha2 128", "1 3 sha2 128"), // drop a profile
        ("1 1 3", "1 1"),                         // IED records one less
    ];
    for (from, to) in edits {
        let text = BASE_CONFIG.replace(from, to);
        assert_ne!(text, BASE_CONFIG, "edit `{from}` matched nothing");
        assert_ne!(
            model_hash(&input_from(&text)),
            base,
            "edit `{from}` -> `{to}` went unnoticed"
        );
    }
}

// ---------------------------------------------------------------------------
// The scadad binary over stdio
// ---------------------------------------------------------------------------

fn scadad(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_scadad"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn scadad")
}

/// Sends one line to the child and reads one response line.
fn roundtrip(stdin: &mut impl Write, stdout: &mut impl BufRead, line: &str) -> String {
    writeln!(stdin, "{line}").expect("write request");
    stdin.flush().expect("flush request");
    let mut resp = String::new();
    stdout.read_line(&mut resp).expect("read response");
    assert!(!resp.is_empty(), "service closed stdout after `{line}`");
    resp.trim().to_string()
}

#[test]
fn stdio_session_serves_cold_cached_and_recovers_from_garbage() {
    let mut child = scadad(&[]);
    let mut stdin = child.stdin.take().expect("stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));

    let load = roundtrip(
        &mut stdin,
        &mut stdout,
        "{\"op\":\"load\",\"case_study\":true}",
    );
    assert!(load.contains("\"ok\":true"), "load failed: {load}");
    let model = load
        .split("\"model\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .expect("model hash in load response")
        .to_string();

    let verify = format!(
        "{{\"op\":\"verify\",\"model\":\"{model}\",\"property\":\"obs\",\
         \"spec\":{{\"k1\":1,\"k2\":1}}}}"
    );
    let first = roundtrip(&mut stdin, &mut stdout, &verify);
    assert!(
        first.contains("\"verdict\":\"resilient\"") && first.contains("\"provenance\":\"cold\""),
        "unexpected first verify: {first}"
    );
    let second = roundtrip(&mut stdin, &mut stdout, &verify);
    assert!(
        second.contains("\"provenance\":\"cached\""),
        "repeat verify not cached: {second}"
    );

    // The index distribution is a verdict like any other: computed once
    // on the (by now warm) session, then replayed from the cache.
    let secidx = format!("{{\"op\":\"security_index\",\"model\":\"{model}\"}}");
    let first_idx = roundtrip(&mut stdin, &mut stdout, &secidx);
    assert!(
        first_idx.contains("\"op\":\"security_index\"")
            && first_idx.contains("\"provenance\":\"warm\"")
            && first_idx.contains("\"indices\":["),
        "unexpected first security_index: {first_idx}"
    );
    let second_idx = roundtrip(&mut stdin, &mut stdout, &secidx);
    assert!(
        second_idx.contains("\"provenance\":\"cached\""),
        "repeat security_index not cached: {second_idx}"
    );

    // Garbage is a structured error, not a crash; the session lives on.
    let garbage = roundtrip(&mut stdin, &mut stdout, "{not json");
    assert!(
        garbage.contains("\"ok\":false"),
        "no structured error: {garbage}"
    );

    // A timed-out query answers unknown but must not poison the warm
    // session (reset_for_query): the next unlimited query still decides.
    let starved = roundtrip(
        &mut stdin,
        &mut stdout,
        &format!(
            "{{\"op\":\"verify\",\"model\":\"{model}\",\"property\":\"secured\",\
             \"spec\":{{\"k1\":1,\"k2\":1}},\"limits\":{{\"timeout_ms\":0}}}}"
        ),
    );
    assert!(
        starved.contains("\"verdict\":\"unknown\""),
        "not starved: {starved}"
    );
    let after = roundtrip(
        &mut stdin,
        &mut stdout,
        &format!(
            "{{\"op\":\"verify\",\"model\":\"{model}\",\"property\":\"secured\",\
             \"spec\":{{\"k1\":1,\"k2\":1}}}}"
        ),
    );
    // A decided verdict (this property happens to be a threat on the
    // case study) proves the starved query's deadline was disarmed.
    assert!(
        !after.contains("\"verdict\":\"unknown\"") && after.contains("\"provenance\":\"warm\""),
        "warm session poisoned by the starved query: {after}"
    );

    let bye = roundtrip(&mut stdin, &mut stdout, "{\"op\":\"shutdown\"}");
    assert!(bye.contains("\"draining\":true"), "no drain ack: {bye}");
    let status = child.wait().expect("wait scadad");
    assert!(status.success(), "scadad exited {status:?}");
}

#[test]
fn stdio_rejects_oversized_lines_and_keeps_serving() {
    let mut child = scadad(&["--max-line", "256"]);
    let mut stdin = child.stdin.take().expect("stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));

    let huge = format!("{{\"op\":\"load\",\"config\":\"{}\"}}", "x".repeat(4096));
    let resp = roundtrip(&mut stdin, &mut stdout, &huge);
    assert!(
        resp.contains("\"ok\":false") && resp.contains("exceeds 256 bytes"),
        "oversized line not rejected: {resp}"
    );

    // The stream resynchronizes on the next newline.
    let stats = roundtrip(&mut stdin, &mut stdout, "{\"op\":\"stats\"}");
    assert!(
        stats.contains("\"ok\":true"),
        "stream did not recover: {stats}"
    );

    roundtrip(&mut stdin, &mut stdout, "{\"op\":\"shutdown\"}");
    assert!(child.wait().expect("wait").success());
}

/// The `health` op and the journal/recovery counters it carries, at
/// the binary level: `journal:true` with `--journal`, appends counted
/// per acked mutating op, and the same counters aggregated into the
/// `stats` reply (where `--stats` clients read them).
#[test]
fn stdio_health_reports_journal_counters_and_stats_carries_them() {
    let dir = std::env::temp_dir().join(format!("scadad-journal-stats-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("journal dir");
    let mut child = scadad(&["--journal", dir.to_str().expect("utf-8 dir")]);
    let mut stdin = child.stdin.take().expect("stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));

    let health = roundtrip(&mut stdin, &mut stdout, "{\"op\":\"health\"}");
    for want in [
        "\"op\":\"health\"",
        "\"state\":\"ready\"",
        "\"journal\":true",
        "\"journal_appends\":0",
        "\"recovery_sessions\":0",
        "\"session_rebuilds\":0",
    ] {
        assert!(health.contains(want), "health missing {want}: {health}");
    }

    let load = roundtrip(
        &mut stdin,
        &mut stdout,
        "{\"op\":\"load\",\"case_study\":true}",
    );
    assert!(load.contains("\"ok\":true"), "load failed: {load}");

    let health = roundtrip(&mut stdin, &mut stdout, "{\"op\":\"health\"}");
    assert!(
        health.contains("\"journal_appends\":1") && health.contains("\"journal_fsyncs\":1"),
        "load not journaled under strict durability: {health}"
    );
    let stats = roundtrip(&mut stdin, &mut stdout, "{\"op\":\"stats\"}");
    assert!(
        stats.contains("\"service_journal_appends\":1"),
        "journal counters absent from stats: {stats}"
    );

    roundtrip(&mut stdin, &mut stdout, "{\"op\":\"shutdown\"}");
    assert!(child.wait().expect("wait").success());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// The scadad binary over TCP: shutdown drains in-flight queries
// ---------------------------------------------------------------------------

struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl TcpClient {
    fn connect(addr: &str) -> TcpClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        TcpClient {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> String {
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("recv");
        assert!(!resp.is_empty(), "connection closed mid-response");
        resp.trim().to_string()
    }

    fn request(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

/// Spawns scadad with `--listen 127.0.0.1:0` plus `extra` options and
/// returns the child and the bound address from the banner.
fn scadad_tcp(extra: &[&str]) -> (Child, String) {
    let mut args = vec!["--listen", "127.0.0.1:0"];
    args.extend_from_slice(extra);
    let mut child = scadad(&args);
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("banner");
    let addr = banner
        .trim()
        .strip_prefix("scadad: listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();
    (child, addr)
}

#[test]
fn tcp_shutdown_drains_inflight_queries() {
    let (mut child, addr) = scadad_tcp(&[]);

    // A model big enough that enumeration takes real time (so the
    // shutdown below lands while the query is in flight).
    let system = powergrid::synthetic::ieee_sized(30, 7);
    let scada = generate(
        system,
        &ScadaGenConfig {
            measurement_density: 0.7,
            hierarchy_level: 1,
            secure_fraction: 0.8,
            seed: 7,
            ..Default::default()
        },
    );
    let text = write_config(&ScadaConfig {
        measurements: scada.measurements,
        topology: scada.topology,
        ied_measurements: scada.ied_measurements,
        resilience: (1, 1),
        corrupted: 1,
        link_failures: 0,
    });
    let mut escaped = String::new();
    scada_analyzer::obs::json_escape_into(&text, &mut escaped);

    let mut slow = TcpClient::connect(&addr);
    let load = slow.request(&format!("{{\"op\":\"load\",\"config\":\"{escaped}\"}}"));
    assert!(load.contains("\"ok\":true"), "load failed: {load}");
    let model = load
        .split("\"model\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .expect("model hash")
        .to_string();

    slow.send(&format!(
        "{{\"op\":\"enumerate\",\"model\":\"{model}\",\"property\":\"obs\",\
         \"spec\":{{\"k\":2}},\"cap\":500}}"
    ));
    // Let the query reach the session worker, then ask another
    // connection for shutdown while it is (very likely) in flight.
    std::thread::sleep(Duration::from_millis(30));
    let mut ctrl = TcpClient::connect(&addr);
    let ack = ctrl.request("{\"op\":\"shutdown\"}");
    assert!(ack.contains("\"draining\":true"), "no drain ack: {ack}");

    // The in-flight enumeration still completes with a real answer.
    let answer = slow.recv();
    assert!(
        answer.contains("\"ok\":true") && answer.contains("\"op\":\"enumerate\""),
        "in-flight query dropped during drain: {answer}"
    );

    let status = child.wait().expect("wait scadad");
    assert!(status.success(), "scadad exited {status:?} after drain");
}

/// Regression for the patch-vs-drain race: a `patch` interleaved with
/// `shutdown` must either complete its rekey (an `ok` reply naming the
/// advanced hash) or be rejected cleanly as `draining` with
/// `"retry":false` — never `busy`, never a torn session. Runs against
/// the sharded event-loop front-end, the default `--listen` path.
#[test]
fn tcp_patch_racing_shutdown_completes_or_rejects_cleanly() {
    let (mut child, addr) = scadad_tcp(&["--shards", "2"]);

    let mut patcher = TcpClient::connect(&addr);
    let load = patcher.request("{\"op\":\"load\",\"case_study\":true}");
    assert!(load.contains("\"ok\":true"), "load failed: {load}");
    let model = load
        .split("\"model\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .expect("model hash")
        .to_string();

    // Fire the patch and the shutdown as close together as two
    // connections allow; no sleep — the outcome is allowed to go
    // either way, and the assertion covers both.
    let mut ctrl = TcpClient::connect(&addr);
    patcher.send(&format!(
        "{{\"op\":\"patch\",\"model\":\"{model}\",\
         \"patch\":{{\"add_device\":{{\"kind\":\"rtu\",\"peers\":[14]}}}}}}"
    ));
    ctrl.send("{\"op\":\"shutdown\"}");

    let patched = patcher.recv();
    let completed = patched.contains("\"ok\":true") && patched.contains("\"patched_from\"");
    let rejected =
        patched.contains("\"error\":\"draining\"") && patched.contains("\"retry\":false");
    assert!(
        completed || rejected,
        "patch racing shutdown must complete or reject as draining, got: {patched}"
    );
    assert!(
        !patched.contains("\"error\":\"busy\""),
        "patch racing shutdown answered busy (retryable against a dying instance): {patched}"
    );

    let ack = ctrl.recv();
    assert!(ack.contains("\"draining\":true"), "no drain ack: {ack}");
    let status = child.wait().expect("wait scadad");
    assert!(status.success(), "scadad exited {status:?} after the race");
}

/// The same interleaving, pipelined on one connection so the ordering
/// is deterministic: the patch is queued *before* the shutdown and must
/// therefore complete its rekey; replies come back in order.
#[test]
fn tcp_patch_pipelined_before_shutdown_always_completes() {
    let (mut child, addr) = scadad_tcp(&["--shards", "2"]);

    let mut client = TcpClient::connect(&addr);
    let load = client.request("{\"op\":\"load\",\"case_study\":true}");
    let model = load
        .split("\"model\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next())
        .expect("model hash")
        .to_string();

    client.send(&format!(
        "{{\"op\":\"patch\",\"model\":\"{model}\",\
         \"patch\":{{\"add_device\":{{\"kind\":\"rtu\",\"peers\":[14]}}}},\"id\":\"p\"}}"
    ));
    client.send("{\"op\":\"shutdown\",\"id\":\"s\"}");

    let patched = client.recv();
    assert!(
        patched.contains("\"ok\":true")
            && patched.contains("\"patched_from\"")
            && patched.contains("\"id\":\"p\""),
        "pipelined patch before shutdown did not complete: {patched}"
    );
    let ack = client.recv();
    assert!(
        ack.contains("\"draining\":true") && ack.contains("\"id\":\"s\""),
        "no ordered drain ack: {ack}"
    );
    let status = child.wait().expect("wait scadad");
    assert!(status.success(), "scadad exited {status:?}");
}

/// The oversized-line resync regression on the thread-per-connection
/// transport (`serve_tcp`, the TCP transport on non-unix platforms),
/// driven in process: junk past `max_line` and a valid request in one
/// TCP segment must yield the oversize error and then the valid reply.
#[test]
fn serve_tcp_resyncs_after_oversized_write() {
    let engine = std::sync::Arc::new(Engine::new(ServeOptions {
        max_line: 256,
        ..ServeOptions::default()
    }));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = std::thread::spawn(move || serve_tcp(engine, listener));

    let mut client = TcpClient::connect(&addr);
    let mut payload = vec![b'x'; 4096];
    payload.push(b'\n');
    payload.extend_from_slice(b"{\"op\":\"stats\"}\n");
    client.writer.write_all(&payload).expect("write");
    client.writer.flush().expect("flush");

    let first = client.recv();
    assert!(
        first.contains("exceeds 256 bytes"),
        "oversized line not rejected: {first}"
    );
    let second = client.recv();
    assert!(
        second.contains("\"ok\":true") && second.contains("\"op\":\"stats\""),
        "request after oversized line corrupted: {second}"
    );

    let ack = client.request("{\"op\":\"shutdown\"}");
    assert!(ack.contains("\"draining\":true"), "{ack}");
    let served = server.join().expect("serve_tcp thread");
    assert!(served.is_ok(), "serve_tcp exited {served:?}");
}

/// Malformed numeric flags are usage errors: exit 2 with `error:` on
/// stderr, never a silent fallback to the default.
#[test]
fn scadad_exits_2_on_malformed_numeric_option() {
    for args in [
        &["--shards", "x"][..],
        &["--sessions", "many"][..],
        &["--cache"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_scadad"))
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("spawn scadad");
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error:"), "args {args:?}: {stderr}");
    }
}
