//! Integration tests for the sharded service front-end: byte
//! equivalence with the single-engine path, replica epoch invalidation
//! across `patch`, the draining protocol, pipelined request `id`
//! correlation through the event-loop transport, and the event loop's
//! inline cache hits (equivalent to serial `handle_line`, and deferred
//! while recovering or draining).

use std::sync::Arc;

use scada_analyzer::service::{parse_json, Engine, Json, ServeOptions, ShardedEngine};

fn field_str(line: &str, key: &str) -> Option<String> {
    let v = parse_json(line).ok()?;
    v.get(key).and_then(|j| match j {
        Json::Str(s) => Some(s.clone()),
        _ => None,
    })
}

/// Blanks the timing fields (`elapsed_us`, `uptime_us`) whose values
/// legitimately differ between two runs, leaving everything else byte
/// comparable.
fn strip_timing(line: &str) -> String {
    let mut out = String::new();
    let mut rest = line;
    loop {
        let hit = ["\"elapsed_us\":", "\"uptime_us\":"]
            .iter()
            .filter_map(|k| rest.find(k).map(|i| (i, k.len())))
            .min();
        match hit {
            Some((i, klen)) => {
                out.push_str(&rest[..i + klen]);
                out.push('T');
                let tail = &rest[i + klen..];
                let skip = tail
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(tail.len());
                rest = &tail[skip..];
            }
            None => {
                out.push_str(rest);
                break;
            }
        }
    }
    out
}

/// The request script both engines replay. `{model}` / `{patched}` are
/// substituted with the hashes learned from the `load` / `patch`
/// replies as the script runs.
const SCRIPT: &[&str] = &[
    "{\"op\":\"load\",\"case_study\":true}",
    "{\"op\":\"verify\",\"model\":\"{model}\",\"property\":\"obs\",\"spec\":{\"k1\":1,\"k2\":1}}",
    "{\"op\":\"verify\",\"model\":\"{model}\",\"property\":\"obs\",\"spec\":{\"k1\":1,\"k2\":1}}",
    "{\"op\":\"verify\",\"model\":\"{model}\",\"property\":\"secured\",\"spec\":{\"k1\":1,\"k2\":1},\"id\":\"tagged-7\"}",
    "{\"op\":\"maxres\",\"model\":\"{model}\",\"property\":\"obs\",\"axis\":\"k1\",\"r\":0}",
    "{\"op\":\"enumerate\",\"model\":\"{model}\",\"property\":\"obs\",\"spec\":{\"k1\":2,\"k2\":2},\"cap\":4}",
    "{\"op\":\"security_index\",\"model\":\"{model}\"}",
    "{\"op\":\"security_index\",\"model\":\"{model}\"}",
    // `health` must render identically too: state, session count, and
    // the zero-filled journal/recovery counters (no journal here).
    "{\"op\":\"health\"}",
    "{\"op\":\"verify\",\"model\":\"00000000000000000000000000000000\",\"property\":\"obs\",\"spec\":{\"k1\":1,\"k2\":1}}",
    "this is not json",
    "{\"op\":\"patch\",\"model\":\"{model}\",\"patch\":{\"add_device\":{\"kind\":\"rtu\",\"peers\":[14]}}}",
    "{\"op\":\"verify\",\"model\":\"{patched}\",\"property\":\"obs\",\"spec\":{\"k1\":1,\"k2\":1}}",
    // Upgrade synthesis runs on the owning shard's (patched) session.
    "{\"op\":\"repair\",\"model\":\"{patched}\",\"property\":\"secured\",\"spec\":{\"k1\":1,\"k2\":1}}",
    // Device patches cannot touch the electrical measurement set, so
    // the index distribution migrates to the patched hash: `cached` on
    // both the single and the sharded engine (cross-shard adopt).
    "{\"op\":\"security_index\",\"model\":\"{patched}\"}",
    "{\"op\":\"evict\",\"model\":\"{patched}\"}",
    "{\"op\":\"verify\",\"model\":\"{patched}\",\"property\":\"obs\",\"spec\":{\"k1\":1,\"k2\":1}}",
    "{\"op\":\"shutdown\"}",
];

/// Replays `script` through `handle` one line at a time, returning the
/// lines as sent (hashes substituted) and the replies (timing blanked).
fn replay(script: &[&str], handle: &dyn Fn(&str) -> String) -> (Vec<String>, Vec<String>) {
    let mut model = String::new();
    let mut patched = String::new();
    let mut lines = Vec::new();
    let mut replies = Vec::new();
    for template in script {
        let line = template
            .replace("{model}", &model)
            .replace("{patched}", &patched);
        let reply = handle(&line);
        if let Some(m) = field_str(&reply, "model") {
            if field_str(&reply, "op").as_deref() == Some("load") {
                model = m;
            } else if field_str(&reply, "patched_from").is_some() {
                patched = m;
            }
        }
        lines.push(line);
        replies.push(strip_timing(&reply));
    }
    (lines, replies)
}

fn run_script(handle: &dyn Fn(&str) -> String) -> Vec<String> {
    replay(SCRIPT, handle).1
}

/// The tentpole equivalence gate: a sharded engine must answer every
/// request with the same bytes as a standalone engine (timing fields
/// excluded) — cold, cached, delta, migrated, error, and drain replies
/// alike.
#[test]
fn sharded_replies_are_byte_equivalent_to_single_engine() {
    let single = Engine::new(ServeOptions::default());
    let baseline = run_script(&|line| single.handle_line(line).line);
    single.drain();

    for shards in [1usize, 3] {
        let sharded = ShardedEngine::new(ServeOptions::default(), shards);
        let replies = run_script(&|line| sharded.handle_line(line).line);
        sharded.drain();
        assert_eq!(
            replies, baseline,
            "replies diverged from the single-engine baseline at {shards} shard(s)"
        );
    }
}

/// A hot verdict climbs into the shared replica (primary hit →
/// publish → replica hit), and a `patch` retires the model's epoch:
/// the migrated entry must answer under the *new* hash from the
/// primary cache, while the replica copy under the old hash dies.
#[test]
fn migrated_entry_does_not_survive_on_replica_after_patch() {
    let sharded = ShardedEngine::new(ServeOptions::default(), 2);
    let load = sharded.handle_line("{\"op\":\"load\",\"case_study\":true}");
    let model = field_str(&load.line, "model").expect("model hash");
    let verify = format!(
        "{{\"op\":\"verify\",\"model\":\"{model}\",\"property\":\"obs\",\
         \"spec\":{{\"k1\":1,\"k2\":1}}}}"
    );

    // Cold solve, then a primary-cache hit that publishes to the
    // replica, then a replica hit.
    sharded.handle_line(&verify);
    sharded.handle_line(&verify);
    assert_eq!(sharded.replica_entries(), 1, "hot entry not replicated");
    sharded.handle_line(&verify);
    assert!(
        sharded.counter("service_replica_hits") >= 1,
        "third query did not answer from the replica"
    );

    let patched = sharded.handle_line(&format!(
        "{{\"op\":\"patch\",\"model\":\"{model}\",\
         \"patch\":{{\"add_device\":{{\"kind\":\"rtu\",\"peers\":[14]}}}}}}"
    ));
    assert!(patched.line.contains("\"ok\":true"), "{}", patched.line);
    let new_model = field_str(&patched.line, "model").expect("patched hash");

    // The epoch bump emptied the replica of the old model's entries…
    assert_eq!(
        sharded.replica_entries(),
        0,
        "replicated entry survived the patch epoch invalidation"
    );
    // …so a query under the retired hash is an unknown-model error (a
    // stale replica serve here would be a wrong `ok` answer)…
    let stale = sharded.handle_line(&verify);
    assert!(
        stale.line.contains("unknown model"),
        "retired hash still answered: {}",
        stale.line
    );
    // …while the migrated primary entry replays under the new hash.
    let fresh = sharded.handle_line(&verify.replace(model.as_str(), new_model.as_str()));
    assert_eq!(
        field_str(&fresh.line, "provenance").as_deref(),
        Some("cached"),
        "{}",
        fresh.line
    );
    sharded.drain();
}

/// Regression for the drain protocol bug: requests arriving after
/// `shutdown` must be rejected with the dedicated `draining` error and
/// `"retry":false` — not `busy`/`"retry":true`, which told clients to
/// retry against an instance that would never admit them.
#[test]
fn requests_after_shutdown_get_draining_not_busy() {
    for sharded in [false, true] {
        let handle: Box<dyn Fn(&str) -> String> = if sharded {
            let e = ShardedEngine::new(ServeOptions::default(), 2);
            Box::new(move |line: &str| e.handle_line(line).line)
        } else {
            let e = Engine::new(ServeOptions::default());
            Box::new(move |line: &str| e.handle_line(line).line)
        };
        let load = handle("{\"op\":\"load\",\"case_study\":true}");
        let model = field_str(&load, "model").expect("model hash");
        let ack = handle("{\"op\":\"shutdown\"}");
        assert!(ack.contains("\"draining\":true"), "{ack}");

        for request in [
            format!(
                "{{\"op\":\"verify\",\"model\":\"{model}\",\"property\":\"obs\",\
                 \"spec\":{{\"k1\":1,\"k2\":1}}}}"
            ),
            format!(
                "{{\"op\":\"patch\",\"model\":\"{model}\",\
                 \"patch\":{{\"add_device\":{{\"kind\":\"rtu\",\"peers\":[14]}}}}}}"
            ),
            "{\"op\":\"stats\"}".to_string(),
            "{\"op\":\"load\",\"case_study\":true}".to_string(),
        ] {
            let reply = handle(&request);
            assert!(
                reply.contains("\"error\":\"draining\"") && reply.contains("\"retry\":false"),
                "post-shutdown request (sharded={sharded}) not rejected as draining: {reply}"
            );
            assert!(
                !reply.contains("busy"),
                "post-shutdown request answered busy (sharded={sharded}): {reply}"
            );
        }

        // `health` is exempt from the drain gate — probes must keep
        // working while the service winds down, and must say so.
        let health = handle("{\"op\":\"health\"}");
        assert!(
            health.contains("\"ok\":true") && health.contains("\"state\":\"draining\""),
            "health gated or wrong state during drain (sharded={sharded}): {health}"
        );
    }

    // The event loop answers cache hits on its own thread; one queued
    // behind a running request when the drain starts must still get
    // `draining`, not its cached verdict.
    #[cfg(unix)]
    {
        eventloop::queued_hit_answers_draining(Engine::new(ServeOptions::default()));
        eventloop::queued_hit_answers_draining(ShardedEngine::new(ServeOptions::default(), 2));
    }
}

#[cfg(unix)]
mod eventloop {
    use super::*;
    use scada_analyzer::service::{JournalConfig, JournaledEngine, LineHandler, Response};
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::{mpsc, Mutex};

    const VERIFY: &str = "{\"op\":\"verify\",\"model\":\"{model}\",\"property\":\"obs\",\
                          \"spec\":{\"k1\":1,\"k2\":1}}";

    /// Serves `engine` on a loopback port with `executors` request
    /// threads; returns the server thread and its address.
    fn serve<H: LineHandler>(
        engine: Arc<H>,
        executors: usize,
    ) -> (std::thread::JoinHandle<()>, String) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || {
            scada_analyzer::service::serve_event_loop(engine, listener, executors)
                .expect("event loop");
        });
        (handle, addr)
    }

    /// One request/reply exchange on a connection.
    fn call(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
        writeln!(stream, "{line}").expect("write request");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        reply
    }

    fn counter(stats: &str, name: &str) -> Option<u64> {
        let key = format!("\"{name}\":");
        let tail = &stats[stats.find(&key)? + key.len()..];
        let end = tail.find(|c: char| !c.is_ascii_digit())?;
        tail[..end].parse().ok()
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("scada-sharded-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Cache misses and hits of every kind (primary, replica, a verdict
    /// migrated by a patch), a retired hash after the patch, and an
    /// evicted model, closed by `stats`.
    const PIPELINE: &[&str] = &[
        "{\"op\":\"load\",\"case_study\":true}",
        VERIFY,
        VERIFY,
        "{\"op\":\"patch\",\"model\":\"{model}\",\
         \"patch\":{\"set_profile\":{\"a\":2,\"b\":9,\"profiles\":[\"rsa 2048\"]}}}",
        VERIFY,
        "{\"op\":\"verify\",\"model\":\"{patched}\",\"property\":\"obs\",\
         \"spec\":{\"k1\":1,\"k2\":1},\"id\":\"after-patch\"}",
        "{\"op\":\"security_index\",\"model\":\"{patched}\"}",
        "{\"op\":\"security_index\",\"model\":\"{patched}\",\"id\":7}",
        "{\"op\":\"verify\",\"model\":\"{patched}\",\"property\":\"obs\",\
         \"spec\":{\"k1\":1,\"k2\":1}}",
        "{\"op\":\"evict\",\"model\":\"{patched}\"}",
        "{\"op\":\"verify\",\"model\":\"{patched}\",\"property\":\"obs\",\
         \"spec\":{\"k1\":1,\"k2\":1}}",
        "{\"op\":\"stats\"}",
    ];

    /// Runs [`PIPELINE`] through `handle_line` one line at a time on one
    /// engine, then as a single write through the event loop on a fresh
    /// engine of the same kind: the replies must be byte-identical
    /// (timing blanked) and the `stats` counters equal.
    fn assert_pipeline_matches_serial<H: LineHandler>(name: &str, make: &dyn Fn() -> H) {
        let serial = make();
        let (lines, expected) = replay(PIPELINE, &|line| serial.handle_line(line).line);
        serial.drain();
        assert!(
            expected[2].contains("\"provenance\":\"cached\""),
            "{name}: the script's repeat is not a hit: {}",
            expected[2]
        );

        let (server, addr) = serve(Arc::new(make()), 0);
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut burst = lines.join("\n");
        burst.push('\n');
        stream.write_all(burst.as_bytes()).expect("write pipeline");
        let mut replies = Vec::new();
        for _ in &lines {
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("pipelined reply");
            replies.push(strip_timing(reply.trim_end()));
        }
        let ack = call(&mut stream, &mut reader, "{\"op\":\"shutdown\"}");
        assert!(ack.contains("\"draining\":true"), "{ack}");
        server.join().expect("event loop thread");

        let (stats, replies) = replies.split_last().expect("stats reply");
        let (expected_stats, expected) = expected.split_last().expect("stats reply");
        assert_eq!(replies, expected, "{name}: pipelined replies diverged");
        for key in [
            "service_requests",
            "service_cache_hits",
            "service_cache_misses",
            "service_replica_hits",
        ] {
            assert_eq!(
                counter(stats, key),
                counter(expected_stats, key),
                "{name}: {key} diverged: {stats} vs {expected_stats}"
            );
        }
    }

    /// The event loop answers hits on its own thread; the bytes and
    /// counters must be those of serial `handle_line` calls on every
    /// engine kind.
    #[test]
    fn pipelined_hits_match_serial_handle_line() {
        assert_pipeline_matches_serial("engine", &|| Engine::new(ServeOptions::default()));
        assert_pipeline_matches_serial("3 shards", &|| {
            ShardedEngine::new(ServeOptions::default(), 3)
        });
        let dirs = std::cell::RefCell::new(Vec::new());
        assert_pipeline_matches_serial("journaled", &|| {
            let dir = temp_dir(&format!("journaled-{}", dirs.borrow().len()));
            dirs.borrow_mut().push(dir.clone());
            let inner = Arc::new(ShardedEngine::new(ServeOptions::default(), 1));
            JournaledEngine::open(inner, JournalConfig::new(dir)).expect("open journal")
        });
        for dir in dirs.into_inner() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// While a journaled engine recovers, every request answers
    /// `warming` — also one its inner engine could answer from cache.
    #[test]
    fn recovering_engine_answers_a_cached_query_warming() {
        let dir = temp_dir("warming");
        let load = "{\"op\":\"load\",\"case_study\":true}";
        // A journal holding one live model, so the next open recovers.
        let first = JournaledEngine::open(
            Arc::new(ShardedEngine::new(ServeOptions::default(), 1)),
            JournalConfig::new(&dir),
        )
        .expect("open journal");
        let model = field_str(&first.handle_line(load).line, "model").expect("model hash");
        first.drain();
        drop(first);

        // An inner engine whose cache already holds the verdict.
        let verify = VERIFY.replace("{model}", &model);
        let inner = Arc::new(ShardedEngine::new(ServeOptions::default(), 1));
        inner.handle_line(load);
        inner.handle_line(&verify);
        assert!(inner.try_cached(&verify).is_some(), "verdict not cached");
        let journaled = Arc::new(
            JournaledEngine::open(Arc::clone(&inner), JournalConfig::new(&dir))
                .expect("reopen journal"),
        );
        assert!(journaled.needs_recovery());
        assert!(journaled.try_cached(&verify).is_none());

        let (server, addr) = serve(Arc::clone(&journaled), 0);
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let warming = call(&mut stream, &mut reader, &verify);
        assert!(
            warming.contains("\"error\":\"warming\"") && warming.contains("\"retry\":true"),
            "cached query answered during recovery: {warming}"
        );
        journaled.recover().expect("recover");
        let cached = call(&mut stream, &mut reader, &verify);
        assert_eq!(
            field_str(&cached, "provenance").as_deref(),
            Some("cached"),
            "{cached}"
        );
        let ack = call(&mut stream, &mut reader, "{\"op\":\"shutdown\"}");
        assert!(ack.contains("\"draining\":true"), "{ack}");
        server.join().expect("event loop thread");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Holds the request tagged `"id":"gate"` at its executor until the
    /// test opens the gate, so requests pipelined behind it stay queued
    /// while a drain starts.
    struct Gated<H> {
        inner: H,
        entered: Mutex<mpsc::Sender<()>>,
        gate: Mutex<mpsc::Receiver<()>>,
    }

    impl<H: LineHandler> LineHandler for Gated<H> {
        fn handle_line(&self, line: &str) -> Response {
            if line.contains("\"id\":\"gate\"") {
                let _ = self.entered.lock().unwrap().send(());
                let _ = self.gate.lock().unwrap().recv();
            }
            self.inner.handle_line(line)
        }

        fn try_cached(&self, line: &str) -> Option<Response> {
            self.inner.try_cached(line)
        }

        fn max_line(&self) -> usize {
            self.inner.max_line()
        }

        fn is_draining(&self) -> bool {
            self.inner.is_draining()
        }

        fn begin_drain(&self) {
            self.inner.begin_drain()
        }

        fn drain(&self) {
            self.inner.drain()
        }
    }

    /// Primes a cached verdict, queues a repeat of it behind a running
    /// request, drains the service from a second connection, then lets
    /// the running request finish: the repeat must answer `draining`
    /// with `"retry":false`, as `handle_line` would.
    pub(super) fn queued_hit_answers_draining<H: LineHandler>(engine: H) {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (gate_tx, gate_rx) = mpsc::channel();
        let engine = Arc::new(Gated {
            inner: engine,
            entered: Mutex::new(entered_tx),
            gate: Mutex::new(gate_rx),
        });
        // Two executors: the gated request holds one, `shutdown` runs
        // on the other.
        let (server, addr) = serve(engine, 2);
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let load = call(
            &mut stream,
            &mut reader,
            "{\"op\":\"load\",\"case_study\":true}",
        );
        let verify = VERIFY.replace("{model}", &field_str(&load, "model").expect("model hash"));
        call(&mut stream, &mut reader, &verify);
        let hit = call(&mut stream, &mut reader, &verify);
        assert_eq!(
            field_str(&hit, "provenance").as_deref(),
            Some("cached"),
            "{hit}"
        );

        // One write, so the loop frames both lines before the drain
        // stops its reads.
        let burst = format!("{{\"op\":\"stats\",\"id\":\"gate\"}}\n{verify}\n");
        stream.write_all(burst.as_bytes()).expect("write");
        entered_rx.recv().expect("gated request started");
        let mut other = TcpStream::connect(&addr).expect("connect");
        let mut other_reader = BufReader::new(other.try_clone().expect("clone"));
        let ack = call(&mut other, &mut other_reader, "{\"op\":\"shutdown\"}");
        assert!(ack.contains("\"draining\":true"), "{ack}");
        gate_tx.send(()).expect("open the gate");

        let mut gated = String::new();
        reader.read_line(&mut gated).expect("gated reply");
        assert!(gated.contains("\"id\":\"gate\""), "{gated}");
        let mut queued = String::new();
        reader.read_line(&mut queued).expect("queued reply");
        assert!(
            queued.contains("\"error\":\"draining\"") && queued.contains("\"retry\":false"),
            "a hit queued across the drain was not rejected as draining: {queued}"
        );
        server.join().expect("event loop thread");
    }

    fn start(options: ServeOptions, shards: usize) -> (std::thread::JoinHandle<()>, String) {
        serve(Arc::new(ShardedEngine::new(options, shards)), 0)
    }

    /// Pipelining contract: many tagged requests written in one burst
    /// come back as exactly one reply per request, in submission order,
    /// each echoing its `id`.
    #[test]
    fn pipelined_ids_echo_in_submission_order() {
        let (server, addr) = start(ServeOptions::default(), 2);
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.set_nodelay(true).ok();

        let mut batch = String::from("{\"op\":\"load\",\"case_study\":true,\"id\":\"ld\"}\n");
        for i in 0..8 {
            batch.push_str(&format!("{{\"op\":\"stats\",\"id\":{i}}}\n"));
        }
        stream.write_all(batch.as_bytes()).expect("write batch");

        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("load reply");
        assert!(
            line.contains("\"op\":\"load\"") && line.contains("\"id\":\"ld\""),
            "first reply out of order or untagged: {line}"
        );
        for i in 0..8 {
            line.clear();
            reader.read_line(&mut line).expect("stats reply");
            assert!(
                line.contains(&format!("\"id\":{i}")),
                "reply {i} out of order: {line}"
            );
        }

        writeln!(stream, "{{\"op\":\"shutdown\"}}").expect("shutdown");
        line.clear();
        reader.read_line(&mut line).expect("shutdown ack");
        assert!(line.contains("\"draining\":true"), "{line}");
        server.join().expect("event loop thread");
    }

    /// Regression for line-framing resync: an oversized line and a
    /// valid request in the *same* write must produce the oversize
    /// error followed by the valid reply — the discard path must not
    /// swallow bytes of the pipelined request after the newline.
    #[test]
    fn oversized_line_then_pipelined_request_in_one_write() {
        let options = ServeOptions {
            max_line: 256,
            ..ServeOptions::default()
        };
        let (server, addr) = start(options, 1);
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.set_nodelay(true).ok();

        let mut payload = vec![b'{'; 1];
        payload.extend(std::iter::repeat_n(b'x', 4096));
        payload.push(b'\n');
        payload.extend_from_slice(b"{\"op\":\"stats\",\"id\":\"after\"}\n");
        stream.write_all(&payload).expect("write");

        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("oversize reply");
        assert!(
            line.contains("exceeds 256 bytes"),
            "oversized line not rejected first: {line}"
        );
        line.clear();
        reader.read_line(&mut line).expect("stats reply");
        assert!(
            line.contains("\"ok\":true") && line.contains("\"id\":\"after\""),
            "pipelined request after oversized line was corrupted: {line}"
        );

        writeln!(stream, "{{\"op\":\"shutdown\"}}").expect("shutdown");
        line.clear();
        reader.read_line(&mut line).expect("ack");
        assert!(line.contains("\"draining\":true"), "{line}");
        server.join().expect("event loop thread");
    }

    /// After the shutdown acknowledgement the connection closes; any
    /// requests pipelined behind `shutdown` on the same connection are
    /// dropped unanswered (mirroring the thread-per-connection
    /// transport), and the loop exits cleanly.
    #[test]
    fn shutdown_is_the_last_reply_on_its_connection() {
        let (server, addr) = start(ServeOptions::default(), 1);
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .write_all(b"{\"op\":\"stats\",\"id\":1}\n{\"op\":\"shutdown\",\"id\":2}\n{\"op\":\"stats\",\"id\":3}\n")
            .expect("write");
        let mut reader = BufReader::new(stream);
        let mut all = String::new();
        reader.read_to_string(&mut all).expect("read to close");
        let lines: Vec<&str> = all.lines().collect();
        assert_eq!(lines.len(), 2, "expected exactly two replies: {all}");
        assert!(lines[0].contains("\"id\":1"), "{all}");
        assert!(
            lines[1].contains("\"draining\":true") && lines[1].contains("\"id\":2"),
            "{all}"
        );
        server.join().expect("event loop thread");
    }
}
