//! Regression tests for the event loop's write side under TCP
//! backpressure (their own test binary: they set a process-global env
//! hook the other integration suites must not see).
//!
//! The failure mode being pinned: a reply larger than the socket's
//! free send-buffer space used to leave the loop with read interest
//! armed while the pipeline was full and with nothing useful to do on
//! a level-triggered poller — a busy spin at best, and any mishandling
//! of the partial `write` return corrupts the byte stream. The test
//! shrinks the kernel send buffer to its floor (`SCADAD_EVENTLOOP_
//! SNDBUF=1` — the kernel clamps upward, but to ~4 KiB instead of the
//! 200+ KiB default), pipelines more requests than [`MAX_PIPELINE`]
//! while deliberately *not* reading, and only then drains: every reply
//! must come back intact, in submission order, exactly once.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use scada_analyzer::service::eventloop::MAX_PIPELINE;
use scada_analyzer::service::{ServeOptions, ShardedEngine};

#[test]
fn slow_reader_with_tiny_send_buffer_gets_every_reply_in_order() {
    // Set before the server thread starts; the loop samples it once.
    std::env::set_var("SCADAD_EVENTLOOP_SNDBUF", "1");

    let engine = Arc::new(ShardedEngine::new(ServeOptions::default(), 1));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || {
        scada_analyzer::service::serve_event_loop(engine, listener, 0).expect("event loop");
    });

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).ok();

    // More requests than the pipeline admits, so the loop must also
    // park the connection (stop reading) and resume it as replies
    // drain; `stats` replies are a few hundred bytes each, so the
    // total far exceeds the clamped send buffer.
    let total = MAX_PIPELINE + 72;
    let mut batch = String::from("{\"op\":\"load\",\"case_study\":true,\"id\":\"ld\"}\n");
    for i in 0..total {
        batch.push_str(&format!("{{\"op\":\"stats\",\"id\":{i}}}\n"));
    }
    stream.write_all(batch.as_bytes()).expect("write burst");

    // Let the burst pile up server-side: replies must buffer against
    // the full socket, not be truncated or busy-spin the loop away.
    std::thread::sleep(Duration::from_millis(300));

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("load reply");
    assert!(
        line.contains("\"op\":\"load\"") && line.contains("\"id\":\"ld\""),
        "first reply wrong: {line}"
    );
    for i in 0..total {
        line.clear();
        reader.read_line(&mut line).expect("stats reply");
        assert!(
            line.contains("\"op\":\"stats\"") && line.ends_with("}\n"),
            "reply {i} corrupted: {line:?}"
        );
        assert!(
            line.contains(&format!("\"id\":{i}")),
            "reply {i} out of order or duplicated: {line}"
        );
    }

    writeln!(stream, "{{\"op\":\"shutdown\"}}").expect("shutdown");
    line.clear();
    reader.read_line(&mut line).expect("ack");
    assert!(line.contains("\"draining\":true"), "{line}");
    server.join().expect("event loop thread");
}

/// A client that pipelines cache hits and never reads its replies must
/// not make the server buffer replies without bound: once the
/// connection's output buffer is full its reply slots fill, the loop
/// stops reading, and the client's writes block on the TCP window.
#[test]
fn client_that_never_reads_is_stopped_by_tcp_backpressure() {
    std::env::set_var("SCADAD_EVENTLOOP_SNDBUF", "1");

    let engine = Arc::new(ShardedEngine::new(ServeOptions::default(), 1));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || {
        scada_analyzer::service::serve_event_loop(engine, listener, 0).expect("event loop");
    });

    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    writeln!(stream, "{{\"op\":\"load\",\"case_study\":true}}").expect("load");
    reader.read_line(&mut line).expect("load reply");
    let key = "\"model\":\"";
    let at = line.find(key).expect("model hash") + key.len();
    let verify = format!(
        "{{\"op\":\"verify\",\"model\":\"{}\",\"property\":\"obs\",\"spec\":{{\"k1\":1,\"k2\":1}}}}",
        &line[at..at + 32]
    );
    writeln!(stream, "{verify}").expect("verify");
    line.clear();
    reader.read_line(&mut line).expect("verify reply");

    // Every request from here on is a hit the loop answers itself.
    let burst = format!("{verify}\n").repeat(512);
    stream.set_nonblocking(true).expect("nonblocking");
    let limit: usize = 64 << 20;
    let mut written = 0;
    let blocked = loop {
        match stream.write(burst.as_bytes()) {
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // The window may reopen while the loop catches up;
                // blocked means still blocked a moment later.
                std::thread::sleep(Duration::from_millis(200));
                match stream.write(burst.as_bytes()) {
                    Ok(n) => written += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break true,
                    Err(e) => panic!("write: {e}"),
                }
            }
            Err(e) => panic!("write: {e}"),
        }
        if written > limit {
            break false;
        }
    };
    assert!(
        blocked,
        "the server kept reading {written} bytes from a client that never reads"
    );
    drop(reader);
    drop(stream);

    let mut stream = TcpStream::connect(&addr).expect("connect");
    writeln!(stream, "{{\"op\":\"shutdown\"}}").expect("shutdown");
    let mut reader = BufReader::new(stream);
    line.clear();
    reader.read_line(&mut line).expect("ack");
    assert!(line.contains("\"draining\":true"), "{line}");
    server.join().expect("event loop thread");
}
