//! A readiness-driven TCP front-end: many connections, few threads.
//!
//! The thread-per-connection transport ([`serve_tcp`]) spends a thread
//! per client to do almost nothing — block on a read, hand one line to
//! the engine, write one line back. On unix this module replaces it with
//! a single event-loop thread over non-blocking sockets (the private
//! `poll` module is the readiness primitive) plus a small executor pool
//! that runs the actual requests, so a thousand idle connections cost a thousand
//! sockets, not a thousand stacks.
//!
//! [`serve_tcp`]: super::server::serve_tcp
//!
//! # Pipelining
//!
//! A client may write many request lines without waiting for replies.
//! The loop frames them (`LineScanner`), queues up to
//! [`MAX_PIPELINE`] per connection (beyond that it simply stops reading
//! — TCP backpressure does the rest), and executes them **serially per
//! connection** — one request in flight at a time, exactly the
//! thread-per-connection semantics — writing replies strictly in
//! submission order. Clients that tag requests with `"id"` get the tag
//! echoed, so correlation survives even through proxies that merge
//! streams. Parallelism comes from *between* connections: each executor
//! thread runs a different connection's request.
//!
//! # Inline cache hits
//!
//! A verdict-cache hit costs a few microseconds; the hand-off to an
//! executor and back costs ten times that. So while nothing of a
//! connection is running, the loop thread itself tries its queued
//! requests in order against the engine's caches
//! ([`LineHandler::try_cached`]), answers the hits in place, and sends
//! only the first miss to the executors; later requests wait behind it
//! as before. A pipeline of hits costs one loop pass and one `write`.
//! The order of answers on a connection is the order of a serial run,
//! and a hit's reply bytes and counters are those `handle_line` would
//! produce: both go through the engine's one hit path.
//!
//! # Drain
//!
//! When `shutdown` is requested (on any connection, or out-of-band via
//! [`LineHandler::is_draining`]): the listener closes, reading stops,
//! requests already queued are still answered (the engine rejects them
//! with `draining`, `"retry":false`), and every connection closes once
//! its replies are flushed. The loop then joins the executors and
//! drains the engine.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use super::poll::{Event, Interest, Poller, Token};
use super::protocol::error_line;
use super::server::{LineHandler, Response};

/// Per-connection cap on queued-but-unanswered requests; past it the
/// loop stops reading the connection until replies drain.
pub const MAX_PIPELINE: usize = 128;

const LISTENER: Token = 0;
const WAKE: Token = 1;
const FIRST_CONN: Token = 2;

const READ_CHUNK: usize = 16 * 1024;

/// Replies stop moving from their slots into a connection's output
/// buffer once it holds this many unwritten bytes.
const OUTBUF_HIGH: usize = 64 * 1024;

/// One framed unit out of the scanner.
#[derive(Debug, PartialEq, Eq)]
enum Scanned {
    /// A complete line (newline stripped).
    Line(String),
    /// A line exceeded the byte bound and was discarded.
    Oversized,
}

/// Incremental newline framer with a hard per-line byte bound, fed by
/// non-blocking reads.
///
/// Discard mode consumes *only up to and including* the terminating
/// newline of the oversized line: bytes of a following pipelined
/// request in the same chunk are never swallowed, and exactly one
/// `Oversized` is emitted per oversized line.
struct LineScanner {
    buf: Vec<u8>,
    discarding: bool,
    cap: usize,
}

impl LineScanner {
    fn new(cap: usize) -> LineScanner {
        LineScanner {
            buf: Vec::new(),
            discarding: false,
            cap,
        }
    }

    /// Feeds one chunk of bytes, appending framed results to `out`.
    fn feed(&mut self, mut bytes: &[u8], out: &mut Vec<Scanned>) {
        while !bytes.is_empty() {
            match bytes.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    let head = &bytes[..pos];
                    bytes = &bytes[pos + 1..];
                    if self.discarding {
                        // The newline ends the oversized line; the
                        // remainder of `bytes` belongs to the next
                        // request and is re-scanned normally.
                        self.discarding = false;
                        out.push(Scanned::Oversized);
                    } else if self.buf.len() + head.len() > self.cap {
                        self.buf.clear();
                        out.push(Scanned::Oversized);
                    } else {
                        self.buf.extend_from_slice(head);
                        out.push(Scanned::Line(self.take_line()));
                    }
                }
                None => {
                    if self.discarding || self.buf.len() + bytes.len() > self.cap {
                        self.discarding = true;
                        self.buf.clear();
                    } else {
                        self.buf.extend_from_slice(bytes);
                    }
                    bytes = &[];
                }
            }
        }
    }

    /// Flushes an unterminated trailing line at EOF, if any.
    fn finish(&mut self) -> Option<Scanned> {
        if self.discarding {
            self.discarding = false;
            self.buf.clear();
            return Some(Scanned::Oversized);
        }
        if self.buf.is_empty() {
            return None;
        }
        Some(Scanned::Line(self.take_line()))
    }

    fn take_line(&mut self) -> String {
        if self.buf.last() == Some(&b'\r') {
            self.buf.pop();
        }
        let line = String::from_utf8_lossy(&self.buf).into_owned();
        self.buf.clear();
        line
    }
}

/// A queued request awaiting its in-order reply slot.
enum Pending {
    /// Framed, not yet handed to an executor.
    Queued(String),
    /// At an executor right now.
    Running,
    /// Answered; the reply waits for every earlier slot to flush first.
    Done(Response),
}

struct Conn {
    stream: TcpStream,
    scanner: LineScanner,
    /// In-order reply slots, front = oldest.
    pending: VecDeque<(u64, Pending)>,
    next_seq: u64,
    outbuf: Vec<u8>,
    /// What the poller currently watches for this socket; `None` means
    /// deregistered (pipeline full with nothing to write — completions
    /// arrive over the wake channel, so no readiness is needed).
    interest: Option<Interest>,
    /// Peer closed its write side (or drain stops reads): no more
    /// framing, but queued replies still go out.
    read_closed: bool,
    /// A `shutdown` acknowledgement was flushed into `outbuf`; close as
    /// soon as it drains.
    closing: bool,
}

impl Conn {
    fn has_running(&self) -> bool {
        self.pending
            .iter()
            .any(|(_, p)| matches!(p, Pending::Running))
    }

    fn idle(&self) -> bool {
        self.pending.is_empty() && self.outbuf.is_empty()
    }
}

struct Job {
    conn: Token,
    seq: u64,
    line: String,
}

struct Completion {
    conn: Token,
    seq: u64,
    response: Response,
}

fn oversized_response(cap: usize) -> Response {
    Response::reply(error_line(&format!("request line exceeds {cap} bytes")))
}

/// Serves the engine over a TCP listener with a readiness event loop
/// and `executors` request threads (0 means one per core). Runs until a
/// `shutdown` request, then flushes, joins the executors, and drains
/// the engine. Replies on a connection are written strictly in request
/// order; see the module docs for the pipelining and drain contracts.
pub fn serve_event_loop<H: LineHandler>(
    engine: Arc<H>,
    listener: TcpListener,
    executors: usize,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;

    // Test hook: shrink accepted sockets' kernel send buffers so the
    // partial-write path (reply larger than the buffer) is reachable
    // without megabyte replies. Parsed once; ignored when unset.
    let sndbuf: Option<i32> = std::env::var("SCADAD_EVENTLOOP_SNDBUF")
        .ok()
        .and_then(|v| v.parse().ok());

    // Self-wake channel: executors write one byte per completion so the
    // poller returns immediately instead of at the next timeout.
    let wake_listener = TcpListener::bind("127.0.0.1:0")?;
    let wake_tx = TcpStream::connect(wake_listener.local_addr()?)?;
    wake_tx.set_nodelay(true)?;
    let (wake_rx, _) = wake_listener.accept()?;
    wake_rx.set_nonblocking(true)?;
    drop(wake_listener);

    let mut poller = Poller::new()?;
    poller.register(&listener, LISTENER, Interest::Read)?;
    poller.register(&wake_rx, WAKE, Interest::Read)?;

    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let (done_tx, done_rx) = mpsc::channel::<Completion>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let wake_tx = Arc::new(Mutex::new(wake_tx));

    let executors = crate::pool::effective_jobs(executors);
    let mut workers = Vec::with_capacity(executors);
    for i in 0..executors {
        let engine = Arc::clone(&engine);
        let job_rx = Arc::clone(&job_rx);
        let done_tx = done_tx.clone();
        let wake_tx = Arc::clone(&wake_tx);
        let handle = std::thread::Builder::new()
            .name(format!("scadad-exec-{i}"))
            .spawn(move || loop {
                let job = {
                    let guard = job_rx.lock().unwrap_or_else(|e| e.into_inner());
                    guard.recv()
                };
                let Ok(job) = job else { break };
                let response = super::server::handle_caught(&*engine, &job.line);
                let _ = done_tx.send(Completion {
                    conn: job.conn,
                    seq: job.seq,
                    response,
                });
                let mut tx = wake_tx.lock().unwrap_or_else(|e| e.into_inner());
                let _ = tx.write_all(&[1]);
            })
            .expect("spawn executor thread");
        workers.push(handle);
    }
    drop(done_tx);

    let mut conns: HashMap<Token, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN;
    let mut events: Vec<Event> = Vec::new();
    let mut scanned: Vec<Scanned> = Vec::new();
    let mut wake_rx = wake_rx;
    let mut listener = Some(listener);
    let mut draining_seen = false;

    loop {
        // A signal (SIGTERM/SIGINT) requests the same drain a
        // `shutdown` op would; the poller timeout bounds the latency.
        if !draining_seen && super::signal::drain_requested() {
            engine.begin_drain();
        }
        // Drain transition: stop accepting and stop reading; everything
        // already queued still gets its (draining) answer.
        if !draining_seen && engine.is_draining() {
            draining_seen = true;
            if let Some(l) = listener.take() {
                let _ = poller.deregister(&l, LISTENER);
            }
            for conn in conns.values_mut() {
                conn.read_closed = true;
            }
        }
        if draining_seen {
            conns.retain(|&token, conn| {
                if conn.idle() && !conn.has_running() {
                    let _ = poller.deregister(&conn.stream, token);
                    false
                } else {
                    true
                }
            });
            if conns.is_empty() {
                break;
            }
        }

        // The timeout bounds how stale a drain flag set out-of-band
        // (another transport, a signal handler) can go unnoticed.
        poller.wait(&mut events, 100)?;
        let round: Vec<Event> = std::mem::take(&mut events);
        for event in round {
            match event.token {
                LISTENER => {
                    let Some(l) = listener.as_ref() else { continue };
                    loop {
                        match l.accept() {
                            Ok((stream, _)) => {
                                if stream.set_nonblocking(true).is_err() {
                                    continue;
                                }
                                // A reply must not wait for the ACK of
                                // the one before it (Nagle).
                                let _ = stream.set_nodelay(true);
                                if let Some(bytes) = sndbuf {
                                    let _ = super::poll::set_send_buffer(&stream, bytes);
                                }
                                let token = next_token;
                                next_token += 1;
                                if poller.register(&stream, token, Interest::Read).is_err() {
                                    continue;
                                }
                                conns.insert(
                                    token,
                                    Conn {
                                        stream,
                                        scanner: LineScanner::new(engine.max_line()),
                                        pending: VecDeque::new(),
                                        next_seq: 0,
                                        outbuf: Vec::new(),
                                        interest: Some(Interest::Read),
                                        read_closed: false,
                                        closing: false,
                                    },
                                );
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                            Err(_) => break,
                        }
                    }
                }
                WAKE => {
                    let mut buf = [0u8; 64];
                    while let Ok(n) = wake_rx.read(&mut buf) {
                        if n == 0 {
                            break;
                        }
                    }
                }
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    if event.readable && !conn.read_closed {
                        read_conn(conn, engine.max_line(), &mut scanned);
                    }
                    if event.writable && flush_conn(conn).is_err() {
                        close_conn(&mut conns, &mut poller, token);
                    }
                }
            }
        }

        // Executor completions → reply slots.
        while let Ok(done) = done_rx.try_recv() {
            let Some(conn) = conns.get_mut(&done.conn) else {
                continue; // connection died while its request ran
            };
            let shutdown = done.response.shutdown;
            if let Some(slot) = conn
                .pending
                .iter_mut()
                .find(|(seq, _)| *seq == done.seq)
                .map(|(_, p)| p)
            {
                *slot = Pending::Done(done.response);
            }
            if shutdown {
                // Mirror the thread-per-connection transport: the
                // shutdown acknowledgement is this connection's last
                // reply; anything the client pipelined behind it is
                // dropped unanswered.
                while conn.pending.back().is_some_and(|(seq, _)| *seq != done.seq) {
                    conn.pending.pop_back();
                }
                conn.read_closed = true;
                conn.closing = true;
            }
        }

        // Dispatch, flush, and interest upkeep for every connection.
        let tokens: Vec<Token> = conns.keys().copied().collect();
        for token in tokens {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            dispatch_conn(conn, token, &*engine, &job_tx);
            let flush_failed = flush_conn(conn).is_err();
            let finished = !flush_failed
                && conn.outbuf.is_empty()
                && (conn.closing || (conn.read_closed && conn.pending.is_empty()));
            if flush_failed || finished {
                close_conn(&mut conns, &mut poller, token);
                continue;
            }
            // Arm exactly the readiness we can act on. Reading while
            // the pipeline is full (or after EOF) would spin on a
            // level-triggered poller; write interest with an empty
            // buffer likewise fires on every tick. With neither side
            // wanted the socket leaves the poller entirely —
            // completions arrive over the wake channel, and the next
            // upkeep pass re-arms it.
            let want_read = !conn.read_closed && conn.pending.len() < MAX_PIPELINE;
            let want_write = !conn.outbuf.is_empty();
            let wanted = match (want_read, want_write) {
                (true, true) => Some(Interest::ReadWrite),
                (true, false) => Some(Interest::Read),
                (false, true) => Some(Interest::Write),
                (false, false) => None,
            };
            if wanted != conn.interest {
                let ok = match (conn.interest, wanted) {
                    (Some(_), Some(interest)) => {
                        poller.reregister(&conn.stream, token, interest).is_ok()
                    }
                    (None, Some(interest)) => {
                        poller.register(&conn.stream, token, interest).is_ok()
                    }
                    (Some(_), None) => {
                        let _ = poller.deregister(&conn.stream, token);
                        true
                    }
                    (None, None) => true,
                };
                if ok {
                    conn.interest = wanted;
                } else {
                    close_conn(&mut conns, &mut poller, token);
                }
            }
        }
    }

    drop(job_tx);
    for handle in workers {
        let _ = handle.join();
    }
    engine.drain();
    Ok(())
}

/// Reads everything currently available (up to the pipeline cap),
/// framing lines into reply slots.
fn read_conn(conn: &mut Conn, max_line: usize, scanned: &mut Vec<Scanned>) {
    let mut chunk = [0u8; READ_CHUNK];
    while conn.pending.len() < MAX_PIPELINE {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                if let Some(last) = conn.scanner.finish() {
                    scanned.push(last);
                }
                conn.read_closed = true;
                break;
            }
            Ok(n) => conn.scanner.feed(&chunk[..n], scanned),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.read_closed = true;
                break;
            }
        }
    }
    for item in scanned.drain(..) {
        let seq = conn.next_seq;
        conn.next_seq += 1;
        match item {
            Scanned::Oversized => {
                // Answered inline — no engine round-trip — but through
                // the same in-order slot queue as everything else.
                conn.pending
                    .push_back((seq, Pending::Done(oversized_response(max_line))));
            }
            Scanned::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                conn.pending.push_back((seq, Pending::Queued(line)));
            }
        }
    }
}

/// Answers the connection's queued requests in order while nothing of
/// it is running: cache hits in place on this thread, then the first
/// miss goes to the executors and every later request waits behind it
/// — at most one in flight per connection, preserving serial
/// per-connection semantics.
fn dispatch_conn<H: LineHandler>(
    conn: &mut Conn,
    token: Token,
    engine: &H,
    job_tx: &mpsc::Sender<Job>,
) {
    if conn.has_running() {
        return;
    }
    for (seq, slot) in conn.pending.iter_mut() {
        let Pending::Queued(line) = slot else {
            continue;
        };
        if let Some(response) = engine.try_cached(line) {
            *slot = Pending::Done(response);
            continue;
        }
        let Pending::Queued(line) = std::mem::replace(slot, Pending::Running) else {
            unreachable!("matched Queued above");
        };
        let _ = job_tx.send(Job {
            conn: token,
            seq: *seq,
            line,
        });
        return;
    }
}

/// Moves completed front slots into the output buffer and writes as
/// much as the socket accepts. Slots move only while the buffer is
/// under [`OUTBUF_HIGH`], so a client that pipelines without reading
/// fills its reply slots, and the pipeline cap then stops its reads.
fn flush_conn(conn: &mut Conn) -> io::Result<()> {
    loop {
        while conn.outbuf.len() < OUTBUF_HIGH
            && matches!(conn.pending.front(), Some((_, Pending::Done(_))))
        {
            let Some((_, Pending::Done(response))) = conn.pending.pop_front() else {
                unreachable!("matched Done above");
            };
            conn.outbuf.extend_from_slice(response.line.as_bytes());
            conn.outbuf.push(b'\n');
            if response.shutdown {
                conn.closing = true;
            }
        }
        if conn.outbuf.is_empty() {
            return Ok(());
        }
        match conn.stream.write(&conn.outbuf) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                conn.outbuf.drain(..n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn close_conn(conns: &mut HashMap<Token, Conn>, poller: &mut Poller, token: Token) {
    if let Some(conn) = conns.remove(&token) {
        let _ = poller.deregister(&conn.stream, token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_all(scanner: &mut LineScanner, bytes: &[u8]) -> Vec<Scanned> {
        let mut out = Vec::new();
        scanner.feed(bytes, &mut out);
        out
    }

    #[test]
    fn scanner_frames_pipelined_lines() {
        let mut scanner = LineScanner::new(64);
        let out = feed_all(&mut scanner, b"one\ntwo\r\nthree");
        assert_eq!(
            out,
            vec![
                Scanned::Line("one".to_string()),
                Scanned::Line("two".to_string())
            ]
        );
        assert_eq!(scanner.finish(), Some(Scanned::Line("three".to_string())));
    }

    #[test]
    fn oversized_line_does_not_eat_the_next_request() {
        let mut scanner = LineScanner::new(8);
        // One write: an oversized line immediately followed by a valid
        // pipelined request. The valid request must survive intact.
        let mut payload = vec![b'x'; 100];
        payload.push(b'\n');
        payload.extend_from_slice(b"ok\n");
        let out = feed_all(&mut scanner, &payload);
        assert_eq!(
            out,
            vec![Scanned::Oversized, Scanned::Line("ok".to_string())]
        );
    }

    #[test]
    fn oversized_line_split_across_chunks_emits_once() {
        let mut scanner = LineScanner::new(4);
        let mut out = Vec::new();
        scanner.feed(b"aaaaaaaa", &mut out);
        scanner.feed(b"bbbb", &mut out);
        assert!(out.is_empty(), "no newline yet, nothing to emit");
        scanner.feed(b"b\nnext\n", &mut out);
        assert_eq!(
            out,
            vec![Scanned::Oversized, Scanned::Line("next".to_string())]
        );
    }

    #[test]
    fn exact_cap_line_is_served() {
        let mut scanner = LineScanner::new(4);
        let out = feed_all(&mut scanner, b"abcd\nabcde\nok\n");
        assert_eq!(
            out,
            vec![
                Scanned::Line("abcd".to_string()),
                Scanned::Oversized,
                Scanned::Line("ok".to_string())
            ]
        );
    }
}
