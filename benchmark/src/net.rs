//! The load generator's transport: non-blocking line connections
//! multiplexed by one thread with `poll(2)`, and an in-process
//! `scadad` event loop to drive.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use scada_analyzer::service::{serve_event_loop, LineHandler};

#[allow(unsafe_code)]
mod sys {
    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: std::ffi::c_ulong,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }

    /// Waits until one of `fds` is ready or `timeout` passes. `ppoll`
    /// rather than `poll` because the open-loop generator sleeps for
    /// tens of microseconds between arrivals.
    pub fn wait(fds: &mut [PollFd], timeout: std::time::Duration) -> std::io::Result<()> {
        let ts = Timespec {
            tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` pollfd records and `nfds` is its exact length, so
        // the kernel reads and writes only inside it; `ts` outlives the
        // call and a null signal mask leaves the mask unchanged.
        let rc = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as std::ffi::c_ulong,
                &ts,
                std::ptr::null(),
            )
        };
        if rc < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        Ok(())
    }
}

/// One non-blocking, newline-framed connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    eof: bool,
}

impl Conn {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            eof: false,
        })
    }

    /// Writes one request line, waiting for buffer space when needed.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        let mut rest = &bytes[..];
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // The server reads our pipeline only as fast as it
                    // answers: drain replies while waiting for space.
                    self.fill()?;
                    let mut fds = [sys::PollFd {
                        fd: self.stream.as_raw_fd(),
                        events: sys::POLLOUT,
                        revents: 0,
                    }];
                    sys::wait(&mut fds, Duration::from_millis(10))?;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads whatever is available without blocking. End of stream is
    /// an error only once every line received before it is consumed.
    pub fn fill(&mut self) -> io::Result<()> {
        if self.eof {
            return if self.buf.contains(&b'\n') {
                Ok(())
            } else {
                Err(io::ErrorKind::UnexpectedEof.into())
            };
        }
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    return self.fill();
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The next complete reply line already received, if any.
    pub fn next_line(&mut self) -> Option<String> {
        let pos = self.buf.iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&self.buf[..pos]).into_owned();
        self.buf.drain(..=pos);
        Some(line)
    }

    /// Blocks until one reply line arrives.
    pub fn recv(&mut self) -> io::Result<String> {
        loop {
            if let Some(line) = self.next_line() {
                return Ok(line);
            }
            wait_readable(std::slice::from_mut(self), Duration::from_millis(100))?;
            self.fill()?;
        }
    }

    /// Sends one line and waits for its reply.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}

/// Waits until any of `conns` has bytes to read or `timeout` passes.
pub fn wait_readable(conns: &mut [Conn], timeout: Duration) -> io::Result<()> {
    if conns.iter().any(|c| c.buf.contains(&b'\n')) {
        return Ok(());
    }
    let mut fds: Vec<sys::PollFd> = conns
        .iter()
        .map(|c| sys::PollFd {
            fd: c.stream.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        })
        .collect();
    sys::wait(&mut fds, timeout)
}

/// A request in flight on one connection.
#[derive(Debug, Clone)]
pub struct InFlight<T> {
    /// When the generator wrote it.
    pub sent: Instant,
    /// The caller's tag.
    pub tag: T,
}

/// A reply as the closed-loop generator hands it back.
pub type Reply<T> = (InFlight<T>, String, Instant);

/// Closed-loop generator over up to two connections. `step(conn, reply,
/// want_next)` sees every reply on `conn` in submission order (`None`
/// when the connection is first filled) and, when `want_next`, returns
/// the next `(line, tag)` to send there (`None` lets it go idle). Each
/// connection keeps `depth` requests in flight until `until`; the
/// replies still outstanding then are collected before returning.
///
/// Returns the generator's lag for every follow-up request: the time
/// from reading a reply to sending its successor, in microseconds.
pub fn closed_loop<T>(
    conns: &mut [Conn],
    depth: usize,
    until: Instant,
    mut step: impl FnMut(usize, Option<Reply<T>>, bool) -> Option<(String, T)>,
) -> io::Result<Vec<f64>> {
    let mut lags = Vec::new();
    let mut queues: Vec<VecDeque<InFlight<T>>> = conns.iter().map(|_| VecDeque::new()).collect();
    for (i, conn) in conns.iter_mut().enumerate() {
        for _ in 0..depth {
            if let Some((line, tag)) = step(i, None, true) {
                queues[i].push_back(InFlight {
                    sent: Instant::now(),
                    tag,
                });
                conn.send(&line)?;
            }
        }
    }
    while queues.iter().any(|q| !q.is_empty()) {
        wait_readable(conns, Duration::from_millis(50))?;
        for i in 0..conns.len() {
            if queues[i].is_empty() {
                continue;
            }
            conns[i].fill()?;
            while let Some(reply) = conns[i].next_line() {
                let now = Instant::now();
                let request = queues[i]
                    .pop_front()
                    .expect("a reply answers an outstanding request");
                if let Some((line, tag)) = step(i, Some((request, reply, now)), now < until) {
                    let sent = Instant::now();
                    lags.push((sent - now).as_secs_f64() * 1e6);
                    queues[i].push_back(InFlight { sent, tag });
                    conns[i].send(&line)?;
                }
            }
        }
    }
    Ok(lags)
}

/// An in-process `scadad --listen`: the event loop serving an engine on
/// a loopback port, stopped with a `shutdown` request.
pub struct Server {
    addr: SocketAddr,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Server {
    /// Starts `serve_event_loop(engine, listener, 0)` on a fresh port.
    pub fn start<H: LineHandler>(engine: Arc<H>) -> io::Result<Server> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let thread = std::thread::Builder::new()
            .name("bench-scadad".to_string())
            .spawn(move || serve_event_loop(engine, listener, 0))?;
        Ok(Server {
            addr,
            thread: Some(thread),
        })
    }

    /// The listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sends `shutdown` and waits for the event loop to drain and exit.
    pub fn stop(mut self) -> io::Result<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> io::Result<()> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let mut ctrl = Conn::connect(self.addr)?;
        let ack = ctrl.call("{\"op\":\"shutdown\"}")?;
        if !ack.contains("\"draining\":true") {
            return Err(io::Error::other(format!(
                "unexpected shutdown reply: {ack}"
            )));
        }
        thread
            .join()
            .map_err(|_| io::Error::other("event loop panicked"))?
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Errors surface through `stop`; a server dropped on an error
        // path must still not outlive the run.
        let _ = self.shutdown();
    }
}
