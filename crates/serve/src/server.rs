//! The `dbtf serve` TCP server: one accept loop, one thread per
//! connection up to [`MAX_CONNECTIONS`], line-delimited JSON in and out.
//!
//! Connection discipline follows the `crates/cluster/net` listener:
//! `TCP_NODELAY` on every socket, hard input limits enforced *while*
//! reading (an oversized line is rejected after `max_line_bytes` bytes,
//! not buffered to completion), and every failure mode mapped to a typed
//! reply — a malformed line gets `{"ok":false,"code":"parse",...}`, not
//! a dropped connection. A connection beyond the cap gets one `busy`
//! reply and is closed without a thread, so outside clients cannot claim
//! threads and line buffers without bound.
//!
//! Shutdown drains. A `shutdown` request (or [`ServerHandle::shutdown`])
//! sets the draining flag; the accept loop is woken by a self-connect
//! and stops; every connection thread polls the flag on a 50 ms read
//! timeout, finishes the request it is answering, and closes. The handle
//! then waits for the active-connection count to reach zero (bounded by
//! a deadline) — the in-flight reply is always written before its socket
//! closes.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::engine::QueryEngine;
use crate::metrics::ServeMetrics;
use crate::protocol::{self, parse_line, Request, RequestError, ServeLimits};
use crate::store::{FactorStore, SourceKind};

/// Most connections served at once. Each holds a thread and may buffer a
/// line of up to [`ServeLimits::max_line_bytes`].
pub const MAX_CONNECTIONS: usize = 64;

/// How a server should listen and bound its inputs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (the harness default).
    pub addr: String,
    /// Protocol input limits.
    pub limits: ServeLimits,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            limits: ServeLimits::default(),
        }
    }
}

/// State shared by the accept loop, connection threads, and the handle.
struct Shared {
    engine: QueryEngine,
    limits: ServeLimits,
    addr: SocketAddr,
    draining: AtomicBool,
    active: Mutex<usize>,
    idle: Condvar,
}

impl Shared {
    fn metrics(&self) -> &Arc<ServeMetrics> {
        self.engine.metrics()
    }

    /// Flips the draining flag and wakes the (blocking) accept loop with
    /// a throwaway self-connection.
    fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            drop(TcpStream::connect(self.addr));
        }
    }
}

/// Namespace for starting a serving process.
pub struct Server;

impl Server {
    /// Binds `config.addr`, starts the accept loop, and returns a handle
    /// once the port is live (so a caller can connect immediately).
    pub fn start(store: FactorStore, config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(ServeMetrics::new());
        let shared = Arc::new(Shared {
            engine: QueryEngine::new(store, 0, metrics),
            limits: config.limits,
            addr,
            draining: AtomicBool::new(false),
            active: Mutex::new(0),
            idle: Condvar::new(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
        })
    }
}

/// A running server; dropping it shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's counters.
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(self.shared.metrics())
    }

    /// Whether a drain has begun (via request or handle).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Drains and stops the server: no new connections, in-flight
    /// requests answered, all connection threads joined. Returns `true`
    /// if every connection closed within `deadline`.
    pub fn shutdown(mut self, deadline: Duration) -> bool {
        self.shutdown_inner(deadline)
    }

    /// Blocks until something begins a drain (a client `shutdown`
    /// request, typically), then completes it — the foreground
    /// `dbtf serve` main loop. Returns `true` if every connection closed
    /// within `deadline` of the drain starting.
    pub fn run_until_drained(self, deadline: Duration) -> bool {
        while !self.is_draining() {
            std::thread::sleep(Duration::from_millis(100));
        }
        self.shutdown(deadline)
    }

    fn shutdown_inner(&mut self, deadline: Duration) -> bool {
        self.shared.begin_drain();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let t0 = Instant::now();
        let mut active = self.shared.active.lock().unwrap();
        while *active > 0 {
            let left = deadline.saturating_sub(t0.elapsed());
            if left.is_zero() {
                return false;
            }
            let (guard, _) = self.shared.idle.wait_timeout(active, left).unwrap();
            active = guard;
        }
        true
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner(Duration::from_secs(5));
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let mut stream = match stream {
            Ok(stream) => stream,
            Err(_) => continue,
        };
        {
            let mut active = shared.active.lock().unwrap();
            if *active >= MAX_CONNECTIONS {
                drop(active);
                // A fresh socket's send buffer takes this one short line
                // without blocking the accept loop.
                let err = RequestError::busy(MAX_CONNECTIONS);
                shared.metrics().count_error(err.code);
                let _ = stream.set_nodelay(true);
                let _ = writeln_flush(&mut stream, &protocol::reply_error(None, &err));
                continue;
            }
            *active += 1;
        }
        ServeMetrics::add(&shared.metrics().connections_opened, 1);
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || {
                handle_connection(&conn_shared, stream);
                let mut active = conn_shared.active.lock().unwrap();
                *active -= 1;
                conn_shared.idle.notify_all();
                drop(active);
                ServeMetrics::add(&conn_shared.metrics().connections_closed, 1);
            });
        if spawned.is_err() {
            let mut active = shared.active.lock().unwrap();
            *active -= 1;
            shared.idle.notify_all();
        }
    }
}

/// Outcome of one bounded line read.
enum LineRead {
    /// A complete line is in the buffer (newline stripped).
    Line,
    /// Clean EOF with nothing buffered.
    Eof,
    /// Disconnect mid-line (truncated frame).
    Truncated,
    /// The line exceeded `max` bytes.
    Oversized,
    /// The server began draining while this connection was idle.
    Draining,
    /// Unrecoverable socket error.
    Failed,
}

/// Reads one `\n`-terminated line into `buf`, enforcing the byte limit
/// incrementally and polling the draining flag across read timeouts.
/// Both `WouldBlock` and `TimedOut` are idle poll ticks, never failures
/// — which of the two a timed-out socket read yields is
/// platform-dependent, so treating only one as a tick would drop
/// connections on the other platform. Generic over the reader so the
/// tick handling is testable without a socket.
fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    max: usize,
    draining: &AtomicBool,
) -> LineRead {
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Idle poll tick. Mid-line we keep waiting for the rest —
                // the in-flight frame gets its answer even while draining;
                // an idle draining connection just closes.
                if draining.load(Ordering::SeqCst) && buf.is_empty() {
                    return LineRead::Draining;
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return LineRead::Failed,
        };
        if chunk.is_empty() {
            return if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Truncated
            };
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if buf.len() + pos > max {
                    reader.consume(pos + 1);
                    return LineRead::Oversized;
                }
                buf.extend_from_slice(&chunk[..pos]);
                reader.consume(pos + 1);
                return LineRead::Line;
            }
            None => {
                let n = chunk.len();
                if buf.len() + n > max {
                    reader.consume(n);
                    return LineRead::Oversized;
                }
                buf.extend_from_slice(chunk);
                reader.consume(n);
            }
        }
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let read_half = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        match read_bounded_line(
            &mut reader,
            &mut buf,
            shared.limits.max_line_bytes,
            &shared.draining,
        ) {
            LineRead::Line => {
                ServeMetrics::add(&shared.metrics().lines_total, 1);
                let line = String::from_utf8_lossy(&buf).into_owned();
                if !write_replies(shared, &mut writer, &line) {
                    return;
                }
            }
            LineRead::Oversized => {
                // Typed refusal, then close: the rest of the line was
                // never buffered, so this connection's stream position is
                // unknowable — a clean close beats silent resync.
                ServeMetrics::add(&shared.metrics().lines_total, 1);
                let err = RequestError::oversized(shared.limits.max_line_bytes);
                shared.metrics().count_error(err.code);
                let reply = protocol::reply_error(None, &err);
                let _ = writeln_flush(&mut writer, &reply);
                return;
            }
            LineRead::Truncated => {
                ServeMetrics::add(&shared.metrics().lines_truncated, 1);
                return;
            }
            LineRead::Eof | LineRead::Draining | LineRead::Failed => return,
        }
    }
}

/// Parses, executes, and answers one request line. Returns `false` when
/// the connection must close afterwards (drain, shutdown, write failure).
fn write_replies(shared: &Shared, writer: &mut TcpStream, line: &str) -> bool {
    let metrics = Arc::clone(shared.metrics());
    let parsed = parse_line(line, &shared.limits);
    if parsed.batch {
        ServeMetrics::add(&metrics.batches_total, 1);
    }
    let draining_now = shared.draining.load(Ordering::SeqCst);
    let mut close = draining_now;
    let mut replies = Vec::with_capacity(parsed.items.len());
    for (id, item) in parsed.items {
        ServeMetrics::add(&metrics.requests_total, 1);
        let reply = match item {
            Err(err) => {
                metrics.count_error(err.code);
                protocol::reply_error(id, &err)
            }
            // During a drain only `shutdown` still gets its normal
            // (idempotent) acknowledgment; everything else is refused.
            Ok(req) if draining_now && req != Request::Shutdown => {
                let err = RequestError::draining();
                metrics.count_error(err.code);
                protocol::reply_error(id, &err)
            }
            Ok(req) => execute(shared, &metrics, id, req, &mut close),
        };
        replies.push(reply);
    }
    let line_out = if parsed.batch {
        format!("[{}]", replies.join(","))
    } else {
        replies.pop().unwrap_or_default()
    };
    writeln_flush(writer, &line_out) && !close
}

fn execute(
    shared: &Shared,
    metrics: &ServeMetrics,
    id: Option<u64>,
    req: Request,
    close: &mut bool,
) -> String {
    let engine = &shared.engine;
    let query = |result: Result<String, RequestError>| match result {
        Ok(reply) => reply,
        Err(err) => {
            metrics.count_error(err.code);
            protocol::reply_error(id, &err)
        }
    };
    match req {
        Request::Point { i, j, k } => query(
            engine
                .point(i, j, k)
                .map(|v| protocol::reply_point(id, v))
                .map_err(RequestError::from),
        ),
        Request::Slice { free_mode, lo, hi } => query(
            engine
                .slice(free_mode, lo, hi)
                .map(|ones| protocol::reply_slice(id, &ones))
                .map_err(RequestError::from),
        ),
        Request::Topk { mode, entity, k } => query(
            engine
                .topk(mode, entity, k)
                .map(|cols| protocol::reply_topk(id, &cols))
                .map_err(RequestError::from),
        ),
        Request::Ping => {
            ServeMetrics::add(&metrics.admin_queries, 1);
            protocol::reply_ping(id)
        }
        Request::Stats => {
            ServeMetrics::add(&metrics.admin_queries, 1);
            protocol::reply_stats(id, &metrics.named_counters())
        }
        Request::Info => {
            ServeMetrics::add(&metrics.admin_queries, 1);
            let store = engine.store();
            protocol::reply_info(
                id,
                store.dims(),
                store.rank(),
                store.set_version(),
                &store.source().to_string(),
            )
        }
        Request::Reload { path, source } => {
            ServeMetrics::add(&metrics.reload_requests, 1);
            let attempt = (|| -> Result<String, RequestError> {
                let source = match source {
                    Some(s) => s.parse::<SourceKind>().map_err(RequestError::reload)?,
                    None => engine.store().source(),
                };
                let store = FactorStore::open(std::path::Path::new(&path), source)
                    .map_err(|e| RequestError::reload(format!("{path}: {e}")))?;
                let outcome = engine.reload(store, None).map_err(RequestError::reload)?;
                Ok(protocol::reply_reload(
                    id,
                    outcome.set_version,
                    outcome.generation,
                ))
            })();
            match attempt {
                Ok(reply) => reply,
                Err(err) => {
                    metrics.count_error(err.code);
                    protocol::reply_error(id, &err)
                }
            }
        }
        Request::Shutdown => {
            ServeMetrics::add(&metrics.admin_queries, 1);
            shared.begin_drain();
            *close = true;
            protocol::reply_shutdown(id)
        }
    }
}

/// Writes one reply line and flushes; `false` means the peer is gone.
fn writeln_flush(writer: &mut TcpStream, line: &str) -> bool {
    let mut out = Vec::with_capacity(line.len() + 1);
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
    writer.write_all(&out).and_then(|()| writer.flush()).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::io::{self, Read};

    /// A scripted reader: each step is either an error kind to return
    /// once or a byte chunk to serve. `fill_buf` replays the script the
    /// way a 50 ms-timeout socket would.
    struct ScriptedReader {
        steps: VecDeque<Result<Vec<u8>, ErrorKind>>,
        current: Vec<u8>,
        pos: usize,
    }

    impl ScriptedReader {
        fn new(steps: Vec<Result<&[u8], ErrorKind>>) -> ScriptedReader {
            ScriptedReader {
                steps: steps
                    .into_iter()
                    .map(|s| s.map(|bytes| bytes.to_vec()))
                    .collect(),
                current: Vec::new(),
                pos: 0,
            }
        }
    }

    impl Read for ScriptedReader {
        fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            unreachable!("read_bounded_line uses fill_buf/consume only")
        }
    }

    impl BufRead for ScriptedReader {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            if self.pos == self.current.len() {
                match self.steps.pop_front() {
                    Some(Ok(bytes)) => {
                        self.current = bytes;
                        self.pos = 0;
                    }
                    Some(Err(kind)) => return Err(io::Error::new(kind, "scripted")),
                    None => {
                        self.current = Vec::new();
                        self.pos = 0;
                    }
                }
            }
            Ok(&self.current[self.pos..])
        }

        fn consume(&mut self, amt: usize) {
            self.pos += amt;
        }
    }

    fn read_line(steps: Vec<Result<&[u8], ErrorKind>>, draining: bool) -> (LineRead, Vec<u8>) {
        let mut reader = ScriptedReader::new(steps);
        let mut buf = Vec::new();
        let outcome = read_bounded_line(&mut reader, &mut buf, 64, &AtomicBool::new(draining));
        (outcome, buf)
    }

    #[test]
    fn wouldblock_and_timedout_are_poll_ticks_not_failures() {
        // Regression: a read loop matching only one of the two timeout
        // kinds drops connections on platforms that report the other.
        for kind in [ErrorKind::WouldBlock, ErrorKind::TimedOut] {
            // Idle ticks before the line arrives: still a clean line.
            let (outcome, buf) = read_line(vec![Err(kind), Err(kind), Ok(b"{\"q\":1}\n")], false);
            assert!(matches!(outcome, LineRead::Line), "{kind:?}");
            assert_eq!(buf, b"{\"q\":1}", "{kind:?}");
            // A tick splitting a frame mid-line must keep waiting, even
            // while draining — the in-flight frame gets its answer.
            let (outcome, buf) = read_line(vec![Ok(b"{\"q\""), Err(kind), Ok(b":2}\n")], true);
            assert!(matches!(outcome, LineRead::Line), "{kind:?} mid-line");
            assert_eq!(buf, b"{\"q\":2}", "{kind:?} mid-line");
            // An *idle* tick while draining closes the connection.
            let (outcome, _) = read_line(vec![Err(kind)], true);
            assert!(matches!(outcome, LineRead::Draining), "{kind:?} draining");
        }
    }

    #[test]
    fn interrupted_retries_and_hard_errors_fail() {
        let (outcome, buf) = read_line(vec![Err(ErrorKind::Interrupted), Ok(b"x\n")], false);
        assert!(matches!(outcome, LineRead::Line));
        assert_eq!(buf, b"x");
        let (outcome, _) = read_line(vec![Err(ErrorKind::ConnectionReset)], false);
        assert!(matches!(outcome, LineRead::Failed));
    }

    #[test]
    fn eof_truncation_and_oversize_classify() {
        let (outcome, _) = read_line(vec![], false);
        assert!(matches!(outcome, LineRead::Eof));
        let (outcome, _) = read_line(vec![Ok(b"partial")], false);
        assert!(matches!(outcome, LineRead::Truncated), "EOF mid-line");
        let long = vec![b'a'; 80];
        let mut steps: Vec<Result<&[u8], ErrorKind>> = vec![Ok(&long)];
        steps.push(Ok(b"\n"));
        let (outcome, _) = read_line(steps, false);
        assert!(matches!(outcome, LineRead::Oversized));
    }
}
