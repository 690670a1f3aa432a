//! Driver-side worker supervision for the networked backend: process /
//! thread lifecycle, connection management, heartbeats, request delivery
//! with timeouts and reconnects, and kill/respawn.
//!
//! The supervisor deliberately knows nothing about datasets or lineage —
//! it reports a dead worker to the caller ([`crate::net::NetBackend`]),
//! which respawns through [`Supervisor::respawn`] and replays lineage
//! before resending the failed request. Every failure path is bounded
//! (timeouts, retry caps, respawn budget enforced by the caller), so a
//! faulty cluster degrades to a typed error instead of a hang.
//!
//! Failure handling is uniform: any write error, read error, or read
//! timeout drops the driver-side stream. The worker notices the closed
//! socket, reconnects with a `Hello`, and the next delivery attempt picks
//! the fresh connection out of the pending map. Workers answer re-sent
//! requests from their reply cache, so at-least-once delivery stays
//! exactly-once execution.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::lock;
use crate::metrics::CommMetrics;
use crate::net::proto::{read_frame, write_frame, Frame};
use crate::net::registry::NetRegistry;
use crate::net::worker::worker_main;

/// How a networked worker is hosted.
pub enum WorkerHost {
    /// Spawn `program args.. --connect <addr> --id <w> --incarnation <n>`
    /// as a separate OS process (the `dbtf worker` subcommand). Process
    /// kills are real `SIGKILL`s.
    Process {
        /// Worker executable (normally `std::env::current_exe()`).
        program: std::path::PathBuf,
        /// Arguments before the generated connection flags, e.g.
        /// `["worker"]` for the `dbtf` CLI.
        args: Vec<String>,
    },
    /// Host each worker on a thread of this process speaking the same TCP
    /// protocol (tests without a worker binary). Kills are simulated with
    /// a `Die` frame, which the worker honours by exiting with its state.
    Thread(Arc<NetRegistry>),
}

/// Budget for a (re)connecting worker's `Hello` to arrive.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// Budget for one request's reply (generous: covers task compute).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);
/// Period of the supervisor's liveness probes.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(500);
/// Budget for a `Pong` before a heartbeat counts as missed.
const HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(2);
/// Delivery attempts per request (timeouts + reconnects) before the
/// worker is declared dead and respawned.
const MAX_REQUEST_RETRIES: u64 = 3;

/// The one tunable of the networked backend.
#[derive(Debug, Clone)]
pub struct NetTuning {
    /// Respawns per worker before the run degrades to a typed error
    /// (enforced by the backend, carried here for configuration).
    pub respawn_budget: u32,
}

impl Default for NetTuning {
    fn default() -> Self {
        NetTuning { respawn_budget: 3 }
    }
}

/// Why a request could not be delivered.
#[derive(Debug)]
pub(crate) enum RequestError {
    /// The worker's process/thread is gone (or unresponsive past every
    /// retry and has been killed): respawn + lineage recovery required.
    WorkerDead,
    /// A non-recoverable protocol/setup failure.
    Fatal(String),
}

/// A delivered request: the matching reply plus total wire traffic
/// (every attempt included), for the caller's byte meters.
pub(crate) struct Exchange {
    pub(crate) reply: Frame,
    pub(crate) bytes_sent: u64,
    pub(crate) bytes_received: u64,
}

/// A request shipped with [`Supervisor::begin`] whose reply has not been
/// collected yet.
pub(crate) struct InFlight {
    req: u64,
    /// Deliveries so far (resends after drops/timeouts increment it).
    delivery: u64,
    bytes_sent: u64,
}

#[derive(Default)]
struct WorkerSlot {
    stream: Option<TcpStream>,
    child: Option<Child>,
    thread: Option<JoinHandle<()>>,
    /// Threads of killed incarnations, joined at shutdown (they exit as
    /// soon as they read their `Die` frame off a graveyard socket).
    zombies: Vec<JoinHandle<()>>,
    /// Sockets of killed thread-workers, kept open so the `Die` frame
    /// can still be read (closing them would race the kill).
    graveyard: Vec<TcpStream>,
    incarnation: u64,
    next_req: u64,
    respawns: u32,
}

/// Connections accepted but not yet claimed, keyed by the `Hello`'s
/// `(worker, incarnation)`. Stale incarnations are answered with `Die`.
struct PendingConns {
    map: Mutex<HashMap<(usize, u64), TcpStream>>,
    ready: Condvar,
    incarnations: Vec<AtomicU64>,
    shutdown: AtomicBool,
}

pub(crate) struct Supervisor {
    addr: SocketAddr,
    host: WorkerHost,
    slots: Arc<Vec<Mutex<WorkerSlot>>>,
    /// Per-worker "superstep in flight" flags; heartbeats skip busy
    /// workers so a long compute is never mistaken for a dead one.
    busy: Arc<Vec<AtomicBool>>,
    pending: Arc<PendingConns>,
    metrics: Arc<CommMetrics>,
    acceptor: Option<JoinHandle<()>>,
    heartbeat: Option<JoinHandle<()>>,
    hb_shutdown: Arc<AtomicBool>,
}

impl Supervisor {
    /// Binds the driver listener, spawns `workers` workers, completes
    /// their handshakes, and starts the heartbeat monitor.
    pub(crate) fn start(
        workers: usize,
        host: WorkerHost,
        metrics: Arc<CommMetrics>,
    ) -> io::Result<Supervisor> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let pending = Arc::new(PendingConns {
            map: Mutex::new(HashMap::new()),
            ready: Condvar::new(),
            incarnations: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            shutdown: AtomicBool::new(false),
        });
        let acceptor = {
            let pending = Arc::clone(&pending);
            std::thread::Builder::new()
                .name("dbtf-net-acceptor".into())
                .spawn(move || acceptor_loop(listener, &pending))?
        };
        let mut sup = Supervisor {
            addr,
            host,
            slots: Arc::new(
                (0..workers)
                    .map(|_| Mutex::new(WorkerSlot::default()))
                    .collect(),
            ),
            busy: Arc::new((0..workers).map(|_| AtomicBool::new(false)).collect()),
            pending,
            metrics,
            acceptor: Some(acceptor),
            heartbeat: None,
            hb_shutdown: Arc::new(AtomicBool::new(false)),
        };
        // Spawn everyone first, then collect the handshakes: workers
        // connect concurrently instead of serially.
        for w in 0..workers {
            let mut slot = lock(&sup.slots[w]);
            sup.spawn_locked(&mut slot, w)?;
        }
        for w in 0..workers {
            let mut slot = lock(&sup.slots[w]);
            sup.reacquire(&mut slot, w)
                .map_err(|e| io::Error::other(format!("worker {w} failed to connect: {e:?}")))?;
        }
        let slots = Arc::clone(&sup.slots);
        let busy = Arc::clone(&sup.busy);
        let metrics = Arc::clone(&sup.metrics);
        let shutdown = Arc::clone(&sup.hb_shutdown);
        sup.heartbeat = Some(
            std::thread::Builder::new()
                .name("dbtf-net-heartbeat".into())
                .spawn(move || heartbeat_loop(&slots, &busy, &metrics, &shutdown))?,
        );
        Ok(sup)
    }

    /// Marks a worker as mid-superstep; heartbeats skip it until
    /// [`Supervisor::set_idle`].
    pub(crate) fn set_busy(&self, w: usize) {
        self.busy[w].store(true, Ordering::Release);
    }

    pub(crate) fn set_idle(&self, w: usize) {
        self.busy[w].store(false, Ordering::Release);
    }

    /// Respawns performed for worker `w` so far.
    pub(crate) fn respawns(&self, w: usize) -> u32 {
        lock(&self.slots[w]).respawns
    }

    /// Kills worker `w`'s current incarnation: a real `SIGKILL` for
    /// process hosting, a `Die` frame for thread hosting. Used by the
    /// fault injector at superstep boundaries.
    pub(crate) fn kill_worker(&self, w: usize) {
        let mut slot = lock(&self.slots[w]);
        self.kill_locked(&mut slot);
    }

    /// Delivers one request to worker `w` and blocks for the matching
    /// reply. `build(req, delivery)` constructs the frame — `delivery`
    /// increments on every attempt so injected connection drops draw
    /// fresh decisions and cannot strand a request forever.
    pub(crate) fn request(
        &self,
        w: usize,
        build: &dyn Fn(u64, u64) -> Frame,
    ) -> Result<Exchange, RequestError> {
        let inflight = self.begin(w, build)?;
        self.finish(w, inflight, build)
    }

    /// Ships one request to worker `w` without waiting for the reply, so
    /// a superstep reaches every worker before the driver blocks on the
    /// first one. Collect the reply with [`Supervisor::finish`].
    pub(crate) fn begin(
        &self,
        w: usize,
        build: &dyn Fn(u64, u64) -> Frame,
    ) -> Result<InFlight, RequestError> {
        let mut slot = lock(&self.slots[w]);
        let req = slot.next_req;
        slot.next_req += 1;
        let mut inflight = InFlight {
            req,
            delivery: 0,
            bytes_sent: 0,
        };
        self.deliver(&mut slot, w, build, &mut inflight)?;
        Ok(inflight)
    }

    /// Blocks for the reply to a request shipped with
    /// [`Supervisor::begin`], re-delivering through timeouts, drops, and
    /// reconnects until the reply arrives or the worker is declared dead.
    pub(crate) fn finish(
        &self,
        w: usize,
        mut inflight: InFlight,
        build: &dyn Fn(u64, u64) -> Frame,
    ) -> Result<Exchange, RequestError> {
        let mut slot = lock(&self.slots[w]);
        let mut received = 0u64;
        loop {
            if slot.stream.is_none() {
                // Heartbeat (or a failed attempt below) dropped the
                // connection since the request went out: re-deliver. The
                // worker's reply cache keeps re-execution impossible.
                self.deliver(&mut slot, w, build, &mut inflight)?;
            }
            let stream = slot.stream.as_mut().expect("stream ensured above");
            match read_matching(stream, inflight.req, REQUEST_TIMEOUT) {
                Ok((reply, n)) => {
                    received += n;
                    return Ok(Exchange {
                        reply,
                        bytes_sent: inflight.bytes_sent,
                        bytes_received: received,
                    });
                }
                Err(e) => {
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) {
                        self.metrics
                            .net_request_timeouts
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    // Uniform failure path: drop the stream; the worker
                    // reconnects (or is found dead) on the next attempt.
                    slot.stream = None;
                    if self.worker_dead(&mut slot) {
                        return Err(RequestError::WorkerDead);
                    }
                }
            }
        }
    }

    /// One delivery attempt loop: ensures a live stream and writes the
    /// frame, bounded by the retry budget.
    fn deliver(
        &self,
        slot: &mut WorkerSlot,
        w: usize,
        build: &dyn Fn(u64, u64) -> Frame,
        inflight: &mut InFlight,
    ) -> Result<(), RequestError> {
        loop {
            if inflight.delivery > MAX_REQUEST_RETRIES {
                // Alive but unresponsive past every retry: put it out of
                // its misery so the caller's respawn starts clean.
                self.kill_locked(slot);
                return Err(RequestError::WorkerDead);
            }
            if slot.stream.is_none() {
                self.reacquire(slot, w)?;
                self.metrics.net_reconnects.fetch_add(1, Ordering::Relaxed);
            }
            let frame = build(inflight.req, inflight.delivery);
            inflight.delivery += 1;
            let stream = slot.stream.as_mut().expect("stream reacquired above");
            match write_frame(stream, &frame) {
                Ok(n) => {
                    inflight.bytes_sent += n;
                    return Ok(());
                }
                Err(_) => {
                    slot.stream = None;
                    if self.worker_dead(slot) {
                        return Err(RequestError::WorkerDead);
                    }
                }
            }
        }
    }

    /// Fire-and-forget frame to worker `w` (`DropDataset`); returns the
    /// bytes written (0 if the worker is currently unreachable — callers
    /// treat delivery as best-effort).
    pub(crate) fn notify(&self, w: usize, frame: &Frame) -> u64 {
        let mut slot = lock(&self.slots[w]);
        let Some(stream) = slot.stream.as_mut() else {
            return 0;
        };
        match write_frame(stream, frame) {
            Ok(n) => n,
            Err(_) => {
                slot.stream = None;
                0
            }
        }
    }

    /// Replaces a dead worker with a fresh incarnation and completes its
    /// handshake. Returns the worker's total respawn count; the caller
    /// enforces the respawn budget and replays lineage.
    pub(crate) fn respawn(&self, w: usize) -> Result<u32, RequestError> {
        let mut slot = lock(&self.slots[w]);
        self.kill_locked(&mut slot);
        slot.respawns += 1;
        slot.incarnation += 1;
        self.pending.incarnations[w].store(slot.incarnation, Ordering::Release);
        self.spawn_locked(&mut slot, w)
            .map_err(|e| RequestError::Fatal(format!("failed to respawn worker {w}: {e}")))?;
        self.reacquire(&mut slot, w)?;
        Ok(slot.respawns)
    }

    fn spawn_locked(&self, slot: &mut WorkerSlot, w: usize) -> io::Result<()> {
        match &self.host {
            WorkerHost::Process { program, args } => {
                let child = Command::new(program)
                    .args(args)
                    .arg("--connect")
                    .arg(self.addr.to_string())
                    .arg("--id")
                    .arg(w.to_string())
                    .arg("--incarnation")
                    .arg(slot.incarnation.to_string())
                    .stdin(std::process::Stdio::null())
                    .spawn()?;
                slot.child = Some(child);
            }
            WorkerHost::Thread(registry) => {
                let registry = Arc::clone(registry);
                let addr = self.addr;
                let incarnation = slot.incarnation;
                let handle = std::thread::Builder::new()
                    .name(format!("dbtf-net-worker-{w}"))
                    .spawn(move || {
                        let _ = worker_main(addr, w, incarnation, registry);
                    })?;
                slot.thread = Some(handle);
            }
        }
        Ok(())
    }

    fn kill_locked(&self, slot: &mut WorkerSlot) {
        if let Some(child) = slot.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
            slot.child = None;
        }
        if let Some(handle) = slot.thread.take() {
            if let Some(mut stream) = slot.stream.take() {
                let _ = write_frame(&mut stream, &Frame::Die);
                // Keep the socket open so the Die frame stays readable.
                slot.graveyard.push(stream);
            }
            slot.zombies.push(handle);
        }
        slot.stream = None;
    }

    /// True when the worker's process/thread has terminated.
    fn worker_dead(&self, slot: &mut WorkerSlot) -> bool {
        if let Some(child) = slot.child.as_mut() {
            return matches!(child.try_wait(), Ok(Some(_)) | Err(_));
        }
        if let Some(handle) = &slot.thread {
            return handle.is_finished();
        }
        true
    }

    /// Waits for worker `w`'s current incarnation to (re)connect, answers
    /// its `Hello` with a `HelloAck`, and installs the stream.
    fn reacquire(&self, slot: &mut WorkerSlot, w: usize) -> Result<(), RequestError> {
        let incarnation = slot.incarnation;
        let deadline = Instant::now() + CONNECT_TIMEOUT;
        let mut map = lock(&self.pending.map);
        loop {
            if let Some(mut conn) = map.remove(&(w, incarnation)) {
                drop(map);
                match write_frame(&mut conn, &Frame::HelloAck) {
                    Ok(n) => {
                        self.metrics
                            .net_wire_overhead_bytes
                            .fetch_add(n, Ordering::Relaxed);
                        slot.stream = Some(conn);
                        return Ok(());
                    }
                    Err(_) => {
                        // Handshake raced a disconnect; keep waiting.
                        map = lock(&self.pending.map);
                        continue;
                    }
                }
            }
            if self.worker_dead(slot) {
                return Err(RequestError::WorkerDead);
            }
            if Instant::now() >= deadline {
                // Alive but not reconnecting: kill it so the caller's
                // respawn starts from a clean slate.
                drop(map);
                self.kill_locked(slot);
                return Err(RequestError::WorkerDead);
            }
            map = self
                .pending
                .ready
                .wait_timeout(map, Duration::from_millis(20))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        // 1. Stop the heartbeat monitor (wake it if it is parked).
        self.hb_shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.heartbeat.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
        // 2. Stop the acceptor (poke it with a throwaway connection).
        self.pending.shutdown.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        // 3. Unblock any worker parked on an unanswered Hello.
        lock(&self.pending.map).clear();
        // 4. Tell every worker to shut down, so they all exit at once...
        for slot in self.slots.iter() {
            let mut slot = lock(slot);
            if let Some(mut stream) = slot.stream.take() {
                let _ = write_frame(&mut stream, &Frame::Shutdown);
            }
            slot.graveyard.clear();
        }
        // 5. ...then reap them. Shutdown was sent (or the socket closed);
        // give the processes a moment, then force the issue.
        let deadline = Instant::now() + Duration::from_secs(5);
        for slot in self.slots.iter() {
            let mut slot = lock(slot);
            if let Some(child) = slot.child.as_mut() {
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) | Err(_) => break,
                        Ok(None) if Instant::now() >= deadline => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                        Ok(None) => std::thread::sleep(Duration::from_millis(1)),
                    }
                }
            }
            for handle in slot.thread.take().into_iter().chain(slot.zombies.drain(..)) {
                let _ = handle.join();
            }
        }
    }
}

fn acceptor_loop(listener: TcpListener, pending: &PendingConns) {
    for conn in listener.incoming() {
        if pending.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(mut conn) = conn else { continue };
        conn.set_nodelay(true).ok();
        // A connection that never says Hello must not wedge the acceptor.
        conn.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let Ok((
            Frame::Hello {
                worker,
                incarnation,
            },
            _,
        )) = read_frame(&mut conn)
        else {
            continue;
        };
        let w = worker as usize;
        let current = pending
            .incarnations
            .get(w)
            .map(|i| i.load(Ordering::Acquire));
        if current == Some(incarnation) {
            conn.set_read_timeout(None).ok();
            lock(&pending.map).insert((w, incarnation), conn);
            pending.ready.notify_all();
        } else {
            // A zombie incarnation reconnecting after its kill: tell it
            // to exit for good.
            let _ = write_frame(&mut conn, &Frame::Die);
        }
    }
}

fn heartbeat_loop(
    slots: &[Mutex<WorkerSlot>],
    busy: &[AtomicBool],
    metrics: &CommMetrics,
    shutdown: &AtomicBool,
) {
    let mut last_beat = Instant::now();
    loop {
        // Parked until the next beat is due; `Supervisor::drop` unparks it.
        std::thread::park_timeout(HEARTBEAT_INTERVAL.saturating_sub(last_beat.elapsed()));
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        if last_beat.elapsed() < HEARTBEAT_INTERVAL {
            continue;
        }
        last_beat = Instant::now();
        for (w, slot) in slots.iter().enumerate() {
            if shutdown.load(Ordering::Acquire) {
                return;
            }
            if busy[w].load(Ordering::Acquire) {
                continue;
            }
            let Ok(mut slot) = slot.try_lock() else {
                continue;
            };
            if slot.stream.is_none() {
                continue;
            }
            let req = slot.next_req;
            slot.next_req += 1;
            let stream = slot.stream.as_mut().expect("checked above");
            let mut traffic = 0u64;
            let ok = match write_frame(stream, &Frame::Ping { req }) {
                Ok(n) => {
                    traffic += n;
                    match read_matching(stream, req, HEARTBEAT_TIMEOUT) {
                        Ok((Frame::Pong { .. }, n)) => {
                            traffic += n;
                            true
                        }
                        _ => false,
                    }
                }
                Err(_) => false,
            };
            metrics
                .net_wire_overhead_bytes
                .fetch_add(traffic, Ordering::Relaxed);
            if !ok {
                metrics
                    .net_heartbeats_missed
                    .fetch_add(1, Ordering::Relaxed);
                // Drop the stream; the worker reconnects (or its death is
                // discovered) on the next request.
                slot.stream = None;
            }
        }
    }
}

/// Reads frames until one matches `expected`, discarding stale duplicates
/// (replies to earlier deliveries that were already answered another way).
fn read_matching(
    stream: &mut TcpStream,
    expected: u64,
    timeout: Duration,
) -> io::Result<(Frame, u64)> {
    stream.set_read_timeout(Some(timeout))?;
    let mut total = 0u64;
    loop {
        let (frame, n) = read_frame(stream)?;
        total += n;
        let req = match &frame {
            Frame::Ack { req } | Frame::Pong { req } | Frame::Batch { req, .. } => *req,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected worker frame {other:?}"),
                ))
            }
        };
        if req == expected {
            return Ok((frame, total));
        }
        if req > expected {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply for request {req} arrived while waiting for {expected}"),
            ));
        }
        // req < expected: stale duplicate from a resent delivery — skip.
    }
}
