//! The networked worker: a real OS process (or a thread speaking the same
//! TCP protocol in tests) that connects back to the driver, stores
//! partitions, and executes registry tasks over them.
//!
//! Execution semantics are shared with the in-process backend by
//! construction: batches run through the executor's `run_batch` (tasks
//! inline in partition order, same retry/panic handling), so a networked
//! superstep's reply is bit-identical to the simulated worker's. A
//! `dbtf worker` process is single-threaded: it spawns no threads of its
//! own.
//!
//! The worker is crash-oriented: any state it holds can be restored by
//! the driver's lineage recovery, so on connection loss it simply
//! reconnects (keeping its state — a drop is not a crash) and on `Die` /
//! `SIGKILL` it vanishes and lets the supervisor respawn it.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use crate::executor::{run_batch, AnyPart, TaskFaults, TaskFn};
use crate::net::proto::{read_frame, write_frame, BatchReply, Frame, StatEntry};
use crate::net::registry::{BroadcastStore, NetRegistry};

/// How long the worker keeps trying to (re)connect to the driver before
/// giving up (the driver is normally already listening).
const CONNECT_ATTEMPTS: u32 = 100;
const CONNECT_RETRY_DELAY: Duration = Duration::from_millis(50);

/// Worker-side state that survives reconnects (a dropped connection loses
/// no data; only a process kill does).
struct WorkerState {
    worker: usize,
    datasets: HashMap<u64, Vec<(usize, AnyPart)>>,
    bstore: BroadcastStore,
    /// Last `Run` reply, kept for resend dedup: a driver retry
    /// after a drop or timeout is answered from cache, never re-executed.
    cached_reply: Option<(u64, Frame)>,
}

enum Served {
    /// Connection lost (io error or injected drop) — reconnect, keep state.
    ConnLost,
    /// Clean `Shutdown` or injected `Die` — exit without reconnecting.
    Exit,
}

/// Entry point of a networked worker: connects to the driver at `addr`,
/// introduces itself as `(worker, incarnation)`, and serves requests until
/// shut down or killed. Runs on the main thread of a `dbtf worker`
/// process, or on a plain thread in thread-hosted test clusters.
pub fn worker_main(
    addr: SocketAddr,
    worker: usize,
    incarnation: u64,
    registry: Arc<NetRegistry>,
) -> io::Result<()> {
    let mut state = WorkerState {
        worker,
        datasets: HashMap::new(),
        bstore: BroadcastStore::new(),
        cached_reply: None,
    };
    loop {
        let mut stream = connect(addr)?;
        write_frame(
            &mut stream,
            &Frame::Hello {
                worker: worker as u64,
                incarnation,
            },
        )?;
        let (ack, _) = read_frame(&mut stream)?;
        let Frame::HelloAck = ack else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "expected HelloAck from driver",
            ));
        };
        match serve(&mut stream, &mut state, &registry) {
            Served::ConnLost => continue,
            Served::Exit => return Ok(()),
        }
    }
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let mut last_err = None;
    for _ in 0..CONNECT_ATTEMPTS {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                return Ok(stream);
            }
            Err(e) => {
                last_err = Some(e);
                std::thread::sleep(CONNECT_RETRY_DELAY);
            }
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("driver unreachable")))
}

fn serve(stream: &mut TcpStream, state: &mut WorkerState, registry: &NetRegistry) -> Served {
    loop {
        let frame = match read_frame(stream) {
            Ok((frame, _)) => frame,
            Err(_) => return Served::ConnLost,
        };
        let reply = match frame {
            Frame::Store {
                req,
                dataset,
                codec,
                mut parts,
            } => {
                let codec = registry.part_codec_named(&codec).unwrap_or_else(|| {
                    panic!(
                        "worker {} has no partition codec named {codec:?}; driver and \
                         worker registries differ",
                        state.worker
                    )
                });
                let slot = state.datasets.entry(dataset).or_default();
                // Each blob is freed as soon as its partition is decoded.
                let parts = Arc::get_mut(&mut parts).expect("a decoded frame owns its parts");
                for (idx, bytes) in parts.iter_mut() {
                    let bytes = std::mem::take(bytes);
                    let part = (codec.decode)(&bytes).unwrap_or_else(|e| {
                        panic!(
                            "partition {idx} of dataset {dataset} failed to decode: {}",
                            e.0
                        )
                    });
                    slot.push((*idx as usize, part));
                }
                slot.sort_by_key(|(idx, _)| *idx);
                // A resent Store (the Ack was lost, not the request) lands
                // the same partitions twice; keep the first copy.
                slot.dedup_by_key(|(idx, _)| *idx);
                Frame::Ack { req }
            }
            Frame::BroadcastValue { req, id, frame } => {
                state.bstore.insert(id, frame);
                Frame::Ack { req }
            }
            Frame::Run {
                req,
                dataset,
                step,
                name,
                params,
                faults,
                delivery,
                capture,
            } => {
                if let Some((cached_req, cached)) = &state.cached_reply {
                    if *cached_req == req {
                        // Resend of an already-executed request: answer
                        // from cache (exactly-once execution).
                        let cached = cached.clone();
                        if write_frame(stream, &cached).is_err() {
                            return Served::ConnLost;
                        }
                        continue;
                    }
                }
                let plan = faults.plan();
                if plan.connection_drops(step, state.worker, delivery) {
                    // Injected drop: sever the connection *before*
                    // executing; the driver reconnects and redelivers.
                    return Served::ConnLost;
                }
                let delayed = plan.response_delayed(step, state.worker);
                let task_faults = (plan.task_failure_rate > 0.0).then(|| (Arc::new(plan), step));
                let reply = run_request(
                    state,
                    registry,
                    dataset,
                    &name,
                    &params,
                    task_faults,
                    capture,
                );
                if delayed {
                    std::thread::sleep(Duration::from_millis(faults.delay_ms));
                }
                Frame::Batch { req, reply }
            }
            Frame::DropDataset { dataset } => {
                state.datasets.remove(&dataset);
                continue; // no reply
            }
            Frame::Shutdown => return Served::Exit,
            Frame::Die => {
                // SIGKILL analogue for thread-hosted workers: drop all
                // state and vanish without a reply.
                return Served::Exit;
            }
            other => {
                panic!(
                    "worker {} received unexpected frame {other:?} (protocol bug)",
                    state.worker
                );
            }
        };
        if let Frame::Batch { req, .. } = &reply {
            state.cached_reply = Some((*req, reply.clone()));
        }
        if write_frame(stream, &reply).is_err() {
            return Served::ConnLost;
        }
    }
}

/// Executes one `Run` request through the executor's `run_batch` — the
/// same retry/panic/merge machinery the in-process worker uses.
fn run_request(
    state: &mut WorkerState,
    registry: &NetRegistry,
    dataset: u64,
    name: &str,
    params: &[u8],
    faults: Option<TaskFaults>,
    capture: bool,
) -> BatchReply {
    let factory = registry.task_factory(name).unwrap_or_else(|| {
        panic!(
            "worker {} has no task named {name:?}; driver and worker registries differ",
            state.worker
        )
    });
    let body = factory(params, &state.bstore)
        .unwrap_or_else(|e| panic!("task {name:?} rejected its parameter frame: {}", e.0));
    let task: Box<TaskFn> =
        Box::new(move |idx, part, ctx| Box::new(body(idx, part, ctx)) as AnyPart);
    let parts = state
        .datasets
        .get_mut(&dataset)
        .map_or(&mut [][..], Vec::as_mut_slice);
    let batch = run_batch(state.worker, parts, task.as_ref(), faults.as_ref(), capture);
    BatchReply {
        worker: batch.worker as u64,
        results: batch
            .results
            .into_iter()
            .map(|(idx, boxed)| {
                let frame = boxed
                    .downcast::<dbtf_wire::EncodedFrame>()
                    .expect("net task returned a non-frame result (engine bug)");
                (idx as u64, frame.bytes)
            })
            .collect(),
        panics: batch
            .panics
            .into_iter()
            .map(|(idx, msg)| (idx as u64, msg))
            .collect(),
        stats: batch
            .stats
            .into_iter()
            .map(|stat| StatEntry {
                idx: stat.idx as u64,
                ops: stat.ops,
                retries: stat.retries,
                kernels: stat
                    .kernels
                    .into_iter()
                    .map(|k| (k.name.to_string(), k.ops))
                    .collect(),
            })
            .collect(),
        total_ops: batch.load.total_ops,
        max_task_ops: batch.load.max_task_ops,
        result_bytes: batch.load.result_bytes,
    }
}
