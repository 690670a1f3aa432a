//! Worker-side execution: the worker event loop and per-task fault/retry
//! handling. Each worker runs its share of a superstep's tasks inline, in
//! partition order, on its own thread. Everything in this module runs on
//! worker threads; the driver talks to it exclusively through
//! [`WorkerMsg`] channels.

use std::any::Any;
use std::collections::HashMap;
use std::io;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::engine::{AnyPart, TaskFaults, TaskFn};
use crate::task::TaskContext;
use dbtf_telemetry::KernelEvent;

/// Messages a worker thread understands.
pub(crate) enum WorkerMsg {
    /// Install partitions (global index, payload) of a dataset.
    Store {
        dataset: u64,
        parts: Vec<(usize, AnyPart)>,
        ack: Sender<()>,
    },
    /// Run a task over every locally stored partition of a dataset.
    Run {
        dataset: u64,
        task: Arc<TaskFn>,
        /// `Some` when transient task faults are being injected; `None` for
        /// fault-free supersteps and for lineage replay.
        fault: Option<TaskFaults>,
        /// Record per-kernel events in the task contexts (tracing on).
        /// Always `false` for lineage replay so recovery re-execution
        /// never pollutes a trace.
        capture: bool,
        reply: Sender<BatchResult>,
    },
    /// Report how many partitions of a dataset this worker holds.
    Count { dataset: u64, reply: Sender<usize> },
    /// Evict a dataset from this worker's memory.
    DropDataset { dataset: u64 },
    /// Terminate the worker thread.
    Shutdown,
}

/// Per-task cost record inside a [`BatchResult`], sorted by partition
/// index; the driver needs per-task granularity to model slow tasks,
/// retries, and speculative re-execution.
pub(crate) struct TaskStat {
    pub(crate) idx: usize,
    pub(crate) ops: u64,
    pub(crate) retries: u32,
    /// Kernel events the task recorded (empty unless capture was on).
    pub(crate) kernels: Vec<KernelEvent>,
}

/// One worker's reply to a superstep: every local task's result plus the
/// cost accounting the driver folds into the virtual clock.
pub(crate) struct BatchResult {
    pub(crate) worker: usize,
    /// (global partition index, boxed task result) pairs, sorted by
    /// partition index.
    pub(crate) results: Vec<(usize, AnyPart)>,
    /// Tasks that panicked or exhausted their launch attempts:
    /// (global partition index, message), sorted by partition index.
    pub(crate) panics: Vec<(usize, String)>,
    /// Per-task cost records, sorted by partition index (covers every
    /// task, successful or not).
    pub(crate) stats: Vec<TaskStat>,
    pub(crate) total_ops: u64,
    pub(crate) max_task_ops: u64,
    pub(crate) result_bytes: u64,
}

/// Spawns the OS thread running [`worker_loop`] for one worker machine.
///
/// An OS thread-spawn failure surfaces here as an `Err` — callers turn it
/// into a typed [`crate::ClusterError::WorkerSpawn`] instead of panicking
/// inside the engine.
pub(crate) fn spawn_worker(
    worker_id: usize,
    rx: Receiver<WorkerMsg>,
) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("dbtf-worker-{worker_id}"))
        .spawn(move || worker_loop(worker_id, rx))
}

fn worker_loop(worker_id: usize, rx: Receiver<WorkerMsg>) {
    let mut datasets: HashMap<u64, Vec<(usize, AnyPart)>> = HashMap::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Store {
                dataset,
                mut parts,
                ack,
            } => {
                let slot = datasets.entry(dataset).or_default();
                slot.append(&mut parts);
                slot.sort_by_key(|(idx, _)| *idx);
                let _ = ack.send(());
            }
            WorkerMsg::Run {
                dataset,
                task,
                fault,
                capture,
                reply,
            } => {
                let parts = datasets
                    .get_mut(&dataset)
                    .map_or(&mut [][..], Vec::as_mut_slice);
                let batch = run_batch(worker_id, parts, task.as_ref(), fault.as_ref(), capture);
                let _ = reply.send(batch);
            }
            WorkerMsg::Count { dataset, reply } => {
                let _ = reply.send(datasets.get(&dataset).map_or(0, Vec::len));
            }
            WorkerMsg::DropDataset { dataset } => {
                datasets.remove(&dataset);
            }
            WorkerMsg::Shutdown => break,
        }
    }
}

/// Outcome of one partition task.
struct TaskOutcome {
    result: Result<AnyPart, String>,
    ops: u64,
    result_bytes: u64,
    /// Transiently failed launch attempts before the one that ran.
    retries: u32,
    kernels: Vec<KernelEvent>,
}

/// Runs one task under `catch_unwind` so a panicking task does not take
/// down the worker; the panic payload travels to the driver as a message
/// instead. With transient faults injected, launch attempts are retried
/// deterministically (the task closure only ever runs once — a failed
/// launch has no side effects); exhausting
/// [`crate::FaultPlan::max_task_attempts`] surfaces like a panic.
fn run_task(
    worker_id: usize,
    idx: usize,
    part: &mut (dyn Any + Send),
    task: &TaskFn,
    fault: Option<&TaskFaults>,
    capture: bool,
) -> TaskOutcome {
    let mut retries = 0u32;
    if let Some((plan, superstep)) = fault {
        while plan.task_fails(*superstep, idx, retries) {
            retries += 1;
            if retries >= plan.max_task_attempts {
                return TaskOutcome {
                    result: Err(format!(
                        "task exhausted {} launch attempts (injected transient faults)",
                        plan.max_task_attempts
                    )),
                    ops: 0,
                    result_bytes: 0,
                    retries,
                    kernels: Vec::new(),
                };
            }
        }
    }
    let mut ctx = TaskContext::with_capture(worker_id, idx, retries, capture);
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(idx, part, &mut ctx)))
            .map_err(|payload| {
                if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                }
            });
    TaskOutcome {
        result,
        ops: ctx.ops(),
        result_bytes: ctx.result_bytes(),
        retries,
        kernels: ctx.take_kernels(),
    }
}

/// Executes one superstep's share of tasks on this worker: every
/// partition in `parts` (sorted by global index), inline and in order, on
/// the calling thread. The ops/bytes counters are reduced in that fixed
/// order, so the reply is the same bits on every backend.
pub(crate) fn run_batch(
    worker_id: usize,
    parts: &mut [(usize, AnyPart)],
    task: &TaskFn,
    fault: Option<&TaskFaults>,
    capture: bool,
) -> BatchResult {
    let mut results = Vec::with_capacity(parts.len());
    let mut panics = Vec::new();
    let mut stats = Vec::with_capacity(parts.len());
    let mut total_ops = 0u64;
    let mut max_task_ops = 0u64;
    let mut result_bytes = 0u64;
    for &mut (idx, ref mut part) in parts {
        let outcome = run_task(worker_id, idx, part.as_mut(), task, fault, capture);
        total_ops += outcome.ops;
        max_task_ops = max_task_ops.max(outcome.ops);
        result_bytes += outcome.result_bytes;
        stats.push(TaskStat {
            idx,
            ops: outcome.ops,
            retries: outcome.retries,
            kernels: outcome.kernels,
        });
        match outcome.result {
            Ok(out) => results.push((idx, out)),
            Err(msg) => panics.push((idx, msg)),
        }
    }
    BatchResult {
        worker: worker_id,
        results,
        panics,
        stats,
        total_ops,
        max_task_ops,
        result_bytes,
    }
}
