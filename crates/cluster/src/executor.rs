//! Worker-side execution: the worker event loop, per-task fault/retry
//! handling, and the intra-worker fan-out of a superstep's tasks onto the
//! worker's persistent compute pool. Everything in this module runs on
//! worker threads; the driver talks to it exclusively through
//! [`WorkerMsg`] channels.

use std::any::Any;
use std::collections::HashMap;
use std::io;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::engine::{AnyPart, TaskFaults, TaskFn};
use crate::pool::{lock, ComputePool, Job, PoolCounters};
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
    /// partition index regardless of which compute thread ran the task.
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

/// Spawns the OS thread running [`worker_loop`] for one worker machine,
/// together with its persistent compute pool (when `compute_threads > 1`).
///
/// The pool threads are created *before* the worker thread so any OS
/// thread-spawn failure surfaces here as an `Err` — callers turn it into a
/// typed [`crate::ClusterError::WorkerSpawn`] instead of panicking inside
/// the engine.
pub(crate) fn spawn_worker(
    worker_id: usize,
    rx: Receiver<WorkerMsg>,
    compute_threads: usize,
    counters: Arc<PoolCounters>,
) -> io::Result<JoinHandle<()>> {
    let pool = if compute_threads > 1 {
        Some(ComputePool::new(worker_id, compute_threads, counters)?)
    } else {
        None
    };
    std::thread::Builder::new()
        .name(format!("dbtf-worker-{worker_id}"))
        .spawn(move || worker_loop(worker_id, rx, pool))
}

fn worker_loop(worker_id: usize, rx: Receiver<WorkerMsg>, pool: Option<ComputePool>) {
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
                // Ownership of the partitions moves through the pool and
                // back: jobs must be `'static`, so borrowing the map is
                // not an option.
                let parts = datasets.remove(&dataset).unwrap_or_default();
                let (batch, parts) = run_batch(
                    worker_id,
                    parts,
                    &task,
                    fault.as_ref(),
                    pool.as_ref(),
                    capture,
                );
                if !parts.is_empty() {
                    datasets.insert(dataset, parts);
                }
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

/// Outcome of one partition task on a compute thread.
struct TaskOutcome {
    idx: usize,
    result: Result<AnyPart, String>,
    ops: u64,
    result_bytes: u64,
    /// Transiently failed launch attempts before the one that ran.
    retries: u32,
    kernels: Vec<KernelEvent>,
}

/// Collects `(partition, outcome)` pairs from pool threads and lets the
/// worker block until the whole batch has landed.
struct BatchSink {
    expected: usize,
    slots: Mutex<Vec<((usize, AnyPart), TaskOutcome)>>,
    done: Condvar,
}

impl BatchSink {
    fn push(&self, part: (usize, AnyPart), outcome: TaskOutcome) {
        let mut slots = lock(&self.slots);
        slots.push((part, outcome));
        if slots.len() == self.expected {
            self.done.notify_one();
        }
    }

    fn wait(&self) -> Vec<((usize, AnyPart), TaskOutcome)> {
        let mut slots = lock(&self.slots);
        while slots.len() < self.expected {
            slots = match self.done.wait(slots) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        std::mem::take(&mut *slots)
    }
}

/// Runs one task under `catch_unwind` so a panicking task takes down
/// neither the compute thread nor the worker; the panic payload travels to
/// the driver as a message instead. With transient faults injected, launch
/// attempts are retried deterministically (the task closure only ever runs
/// once — a failed launch has no side effects); exhausting
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
                    idx,
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
        idx,
        result,
        ops: ctx.ops(),
        result_bytes: ctx.result_bytes(),
        retries,
        kernels: ctx.take_kernels(),
    }
}

/// Executes one superstep's share of tasks on this worker. With a compute
/// pool the partitions are injected as jobs into the pool's per-thread
/// deques (idle threads steal, so uneven task costs balance out); without
/// one — or for batches of at most one task — they run inline on the
/// worker thread.
///
/// The merge is deterministic: outcomes are sorted by global partition
/// index and the ops/bytes counters are reduced in that fixed order, so
/// the reply is bit-identical for every thread count. Partitions are
/// returned (sorted by index) for re-installation into the dataset map.
pub(crate) fn run_batch(
    worker_id: usize,
    parts: Vec<(usize, AnyPart)>,
    task: &Arc<TaskFn>,
    fault: Option<&TaskFaults>,
    pool: Option<&ComputePool>,
    capture: bool,
) -> (BatchResult, Vec<(usize, AnyPart)>) {
    let mut finished: Vec<((usize, AnyPart), TaskOutcome)> = match pool {
        Some(pool) if parts.len() > 1 => {
            let sink = Arc::new(BatchSink {
                expected: parts.len(),
                slots: Mutex::new(Vec::with_capacity(parts.len())),
                done: Condvar::new(),
            });
            let jobs: Vec<Job> = parts
                .into_iter()
                .map(|(idx, mut part)| {
                    let task = Arc::clone(task);
                    let fault = fault.cloned();
                    let sink = Arc::clone(&sink);
                    Box::new(move || {
                        let outcome = run_task(
                            worker_id,
                            idx,
                            part.as_mut(),
                            task.as_ref(),
                            fault.as_ref(),
                            capture,
                        );
                        sink.push((idx, part), outcome);
                    }) as Job
                })
                .collect();
            pool.submit(jobs);
            sink.wait()
        }
        _ => parts
            .into_iter()
            .map(|(idx, mut part)| {
                let outcome =
                    run_task(worker_id, idx, part.as_mut(), task.as_ref(), fault, capture);
                ((idx, part), outcome)
            })
            .collect(),
    };
    finished.sort_by_key(|(_, outcome)| outcome.idx);

    let mut kept = Vec::with_capacity(finished.len());
    let mut results = Vec::with_capacity(finished.len());
    let mut panics = Vec::new();
    let mut stats = Vec::with_capacity(finished.len());
    let mut total_ops = 0u64;
    let mut max_task_ops = 0u64;
    let mut result_bytes = 0u64;
    for (part, outcome) in finished {
        total_ops += outcome.ops;
        max_task_ops = max_task_ops.max(outcome.ops);
        result_bytes += outcome.result_bytes;
        stats.push(TaskStat {
            idx: outcome.idx,
            ops: outcome.ops,
            retries: outcome.retries,
            kernels: outcome.kernels,
        });
        match outcome.result {
            Ok(out) => results.push((outcome.idx, out)),
            Err(msg) => panics.push((outcome.idx, msg)),
        }
        kept.push(part);
    }
    (
        BatchResult {
            worker: worker_id,
            results,
            panics,
            stats,
            total_ops,
            max_task_ops,
            result_bytes,
        },
        kept,
    )
}
