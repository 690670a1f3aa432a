//! The cluster handle: construction, shared driver-side state, and its
//! [`ExecutionBackend`] operators. The rest lives in the sibling modules —
//! [`crate::scheduler`] (the superstep merge), [`crate::executor`] (one
//! thread per worker, tasks run inline), [`crate::storage`] (dataset
//! registry), [`crate::lineage`] (crash recovery) and [`crate::metrics`]
//! (the cost model).
//!
//! # Fault tolerance
//!
//! The engine survives the failure modes a [`crate::FaultPlan`] injects:
//!
//! - **Transient task failures** are retried on the worker with exponential
//!   backoff charged to the virtual clock; a failed launch never runs the
//!   task closure, so cached partition state is never half-mutated.
//! - **Worker crashes** lose every partition in the worker's memory. The
//!   engine respawns the worker, re-installs the lost partitions from the
//!   dataset's rebuild closure and replays the per-dataset task log
//!   (Spark-style lineage), restoring bit-identical state.
//! - **Slow tasks** stretch the superstep makespan; when speculation is on,
//!   a straggler task gets a speculative copy on another worker and the
//!   superstep completes at the earlier of the two finishes.
//!
//! Every recovery event is recorded in [`CommMetrics`] (retries, respawns,
//! recomputed partitions, re-shipped bytes, speculative wins, recovery
//! virtual time), so the cost of failure is measurable while factors,
//! errors, and op counts stay bit-identical to a fault-free run.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::backend::{ExecutionBackend, PartitionTask};
use crate::config::ClusterConfig;
use crate::executor::{spawn_worker, BatchResult, WorkerMsg};
use crate::fault::FaultPlan;
use crate::lock;
use crate::metrics::{CommMetrics, MetricsSnapshot, VirtualDuration};
use crate::scheduler::merge_superstep;
use crate::storage::{Broadcast, DatasetState, DistVec};

/// Errors surfaced while booting a [`Cluster`].
#[derive(Debug)]
pub enum ClusterError {
    /// The configuration is structurally invalid (zero workers/cores).
    InvalidConfig(String),
    /// The OS refused to spawn a worker thread.
    WorkerSpawn {
        /// Worker machine whose thread could not be created.
        worker: usize,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A networked worker process died more times than the supervisor's
    /// respawn budget allows; the run degrades gracefully (checkpoint
    /// flush, typed error) instead of looping on recovery forever.
    RespawnBudgetExhausted {
        /// Worker whose process kept dying.
        worker: usize,
        /// Respawns performed for this worker before giving up.
        respawns: u32,
    },
    /// A networked-backend I/O failure that retries and reconnects could
    /// not mask (listener setup, handshake, unrecoverable socket error).
    Net(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::InvalidConfig(msg) => f.write_str(msg),
            ClusterError::WorkerSpawn { worker, source } => {
                write!(f, "failed to spawn threads for worker {worker}: {source}")
            }
            ClusterError::RespawnBudgetExhausted { worker, respawns } => write!(
                f,
                "worker {worker} exhausted its respawn budget ({respawns} respawns); \
                 giving up on recovery"
            ),
            ClusterError::Net(msg) => write!(f, "network backend failure: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::InvalidConfig(_)
            | ClusterError::RespawnBudgetExhausted { .. }
            | ClusterError::Net(_) => None,
            ClusterError::WorkerSpawn { source, .. } => Some(source),
        }
    }
}

/// A type-erased partition payload as it travels to and from workers.
pub(crate) type AnyPart = Box<dyn Any + Send>;
/// A type-erased partition task (global index, partition, context → result).
pub(crate) type TaskFn =
    dyn Fn(usize, &mut (dyn Any + Send), &mut crate::task::TaskContext) -> AnyPart + Send + Sync;
/// Recomputes a partition's distribute-time payload from its global index.
pub(crate) type RebuildFn = dyn Fn(usize) -> AnyPart + Send + Sync;

/// Fault context shipped with a superstep: the plan plus the superstep
/// index, enough for a worker to make deterministic per-attempt decisions.
pub(crate) type TaskFaults = (Arc<FaultPlan>, u64);

/// Shared driver-side state of a [`Cluster`].
pub(crate) struct Inner {
    pub(crate) config: ClusterConfig,
    /// Supersteps handed to workers so far: the index the fault plan keys
    /// its per-superstep decisions off.
    pub(crate) submitted_steps: AtomicU64,
    pub(crate) senders: Mutex<Vec<Sender<WorkerMsg>>>,
    pub(crate) handles: Mutex<Vec<Option<JoinHandle<()>>>>,
    pub(crate) metrics: CommMetrics,
    pub(crate) next_dataset: AtomicU64,
    pub(crate) registry: Mutex<HashMap<u64, DatasetState>>,
    pub(crate) fault: Option<Arc<FaultPlan>>,
    /// When set, supersteps ship per-kernel events back to the driver
    /// (tracing on). Purely observational — never affects metering.
    pub(crate) capture_task_events: std::sync::atomic::AtomicBool,
    /// Task events of the most recent superstep, sorted by partition
    /// index; drained by [`crate::ExecutionBackend::take_task_events`].
    pub(crate) task_events: Mutex<Vec<crate::TaskEvents>>,
}

/// A simulated cluster: one driver (the calling thread) plus
/// `config.workers` worker threads with shared-nothing partition storage.
///
/// See the crate docs for the execution and virtual-time model. Dropping the
/// `Cluster` shuts the workers down. `Cluster` is the multi-worker
/// implementation of [`crate::ExecutionBackend`]; drivers that want a
/// zero-overhead single-process run use [`crate::LocalBackend`] instead.
pub struct Cluster {
    pub(crate) inner: Arc<Inner>,
}

impl Cluster {
    /// Boots a cluster with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`ClusterConfig::validate`] or a worker
    /// thread cannot be spawned. Use [`Cluster::try_new`] to get a typed
    /// [`ClusterError`] instead.
    pub fn new(config: ClusterConfig) -> Self {
        Cluster::try_new(config).unwrap_or_else(|err| panic!("{err}"))
    }

    /// Boots a cluster with the given configuration, surfacing invalid
    /// configurations and OS thread-spawn failures as a [`ClusterError`]
    /// instead of panicking.
    pub fn try_new(config: ClusterConfig) -> Result<Self, ClusterError> {
        config.validate()?;
        let mut senders = Vec::with_capacity(config.workers);
        let mut handles = Vec::with_capacity(config.workers);
        for worker_id in 0..config.workers {
            let (tx, rx) = std::sync::mpsc::channel::<WorkerMsg>();
            senders.push(tx);
            // On failure the earlier workers' senders drop with `senders`,
            // so their event loops exit and join on their own.
            let handle =
                spawn_worker(worker_id, rx).map_err(|source| ClusterError::WorkerSpawn {
                    worker: worker_id,
                    source,
                })?;
            handles.push(Some(handle));
        }
        let fault = config.fault_plan.clone().map(Arc::new);
        Ok(Cluster {
            inner: Arc::new(Inner {
                metrics: CommMetrics::new(config.workers),
                config,
                submitted_steps: AtomicU64::new(0),
                senders: Mutex::new(senders),
                handles: Mutex::new(handles),
                next_dataset: AtomicU64::new(0),
                registry: Mutex::new(HashMap::new()),
                fault,
                capture_task_events: std::sync::atomic::AtomicBool::new(false),
                task_events: Mutex::new(Vec::new()),
            }),
        })
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.inner.config
    }

    /// Current virtual clock reading.
    pub fn virtual_time(&self) -> VirtualDuration {
        self.metrics().virtual_time
    }
}

impl ExecutionBackend for Cluster {
    type Dataset<P: Send + 'static> = DistVec<P>;

    fn name(&self) -> &'static str {
        "cluster"
    }

    fn workers(&self) -> usize {
        self.inner.config.workers
    }

    fn suggested_partitions(&self) -> usize {
        self.inner.config.workers * self.inner.config.cores_per_worker
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    fn charge_driver(&self, ops: u64) {
        self.inner.metrics.charge_driver(&self.inner.config, ops);
    }

    fn distribute_with_lineage<P, F>(&self, parts: Vec<(P, u64)>, rebuild: F) -> DistVec<P>
    where
        P: Send + 'static,
        F: Fn(usize) -> P + Send + Sync + 'static,
    {
        let inner = &self.inner;
        let nparts = parts.len();
        let id = inner.next_dataset.fetch_add(1, Ordering::Relaxed);
        let workers = inner.config.workers;
        let mut per_worker: Vec<Vec<(usize, AnyPart)>> = (0..workers).map(|_| Vec::new()).collect();
        let mut placement = Vec::with_capacity(nparts);
        let mut part_bytes = Vec::with_capacity(nparts);
        for (idx, (payload, bytes)) in parts.into_iter().enumerate() {
            let w = idx % workers;
            placement.push(w);
            part_bytes.push(bytes);
            per_worker[w].push((idx, Box::new(payload)));
        }
        inner.metrics.charge_distribute(&inner.config, &part_bytes);

        lock(&inner.registry).insert(
            id,
            DatasetState {
                placement: placement.clone(),
                part_bytes: part_bytes.clone(),
                rebuild: Box::new(move |idx| Box::new(rebuild(idx)) as AnyPart),
                log: Vec::new(),
            },
        );

        let senders = lock(&inner.senders).clone();
        let (ack_tx, ack_rx) = channel();
        let mut expected = 0;
        for (w, batch) in per_worker.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            expected += 1;
            senders[w]
                .send(WorkerMsg::Store {
                    dataset: id,
                    parts: batch,
                    ack: ack_tx.clone(),
                })
                .expect("worker hung up");
        }
        for _ in 0..expected {
            ack_rx.recv().expect("worker hung up");
        }
        DistVec {
            id,
            nparts,
            placement,
            part_bytes,
            inner: Arc::clone(inner),
            _marker: std::marker::PhantomData,
        }
    }

    /// Locally a zero-copy `Arc`; the cost model charges the transfers.
    fn broadcast<T: Send + Sync + 'static>(&self, value: T, bytes: u64) -> Broadcast<T> {
        self.inner
            .metrics
            .charge_broadcast(&self.inner.config, bytes);
        Broadcast {
            value: Arc::new(value),
            wire_id: None,
        }
    }

    /// The task is shipped to every worker thread before any reply is
    /// collected, so all workers compute concurrently.
    fn map_partitions_task<P, T, F>(&self, data: &DistVec<P>, f: F) -> Vec<T>
    where
        P: Send + 'static,
        T: Send + 'static,
        F: PartitionTask<P, T>,
    {
        let inner = &self.inner;
        assert!(
            Arc::ptr_eq(inner, &data.inner),
            "dataset belongs to a different cluster"
        );
        // Supersteps are numbered in execution order; the fault plan keys
        // its crash, failure and slowdown decisions off this index.
        let step = inner.submitted_steps.fetch_add(1, Ordering::Relaxed);
        self.inject_crashes(step);

        let task: Arc<TaskFn> = Arc::new(move |idx, part, ctx| {
            let part = part
                .downcast_mut::<P>()
                .expect("partition type mismatch: DistVec used with wrong element type");
            Box::new(f.run(idx, part, ctx)) as AnyPart
        });
        // Record the task in the dataset's lineage log (replayed after a
        // crash) before it runs anywhere.
        if let Some(ds) = lock(&inner.registry).get_mut(&data.id) {
            ds.log.push(Arc::clone(&task));
        }

        let task_faults: Option<TaskFaults> = inner
            .fault
            .as_ref()
            .filter(|plan| plan.task_failure_rate > 0.0)
            .map(|plan| (Arc::clone(plan), step));

        let capture = inner.capture_task_events.load(Ordering::Relaxed);
        let (reply_tx, reply_rx): (Sender<BatchResult>, Receiver<BatchResult>) = channel();
        let senders = lock(&inner.senders).clone();
        for sender in &senders {
            sender
                .send(WorkerMsg::Run {
                    dataset: data.id,
                    task: Arc::clone(&task),
                    fault: task_faults.clone(),
                    capture,
                    reply: reply_tx.clone(),
                })
                .expect("worker hung up");
        }
        drop(reply_tx);

        let batches: Vec<BatchResult> = (0..senders.len())
            .map(|_| reply_rx.recv().expect("worker hung up"))
            .collect();
        merge_superstep(
            &inner.config,
            &inner.metrics,
            inner.fault.as_deref().map(|plan| (plan, step)),
            data.nparts,
            &data.part_bytes,
            capture,
            batches,
            &inner.task_events,
        )
    }

    fn reset_lineage<P: Send + 'static>(&self, data: &DistVec<P>) {
        assert!(
            Arc::ptr_eq(&self.inner, &data.inner),
            "dataset belongs to a different cluster"
        );
        if let Some(ds) = lock(&self.inner.registry).get_mut(&data.id) {
            ds.log.clear();
        }
    }

    fn dataset_partitions<P: Send + 'static>(&self, data: &DistVec<P>) -> usize {
        data.num_partitions()
    }

    fn set_task_event_capture(&self, on: bool) {
        self.inner.capture_task_events.store(on, Ordering::Relaxed);
    }

    fn take_task_events(&self) -> Vec<crate::TaskEvents> {
        std::mem::take(&mut *lock(&self.inner.task_events))
    }

    fn core_throughput(&self) -> f64 {
        self.inner.config.core_throughput()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for sender in lock(&self.inner.senders).iter() {
            let _ = sender.send(WorkerMsg::Shutdown);
        }
        for handle in lock(&self.inner.handles).iter_mut() {
            if let Some(handle) = handle.take() {
                let _ = handle.join();
            }
        }
    }
}
