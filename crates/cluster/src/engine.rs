//! The cluster handle: construction, shared driver-side state, its
//! [`ExecutionBackend`] operators, and simulated crashes. The rest lives in
//! the sibling modules — [`crate::scheduler`] (the superstep merge),
//! [`crate::executor`] (one thread per worker, tasks run inline),
//! [`crate::storage`] (dataset handles), [`crate::lineage`] (the lineage
//! book and its recovery pass) and [`crate::metrics`] (the cost model).
//!
//! # Fault tolerance
//!
//! The engine survives the failure modes a [`crate::FaultPlan`] injects:
//!
//! - **Transient task failures** are retried on the worker with exponential
//!   backoff charged to the virtual clock; a failed launch never runs the
//!   task closure, so cached partition state is never half-mutated.
//! - **Worker crashes** lose every partition in the worker's memory. The
//!   engine restores the worker through the lineage book: it re-installs
//!   the lost partitions from the dataset's rebuild closure and replays the
//!   per-dataset task log (Spark-style lineage), restoring bit-identical
//!   state.
//! - **Slow tasks** stretch the superstep makespan; on more than one worker,
//!   a straggler task gets a speculative copy on another worker and the
//!   superstep completes at the earlier of the two finishes.
//!
//! Every recovery event is recorded in [`CommMetrics`] (retries, respawns,
//! recomputed partitions, re-shipped bytes, speculative wins, recovery
//! virtual time), so the cost of failure is measurable while factors,
//! errors, and op counts stay bit-identical to a fault-free run.

use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::backend::{ExecutionBackend, PartitionTask, TaskEvents};
use crate::config::ClusterConfig;
use crate::executor::{
    erase_task, spawn_worker, AnyPart, BatchResult, TaskFaults, TaskFn, WorkerMsg,
};
use crate::fault::FaultPlan;
use crate::lineage::{LineageBook, Replayed, Restore};
use crate::lock;
use crate::metrics::{CommMetrics, MetricsSnapshot, VirtualDuration};
use crate::scheduler::merge_superstep;
use crate::storage::{Broadcast, DistVec};

/// The engine's errors: a failed boot, or an operator it cannot complete.
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
    /// A superstep's task panicked or exhausted its launch attempts; the
    /// message names each failed partition, its worker and the cause.
    TaskFailed(String),
}

/// What an engine operator returns: its value, or the [`ClusterError`] it
/// failed with.
pub type Result<T, E = ClusterError> = std::result::Result<T, E>;

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::InvalidConfig(msg) | ClusterError::TaskFailed(msg) => f.write_str(msg),
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
            | ClusterError::Net(_)
            | ClusterError::TaskFailed(_) => None,
            ClusterError::WorkerSpawn { source, .. } => Some(source),
        }
    }
}

/// Shared driver-side state of a [`Cluster`].
pub(crate) struct Inner {
    pub(crate) config: ClusterConfig,
    /// Supersteps handed to workers so far: the index the fault plan keys
    /// its per-superstep decisions off.
    pub(crate) submitted_steps: AtomicU64,
    /// One mailbox per worker thread, for the cluster's lifetime.
    pub(crate) senders: Vec<Sender<WorkerMsg>>,
    /// The worker threads, joined when the cluster drops.
    pub(crate) handles: Mutex<Vec<JoinHandle<()>>>,
    pub(crate) metrics: CommMetrics,
    /// Every live dataset's lineage: rebuilt partitions travel as boxed
    /// payloads, logged tasks as the closures the workers ran.
    pub(crate) lineage: LineageBook<Vec<(usize, AnyPart)>, Arc<TaskFn>>,
    pub(crate) fault: Option<Arc<FaultPlan>>,
}

/// A simulated cluster: one driver (the calling thread) plus
/// `config.workers` worker threads with shared-nothing partition storage.
///
/// See the crate docs for the execution and virtual-time model. Dropping the
/// `Cluster` shuts the workers down. `Cluster` is the multi-worker
/// implementation of [`crate::ExecutionBackend`]; drivers that want a
/// single-process run without worker threads use [`crate::LocalBackend`]
/// instead.
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
    pub fn try_new(config: ClusterConfig) -> Result<Self> {
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
            handles.push(handle);
        }
        let fault = config.fault_plan.clone().map(Arc::new);
        Ok(Cluster {
            inner: Arc::new(Inner {
                metrics: CommMetrics::new(config.workers),
                config,
                submitted_steps: AtomicU64::new(0),
                senders,
                handles: Mutex::new(handles),
                lineage: LineageBook::new(),
                fault,
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

    /// Fires every crash the fault plan injects at `step` — scheduled
    /// `(superstep, worker)` entries plus seed-hashed `process_kill_rate`
    /// draws, via [`crate::FaultPlan::kills_at`] — each at most once, and
    /// recovers from each.
    fn inject_crashes(&self, step: u64) {
        let inner = &self.inner;
        for w in inner
            .metrics
            .crashes_to_fire(inner.fault.as_deref(), step, inner.config.workers)
        {
            self.crash_and_recover(w);
        }
    }

    /// Crashes worker `w` — it drops every partition in its memory — and
    /// restores it through the lineage book.
    fn crash_and_recover(&self, w: usize) {
        let inner = &self.inner;
        let sender = &inner.senders[w];
        sender.send(WorkerMsg::Crash).expect("worker hung up");
        inner.metrics.charge_respawn();
        let Ok(()) = inner
            .lineage
            .recover(&inner.config, &inner.metrics, w, &mut Mailbox(sender));
    }
}

/// One worker's mailbox, as the driver asks it for something; also the
/// cluster's recovery transport.
pub(crate) struct Mailbox<'a>(pub(crate) &'a Sender<WorkerMsg>);

impl Mailbox<'_> {
    /// Sends the message `msg` builds around a reply channel and waits for
    /// the reply.
    pub(crate) fn ask<R>(&self, msg: impl FnOnce(Sender<R>) -> WorkerMsg) -> R {
        let (reply, replied) = channel();
        self.0.send(msg(reply)).expect("worker hung up");
        replied.recv().expect("worker hung up")
    }
}

impl Restore<Vec<(usize, AnyPart)>, Arc<TaskFn>> for Mailbox<'_> {
    type Error = Infallible;

    fn install(&mut self, dataset: u64, parts: Vec<(usize, AnyPart)>) -> Result<(), Infallible> {
        self.ask(|ack| WorkerMsg::Store {
            dataset,
            parts,
            ack,
        });
        Ok(())
    }

    fn replay(&mut self, dataset: u64, task: &Arc<TaskFn>) -> Result<Option<Replayed>, Infallible> {
        let batch = self.ask(|reply| WorkerMsg::Run {
            dataset,
            task: Arc::clone(task),
            fault: None,
            capture: false,
            reply,
        });
        Ok(Some(Replayed {
            panics: batch.panics,
            total_ops: batch.load.total_ops,
            max_task_ops: batch.load.max_task_ops,
        }))
    }
}

impl ExecutionBackend for Cluster {
    type Dataset<P: Send + 'static> = DistVec<P>;

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

    fn distribute_with_lineage<P, F>(&self, parts: Vec<(P, u64)>, rebuild: F) -> Result<DistVec<P>>
    where
        P: Send + 'static,
        F: Fn(usize) -> P + Send + Sync + 'static,
    {
        let inner = &self.inner;
        let id = inner.lineage.allocate();
        let (per_worker, part_bytes) = inner
            .config
            .place(parts, |payload| Box::new(payload) as AnyPart);
        inner.metrics.charge_distribute(&inner.config, &part_bytes);

        for (sender, batch) in inner.senders.iter().zip(per_worker) {
            if !batch.is_empty() {
                let Ok(()) = Mailbox(sender).install(id, batch);
            }
        }
        inner.lineage.insert(
            id,
            part_bytes.clone(),
            Box::new(move |lost: &[usize]| {
                lost.iter()
                    .map(|&idx| (idx, Box::new(rebuild(idx)) as AnyPart))
                    .collect()
            }),
        );
        Ok(DistVec {
            id,
            part_bytes,
            inner: Arc::clone(inner),
            _marker: std::marker::PhantomData,
        })
    }

    /// Locally a zero-copy `Arc`; the cost model charges the transfers.
    fn broadcast<T: Send + Sync + 'static>(&self, value: T, bytes: u64) -> Result<Broadcast<T>> {
        self.inner
            .metrics
            .charge_broadcast(&self.inner.config, bytes);
        Ok(Broadcast {
            value: Arc::new(value),
            wire_id: None,
        })
    }

    /// The task is shipped to every worker thread before any reply is
    /// collected, so all workers compute concurrently.
    fn map_partitions_task<P, T, F>(
        &self,
        data: &DistVec<P>,
        task: F,
        capture: bool,
    ) -> Result<(Vec<T>, Vec<TaskEvents>)>
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

        let task = erase_task(task);
        // Record the task in the dataset's lineage log (replayed after a
        // crash) before it runs anywhere.
        inner.lineage.log(data.id, Arc::clone(&task));

        let task_faults: Option<TaskFaults> = inner
            .fault
            .as_ref()
            .filter(|plan| plan.task_failure_rate > 0.0)
            .map(|plan| (Arc::clone(plan), step));

        let (reply_tx, reply_rx): (Sender<BatchResult>, Receiver<BatchResult>) = channel();
        for sender in &inner.senders {
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

        let batches: Vec<BatchResult> = (0..inner.senders.len())
            .map(|_| reply_rx.recv().expect("worker hung up"))
            .collect();
        merge_superstep(
            &inner.config,
            &inner.metrics,
            inner.fault.as_deref().map(|plan| (plan, step)),
            &data.part_bytes,
            capture,
            batches,
        )
    }

    fn reset_lineage<P: Send + 'static>(&self, data: &DistVec<P>) {
        assert!(
            Arc::ptr_eq(&self.inner, &data.inner),
            "dataset belongs to a different cluster"
        );
        self.inner.lineage.reset(data.id);
    }

    fn core_throughput(&self) -> f64 {
        self.inner.config.core_throughput()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for sender in &self.inner.senders {
            let _ = sender.send(WorkerMsg::Shutdown);
        }
        for handle in lock(&self.inner.handles).drain(..) {
            let _ = handle.join();
        }
    }
}
