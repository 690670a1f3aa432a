//! The cluster handle: construction, shared driver-side state, and the
//! top-level accessors. The heavy lifting lives in the sibling modules —
//! [`crate::scheduler`] (superstep execution), [`crate::executor`] (worker
//! threads), [`crate::storage`] (dataset registry) and [`crate::lineage`]
//! (crash recovery).
//!
//! # Fault tolerance
//!
//! The engine survives the failure modes a [`crate::FaultPlan`] injects:
//!
//! - **Transient task failures** are retried on the worker with exponential
//!   backoff charged to the virtual clock; a failed launch never runs the
//!   task closure, so cached partition state is never half-mutated.
//! - **Worker crashes** lose every partition in the worker's memory. The
//!   engine respawns the worker and, for datasets created through
//!   [`Cluster::distribute_with_lineage`] / [`Cluster::distribute_replicated`],
//!   re-installs the lost partitions from their rebuild closure and replays
//!   the per-dataset task log (Spark-style lineage), restoring bit-identical
//!   state. Datasets without lineage make a crash fatal, with a clean error.
//! - **Slow tasks** stretch the superstep makespan; when speculation is on,
//!   a straggler task gets a speculative copy on the fastest other worker
//!   and the superstep completes at the earlier of the two finishes.
//!
//! Every recovery event is recorded in [`CommMetrics`] (retries, respawns,
//! recomputed partitions, re-shipped bytes, speculative wins, recovery
//! virtual time), so the cost of failure is measurable while factors,
//! errors, and op counts stay bit-identical to a fault-free run.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::config::ClusterConfig;
use crate::executor::{spawn_worker, WorkerMsg};
use crate::fault::FaultPlan;
use crate::metrics::{CommMetrics, MetricsSnapshot, VirtualDuration};
use crate::pool::{lock, PoolCounters};
use crate::storage::DatasetState;

/// Errors surfaced while booting a [`Cluster`].
#[derive(Debug)]
pub enum ClusterError {
    /// The configuration is structurally invalid (zero workers/cores).
    InvalidConfig(String),
    /// The OS refused to spawn a worker or compute-pool thread.
    WorkerSpawn {
        /// Worker machine whose threads could not be created.
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
    pub(crate) compute_threads: usize,
    /// Supersteps handed to workers so far: the index the fault plan keys
    /// its per-superstep decisions off.
    pub(crate) submitted_steps: AtomicU64,
    /// Wall-clock work-stealing statistics shared by all workers' pools.
    pub(crate) pool_counters: Arc<PoolCounters>,
    pub(crate) senders: Mutex<Vec<Sender<WorkerMsg>>>,
    pub(crate) handles: Mutex<Vec<Option<JoinHandle<()>>>>,
    pub(crate) metrics: CommMetrics,
    pub(crate) next_dataset: AtomicU64,
    pub(crate) registry: Mutex<HashMap<u64, DatasetState>>,
    pub(crate) fault: Option<Arc<FaultPlan>>,
    /// `(superstep, worker)` crash entries already fired (each at most once).
    pub(crate) crashes_done: Mutex<Vec<(u64, usize)>>,
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
    /// Panics if `config.workers == 0`, `config.cores_per_worker == 0`, a
    /// worker thread cannot be spawned, or the fault plan fails
    /// [`FaultPlan::validate`]. Use [`Cluster::try_new`] to get a typed
    /// [`ClusterError`] instead.
    pub fn new(config: ClusterConfig) -> Self {
        match Cluster::try_new(config) {
            Ok(cluster) => cluster,
            // Keep the historical bare panic messages for invalid configs.
            Err(ClusterError::InvalidConfig(msg)) => panic!("{msg}"),
            Err(err) => panic!("{err}"),
        }
    }

    /// Boots a cluster with the given configuration, surfacing invalid
    /// configurations and OS thread-spawn failures as a [`ClusterError`]
    /// instead of panicking.
    ///
    /// # Panics
    ///
    /// Still panics if the fault plan fails [`FaultPlan::validate`] (a
    /// malformed *test* plan is a programming error, not a runtime
    /// condition).
    pub fn try_new(config: ClusterConfig) -> Result<Self, ClusterError> {
        if config.workers == 0 {
            return Err(ClusterError::InvalidConfig(
                "a cluster needs at least one worker".to_string(),
            ));
        }
        if config.cores_per_worker == 0 {
            return Err(ClusterError::InvalidConfig(
                "workers need at least one core".to_string(),
            ));
        }
        if let Some(plan) = &config.fault_plan {
            plan.validate(config.workers);
        }
        let compute_threads = config.resolved_compute_threads();
        let pool_counters = Arc::new(PoolCounters::default());
        let mut senders = Vec::with_capacity(config.workers);
        let mut handles = Vec::with_capacity(config.workers);
        for worker_id in 0..config.workers {
            let (tx, rx) = std::sync::mpsc::channel::<WorkerMsg>();
            senders.push(tx);
            // On failure the earlier workers' senders drop with `senders`,
            // so their event loops exit and join on their own.
            let handle = spawn_worker(worker_id, rx, compute_threads, Arc::clone(&pool_counters))
                .map_err(|source| ClusterError::WorkerSpawn {
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
                compute_threads,
                submitted_steps: AtomicU64::new(0),
                pool_counters,
                senders: Mutex::new(senders),
                handles: Mutex::new(handles),
                next_dataset: AtomicU64::new(0),
                registry: Mutex::new(HashMap::new()),
                fault,
                crashes_done: Mutex::new(Vec::new()),
                capture_task_events: std::sync::atomic::AtomicBool::new(false),
                task_events: Mutex::new(Vec::new()),
            }),
        })
    }

    /// Number of worker machines.
    pub fn num_workers(&self) -> usize {
        self.inner.config.workers
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.inner.config
    }

    /// Current virtual clock reading.
    pub fn virtual_time(&self) -> VirtualDuration {
        self.metrics().virtual_time
    }

    /// Snapshot of the communication and compute counters, overlaid with
    /// the (wall-clock, nondeterministic) work-stealing pool statistics.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snapshot = self.inner.metrics.snapshot();
        snapshot.pool_tasks_stolen = self
            .inner
            .pool_counters
            .tasks_stolen
            .load(std::sync::atomic::Ordering::Relaxed);
        snapshot.pool_max_queue_depth = self
            .inner
            .pool_counters
            .max_queue_depth
            .load(std::sync::atomic::Ordering::Relaxed);
        snapshot
    }

    /// Charges driver-side compute (e.g. the column-update decision loop
    /// that Algorithm 4 runs on the driver) to the virtual clock.
    pub fn charge_driver(&self, ops: u64) {
        self.inner
            .metrics
            .advance_clock(ops as f64 / self.inner.config.core_throughput_ops_per_sec);
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
