//! [`LocalBackend`]: a zero-overhead, single-process
//! [`crate::ExecutionBackend`] for debugging and baselines.
//!
//! Operators run inline on the driver thread — no worker threads, no
//! channels, no boxing of task results. The backend still *meters* like
//! the cluster: partitions map to logical workers round-robin, and every
//! charge goes through the cluster's own cost model, run with
//! [`NetworkModel::free`] and no fault plan. So every transfer costs no
//! virtual time, `virtual_time` reflects pure compute, and nothing can
//! crash.
//!
//! Consequence: for the same driver run, `LocalBackend` produces
//! bit-identical factors, errors, op counts, byte counters and clock to a
//! fault-free [`crate::Cluster`] with the same `workers` ×
//! `cores_per_worker` shape and a free network; against the default
//! gigabit network only `virtual_time` differs, by exactly the network
//! term.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::backend::{ExecutionBackend, PartitionTask};
use crate::config::{ClusterConfig, NetworkModel};
use crate::executor::BatchResult;
use crate::lock;
use crate::metrics::{CommMetrics, MetricsSnapshot, WorkerLoad};
use crate::storage::Broadcast;
use crate::task::TaskContext;

struct LocalInner {
    /// The metered shape, with a free network and no fault plan.
    config: ClusterConfig,
    metrics: CommMetrics,
    capture_task_events: AtomicBool,
    task_events: Mutex<Vec<crate::TaskEvents>>,
}

/// A pure-local execution backend: plans run inline on the calling
/// thread, metered by the cluster's cost model with a free network and no
/// faults. See the module docs.
pub struct LocalBackend {
    inner: Arc<LocalInner>,
}

impl LocalBackend {
    /// A local backend metering as `workers` logical machines with
    /// `cores_per_worker` cores each, at the default core throughput.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `cores_per_worker == 0`.
    pub fn new(workers: usize, cores_per_worker: usize) -> Self {
        LocalBackend::from_cluster_config(&ClusterConfig {
            workers,
            cores_per_worker,
            ..ClusterConfig::default()
        })
    }

    /// A local backend with the worker/core/throughput shape of `config`.
    ///
    /// The network model and fault plan are ignored — that is the point
    /// of the local backend (document near any CLI flag that selects it).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`ClusterConfig::validate`].
    pub fn from_cluster_config(config: &ClusterConfig) -> Self {
        if let Err(err) = config.validate() {
            panic!("{err}");
        }
        LocalBackend {
            inner: Arc::new(LocalInner {
                config: ClusterConfig {
                    network: NetworkModel::free(),
                    fault_plan: None,
                    ..config.clone()
                },
                metrics: CommMetrics::new(config.workers),
                capture_task_events: AtomicBool::new(false),
                task_events: Mutex::new(Vec::new()),
            }),
        }
    }
}

/// A dataset held by a [`LocalBackend`]: partitions live in driver
/// memory, tagged with their logical worker for metering.
pub struct LocalDataset<P> {
    parts: Mutex<Vec<P>>,
    part_bytes: Vec<u64>,
    inner: Arc<LocalInner>,
}

impl<P> LocalDataset<P> {
    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.part_bytes.len()
    }

    /// Total metered bytes stored.
    pub fn total_bytes(&self) -> u64 {
        self.part_bytes.iter().sum()
    }
}

impl<P> Drop for LocalDataset<P> {
    fn drop(&mut self) {
        self.inner.metrics.sub_stored(self.total_bytes());
    }
}

impl ExecutionBackend for LocalBackend {
    type Dataset<P: Send + 'static> = LocalDataset<P>;

    fn name(&self) -> &'static str {
        "local"
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

    /// No faults locally, so the lineage closure is never called.
    fn distribute_with_lineage<P, F>(&self, parts: Vec<(P, u64)>, _rebuild: F) -> LocalDataset<P>
    where
        P: Send + 'static,
        F: Fn(usize) -> P + Send + Sync + 'static,
    {
        let (payloads, part_bytes): (Vec<P>, Vec<u64>) = parts.into_iter().unzip();
        self.inner
            .metrics
            .charge_distribute(&self.inner.config, &part_bytes);
        LocalDataset {
            parts: Mutex::new(payloads),
            part_bytes,
            inner: Arc::clone(&self.inner),
        }
    }

    fn broadcast<T: Send + Sync + 'static>(&self, value: T, bytes: u64) -> Broadcast<T> {
        self.inner
            .metrics
            .charge_broadcast(&self.inner.config, bytes);
        Broadcast {
            value: Arc::new(value),
            wire_id: None,
        }
    }

    /// Runs every task inline, in partition order, and charges each
    /// logical worker's share (partition `idx` belongs to worker
    /// `idx % workers`) like the cluster charges its batches.
    fn map_partitions_task<P, T, F>(&self, data: &LocalDataset<P>, f: F) -> Vec<T>
    where
        P: Send + 'static,
        T: Send + 'static,
        F: PartitionTask<P, T>,
    {
        let cfg = &self.inner.config;
        let capture = self.inner.capture_task_events.load(Ordering::Relaxed);
        let mut parts = lock(&data.parts);
        let mut out = Vec::with_capacity(parts.len());
        let mut batches: Vec<BatchResult> = (0..cfg.workers)
            .map(|worker| BatchResult {
                worker,
                results: Vec::new(),
                panics: Vec::new(),
                stats: Vec::new(),
                load: WorkerLoad::default(),
            })
            .collect();
        let mut events: Vec<crate::TaskEvents> = Vec::new();
        for (idx, part) in parts.iter_mut().enumerate() {
            let batch = &mut batches[idx % cfg.workers];
            let mut ctx = TaskContext::with_capture(batch.worker, idx, 0, capture);
            out.push(f.run(idx, part, &mut ctx));
            batch.load.add_task(ctx.ops(), ctx.result_bytes(), true);
            if capture {
                events.push(crate::TaskEvents {
                    partition: idx,
                    worker: batch.worker,
                    ops: ctx.ops(),
                    kernels: ctx.take_kernels(),
                });
            }
        }
        if capture {
            // Already in partition order (inline execution).
            *lock(&self.inner.task_events) = events;
        }
        self.inner
            .metrics
            .charge_superstep(cfg, None, &data.part_bytes, &batches);
        out
    }

    fn reset_lineage<P: Send + 'static>(&self, _data: &LocalDataset<P>) {
        // No crashes, no lineage log.
    }

    fn dataset_partitions<P: Send + 'static>(&self, data: &LocalDataset<P>) -> usize {
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
