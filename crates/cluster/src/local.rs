//! [`LocalBackend`]: a single-process [`crate::ExecutionBackend`] for
//! debugging and baselines.
//!
//! Operators run inline on the driver thread — no worker threads, no
//! channels. A superstep is the cluster's own: each logical worker's
//! partitions (placed by the one placement rule) run through the
//! executor's batch loop, on the driver thread and one worker after
//! another, and the batches merge through the same superstep merge, so a
//! task panic surfaces with the same per-partition message as on the
//! other backends. Every charge goes through the cluster's own cost model,
//! run with [`NetworkModel::free`] and no fault plan. So every transfer
//! costs no virtual time, `virtual_time` reflects pure compute, and nothing
//! can crash.
//!
//! Consequence: for the same driver run, `LocalBackend` produces
//! bit-identical factors, errors, op counts, byte counters and clock to a
//! fault-free [`crate::Cluster`] with the same `workers` ×
//! `cores_per_worker` shape and a free network; against the default
//! gigabit network only `virtual_time` differs, by exactly the network
//! term.

use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

use crate::backend::{ExecutionBackend, PartitionTask, TaskEvents};
use crate::config::{ClusterConfig, NetworkModel};
use crate::executor::{erase_task, run_batch, AnyPart};
use crate::lock;
use crate::metrics::{CommMetrics, MetricsSnapshot};
use crate::scheduler::merge_superstep;
use crate::storage::Broadcast;

struct LocalInner {
    /// The metered shape, with a free network and no fault plan.
    config: ClusterConfig,
    metrics: CommMetrics,
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
            }),
        }
    }
}

/// A dataset held by a [`LocalBackend`]: partitions live in driver
/// memory, grouped by their logical worker.
pub struct LocalDataset<P> {
    /// Each logical worker's `(global index, partition)` list.
    parts: Mutex<Vec<Vec<(usize, AnyPart)>>>,
    part_bytes: Vec<u64>,
    inner: Arc<LocalInner>,
    _marker: PhantomData<fn() -> P>,
}

impl<P> LocalDataset<P> {
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
        let cfg = &self.inner.config;
        let (per_worker, part_bytes) = cfg.place(parts, |payload| Box::new(payload) as AnyPart);
        self.inner.metrics.charge_distribute(cfg, &part_bytes);
        LocalDataset {
            parts: Mutex::new(per_worker),
            part_bytes,
            inner: Arc::clone(&self.inner),
            _marker: PhantomData,
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

    /// Runs each logical worker's batch inline, one worker after another,
    /// and merges the batches like the cluster merges its workers'
    /// replies.
    fn map_partitions_task<P, T, F>(
        &self,
        data: &LocalDataset<P>,
        task: F,
        capture: bool,
    ) -> (Vec<T>, Vec<TaskEvents>)
    where
        P: Send + 'static,
        T: Send + 'static,
        F: PartitionTask<P, T>,
    {
        let task = erase_task(task);
        let batches = lock(&data.parts)
            .iter_mut()
            .enumerate()
            .map(|(worker, parts)| run_batch(worker, parts, task.as_ref(), None, capture))
            .collect();
        merge_superstep(
            &self.inner.config,
            &self.inner.metrics,
            None,
            &data.part_bytes,
            capture,
            batches,
        )
    }

    fn reset_lineage<P: Send + 'static>(&self, _data: &LocalDataset<P>) {
        // No crashes, no lineage log.
    }

    fn core_throughput(&self) -> f64 {
        self.inner.config.core_throughput()
    }
}
