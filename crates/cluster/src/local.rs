//! [`LocalBackend`]: a zero-overhead, single-process
//! [`crate::ExecutionBackend`] for debugging and baselines.
//!
//! Operators run inline on the driver thread — no worker threads, no
//! channels, no boxing of results per message round-trip. The backend
//! still *meters* like the cluster: partitions map to logical workers
//! round-robin, every byte counter (shuffle, broadcast, collect, stored)
//! and every op/task/superstep counter is accumulated with exactly the
//! cluster's accounting, and the virtual clock advances by the same
//! compute-makespan formula. The one deliberate difference is **network
//! costing**: no `transfer_secs` charges are applied, so `virtual_time`
//! reflects pure compute. Fault injection is also absent (nothing can
//! crash — there is nothing to recover).
//!
//! Consequence: for the same driver run, `LocalBackend` produces
//! bit-identical factors, errors, op counts, and Lemma 6/7 byte counters
//! to a fault-free [`crate::Cluster`] with the same `workers` ×
//! `cores_per_worker` shape — only `virtual_time` differs, by exactly the
//! network term.

use std::sync::{Arc, Mutex};

use crate::backend::{ExecutionBackend, PartitionTask};
use crate::config::ClusterConfig;
use crate::lock;
use crate::metrics::{CommMetrics, MetricsSnapshot};
use crate::storage::Broadcast;
use crate::task::TaskContext;

struct LocalInner {
    workers: usize,
    cores_per_worker: usize,
    core_throughput: f64,
    metrics: CommMetrics,
    capture_task_events: std::sync::atomic::AtomicBool,
    task_events: Mutex<Vec<crate::TaskEvents>>,
}

/// A pure-local execution backend: plans run inline on the calling
/// thread, with cluster-identical byte/op metering and compute-only
/// virtual time (no network model, no faults). See the module docs.
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
        LocalBackend::with_throughput(
            workers,
            cores_per_worker,
            ClusterConfig::default().core_throughput_ops_per_sec,
        )
    }

    /// [`LocalBackend::new`] with an explicit per-core throughput
    /// (abstract ops per virtual second) for the compute clock.
    pub fn with_throughput(workers: usize, cores_per_worker: usize, core_throughput: f64) -> Self {
        assert!(workers > 0, "a backend needs at least one logical worker");
        assert!(cores_per_worker > 0, "workers need at least one core");
        LocalBackend {
            inner: Arc::new(LocalInner {
                workers,
                cores_per_worker,
                core_throughput,
                metrics: CommMetrics::new(workers),
                capture_task_events: std::sync::atomic::AtomicBool::new(false),
                task_events: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A local backend with the worker/core/throughput shape of `config`.
    ///
    /// The network model, straggler settings and fault plan are ignored —
    /// that is the point of the local backend (document near any CLI flag
    /// that selects it).
    pub fn from_cluster_config(config: &ClusterConfig) -> Self {
        LocalBackend::with_throughput(
            config.workers,
            config.cores_per_worker,
            config.core_throughput_ops_per_sec,
        )
    }

    /// Number of logical workers used for metering.
    pub fn num_workers(&self) -> usize {
        self.inner.workers
    }

    /// Snapshot of the communication and compute counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// Current virtual clock reading (compute-only; the local backend
    /// charges no network time).
    pub fn virtual_time(&self) -> crate::VirtualDuration {
        self.metrics().virtual_time
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
        self.inner.workers
    }

    fn suggested_partitions(&self) -> usize {
        self.inner.workers * self.inner.cores_per_worker
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    fn charge_driver(&self, ops: u64) {
        self.inner
            .metrics
            .advance_clock(ops as f64 / self.inner.core_throughput);
    }

    fn distribute_with_lineage<P, F>(&self, parts: Vec<(P, u64)>, _rebuild: F) -> LocalDataset<P>
    where
        P: Send + 'static,
        F: Fn(usize) -> P + Send + Sync + 'static,
    {
        // No faults locally, so the lineage closure is never needed; the
        // shuffle/store metering matches the cluster's, the network-time
        // charge is deliberately skipped.
        let mut payloads = Vec::with_capacity(parts.len());
        let mut part_bytes = Vec::with_capacity(parts.len());
        for (payload, bytes) in parts {
            payloads.push(payload);
            part_bytes.push(bytes);
        }
        let total: u64 = part_bytes.iter().sum();
        self.inner.metrics.add_shuffled(total);
        self.inner.metrics.add_stored(total);
        LocalDataset {
            parts: Mutex::new(payloads),
            part_bytes,
            inner: Arc::clone(&self.inner),
        }
    }

    fn broadcast<T: Send + Sync + 'static>(&self, value: T, bytes: u64) -> Broadcast<T> {
        // Byte metering only — the local backend never charges network
        // time (see the module docs).
        self.inner
            .metrics
            .add_broadcast(bytes * self.inner.workers as u64);
        Broadcast {
            value: Arc::new(value),
            wire_id: None,
        }
    }

    fn map_partitions_task<P, T, F>(&self, data: &LocalDataset<P>, f: F) -> Vec<T>
    where
        P: Send + 'static,
        T: Send + 'static,
        F: PartitionTask<P, T>,
    {
        let workers = self.inner.workers;
        let metrics = &self.inner.metrics;
        let capture = self
            .inner
            .capture_task_events
            .load(std::sync::atomic::Ordering::Relaxed);
        let mut parts = lock(&data.parts);
        let mut out = Vec::with_capacity(parts.len());
        // Per-logical-worker accounting, identical to the cluster's batch
        // reduction: partition `idx` belongs to worker `idx % workers`.
        let mut total_ops = vec![0u64; workers];
        let mut max_task_ops = vec![0u64; workers];
        let mut result_bytes = vec![0u64; workers];
        let mut tasks = vec![0u64; workers];
        let mut events: Vec<crate::TaskEvents> = Vec::new();
        for (idx, part) in parts.iter_mut().enumerate() {
            let w = idx % workers;
            let mut ctx = TaskContext::with_capture(w, idx, 0, capture);
            out.push(f.run(idx, part, &mut ctx));
            total_ops[w] += ctx.ops();
            max_task_ops[w] = max_task_ops[w].max(ctx.ops());
            result_bytes[w] += ctx.result_bytes();
            tasks[w] += 1;
            if capture {
                events.push(crate::TaskEvents {
                    partition: idx,
                    worker: w,
                    ops: ctx.ops(),
                    kernels: ctx.take_kernels(),
                });
            }
        }
        if capture {
            // Already in partition order (inline execution).
            *lock(&self.inner.task_events) = events;
        }
        // Fold the per-worker batches in worker order — the same fixed
        // reduction order as the cluster (every worker replies, including
        // idle ones), so byte/message/op counters match bit-for-bit. Only
        // the collect network time is skipped.
        let times: Vec<f64> = (0..workers)
            .map(|w| {
                (total_ops[w] as f64
                    / (self.inner.cores_per_worker as f64 * self.inner.core_throughput))
                    .max(max_task_ops[w] as f64 / self.inner.core_throughput)
            })
            .collect();
        // Idle meter, for parity with the cluster (observability only —
        // excluded from snapshot equality).
        let times_makespan = times.iter().fold(0.0f64, |a, &b| a.max(b));
        let idle: f64 = times.iter().map(|&t| times_makespan - t).sum();
        if idle > 0.0 {
            metrics.add_pool_idle(idle);
        }
        let mut makespan = 0.0f64;
        {
            let mut busy = lock(&metrics.worker_busy_secs);
            for (w, &time) in times.iter().enumerate() {
                busy[w] += time;
                makespan = makespan.max(time);
                metrics.add_collected(result_bytes[w]);
                metrics
                    .total_ops
                    .fetch_add(total_ops[w], std::sync::atomic::Ordering::Relaxed);
                metrics
                    .tasks_run
                    .fetch_add(tasks[w], std::sync::atomic::Ordering::Relaxed);
            }
        }
        metrics.advance_clock(makespan);
        metrics
            .supersteps
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        out
    }

    fn gather<P>(&self, data: &LocalDataset<P>) -> Vec<P>
    where
        P: Clone + Send + 'static,
    {
        let bytes = data.part_bytes.clone();
        self.map_partitions(data, move |idx, part: &mut P, ctx: &mut TaskContext| {
            ctx.set_result_bytes(bytes[idx]);
            part.clone()
        })
    }

    fn reset_lineage<P: Send + 'static>(&self, _data: &LocalDataset<P>) {
        // No crashes, no lineage log.
    }

    fn dataset_partitions<P: Send + 'static>(&self, data: &LocalDataset<P>) -> usize {
        data.num_partitions()
    }

    fn set_task_event_capture(&self, on: bool) {
        self.inner
            .capture_task_events
            .store(on, std::sync::atomic::Ordering::Relaxed);
    }

    fn take_task_events(&self) -> Vec<crate::TaskEvents> {
        std::mem::take(&mut *lock(&self.inner.task_events))
    }

    fn core_throughput(&self, worker: usize) -> f64 {
        let _ = worker;
        self.inner.core_throughput
    }
}
