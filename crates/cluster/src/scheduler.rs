//! Driver-side scheduling: partition placement, superstep execution with
//! deterministic result merging, the virtual-time cost model (makespan,
//! slow tasks, retry backoff, speculation), and the [`Scheduler`] that
//! executes dataflow plans against any [`ExecutionBackend`] while
//! recording the per-operator trace.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use crate::backend::{ExecutionBackend, PartitionTask};
use crate::engine::{AnyPart, Cluster, RebuildFn, TaskFaults, TaskFn};
use crate::executor::{BatchResult, WorkerMsg};
use crate::lock;
use crate::plan::{OpKind, OpRecord, PlanTrace};
use crate::storage::{Broadcast, DatasetState, DistVec};
use crate::task::TaskContext;
use dbtf_telemetry::{SpanKind, Tracer};

impl Cluster {
    /// Shuffles `parts` across the workers round-robin and persists them in
    /// worker memory, returning a handle to the distributed dataset.
    ///
    /// Each element is `(partition_payload, payload_bytes)`; the byte sizes
    /// meter the shuffle (Lemma 6: `O(|X|)` for the unfolded tensors) and
    /// the per-worker memory footprint. Partition `p` lands on worker
    /// `p mod workers`, which for DBTF's equal-width vertical partitions
    /// balances load like the paper's Spark partitioner.
    ///
    /// Datasets created this way carry **no lineage**: if a fault plan
    /// crashes a worker holding one of their partitions, the run fails with
    /// a clean error. Use [`Cluster::distribute_with_lineage`] or
    /// [`Cluster::distribute_replicated`] for crash-recoverable datasets.
    pub fn distribute<P: Send + 'static>(&self, parts: Vec<(P, u64)>) -> DistVec<P> {
        self.distribute_inner(parts, None)
    }

    /// Like [`Cluster::distribute`], but records `rebuild` as the dataset's
    /// lineage: after a worker crash, the engine calls `rebuild(idx)` to
    /// recompute each lost partition's distribute-time payload, re-ships it
    /// to the respawned worker, and replays every task applied since
    /// distribution (or since the last [`Cluster::reset_lineage`]) to
    /// restore bit-identical partition state.
    ///
    /// `rebuild(idx)` must reproduce the exact payload passed for partition
    /// `idx` — the engine's RDD-style "recompute from source" contract.
    pub fn distribute_with_lineage<P, F>(&self, parts: Vec<(P, u64)>, rebuild: F) -> DistVec<P>
    where
        P: Send + 'static,
        F: Fn(usize) -> P + Send + Sync + 'static,
    {
        self.distribute_inner(
            parts,
            Some(Arc::new(move |idx| Box::new(rebuild(idx)) as AnyPart)),
        )
    }

    /// Like [`Cluster::distribute_with_lineage`] with the lineage closure
    /// built from a driver-retained replica: payloads are cloned once at
    /// distribute time and lost partitions are re-shipped from the replica
    /// after a crash. Convenient when `P: Clone` and no cheap recompute
    /// exists.
    pub fn distribute_replicated<P>(&self, parts: Vec<(P, u64)>) -> DistVec<P>
    where
        P: Clone + Send + Sync + 'static,
    {
        let replica: Arc<Vec<P>> = Arc::new(parts.iter().map(|(p, _)| p.clone()).collect());
        self.distribute_with_lineage(parts, move |idx| replica[idx].clone())
    }

    fn distribute_inner<P: Send + 'static>(
        &self,
        parts: Vec<(P, u64)>,
        rebuild: Option<Arc<RebuildFn>>,
    ) -> DistVec<P> {
        let nparts = parts.len();
        let id = self.inner.next_dataset.fetch_add(1, Ordering::Relaxed);
        let workers = self.num_workers();
        let mut per_worker: Vec<Vec<(usize, AnyPart)>> = (0..workers).map(|_| Vec::new()).collect();
        let mut placement = Vec::with_capacity(nparts);
        let mut part_bytes = Vec::with_capacity(nparts);
        let mut worker_bytes = vec![0u64; workers];
        for (idx, (payload, bytes)) in parts.into_iter().enumerate() {
            let w = idx % workers;
            placement.push(w);
            part_bytes.push(bytes);
            worker_bytes[w] += bytes;
            per_worker[w].push((idx, Box::new(payload)));
        }
        // Meter the shuffle: the whole dataset crosses the network once;
        // workers receive in parallel, so the step costs the slowest link.
        let total_bytes: u64 = worker_bytes.iter().sum();
        self.inner.metrics.add_shuffled(total_bytes);
        self.inner.metrics.add_stored(total_bytes);
        let net = &self.inner.config.network;
        let step = worker_bytes
            .iter()
            .map(|&b| net.transfer_secs(b))
            .fold(0.0, f64::max);
        self.inner.metrics.advance_clock(step);

        lock(&self.inner.registry).insert(
            id,
            DatasetState {
                placement: placement.clone(),
                part_bytes: part_bytes.clone(),
                rebuild,
                log: Vec::new(),
            },
        );

        let senders = lock(&self.inner.senders).clone();
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
            inner: Arc::clone(&self.inner),
            _marker: std::marker::PhantomData,
        }
    }

    /// Broadcasts `value` to every worker, metering `bytes` per receiver.
    ///
    /// DBTF broadcasts the three factor matrices each iteration
    /// (Lemma 7's `O(M·I·R)` term). Locally this is a zero-copy `Arc`;
    /// the accounting treats it as `workers` transfers serialised through
    /// the driver's uplink, priced by [`crate::NetworkModel::transfer_secs`]
    /// — the single costing path every transfer in the engine goes through.
    pub fn broadcast<T: Send + Sync + 'static>(&self, value: T, bytes: u64) -> Broadcast<T> {
        let workers = self.num_workers() as u64;
        self.inner.metrics.add_broadcast(bytes * workers);
        let secs = self.inner.config.network.transfer_secs(bytes * workers);
        self.inner.metrics.advance_clock(secs);
        Broadcast {
            value: Arc::new(value),
            wire_id: None,
        }
    }

    /// Runs `f` once per partition of `data`, on the worker holding the
    /// partition, and returns the results in partition order.
    ///
    /// This is one *superstep*: the driver blocks until every worker
    /// finishes, the virtual clock advances by the worker makespan plus the
    /// result-collection network time, and the metrics record the charged
    /// ops and collected bytes.
    ///
    /// `f` receives the global partition index, exclusive access to the
    /// partition (mutation persists — the dataset is cached), and the
    /// [`TaskContext`] for cost accounting.
    ///
    /// Each worker runs its local partitions inline, in partition order, on
    /// its own thread, so the workers compute concurrently. Results are
    /// merged back in partition order and the ops/bytes accounting is
    /// reduced in a fixed order, so outputs and all virtual-time metrics
    /// are bit-identical for every worker count.
    ///
    /// With a [`crate::FaultPlan`] active, scheduled worker crashes are
    /// injected (and recovered from) at the superstep boundary, transient
    /// task failures are retried with backoff, and slow tasks may be
    /// speculatively re-executed — all deterministic, leaving results and
    /// op counts identical to a fault-free run (only the virtual clock and
    /// the recovery counters differ).
    ///
    /// # Panics
    ///
    /// Panics if `data` belongs to a different cluster, if a worker thread
    /// has died outside the fault plan, if a crash hits a partition of a
    /// dataset without lineage, or — with a clean per-partition message —
    /// if a task panicked or exhausted its launch attempts. A task panic is
    /// caught on the worker (the worker itself survives and later
    /// supersteps still run), but the partition the task was mutating is
    /// left in an unspecified state.
    pub fn map_partitions<P, T, F>(&self, data: &DistVec<P>, f: F) -> Vec<T>
    where
        P: Send + 'static,
        T: Send + 'static,
        F: Fn(usize, &mut P, &mut TaskContext) -> T + Send + Sync + 'static,
    {
        self.map_partitions_task(data, f)
    }

    /// [`Cluster::map_partitions`] for any [`PartitionTask`] value.
    ///
    /// The task is shipped to every worker before any reply is collected,
    /// so all workers compute concurrently; the merge then settles every
    /// meter (clock, busy time, byte and op counters) in one place.
    pub fn map_partitions_task<P, T, F>(&self, data: &DistVec<P>, f: F) -> Vec<T>
    where
        P: Send + 'static,
        T: Send + 'static,
        F: PartitionTask<P, T>,
    {
        assert!(
            Arc::ptr_eq(&self.inner, &data.inner),
            "dataset belongs to a different cluster"
        );
        // Supersteps are numbered in execution order; the fault plan keys
        // its crash, failure and slowdown decisions off this index.
        let step = self.inner.submitted_steps.fetch_add(1, Ordering::Relaxed);
        self.inject_crashes(step);

        let task: Arc<TaskFn> = Arc::new(move |idx, part, ctx| {
            let part = part
                .downcast_mut::<P>()
                .expect("partition type mismatch: DistVec used with wrong element type");
            Box::new(f.run(idx, part, ctx)) as AnyPart
        });
        // Record the task in the dataset's lineage log (replayed after a
        // crash) before it runs anywhere.
        if let Some(ds) = lock(&self.inner.registry).get_mut(&data.id) {
            if ds.rebuild.is_some() {
                ds.log.push(Arc::clone(&task));
            }
        }

        let task_faults: Option<TaskFaults> = self
            .inner
            .fault
            .as_ref()
            .filter(|plan| plan.task_failure_rate > 0.0)
            .map(|plan| (Arc::clone(plan), step));

        let capture = self.inner.capture_task_events.load(Ordering::Relaxed);
        let (reply_tx, reply_rx): (Sender<BatchResult>, Receiver<BatchResult>) = channel();
        let senders = lock(&self.inner.senders).clone();
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

        let batches: Vec<BatchResult> = (0..self.num_workers())
            .map(|_| reply_rx.recv().expect("worker hung up"))
            .collect();
        merge_superstep(
            &self.inner.config,
            &self.inner.metrics,
            self.inner.fault.as_ref(),
            step,
            data.nparts,
            &data.part_bytes,
            capture,
            batches,
            &self.inner.task_events,
        )
    }

    /// Clones every partition back to the driver, in partition order.
    ///
    /// Mostly for tests and small datasets; metered like any other collect.
    pub fn gather<P>(&self, data: &DistVec<P>) -> Vec<P>
    where
        P: Clone + Send + 'static,
    {
        let bytes = data.part_bytes.clone();
        self.map_partitions(data, move |idx, part: &mut P, ctx: &mut TaskContext| {
            ctx.set_result_bytes(bytes[idx]);
            part.clone()
        })
    }
}

/// Executes a driver's dataflow plan against an [`ExecutionBackend`],
/// recording one [`OpRecord`] per operator — the engine's single
/// instrumentation point.
///
/// DBTF's plans are *data-dependent*: the payload of each broadcast (e.g.
/// a column-update decision) is computed from the results of the previous
/// superstep, so a plan cannot be fully built before anything runs.
/// The scheduler therefore materialises operators eagerly, in emission
/// order, and the recorded [`PlanTrace`] **is** the executed plan — the
/// golden-testable operator sequence with per-op cost/byte annotations.
pub struct Scheduler<'a, B: ExecutionBackend> {
    backend: &'a B,
    trace: Mutex<Vec<OpRecord>>,
    tracer: Tracer,
}

impl<'a, B: ExecutionBackend> Scheduler<'a, B> {
    /// Wraps `backend`; subsequent operators are recorded in the trace.
    pub fn new(backend: &'a B) -> Self {
        Scheduler::with_tracer(backend, Tracer::disabled())
    }

    /// Like [`Scheduler::new`], but additionally records a span per
    /// operator (and per task/kernel) into `tracer`. Enabling the tracer
    /// turns on the backend's task-event capture; metering is unaffected
    /// either way.
    pub fn with_tracer(backend: &'a B, tracer: Tracer) -> Self {
        if tracer.is_enabled() {
            backend.set_task_event_capture(true);
        }
        Scheduler {
            backend,
            trace: Mutex::new(Vec::new()),
            tracer,
        }
    }

    /// The backend this scheduler executes on.
    pub fn backend(&self) -> &'a B {
        self.backend
    }

    /// The span tracer (disabled unless built with
    /// [`Scheduler::with_tracer`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Runs `f` inside a driver-phase span named `name`, stamped with the
    /// backend's virtual clock on entry and exit. Nested calls nest the
    /// spans. With a disabled tracer this is just `f()`.
    pub fn phase<R>(&self, name: &'static str, f: impl FnOnce(&Self) -> R) -> R {
        if !self.tracer.is_enabled() {
            return f(self);
        }
        let start = self.backend.metrics().virtual_time.as_secs_f64();
        let span = self.tracer.begin(SpanKind::Phase, name, start);
        let out = f(self);
        let end = self.backend.metrics().virtual_time.as_secs_f64();
        self.tracer.end(span, end);
        out
    }

    /// Consumes the scheduler and returns the executed plan.
    pub fn into_trace(self) -> PlanTrace {
        PlanTrace {
            ops: std::mem::take(&mut *lock(&self.trace)),
        }
    }

    /// Number of operators executed so far.
    pub fn ops_executed(&self) -> usize {
        lock(&self.trace).len()
    }

    /// The single instrumentation point: runs `f`, then records the
    /// metrics deltas it caused under (`kind`, `label`) — and, with a
    /// tracer attached, an operator/superstep span with task and kernel
    /// child spans built from the backend's task events.
    fn instrumented<R>(
        &self,
        kind: OpKind,
        label: &'static str,
        partitions: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let before = self.backend.metrics();
        let wall_start = self.tracer.wall_now();
        let out = f();
        let after = self.backend.metrics();
        let record = OpRecord::from_snapshots(kind, label, partitions, &before, &after);
        if self.tracer.is_enabled() {
            self.record_op_spans(kind, label, &record, &before, &after, wall_start);
        }
        lock(&self.trace).push(record);
        out
    }

    /// Builds the span tree for one executed operator. Every annotation is
    /// a metering delta (bit-identical across worker counts and, excluding
    /// virtual stamps, across backends), so traces inherit the engine's
    /// determinism contract.
    fn record_op_spans(
        &self,
        kind: OpKind,
        label: &'static str,
        record: &OpRecord,
        before: &crate::MetricsSnapshot,
        after: &crate::MetricsSnapshot,
        wall_start: f64,
    ) {
        let wall_end = self.tracer.wall_now();
        let span_kind = match kind {
            OpKind::MapPartitions => SpanKind::Superstep,
            _ => SpanKind::Operator,
        };
        let mut args: Vec<(&'static str, u64)> = vec![("ops", record.ops)];
        if record.tasks > 0 {
            args.push(("tasks", record.tasks));
        }
        let bytes = record.bytes_shuffled + record.bytes_broadcast + record.bytes_collected;
        if bytes > 0 {
            args.push(("bytes", bytes));
        }
        if record.recovery_events > 0 {
            args.push(("recovery_events", record.recovery_events));
        }
        let op_span = self.tracer.record(
            span_kind,
            label,
            None,
            (
                before.virtual_time.as_secs_f64(),
                after.virtual_time.as_secs_f64(),
            ),
            (wall_start, wall_end),
            None,
            None,
            args,
        );
        if kind != OpKind::MapPartitions {
            return;
        }
        // Task spans: each starts at the superstep's virtual start and
        // runs for ops/core-rate on its worker — the engine's own cost
        // model, laid out per partition. Kernels tile the task interval
        // end-to-end in recorded order.
        let v0 = before.virtual_time.as_secs_f64();
        for event in self.backend.take_task_events() {
            let rate = self.backend.core_throughput(event.worker);
            let task_end = v0 + event.ops as f64 / rate;
            let task_span = self.tracer.record(
                SpanKind::Task,
                label,
                Some(op_span),
                (v0, task_end),
                (wall_start, wall_end),
                Some(event.worker),
                Some(event.partition),
                vec![("ops", event.ops)],
            );
            let mut cursor = v0;
            for kernel in &event.kernels {
                let end = cursor + kernel.ops as f64 / rate;
                self.tracer.record(
                    SpanKind::Kernel,
                    kernel.name,
                    Some(task_span),
                    (cursor, end),
                    (wall_start, wall_end),
                    Some(event.worker),
                    Some(event.partition),
                    vec![("ops", kernel.ops)],
                );
                cursor = end;
            }
        }
    }

    /// Executes a `Distribute` op: partitions `parts` across the backend
    /// with lineage `rebuild` (see
    /// [`Cluster::distribute_with_lineage`] for the recovery contract).
    pub fn distribute_with_lineage<P, F>(
        &self,
        label: &'static str,
        parts: Vec<(P, u64)>,
        rebuild: F,
    ) -> B::Dataset<P>
    where
        P: Send + 'static,
        F: Fn(usize) -> P + Send + Sync + 'static,
    {
        let nparts = parts.len();
        self.instrumented(OpKind::Distribute, label, nparts, || {
            self.backend.distribute_with_lineage(parts, rebuild)
        })
    }

    /// Executes a `Broadcast` op metering `bytes` per receiving worker.
    pub fn broadcast<T: Send + Sync + 'static>(
        &self,
        label: &'static str,
        value: T,
        bytes: u64,
    ) -> Broadcast<T> {
        self.instrumented(OpKind::Broadcast, label, 0, || {
            self.backend.broadcast(value, bytes)
        })
    }

    /// Executes a `MapPartitions` op (one superstep) over `data`.
    pub fn map_partitions<P, T, F>(&self, label: &'static str, data: &B::Dataset<P>, f: F) -> Vec<T>
    where
        P: Send + 'static,
        T: Send + 'static,
        F: Fn(usize, &mut P, &mut TaskContext) -> T + Send + Sync + 'static,
    {
        self.map_partitions_task(label, data, f)
    }

    /// [`Scheduler::map_partitions`] for any [`PartitionTask`] value —
    /// the entry point for [`crate::RemoteTask`]s, which the networked
    /// backend ships to worker processes by name instead of by closure.
    pub fn map_partitions_task<P, T, F>(
        &self,
        label: &'static str,
        data: &B::Dataset<P>,
        f: F,
    ) -> Vec<T>
    where
        P: Send + 'static,
        T: Send + 'static,
        F: PartitionTask<P, T>,
    {
        let nparts = self.backend.dataset_partitions(data);
        self.instrumented(OpKind::MapPartitions, label, nparts, || {
            self.backend.map_partitions_task(data, f)
        })
    }

    /// Executes a `Gather` op: clones every partition back to the driver.
    pub fn gather<P>(&self, label: &'static str, data: &B::Dataset<P>) -> Vec<P>
    where
        P: Clone + Send + 'static,
    {
        let nparts = self.backend.dataset_partitions(data);
        self.instrumented(OpKind::Gather, label, nparts, || self.backend.gather(data))
    }

    /// Records a `DriverCompute` op charging `ops` driver-side operations
    /// to the virtual clock (Algorithm 4's column-decision reduce).
    pub fn charge_driver(&self, label: &'static str, ops: u64) {
        self.instrumented(OpKind::DriverCompute, label, 0, || {
            self.backend.charge_driver(ops)
        });
    }

    /// Executes a `Checkpoint` op: runs `f` (typically a driver-side
    /// checkpoint write) and records it in the trace. Local disk I/O is
    /// not network traffic, so no bytes are metered.
    pub fn checkpoint<R>(&self, label: &'static str, f: impl FnOnce() -> R) -> R {
        self.instrumented(OpKind::Checkpoint, label, 0, f)
    }

    /// Truncates the lineage log of `data` (not an operator: pure
    /// driver-side metadata, free and not traced).
    pub fn reset_lineage<P: Send + 'static>(&self, data: &B::Dataset<P>) {
        self.backend.reset_lineage(data);
    }
}

/// Merges one superstep's per-worker batches: the single shared
/// implementation of result ordering, panic propagation, task-event
/// capture, and *all* superstep metering (busy time, idle meter, byte/op
/// counters, fault costing, clock). Both the simulated cluster and the
/// networked backend call this, which is what makes their meters
/// bit-identical by construction.
#[allow(clippy::too_many_arguments)]
pub(crate) fn merge_superstep<T: Send + 'static>(
    cfg: &crate::ClusterConfig,
    metrics: &crate::metrics::CommMetrics,
    fault: Option<&Arc<crate::FaultPlan>>,
    step: u64,
    nparts: usize,
    part_bytes: &[u64],
    capture: bool,
    mut batches: Vec<BatchResult>,
    task_events: &Mutex<Vec<crate::TaskEvents>>,
) -> Vec<T> {
    // Fixed reduction order regardless of reply arrival.
    batches.sort_by_key(|b| b.worker);

    let times = superstep_times(cfg, metrics, fault, step, &batches, part_bytes);
    // Idle meter: per-worker busy-time shortfall against this
    // superstep's makespan (observability only — excluded from
    // snapshot equality, so accumulating it here cannot perturb the
    // determinism contract).
    let times_makespan = times.iter().fold(0.0f64, |a, &b| a.max(b));
    let idle: f64 = times.iter().map(|&t| times_makespan - t).sum();
    if idle > 0.0 {
        metrics.add_pool_idle(idle);
    }
    let mut slots: Vec<Option<T>> = (0..nparts).map(|_| None).collect();
    let mut makespan = 0.0f64;
    let mut collect_secs = 0.0f64;
    let mut task_panics: Vec<(usize, usize, String)> = Vec::new();
    let mut events: Vec<crate::TaskEvents> = Vec::new();
    {
        let mut busy = lock(&metrics.worker_busy_secs);
        for (mut batch, &time) in batches.into_iter().zip(&times) {
            for (idx, msg) in &batch.panics {
                task_panics.push((*idx, batch.worker, msg.clone()));
            }
            if capture {
                for stat in std::mem::take(&mut batch.stats) {
                    events.push(crate::TaskEvents {
                        partition: stat.idx,
                        worker: batch.worker,
                        ops: stat.ops,
                        kernels: stat.kernels,
                    });
                }
            }
            busy[batch.worker] += time;
            makespan = makespan.max(time);
            collect_secs = collect_secs.max(cfg.network.transfer_secs(batch.result_bytes));
            metrics.add_collected(batch.result_bytes);
            metrics
                .total_ops
                .fetch_add(batch.total_ops, Ordering::Relaxed);
            metrics
                .tasks_run
                .fetch_add(batch.results.len() as u64, Ordering::Relaxed);
            for (idx, boxed) in batch.results {
                let value = *boxed
                    .downcast::<T>()
                    .expect("task result type mismatch (engine bug)");
                assert!(slots[idx].is_none(), "duplicate partition index {idx}");
                slots[idx] = Some(value);
            }
        }
    }
    if !task_panics.is_empty() {
        task_panics.sort_by_key(|(idx, ..)| *idx);
        let lines: Vec<String> = task_panics
            .iter()
            .map(|(idx, w, msg)| format!("partition {idx} on worker {w}: {msg}"))
            .collect();
        panic!(
            "{} task(s) panicked during superstep — {}",
            task_panics.len(),
            lines.join("; ")
        );
    }
    if capture {
        events.sort_by_key(|e| e.partition);
        *lock(task_events) = events;
    }
    metrics.advance_clock(makespan + collect_secs);
    metrics.supersteps.fetch_add(1, Ordering::Relaxed);
    slots
        .into_iter()
        .enumerate()
        .map(|(idx, s)| s.unwrap_or_else(|| panic!("partition {idx} produced no result")))
        .collect()
}

/// Virtual completion time of each batch (same order as `batches`),
/// applying the fault plan's slow tasks, retry backoffs, and
/// speculative re-execution. Fault-free (or with an all-zero plan) this
/// reduces exactly to PR 1's formula: worker time is perfect
/// parallelism over its cores, floored by its single largest task.
pub(crate) fn superstep_times(
    cfg: &crate::ClusterConfig,
    metrics: &crate::metrics::CommMetrics,
    fault: Option<&Arc<crate::FaultPlan>>,
    step: u64,
    batches: &[BatchResult],
    part_bytes: &[u64],
) -> Vec<f64> {
    let nominal: Vec<f64> = batches
        .iter()
        .map(|b| {
            (b.total_ops as f64 / cfg.worker_throughput(b.worker))
                .max(b.max_task_ops as f64 / cfg.core_throughput(b.worker))
        })
        .collect();
    let Some(plan) = fault.filter(|p| p.task_failure_rate > 0.0 || p.slow_task_rate > 0.0) else {
        return nominal;
    };

    let nominal_makespan = nominal.iter().fold(0.0, |a: f64, &b| a.max(b));
    let deadline = plan.speculation_threshold * nominal_makespan;
    let mut retries_total = 0u64;
    let mut effective = Vec::with_capacity(batches.len());
    for (b, &base) in batches.iter().zip(&nominal) {
        let agg = b.total_ops as f64 / cfg.worker_throughput(b.worker);
        let mut longest = 0.0f64;
        for stat in &b.stats {
            retries_total += stat.retries as u64;
            let mut t = (stat.ops as f64 / cfg.core_throughput(b.worker))
                * plan.task_slowdown(step, stat.idx)
                + plan.backoff_secs(stat.retries);
            if plan.speculation && t > deadline {
                if let Some(target) = speculation_target(cfg, b.worker) {
                    metrics.speculative_tasks.fetch_add(1, Ordering::Relaxed);
                    metrics.recovery_ops.fetch_add(stat.ops, Ordering::Relaxed);
                    let copy = deadline
                        + cfg.network.transfer_secs(part_bytes[stat.idx])
                        + stat.ops as f64 / cfg.core_throughput(target);
                    if copy < t {
                        metrics.speculative_wins.fetch_add(1, Ordering::Relaxed);
                        metrics.add_reshipped(part_bytes[stat.idx]);
                        t = copy;
                    }
                }
            }
            longest = longest.max(t);
        }
        let _ = base;
        effective.push(agg.max(longest));
    }
    if retries_total > 0 {
        metrics
            .task_retries
            .fetch_add(retries_total, Ordering::Relaxed);
    }
    // The makespan stretch beyond the fault-free schedule is the
    // superstep's recovery overhead (the clock itself advances by the
    // effective makespan in the caller).
    let eff_makespan = effective.iter().fold(0.0, |a: f64, &b| a.max(b));
    let overhead = (eff_makespan - nominal_makespan).max(0.0);
    if overhead > 0.0 {
        metrics.note_recovery(overhead);
    }
    effective
}

/// The worker a speculative task copy runs on: the fastest worker other
/// than `not`, preferring the lowest id on ties (deterministic); `None`
/// on a single-worker cluster.
pub(crate) fn speculation_target(cfg: &crate::ClusterConfig, not: usize) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for w in 0..cfg.workers {
        if w == not {
            continue;
        }
        let thr = cfg.core_throughput(w);
        if best.is_none_or(|(_, b)| thr > b) {
            best = Some((w, thr));
        }
    }
    best.map(|(w, _)| w)
}
