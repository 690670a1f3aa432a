//! The [`Scheduler`] that executes dataflow plans against any
//! [`ExecutionBackend`] while recording the per-operator trace, and the
//! superstep merge (deterministic result slotting and panic report) every
//! backend shares.

use std::sync::Mutex;

use crate::backend::{ExecutionBackend, InProcess, PartitionTask, TaskEvents};
use crate::executor::BatchResult;
use crate::lock;
use crate::plan::{OpKind, OpRecord, PlanTrace};
use crate::storage::Broadcast;
use crate::task::TaskContext;
use dbtf_telemetry::{SpanKind, Tracer};

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
    /// operator (and per task/kernel) into `tracer`. With the tracer on,
    /// every superstep runs with task-event capture on; metering is
    /// unaffected either way.
    pub fn with_tracer(backend: &'a B, tracer: Tracer) -> Self {
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

    /// The single instrumentation point: runs `f`, which returns its
    /// value, the operator's partition count and its task events, then
    /// records the metrics deltas it caused under (`kind`, `label`) — and,
    /// with a tracer attached, an operator/superstep span with task and
    /// kernel child spans built from the task events.
    fn instrumented<R>(
        &self,
        kind: OpKind,
        label: &'static str,
        f: impl FnOnce() -> (R, usize, Vec<TaskEvents>),
    ) -> R {
        let before = self.backend.metrics();
        let wall_start = self.tracer.wall_now();
        let (out, partitions, events) = f();
        let after = self.backend.metrics();
        let record = OpRecord::from_snapshots(kind, label, partitions, &before, &after);
        if self.tracer.is_enabled() {
            let virt = (
                before.virtual_time.as_secs_f64(),
                after.virtual_time.as_secs_f64(),
            );
            let wall = (wall_start, self.tracer.wall_now());
            self.record_op_spans(kind, label, &record, virt, wall, events);
        }
        lock(&self.trace).push(record);
        out
    }

    /// Builds the span tree for one executed operator. Every annotation is
    /// a metering delta (bit-identical across worker counts and, excluding
    /// virtual stamps, across backends), so traces inherit the engine's
    /// determinism contract. `virt` and `wall` are the operator's virtual
    /// and wall-clock intervals.
    fn record_op_spans(
        &self,
        kind: OpKind,
        label: &'static str,
        record: &OpRecord,
        virt: (f64, f64),
        wall: (f64, f64),
        events: Vec<TaskEvents>,
    ) {
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
        let op_span = self
            .tracer
            .record(span_kind, label, None, virt, wall, None, None, args);
        if kind != OpKind::MapPartitions {
            return;
        }
        // Task spans: each starts at the superstep's virtual start and
        // runs for ops/core-rate on its worker — the engine's own cost
        // model, laid out per partition. Kernels tile the task interval
        // end-to-end in recorded order.
        let v0 = virt.0;
        for event in events {
            let rate = self.backend.core_throughput();
            let task_end = v0 + event.ops as f64 / rate;
            let task_span = self.tracer.record(
                SpanKind::Task,
                label,
                Some(op_span),
                (v0, task_end),
                wall,
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
                    wall,
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
    /// [`ExecutionBackend::distribute_with_lineage`] for the recovery
    /// contract).
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
        self.instrumented(OpKind::Distribute, label, || {
            let data = self.backend.distribute_with_lineage(parts, rebuild);
            (data, nparts, Vec::new())
        })
    }

    /// Executes a `Broadcast` op metering `bytes` per receiving worker.
    pub fn broadcast<T: Send + Sync + 'static>(
        &self,
        label: &'static str,
        value: T,
        bytes: u64,
    ) -> Broadcast<T> {
        self.instrumented(OpKind::Broadcast, label, || {
            (self.backend.broadcast(value, bytes), 0, Vec::new())
        })
    }

    /// Executes a `MapPartitions` op (one superstep) over `data`.
    pub fn map_partitions<P, T, F>(&self, label: &'static str, data: &B::Dataset<P>, f: F) -> Vec<T>
    where
        P: Send + 'static,
        T: Send + 'static,
        F: Fn(usize, &mut P, &mut TaskContext) -> T + Send + Sync + 'static,
    {
        self.map_partitions_task(label, data, InProcess(f))
    }

    /// [`Scheduler::map_partitions`] for any [`PartitionTask`] value —
    /// the entry point for [`crate::WireTask`]s, which the networked
    /// backend ships to worker processes by name instead of by closure.
    /// With the tracer on, the superstep runs with capture on and its task
    /// events become task and kernel spans.
    pub fn map_partitions_task<P, T, F>(
        &self,
        label: &'static str,
        data: &B::Dataset<P>,
        task: F,
    ) -> Vec<T>
    where
        P: Send + 'static,
        T: Send + 'static,
        F: PartitionTask<P, T>,
    {
        let capture = self.tracer.is_enabled();
        self.instrumented(OpKind::MapPartitions, label, || {
            let (results, events) = self.backend.map_partitions_task(data, task, capture);
            let partitions = results.len();
            (results, partitions, events)
        })
    }

    /// Records a `DriverCompute` op charging `ops` driver-side operations
    /// to the virtual clock (Algorithm 4's column-decision reduce).
    pub fn charge_driver(&self, label: &'static str, ops: u64) {
        self.instrumented(OpKind::DriverCompute, label, || {
            (self.backend.charge_driver(ops), 0, Vec::new())
        });
    }

    /// Executes a `Checkpoint` op: runs `f` (typically a driver-side
    /// checkpoint write) and records it in the trace. Local disk I/O is
    /// not network traffic, so no bytes are metered.
    pub fn checkpoint<R>(&self, label: &'static str, f: impl FnOnce() -> R) -> R {
        self.instrumented(OpKind::Checkpoint, label, || (f(), 0, Vec::new()))
    }

    /// Truncates the lineage log of `data` (not an operator: pure
    /// driver-side metadata, free and not traced).
    pub fn reset_lineage<P: Send + 'static>(&self, data: &B::Dataset<P>) {
        self.backend.reset_lineage(data);
    }
}

/// Merges one superstep's per-worker batches over a dataset of
/// `part_bytes.len()` partitions: charges the superstep through the cost
/// model ([`crate::metrics::CommMetrics::charge_superstep`]), then slots
/// the results in partition order, reports task panics sorted by
/// partition, and returns the results with the task events, sorted by
/// partition (none with capture off). Every backend calls this.
pub(crate) fn merge_superstep<T: Send + 'static>(
    cfg: &crate::ClusterConfig,
    metrics: &crate::metrics::CommMetrics,
    fault: Option<(&crate::FaultPlan, u64)>,
    part_bytes: &[u64],
    capture: bool,
    mut batches: Vec<BatchResult>,
) -> (Vec<T>, Vec<TaskEvents>) {
    // Fixed reduction order regardless of reply arrival.
    batches.sort_by_key(|b| b.worker);
    metrics.charge_superstep(cfg, fault, part_bytes, &batches);

    let mut slots: Vec<Option<T>> = part_bytes.iter().map(|_| None).collect();
    let mut task_panics: Vec<(usize, usize, String)> = Vec::new();
    let mut events: Vec<TaskEvents> = Vec::new();
    for batch in batches {
        for (idx, msg) in batch.panics {
            task_panics.push((idx, batch.worker, msg));
        }
        if capture {
            for stat in batch.stats {
                events.push(TaskEvents {
                    partition: stat.idx,
                    worker: batch.worker,
                    ops: stat.ops,
                    kernels: stat.kernels,
                });
            }
        }
        for (idx, boxed) in batch.results {
            let value = *boxed
                .downcast::<T>()
                .expect("task result type mismatch (engine bug)");
            assert!(slots[idx].is_none(), "duplicate partition index {idx}");
            slots[idx] = Some(value);
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
    events.sort_by_key(|e| e.partition);
    let results = slots
        .into_iter()
        .enumerate()
        .map(|(idx, s)| s.unwrap_or_else(|| panic!("partition {idx} produced no result")))
        .collect();
    (results, events)
}
