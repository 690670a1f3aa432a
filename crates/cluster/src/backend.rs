//! The [`ExecutionBackend`] trait: the physical-execution seam under the
//! dataflow-operator IR. Drivers are generic over a backend and emit
//! operators through [`crate::Scheduler`]; the backend decides *where*
//! each operator runs ([`crate::Cluster`]: simulated multi-worker
//! machines with fault injection and network costing;
//! [`crate::LocalBackend`]: inline in the driver process with no network
//! model).

use crate::lock;
use crate::metrics::MetricsSnapshot;
use crate::storage::{Broadcast, DistVec};
use crate::task::TaskContext;
use crate::Cluster;
use dbtf_telemetry::KernelEvent;
use dbtf_wire::{EncodedFrame, Wire, WireResult};

/// One partition's unit of work in a superstep.
///
/// Every closure of the right shape is a `PartitionTask` (via the blanket
/// impl), so in-process backends keep their ergonomic closure API. The
/// networked backend, however, cannot ship a closure to another OS
/// process: it requires tasks that additionally describe themselves as a
/// *named wire task* ([`PartitionTask::wire`]) — a registry name plus an
/// encoded parameter frame that the worker process resolves against its
/// own copy of the task registry. [`RemoteTask`] wraps a closure with
/// that description; plain closures return `None` and are rejected by the
/// networked backend with a clear panic.
pub trait PartitionTask<P, T>: Send + Sync + 'static {
    /// Executes the task on one partition (the in-process path).
    fn run(&self, idx: usize, part: &mut P, ctx: &mut TaskContext) -> T;

    /// The task's wire description, if it can run in a worker process.
    fn wire(&self) -> Option<WireTask<T>> {
        None
    }
}

impl<P, T, F> PartitionTask<P, T> for F
where
    F: Fn(usize, &mut P, &mut TaskContext) -> T + Send + Sync + 'static,
{
    fn run(&self, idx: usize, part: &mut P, ctx: &mut TaskContext) -> T {
        self(idx, part, ctx)
    }
}

/// A serialized task invocation: what the networked backend ships in a
/// `Run` frame instead of a closure.
pub struct WireTask<T> {
    /// Registry name the worker process resolves the task body under.
    pub name: &'static str,
    /// Encoded parameter frame (broadcast ids, column indices, flags).
    pub params: EncodedFrame,
    /// Decodes one task result from its reply frame.
    pub decode_result: fn(&[u8]) -> WireResult<T>,
}

/// A [`PartitionTask`] that can execute both in-process (it carries the
/// closure) and in a worker process (it carries the registry name and the
/// encoded parameters the registered body will be called with).
///
/// The closure and the registered body must compute the same function —
/// the idiom is to write the task body once as a free function and have
/// both call it (see `dbtf`'s `net_tasks` module).
pub struct RemoteTask<F> {
    name: &'static str,
    params: EncodedFrame,
    f: F,
}

impl<F> RemoteTask<F> {
    /// Wraps `f` as the in-process body of the wire task `name`, with
    /// `args` encoded as the parameter frame shipped to worker processes.
    pub fn new<A: Wire>(name: &'static str, args: &A, f: F) -> Self {
        RemoteTask {
            name,
            params: args.to_frame(),
            f,
        }
    }
}

impl<P, T, F> PartitionTask<P, T> for RemoteTask<F>
where
    T: Wire + Send + 'static,
    F: Fn(usize, &mut P, &mut TaskContext) -> T + Send + Sync + 'static,
{
    fn run(&self, idx: usize, part: &mut P, ctx: &mut TaskContext) -> T {
        (self.f)(idx, part, ctx)
    }

    fn wire(&self) -> Option<WireTask<T>> {
        Some(WireTask {
            name: self.name,
            params: self.params.clone(),
            decode_result: T::from_frame,
        })
    }
}

/// The observational record of one partition task, shipped to the span
/// layer when task-event capture is on. Always sorted by `partition` when
/// returned from [`ExecutionBackend::take_task_events`] — the same merge
/// discipline that keeps result order deterministic keeps traces
/// deterministic under any worker count.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskEvents {
    /// Global partition index.
    pub partition: usize,
    /// Worker machine that ran the task.
    pub worker: usize,
    /// Total abstract ops the task charged.
    pub ops: u64,
    /// Per-kernel breakdown (only kernels charged through
    /// `TaskContext::charge_kernel`).
    pub kernels: Vec<KernelEvent>,
}

/// A physical execution engine for dataflow plans.
///
/// Implementations must be *metering-equivalent*: for the same operator
/// sequence they produce bit-identical task results, op counts, and
/// Lemma 6/7 byte counters. They may differ in virtual-time costing (the
/// local backend skips the network model) and in fault handling (only the
/// cluster injects and recovers from faults).
pub trait ExecutionBackend {
    /// Handle to a distributed dataset of partitions of type `P`.
    type Dataset<P: Send + 'static>;

    /// Short backend name for logs and CLI output (`"cluster"`/`"local"`).
    fn name(&self) -> &'static str;

    /// Number of (possibly logical) worker machines.
    fn workers(&self) -> usize;

    /// The default partition count for this backend: one partition per
    /// core across the cluster, matching the paper's task granularity.
    fn suggested_partitions(&self) -> usize;

    /// Snapshot of the communication and compute counters.
    fn metrics(&self) -> MetricsSnapshot;

    /// Charges driver-side compute to the virtual clock.
    fn charge_driver(&self, ops: u64);

    /// Partitions `parts` (payload, metered bytes) across workers with
    /// `rebuild` as the dataset's lineage (see
    /// [`Cluster::distribute_with_lineage`] for the recovery contract;
    /// backends without faults may never call `rebuild`).
    fn distribute_with_lineage<P, F>(&self, parts: Vec<(P, u64)>, rebuild: F) -> Self::Dataset<P>
    where
        P: Send + 'static,
        F: Fn(usize) -> P + Send + Sync + 'static;

    /// Ships `value` to every worker, metering `bytes` per receiver.
    fn broadcast<T: Send + Sync + 'static>(&self, value: T, bytes: u64) -> Broadcast<T>;

    /// Runs `f` once per partition (one superstep) and returns the results
    /// in partition order. Partition mutation persists across supersteps.
    ///
    /// Closure-bound convenience over
    /// [`ExecutionBackend::map_partitions_task`] (keeps closure argument
    /// types inferable at call sites).
    fn map_partitions<P, T, F>(&self, data: &Self::Dataset<P>, f: F) -> Vec<T>
    where
        P: Send + 'static,
        T: Send + 'static,
        F: Fn(usize, &mut P, &mut TaskContext) -> T + Send + Sync + 'static,
    {
        self.map_partitions_task(data, f)
    }

    /// [`ExecutionBackend::map_partitions`] for any [`PartitionTask`] —
    /// in particular [`RemoteTask`]s, which the networked backend can ship
    /// to worker processes. The method backends implement.
    fn map_partitions_task<P, T, F>(&self, data: &Self::Dataset<P>, f: F) -> Vec<T>
    where
        P: Send + 'static,
        T: Send + 'static,
        F: PartitionTask<P, T>;

    /// Clones every partition back to the driver, metered like a collect.
    fn gather<P>(&self, data: &Self::Dataset<P>) -> Vec<P>
    where
        P: Clone + Send + 'static;

    /// Truncates the dataset's lineage log (no-op on backends without
    /// crash recovery).
    fn reset_lineage<P: Send + 'static>(&self, data: &Self::Dataset<P>);

    /// Number of partitions in `data`.
    fn dataset_partitions<P: Send + 'static>(&self, data: &Self::Dataset<P>) -> usize;

    /// Enables/disables per-task event capture (tracing). Off by default;
    /// purely observational — metering is bit-identical either way.
    fn set_task_event_capture(&self, on: bool);

    /// Drains the task events recorded by the most recent superstep,
    /// sorted by partition index (empty when capture is off).
    fn take_task_events(&self) -> Vec<crate::TaskEvents>;

    /// Ops-per-virtual-second of one core on `worker` — the rate the span
    /// layer uses to convert a task's ops into a virtual duration.
    fn core_throughput(&self, worker: usize) -> f64;
}

impl ExecutionBackend for Cluster {
    type Dataset<P: Send + 'static> = DistVec<P>;

    fn name(&self) -> &'static str {
        "cluster"
    }

    fn workers(&self) -> usize {
        self.num_workers()
    }

    fn suggested_partitions(&self) -> usize {
        self.config().workers * self.config().cores_per_worker
    }

    fn metrics(&self) -> MetricsSnapshot {
        Cluster::metrics(self)
    }

    fn charge_driver(&self, ops: u64) {
        Cluster::charge_driver(self, ops)
    }

    fn distribute_with_lineage<P, F>(&self, parts: Vec<(P, u64)>, rebuild: F) -> DistVec<P>
    where
        P: Send + 'static,
        F: Fn(usize) -> P + Send + Sync + 'static,
    {
        Cluster::distribute_with_lineage(self, parts, rebuild)
    }

    fn broadcast<T: Send + Sync + 'static>(&self, value: T, bytes: u64) -> Broadcast<T> {
        Cluster::broadcast(self, value, bytes)
    }

    fn map_partitions_task<P, T, F>(&self, data: &DistVec<P>, f: F) -> Vec<T>
    where
        P: Send + 'static,
        T: Send + 'static,
        F: PartitionTask<P, T>,
    {
        Cluster::map_partitions_task(self, data, f)
    }

    fn gather<P>(&self, data: &DistVec<P>) -> Vec<P>
    where
        P: Clone + Send + 'static,
    {
        Cluster::gather(self, data)
    }

    fn reset_lineage<P: Send + 'static>(&self, data: &DistVec<P>) {
        Cluster::reset_lineage(self, data)
    }

    fn dataset_partitions<P: Send + 'static>(&self, data: &DistVec<P>) -> usize {
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
        let _ = worker; // homogeneous cluster: every core runs at the same rate
        self.config().core_throughput_ops_per_sec
    }
}
