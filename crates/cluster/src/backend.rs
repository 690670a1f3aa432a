//! The [`ExecutionBackend`] trait: the physical-execution seam under the
//! dataflow-operator IR. Drivers are generic over a backend and emit
//! operators through [`crate::Scheduler`]; the backend decides *where*
//! each operator runs ([`crate::Cluster`]: simulated multi-worker
//! machines with fault injection and network costing;
//! [`crate::NetBackend`]: worker processes behind TCP sockets;
//! [`crate::LocalBackend`]: inline in the driver process with a free
//! network).

use crate::metrics::MetricsSnapshot;
use crate::storage::Broadcast;
use crate::task::TaskContext;
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
/// Implementations are *metering-equivalent*: for the same operator
/// sequence they produce bit-identical task results, op counts, and
/// Lemma 6/7 byte counters, because every one of them charges through the
/// same cost model. They differ only in its inputs: the local backend
/// runs it with a free network and no fault plan.
pub trait ExecutionBackend {
    /// Handle to a distributed dataset of partitions of type `P`.
    type Dataset<P: Send + 'static>;

    /// Number of (possibly logical) worker machines.
    fn workers(&self) -> usize;

    /// The default partition count for this backend: one partition per
    /// core across the cluster, matching the paper's task granularity.
    fn suggested_partitions(&self) -> usize;

    /// Snapshot of the communication and compute counters.
    fn metrics(&self) -> MetricsSnapshot;

    /// Charges driver-side compute to the virtual clock.
    fn charge_driver(&self, ops: u64);

    /// Shuffles `parts` across the workers round-robin and persists them
    /// in worker memory, with `rebuild` as the dataset's lineage.
    ///
    /// Each element is `(partition_payload, payload_bytes)`; the byte
    /// sizes meter the shuffle (Lemma 6: `O(|X|)` for the unfolded
    /// tensors) and the per-worker memory footprint. Partition `p` lands
    /// on worker `p mod workers`, which for DBTF's equal-width vertical
    /// partitions balances load like the paper's Spark partitioner.
    ///
    /// After a worker crash, the backend calls `rebuild(idx)` to recompute
    /// each lost partition's distribute-time payload, re-ships it to the
    /// respawned worker, and replays every task applied since
    /// distribution (or since the last
    /// [`ExecutionBackend::reset_lineage`]) to restore bit-identical
    /// partition state. `rebuild(idx)` must reproduce the exact payload
    /// passed for partition `idx` — the engine's RDD-style "recompute from
    /// source" contract. Backends without faults never call it.
    fn distribute_with_lineage<P, F>(&self, parts: Vec<(P, u64)>, rebuild: F) -> Self::Dataset<P>
    where
        P: Send + 'static,
        F: Fn(usize) -> P + Send + Sync + 'static;

    /// Ships `value` to every worker, metering `bytes` per receiver.
    ///
    /// DBTF broadcasts the three factor matrices each iteration
    /// (Lemma 7's `O(M·I·R)` term). The accounting treats it as `workers`
    /// transfers serialised through the driver's uplink.
    fn broadcast<T: Send + Sync + 'static>(&self, value: T, bytes: u64) -> Broadcast<T>;

    /// Runs `f` once per partition (one superstep) and returns the results
    /// in partition order. Partition mutation persists across supersteps.
    ///
    /// `f` receives the global partition index, exclusive access to the
    /// partition (the dataset is cached), and the [`TaskContext`] for cost
    /// accounting. The driver blocks until every worker finishes; the
    /// virtual clock advances by the worker makespan plus the
    /// result-collection network time. Results are merged in partition
    /// order and the accounting is reduced in worker order, so outputs and
    /// every meter are bit-identical for every worker count.
    ///
    /// With a [`crate::FaultPlan`] active, scheduled worker crashes are
    /// injected (and recovered from) at the superstep boundary, transient
    /// task failures are retried with backoff, and slow tasks may be
    /// speculatively re-executed — leaving results and op counts identical
    /// to a fault-free run (only the virtual clock and the recovery
    /// counters differ).
    ///
    /// # Panics
    ///
    /// On every backend, panics with a clean per-partition message if a
    /// task panicked or exhausted its launch attempts: the executor's batch
    /// loop catches the task panic, so the worker survives, but the
    /// partition the task was mutating is left in an unspecified state.
    /// The cluster and networked backends also panic if `data` belongs to
    /// another backend instance.
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

    /// Truncates the dataset's lineage log (no-op on backends without
    /// crash recovery).
    ///
    /// Call when every partition's current state is exactly what the
    /// dataset's rebuild closure produces (e.g. DBTF's partitions after an
    /// `UpdateFactor` finishes: the immutable unfolding with all transient
    /// work state dropped). Recovery after the reset only re-installs the
    /// rebuilt payload, which bounds replay cost the way Spark
    /// checkpointing truncates an RDD's lineage chain.
    fn reset_lineage<P: Send + 'static>(&self, data: &Self::Dataset<P>);

    /// Number of partitions in `data`.
    fn dataset_partitions<P: Send + 'static>(&self, data: &Self::Dataset<P>) -> usize;

    /// Enables/disables per-task event capture (tracing). Off by default;
    /// purely observational — metering is bit-identical either way.
    fn set_task_event_capture(&self, on: bool);

    /// Drains the task events recorded by the most recent superstep,
    /// sorted by partition index (empty when capture is off).
    fn take_task_events(&self) -> Vec<crate::TaskEvents>;

    /// Ops-per-virtual-second of one core — the rate the span layer uses
    /// to convert a task's ops into a virtual duration.
    fn core_throughput(&self) -> f64;
}
