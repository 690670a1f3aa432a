//! The [`ExecutionBackend`] trait: the physical-execution seam under the
//! dataflow-operator IR. Drivers are generic over a backend and emit
//! operators through [`crate::Scheduler`]; the backend decides *where*
//! each operator runs ([`crate::Cluster`]: simulated multi-worker
//! machines with fault injection and network costing;
//! [`crate::NetBackend`]: worker processes behind TCP sockets;
//! [`crate::LocalBackend`]: inline in the driver process with a free
//! network).
//!
//! A superstep takes one task and returns its results with their
//! [`TaskEvents`]. The task is a [`WireTask`] — one type that encodes its
//! parameters, decodes them on a worker and runs, so it can cross a
//! process boundary — or, on the in-process backends only, a closure
//! ([`InProcess`]).

use crate::engine::Result;
use crate::metrics::MetricsSnapshot;
use crate::net::BroadcastStore;
use crate::storage::Broadcast;
use crate::task::TaskContext;
use dbtf_telemetry::KernelEvent;
use dbtf_wire::{EncodedFrame, Wire, WireResult};

/// A partition task that can cross a process boundary, written once as
/// one type.
///
/// The type is the task's parameters. [`WireTask::encode`] writes them as
/// the parameter frame the networked backend ships in a `Run` frame, under
/// [`WireTask::NAME`]; a worker process resolves the name in its
/// [`crate::NetRegistry`] and rebuilds the value with [`WireTask::decode`],
/// which reads broadcast parameters back as [`Broadcast`] handles from
/// its [`BroadcastStore`]. The in-process backends run the value the
/// driver built; the networked backend runs the value the worker decoded.
/// Either way the same [`WireTask::run`] executes, so every backend
/// computes the same bits.
pub trait WireTask: Sized + Send + Sync + 'static {
    /// The name the worker registry resolves the task under.
    const NAME: &'static str;
    /// The partition type the task runs on.
    type Part: Send + 'static;
    /// The per-partition result, collected to the driver.
    type Output: Wire + Send + 'static;

    /// Writes the parameter frame.
    fn encode(&self) -> EncodedFrame;

    /// Reads a parameter frame written by [`WireTask::encode`], resolving
    /// broadcast ids against the worker's `broadcasts`.
    fn decode(params: &[u8], broadcasts: &BroadcastStore) -> WireResult<Self>;

    /// Executes the task on one partition (its global index is
    /// [`TaskContext::partition_index`]).
    fn run(&self, part: &mut Self::Part, ctx: &mut TaskContext) -> Self::Output;
}

/// One partition's unit of work in a superstep: every [`WireTask`] is
/// one, and so is a closure wrapped in [`InProcess`].
///
/// Only a wire task describes itself as a [`WireCall`]; the networked
/// backend cannot ship a closure to another OS process and refuses one
/// with a clear panic.
pub trait PartitionTask<P, T>: Send + Sync + 'static {
    /// Executes the task on one partition (the in-process path).
    fn run(&self, idx: usize, part: &mut P, ctx: &mut TaskContext) -> T;

    /// The task's wire description, if it can run in a worker process.
    fn wire(&self) -> Option<WireCall<T>>;
}

impl<W: WireTask> PartitionTask<W::Part, W::Output> for W {
    fn run(&self, _idx: usize, part: &mut W::Part, ctx: &mut TaskContext) -> W::Output {
        WireTask::run(self, part, ctx)
    }

    fn wire(&self) -> Option<WireCall<W::Output>> {
        Some(WireCall {
            name: W::NAME,
            params: self.encode(),
            decode_result: W::Output::from_frame,
        })
    }
}

/// A closure as a [`PartitionTask`]: it runs on the in-process backends
/// only. [`ExecutionBackend::map_partitions`] wraps its closure in one.
pub struct InProcess<F>(pub F);

impl<P, T, F> PartitionTask<P, T> for InProcess<F>
where
    F: Fn(usize, &mut P, &mut TaskContext) -> T + Send + Sync + 'static,
{
    fn run(&self, idx: usize, part: &mut P, ctx: &mut TaskContext) -> T {
        (self.0)(idx, part, ctx)
    }

    fn wire(&self) -> Option<WireCall<T>> {
        None
    }
}

/// A serialized task invocation: what the networked backend ships in a
/// `Run` frame instead of a closure.
pub struct WireCall<T> {
    /// Registry name the worker process resolves the task under.
    pub(crate) name: &'static str,
    /// Encoded parameter frame (broadcast ids, column indices, flags).
    pub(crate) params: EncodedFrame,
    /// Decodes one task result from its reply frame.
    pub(crate) decode_result: fn(&[u8]) -> WireResult<T>,
}

/// The observational record of one partition task, returned with a
/// superstep's results when it ran with capture on. Always sorted by
/// `partition` — the same merge discipline that keeps result order
/// deterministic keeps traces deterministic under any worker count.
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
/// An operator the engine cannot complete returns a [`crate::ClusterError`].
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
    fn distribute_with_lineage<P, F>(
        &self,
        parts: Vec<(P, u64)>,
        rebuild: F,
    ) -> Result<Self::Dataset<P>>
    where
        P: Send + 'static,
        F: Fn(usize) -> P + Send + Sync + 'static;

    /// Ships `value` to every worker, metering `bytes` per receiver.
    ///
    /// DBTF broadcasts the three factor matrices each iteration
    /// (Lemma 7's `O(M·I·R)` term). The accounting treats it as `workers`
    /// transfers serialised through the driver's uplink.
    fn broadcast<T: Send + Sync + 'static>(&self, value: T, bytes: u64) -> Result<Broadcast<T>>;

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
    /// # Errors
    ///
    /// [`crate::ClusterError::TaskFailed`] if a task panicked or exhausted its
    /// launch attempts: the batch loop catches the panic, so the worker
    /// survives, but the partition the task was mutating is left in an
    /// unspecified state. Another backend's dataset, or a closure on the
    /// networked backend, is a caller bug and panics.
    ///
    /// Closure convenience over [`ExecutionBackend::map_partitions_task`]
    /// with capture off (keeps closure argument types inferable at call
    /// sites).
    fn map_partitions<P, T, F>(&self, data: &Self::Dataset<P>, f: F) -> Result<Vec<T>>
    where
        P: Send + 'static,
        T: Send + 'static,
        F: Fn(usize, &mut P, &mut TaskContext) -> T + Send + Sync + 'static,
    {
        Ok(self.map_partitions_task(data, InProcess(f), false)?.0)
    }

    /// [`ExecutionBackend::map_partitions`] for any [`PartitionTask`] — in
    /// particular [`WireTask`]s, which the networked backend can ship to
    /// worker processes. The method backends implement.
    ///
    /// Returns the results in partition order with the superstep's
    /// [`TaskEvents`], sorted by partition: with `capture` on, one per
    /// task, carrying the kernels the task charged; with it off, none.
    /// Capture is purely observational — metering is bit-identical either
    /// way.
    fn map_partitions_task<P, T, F>(
        &self,
        data: &Self::Dataset<P>,
        task: F,
        capture: bool,
    ) -> Result<(Vec<T>, Vec<TaskEvents>)>
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

    /// Ops-per-virtual-second of one core — the rate the span layer uses
    /// to convert a task's ops into a virtual duration.
    fn core_throughput(&self) -> f64;
}
