//! Superstep pipelining: the driver-side deferred-action queue.
//!
//! # Model
//!
//! A superstep has two halves. **Submit** ships the task to every worker
//! and costs nothing on any meter; the workers start computing
//! immediately. **Merge** collects the replies, folds results in global
//! partition order, and settles every meter (clock, busy time, byte and
//! op counters). Barrier execution runs the two halves back to back;
//! pipelining separates them.
//!
//! With `pipeline_depth = d > 1`, [`Scheduler::map_partitions_deferred`]
//! submits a superstep right away and pushes its merge onto a FIFO queue
//! of [`PendingAction`]s. Deferrable driver-side operators that arrive
//! while the queue is non-empty — broadcast metering, driver-compute
//! charges — join the same queue instead of running, so *every* metering
//! action still executes in program order when the queue drains. Once `d`
//! supersteps are in flight, admitting another first drains the oldest
//! (the admission window).
//!
//! # Dependency rule
//!
//! Workers process their message queue sequentially, so two in-flight
//! supersteps — over the same dataset or different ones — serialize
//! per-worker in submission order and partition state evolves exactly as
//! under barriers. What overlaps is driver-side work (unfolding the next
//! mode, cloning broadcast payloads, building the next task) with worker
//! compute, and fast workers of superstep *s+1* with slow workers of *s*.
//! Operators that *read* results or move the clock outside the queue —
//! distribute, gather, checkpoint — drain the queue before running.
//!
//! # Determinism argument
//!
//! Every meter in the engine is order-sensitive (the virtual clock is an
//! f64 sum), so pipelining may not reorder a single metering action. It
//! does not: submits meter nothing, the queue is FIFO in program order,
//! and each drained action runs under the same
//! [`Scheduler::instrumented`] wrapper — before/after snapshots chain
//! exactly as in barrier execution, so factors, errors, Lemma 6/7 byte
//! meters, op counts, the virtual clock and the trace fingerprint are
//! bit-identical for every depth. At depth ≤ 1 the queue is provably
//! always empty and every operator takes the original code path.
//!
//! Worker crashes force depth 1 at cluster construction (lineage recovery
//! needs a quiescent pipeline); transient task faults and slow-task
//! speculation need no special casing, because their accounting happens
//! entirely inside the (deferred, ordered) merge.

use std::sync::{Arc, Mutex};

use crate::backend::ExecutionBackend;
use crate::plan::OpKind;
use crate::pool::lock;
use crate::scheduler::Scheduler;

/// One deferred metering action: a superstep merge, a broadcast metering,
/// or a driver-compute charge, queued in program order.
pub(crate) struct PendingAction<'a> {
    pub(crate) kind: OpKind,
    pub(crate) label: &'static str,
    pub(crate) partitions: usize,
    /// `true` for superstep merges — the actions the admission window
    /// counts against `pipeline_depth`.
    pub(crate) superstep: bool,
    pub(crate) run: Box<dyn FnOnce() + 'a>,
}

/// Handle to the results of a deferred `MapPartitions` superstep, redeemed
/// with [`Scheduler::wait`]. Dropping it without waiting is allowed (the
/// superstep still merges, in order, at the next drain point) — the idiom
/// for result-free supersteps like `unfold.organize`.
pub struct Deferred<T> {
    stash: Arc<Mutex<Option<Vec<T>>>>,
}

impl<T> Deferred<T> {
    /// A handle whose results are already available (barrier execution).
    pub(crate) fn ready(values: Vec<T>) -> Self {
        Deferred {
            stash: Arc::new(Mutex::new(Some(values))),
        }
    }
}

impl<'a, B: ExecutionBackend> Scheduler<'a, B> {
    /// Queues a non-superstep metering action behind the in-flight
    /// supersteps, keeping program order.
    pub(crate) fn defer_action(
        &self,
        kind: OpKind,
        label: &'static str,
        partitions: usize,
        run: impl FnOnce(&B) + 'a,
    ) {
        let backend = self.backend;
        lock(&self.pending).push_back(PendingAction {
            kind,
            label,
            partitions,
            superstep: false,
            run: Box::new(move || run(backend)),
        });
    }

    /// Pops and executes the oldest deferred action under the standard
    /// instrumentation wrapper. Returns `false` when the queue is empty.
    pub(crate) fn drain_one(&self) -> bool {
        let Some(action) = lock(&self.pending).pop_front() else {
            return false;
        };
        let PendingAction {
            kind,
            label,
            partitions,
            superstep: _,
            run,
        } = action;
        self.instrumented(kind, label, partitions, run);
        true
    }

    /// Settles every deferred action, oldest first. A no-op whenever the
    /// pipeline is empty — in particular always at `pipeline_depth ≤ 1`.
    pub fn drain(&self) {
        while self.drain_one() {}
    }

    /// Superstep merges currently waiting in the queue.
    pub(crate) fn supersteps_in_flight(&self) -> usize {
        lock(&self.pending).iter().filter(|a| a.superstep).count()
    }

    /// Like [`Scheduler::map_partitions`], but at `pipeline_depth > 1` the
    /// superstep is only *submitted*: workers start immediately while the
    /// merge (and all its metering) is deferred in program order. Redeem
    /// the results with [`Scheduler::wait`], or drop the handle if the
    /// results are unused.
    ///
    /// At depth ≤ 1 this executes the superstep eagerly — the exact
    /// barrier code path — and returns an already-settled handle.
    pub fn map_partitions_deferred<P, T, F>(
        &self,
        label: &'static str,
        data: &B::Dataset<P>,
        f: F,
    ) -> Deferred<T>
    where
        P: Send + 'static,
        T: Send + 'static,
        F: Fn(usize, &mut P, &mut crate::task::TaskContext) -> T + Send + Sync + 'static,
    {
        self.map_partitions_task_deferred(label, data, f)
    }

    /// [`Scheduler::map_partitions_deferred`] for any
    /// [`crate::PartitionTask`] value.
    pub fn map_partitions_task_deferred<P, T, F>(
        &self,
        label: &'static str,
        data: &B::Dataset<P>,
        f: F,
    ) -> Deferred<T>
    where
        P: Send + 'static,
        T: Send + 'static,
        F: crate::backend::PartitionTask<P, T>,
    {
        let nparts = self.backend.dataset_partitions(data);
        let depth = self.backend.pipeline_depth().max(1);
        if depth <= 1 {
            return Deferred::ready(self.instrumented(
                OpKind::MapPartitions,
                label,
                nparts,
                || self.backend.map_partitions_task(data, f),
            ));
        }
        // Admission window: merge the oldest work until fewer than `depth`
        // supersteps remain in flight.
        while self.supersteps_in_flight() >= depth {
            let drained = self.drain_one();
            debug_assert!(drained, "in-flight supersteps but an empty queue");
        }
        let pending = self.backend.submit_map_partitions(data, f);
        let stash: Arc<Mutex<Option<Vec<T>>>> = Arc::new(Mutex::new(None));
        let fill = Arc::clone(&stash);
        let backend = self.backend;
        lock(&self.pending).push_back(PendingAction {
            kind: OpKind::MapPartitions,
            label,
            partitions: nparts,
            superstep: true,
            run: Box::new(move || {
                *lock(&fill) = Some(backend.wait_map_partitions(pending));
            }),
        });
        Deferred { stash }
    }

    /// Redeems a [`Deferred`] handle, draining older queued actions first
    /// (FIFO — program order) until this superstep's merge has run.
    pub fn wait<T>(&self, deferred: Deferred<T>) -> Vec<T> {
        loop {
            if let Some(values) = lock(&deferred.stash).take() {
                return values;
            }
            let drained = self.drain_one();
            assert!(
                drained,
                "Deferred handle not backed by this scheduler's pipeline"
            );
        }
    }
}
