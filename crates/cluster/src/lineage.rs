//! The lineage book: every distributed dataset's lineage and the one
//! recovery pass that restores a lost worker from it (Spark-style lineage,
//! paper Section III-F).
//!
//! Per dataset the book keeps what recovery needs: the partitions' metered
//! bytes, the rebuild closure that recomputes their distribute-time
//! payloads, and the log of tasks applied since distribution (or the last
//! [`crate::ExecutionBackend::reset_lineage`]). Placement is
//! [`crate::ClusterConfig::worker_of`], so the book stores none. It also
//! allocates dataset ids.
//!
//! The simulated cluster and the networked backend each keep one book and
//! run the same pass through it: they differ only in the [`Restore`]
//! transport that moves the rebuilt partitions and the replayed tasks to
//! the worker (a mailbox send on the cluster, a `Store`/`Run` request over
//! TCP on the networked backend). The local backend never recovers and
//! keeps no book.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::config::ClusterConfig;
use crate::lock;
use crate::metrics::CommMetrics;

/// Recomputes the distribute-time payloads of the listed partitions, in
/// the shape the backend's transport installs.
pub(crate) type RebuildFn<R> = Box<dyn Fn(&[usize]) -> R + Send + Sync>;

/// One dataset's lineage.
struct Lineage<R, L> {
    part_bytes: Vec<u64>,
    rebuild: RebuildFn<R>,
    /// Tasks applied since distribution (or the last reset), in superstep
    /// order.
    log: Vec<L>,
}

/// What the recovery pass reads back from one replayed log entry.
pub(crate) struct Replayed {
    /// Tasks that panicked: (global partition index, message).
    pub(crate) panics: Vec<(usize, String)>,
    pub(crate) total_ops: u64,
    pub(crate) max_task_ops: u64,
}

/// How a backend moves a recovery pass's partitions and tasks to the
/// worker being restored.
pub(crate) trait Restore<R, L> {
    /// A delivery failure that aborts the pass.
    type Error;

    /// Installs rebuilt partitions of `dataset` on the worker.
    fn install(&mut self, dataset: u64, parts: R) -> Result<(), Self::Error>;

    /// Re-runs one logged task on the worker's partitions of `dataset`,
    /// fault-free and with task-event capture off, discarding its results;
    /// `None` skips the entry.
    fn replay(&mut self, dataset: u64, entry: &L) -> Result<Option<Replayed>, Self::Error>;
}

/// The lineage of every live dataset of one backend, keyed by dataset id.
/// `R` is the transport's rebuilt-partition payload, `L` its log entry.
pub(crate) struct LineageBook<R, L> {
    next_id: AtomicU64,
    datasets: Mutex<BTreeMap<u64, Lineage<R, L>>>,
}

impl<R, L> LineageBook<R, L> {
    pub(crate) fn new() -> Self {
        LineageBook {
            next_id: AtomicU64::new(0),
            datasets: Mutex::new(BTreeMap::new()),
        }
    }

    /// A fresh dataset id.
    pub(crate) fn allocate(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records dataset `id`'s lineage, with an empty log.
    pub(crate) fn insert(&self, id: u64, part_bytes: Vec<u64>, rebuild: RebuildFn<R>) {
        lock(&self.datasets).insert(
            id,
            Lineage {
                part_bytes,
                rebuild,
                log: Vec::new(),
            },
        );
    }

    /// Appends a task to dataset `id`'s log.
    pub(crate) fn log(&self, id: u64, entry: L) {
        if let Some(ds) = lock(&self.datasets).get_mut(&id) {
            ds.log.push(entry);
        }
    }

    /// Truncates dataset `id`'s log.
    pub(crate) fn reset(&self, id: u64) {
        if let Some(ds) = lock(&self.datasets).get_mut(&id) {
            ds.log.clear();
        }
    }

    /// Forgets dataset `id` (its handle was dropped).
    pub(crate) fn remove(&self, id: u64) {
        lock(&self.datasets).remove(&id);
    }

    /// Restores worker `w` after it lost its memory. Per dataset, in id
    /// order: rebuild the partitions placed on `w` and charge their
    /// re-ship, install them, then replay the log, charging each replayed
    /// entry. A transport error aborts the pass; a replayed task panic is
    /// a panic here.
    pub(crate) fn recover<T: Restore<R, L>>(
        &self,
        cfg: &ClusterConfig,
        metrics: &CommMetrics,
        w: usize,
        transport: &mut T,
    ) -> Result<(), T::Error> {
        let datasets = lock(&self.datasets);
        for (&id, ds) in datasets.iter() {
            let lost: Vec<usize> = (0..ds.part_bytes.len())
                .filter(|&idx| cfg.worker_of(idx) == w)
                .collect();
            if lost.is_empty() {
                continue;
            }
            let bytes: u64 = lost.iter().map(|&idx| ds.part_bytes[idx]).sum();
            let parts = (ds.rebuild)(&lost);
            metrics.charge_reship(cfg, lost.len(), bytes);
            transport.install(id, parts)?;
            for entry in &ds.log {
                let Some(replayed) = transport.replay(id, entry)? else {
                    continue;
                };
                assert!(
                    replayed.panics.is_empty(),
                    "lineage replay of dataset {id} on worker {w} panicked: {}",
                    replayed
                        .panics
                        .iter()
                        .map(|(idx, msg)| format!("partition {idx}: {msg}"))
                        .collect::<Vec<_>>()
                        .join("; ")
                );
                metrics.charge_replay(cfg, replayed.total_ops, replayed.max_task_ops);
            }
        }
        Ok(())
    }
}
