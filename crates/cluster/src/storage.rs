//! Driver-side dataset storage: the [`DistVec`] handle (the engine's RDD
//! analogue), [`Broadcast`] variables, and residency probes. Each
//! dataset's lineage lives in the cluster's [`crate::lineage`] book.

use std::marker::PhantomData;
use std::sync::Arc;

use crate::engine::{Cluster, Inner, Mailbox};
use crate::executor::WorkerMsg;

impl Cluster {
    /// How many partitions of `data` are currently resident in worker
    /// memory (polls every worker; an evicted or crashed-and-unrecovered
    /// dataset reports fewer than [`DistVec::num_partitions`]).
    pub fn stored_partition_count<P>(&self, data: &DistVec<P>) -> usize {
        assert!(
            Arc::ptr_eq(&self.inner, &data.inner),
            "dataset belongs to a different cluster"
        );
        self.stored_partition_count_by_id(data.id)
    }

    /// [`Cluster::stored_partition_count`] by raw dataset id — usable after
    /// the `DistVec` handle was dropped (see [`DistVec::id`]), e.g. to
    /// verify that dropping the handle actually evicted worker memory.
    pub fn stored_partition_count_by_id(&self, dataset: u64) -> usize {
        self.inner
            .senders
            .iter()
            .map(|sender| Mailbox(sender).ask(|reply| WorkerMsg::Count { dataset, reply }))
            .sum()
    }
}

/// A distributed dataset: partitions of type `P` pinned to worker
/// machines (the engine's RDD analogue).
///
/// Partitions live in worker memory until the handle is dropped. Access is
/// exclusively through [`crate::ExecutionBackend::map_partitions`].
pub struct DistVec<P> {
    pub(crate) id: u64,
    pub(crate) part_bytes: Vec<u64>,
    pub(crate) inner: Arc<Inner>,
    pub(crate) _marker: PhantomData<fn() -> P>,
}

impl<P> DistVec<P> {
    /// The dataset's engine-wide id (stable for the cluster's lifetime;
    /// usable with [`Cluster::stored_partition_count_by_id`] even after
    /// this handle is dropped).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.part_bytes.len()
    }

    /// The worker holding partition `idx`.
    pub fn worker_of(&self, idx: usize) -> usize {
        self.inner.config.worker_of(idx)
    }

    /// Total metered bytes stored across workers.
    pub fn total_bytes(&self) -> u64 {
        self.part_bytes.iter().sum()
    }
}

impl<P> Drop for DistVec<P> {
    fn drop(&mut self) {
        self.inner.metrics.sub_stored(self.total_bytes());
        self.inner.lineage.remove(self.id);
        for sender in &self.inner.senders {
            // The cluster may already be shut down; eviction is best-effort.
            let _ = sender.send(WorkerMsg::DropDataset { dataset: self.id });
        }
    }
}

/// A broadcast variable: one logical value visible to every task.
///
/// Cheap to clone (an `Arc`); read with [`Broadcast::get`]. The network cost
/// was charged when [`crate::ExecutionBackend::broadcast`] created it.
pub struct Broadcast<T> {
    pub(crate) value: Arc<T>,
    /// Wire id assigned by the networked backend (the value was shipped to
    /// every worker process under this id at broadcast time); `None` on
    /// in-process backends, which share the value through the `Arc`.
    pub(crate) wire_id: Option<u64>,
}

impl<T> Broadcast<T> {
    /// Reads the broadcast value.
    pub fn get(&self) -> &T {
        &self.value
    }

    /// The id the networked backend shipped this value under, `None` on
    /// in-process backends. Wire-task parameter frames reference broadcast
    /// values by this id.
    pub fn wire_id(&self) -> Option<u64> {
        self.wire_id
    }
}

impl<T> Clone for Broadcast<T> {
    fn clone(&self) -> Self {
        Broadcast {
            value: Arc::clone(&self.value),
            wire_id: self.wire_id,
        }
    }
}

impl<T> std::ops::Deref for Broadcast<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}
