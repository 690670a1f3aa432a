//! A simulated distributed dataflow engine for DBTF.
//!
//! The DBTF paper (ICDE 2017) implements its algorithm on Apache Spark over
//! a 17-machine cluster (one driver plus 16 workers with 8 cores each).
//! This crate hand-rolls the slice of Spark that the paper's implementation
//! actually uses — nothing more:
//!
//! - **partitioned, cached datasets** ([`DistVec`]): the partitioned unfolded
//!   tensors are shuffled across machines once and persisted in worker
//!   memory (paper Section III-B, III-F),
//! - **broadcast variables** ([`Broadcast`]): factor matrices are broadcast
//!   to every machine each iteration (Section III-G, Lemma 7),
//! - **`mapPartitions`-style execution**
//!   ([`ExecutionBackend::map_partitions`]):
//!   per-partition tasks run on the worker holding the partition and their
//!   results are collected by the driver (Algorithm 4 lines 7–10).
//!
//! # Virtual time vs. real parallelism
//!
//! Each worker is one real OS thread with shared-nothing state (partitions
//! are moved into the owning worker and never referenced from outside),
//! and it runs its partition tasks inline, in partition order, so the
//! workers execute concurrently on a multi-core host and
//! [`ClusterConfig::workers`] is the one real-parallelism knob. But
//! wall-clock time on one host cannot reproduce the paper's *machine
//! scalability* experiment (Figure 7), so the engine additionally keeps a
//! **virtual clock**: every task reports its cost in abstract ops
//! ([`TaskContext::charge`]), a superstep advances the clock by the makespan
//! over workers (each worker's time is `total_ops / (cores × throughput)`,
//! floored by its largest single task), and every transfer is charged
//! `latency + bytes / bandwidth` under the [`NetworkModel`]. The
//! [`CommMetrics`] counters (bytes shuffled, bytes broadcast, bytes
//! collected) directly validate the paper's Lemmas 6 and 7.
//!
//! # Operator IR and execution backends
//!
//! Drivers emit dataflow operators ([`OpKind`] — distribute, broadcast,
//! map-partitions, checkpoint, driver-compute) through a [`Scheduler`],
//! which executes each operator on a pluggable [`ExecutionBackend`] and
//! records it — with exact byte/op/time annotations ([`OpRecord`]) — into
//! a [`PlanTrace`]. DBTF's plans are data-dependent (each broadcast
//! carries a driver decision computed from the previous superstep), so
//! plans materialize eagerly and the trace is the plan *as executed*.
//! Three backends implement the trait: [`Cluster`] (simulated multi-worker
//! engine with network costing and fault injection), [`NetBackend`]
//! (worker processes behind TCP sockets, with the same fault injection)
//! and [`LocalBackend`] (inline execution on the driver thread). All three
//! run their supersteps through one batch loop and one merge, and charge
//! through one cost model (the `charge_*` methods of [`CommMetrics`]); the
//! local backend runs it with a free network and no fault plan, so its
//! virtual time is compute only. For a fixed algorithm run, the trace
//! fingerprint and every algorithmic output are bit-identical across
//! backends, worker counts, and fault plans. See `DESIGN.md` §1.2.3.
//!
//! # Fault tolerance
//!
//! Spark gives the paper's implementation lineage-based recovery for free;
//! this engine reproduces that slice too. A deterministic, seed-driven
//! [`FaultPlan`] on [`ClusterConfig::fault_plan`] injects worker crashes,
//! transient task failures, and slow tasks; the engine recovers via
//! driver-side lineage (one lineage book holding every dataset's rebuild
//! closure from [`ExecutionBackend::distribute_with_lineage`] plus its
//! task log, replayed onto a crashed worker by one recovery pass on the
//! simulated and the networked backend), bounded retries with exponential
//! backoff, and
//! speculative re-execution of stragglers — all charged to the virtual
//! clock and itemised in [`MetricsSnapshot`]'s recovery counters, while
//! results, errors, and op counts stay bit-identical to a fault-free run.
//! See `DESIGN.md` §1.2.2.
//!
//! # Example
//!
//! ```
//! use dbtf_cluster::{Cluster, ClusterConfig, ExecutionBackend};
//!
//! let cluster = Cluster::new(ClusterConfig::with_workers(4));
//! // Distribute 8 integer partitions (round-robin) with 8 bytes each;
//! // partition `idx` can be rebuilt from its index after a crash.
//! let parts = (0u64..8).map(|v| (v, 8)).collect();
//! let data = cluster.distribute_with_lineage(parts, |idx| idx as u64);
//! // Square every partition on its worker; collect to the driver.
//! let squares: Vec<u64> = cluster.map_partitions(&data, |_idx, v: &mut u64, ctx| {
//!     ctx.charge(1);
//!     *v * *v
//! });
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! assert!(cluster.virtual_time().as_secs_f64() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod backend;
mod config;
mod engine;
mod executor;
mod fault;
mod lineage;
mod local;
mod metrics;
mod net;
mod plan;
mod scheduler;
mod storage;
mod task;

pub use backend::{ExecutionBackend, InProcess, PartitionTask, TaskEvents, WireCall, WireTask};
pub use config::{ClusterConfig, NetworkModel};
pub use engine::{Cluster, ClusterError};
pub use fault::FaultPlan;
pub use local::{LocalBackend, LocalDataset};
pub use metrics::{CommMetrics, MetricsSnapshot, VirtualDuration};
pub use net::{
    worker_main, BroadcastStore, NetBackend, NetRegistry, NetTuning, NetVec, WorkerHost,
};
pub use plan::{OpKind, OpRecord, PlanTrace};
pub use scheduler::Scheduler;
pub use storage::{Broadcast, DistVec};
pub use task::TaskContext;

use std::sync::{Mutex, MutexGuard};

/// Locks ignoring poisoning; every mutex in this crate is locked through
/// here. The executor runs every task under `catch_unwind`, the guarded
/// state is plain data that a panic cannot leave half-updated in a way
/// later readers care about, and a panicking superstep must not wedge a
/// shutdown path that locks after it.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::lock;
    use std::sync::{Arc, Mutex};

    #[test]
    fn lock_returns_the_data_after_a_holder_panics() {
        let shared = Arc::new(Mutex::new(1u32));
        let holder = Arc::clone(&shared);
        let joined = std::thread::spawn(move || {
            let _guard = lock(&holder);
            panic!("poison the mutex");
        })
        .join();
        assert!(joined.is_err());
        assert!(shared.is_poisoned());
        *lock(&shared) += 1;
        assert_eq!(*lock(&shared), 2);
    }
}
