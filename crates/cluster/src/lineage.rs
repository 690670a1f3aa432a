//! Lineage-based crash recovery: firing scheduled worker crashes,
//! respawning workers, re-installing lost partitions from rebuild
//! closures, and replaying per-dataset task logs (Spark-style lineage).

use std::sync::atomic::Ordering;
use std::sync::mpsc::channel;
use std::sync::Arc;

use crate::engine::{AnyPart, Cluster};
use crate::executor::{spawn_worker, WorkerMsg};
use crate::lock;
use crate::storage::DistVec;

impl Cluster {
    /// Truncates the lineage log of `data`.
    ///
    /// Call when the caller can guarantee that every partition's current
    /// state is exactly what the dataset's rebuild closure produces (e.g.
    /// DBTF's partitions after an `UpdateFactor` finishes: the immutable
    /// unfolding with all transient work state dropped). Crash recovery
    /// after the reset only re-installs the rebuilt payload — it does not
    /// replay pre-reset tasks — which bounds replay cost the way Spark
    /// checkpointing truncates an RDD's lineage chain.
    pub fn reset_lineage<P>(&self, data: &DistVec<P>) {
        assert!(
            Arc::ptr_eq(&self.inner, &data.inner),
            "dataset belongs to a different cluster"
        );
        if let Some(ds) = lock(&self.inner.registry).get_mut(&data.id) {
            ds.log.clear();
        }
    }

    /// Fires every crash the fault plan injects at `step` — scheduled
    /// `(superstep, worker)` entries plus seed-hashed `process_kill_rate`
    /// draws, via [`crate::FaultPlan::kills_at`] — each at most once, and
    /// runs full recovery.
    pub(crate) fn inject_crashes(&self, step: u64) {
        let Some(plan) = &self.inner.fault else {
            return;
        };
        if !plan.schedules_crashes() {
            return;
        }
        let kills = plan.kills_at(step, self.inner.config.workers);
        if kills.is_empty() {
            return;
        }
        let pending: Vec<usize> = {
            let mut done = lock(&self.inner.crashes_done);
            kills
                .into_iter()
                .filter(|&w| {
                    if done.contains(&(step, w)) {
                        false
                    } else {
                        done.push((step, w));
                        true
                    }
                })
                .collect()
        };
        for w in pending {
            self.crash_and_recover(step, w);
        }
    }

    /// Kills worker `w` (its thread exits and every partition in its memory
    /// is lost), respawns it, re-installs the lost partitions of every
    /// lineage-backed dataset from their rebuild closures, and replays the
    /// datasets' task logs — charging re-ship bytes and replay compute to
    /// the recovery counters and the virtual clock.
    ///
    /// # Panics
    ///
    /// Panics if a lost partition belongs to a dataset without lineage.
    fn crash_and_recover(&self, step: u64, w: usize) {
        // Kill: swap in a fresh channel; the old thread drains to Shutdown
        // and exits, dropping its partition storage (the "lost memory").
        let (tx, rx) = channel::<WorkerMsg>();
        let old_sender = std::mem::replace(&mut lock(&self.inner.senders)[w], tx);
        let _ = old_sender.send(WorkerMsg::Shutdown);
        drop(old_sender);
        // Mid-run recovery has no Result channel back to the caller; an OS
        // refusing a thread here is unrecoverable, so panic with context.
        let fresh = spawn_worker(w, rx)
            .unwrap_or_else(|e| panic!("failed to respawn crashed worker {w}: {e}"));
        if let Some(old) = lock(&self.inner.handles)[w].replace(fresh) {
            let _ = old.join();
        }
        self.inner
            .metrics
            .worker_respawns
            .fetch_add(1, Ordering::Relaxed);

        let cfg = &self.inner.config;
        let sender = lock(&self.inner.senders)[w].clone();
        let mut registry = lock(&self.inner.registry);
        let mut ids: Vec<u64> = registry.keys().copied().collect();
        ids.sort_unstable(); // deterministic recovery order
        for id in ids {
            let ds = registry.get_mut(&id).expect("registered dataset");
            let lost: Vec<usize> = ds
                .placement
                .iter()
                .enumerate()
                .filter(|&(_, &p)| p == w)
                .map(|(idx, _)| idx)
                .collect();
            if lost.is_empty() {
                continue;
            }
            let Some(rebuild) = ds.rebuild.clone() else {
                panic!(
                    "worker {w} crashed at superstep {step}: dataset {id} lost {} partition(s) \
                     and has no lineage (distribute it with distribute_with_lineage or \
                     distribute_replicated to make it crash-recoverable)",
                    lost.len()
                );
            };
            // Re-install the distribute-time payloads.
            let bytes: u64 = lost.iter().map(|&i| ds.part_bytes[i]).sum();
            let parts: Vec<(usize, AnyPart)> = lost.iter().map(|&i| (i, rebuild(i))).collect();
            self.inner
                .metrics
                .partitions_recomputed
                .fetch_add(lost.len() as u64, Ordering::Relaxed);
            self.inner.metrics.add_reshipped(bytes);
            self.inner
                .metrics
                .charge_recovery(cfg.network.transfer_secs(bytes));
            let (ack_tx, ack_rx) = channel();
            sender
                .send(WorkerMsg::Store {
                    dataset: id,
                    parts,
                    ack: ack_tx,
                })
                .expect("respawned worker hung up");
            ack_rx.recv().expect("respawned worker hung up");
            // Replay the lineage log to roll the partitions forward to the
            // present. Replay is fault-free and its results are discarded —
            // the driver consumed them long ago; only the rebuilt state
            // matters. Ops are charged to recovery, not to `total_ops`.
            for task in &ds.log {
                let (reply_tx, reply_rx) = channel();
                sender
                    .send(WorkerMsg::Run {
                        dataset: id,
                        task: Arc::clone(task),
                        fault: None,
                        // Recovery re-execution must never pollute a trace.
                        capture: false,
                        reply: reply_tx,
                    })
                    .expect("respawned worker hung up");
                let batch = reply_rx.recv().expect("respawned worker hung up");
                assert!(
                    batch.panics.is_empty(),
                    "lineage replay of dataset {id} on worker {w} panicked: {}",
                    batch
                        .panics
                        .iter()
                        .map(|(idx, msg)| format!("partition {idx}: {msg}"))
                        .collect::<Vec<_>>()
                        .join("; ")
                );
                self.inner
                    .metrics
                    .recovery_ops
                    .fetch_add(batch.total_ops, Ordering::Relaxed);
                let time = (batch.total_ops as f64 / cfg.worker_throughput(w))
                    .max(batch.max_task_ops as f64 / cfg.core_throughput(w));
                self.inner.metrics.charge_recovery(time);
            }
        }
    }
}
