//! Lineage-based crash recovery: firing scheduled worker crashes,
//! respawning workers, re-installing lost partitions from rebuild
//! closures, and replaying per-dataset task logs (Spark-style lineage).

use std::sync::mpsc::channel;
use std::sync::Arc;

use crate::engine::{AnyPart, Cluster};
use crate::executor::{spawn_worker, WorkerMsg};
use crate::lock;
use crate::storage::partitions_on;

impl Cluster {
    /// Fires every crash the fault plan injects at `step` — scheduled
    /// `(superstep, worker)` entries plus seed-hashed `process_kill_rate`
    /// draws, via [`crate::FaultPlan::kills_at`] — each at most once, and
    /// runs full recovery.
    pub(crate) fn inject_crashes(&self, step: u64) {
        let inner = &self.inner;
        for w in inner
            .metrics
            .crashes_to_fire(inner.fault.as_deref(), step, inner.config.workers)
        {
            self.crash_and_recover(w);
        }
    }

    /// Kills worker `w` (its thread exits and every partition in its memory
    /// is lost), respawns it, re-installs the lost partitions of every
    /// dataset from their rebuild closures, and replays the datasets' task
    /// logs — charging re-ship bytes and replay compute through the cost
    /// model.
    fn crash_and_recover(&self, w: usize) {
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
        let metrics = &self.inner.metrics;
        metrics.charge_respawn();

        let cfg = &self.inner.config;
        let sender = lock(&self.inner.senders)[w].clone();
        let registry = lock(&self.inner.registry);
        let mut ids: Vec<u64> = registry.keys().copied().collect();
        ids.sort_unstable(); // deterministic recovery order
        for id in ids {
            let ds = &registry[&id];
            let lost = partitions_on(&ds.placement, w);
            if lost.is_empty() {
                continue;
            }
            // Re-install the distribute-time payloads.
            let bytes: u64 = lost.iter().map(|&i| ds.part_bytes[i]).sum();
            let parts: Vec<(usize, AnyPart)> = lost.iter().map(|&i| (i, (ds.rebuild)(i))).collect();
            metrics.charge_reship(cfg, lost.len(), bytes);
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
            // matters.
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
                metrics.charge_replay(cfg, batch.load.total_ops, batch.load.max_task_ops);
            }
        }
    }
}
