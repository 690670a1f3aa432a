//! Driver-side request fan-out, failure recovery, and wire-byte
//! classification for the networked backend: the [`NetShared`] machinery
//! that [`super::NetBackend`]'s operator implementations are built on.
//!
//! Recovery mirrors the simulated cluster's `crash_and_recover` exactly —
//! same declared metering, same panic messages — so a kill-riddled
//! networked run stays bit-identical to the in-process golden.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::lock;
use crate::net::proto::Frame;
use crate::net::supervisor::{Exchange, InFlight, RequestError};
use crate::ClusterError;

use super::NetShared;

impl NetShared {
    pub(super) fn fatal(msg: String) -> ! {
        std::panic::panic_any(ClusterError::Net(msg))
    }

    pub(super) fn expect_ack(&self, reply: &Frame) {
        if !matches!(reply, Frame::Ack { .. }) {
            NetShared::fatal(format!("expected Ack, worker replied {reply:?}"));
        }
    }

    /// Classifies one exchange's measured traffic: `primary_*` data-channel
    /// bytes into the Lemma-mirroring wire counters, everything else
    /// (scaffolding, meta channels, resends, stale duplicates) into
    /// overhead.
    pub(super) fn meter_exchange(
        &self,
        primary_sent: u64,
        primary_received: u64,
        bytes_sent: u64,
        bytes_received: u64,
    ) {
        self.metrics
            .net_wire_bytes_sent
            .fetch_add(primary_sent, Ordering::Relaxed);
        self.metrics
            .net_wire_bytes_received
            .fetch_add(primary_received, Ordering::Relaxed);
        let overhead = bytes_sent.saturating_sub(primary_sent)
            + bytes_received.saturating_sub(primary_received);
        self.metrics
            .net_wire_overhead_bytes
            .fetch_add(overhead, Ordering::Relaxed);
    }

    /// Ships one request per participating worker, then collects the
    /// replies — all workers compute concurrently. Workers that die along
    /// the way are respawned, recovered, and re-asked.
    pub(super) fn fanout(
        &self,
        step: u64,
        exclude_step: Option<u64>,
        builders: &[super::FrameBuilder<'_>],
    ) -> Vec<Option<Exchange>> {
        for (w, b) in builders.iter().enumerate() {
            if b.is_some() {
                self.supervisor.set_busy(w);
            }
        }
        let mut inflights: Vec<Option<InFlight>> = builders
            .iter()
            .enumerate()
            .map(|(w, b)| {
                b.as_ref()
                    .map(|build| self.begin_recovering(step, w, exclude_step, build.as_ref()))
            })
            .collect();
        builders
            .iter()
            .enumerate()
            .map(|(w, b)| {
                let ex = b.as_ref().map(|build| {
                    let inflight = inflights[w].take().expect("begun above");
                    self.finish_recovering(step, w, exclude_step, inflight, build.as_ref())
                });
                self.supervisor.set_idle(w);
                ex
            })
            .collect()
    }

    pub(super) fn begin_recovering(
        &self,
        step: u64,
        w: usize,
        exclude_step: Option<u64>,
        build: &dyn Fn(u64, u64) -> Frame,
    ) -> InFlight {
        loop {
            match self.supervisor.begin(w, build) {
                Ok(inflight) => return inflight,
                Err(RequestError::WorkerDead) => self.respawn_and_recover(step, w, exclude_step),
                Err(RequestError::Fatal(msg)) => NetShared::fatal(msg),
            }
        }
    }

    pub(super) fn finish_recovering(
        &self,
        step: u64,
        w: usize,
        exclude_step: Option<u64>,
        mut inflight: InFlight,
        build: &dyn Fn(u64, u64) -> Frame,
    ) -> Exchange {
        loop {
            match self.supervisor.finish(w, inflight, build) {
                Ok(ex) => return ex,
                Err(RequestError::WorkerDead) => {
                    self.respawn_and_recover(step, w, exclude_step);
                    inflight = self.begin_recovering(step, w, exclude_step, build);
                }
                Err(RequestError::Fatal(msg)) => NetShared::fatal(msg),
            }
        }
    }

    /// Respawns worker `w` (enforcing the respawn budget) and restores it:
    /// re-ship cached broadcasts, rebuild + re-ship lost partitions of
    /// every lineage-backed dataset, replay the task logs. Mirrors the
    /// simulated cluster's `crash_and_recover` metering exactly;
    /// `exclude_step` skips the in-flight superstep's log entry (it will
    /// be re-delivered by the caller, not replayed).
    pub(super) fn respawn_and_recover(&self, step: u64, w: usize, exclude_step: Option<u64>) {
        loop {
            let respawns = match self.supervisor.respawn(w) {
                Ok(r) => r,
                Err(RequestError::WorkerDead) => {
                    // The fresh incarnation died before its handshake;
                    // budget-check and try again.
                    let r = self.supervisor.respawns(w);
                    if r >= self.tuning.respawn_budget {
                        self.panic_budget(w, r);
                    }
                    continue;
                }
                Err(RequestError::Fatal(msg)) => NetShared::fatal(msg),
            };
            if respawns > self.tuning.respawn_budget {
                self.panic_budget(w, respawns);
            }
            self.metrics.worker_respawns.fetch_add(1, Ordering::Relaxed);
            match self.recover_worker(step, w, exclude_step) {
                Ok(()) => return,
                Err(RequestError::WorkerDead) => continue, // died again mid-recovery
                Err(RequestError::Fatal(msg)) => NetShared::fatal(msg),
            }
        }
    }

    pub(super) fn panic_budget(&self, worker: usize, respawns: u32) -> ! {
        std::panic::panic_any(ClusterError::RespawnBudgetExhausted { worker, respawns })
    }

    pub(super) fn recover_worker(
        &self,
        step: u64,
        w: usize,
        exclude_step: Option<u64>,
    ) -> Result<(), RequestError> {
        let cfg = &self.config;
        let mut reship = 0u64;
        // Broadcasts first: replayed tasks below may read any of them.
        let broadcasts: Vec<(u64, Arc<Vec<u8>>, u64)> = lock(&self.broadcast_cache).clone();
        for (bid, frame, _) in &broadcasts {
            let ex = self
                .supervisor
                .request(w, &|req, _| Frame::BroadcastValue {
                    req,
                    id: *bid,
                    frame: frame.to_vec(),
                })?;
            self.expect_ack(&ex.reply);
            reship += ex.bytes_sent + ex.bytes_received;
        }
        let mut datasets = lock(&self.datasets);
        let mut ids: Vec<u64> = datasets.keys().copied().collect();
        ids.sort_unstable(); // deterministic recovery order
        for id in ids {
            let ds = datasets.get_mut(&id).expect("registered dataset");
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
            // Re-install the distribute-time payloads (declared-byte
            // metering identical to the simulated cluster's recovery).
            let bytes: u64 = lost.iter().map(|&i| ds.part_bytes[i]).sum();
            let parts: Arc<[(u64, Vec<u8>)]> =
                lost.iter().map(|&i| (i as u64, rebuild(i).bytes)).collect();
            self.metrics
                .partitions_recomputed
                .fetch_add(lost.len() as u64, Ordering::Relaxed);
            self.metrics.add_reshipped(bytes);
            self.metrics
                .charge_recovery(cfg.network.transfer_secs(bytes));
            let codec = ds.codec.to_string();
            let ex = self.supervisor.request(w, &|req, _| Frame::Store {
                req,
                dataset: id,
                codec: codec.clone(),
                parts: Arc::clone(&parts),
            })?;
            self.expect_ack(&ex.reply);
            reship += ex.bytes_sent + ex.bytes_received;
            // Replay the lineage log (fault-free, capture off, results
            // discarded) to roll the partitions forward to the present.
            for spec in &ds.log {
                if Some(spec.step) == exclude_step {
                    continue;
                }
                let name = spec.name.to_string();
                let params = spec.params.clone();
                let spec_step = spec.step;
                let ex = self.supervisor.request(w, &|req, delivery| Frame::Run {
                    req,
                    dataset: id,
                    step: spec_step,
                    name: name.clone(),
                    params: params.clone(),
                    seed: 0,
                    failure_rate: 0.0,
                    max_attempts: 0,
                    drop_rate: 0.0,
                    delay_rate: 0.0,
                    delay_ms: 0,
                    delivery,
                    capture: false,
                })?;
                let Frame::Batch { reply, .. } = &ex.reply else {
                    NetShared::fatal(format!(
                        "lineage replay expected a Batch reply, got {:?}",
                        ex.reply
                    ));
                };
                assert!(
                    reply.panics.is_empty(),
                    "lineage replay of dataset {id} on worker {w} panicked: {}",
                    reply
                        .panics
                        .iter()
                        .map(|(idx, msg)| format!("partition {idx}: {msg}"))
                        .collect::<Vec<_>>()
                        .join("; ")
                );
                self.metrics
                    .recovery_ops
                    .fetch_add(reply.total_ops, Ordering::Relaxed);
                let time = (reply.total_ops as f64 / cfg.worker_throughput(w))
                    .max(reply.max_task_ops as f64 / cfg.core_throughput(w));
                self.metrics.charge_recovery(time);
                reship += ex.bytes_sent + ex.bytes_received;
            }
        }
        self.metrics
            .net_wire_reship_bytes
            .fetch_add(reship, Ordering::Relaxed);
        Ok(())
    }

    /// Mirrors the worker-side launch-retry loop for driver-synthesised
    /// supersteps (gather): same deterministic draws, same exhaustion
    /// message.
    pub(super) fn launch_retries(&self, step: u64, idx: usize) -> Result<u32, (u32, String)> {
        let Some(plan) = self.fault.as_ref().filter(|p| p.task_failure_rate > 0.0) else {
            return Ok(0);
        };
        let mut retries = 0u32;
        while plan.task_fails(step, idx, retries) {
            retries += 1;
            if retries >= plan.max_task_attempts {
                return Err((
                    retries,
                    format!(
                        "task exhausted {} launch attempts (injected transient faults)",
                        plan.max_task_attempts
                    ),
                ));
            }
        }
        Ok(retries)
    }
}
