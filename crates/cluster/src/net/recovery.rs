//! Driver-side request fan-out, failure recovery, and wire-byte
//! classification for the networked backend: the [`NetShared`] machinery
//! that [`super::NetBackend`]'s operator implementations are built on.
//!
//! Recovery follows the simulated cluster's `crash_and_recover` step for
//! step and charges through the same cost model, so a kill-riddled
//! networked run stays bit-identical to the in-process golden.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::lock;
use crate::net::proto::Frame;
use crate::net::supervisor::{Exchange, InFlight, RequestError};
use crate::storage::partitions_on;
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
    pub(super) fn fanout(&self, builders: &[super::FrameBuilder<'_>]) -> Vec<Option<Exchange>> {
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
                    .map(|build| self.begin_recovering(w, None, build.as_ref()))
            })
            .collect();
        builders
            .iter()
            .enumerate()
            .map(|(w, b)| {
                let ex = b.as_ref().map(|build| {
                    let inflight = inflights[w].take().expect("begun above");
                    self.finish_recovering(w, None, inflight, build.as_ref())
                });
                self.supervisor.set_idle(w);
                ex
            })
            .collect()
    }

    pub(super) fn begin_recovering(
        &self,
        w: usize,
        exclude_step: Option<u64>,
        build: &dyn Fn(u64, u64) -> Frame,
    ) -> InFlight {
        loop {
            match self.supervisor.begin(w, build) {
                Ok(inflight) => return inflight,
                Err(RequestError::WorkerDead) => self.respawn_and_recover(w, exclude_step),
                Err(RequestError::Fatal(msg)) => NetShared::fatal(msg),
            }
        }
    }

    pub(super) fn finish_recovering(
        &self,
        w: usize,
        exclude_step: Option<u64>,
        mut inflight: InFlight,
        build: &dyn Fn(u64, u64) -> Frame,
    ) -> Exchange {
        loop {
            match self.supervisor.finish(w, inflight, build) {
                Ok(ex) => return ex,
                Err(RequestError::WorkerDead) => {
                    self.respawn_and_recover(w, exclude_step);
                    inflight = self.begin_recovering(w, exclude_step, build);
                }
                Err(RequestError::Fatal(msg)) => NetShared::fatal(msg),
            }
        }
    }

    /// Respawns worker `w` (enforcing the respawn budget) and restores it:
    /// re-ship cached broadcasts, rebuild + re-ship lost partitions of
    /// every dataset, replay the task logs. Charges like the simulated
    /// cluster's `crash_and_recover`; `exclude_step` skips the in-flight
    /// superstep's log entry (it will be re-delivered by the caller, not
    /// replayed).
    pub(super) fn respawn_and_recover(&self, w: usize, exclude_step: Option<u64>) {
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
            self.metrics.charge_respawn();
            match self.recover_worker(w, exclude_step) {
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
        let datasets = lock(&self.datasets);
        let mut ids: Vec<u64> = datasets.keys().copied().collect();
        ids.sort_unstable(); // deterministic recovery order
        for id in ids {
            let ds = &datasets[&id];
            let lost = partitions_on(&ds.placement, w);
            if lost.is_empty() {
                continue;
            }
            // Re-install the distribute-time payloads.
            let bytes: u64 = lost.iter().map(|&i| ds.part_bytes[i]).sum();
            let parts: Arc<[(u64, Vec<u8>)]> = lost
                .iter()
                .map(|&i| (i as u64, (ds.rebuild)(i).bytes))
                .collect();
            self.metrics.charge_reship(cfg, lost.len(), bytes);
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
                    .charge_replay(cfg, reply.total_ops, reply.max_task_ops);
                reship += ex.bytes_sent + ex.bytes_received;
            }
        }
        self.metrics
            .net_wire_reship_bytes
            .fetch_add(reship, Ordering::Relaxed);
        Ok(())
    }
}
