//! Driver-side request fan-out, failure recovery, and wire-byte
//! classification for the networked backend: the [`NetShared`] machinery
//! that [`super::NetBackend`]'s operator implementations are built on.
//!
//! Recovery runs the lineage book's one recovery pass, the simulated
//! cluster's too, over `Store`/`Run` requests, so a kill-riddled networked
//! run charges the same recovery meters and stays bit-identical to the
//! in-process golden.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::lineage::{Replayed, Restore};
use crate::lock;
use crate::net::proto::{Frame, RunFaults};
use crate::net::supervisor::{Exchange, InFlight, RequestError};
use crate::{ClusterError, Result};

use super::{run_builder, NetShared, RunSpec, StoreParts};

/// Checks that a worker answered a request with an `Ack`; the error is
/// the message naming what it sent instead.
fn expect_ack(reply: &Frame) -> Result<(), String> {
    match reply {
        Frame::Ack { .. } => Ok(()),
        other => Err(format!("expected Ack, worker replied {other:?}")),
    }
}

impl NetShared {
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
    /// replies — all workers compute concurrently — and meters each
    /// acknowledged exchange with the `primary(w)` data-channel bytes it
    /// sent worker `w`. Workers that die along the way are respawned,
    /// recovered, and re-asked.
    pub(super) fn fanout(
        &self,
        builders: &[super::FrameBuilder<'_>],
        primary: impl Fn(usize) -> u64,
    ) -> Result<()> {
        let inflights = builders
            .iter()
            .enumerate()
            .map(|(w, b)| {
                b.as_ref()
                    .map(|build| self.begin_recovering(w, None, build.as_ref()))
                    .transpose()
            })
            .collect::<Result<Vec<Option<InFlight>>, _>>()?;
        for (w, (build, inflight)) in builders.iter().zip(inflights).enumerate() {
            let (Some(build), Some(inflight)) = (build, inflight) else {
                continue;
            };
            let ex = self.finish_recovering(w, None, inflight, build.as_ref())?;
            expect_ack(&ex.reply).map_err(ClusterError::Net)?;
            self.meter_exchange(primary(w), 0, ex.bytes_sent, ex.bytes_received);
        }
        Ok(())
    }

    pub(super) fn begin_recovering(
        &self,
        w: usize,
        exclude_step: Option<u64>,
        build: &dyn Fn(u64, u64) -> Frame,
    ) -> Result<InFlight> {
        loop {
            match self.supervisor.begin(w, build) {
                Ok(inflight) => return Ok(inflight),
                Err(RequestError::WorkerDead) => self.respawn_and_recover(w, exclude_step)?,
                Err(RequestError::Fatal(msg)) => return Err(ClusterError::Net(msg)),
            }
        }
    }

    pub(super) fn finish_recovering(
        &self,
        w: usize,
        exclude_step: Option<u64>,
        mut inflight: InFlight,
        build: &dyn Fn(u64, u64) -> Frame,
    ) -> Result<Exchange> {
        loop {
            match self.supervisor.finish(w, inflight, build) {
                Ok(ex) => return Ok(ex),
                Err(RequestError::WorkerDead) => {
                    self.respawn_and_recover(w, exclude_step)?;
                    inflight = self.begin_recovering(w, exclude_step, build)?;
                }
                Err(RequestError::Fatal(msg)) => return Err(ClusterError::Net(msg)),
            }
        }
    }

    /// Respawns worker `w` (enforcing the respawn budget) and restores it
    /// with [`NetShared::recover_worker`]; `exclude_step` skips the
    /// in-flight superstep's log entry (it will be re-delivered by the
    /// caller, not replayed).
    pub(super) fn respawn_and_recover(&self, w: usize, exclude_step: Option<u64>) -> Result<()> {
        let exhausted = |respawns| ClusterError::RespawnBudgetExhausted {
            worker: w,
            respawns,
        };
        loop {
            let respawns = match self.supervisor.respawn(w) {
                Ok(r) => r,
                Err(RequestError::WorkerDead) => {
                    // The fresh incarnation died before its handshake;
                    // budget-check and try again.
                    let r = self.supervisor.respawns(w);
                    if r >= self.tuning.respawn_budget {
                        return Err(exhausted(r));
                    }
                    continue;
                }
                Err(RequestError::Fatal(msg)) => return Err(ClusterError::Net(msg)),
            };
            if respawns > self.tuning.respawn_budget {
                return Err(exhausted(respawns));
            }
            self.metrics.charge_respawn();
            match self.recover_worker(w, exclude_step) {
                Ok(()) => return Ok(()),
                Err(RequestError::WorkerDead) => continue, // died again mid-recovery
                Err(RequestError::Fatal(msg)) => return Err(ClusterError::Net(msg)),
            }
        }
    }

    /// Restores a respawned worker `w`: re-ships every cached broadcast
    /// (replayed tasks may read any of them), then runs the lineage book's
    /// recovery pass over requests to `w`. A dead worker aborts the pass;
    /// the caller respawns and starts over.
    pub(super) fn recover_worker(
        &self,
        w: usize,
        exclude_step: Option<u64>,
    ) -> Result<(), RequestError> {
        let mut restore = Requests {
            shared: self,
            w,
            exclude_step,
            reship: 0,
        };
        let broadcasts: Vec<(u64, Arc<Vec<u8>>, u64)> = lock(&self.broadcast_cache).clone();
        for (bid, frame, _) in &broadcasts {
            let ex = self
                .supervisor
                .request(w, &|req, _| Frame::BroadcastValue {
                    req,
                    id: *bid,
                    frame: frame.to_vec(),
                })?;
            restore.ack(&ex)?;
        }
        self.lineage
            .recover(&self.config, &self.metrics, w, &mut restore)?;
        self.metrics
            .net_wire_reship_bytes
            .fetch_add(restore.reship, Ordering::Relaxed);
        Ok(())
    }
}

/// The networked backend's recovery transport: `Store` and `Run` requests
/// to the worker being restored, metering their wire traffic as re-ship.
struct Requests<'a> {
    shared: &'a NetShared,
    w: usize,
    /// The in-flight superstep, whose log entry the caller redelivers
    /// instead of having it replayed.
    exclude_step: Option<u64>,
    reship: u64,
}

impl Requests<'_> {
    fn ack(&mut self, ex: &Exchange) -> Result<(), RequestError> {
        expect_ack(&ex.reply).map_err(RequestError::Fatal)?;
        self.reship += ex.bytes_sent + ex.bytes_received;
        Ok(())
    }
}

impl Restore<StoreParts, RunSpec> for Requests<'_> {
    type Error = RequestError;

    fn install(&mut self, dataset: u64, (codec, parts): StoreParts) -> Result<(), RequestError> {
        let ex = self
            .shared
            .supervisor
            .request(self.w, &|req, _| Frame::Store {
                req,
                dataset,
                codec: codec.to_string(),
                parts: Arc::clone(&parts),
            })?;
        self.ack(&ex)
    }

    fn replay(&mut self, dataset: u64, spec: &RunSpec) -> Result<Option<Replayed>, RequestError> {
        if Some(spec.step) == self.exclude_step {
            return Ok(None);
        }
        let run = run_builder(
            dataset,
            spec.step,
            spec.name,
            &spec.params,
            RunFaults::default(),
            false,
        );
        let ex = self.shared.supervisor.request(self.w, &run)?;
        self.reship += ex.bytes_sent + ex.bytes_received;
        let Frame::Batch { reply, .. } = ex.reply else {
            return Err(RequestError::Fatal(format!(
                "lineage replay expected a Batch reply, got {:?}",
                ex.reply
            )));
        };
        Ok(Some(Replayed {
            panics: reply
                .panics
                .into_iter()
                .map(|(idx, msg)| (idx as usize, msg))
                .collect(),
            total_ops: reply.total_ops,
            max_task_ops: reply.max_task_ops,
        }))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use dbtf_wire::{EncodedFrame, Wire, WireResult};

    use crate::{
        BroadcastStore, ClusterConfig, ExecutionBackend, FaultPlan, MetricsSnapshot, NetBackend,
        NetRegistry, NetTuning, TaskContext, WireTask, WorkerHost,
    };

    /// Multiplies a `u64` partition by 3 and adds the step.
    struct Bump(u64);

    impl WireTask for Bump {
        const NAME: &'static str = "test.bump";
        type Part = u64;
        type Output = u64;

        fn encode(&self) -> EncodedFrame {
            self.0.to_frame()
        }

        fn decode(params: &[u8], _broadcasts: &BroadcastStore) -> WireResult<Self> {
            Ok(Bump(u64::from_frame(params)?))
        }

        fn run(&self, v: &mut u64, ctx: &mut TaskContext) -> u64 {
            *v = *v * 3 + self.0;
            ctx.charge(*v % 13 + 1);
            ctx.set_result_bytes(8);
            *v
        }
    }

    /// Three supersteps of `Bump` over 6 partitions on 2 thread-hosted
    /// workers; `before_last` runs before the third.
    fn run(
        plan: Option<FaultPlan>,
        before_last: impl Fn(&NetBackend),
    ) -> (Vec<Vec<u64>>, MetricsSnapshot) {
        let mut registry = NetRegistry::new();
        registry.register_part::<u64>().register_task::<Bump>();
        let registry = Arc::new(registry);
        let config = ClusterConfig {
            fault_plan: plan,
            ..ClusterConfig::with_workers(2)
        };
        let host = WorkerHost::Thread(Arc::clone(&registry));
        let net = NetBackend::new(config, registry, host, NetTuning::default())
            .expect("net backend boots");
        let data = net
            .distribute_with_lineage((1..=6).map(|v| (v, 8)).collect(), |idx| idx as u64 + 1)
            .unwrap();
        let outputs = (0..3u64)
            .map(|step| {
                if step == 2 {
                    before_last(&net);
                }
                net.map_partitions_task(&data, Bump(step), false).unwrap().0
            })
            .collect();
        (outputs, net.metrics())
    }

    /// A worker killed while idle, outside the fault plan, is found dead by
    /// the next request sent to it, respawned once and restored: the run
    /// equals one whose plan crashes that worker at that superstep.
    #[test]
    fn a_worker_that_dies_while_idle_is_found_by_the_next_request() {
        let planned = run(
            Some(FaultPlan {
                worker_crashes: vec![(2, 1)],
                ..FaultPlan::with_seed(0)
            }),
            |_| {},
        );
        let idle = run(None, |net| net.shared.supervisor.kill_worker(1));
        assert_eq!(planned.1.worker_respawns, 1);
        assert_eq!(idle.1.worker_respawns, 1);
        assert_eq!(idle.0, planned.0);
        assert_eq!(idle.1, planned.1);
    }
}
