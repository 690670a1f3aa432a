//! The networked execution backend: workers as separate OS processes (or
//! protocol-speaking threads in tests) connected to the driver over TCP,
//! with a length-prefixed binary wire format for every Distribute /
//! Broadcast / MapPartitions — so the Lemma 6/7 byte meters can be checked
//! against *measured* wire bytes, not just declared sizes.
//!
//! # Metering equivalence
//!
//! [`NetBackend`] charges through the same cost model as
//! [`crate::Cluster`] (the `charge_*` methods of
//! [`crate::CommMetrics`]) and merges supersteps through the shared
//! `merge_superstep` path — so factors, op counts, traces, and every
//! compared counter are bit-identical to the simulated cluster and the
//! local backend for the same plan. On top of that it keeps *measured*
//! counters (`net.wire_bytes_sent/received`, `net.wire_overhead_bytes`,
//! `net.wire_reship_bytes`), classified per frame: the data channels of
//! the payload frames embedded in `Store`/`BroadcastValue` requests and
//! `Batch` replies are primary bytes; protocol scaffolding, resends, and
//! stale duplicates are overhead; recovery traffic is re-ship.
//!
//! # Robustness
//!
//! The driver-side [`supervisor`] keeps one connection per worker with
//! request timeouts, bounded redelivery, and reconnects. The request path
//! is the one liveness check: a worker is found dead (real `SIGKILL` under
//! process hosting, `Die` frame under thread hosting) when a request to it
//! fails and its process or thread has exited. It is then respawned, sent
//! the cached broadcasts again, and restored through the lineage book the
//! simulated cluster uses ([`crate::lineage`]: rebuild lost partitions,
//! replay the task log) with the same recovery metering. When a worker
//! exhausts its respawn budget the run fails with a typed
//! [`crate::ClusterError::RespawnBudgetExhausted`] instead of hanging.

mod proto;
mod recovery;
mod registry;
mod supervisor;
mod worker;

pub use registry::{BroadcastStore, NetRegistry};
pub use supervisor::{NetTuning, WorkerHost};
pub use worker::worker_main;

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dbtf_wire::{frame_data_len, WireResult};

use crate::backend::{ExecutionBackend, PartitionTask, TaskEvents};
use crate::config::ClusterConfig;
use crate::engine::ClusterError;
use crate::executor::{AnyPart, BatchResult, TaskStat};
use crate::fault::FaultPlan;
use crate::lineage::LineageBook;
use crate::lock;
use crate::metrics::{CommMetrics, MetricsSnapshot, WorkerLoad};
use crate::net::proto::{BatchReply, Frame, RunFaults};
use crate::net::registry::intern_kernel_name;
use crate::net::supervisor::{InFlight, Supervisor};
use crate::scheduler::merge_superstep;
use crate::storage::Broadcast;
use dbtf_telemetry::KernelEvent;

/// One logged wire-task application (the networked lineage log entry).
struct RunSpec {
    step: u64,
    name: &'static str,
    params: Vec<u8>,
}

/// Rebuilt partitions as one recovery `Store` ships them: the partition
/// codec's name and the encoded `(global index, partition frame)` list.
type StoreParts = (&'static str, Arc<[(u64, Vec<u8>)]>);

/// A per-worker closure producing the request frame for a given
/// `(request id, delivery attempt)` pair; `None` skips the worker.
pub(crate) type FrameBuilder<'a> = Option<Box<dyn Fn(u64, u64) -> Frame + 'a>>;

/// One retained broadcast: `(wire id, frame bytes, data-channel length)`.
type BroadcastEntry = (u64, Arc<Vec<u8>>, u64);

struct NetShared {
    config: ClusterConfig,
    tuning: NetTuning,
    metrics: Arc<CommMetrics>,
    supervisor: Supervisor,
    registry: Arc<NetRegistry>,
    fault: Option<Arc<FaultPlan>>,
    submitted_steps: AtomicU64,
    next_broadcast: AtomicU64,
    lineage: LineageBook<StoreParts, RunSpec>,
    /// Every broadcast ever shipped, kept for respawn re-ship:
    /// `(wire id, frame bytes, data-channel length)`. Never evicted —
    /// DBTF broadcasts are O(I·R/8) bytes, an accepted memory/robustness
    /// trade-off (DESIGN.md §1.2.6).
    broadcast_cache: Mutex<Vec<BroadcastEntry>>,
}

/// Handle to a dataset partitioned across networked workers (the
/// [`NetBackend`] analogue of [`crate::DistVec`]). Dropping it evicts the
/// partitions from worker memory (best-effort).
pub struct NetVec<P> {
    id: u64,
    part_bytes: Vec<u64>,
    shared: Arc<NetShared>,
    _marker: std::marker::PhantomData<fn() -> P>,
}

impl<P> Drop for NetVec<P> {
    fn drop(&mut self) {
        self.shared.metrics.sub_stored(self.part_bytes.iter().sum());
        self.shared.lineage.remove(self.id);
        let mut overhead = 0u64;
        for w in 0..self.shared.config.workers {
            overhead += self
                .shared
                .supervisor
                .notify(w, &Frame::DropDataset { dataset: self.id });
        }
        self.shared
            .metrics
            .net_wire_overhead_bytes
            .fetch_add(overhead, Ordering::Relaxed);
    }
}

/// The networked [`ExecutionBackend`]: real worker processes (or
/// protocol threads) behind real sockets, metering-equivalent to
/// [`crate::Cluster`]. See the module docs.
pub struct NetBackend {
    shared: Arc<NetShared>,
}

impl NetBackend {
    /// Boots the backend: binds the driver listener, then spawns and
    /// connects `config.workers` workers hosted per `host`.
    pub fn new(
        config: ClusterConfig,
        registry: Arc<NetRegistry>,
        host: WorkerHost,
        tuning: NetTuning,
    ) -> Result<NetBackend, ClusterError> {
        config.validate()?;
        let metrics = Arc::new(CommMetrics::new(config.workers));
        let supervisor = Supervisor::start(config.workers, host, Arc::clone(&metrics))
            .map_err(|e| ClusterError::Net(e.to_string()))?;
        let fault = config.fault_plan.clone().map(Arc::new);
        Ok(NetBackend {
            shared: Arc::new(NetShared {
                config,
                tuning,
                metrics,
                supervisor,
                registry,
                fault,
                submitted_steps: AtomicU64::new(0),
                next_broadcast: AtomicU64::new(0),
                lineage: LineageBook::new(),
                broadcast_cache: Mutex::new(Vec::new()),
            }),
        })
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.shared.config
    }

    /// Fires every process kill the fault plan injects at `step` (shared
    /// schedule with the simulated cluster via [`FaultPlan::kills_at`]),
    /// each at most once, and runs full respawn + recovery.
    fn inject_kills(&self, step: u64) {
        let shared = &self.shared;
        for w in
            shared
                .metrics
                .crashes_to_fire(shared.fault.as_deref(), step, shared.config.workers)
        {
            shared.supervisor.kill_worker(w);
            shared.respawn_and_recover(w, None);
        }
    }
}

impl ExecutionBackend for NetBackend {
    type Dataset<P: Send + 'static> = NetVec<P>;

    fn workers(&self) -> usize {
        self.shared.config.workers
    }

    fn suggested_partitions(&self) -> usize {
        self.shared.config.workers * self.shared.config.cores_per_worker
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    fn charge_driver(&self, ops: u64) {
        self.shared.metrics.charge_driver(&self.shared.config, ops);
    }

    fn distribute_with_lineage<P, F>(&self, parts: Vec<(P, u64)>, rebuild: F) -> NetVec<P>
    where
        P: Send + 'static,
        F: Fn(usize) -> P + Send + Sync + 'static,
    {
        let shared = &self.shared;
        let codec = shared.registry.part_codec_of::<P>();
        let (encode, codec_name) = (codec.encode, codec.name);
        let id = shared.lineage.allocate();
        let (per_worker, part_bytes) = shared
            .config
            .place(parts, |payload| encode(&payload as &(dyn Any + Send)));
        shared
            .metrics
            .charge_distribute(&shared.config, &part_bytes);

        let primary_per_worker: Vec<u64> = per_worker
            .iter()
            .map(|batch| batch.iter().map(|(_, frame)| frame.data_len).sum())
            .collect();
        let builders: Vec<FrameBuilder<'_>> = per_worker
            .into_iter()
            .map(|batch| {
                if batch.is_empty() {
                    None
                } else {
                    let batch: Arc<[(u64, Vec<u8>)]> = batch
                        .into_iter()
                        .map(|(idx, frame)| (idx as u64, frame.bytes))
                        .collect();
                    Some(Box::new(move |req, _delivery| Frame::Store {
                        req,
                        dataset: id,
                        codec: codec_name.to_string(),
                        parts: Arc::clone(&batch),
                    })
                        as Box<dyn Fn(u64, u64) -> Frame + '_>)
                }
            })
            .collect();
        let exchanges = shared.fanout(&builders);
        for (w, ex) in exchanges.into_iter().enumerate() {
            let Some(ex) = ex else { continue };
            shared.expect_ack(&ex.reply);
            shared.meter_exchange(primary_per_worker[w], 0, ex.bytes_sent, ex.bytes_received);
        }

        shared.lineage.insert(
            id,
            part_bytes.clone(),
            Box::new(move |lost: &[usize]| {
                let parts = lost
                    .iter()
                    .map(|&idx| {
                        let frame = encode(&rebuild(idx) as &(dyn Any + Send));
                        (idx as u64, frame.bytes)
                    })
                    .collect();
                (codec_name, parts)
            }),
        );
        NetVec {
            id,
            part_bytes,
            shared: Arc::clone(shared),
            _marker: std::marker::PhantomData,
        }
    }

    fn broadcast<T: Send + Sync + 'static>(&self, value: T, bytes: u64) -> Broadcast<T> {
        let shared = &self.shared;
        shared.metrics.charge_broadcast(&shared.config, bytes);
        let encoder = shared.registry.bcast_encoder_of::<T>();
        let frame = encoder(&value as &(dyn Any + Send + Sync));
        let data_len = frame.data_len;
        let frame_bytes = Arc::new(frame.bytes);
        let id = shared.next_broadcast.fetch_add(1, Ordering::Relaxed);
        let builders: Vec<FrameBuilder<'_>> = (0..shared.config.workers)
            .map(|_| {
                let frame_bytes = Arc::clone(&frame_bytes);
                Some(Box::new(move |req, _delivery| Frame::BroadcastValue {
                    req,
                    id,
                    frame: frame_bytes.to_vec(),
                }) as Box<dyn Fn(u64, u64) -> Frame + '_>)
            })
            .collect();
        for ex in shared.fanout(&builders).into_iter().flatten() {
            shared.expect_ack(&ex.reply);
            shared.meter_exchange(data_len, 0, ex.bytes_sent, ex.bytes_received);
        }
        lock(&shared.broadcast_cache).push((id, frame_bytes, data_len));
        Broadcast {
            value: Arc::new(value),
            wire_id: Some(id),
        }
    }

    fn map_partitions_task<P, T, F>(
        &self,
        data: &NetVec<P>,
        task: F,
        capture: bool,
    ) -> (Vec<T>, Vec<TaskEvents>)
    where
        P: Send + 'static,
        T: Send + 'static,
        F: PartitionTask<P, T>,
    {
        let shared = &self.shared;
        assert!(
            Arc::ptr_eq(shared, &data.shared),
            "dataset belongs to a different cluster"
        );
        let step = shared.submitted_steps.fetch_add(1, Ordering::Relaxed);
        self.inject_kills(step);
        let wire = task.wire().unwrap_or_else(|| {
            panic!(
                "the networked backend cannot ship a plain closure to worker processes; \
                 write the task as a type implementing WireTask and register it in the \
                 worker registry (NetRegistry::register_task::<T>())"
            )
        });
        shared.lineage.log(
            data.id,
            RunSpec {
                step,
                name: wire.name,
                params: wire.params.bytes.clone(),
            },
        );
        let faults = RunFaults::of(shared.fault.as_deref());
        let build = run_builder(
            data.id,
            step,
            wire.name,
            &wire.params.bytes,
            faults,
            capture,
        );
        // Send to every worker before collecting any reply, so all workers
        // compute concurrently; then decode each reply as it is collected,
        // so at most one undecoded batch is held at a time.
        let inflights: Vec<InFlight> = (0..shared.config.workers)
            .map(|w| shared.begin_recovering(w, Some(step), &build))
            .collect();
        let mut batches = Vec::with_capacity(shared.config.workers);
        for (w, inflight) in inflights.into_iter().enumerate() {
            let ex = shared.finish_recovering(w, Some(step), inflight, &build);
            let (bytes_sent, bytes_received) = (ex.bytes_sent, ex.bytes_received);
            let Frame::Batch { reply, .. } = ex.reply else {
                NetShared::fatal(format!(
                    "superstep expected a Batch reply, got {:?}",
                    ex.reply
                ));
            };
            let (batch, primary_received) = decode_batch::<T>(reply, wire.decode_result);
            shared.meter_exchange(0, primary_received, bytes_sent, bytes_received);
            batches.push(batch);
        }
        merge_superstep(
            &shared.config,
            &shared.metrics,
            shared.fault.as_deref().map(|plan| (plan, step)),
            &data.part_bytes,
            capture,
            batches,
        )
    }

    fn reset_lineage<P: Send + 'static>(&self, data: &NetVec<P>) {
        self.shared.lineage.reset(data.id);
    }

    fn core_throughput(&self) -> f64 {
        self.shared.config.core_throughput()
    }
}

/// Builds the `Run`-frame constructor for one superstep delivery (or, with
/// no faults and capture off, one lineage replay).
pub(super) fn run_builder(
    dataset: u64,
    step: u64,
    name: &'static str,
    params: &[u8],
    faults: RunFaults,
    capture: bool,
) -> impl Fn(u64, u64) -> Frame {
    let params = params.to_vec();
    move |req, delivery| Frame::Run {
        req,
        dataset,
        step,
        name: name.to_string(),
        params: params.clone(),
        faults,
        delivery,
        capture,
    }
}

/// Converts a wire [`BatchReply`] into the executor's [`BatchResult`],
/// decoding result frames as `T` and interning kernel names. Returns the
/// batch plus the primary (data-channel) bytes of the result frames.
fn decode_batch<T: Send + 'static>(
    reply: BatchReply,
    decode: fn(&[u8]) -> WireResult<T>,
) -> (BatchResult, u64) {
    let mut primary = 0u64;
    let results: Vec<(usize, AnyPart)> = reply
        .results
        .into_iter()
        .map(|(idx, bytes)| {
            primary += frame_data_len(&bytes)
                .unwrap_or_else(|e| NetShared::fatal(format!("corrupt result frame: {e}")));
            let value = decode(&bytes).unwrap_or_else(|e| {
                NetShared::fatal(format!(
                    "task result for partition {idx} failed to decode: {}",
                    e.0
                ))
            });
            (idx as usize, Box::new(value) as AnyPart)
        })
        .collect();
    let load = WorkerLoad {
        total_ops: reply.total_ops,
        max_task_ops: reply.max_task_ops,
        result_bytes: reply.result_bytes,
        tasks: results.len() as u64,
    };
    let batch = BatchResult {
        worker: reply.worker as usize,
        results,
        panics: reply
            .panics
            .into_iter()
            .map(|(idx, msg)| (idx as usize, msg))
            .collect(),
        stats: reply
            .stats
            .into_iter()
            .map(|stat| TaskStat {
                idx: stat.idx as usize,
                ops: stat.ops,
                retries: stat.retries,
                kernels: stat
                    .kernels
                    .into_iter()
                    .map(|(name, ops)| KernelEvent {
                        name: intern_kernel_name(name),
                        ops,
                    })
                    .collect(),
            })
            .collect(),
        load,
    };
    (batch, primary)
}
