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
//! heartbeats, request timeouts, bounded redelivery, and reconnects.
//! A dead worker (real `SIGKILL` under process hosting, `Die` frame under
//! thread hosting) is respawned and restored through the same
//! lineage-recovery sequence the simulated cluster uses — rebuild lost
//! partitions, re-ship cached broadcasts, replay the task log — with the
//! same recovery metering. When a worker exhausts its respawn budget the
//! run fails with a typed [`crate::ClusterError::RespawnBudgetExhausted`]
//! instead of hanging.

mod proto;
mod recovery;
mod registry;
mod supervisor;
mod worker;

pub use registry::{BroadcastStore, NetRegistry, TaskFactory, WorkerTaskFn};
pub use supervisor::{NetTuning, WorkerHost};
pub use worker::worker_main;

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dbtf_wire::{frame_data_len, EncodedFrame, WireResult};

use crate::backend::{ExecutionBackend, PartitionTask};
use crate::config::ClusterConfig;
use crate::engine::{AnyPart, ClusterError};
use crate::executor::{BatchResult, TaskStat};
use crate::fault::FaultPlan;
use crate::lock;
use crate::metrics::{CommMetrics, MetricsSnapshot, WorkerLoad};
use crate::net::proto::{BatchReply, Frame};
use crate::net::registry::intern_kernel_name;
use crate::net::supervisor::{InFlight, Supervisor};
use crate::scheduler::merge_superstep;
use crate::storage::Broadcast;
use dbtf_telemetry::KernelEvent;

/// Fault-plan fields shipped inside every `Run` frame so workers draw the
/// same deterministic decisions the simulated cluster draws.
#[derive(Clone, Copy, Default)]
struct RunFaults {
    seed: u64,
    failure_rate: f64,
    max_attempts: u32,
    drop_rate: f64,
    delay_rate: f64,
    delay_ms: u64,
}

/// One logged wire-task application (the networked lineage log entry).
struct RunSpec {
    step: u64,
    name: &'static str,
    params: Vec<u8>,
}

/// Driver-side record of one distributed dataset.
struct NetDatasetState {
    placement: Vec<usize>,
    part_bytes: Vec<u64>,
    codec: &'static str,
    /// Re-encodes a partition's distribute-time payload for recovery.
    rebuild: Box<dyn Fn(usize) -> EncodedFrame + Send + Sync>,
    /// Wire tasks applied since distribution (or the last lineage reset).
    log: Vec<RunSpec>,
}

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
    next_dataset: AtomicU64,
    next_broadcast: AtomicU64,
    datasets: Mutex<HashMap<u64, NetDatasetState>>,
    /// Every broadcast ever shipped, kept for respawn re-ship:
    /// `(wire id, frame bytes, data-channel length)`. Never evicted —
    /// DBTF broadcasts are O(I·R/8) bytes, an accepted memory/robustness
    /// trade-off (DESIGN.md §1.2.6).
    broadcast_cache: Mutex<Vec<BroadcastEntry>>,
    capture_task_events: AtomicBool,
    task_events: Mutex<Vec<crate::TaskEvents>>,
}

/// Handle to a dataset partitioned across networked workers (the
/// [`NetBackend`] analogue of [`crate::DistVec`]). Dropping it evicts the
/// partitions from worker memory (best-effort).
pub struct NetVec<P> {
    id: u64,
    nparts: usize,
    part_bytes: Vec<u64>,
    shared: Arc<NetShared>,
    _marker: std::marker::PhantomData<fn() -> P>,
}

impl<P> NetVec<P> {
    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.nparts
    }
}

impl<P> Drop for NetVec<P> {
    fn drop(&mut self) {
        self.shared.metrics.sub_stored(self.part_bytes.iter().sum());
        lock(&self.shared.datasets).remove(&self.id);
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
    /// Boots the backend: binds the driver listener, spawns and connects
    /// `config.workers` workers hosted per `host`, and starts the
    /// heartbeat monitor.
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
                next_dataset: AtomicU64::new(0),
                next_broadcast: AtomicU64::new(0),
                datasets: Mutex::new(HashMap::new()),
                broadcast_cache: Mutex::new(Vec::new()),
                capture_task_events: AtomicBool::new(false),
                task_events: Mutex::new(Vec::new()),
            }),
        })
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.shared.config
    }

    fn run_faults(&self) -> RunFaults {
        match &self.shared.fault {
            Some(p) => RunFaults {
                seed: p.seed,
                failure_rate: p.task_failure_rate,
                max_attempts: p.max_task_attempts,
                drop_rate: p.connection_drop_rate,
                delay_rate: p.response_delay_rate,
                delay_ms: p.response_delay_ms,
            },
            None => RunFaults::default(),
        }
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

    fn name(&self) -> &'static str {
        "net"
    }

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
        let nparts = parts.len();
        let id = shared.next_dataset.fetch_add(1, Ordering::Relaxed);
        let workers = shared.config.workers;
        let mut per_worker: Vec<Vec<(u64, Vec<u8>)>> = (0..workers).map(|_| Vec::new()).collect();
        let mut primary_per_worker = vec![0u64; workers];
        let mut placement = Vec::with_capacity(nparts);
        let mut part_bytes = Vec::with_capacity(nparts);
        for (idx, (payload, bytes)) in parts.into_iter().enumerate() {
            let w = idx % workers;
            placement.push(w);
            part_bytes.push(bytes);
            let frame = encode(&payload as &(dyn Any + Send));
            primary_per_worker[w] += frame.data_len;
            per_worker[w].push((idx as u64, frame.bytes));
        }
        shared
            .metrics
            .charge_distribute(&shared.config, &part_bytes);

        let builders: Vec<FrameBuilder<'_>> = per_worker
            .into_iter()
            .map(|batch| {
                if batch.is_empty() {
                    None
                } else {
                    let batch: Arc<[(u64, Vec<u8>)]> = batch.into();
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

        lock(&shared.datasets).insert(
            id,
            NetDatasetState {
                placement,
                part_bytes: part_bytes.clone(),
                codec: codec_name,
                rebuild: Box::new(move |idx| encode(&rebuild(idx) as &(dyn Any + Send))),
                log: Vec::new(),
            },
        );
        NetVec {
            id,
            nparts,
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

    fn map_partitions_task<P, T, F>(&self, data: &NetVec<P>, f: F) -> Vec<T>
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
        let wire = f.wire().unwrap_or_else(|| {
            panic!(
                "the networked backend cannot ship a plain closure to worker processes; \
                 wrap the task body in RemoteTask::new(..) and register it in the worker \
                 registry (NetRegistry::register_task)"
            )
        });
        if let Some(ds) = lock(&shared.datasets).get_mut(&data.id) {
            ds.log.push(RunSpec {
                step,
                name: wire.name,
                params: wire.params.bytes.clone(),
            });
        }
        let capture = shared.capture_task_events.load(Ordering::Relaxed);
        let faults = self.run_faults();
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
        for w in 0..shared.config.workers {
            shared.supervisor.set_busy(w);
        }
        let inflights: Vec<InFlight> = (0..shared.config.workers)
            .map(|w| shared.begin_recovering(w, Some(step), &build))
            .collect();
        let mut batches = Vec::with_capacity(shared.config.workers);
        for (w, inflight) in inflights.into_iter().enumerate() {
            let ex = shared.finish_recovering(w, Some(step), inflight, &build);
            shared.supervisor.set_idle(w);
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
            data.nparts,
            &data.part_bytes,
            capture,
            batches,
            &shared.task_events,
        )
    }

    fn reset_lineage<P: Send + 'static>(&self, data: &NetVec<P>) {
        if let Some(ds) = lock(&self.shared.datasets).get_mut(&data.id) {
            ds.log.clear();
        }
    }

    fn dataset_partitions<P: Send + 'static>(&self, data: &NetVec<P>) -> usize {
        data.nparts
    }

    fn set_task_event_capture(&self, on: bool) {
        self.shared.capture_task_events.store(on, Ordering::Relaxed);
    }

    fn take_task_events(&self) -> Vec<crate::TaskEvents> {
        std::mem::take(&mut *lock(&self.shared.task_events))
    }

    fn core_throughput(&self) -> f64 {
        self.shared.config.core_throughput()
    }
}

/// Builds the `Run`-frame constructor for one superstep delivery.
fn run_builder(
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
        seed: faults.seed,
        failure_rate: faults.failure_rate,
        max_attempts: faults.max_attempts,
        drop_rate: faults.drop_rate,
        delay_rate: faults.delay_rate,
        delay_ms: faults.delay_ms,
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
