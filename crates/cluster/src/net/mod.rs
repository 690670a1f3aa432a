//! The networked execution backend: workers as separate OS processes (or
//! protocol-speaking threads in tests) connected to the driver over TCP,
//! with a length-prefixed binary wire format for every Distribute /
//! Broadcast / MapPartitions / Gather — so the Lemma 6/7 byte meters can
//! be checked against *measured* wire bytes, not just declared sizes.
//!
//! # Metering equivalence
//!
//! [`NetBackend`] mirrors [`crate::Cluster`]'s accounting operation for
//! operation: the same declared-byte counters (`bytes_shuffled`,
//! `bytes_broadcast`, `bytes_collected`), the same virtual-clock charges,
//! and the same deterministic merge through the shared
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
use crate::metrics::{CommMetrics, MetricsSnapshot};
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
    rebuild: Option<Arc<dyn Fn(usize) -> EncodedFrame + Send + Sync>>,
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
    /// `(superstep, worker)` kill entries already fired (each at most once).
    crashes_done: Mutex<Vec<(u64, usize)>>,
    capture_task_events: AtomicBool,
    task_events: Mutex<Vec<crate::TaskEvents>>,
}

/// Handle to a dataset partitioned across networked workers (the
/// [`NetBackend`] analogue of [`crate::DistVec`]). Dropping it evicts the
/// partitions from worker memory (best-effort).
pub struct NetVec<P> {
    id: u64,
    nparts: usize,
    placement: Vec<usize>,
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
        if config.workers == 0 {
            return Err(ClusterError::InvalidConfig(
                "a cluster needs at least one worker".to_string(),
            ));
        }
        if config.cores_per_worker == 0 {
            return Err(ClusterError::InvalidConfig(
                "workers need at least one core".to_string(),
            ));
        }
        if let Some(plan) = &config.fault_plan {
            plan.validate(config.workers);
        }
        let metrics = Arc::new(CommMetrics::new(config.workers));
        let supervisor =
            Supervisor::start(config.workers, host, tuning.clone(), Arc::clone(&metrics))
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
                crashes_done: Mutex::new(Vec::new()),
                capture_task_events: AtomicBool::new(false),
                task_events: Mutex::new(Vec::new()),
            }),
        })
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.shared.config
    }

    /// Distributes without lineage (a crash losing one of these
    /// partitions fails the run with a clean error).
    pub fn distribute<P: Send + 'static>(&self, parts: Vec<(P, u64)>) -> NetVec<P> {
        self.distribute_inner(parts, None)
    }

    /// See [`crate::Cluster::distribute_replicated`].
    pub fn distribute_replicated<P>(&self, parts: Vec<(P, u64)>) -> NetVec<P>
    where
        P: Clone + Send + Sync + 'static,
    {
        let replica: Arc<Vec<P>> = Arc::new(parts.iter().map(|(p, _)| p.clone()).collect());
        self.distribute_with_lineage(parts, move |idx| replica[idx].clone())
    }

    fn distribute_inner<P: Send + 'static>(
        &self,
        parts: Vec<(P, u64)>,
        rebuild: Option<Arc<dyn Fn(usize) -> EncodedFrame + Send + Sync>>,
    ) -> NetVec<P> {
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
        let mut worker_bytes = vec![0u64; workers];
        for (idx, (payload, bytes)) in parts.into_iter().enumerate() {
            let w = idx % workers;
            placement.push(w);
            part_bytes.push(bytes);
            worker_bytes[w] += bytes;
            let frame = encode(&payload as &(dyn Any + Send));
            primary_per_worker[w] += frame.data_len;
            per_worker[w].push((idx as u64, frame.bytes));
        }
        // Declared-byte metering, identical to the simulated cluster.
        let total_bytes: u64 = worker_bytes.iter().sum();
        shared.metrics.add_shuffled(total_bytes);
        shared.metrics.add_stored(total_bytes);
        let net = &shared.config.network;
        let step_secs = worker_bytes
            .iter()
            .map(|&b| net.transfer_secs(b))
            .fold(0.0, f64::max);
        shared.metrics.advance_clock(step_secs);

        let step_ctx = shared.submitted_steps.load(Ordering::Relaxed);
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
        let exchanges = shared.fanout(step_ctx, None, &builders);
        for (w, ex) in exchanges.into_iter().enumerate() {
            let Some(ex) = ex else { continue };
            shared.expect_ack(&ex.reply);
            shared.meter_exchange(primary_per_worker[w], 0, ex.bytes_sent, ex.bytes_received);
        }

        lock(&shared.datasets).insert(
            id,
            NetDatasetState {
                placement: placement.clone(),
                part_bytes: part_bytes.clone(),
                codec: codec_name,
                rebuild,
                log: Vec::new(),
            },
        );
        NetVec {
            id,
            nparts,
            placement,
            part_bytes,
            shared: Arc::clone(shared),
            _marker: std::marker::PhantomData,
        }
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
        let Some(plan) = &shared.fault else { return };
        if !plan.schedules_crashes() {
            return;
        }
        let kills = plan.kills_at(step, shared.config.workers);
        if kills.is_empty() {
            return;
        }
        let pending: Vec<usize> = {
            let mut done = lock(&shared.crashes_done);
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
            shared.supervisor.kill_worker(w);
            shared.respawn_and_recover(step, w, None);
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
        self.shared
            .metrics
            .advance_clock(ops as f64 / self.shared.config.core_throughput_ops_per_sec);
    }

    fn distribute_with_lineage<P, F>(&self, parts: Vec<(P, u64)>, rebuild: F) -> NetVec<P>
    where
        P: Send + 'static,
        F: Fn(usize) -> P + Send + Sync + 'static,
    {
        let encode = self.shared.registry.part_codec_of::<P>().encode;
        self.distribute_inner(
            parts,
            Some(Arc::new(move |idx| {
                let payload = rebuild(idx);
                encode(&payload as &(dyn Any + Send))
            })),
        )
    }

    fn broadcast<T: Send + Sync + 'static>(&self, value: T, bytes: u64) -> Broadcast<T> {
        let shared = &self.shared;
        let workers = shared.config.workers as u64;
        shared.metrics.add_broadcast(bytes * workers);
        let secs = shared.config.network.transfer_secs(bytes * workers);
        shared.metrics.advance_clock(secs);
        let encoder = shared.registry.bcast_encoder_of::<T>();
        let frame = encoder(&value as &(dyn Any + Send + Sync));
        let data_len = frame.data_len;
        let frame_bytes = Arc::new(frame.bytes);
        let id = shared.next_broadcast.fetch_add(1, Ordering::Relaxed);
        let step_ctx = shared.submitted_steps.load(Ordering::Relaxed);
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
        for ex in shared
            .fanout(step_ctx, None, &builders)
            .into_iter()
            .flatten()
        {
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
            if ds.rebuild.is_some() {
                ds.log.push(RunSpec {
                    step,
                    name: wire.name,
                    params: wire.params.bytes.clone(),
                });
            }
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
            .map(|w| shared.begin_recovering(step, w, Some(step), &build))
            .collect();
        let mut batches = Vec::with_capacity(shared.config.workers);
        for (w, inflight) in inflights.into_iter().enumerate() {
            let ex = shared.finish_recovering(step, w, Some(step), inflight, &build);
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
            shared.fault.as_ref(),
            step,
            data.nparts,
            &data.part_bytes,
            capture,
            batches,
            &shared.task_events,
        )
    }

    fn gather<P>(&self, data: &NetVec<P>) -> Vec<P>
    where
        P: Clone + Send + 'static,
    {
        let shared = &self.shared;
        assert!(
            Arc::ptr_eq(shared, &data.shared),
            "dataset belongs to a different cluster"
        );
        // A gather is a superstep (same step numbering and fault draws as
        // the simulated cluster's clone-collect superstep). The clone task
        // charges no ops and replays as a no-op, so it is not logged.
        let step = shared.submitted_steps.fetch_add(1, Ordering::Relaxed);
        self.inject_kills(step);
        let capture = shared.capture_task_events.load(Ordering::Relaxed);
        let codec = shared.registry.part_codec_of::<P>();
        let (decode, codec_name) = (codec.decode, codec.name);
        let builders: Vec<FrameBuilder<'_>> = (0..shared.config.workers)
            .map(|_| {
                Some(Box::new(move |req, _delivery| Frame::Gather {
                    req,
                    dataset: data.id,
                    step,
                    codec: codec_name.to_string(),
                    capture,
                }) as Box<dyn Fn(u64, u64) -> Frame + '_>)
            })
            .collect();
        let exchanges = shared.fanout(step, None, &builders);
        let mut batches = Vec::with_capacity(shared.config.workers);
        for (w, ex) in exchanges.into_iter().enumerate() {
            let ex = ex.expect("gather queried every worker");
            let (bytes_sent, bytes_received) = (ex.bytes_sent, ex.bytes_received);
            let Frame::Batch { reply, .. } = ex.reply else {
                NetShared::fatal(format!("gather expected a Batch reply, got {:?}", ex.reply));
            };
            let mut by_idx: HashMap<u64, Vec<u8>> = reply.results.into_iter().collect();
            let local: Vec<usize> = data
                .placement
                .iter()
                .enumerate()
                .filter(|&(_, &p)| p == w)
                .map(|(idx, _)| idx)
                .collect();
            let mut results: Vec<(usize, AnyPart)> = Vec::with_capacity(local.len());
            let mut panics: Vec<(usize, String)> = Vec::new();
            let mut stats: Vec<TaskStat> = Vec::with_capacity(local.len());
            let mut result_bytes = 0u64;
            let mut primary_received = 0u64;
            for idx in local {
                // Mirror the worker-side launch-retry draws the simulated
                // cluster's clone task would make for this partition.
                let retries = match shared.launch_retries(step, idx) {
                    Ok(retries) => retries,
                    Err((retries, msg)) => {
                        panics.push((idx, msg));
                        stats.push(TaskStat {
                            idx,
                            ops: 0,
                            retries,
                            kernels: Vec::new(),
                        });
                        continue;
                    }
                };
                let bytes = by_idx.remove(&(idx as u64)).unwrap_or_else(|| {
                    NetShared::fatal(format!(
                        "worker {w} did not return partition {idx} of dataset {}",
                        data.id
                    ))
                });
                primary_received += frame_data_len(&bytes)
                    .unwrap_or_else(|e| NetShared::fatal(format!("corrupt result frame: {e}")));
                let part = (decode)(&bytes).unwrap_or_else(|e| {
                    NetShared::fatal(format!("partition {idx} failed to decode: {}", e.0))
                });
                results.push((idx, part));
                result_bytes += data.part_bytes[idx];
                stats.push(TaskStat {
                    idx,
                    ops: 0,
                    retries,
                    kernels: Vec::new(),
                });
            }
            shared.meter_exchange(0, primary_received, bytes_sent, bytes_received);
            batches.push(BatchResult {
                worker: w,
                results,
                panics,
                stats,
                total_ops: 0,
                max_task_ops: 0,
                result_bytes,
            });
        }
        merge_superstep(
            &shared.config,
            &shared.metrics,
            shared.fault.as_ref(),
            step,
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

    fn core_throughput(&self, worker: usize) -> f64 {
        let _ = worker; // homogeneous cluster
        self.shared.config.core_throughput_ops_per_sec
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
        total_ops: reply.total_ops,
        max_task_ops: reply.max_task_ops,
        result_bytes: reply.result_bytes,
    };
    (batch, primary)
}
