//! Virtual-time clock and communication metering, and the engine's one
//! cost model: every backend charges its meters and its virtual clock
//! through the `charge_*` methods on [`CommMetrics`], so the Lemma 6/7
//! counters and the clock are the same bits on every backend by
//! construction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::config::ClusterConfig;
use crate::executor::BatchResult;
use crate::fault::FaultPlan;
use crate::lock;

/// A span of virtual time, in seconds.
///
/// Separate from `std::time::Duration` to make it impossible to confuse
/// simulated cluster time with host wall-clock time.
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd, Default)]
pub struct VirtualDuration(f64);

impl VirtualDuration {
    /// A span of `secs` virtual seconds.
    pub fn from_secs_f64(secs: f64) -> Self {
        debug_assert!(secs >= 0.0 && secs.is_finite(), "bad duration {secs}");
        VirtualDuration(secs)
    }

    /// The span in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0
    }

    /// `self − rhs`, clamped to zero when `rhs` is larger.
    ///
    /// This is the *explicit* saturating form for call sites that
    /// legitimately race a moving clock. The `-` operator instead treats
    /// underflow as a bug (`debug_assert!`): a later timestamp subtracted
    /// from an earlier one means the clock ran backwards somewhere, and
    /// clamping silently would mask it.
    pub fn saturating_sub(self, rhs: VirtualDuration) -> VirtualDuration {
        VirtualDuration((self.0 - rhs.0).max(0.0))
    }
}

impl std::ops::Add for VirtualDuration {
    type Output = VirtualDuration;
    fn add(self, rhs: VirtualDuration) -> VirtualDuration {
        VirtualDuration(self.0 + rhs.0)
    }
}

impl std::ops::Sub for VirtualDuration {
    type Output = VirtualDuration;
    fn sub(self, rhs: VirtualDuration) -> VirtualDuration {
        debug_assert!(
            self.0 >= rhs.0,
            "VirtualDuration underflow: {} - {} (clock ran backwards?); \
             use saturating_sub if clamping is intended",
            self.0,
            rhs.0
        );
        VirtualDuration((self.0 - rhs.0).max(0.0))
    }
}

impl std::fmt::Display for VirtualDuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}s (virtual)", self.0)
    }
}

/// Cumulative communication counters for a cluster.
///
/// These are the quantities the paper analyses: Lemma 6 bounds
/// `bytes_shuffled` by `O(|X|)` for partitioning, Lemma 7 bounds
/// `bytes_broadcast + bytes_collected` by `O(T·I·R·(M + N))` for the
/// iterations.
#[derive(Debug, Default)]
pub struct CommMetrics {
    pub(crate) bytes_shuffled: AtomicU64,
    pub(crate) bytes_broadcast: AtomicU64,
    pub(crate) bytes_collected: AtomicU64,
    pub(crate) messages: AtomicU64,
    pub(crate) tasks_run: AtomicU64,
    pub(crate) total_ops: AtomicU64,
    pub(crate) supersteps: AtomicU64,
    pub(crate) stored_bytes: AtomicU64,
    pub(crate) task_retries: AtomicU64,
    pub(crate) worker_respawns: AtomicU64,
    pub(crate) partitions_recomputed: AtomicU64,
    pub(crate) bytes_reshipped: AtomicU64,
    pub(crate) recovery_ops: AtomicU64,
    pub(crate) speculative_tasks: AtomicU64,
    pub(crate) speculative_wins: AtomicU64,
    /// Networked backend: times a live worker's connection was re-established.
    pub(crate) net_reconnects: AtomicU64,
    /// Networked backend: requests that hit the per-request socket timeout.
    pub(crate) net_request_timeouts: AtomicU64,
    /// Networked backend: measured payload bytes in driver→worker frames
    /// (Store data + Broadcast data × workers); equals
    /// `bytes_shuffled + bytes_broadcast` on a networked run.
    pub(crate) net_wire_bytes_sent: AtomicU64,
    /// Networked backend: measured payload bytes in worker→driver frames
    /// (task results); equals `bytes_collected`.
    pub(crate) net_wire_bytes_received: AtomicU64,
    /// Networked backend: wire bytes outside the Lemma meters — frame
    /// headers, task parameters, acks, handshakes, and resends after
    /// connection drops.
    pub(crate) net_wire_overhead_bytes: AtomicU64,
    /// Networked backend: payload bytes re-shipped to a respawned worker
    /// process during lineage recovery (the wire-level counterpart of
    /// `bytes_reshipped`).
    pub(crate) net_wire_reship_bytes: AtomicU64,
    pub(crate) clock_secs: Mutex<f64>,
    pub(crate) recovery_secs: Mutex<f64>,
    /// Virtual idle-seconds: per superstep, the busy-time gap between each
    /// worker and that superstep's makespan, summed over workers.
    pub(crate) pool_idle_secs: Mutex<f64>,
    /// Virtual busy-seconds accumulated per worker (index = worker id).
    pub(crate) worker_busy_secs: Mutex<Vec<f64>>,
    /// `(superstep, worker)` crashes already fired: each fires at most once.
    crashes_fired: Mutex<Vec<(u64, usize)>>,
}

impl CommMetrics {
    pub(crate) fn new(workers: usize) -> Self {
        CommMetrics {
            worker_busy_secs: Mutex::new(vec![0.0; workers]),
            ..CommMetrics::default()
        }
    }

    fn add_shuffled(&self, bytes: u64) {
        self.bytes_shuffled.fetch_add(bytes, Ordering::Relaxed);
        self.messages.fetch_add(1, Ordering::Relaxed);
    }

    fn add_broadcast(&self, bytes: u64) {
        self.bytes_broadcast.fetch_add(bytes, Ordering::Relaxed);
        self.messages.fetch_add(1, Ordering::Relaxed);
    }

    fn add_collected(&self, bytes: u64) {
        self.bytes_collected.fetch_add(bytes, Ordering::Relaxed);
        self.messages.fetch_add(1, Ordering::Relaxed);
    }

    fn add_stored(&self, bytes: u64) {
        self.stored_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn sub_stored(&self, bytes: u64) {
        self.stored_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    fn advance_clock(&self, secs: f64) {
        *lock(&self.clock_secs) += secs;
    }

    fn add_reshipped(&self, bytes: u64) {
        self.bytes_reshipped.fetch_add(bytes, Ordering::Relaxed);
        self.messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Charges `secs` of fault-handling overhead: advances the virtual
    /// clock *and* attributes the span to recovery, so the cost of failure
    /// stays separately measurable.
    fn charge_recovery(&self, secs: f64) {
        self.advance_clock(secs);
        self.note_recovery(secs);
    }

    /// Attributes `secs` of already-charged virtual time to recovery
    /// without advancing the clock again (used when the clock moves by the
    /// superstep's effective makespan and only the stretch beyond the
    /// fault-free schedule is recovery overhead).
    fn note_recovery(&self, secs: f64) {
        *lock(&self.recovery_secs) += secs;
    }

    /// Accumulates virtual idle time (worker busy-time below the superstep
    /// makespan, summed over workers).
    fn add_pool_idle(&self, secs: f64) {
        *lock(&self.pool_idle_secs) += secs;
    }

    /// Distribute (Lemma 6): the whole dataset crosses the network once
    /// and stays in worker memory. Each partition lands on its worker by
    /// [`ClusterConfig::worker_of`]; workers receive in parallel, so the
    /// step costs the slowest link.
    pub(crate) fn charge_distribute(&self, cfg: &ClusterConfig, part_bytes: &[u64]) {
        let mut worker_bytes = vec![0u64; cfg.workers];
        for (idx, &bytes) in part_bytes.iter().enumerate() {
            worker_bytes[cfg.worker_of(idx)] += bytes;
        }
        let total: u64 = worker_bytes.iter().sum();
        self.add_shuffled(total);
        self.add_stored(total);
        let secs = worker_bytes
            .iter()
            .map(|&b| cfg.network.transfer_secs(b))
            .fold(0.0, f64::max);
        self.advance_clock(secs);
    }

    /// Broadcast (Lemma 7): `bytes` to every worker, as `workers`
    /// transfers serialised through the driver's uplink.
    pub(crate) fn charge_broadcast(&self, cfg: &ClusterConfig, bytes: u64) {
        let total = bytes * cfg.workers as u64;
        self.add_broadcast(total);
        self.advance_clock(cfg.network.transfer_secs(total));
    }

    /// Driver-side compute: `ops` on one core.
    pub(crate) fn charge_driver(&self, cfg: &ClusterConfig, ops: u64) {
        self.advance_clock(ops as f64 / cfg.core_throughput());
    }

    /// One superstep, from every worker's batch in worker order: each
    /// worker's busy time, the idle meter, the op, task and collect
    /// counters, and the clock, which advances by the makespan plus the
    /// slowest result collection. `fault` is the fault plan and the
    /// superstep's index, when a plan is active (see
    /// [`CommMetrics::superstep_times`]).
    pub(crate) fn charge_superstep(
        &self,
        cfg: &ClusterConfig,
        fault: Option<(&FaultPlan, u64)>,
        part_bytes: &[u64],
        batches: &[BatchResult],
    ) {
        let times = self.superstep_times(cfg, fault, part_bytes, batches);
        let makespan = times.iter().fold(0.0f64, |a, &b| a.max(b));
        // Idle meter: per-worker busy-time shortfall against the makespan
        // (observability only; excluded from snapshot equality).
        let idle: f64 = times.iter().map(|&t| makespan - t).sum();
        if idle > 0.0 {
            self.add_pool_idle(idle);
        }
        let mut collect_secs = 0.0f64;
        {
            let mut busy = lock(&self.worker_busy_secs);
            for (batch, &time) in batches.iter().zip(&times) {
                let load = &batch.load;
                busy[batch.worker] += time;
                collect_secs = collect_secs.max(cfg.network.transfer_secs(load.result_bytes));
                self.add_collected(load.result_bytes);
                self.total_ops.fetch_add(load.total_ops, Ordering::Relaxed);
                self.tasks_run.fetch_add(load.tasks, Ordering::Relaxed);
            }
        }
        self.advance_clock(makespan + collect_secs);
        self.supersteps.fetch_add(1, Ordering::Relaxed);
    }

    /// Virtual completion time of each batch (same order as `batches`).
    /// Fault-free, a worker's time is [`worker_secs`]. Under a fault plan
    /// with slow tasks or transient failures, each task is stretched by
    /// its slowdown and retry backoffs, and with speculation on, a task
    /// past the deadline gets a copy on another worker and finishes at
    /// the earlier of the two.
    fn superstep_times(
        &self,
        cfg: &ClusterConfig,
        fault: Option<(&FaultPlan, u64)>,
        part_bytes: &[u64],
        batches: &[BatchResult],
    ) -> Vec<f64> {
        let nominal: Vec<f64> = batches
            .iter()
            .map(|b| worker_secs(cfg, b.load.total_ops, b.load.max_task_ops))
            .collect();
        let Some((plan, step)) =
            fault.filter(|(p, _)| p.task_failure_rate > 0.0 || p.slow_task_rate > 0.0)
        else {
            return nominal;
        };

        let nominal_makespan = nominal.iter().fold(0.0, |a: f64, &b| a.max(b));
        let deadline = SPECULATION_THRESHOLD * nominal_makespan;
        // A speculative copy runs on the lowest worker id other than the
        // slow task's; every worker runs at the same rate, so only whether
        // another worker exists matters.
        let can_speculate = plan.speculation && cfg.workers > 1;
        let mut retries_total = 0u64;
        let mut effective = Vec::with_capacity(batches.len());
        for b in batches {
            let agg = b.load.total_ops as f64 / cfg.worker_throughput();
            let mut longest = 0.0f64;
            for stat in &b.stats {
                retries_total += stat.retries as u64;
                let mut t = (stat.ops as f64 / cfg.core_throughput())
                    * plan.task_slowdown(step, stat.idx)
                    + plan.backoff_secs(stat.retries);
                if can_speculate && t > deadline {
                    self.speculative_tasks.fetch_add(1, Ordering::Relaxed);
                    self.recovery_ops.fetch_add(stat.ops, Ordering::Relaxed);
                    let copy = deadline
                        + cfg.network.transfer_secs(part_bytes[stat.idx])
                        + stat.ops as f64 / cfg.core_throughput();
                    if copy < t {
                        self.speculative_wins.fetch_add(1, Ordering::Relaxed);
                        self.add_reshipped(part_bytes[stat.idx]);
                        t = copy;
                    }
                }
                longest = longest.max(t);
            }
            effective.push(agg.max(longest));
        }
        if retries_total > 0 {
            self.task_retries
                .fetch_add(retries_total, Ordering::Relaxed);
        }
        // The makespan stretch beyond the fault-free schedule is the
        // superstep's recovery overhead (the clock itself advances by the
        // effective makespan in the caller).
        let eff_makespan = effective.iter().fold(0.0, |a: f64, &b| a.max(b));
        let overhead = (eff_makespan - nominal_makespan).max(0.0);
        if overhead > 0.0 {
            self.note_recovery(overhead);
        }
        effective
    }

    /// The fire-once crash filter: the workers `plan` kills at superstep
    /// `step` (see [`FaultPlan::kills_at`]) that have not been killed at
    /// that superstep before, in the plan's order.
    pub(crate) fn crashes_to_fire(
        &self,
        plan: Option<&FaultPlan>,
        step: u64,
        workers: usize,
    ) -> Vec<usize> {
        let Some(plan) = plan.filter(|p| p.schedules_crashes()) else {
            return Vec::new();
        };
        let mut fired = lock(&self.crashes_fired);
        plan.kills_at(step, workers)
            .into_iter()
            .filter(|&w| {
                let fresh = !fired.contains(&(step, w));
                if fresh {
                    fired.push((step, w));
                }
                fresh
            })
            .collect()
    }

    /// A worker respawned after a crash.
    pub(crate) fn charge_respawn(&self) {
        self.worker_respawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Recovery re-ship: `partitions` lost partitions, `bytes` in all,
    /// recomputed from lineage and shipped to a respawned worker over
    /// one link.
    pub(crate) fn charge_reship(&self, cfg: &ClusterConfig, partitions: usize, bytes: u64) {
        self.partitions_recomputed
            .fetch_add(partitions as u64, Ordering::Relaxed);
        self.add_reshipped(bytes);
        self.charge_recovery(cfg.network.transfer_secs(bytes));
    }

    /// Recovery replay of one logged task on a respawned worker: its ops
    /// go to `recovery_ops`, never to `total_ops`, and its time to the
    /// recovery clock.
    pub(crate) fn charge_replay(&self, cfg: &ClusterConfig, total_ops: u64, max_task_ops: u64) {
        self.recovery_ops.fetch_add(total_ops, Ordering::Relaxed);
        self.charge_recovery(worker_secs(cfg, total_ops, max_task_ops));
    }

    /// Takes a consistent snapshot of all counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            bytes_shuffled: self.bytes_shuffled.load(Ordering::Relaxed),
            bytes_broadcast: self.bytes_broadcast.load(Ordering::Relaxed),
            bytes_collected: self.bytes_collected.load(Ordering::Relaxed),
            messages: self.messages.load(Ordering::Relaxed),
            tasks_run: self.tasks_run.load(Ordering::Relaxed),
            total_ops: self.total_ops.load(Ordering::Relaxed),
            supersteps: self.supersteps.load(Ordering::Relaxed),
            stored_bytes: self.stored_bytes.load(Ordering::Relaxed),
            task_retries: self.task_retries.load(Ordering::Relaxed),
            worker_respawns: self.worker_respawns.load(Ordering::Relaxed),
            partitions_recomputed: self.partitions_recomputed.load(Ordering::Relaxed),
            bytes_reshipped: self.bytes_reshipped.load(Ordering::Relaxed),
            recovery_ops: self.recovery_ops.load(Ordering::Relaxed),
            speculative_tasks: self.speculative_tasks.load(Ordering::Relaxed),
            speculative_wins: self.speculative_wins.load(Ordering::Relaxed),
            recovery_time: VirtualDuration::from_secs_f64(*lock(&self.recovery_secs)),
            virtual_time: VirtualDuration::from_secs_f64(*lock(&self.clock_secs)),
            worker_busy_secs: lock(&self.worker_busy_secs).clone(),
            pool_idle_secs: *lock(&self.pool_idle_secs),
            net_reconnects: self.net_reconnects.load(Ordering::Relaxed),
            net_request_timeouts: self.net_request_timeouts.load(Ordering::Relaxed),
            net_wire_bytes_sent: self.net_wire_bytes_sent.load(Ordering::Relaxed),
            net_wire_bytes_received: self.net_wire_bytes_received.load(Ordering::Relaxed),
            net_wire_overhead_bytes: self.net_wire_overhead_bytes.load(Ordering::Relaxed),
            net_wire_reship_bytes: self.net_wire_reship_bytes.load(Ordering::Relaxed),
        }
    }
}

/// With [`FaultPlan::speculation`] on, a task whose completion would
/// exceed this multiple of the fault-free superstep makespan gets a
/// speculative copy on another worker.
const SPECULATION_THRESHOLD: f64 = 1.5;

/// Virtual seconds one worker needs for a superstep share of `total_ops`
/// ops: perfect parallelism over its cores, floored by its largest single
/// task (`max_task_ops`) on one core.
pub(crate) fn worker_secs(cfg: &ClusterConfig, total_ops: u64, max_task_ops: u64) -> f64 {
    (total_ops as f64 / cfg.worker_throughput()).max(max_task_ops as f64 / cfg.core_throughput())
}

/// One worker's share of a superstep, as the cost model charges it.
#[derive(Default)]
pub(crate) struct WorkerLoad {
    /// Ops charged by all of the worker's tasks.
    pub(crate) total_ops: u64,
    /// Ops charged by its largest task.
    pub(crate) max_task_ops: u64,
    /// Declared result bytes collected from it.
    pub(crate) result_bytes: u64,
    /// Tasks that returned a result.
    pub(crate) tasks: u64,
}

impl WorkerLoad {
    /// Adds one task's charges; `returned` is false for a task that
    /// panicked or exhausted its launch attempts.
    pub(crate) fn add_task(&mut self, ops: u64, result_bytes: u64, returned: bool) {
        self.total_ops += ops;
        self.max_task_ops = self.max_task_ops.max(ops);
        self.result_bytes += result_bytes;
        self.tasks += u64::from(returned);
    }
}

/// A point-in-time copy of a cluster's [`CommMetrics`].
///
/// Equality (`PartialEq`) covers every *deterministic* field — the ones the
/// bit-identity contract pins across backends and worker counts. The
/// observability fields (`pool_idle_secs`, `net_*`) are excluded: the idle
/// meter is observability-only, and the `net_*` fields depend on the host
/// schedule or on injected wire faults; see the manual impl below.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Bytes moved by [`crate::ExecutionBackend::distribute_with_lineage`]
    /// (the one-off partitioning shuffle — Lemma 6).
    pub bytes_shuffled: u64,
    /// Bytes moved by [`crate::ExecutionBackend::broadcast`] (factor matrices each
    /// iteration — Lemma 7).
    pub bytes_broadcast: u64,
    /// Bytes returned from workers to the driver (per-column error
    /// collection — Lemma 7).
    pub bytes_collected: u64,
    /// Total network messages.
    pub messages: u64,
    /// Number of partition tasks executed.
    pub tasks_run: u64,
    /// Total abstract ops charged by tasks.
    pub total_ops: u64,
    /// Number of supersteps (barrier-synchronised map rounds).
    pub supersteps: u64,
    /// Bytes currently persisted in worker memory across all datasets
    /// (the cached partitioned unfoldings — Lemma 5's `O(|X|)` term).
    pub stored_bytes: u64,
    /// Transient task-launch failures that were retried (fault injection).
    pub task_retries: u64,
    /// Workers crashed by the fault plan (or found dead on the networked
    /// backend) and restored by the engine.
    pub worker_respawns: u64,
    /// Partitions rebuilt from lineage after a worker crash.
    pub partitions_recomputed: u64,
    /// Bytes re-sent over the network for recovery: re-installed partitions
    /// after a crash plus inputs of speculative task copies. Kept separate
    /// from the shuffle/broadcast/collect counters so the Lemma 6/7 bounds
    /// stay exact on the fault-free traffic.
    pub bytes_reshipped: u64,
    /// Abstract ops spent replaying lineage logs after a crash (charged to
    /// the clock but not to `total_ops`, which stays bit-identical to the
    /// fault-free run).
    pub recovery_ops: u64,
    /// Straggler tasks that got a speculative copy launched.
    pub speculative_tasks: u64,
    /// Speculative copies that finished before the slowed original.
    pub speculative_wins: u64,
    /// Virtual time attributable to fault handling: retry backoffs,
    /// slowdown-induced makespan stretch (net of speculative wins),
    /// partition re-shipping, and lineage replay. Always ≤ `virtual_time`;
    /// zero in a fault-free run.
    pub recovery_time: VirtualDuration,
    /// The virtual clock.
    pub virtual_time: VirtualDuration,
    /// Per-worker virtual busy time; the spread measures load balance.
    pub worker_busy_secs: Vec<f64>,
    /// Virtual idle-seconds across workers (busy-time below each
    /// superstep's makespan), exported as `pool.idle_virtual_secs`. A
    /// virtual-clock meter, not thread-pool state: the name is kept
    /// because counter names are stable API. Deterministic but
    /// observability-only; excluded from `==`.
    pub pool_idle_secs: f64,
    /// Networked backend: live-worker connections re-established after a
    /// drop. Depends on injected wire faults — excluded from `==`.
    pub net_reconnects: u64,
    /// Networked backend: requests that hit the socket timeout and were
    /// retried. Wall-clock statistic — excluded from `==`.
    pub net_request_timeouts: u64,
    /// Networked backend: measured payload bytes shipped driver→worker.
    /// On a networked run this equals `bytes_shuffled + bytes_broadcast`
    /// exactly (the Lemma 6/7 meters, now *measured* on the wire); zero on
    /// in-process backends, hence excluded from cross-backend `==`.
    pub net_wire_bytes_sent: u64,
    /// Networked backend: measured payload bytes received worker→driver;
    /// equals `bytes_collected` exactly. Excluded from `==` (zero on
    /// in-process backends).
    pub net_wire_bytes_received: u64,
    /// Networked backend: wire bytes outside the Lemma meters (headers,
    /// task params, acks, handshakes, drop-triggered resends). Excluded
    /// from `==`.
    pub net_wire_overhead_bytes: u64,
    /// Networked backend: payload bytes re-shipped to respawned worker
    /// processes during recovery. Excluded from `==`.
    pub net_wire_reship_bytes: u64,
}

impl PartialEq for MetricsSnapshot {
    fn eq(&self, other: &Self) -> bool {
        // Deliberately NOT derived: the idle meter and the net_*
        // observability fields are outside the determinism contract (the
        // net_* ones vary with the host schedule or injected wire faults),
        // so snapshot equality compares only the deterministic meters.
        self.bytes_shuffled == other.bytes_shuffled
            && self.bytes_broadcast == other.bytes_broadcast
            && self.bytes_collected == other.bytes_collected
            && self.messages == other.messages
            && self.tasks_run == other.tasks_run
            && self.total_ops == other.total_ops
            && self.supersteps == other.supersteps
            && self.stored_bytes == other.stored_bytes
            && self.task_retries == other.task_retries
            && self.worker_respawns == other.worker_respawns
            && self.partitions_recomputed == other.partitions_recomputed
            && self.bytes_reshipped == other.bytes_reshipped
            && self.recovery_ops == other.recovery_ops
            && self.speculative_tasks == other.speculative_tasks
            && self.speculative_wins == other.speculative_wins
            && self.recovery_time == other.recovery_time
            && self.virtual_time == other.virtual_time
            && self.worker_busy_secs == other.worker_busy_secs
    }
}

impl MetricsSnapshot {
    /// Difference of two snapshots (self − earlier), for metering a phase.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            bytes_shuffled: self.bytes_shuffled - earlier.bytes_shuffled,
            bytes_broadcast: self.bytes_broadcast - earlier.bytes_broadcast,
            bytes_collected: self.bytes_collected - earlier.bytes_collected,
            messages: self.messages - earlier.messages,
            tasks_run: self.tasks_run - earlier.tasks_run,
            total_ops: self.total_ops - earlier.total_ops,
            supersteps: self.supersteps - earlier.supersteps,
            stored_bytes: self.stored_bytes,
            task_retries: self.task_retries - earlier.task_retries,
            worker_respawns: self.worker_respawns - earlier.worker_respawns,
            partitions_recomputed: self.partitions_recomputed - earlier.partitions_recomputed,
            bytes_reshipped: self.bytes_reshipped - earlier.bytes_reshipped,
            recovery_ops: self.recovery_ops - earlier.recovery_ops,
            speculative_tasks: self.speculative_tasks - earlier.speculative_tasks,
            speculative_wins: self.speculative_wins - earlier.speculative_wins,
            recovery_time: self.recovery_time - earlier.recovery_time,
            virtual_time: self.virtual_time - earlier.virtual_time,
            pool_idle_secs: (self.pool_idle_secs - earlier.pool_idle_secs).max(0.0),
            net_reconnects: self.net_reconnects.saturating_sub(earlier.net_reconnects),
            net_request_timeouts: self
                .net_request_timeouts
                .saturating_sub(earlier.net_request_timeouts),
            net_wire_bytes_sent: self
                .net_wire_bytes_sent
                .saturating_sub(earlier.net_wire_bytes_sent),
            net_wire_bytes_received: self
                .net_wire_bytes_received
                .saturating_sub(earlier.net_wire_bytes_received),
            net_wire_overhead_bytes: self
                .net_wire_overhead_bytes
                .saturating_sub(earlier.net_wire_overhead_bytes),
            net_wire_reship_bytes: self
                .net_wire_reship_bytes
                .saturating_sub(earlier.net_wire_reship_bytes),
            worker_busy_secs: self
                .worker_busy_secs
                .iter()
                .zip(
                    earlier
                        .worker_busy_secs
                        .iter()
                        .chain(std::iter::repeat(&0.0)),
                )
                .map(|(a, b)| (a - b).max(0.0))
                .collect(),
        }
    }

    /// Every counter as a `(name, value)` list in a fixed order — the
    /// export the drivers hand to [`dbtf_telemetry::Tracer::set_counter`]
    /// for the Chrome trace writer. Names are stable API: tooling keys off
    /// them.
    pub fn named_counters(&self) -> Vec<(&'static str, f64)> {
        let mut out = vec![
            ("net.bytes_shuffled", self.bytes_shuffled as f64),
            ("net.bytes_broadcast", self.bytes_broadcast as f64),
            ("net.bytes_collected", self.bytes_collected as f64),
            ("net.messages", self.messages as f64),
            ("exec.tasks_run", self.tasks_run as f64),
            ("exec.total_ops", self.total_ops as f64),
            ("exec.supersteps", self.supersteps as f64),
            ("mem.stored_bytes", self.stored_bytes as f64),
            ("recovery.task_retries", self.task_retries as f64),
            ("recovery.worker_respawns", self.worker_respawns as f64),
            (
                "recovery.partitions_recomputed",
                self.partitions_recomputed as f64,
            ),
            ("recovery.bytes_reshipped", self.bytes_reshipped as f64),
            ("recovery.ops", self.recovery_ops as f64),
            ("recovery.speculative_tasks", self.speculative_tasks as f64),
            ("recovery.speculative_wins", self.speculative_wins as f64),
            ("clock.recovery_secs", self.recovery_time.as_secs_f64()),
            ("clock.virtual_secs", self.virtual_time.as_secs_f64()),
        ];
        out.push((
            "exec.worker_busy_secs_max",
            self.worker_busy_secs.iter().copied().fold(0.0, f64::max),
        ));
        out.extend([
            ("pool.idle_virtual_secs", self.pool_idle_secs),
            ("net.reconnects", self.net_reconnects as f64),
            ("net.request_timeouts", self.net_request_timeouts as f64),
            ("net.wire_bytes_sent", self.net_wire_bytes_sent as f64),
            (
                "net.wire_bytes_received",
                self.net_wire_bytes_received as f64,
            ),
            (
                "net.wire_overhead_bytes",
                self.net_wire_overhead_bytes as f64,
            ),
            ("net.wire_reship_bytes", self.net_wire_reship_bytes as f64),
        ]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_duration_arithmetic() {
        let a = VirtualDuration::from_secs_f64(2.0);
        let b = VirtualDuration::from_secs_f64(0.5);
        assert_eq!((a + b).as_secs_f64(), 2.5);
        assert_eq!((a - b).as_secs_f64(), 1.5);
        assert_eq!(b.saturating_sub(a).as_secs_f64(), 0.0);
        assert_eq!(a.saturating_sub(b).as_secs_f64(), 1.5);
    }

    /// Regression: subtracting a later timestamp from an earlier one used
    /// to clamp silently to 0.0, masking backwards-clock bugs. It is now a
    /// debug assertion; `saturating_sub` is the explicit clamping form.
    #[test]
    #[should_panic(expected = "VirtualDuration underflow")]
    #[cfg(debug_assertions)]
    fn virtual_duration_sub_underflow_panics_in_debug() {
        let earlier = VirtualDuration::from_secs_f64(1.0);
        let later = VirtualDuration::from_secs_f64(2.0);
        let _ = earlier - later;
    }

    #[test]
    fn metrics_accumulate_and_snapshot() {
        let m = CommMetrics::new(2);
        m.add_shuffled(100);
        m.add_broadcast(10);
        m.add_collected(5);
        m.add_stored(100);
        m.advance_clock(1.25);
        let s = m.snapshot();
        assert_eq!(s.bytes_shuffled, 100);
        assert_eq!(s.bytes_broadcast, 10);
        assert_eq!(s.bytes_collected, 5);
        assert_eq!(s.messages, 3);
        assert_eq!(s.stored_bytes, 100);
        assert_eq!(s.virtual_time.as_secs_f64(), 1.25);
        m.sub_stored(40);
        assert_eq!(m.snapshot().stored_bytes, 60);
    }

    #[test]
    fn recovery_counters_snapshot_and_since() {
        let m = CommMetrics::new(2);
        m.task_retries.fetch_add(3, Ordering::Relaxed);
        m.worker_respawns.fetch_add(1, Ordering::Relaxed);
        m.partitions_recomputed.fetch_add(4, Ordering::Relaxed);
        m.add_reshipped(256);
        m.recovery_ops.fetch_add(99, Ordering::Relaxed);
        m.speculative_tasks.fetch_add(2, Ordering::Relaxed);
        m.speculative_wins.fetch_add(1, Ordering::Relaxed);
        m.charge_recovery(0.5);
        let s = m.snapshot();
        assert_eq!(s.task_retries, 3);
        assert_eq!(s.worker_respawns, 1);
        assert_eq!(s.partitions_recomputed, 4);
        assert_eq!(s.bytes_reshipped, 256);
        assert_eq!(s.recovery_ops, 99);
        assert_eq!(s.speculative_tasks, 2);
        assert_eq!(s.speculative_wins, 1);
        assert_eq!(s.recovery_time.as_secs_f64(), 0.5);
        // charge_recovery advances the main clock too.
        assert_eq!(s.virtual_time.as_secs_f64(), 0.5);

        let later = {
            m.task_retries.fetch_add(2, Ordering::Relaxed);
            m.charge_recovery(0.25);
            m.snapshot()
        };
        let delta = later.since(&s);
        assert_eq!(delta.task_retries, 2);
        assert_eq!(delta.worker_respawns, 0);
        assert_eq!(delta.recovery_time.as_secs_f64(), 0.25);
    }

    #[test]
    fn pool_and_net_counters_are_exported_but_not_compared() {
        let m = CommMetrics::new(2);
        m.add_pool_idle(0.75);
        let s = m.snapshot();
        assert_eq!(s.pool_idle_secs, 0.75);

        // The observability fields must not participate in equality: two
        // snapshots that differ only there still compare equal.
        let mut other = s.clone();
        other.pool_idle_secs = 0.0;
        other.net_reconnects = 3;
        other.net_request_timeouts = 2;
        other.net_wire_bytes_sent = 1 << 20;
        other.net_wire_bytes_received = 1 << 19;
        other.net_wire_overhead_bytes = 4096;
        other.net_wire_reship_bytes = 512;
        assert_eq!(s, other);
        // ...while a deterministic meter difference still breaks equality.
        other.total_ops += 1;
        assert_ne!(s, other);

        // And they are all visible through the unified counter export.
        let names: Vec<&str> = s.named_counters().iter().map(|(n, _)| *n).collect();
        for name in [
            "pool.idle_virtual_secs",
            "net.reconnects",
            "net.request_timeouts",
            "net.wire_bytes_sent",
            "net.wire_bytes_received",
            "net.wire_overhead_bytes",
            "net.wire_reship_bytes",
        ] {
            assert!(names.contains(&name), "missing counter {name}");
        }
    }

    #[test]
    fn net_counters_snapshot_and_since() {
        let m = CommMetrics::new(2);
        m.net_reconnects.fetch_add(1, Ordering::Relaxed);
        m.net_request_timeouts.fetch_add(3, Ordering::Relaxed);
        m.net_wire_bytes_sent.fetch_add(1000, Ordering::Relaxed);
        m.net_wire_bytes_received.fetch_add(500, Ordering::Relaxed);
        m.net_wire_overhead_bytes.fetch_add(64, Ordering::Relaxed);
        m.net_wire_reship_bytes.fetch_add(128, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.net_reconnects, 1);
        assert_eq!(s.net_request_timeouts, 3);
        assert_eq!(s.net_wire_bytes_sent, 1000);
        assert_eq!(s.net_wire_bytes_received, 500);
        assert_eq!(s.net_wire_overhead_bytes, 64);
        assert_eq!(s.net_wire_reship_bytes, 128);
        m.net_wire_bytes_sent.fetch_add(24, Ordering::Relaxed);
        let delta = m.snapshot().since(&s);
        assert_eq!(delta.net_wire_bytes_sent, 24);
        assert_eq!(delta.net_reconnects, 0);
    }

    #[test]
    fn snapshot_since() {
        let m = CommMetrics::new(1);
        m.add_shuffled(100);
        let before = m.snapshot();
        m.add_shuffled(50);
        m.advance_clock(2.0);
        let after = m.snapshot();
        let delta = after.since(&before);
        assert_eq!(delta.bytes_shuffled, 50);
        assert_eq!(delta.virtual_time.as_secs_f64(), 2.0);
    }
}
