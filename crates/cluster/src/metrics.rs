//! Virtual-time clock and communication metering.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

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
    /// Networked backend: heartbeat probes that timed out or errored.
    pub(crate) net_heartbeats_missed: AtomicU64,
    /// Networked backend: times a live worker's connection was re-established.
    pub(crate) net_reconnects: AtomicU64,
    /// Networked backend: requests that hit the per-request socket timeout.
    pub(crate) net_request_timeouts: AtomicU64,
    /// Networked backend: measured payload bytes in driver→worker frames
    /// (Store data + Broadcast data × workers); equals
    /// `bytes_shuffled + bytes_broadcast` on a networked run.
    pub(crate) net_wire_bytes_sent: AtomicU64,
    /// Networked backend: measured payload bytes in worker→driver frames
    /// (task results + gathered partitions); equals `bytes_collected`.
    pub(crate) net_wire_bytes_received: AtomicU64,
    /// Networked backend: wire bytes outside the Lemma meters — frame
    /// headers, task parameters, acks, handshakes, heartbeats, and resends
    /// after connection drops.
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
}

impl CommMetrics {
    pub(crate) fn new(workers: usize) -> Self {
        CommMetrics {
            worker_busy_secs: Mutex::new(vec![0.0; workers]),
            ..CommMetrics::default()
        }
    }

    pub(crate) fn add_shuffled(&self, bytes: u64) {
        self.bytes_shuffled.fetch_add(bytes, Ordering::Relaxed);
        self.messages.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_broadcast(&self, bytes: u64) {
        self.bytes_broadcast.fetch_add(bytes, Ordering::Relaxed);
        self.messages.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_collected(&self, bytes: u64) {
        self.bytes_collected.fetch_add(bytes, Ordering::Relaxed);
        self.messages.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_stored(&self, bytes: u64) {
        self.stored_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn sub_stored(&self, bytes: u64) {
        self.stored_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    pub(crate) fn advance_clock(&self, secs: f64) {
        *lock(&self.clock_secs) += secs;
    }

    pub(crate) fn add_reshipped(&self, bytes: u64) {
        self.bytes_reshipped.fetch_add(bytes, Ordering::Relaxed);
        self.messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Charges `secs` of fault-handling overhead: advances the virtual
    /// clock *and* attributes the span to recovery, so the cost of failure
    /// stays separately measurable.
    pub(crate) fn charge_recovery(&self, secs: f64) {
        self.advance_clock(secs);
        self.note_recovery(secs);
    }

    /// Attributes `secs` of already-charged virtual time to recovery
    /// without advancing the clock again (used when the clock moves by the
    /// superstep's effective makespan and only the stretch beyond the
    /// fault-free schedule is recovery overhead).
    pub(crate) fn note_recovery(&self, secs: f64) {
        *lock(&self.recovery_secs) += secs;
    }

    /// Accumulates virtual idle time (worker busy-time below the superstep
    /// makespan, summed over workers).
    pub(crate) fn add_pool_idle(&self, secs: f64) {
        *lock(&self.pool_idle_secs) += secs;
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
            net_heartbeats_missed: self.net_heartbeats_missed.load(Ordering::Relaxed),
            net_reconnects: self.net_reconnects.load(Ordering::Relaxed),
            net_request_timeouts: self.net_request_timeouts.load(Ordering::Relaxed),
            net_wire_bytes_sent: self.net_wire_bytes_sent.load(Ordering::Relaxed),
            net_wire_bytes_received: self.net_wire_bytes_received.load(Ordering::Relaxed),
            net_wire_overhead_bytes: self.net_wire_overhead_bytes.load(Ordering::Relaxed),
            net_wire_reship_bytes: self.net_wire_reship_bytes.load(Ordering::Relaxed),
        }
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
    /// Bytes moved by [`crate::Cluster::distribute`] (the one-off
    /// partitioning shuffle — Lemma 6).
    pub bytes_shuffled: u64,
    /// Bytes moved by [`crate::Cluster::broadcast`] (factor matrices each
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
    /// Worker threads killed by the fault plan and respawned by the engine.
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
    /// Networked backend: heartbeat probes that timed out or errored.
    /// Wall-clock statistic — nondeterministic, excluded from `==`.
    pub net_heartbeats_missed: u64,
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
    /// task params, acks, heartbeats, drop-triggered resends). Excluded
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
            net_heartbeats_missed: self
                .net_heartbeats_missed
                .saturating_sub(earlier.net_heartbeats_missed),
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

    /// Total bytes that crossed the network.
    pub fn total_network_bytes(&self) -> u64 {
        self.bytes_shuffled + self.bytes_broadcast + self.bytes_collected
    }

    /// Every counter as a `(name, value)` list in a fixed order — the
    /// unified export consumed by the telemetry counter registry and the
    /// Chrome trace writer. Names are stable API: tooling keys off them.
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
            ("net.heartbeats_missed", self.net_heartbeats_missed as f64),
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
        assert_eq!(s.total_network_bytes(), 115);
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
        other.net_heartbeats_missed = 7;
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
            "net.heartbeats_missed",
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
        m.net_heartbeats_missed.fetch_add(2, Ordering::Relaxed);
        m.net_reconnects.fetch_add(1, Ordering::Relaxed);
        m.net_request_timeouts.fetch_add(3, Ordering::Relaxed);
        m.net_wire_bytes_sent.fetch_add(1000, Ordering::Relaxed);
        m.net_wire_bytes_received.fetch_add(500, Ordering::Relaxed);
        m.net_wire_overhead_bytes.fetch_add(64, Ordering::Relaxed);
        m.net_wire_reship_bytes.fetch_add(128, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.net_heartbeats_missed, 2);
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
