//! The dataflow-operator IR: the operator vocabulary drivers emit
//! ([`OpKind`]), the per-operator cost/byte annotations ([`OpRecord`]),
//! and the executed plan ([`PlanTrace`]).
//!
//! DBTF's plans are data-dependent — the payload of each broadcast is a
//! driver decision computed from the previous superstep's results — so a
//! plan cannot be fully constructed ahead of execution. Drivers instead
//! emit operators through [`crate::Scheduler`], which executes each one
//! eagerly and appends its record here. The resulting trace is the plan
//! *as executed*: a deterministic operator sequence with exact byte, op,
//! and virtual-time annotations, comparable across backends, thread
//! counts, and fault plans via [`OpRecord::fingerprint`].

use crate::metrics::MetricsSnapshot;

/// The kind of a dataflow operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Partition data across workers and persist it (Lemma 6 shuffle).
    Distribute,
    /// Ship one value to every worker (Lemma 7 broadcast).
    Broadcast,
    /// One superstep: run a task per partition, collect results (Lemma 7
    /// collect).
    MapPartitions,
    /// Clone every partition back to the driver.
    Gather,
    /// Persist driver-side algorithm state outside the engine.
    Checkpoint,
    /// Driver-local compute charged to the virtual clock (e.g. the
    /// column-decision reduce of Algorithm 4).
    DriverCompute,
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            OpKind::Distribute => "distribute",
            OpKind::Broadcast => "broadcast",
            OpKind::MapPartitions => "map_partitions",
            OpKind::Gather => "gather",
            OpKind::Checkpoint => "checkpoint",
            OpKind::DriverCompute => "driver_compute",
        };
        f.write_str(name)
    }
}

/// One executed operator with its cost/byte annotations (metrics deltas
/// across the operator's execution).
#[derive(Clone, Debug, PartialEq)]
pub struct OpRecord {
    /// Operator kind.
    pub kind: OpKind,
    /// Driver-assigned label, e.g. `"cp.update.sweep"`.
    pub label: &'static str,
    /// Partitions the operator touched (0 for driver-side ops).
    pub partitions: usize,
    /// Shuffle bytes this operator moved (Lemma 6 traffic).
    pub bytes_shuffled: u64,
    /// Broadcast bytes this operator moved (Lemma 7 traffic).
    pub bytes_broadcast: u64,
    /// Result bytes collected to the driver (Lemma 7 traffic).
    pub bytes_collected: u64,
    /// Abstract ops charged by the operator's tasks.
    pub ops: u64,
    /// Partition tasks the operator ran.
    pub tasks: u64,
    /// Recovery events inside the operator: task retries, worker
    /// respawns, and speculative launches (fault injection only).
    pub recovery_events: u64,
    /// Bytes re-shipped for recovery inside the operator.
    pub bytes_reshipped: u64,
    /// Virtual time the operator took (backend-dependent: the local
    /// backend skips network costing).
    pub virtual_secs: f64,
    /// Portion of `virtual_secs` attributed to fault recovery.
    pub recovery_secs: f64,
}

impl OpRecord {
    /// Builds the record for one operator from the metrics snapshots taken
    /// immediately before and after its execution.
    pub fn from_snapshots(
        kind: OpKind,
        label: &'static str,
        partitions: usize,
        before: &MetricsSnapshot,
        after: &MetricsSnapshot,
    ) -> Self {
        let d = after.since(before);
        OpRecord {
            kind,
            label,
            partitions,
            bytes_shuffled: d.bytes_shuffled,
            bytes_broadcast: d.bytes_broadcast,
            bytes_collected: d.bytes_collected,
            ops: d.total_ops,
            tasks: d.tasks_run,
            recovery_events: d.task_retries + d.worker_respawns + d.speculative_tasks,
            bytes_reshipped: d.bytes_reshipped,
            virtual_secs: d.virtual_time.as_secs_f64(),
            recovery_secs: d.recovery_time.as_secs_f64(),
        }
    }

    /// A timing- and recovery-free identity of the operator: kind, label,
    /// partition count, Lemma 6/7 byte counters, ops, and task count.
    ///
    /// Two runs of the same algorithm produce equal fingerprints per
    /// operator regardless of backend, worker schedule, or fault plan — the
    /// behavior-preservation invariant in testable form.
    pub fn fingerprint(&self) -> String {
        format!(
            "{}:{}:p{}:s{}:b{}:c{}:o{}:t{}",
            self.kind,
            self.label,
            self.partitions,
            self.bytes_shuffled,
            self.bytes_broadcast,
            self.bytes_collected,
            self.ops,
            self.tasks
        )
    }
}

/// The executed dataflow plan: every operator a driver emitted, in order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlanTrace {
    /// Operator records in emission (= execution) order.
    pub ops: Vec<OpRecord>,
}

impl PlanTrace {
    /// Number of operators executed.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if no operators were executed.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Per-operator [`OpRecord::fingerprint`]s joined by newlines —
    /// equal across backends, runs, and fault plans for the same
    /// algorithm run.
    pub fn fingerprint(&self) -> String {
        let lines: Vec<String> = self.ops.iter().map(OpRecord::fingerprint).collect();
        lines.join("\n")
    }

    /// How many operators of `kind` the plan executed.
    pub fn count(&self, kind: OpKind) -> usize {
        self.ops.iter().filter(|op| op.kind == kind).count()
    }

    /// Sum of recovery events across all operators.
    pub fn recovery_events(&self) -> u64 {
        self.ops.iter().map(|op| op.recovery_events).sum()
    }
}
