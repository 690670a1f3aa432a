//! Per-task execution context.

use dbtf_telemetry::KernelEvent;

/// Handle given to every partition task for cost accounting.
///
/// Tasks run inside worker threads; the context records how much simulated
/// work the task did ([`TaskContext::charge`]) and how many bytes its result
/// occupies on the wire back to the driver
/// ([`TaskContext::set_result_bytes`]). The engine turns the charges into
/// virtual time (see the crate docs) and the result bytes into
/// driver-collection network cost.
///
/// When tracing is on, kernels should charge through
/// [`TaskContext::charge_kernel`] so the span layer can attribute ops to
/// individual kernel calls. The events are buffered here — one buffer per
/// task, never shared across threads — and merged by the driver in
/// partition order, which keeps traces deterministic under any worker
/// count.
#[derive(Debug)]
pub struct TaskContext {
    worker_id: usize,
    partition_index: usize,
    attempt: u32,
    ops: u64,
    result_bytes: u64,
    capture: bool,
    kernels: Vec<KernelEvent>,
}

impl TaskContext {
    #[cfg(test)]
    pub(crate) fn new(worker_id: usize, partition_index: usize, attempt: u32) -> Self {
        Self::with_capture(worker_id, partition_index, attempt, false)
    }

    pub(crate) fn with_capture(
        worker_id: usize,
        partition_index: usize,
        attempt: u32,
        capture: bool,
    ) -> Self {
        TaskContext {
            worker_id,
            partition_index,
            attempt,
            ops: 0,
            result_bytes: 0,
            capture,
            kernels: Vec::new(),
        }
    }

    /// The id of the worker machine executing this task.
    pub fn worker_id(&self) -> usize {
        self.worker_id
    }

    /// Which launch attempt this is (0 = first). Non-zero only when a fault
    /// plan injected transient launch failures that the engine retried; the
    /// executing attempt is always the first one that actually runs, so
    /// tasks need not (and must not) branch on this for correctness —
    /// it exists for logging and tests.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The global index of the partition this task is processing.
    pub fn partition_index(&self) -> usize {
        self.partition_index
    }

    /// Records `ops` units of simulated compute (e.g. Boolean word
    /// operations). May be called many times; charges accumulate.
    #[inline]
    pub fn charge(&mut self, ops: u64) {
        self.ops += ops;
    }

    /// Like [`TaskContext::charge`], but attributes the ops to a named
    /// kernel for tracing. Charges identically to `charge` — the virtual
    /// clock and op counters cannot tell the two apart — and the event is
    /// only recorded when the driver enabled task-event capture, so the
    /// disabled path costs a single branch.
    #[inline]
    pub fn charge_kernel(&mut self, name: &'static str, ops: u64) {
        self.ops += ops;
        if self.capture {
            self.kernels.push(KernelEvent { name, ops });
        }
    }

    /// Declares the wire size of this task's result. Defaults to 0 (results
    /// whose transfer cost is negligible need not set it).
    pub fn set_result_bytes(&mut self, bytes: u64) {
        self.result_bytes = bytes;
    }

    /// Total ops charged so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Declared result size.
    pub fn result_bytes(&self) -> u64 {
        self.result_bytes
    }

    /// Takes the buffered kernel events (empty unless capture was on).
    pub(crate) fn take_kernels(&mut self) -> Vec<KernelEvent> {
        std::mem::take(&mut self.kernels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut ctx = TaskContext::new(3, 7, 0);
        assert_eq!(ctx.worker_id(), 3);
        assert_eq!(ctx.partition_index(), 7);
        assert_eq!(ctx.attempt(), 0);
        ctx.charge(10);
        ctx.charge(5);
        assert_eq!(ctx.ops(), 15);
        ctx.set_result_bytes(64);
        assert_eq!(ctx.result_bytes(), 64);
    }

    #[test]
    fn attempt_number_is_visible() {
        let ctx = TaskContext::new(0, 0, 3);
        assert_eq!(ctx.attempt(), 3);
    }

    #[test]
    fn charge_kernel_charges_identically_with_capture_off() {
        let mut off = TaskContext::new(0, 0, 0);
        off.charge_kernel("kernel.a", 10);
        off.charge_kernel("kernel.b", 5);
        assert_eq!(off.ops(), 15);
        assert!(off.take_kernels().is_empty());

        let mut on = TaskContext::with_capture(0, 0, 0, true);
        on.charge_kernel("kernel.a", 10);
        on.charge_kernel("kernel.b", 5);
        assert_eq!(on.ops(), 15, "capture must not change metering");
        let events = on.take_kernels();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "kernel.a");
        assert_eq!(events[0].ops, 10);
        assert_eq!(events[1].name, "kernel.b");
        assert_eq!(events[1].ops, 5);
    }
}
