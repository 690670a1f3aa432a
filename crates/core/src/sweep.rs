//! The shared greedy column sweep of Algorithm 4 — the superstep loop
//! both the CP and the distributed-Tucker factor updates are built on.
//!
//! One sweep runs one superstep per swept column over a partitioned
//! unfolding: all `R` columns, or for an incremental update only those its
//! delta touches. In superstep `c`, every partition first applies the
//! previously decided column (piggybacked on the broadcast, so apply and
//! score share one superstep), then scores both candidate values of every
//! row's entry in column `c` and ships the per-row `(e0, e1)` error pairs
//! to the driver. The driver sums the pairs across partitions, picks the
//! smaller error per row (ties prefer `0` — the sparser factor), writes
//! the decision into the master copy, and broadcasts the decided column
//! for the next superstep. What differs between CP and Tucker is only
//! *how* a partition applies and scores a column — callers pass a
//! function building the per-column superstep task. CP's builds the
//! [`dbtf_cluster::WireTask`] `SweepTask` (so the sweep can run in
//! separate worker processes over the networked backend); Tucker's builds
//! plain closures wrapped in [`dbtf_cluster::InProcess`] (in-process
//! backends only).

use dbtf_cluster::{Broadcast, ExecutionBackend, PartitionTask, Scheduler};
use dbtf_tensor::{BitMatrix, BitVec, ColumnDecision};

use crate::update::PartitionSlot;

/// Trace labels for the three operators a sweep emits per column.
pub(crate) struct SweepLabels {
    /// The apply-and-score `MapPartitions` superstep.
    pub sweep: &'static str,
    /// The driver-side per-row error reduce (`DriverCompute`).
    pub reduce: &'static str,
    /// The decided-column `Broadcast`.
    pub decision: &'static str,
}

/// Runs the column sweep over `data`, mutating `master` (the driver's
/// copy of the factor being updated) one column of `cols` at a time, in
/// the order given (callers pass them ascending for determinism): columns
/// not listed keep their current values in `master` and on the workers.
/// Returns the last decided column's broadcast — the caller's finish
/// superstep still has to apply it on the workers.
///
/// `make_task(col, prev)` builds the superstep task for column `col`:
/// apply the previously decided column `prev` (if any), then score both
/// candidate values of every row's entry in column `col`, returning the
/// partition's per-row `(e0, e1)` error pairs.
///
/// # Panics
///
/// Panics if `cols` is empty: there would be no decision to finish.
pub(crate) fn column_sweep<B, F, K>(
    sched: &Scheduler<'_, B>,
    labels: SweepLabels,
    data: &B::Dataset<PartitionSlot>,
    master: &mut BitMatrix,
    cols: &[usize],
    make_task: F,
) -> Broadcast<ColumnDecision>
where
    B: ExecutionBackend,
    F: Fn(usize, Option<Broadcast<ColumnDecision>>) -> K,
    K: PartitionTask<PartitionSlot, Vec<(u64, u64)>>,
{
    let nrows = master.rows();
    let mut pending: Option<Broadcast<ColumnDecision>> = None;
    for &col in cols {
        let errs: Vec<Vec<(u64, u64)>> =
            sched.map_partitions_task(labels.sweep, data, make_task(col, pending.clone()));
        // Driver: sum errors across partitions, pick the smaller per row
        // (ties prefer 0 — the sparser factor).
        let mut decision = BitVec::zeros(nrows);
        for r in 0..nrows {
            let (mut e0, mut e1) = (0u64, 0u64);
            for per_part in &errs {
                e0 += per_part[r].0;
                e1 += per_part[r].1;
            }
            if e1 < e0 {
                decision.set(r, true);
            }
            master.set(r, col, e1 < e0);
        }
        sched.charge_driver(labels.reduce, nrows as u64 * (errs.len() as u64 + 1));
        pending = Some(sched.broadcast(
            labels.decision,
            ColumnDecision {
                col,
                values: decision,
            },
            (nrows as u64).div_ceil(8) + 8,
        ));
    }
    pending.expect("a column sweep needs at least one column")
}
