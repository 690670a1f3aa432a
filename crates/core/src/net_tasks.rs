//! Wire registrations for running the CP driver on the networked backend.
//!
//! The networked [`NetBackend`] executes in separate worker processes, so
//! every dataset element, broadcast value, and task the CP driver uses
//! must have a wire codec and a registry entry the worker resolves by
//! name. This module is that registry, plus the shared task bodies: each
//! driver superstep is written once as a free function, called both by
//! the in-process closure (simulated cluster / local backend) and by the
//! worker-process registration — the idiom that keeps all three backends
//! bit-identical.
//!
//! # Partition wire format
//!
//! A [`PartitionSlot`] ships only its immutable [`ModePartition`] — the
//! transient `work`/`tucker` state is `None` whenever a slot crosses the
//! wire (slots are shipped at distribute time and re-shipped after crash
//! recovery, both outside any `UpdateFactor` call). The data channel
//! carries exactly [`ModePartition::byte_size`] bytes, so the *measured*
//! wire bytes of the one-time shuffle equal the Lemma 6 meter:
//!
//! ```text
//! header   64 B: index, col_lo, col_hi, slab_width, nrows,
//!                nblocks, nnz, reserved — 8 LE u64s
//! blocks   16 B each: slab (u64), inner_lo (u32), inner_len (u32)
//! nonzeros 12 B each: row (u32), column offset in block (u64),
//!                     written in block order then CSR row order
//! ```
//!
//! Per-block non-zero counts ride the meta channel (framing, not
//! payload); block kinds are re-derived from slab geometry on decode.

use std::any::Any;
use std::sync::{Arc, OnceLock};

use dbtf_cluster::{
    Broadcast, BroadcastStore, ClusterConfig, ClusterError, NetBackend, NetRegistry, NetTuning,
    RemoteTask, TaskContext, WorkerHost, WorkerTaskFn,
};
use dbtf_tensor::{ColumnDecision, FactorTriple};
use dbtf_wire::{Wire, WireError, WireNamed, WireReader, WireResult, WireWriter};

use crate::partition::{Block, BlockKind, ModePartition};
use crate::update::{PartitionSlot, WorkState};

/// Registry name of the distributed block-organization superstep.
pub const ORGANIZE_TASK: &str = "unfold.organize";
/// Registry name of the cache-building begin superstep (Algorithm 5).
pub const BEGIN_TASK: &str = "cp.update.begin";
/// Registry name of the apply-and-score column superstep (Algorithm 4).
pub const SWEEP_TASK: &str = "cp.update.sweep";
/// Registry name of the apply-last-column/error finish superstep.
pub const FINISH_TASK: &str = "cp.update.finish";

impl Wire for PartitionSlot {
    fn encode(&self, w: &mut WireWriter) {
        let p = &self.part;
        // Exact sizes: one nnz count per block on the meta channel, and
        // `byte_size()` bytes of data.
        w.reserve(8 * p.blocks.len(), p.byte_size() as usize);
        w.data_u64(p.index as u64);
        w.data_u64(p.col_lo);
        w.data_u64(p.col_hi);
        w.data_u64(p.slab_width as u64);
        w.data_u64(p.nrows as u64);
        w.data_u64(p.blocks.len() as u64);
        w.data_u64(p.nnz() as u64);
        w.data_u64(0); // reserved
        for b in &p.blocks {
            w.meta_u64(b.nnz() as u64);
            w.data_u64(b.slab as u64);
            w.data_u32(b.inner_lo);
            w.data_u32(b.inner_len);
        }
        for b in &p.blocks {
            for r in 0..b.nrows() {
                for &off in b.row(r) {
                    w.data_u32(r as u32);
                    w.data_u64(off as u64);
                }
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let index = r.data_u64()? as usize;
        let col_lo = r.data_u64()?;
        let col_hi = r.data_u64()?;
        let slab_width = r.data_u64()? as usize;
        let nrows = r.data_u64()? as usize;
        let nblocks = r.data_u64()? as usize;
        let total_nnz = r.data_u64()?;
        let _reserved = r.data_u64()?;
        let mut geom = Vec::with_capacity(nblocks);
        let mut shipped = 0u64;
        for _ in 0..nblocks {
            let nnz = r.meta_u64()?;
            let slab = r.data_u64()? as usize;
            let inner_lo = r.data_u32()?;
            let inner_len = r.data_u32()?;
            if inner_len == 0 || inner_lo as u64 + inner_len as u64 > slab_width as u64 {
                return Err(WireError(format!(
                    "partition block outside its slab: lo {inner_lo} len {inner_len} \
                     slab width {slab_width}"
                )));
            }
            shipped += nnz;
            geom.push((slab, inner_lo, inner_len, nnz));
        }
        if shipped != total_nnz {
            return Err(WireError(format!(
                "partition header claims {total_nnz} non-zeros, blocks carry {shipped}"
            )));
        }
        let mut blocks = Vec::with_capacity(nblocks);
        for (slab, inner_lo, inner_len, nnz) in geom {
            let mut row_offsets = vec![0u32; nrows + 1];
            let mut cols = Vec::with_capacity(nnz as usize);
            let mut last_row = 0usize;
            for _ in 0..nnz {
                let row = r.data_u32()? as usize;
                let off = r.data_u64()?;
                if row >= nrows || row < last_row || off >= inner_len as u64 {
                    return Err(WireError(format!(
                        "partition non-zero out of order or out of range: \
                         row {row} (of {nrows}), offset {off} (width {inner_len})"
                    )));
                }
                last_row = row;
                row_offsets[row + 1] += 1;
                cols.push(off as u32);
            }
            for i in 0..nrows {
                row_offsets[i + 1] += row_offsets[i];
            }
            // Block kinds are a pure function of slab geometry (Figure 5).
            let kind = match (
                inner_lo == 0,
                inner_lo as u64 + inner_len as u64 == slab_width as u64,
            ) {
                (true, true) => BlockKind::Full,
                (true, false) => BlockKind::Prefix,
                (false, true) => BlockKind::Suffix,
                (false, false) => BlockKind::Interior,
            };
            blocks.push(Block {
                slab,
                inner_lo,
                inner_len,
                kind,
                row_offsets,
                cols,
                dense: OnceLock::new(),
            });
        }
        Ok(PartitionSlot::new(ModePartition {
            index,
            col_lo,
            col_hi,
            slab_width,
            nrows,
            blocks,
        }))
    }
}

impl WireNamed for PartitionSlot {
    const WIRE_NAME: &'static str = "dbtf.partition_slot";
}

// ---- Shared task bodies --------------------------------------------------
// One free function per superstep; the RemoteTask closure and the worker
// registration both call it, so the two execution paths cannot drift.

fn organize_body(slot: &mut PartitionSlot, ctx: &mut TaskContext) {
    ctx.charge_kernel("kernel.organize_blocks", slot.part.nnz() as u64);
}

fn begin_body(
    slot: &mut PartitionSlot,
    factors: &FactorTriple,
    v_limit: usize,
    ctx: &mut TaskContext,
) -> u64 {
    let (state, ops) = WorkState::build(&slot.part, &factors.a, &factors.mf, &factors.ms, v_limit);
    ctx.charge_kernel("kernel.build_cache", ops);
    ctx.set_result_bytes(8);
    let bytes = state.cache_bytes();
    slot.work = Some(state);
    bytes
}

fn apply_body(slot: &mut PartitionSlot, decided: &ColumnDecision, ctx: &mut TaskContext) {
    let state = slot.work.as_mut().expect("update_factor not begun");
    state.apply_column(decided.col, &decided.values);
    ctx.charge_kernel("kernel.apply_column", decided.values.len() as u64);
}

/// Per-partition column-error pairs `(error_if_zero, error_if_one)`, one per
/// owned row of the column under consideration.
type ColumnErrors = Vec<(u64, u64)>;

fn sweep_body(
    slot: &mut PartitionSlot,
    prev: Option<&ColumnDecision>,
    col: usize,
    ctx: &mut TaskContext,
) -> ColumnErrors {
    if let Some(decided) = prev {
        apply_body(slot, decided, ctx);
    }
    let state = slot.work.as_mut().expect("update_factor not begun");
    let (errs, ops) = state.column_errors(&slot.part, col);
    ctx.charge_kernel("kernel.column_errors", ops);
    ctx.set_result_bytes(errs.len() as u64 * 16);
    errs
}

fn finish_body(
    slot: &mut PartitionSlot,
    last: &ColumnDecision,
    compute_error: bool,
    ctx: &mut TaskContext,
) -> u64 {
    apply_body(slot, last, ctx);
    let err = if compute_error {
        let state = slot.work.as_mut().expect("update_factor not begun");
        let (err, ops) = state.partition_error(&slot.part);
        ctx.charge_kernel("kernel.partition_error", ops);
        err
    } else {
        0
    };
    ctx.set_result_bytes(8);
    slot.work = None;
    err
}

// ---- Driver-side task constructors ---------------------------------------

/// The distributed block-organization superstep (Algorithm 3 line 4).
pub(crate) fn organize_task(
) -> RemoteTask<impl Fn(usize, &mut PartitionSlot, &mut TaskContext) + Send + Sync + 'static> {
    RemoteTask::new(
        ORGANIZE_TASK,
        &(),
        |_idx, slot: &mut PartitionSlot, ctx: &mut TaskContext| organize_body(slot, ctx),
    )
}

/// The cache-building begin superstep; parameters reference the factor
/// broadcast by wire id.
pub(crate) fn begin_task(
    factors: &Broadcast<FactorTriple>,
    v_limit: usize,
) -> RemoteTask<impl Fn(usize, &mut PartitionSlot, &mut TaskContext) -> u64 + Send + Sync + 'static>
{
    let factors = factors.clone();
    RemoteTask::new(
        BEGIN_TASK,
        &(factors.wire_id(), v_limit as u64),
        move |_idx, slot: &mut PartitionSlot, ctx: &mut TaskContext| {
            begin_body(slot, factors.get(), v_limit, ctx)
        },
    )
}

/// One apply-and-score column superstep of the sweep; `prev` is the
/// previous column's decision broadcast (absent for the first column).
pub(crate) fn sweep_task(
    col: usize,
    prev: Option<Broadcast<ColumnDecision>>,
) -> RemoteTask<
    impl Fn(usize, &mut PartitionSlot, &mut TaskContext) -> ColumnErrors + Send + Sync + 'static,
> {
    let prev_id = prev.as_ref().and_then(Broadcast::wire_id);
    RemoteTask::new(
        SWEEP_TASK,
        &(col as u64, prev_id),
        move |_idx, slot: &mut PartitionSlot, ctx: &mut TaskContext| {
            sweep_body(slot, prev.as_deref(), col, ctx)
        },
    )
}

/// The finish superstep: apply the last decided column, optionally compute
/// the exact partition error, drop the caches.
pub(crate) fn finish_task(
    last: &Broadcast<ColumnDecision>,
    compute_error: bool,
) -> RemoteTask<impl Fn(usize, &mut PartitionSlot, &mut TaskContext) -> u64 + Send + Sync + 'static>
{
    let last = last.clone();
    RemoteTask::new(
        FINISH_TASK,
        &(last.wire_id(), compute_error),
        move |_idx, slot: &mut PartitionSlot, ctx: &mut TaskContext| {
            finish_body(slot, last.get(), compute_error, ctx)
        },
    )
}

// ---- Worker-side registry ------------------------------------------------

fn slot_of(part: &mut (dyn Any + Send)) -> &mut PartitionSlot {
    part.downcast_mut::<PartitionSlot>()
        .expect("dataset element is a PartitionSlot")
}

fn required(id: Option<u64>, what: &str) -> WireResult<u64> {
    id.ok_or_else(|| WireError(format!("{what} broadcast id missing from task parameters")))
}

/// Builds the task/codec registry every CP worker process (and the driver
/// side of the networked backend) resolves names against.
///
/// The driver and its workers must call this same function: a worker with
/// a different registry would answer `Run` requests with
/// "unknown task" errors.
pub fn build_registry() -> Arc<NetRegistry> {
    let mut reg = NetRegistry::new();
    reg.register_part::<PartitionSlot>();
    reg.register_broadcast::<FactorTriple>();
    reg.register_broadcast::<ColumnDecision>();
    reg.register_task(ORGANIZE_TASK, |_params, _bstore| {
        Ok(
            Box::new(|_idx, part: &mut (dyn Any + Send), ctx: &mut TaskContext| {
                organize_body(slot_of(part), ctx);
                ().to_frame()
            }) as WorkerTaskFn,
        )
    });
    reg.register_task(BEGIN_TASK, |params, bstore: &BroadcastStore| {
        let (fid, v_limit) = <(Option<u64>, u64)>::from_frame(params)?;
        let factors = bstore.get::<FactorTriple>(required(fid, "factor")?);
        Ok(Box::new(
            move |_idx, part: &mut (dyn Any + Send), ctx: &mut TaskContext| {
                begin_body(slot_of(part), &factors, v_limit as usize, ctx).to_frame()
            },
        ) as WorkerTaskFn)
    });
    reg.register_task(SWEEP_TASK, |params, bstore: &BroadcastStore| {
        let (col, prev_id) = <(u64, Option<u64>)>::from_frame(params)?;
        let prev = prev_id.map(|id| bstore.get::<ColumnDecision>(id));
        Ok(Box::new(
            move |_idx, part: &mut (dyn Any + Send), ctx: &mut TaskContext| {
                sweep_body(slot_of(part), prev.as_deref(), col as usize, ctx).to_frame()
            },
        ) as WorkerTaskFn)
    });
    reg.register_task(FINISH_TASK, |params, bstore: &BroadcastStore| {
        let (lid, compute_error) = <(Option<u64>, bool)>::from_frame(params)?;
        let last = bstore.get::<ColumnDecision>(required(lid, "decision")?);
        Ok(Box::new(
            move |_idx, part: &mut (dyn Any + Send), ctx: &mut TaskContext| {
                finish_body(slot_of(part), &last, compute_error, ctx).to_frame()
            },
        ) as WorkerTaskFn)
    });
    Arc::new(reg)
}

/// Boots a [`NetBackend`] wired to the CP registry — the networked
/// equivalent of `Cluster::try_new` for `factorize` runs.
pub fn net_backend(
    config: ClusterConfig,
    host: WorkerHost,
    tuning: NetTuning,
) -> Result<NetBackend, ClusterError> {
    NetBackend::new(config, build_registry(), host, tuning)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition_unfolding;
    use dbtf_tensor::{BitMatrix, BoolTensor, Mode, Unfolding};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tensor(dims: [usize; 3], density: f64, seed: u64) -> BoolTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut entries = Vec::new();
        for i in 0..dims[0] as u32 {
            for j in 0..dims[1] as u32 {
                for k in 0..dims[2] as u32 {
                    if rng.gen_bool(density) {
                        entries.push([i, j, k]);
                    }
                }
            }
        }
        BoolTensor::from_entries(dims, entries)
    }

    #[test]
    fn partition_slot_roundtrips_with_lemma6_exact_payload() {
        let t = random_tensor([7, 9, 5], 0.2, 21);
        for mode in Mode::ALL {
            let u = Unfolding::new(&t, mode);
            for n in [1, 2, 3, 7] {
                for part in partition_unfolding(&u, n) {
                    let declared = part.byte_size();
                    let slot = PartitionSlot::new(part);
                    let frame = slot.to_frame();
                    // Measured wire payload == the Lemma 6 shuffle meter.
                    assert_eq!(frame.data_len, declared, "mode {mode:?} n {n}");
                    let back = PartitionSlot::from_frame(&frame.bytes).unwrap();
                    assert_eq!(back.part, slot.part);
                    assert!(back.work.is_none() && back.tucker.is_none());
                }
            }
        }
    }

    /// A used partition carries dense bitmaps, which never ship: its frame
    /// still carries exactly `byte_size()` data bytes and decodes to a
    /// partition equal to it.
    #[test]
    fn partition_slot_payload_is_unchanged_by_an_update() {
        let t = random_tensor([6, 5, 7], 0.9, 22);
        let u = Unfolding::new(&t, Mode::One);
        let mut rng = StdRng::seed_from_u64(23);
        let a = BitMatrix::random(6, 3, 0.5, &mut rng);
        let c = BitMatrix::random(7, 3, 0.5, &mut rng);
        let b = BitMatrix::random(5, 3, 0.5, &mut rng);
        for part in partition_unfolding(&u, 3) {
            let slot = PartitionSlot::new(part);
            let before = slot.to_frame();
            assert_eq!(before.data_len, slot.part.byte_size());
            WorkState::build(&slot.part, &a, &c, &b, 15);
            assert!(slot.part.blocks.iter().any(|b| b.dense.get().is_some()));
            let after = slot.to_frame();
            assert_eq!(after.data_len, slot.part.byte_size());
            assert_eq!(after.bytes, before.bytes);
            let back = PartitionSlot::from_frame(&after.bytes).unwrap();
            assert_eq!(back.part, slot.part);
        }
    }

    #[test]
    fn corrupt_partition_frames_are_rejected() {
        let t = random_tensor([4, 4, 4], 0.4, 3);
        let u = Unfolding::new(&t, Mode::One);
        let part = partition_unfolding(&u, 1).remove(0);
        let frame = PartitionSlot::new(part).to_frame();
        // Truncations anywhere must error, never panic or mis-decode.
        for cut in [frame.bytes.len() / 3, frame.bytes.len() - 4] {
            assert!(PartitionSlot::from_frame(&frame.bytes[..cut]).is_err());
        }
    }

    #[test]
    fn registry_registers_all_cp_tasks() {
        // A driver-side smoke check: every task name the CP driver emits
        // resolves in the worker registry (a worker with a partial
        // registry would fail mid-run, not at boot).
        let reg = build_registry();
        for name in [ORGANIZE_TASK, BEGIN_TASK, SWEEP_TASK, FINISH_TASK] {
            assert!(reg.has_task(name), "missing task {name}");
        }
    }
}
