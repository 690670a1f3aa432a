//! Wire registrations for running the CP driver on the networked backend.
//!
//! The networked [`NetBackend`] executes in separate worker processes, so
//! every dataset element, broadcast value, and task the CP driver uses
//! must have a wire codec and a registry entry the worker resolves by
//! name. This module is that registry, plus the CP supersteps themselves:
//! each is one [`WireTask`] type holding its parameters, with the
//! parameter frame's encoder and decoder and the task body in one impl.
//! The simulated cluster and the local backend run the value the driver
//! built; a worker process runs the value it decoded. The same `run`
//! executes either way, which keeps all three backends bit-identical.
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

use std::sync::{Arc, OnceLock};

use dbtf_cluster::{
    Broadcast, BroadcastStore, ClusterConfig, ClusterError, NetBackend, NetRegistry, NetTuning,
    TaskContext, WireTask, WorkerHost,
};
use dbtf_tensor::{ColumnDecision, FactorTriple};
use dbtf_wire::{EncodedFrame, Wire, WireError, WireNamed, WireReader, WireResult, WireWriter};

use crate::partition::{Block, BlockKind, ModePartition};
use crate::update::{PartitionSlot, WorkState};

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
            let mut recs = w.data_tail(12 * b.nnz()).chunks_exact_mut(12);
            for r in 0..b.nrows() {
                for (&off, rec) in b.row(r).iter().zip(&mut recs) {
                    rec[..4].copy_from_slice(&(r as u32).to_le_bytes());
                    rec[4..].copy_from_slice(&(off as u64).to_le_bytes());
                }
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let index = r.data_u64()? as usize;
        let col_lo = r.data_u64()?;
        let col_hi = r.data_u64()?;
        let slab_width = r.data_u64()? as usize;
        let nrows = r.data_u64()?;
        let nblocks = r.data_u64()?;
        let total_nnz = r.data_u64()?;
        let _reserved = r.data_u64()?;
        // Rows are u32 on the wire. Block and non-zero counts must be
        // backed by the data bytes they describe before anything is
        // allocated for them; the row offsets, which no bytes back, are
        // reserved fallibly.
        if nrows > u32::MAX as u64 {
            return Err(WireError(format!("partition claims {nrows} rows")));
        }
        let nrows = nrows as usize;
        let geometry = r.data_bytes(records_len(nblocks, 16, "blocks")?)?;
        let mut geom = Vec::with_capacity(geometry.len() / 16);
        let mut shipped = 0u64;
        for g in geometry.chunks_exact(16) {
            let nnz = r.meta_u64()?;
            let slab = u64::from_le_bytes(g[..8].try_into().unwrap()) as usize;
            let inner_lo = u32::from_le_bytes(g[8..12].try_into().unwrap());
            let inner_len = u32::from_le_bytes(g[12..].try_into().unwrap());
            if inner_len == 0 || inner_lo as u64 + inner_len as u64 > slab_width as u64 {
                return Err(WireError(format!(
                    "partition block outside its slab: lo {inner_lo} len {inner_len} \
                     slab width {slab_width}"
                )));
            }
            shipped = shipped.saturating_add(nnz);
            geom.push((slab, inner_lo, inner_len, nnz));
        }
        if shipped != total_nnz {
            return Err(WireError(format!(
                "partition header claims {total_nnz} non-zeros, blocks carry {shipped}"
            )));
        }
        let mut blocks = Vec::with_capacity(geom.len());
        for (slab, inner_lo, inner_len, nnz) in geom {
            let records = r.data_bytes(records_len(nnz, 12, "non-zeros")?)?;
            let mut row_offsets = Vec::new();
            row_offsets
                .try_reserve_exact(nrows + 1)
                .map_err(|e| WireError(format!("partition row offsets for {nrows} rows: {e}")))?;
            row_offsets.resize(nrows + 1, 0u32);
            let mut cols = Vec::with_capacity(records.len() / 12);
            let mut last_row = 0usize;
            for rec in records.chunks_exact(12) {
                let row = u32::from_le_bytes(rec[..4].try_into().unwrap()) as usize;
                let off = u64::from_le_bytes(rec[4..].try_into().unwrap());
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

/// Byte length of `count` records of `size` bytes each, as a decoder
/// asks for them; a count no frame could carry is an error.
fn records_len(count: u64, size: usize, what: &str) -> WireResult<usize> {
    usize::try_from(count)
        .ok()
        .and_then(|n| n.checked_mul(size))
        .ok_or_else(|| WireError(format!("partition claims {count} {what}")))
}

impl WireNamed for PartitionSlot {
    const WIRE_NAME: &'static str = "dbtf.partition_slot";
}

// ---- Wire tasks ------------------------------------------------------------

/// The distributed block-organization superstep (Algorithm 3 line 4):
/// each worker walks its share of the non-zeros once.
pub(crate) struct OrganizeTask;

impl WireTask for OrganizeTask {
    const NAME: &'static str = "unfold.organize";
    type Part = PartitionSlot;
    type Output = ();

    fn encode(&self) -> EncodedFrame {
        ().to_frame()
    }

    fn decode(params: &[u8], _broadcasts: &BroadcastStore) -> WireResult<Self> {
        <()>::from_frame(params).map(|()| OrganizeTask)
    }

    fn run(&self, slot: &mut PartitionSlot, ctx: &mut TaskContext) {
        ctx.charge_kernel("kernel.organize_blocks", slot.part.nnz() as u64);
    }
}

/// The cache-building begin superstep (Algorithm 5): every partition
/// builds its [`WorkState`] against the broadcast factors and returns its
/// cache bytes.
pub(crate) struct BeginTask {
    pub(crate) factors: Broadcast<FactorTriple>,
    pub(crate) v_limit: usize,
}

impl WireTask for BeginTask {
    const NAME: &'static str = "cp.update.begin";
    type Part = PartitionSlot;
    type Output = u64;

    fn encode(&self) -> EncodedFrame {
        (self.factors.wire_id(), self.v_limit as u64).to_frame()
    }

    fn decode(params: &[u8], broadcasts: &BroadcastStore) -> WireResult<Self> {
        let (factors, v_limit) = <(Option<u64>, u64)>::from_frame(params)?;
        Ok(BeginTask {
            factors: broadcasts.get(required(factors, "factor")?),
            v_limit: v_limit as usize,
        })
    }

    fn run(&self, slot: &mut PartitionSlot, ctx: &mut TaskContext) -> u64 {
        let FactorTriple { a, mf, ms } = self.factors.get();
        let (state, ops) = WorkState::build(&slot.part, a, mf, ms, self.v_limit);
        ctx.charge_kernel("kernel.build_cache", ops);
        ctx.set_result_bytes(8);
        let bytes = state.cache_bytes();
        slot.work = Some(state);
        bytes
    }
}

/// One apply-and-score column superstep of the sweep (Algorithm 4): apply
/// the previous column's decision (absent for the first column), then
/// return the per-row `(error_if_zero, error_if_one)` pairs of column
/// `col` over the partition's rows.
pub(crate) struct SweepTask {
    pub(crate) col: usize,
    pub(crate) prev: Option<Broadcast<ColumnDecision>>,
}

impl WireTask for SweepTask {
    const NAME: &'static str = "cp.update.sweep";
    type Part = PartitionSlot;
    type Output = Vec<(u64, u64)>;

    fn encode(&self) -> EncodedFrame {
        let prev = self.prev.as_ref().and_then(Broadcast::wire_id);
        (self.col as u64, prev).to_frame()
    }

    fn decode(params: &[u8], broadcasts: &BroadcastStore) -> WireResult<Self> {
        let (col, prev) = <(u64, Option<u64>)>::from_frame(params)?;
        Ok(SweepTask {
            col: col as usize,
            prev: prev.map(|id| broadcasts.get(id)),
        })
    }

    fn run(&self, slot: &mut PartitionSlot, ctx: &mut TaskContext) -> Vec<(u64, u64)> {
        if let Some(decided) = &self.prev {
            apply(slot, decided, ctx);
        }
        let state = slot.work.as_mut().expect("update_factor not begun");
        let (errs, ops) = state.column_errors(&slot.part, self.col);
        ctx.charge_kernel("kernel.column_errors", ops);
        ctx.set_result_bytes(errs.len() as u64 * 16);
        errs
    }
}

/// The finish superstep: apply the last decided column, optionally
/// compute the exact partition error (0 otherwise), drop the caches.
pub(crate) struct FinishTask {
    pub(crate) last: Broadcast<ColumnDecision>,
    pub(crate) compute_error: bool,
}

impl WireTask for FinishTask {
    const NAME: &'static str = "cp.update.finish";
    type Part = PartitionSlot;
    type Output = u64;

    fn encode(&self) -> EncodedFrame {
        (self.last.wire_id(), self.compute_error).to_frame()
    }

    fn decode(params: &[u8], broadcasts: &BroadcastStore) -> WireResult<Self> {
        let (last, compute_error) = <(Option<u64>, bool)>::from_frame(params)?;
        Ok(FinishTask {
            last: broadcasts.get(required(last, "decision")?),
            compute_error,
        })
    }

    fn run(&self, slot: &mut PartitionSlot, ctx: &mut TaskContext) -> u64 {
        apply(slot, &self.last, ctx);
        let err = if self.compute_error {
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
}

/// Applies a decided column to the partition's caches.
fn apply(slot: &mut PartitionSlot, decided: &ColumnDecision, ctx: &mut TaskContext) {
    let state = slot.work.as_mut().expect("update_factor not begun");
    state.apply_column(decided.col, &decided.values);
    ctx.charge_kernel("kernel.apply_column", decided.values.len() as u64);
}

fn required(id: Option<u64>, what: &str) -> WireResult<u64> {
    id.ok_or_else(|| WireError(format!("{what} broadcast id missing from task parameters")))
}

// ---- Worker-side registry ------------------------------------------------

/// Builds the task/codec registry every CP worker process (and the driver
/// side of the networked backend) resolves names against.
///
/// The driver and its workers must call this same function: a worker with
/// a different registry would answer `Run` requests with
/// "unknown task" errors.
pub fn build_registry() -> Arc<NetRegistry> {
    let mut reg = NetRegistry::new();
    reg.register_part::<PartitionSlot>()
        .register_broadcast::<FactorTriple>()
        .register_broadcast::<ColumnDecision>()
        .register_task::<OrganizeTask>()
        .register_task::<BeginTask>()
        .register_task::<SweepTask>()
        .register_task::<FinishTask>();
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
        // So must counts the frame does not back: a claim of 2^40 blocks,
        // rows or non-zeros is an error, never an allocation of that size.
        // Header (index, col_lo, col_hi, slab_width, nrows, nblocks, nnz,
        // reserved), then one 4-wide block when `nblocks` is 1.
        const HUGE: u64 = 1 << 40;
        let crafted = |nrows: u64, nblocks: u64, nnz: u64| {
            let mut w = WireWriter::new();
            for v in [0, 0, 4, 4, nrows, nblocks, nnz, 0] {
                w.data_u64(v);
            }
            if nblocks == 1 {
                w.meta_u64(nnz);
                w.data_u64(0);
                w.data_u32(0);
                w.data_u32(4);
            }
            w.finish().bytes
        };
        for (what, bytes) in [
            ("blocks", crafted(2, HUGE, 0)),
            ("rows", crafted(HUGE, 1, 0)),
            ("non-zeros", crafted(2, 1, HUGE)),
        ] {
            assert!(
                PartitionSlot::from_frame(&bytes).is_err(),
                "a frame claiming 2^40 {what} must not decode"
            );
        }
        assert!(PartitionSlot::from_frame(&crafted(2, 1, 0)).is_ok());
    }

    #[test]
    fn registry_registers_all_cp_tasks() {
        // A driver-side smoke check: every task type the CP driver emits
        // resolves in the worker registry (a worker with a partial
        // registry would fail mid-run, not at boot).
        let reg = build_registry();
        for name in [
            OrganizeTask::NAME,
            BeginTask::NAME,
            SweepTask::NAME,
            FinishTask::NAME,
        ] {
            assert!(reg.has_task(name), "missing task {name}");
        }
    }

    /// Encodes `task`, decodes the frame against `store` and encodes the
    /// decoded task again: the two frames must be byte-identical.
    fn reencoded<W: WireTask>(task: &W, store: &BroadcastStore) -> Vec<u8> {
        let frame = task.encode().bytes;
        let decoded = W::decode(&frame, store).expect("a task decodes its own frame");
        assert_eq!(decoded.encode().bytes, frame, "{}", W::NAME);
        frame
    }

    /// Each CP task's parameter frame round-trips through a worker's
    /// broadcast store byte for byte, and is the tuple frame the wire
    /// protocol has always carried for that task, so every `Run` frame and
    /// wire counter stays the same.
    #[test]
    fn cp_task_frames_roundtrip_as_their_tuple_frames() {
        let mut rng = StdRng::seed_from_u64(31);
        let store = BroadcastStore::new();
        let factors = FactorTriple {
            a: BitMatrix::random(5, 3, 0.5, &mut rng),
            mf: BitMatrix::random(4, 3, 0.5, &mut rng),
            ms: BitMatrix::random(6, 3, 0.5, &mut rng),
        };
        let decision = ColumnDecision {
            col: 1,
            values: BitMatrix::random(5, 1, 0.5, &mut rng).column(0),
        };
        store.insert(4, factors.to_frame().bytes);
        store.insert(9, decision.to_frame().bytes);
        let factors = store.get::<FactorTriple>(4);
        let decision = store.get::<ColumnDecision>(9);

        assert_eq!(reencoded(&OrganizeTask, &store), ().to_frame().bytes);
        let begin = BeginTask {
            factors,
            v_limit: 15,
        };
        assert_eq!(
            reencoded(&begin, &store),
            (Some(4u64), 15u64).to_frame().bytes
        );
        for prev in [None, Some(decision.clone())] {
            let tuple = (2u64, prev.as_ref().map(|_| 9u64)).to_frame().bytes;
            assert_eq!(reencoded(&SweepTask { col: 2, prev }, &store), tuple);
        }
        for compute_error in [false, true] {
            let last = decision.clone();
            let finish = FinishTask {
                last,
                compute_error,
            };
            let tuple = (Some(9u64), compute_error).to_frame().bytes;
            assert_eq!(reencoded(&finish, &store), tuple);
        }
    }
}
