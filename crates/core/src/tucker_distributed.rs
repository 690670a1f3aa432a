//! Distributed Boolean Tucker factorization on the dataflow-plan IR.
//!
//! The key observation that lets Tucker reuse DBTF's whole distributed
//! machinery: in the mode-1 update, the reconstruction of row `i`
//! restricted to PVM slab `k` is
//!
//! ```text
//! ⋁_{p: a_ip} ⋁_{(q,r): g_pqr ∧ c_kr} b_{:q}ᵀ
//!   = Boolean sum of the rows of Bᵀ selected by  ⋁_{p: a_ip} mask(p, k),
//! where  mask(p, k) = ⋁_{r: c_kr} { q : g_pqr } .
//! ```
//!
//! A Boolean sum of row-subsets of `Bᵀ` is the row-subset of the union
//! mask — so a *single* fetch from the same [`RowSumCache`] the CP path
//! caches serves the Tucker update too. The only difference from CP is how
//! the cache key is assembled: CP ANDs the factor row with the `M_f` row;
//! Tucker ORs per-column core masks. The column sweep itself — one
//! superstep per column, driver-side reduce, decision broadcast — is the
//! shared `crate::sweep::column_sweep` helper, reused verbatim by both
//! drivers, and the run's `Run` span, counters and plan come from the CP
//! driver's traced shell. Tucker keeps its own iteration loop: it revives
//! dead components, rejects a round that raised the error, and converges
//! only on a round that changes nothing or reaches zero error.
//!
//! The core update distributes as one superstep per core entry: partitions
//! count, within their column range, the block cells that are exclusively
//! covered by (or would be newly covered by) the entry, split by the cell's
//! value in `X`; the driver applies the greedy flip and re-broadcasts —
//! exactly the sequential [`crate::tucker`] greedy, so the two
//! implementations agree bit-for-bit (enforced by differential tests).
//!
//! Like the CP driver, everything here is generic over an
//! [`ExecutionBackend`] and emits operators through a [`Scheduler`].

use dbtf_cluster::{ClusterError, ExecutionBackend, InProcess, PlanTrace, Scheduler, TaskContext};
use dbtf_telemetry::Tracer;
use dbtf_tensor::{reconstruct, BitMatrix, BitVec, BoolTensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cache::{GroupLayout, RowSumCache};
use crate::config::DbtfError;
use crate::driver::{distribute_unfoldings, matrix_bytes, traced, CP_DISTRIBUTE_LABELS};
use crate::partition::ModePartition;
use crate::sweep::{column_sweep, SweepLabels};
use crate::tucker::{
    init_set, revive_dead_components, TuckerConfig, TuckerFactorization, TuckerResult,
    CONVERGENCE_THRESHOLD,
};
use crate::update::PartitionSlot;

/// Worker-side state of one partition during a distributed Tucker factor
/// update.
pub(crate) struct TuckerWorkState {
    layout: GroupLayout,
    /// Working copy of the factor being updated (`P × R_t`, `R_t ≤ 64`).
    factor: BitMatrix,
    /// `block_masks[b][t]` = the `R_in`-bit mask of inner-factor columns
    /// that column `t` of the updating factor reconstructs within block
    /// `b`'s slab (the `mask(t, slab)` of the module docs).
    block_masks: Vec<Vec<u64>>,
    cache: RowSumCache,
}

impl TuckerWorkState {
    fn build(
        part: &ModePartition,
        factor: &BitMatrix,
        mf: &BitMatrix,
        core_mat: &[Vec<u64>],
        ms: &BitMatrix,
        v_limit: usize,
    ) -> (Self, u64) {
        let r_in = ms.cols();
        let r_t = factor.cols();
        let layout = GroupLayout::new(r_in, v_limit);
        let cache = RowSumCache::build(ms, &layout);
        let mut ops = cache.num_entries() as u64 * part.slab_width.div_ceil(64) as u64;
        let mut block_masks = Vec::with_capacity(part.blocks.len());
        for block in &part.blocks {
            let mut masks = vec![0u64; r_t];
            for (t, mask) in masks.iter_mut().enumerate() {
                for (oc, &m) in core_mat[t].iter().enumerate() {
                    if mf.get(block.slab, oc) {
                        *mask |= m;
                    }
                }
            }
            ops += (r_t * core_mat.first().map_or(0, Vec::len)) as u64;
            block_masks.push(masks);
        }
        (
            TuckerWorkState {
                layout,
                factor: factor.clone(),
                block_masks,
                cache,
            },
            ops,
        )
    }

    fn apply_column(&mut self, col: usize, values: &BitVec) {
        for r in 0..self.factor.rows() {
            self.factor.set(r, col, values.get(r));
        }
    }

    /// Union mask of the active columns of row `row`, optionally skipping
    /// one column (the one whose candidates are being scored).
    fn union_mask(&self, block: usize, row: usize, skip: Option<usize>) -> u64 {
        let masks = &self.block_masks[block];
        let mut union = 0u64;
        for (t, &mask) in masks.iter().enumerate() {
            if Some(t) != skip && self.factor.get(row, t) {
                union |= mask;
            }
        }
        union
    }

    /// Fetches the cached Boolean row summation for an `R_in`-bit union
    /// mask and scores it against the sparse actual row of `block`.
    fn block_error(
        &self,
        part: &ModePartition,
        block: usize,
        row: usize,
        union: u64,
        scratch: &mut [u64],
    ) -> (u64, u64) {
        let cache = &self.cache;
        let ngroups = self.layout.num_groups();
        let actual = part.blocks[block].row(row);
        let width_off = part.blocks[block].inner_lo as usize;
        let nnz = actual.len() as u64;
        let mut ops = 2 + nnz;
        let (inter, pop) = if ngroups == 1 {
            let (cached, pop) = cache.fetch_single(union);
            let mut inter = 0u64;
            for &o in actual {
                let bit = o as usize + width_off;
                inter += u64::from(cached[bit / 64] & (1u64 << (bit % 64)) != 0);
            }
            // Popcount restricted to the block's columns.
            let pop_in_block = if part.blocks[block].inner_len as usize == cache.width() {
                pop as u64
            } else {
                ops += (part.blocks[block].inner_len as u64).div_ceil(64);
                BitVec::count_range_in(cached, width_off, part.blocks[block].inner_len as usize)
                    as u64
            };
            (inter, pop_in_block)
        } else {
            let mut keys = vec![0u64; ngroups];
            for (g, key) in keys.iter_mut().enumerate() {
                let (first, bits) = self.layout.group(g);
                *key = (union >> first) & (u64::MAX >> (64 - bits));
            }
            let words = cache.width().div_ceil(64);
            cache.fetch_or(&keys, &mut scratch[..words]);
            ops += (ngroups as u64 + 1) * words as u64;
            let mut inter = 0u64;
            let mut pop = 0u64;
            for &o in actual {
                let bit = o as usize + width_off;
                inter += u64::from(scratch[bit / 64] & (1u64 << (bit % 64)) != 0);
            }
            let len = part.blocks[block].inner_len as usize;
            pop += BitVec::count_range_in(&scratch[..words], width_off, len) as u64;
            (inter, pop)
        };
        (pop + nnz - 2 * inter, ops)
    }
}

/// The largest core rank the distributed driver takes: its masks are
/// single machine words.
pub const MAX_DISTRIBUTED_RANK: usize = 64;

/// Distributed Boolean Tucker factorization (see the module docs).
///
/// Produces bit-for-bit the same factorization as
/// [`crate::tucker::tucker_factorize`] for the same configuration, for any
/// backend, worker count, or partition count. All core ranks must be at
/// most [`MAX_DISTRIBUTED_RANK`].
pub fn tucker_factorize_distributed<B: ExecutionBackend>(
    backend: &B,
    x: &BoolTensor,
    config: &TuckerConfig,
) -> Result<TuckerResult, DbtfError> {
    tucker_factorize_distributed_traced(backend, x, config).map(|(result, _)| result)
}

/// [`tucker_factorize_distributed`], additionally returning the executed
/// dataflow plan (see [`crate::factorize_traced`] for the trace contract).
pub fn tucker_factorize_distributed_traced<B: ExecutionBackend>(
    backend: &B,
    x: &BoolTensor,
    config: &TuckerConfig,
) -> Result<(TuckerResult, PlanTrace), DbtfError> {
    tucker_factorize_distributed_instrumented(backend, x, config, &Tracer::disabled())
}

/// [`tucker_factorize_distributed_traced`], additionally recording a
/// hierarchical span trace into `tracer` (see
/// [`crate::factorize_instrumented`] for the span model and determinism
/// contract).
pub fn tucker_factorize_distributed_instrumented<B: ExecutionBackend>(
    backend: &B,
    x: &BoolTensor,
    config: &TuckerConfig,
    tracer: &Tracer,
) -> Result<(TuckerResult, PlanTrace), DbtfError> {
    config.validate()?;
    if config.ranks.iter().any(|&r| r > MAX_DISTRIBUTED_RANK) {
        return Err(DbtfError::InvalidConfig(format!(
            "distributed Tucker supports core ranks up to {MAX_DISTRIBUTED_RANK}"
        )));
    }
    let dims = x.dims();
    if dims.contains(&0) {
        return Err(DbtfError::EmptyTensor);
    }
    let (result, trace) = traced(backend, tracer, "tucker.factorize", |sched| {
        run(sched, x, config)
    });
    Ok((result?, trace))
}

/// The driver body: everything after validation, emitting through `sched`.
fn run<B: ExecutionBackend>(
    sched: &Scheduler<'_, B>,
    x: &BoolTensor,
    config: &TuckerConfig,
) -> Result<TuckerResult, DbtfError> {
    let n_partitions = sched.backend().suggested_partitions();
    // The Tucker driver is RAM-only: its tensors are the small core-search
    // workloads, so the out-of-core path adds no value there (DESIGN.md
    // §1.2.7).
    let [px1, px2, px3] = sched
        .phase("tucker.distribute", |s| {
            distribute_unfoldings(
                s,
                x,
                x.nnz() as u64,
                &CP_DISTRIBUTE_LABELS,
                n_partitions,
                crate::config::StorageKind::Ram,
                None,
            )
        })?
        .0;

    let mut best: Option<(TuckerFactorization, u64)> = None;
    for l in 0..config.initial_sets {
        let mut rng = StdRng::seed_from_u64(
            config.seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(l as u64 + 1),
        );
        let set = init_set(x, config, &mut rng);
        let (set, error) = sched.phase("tucker.iteration", |s| {
            distributed_round(s, &px1, &px2, &px3, set)
        })?;
        if best.as_ref().is_none_or(|(_, be)| error < *be) {
            best = Some((set, error));
        }
    }
    let (mut factorization, mut error) = best.expect("initial_sets ≥ 1");
    let mut iteration_errors = vec![error];
    let mut converged = error == 0;
    let threshold = CONVERGENCE_THRESHOLD * x.nnz().max(1) as f64;
    for t in 2..=config.max_iters {
        if converged {
            break;
        }
        let mut rng = StdRng::seed_from_u64(config.seed ^ (t as u64).wrapping_mul(0xc0de));
        let revived = revive_dead_components(x, factorization.clone(), &mut rng);
        let (next, next_error) = sched.phase("tucker.iteration", |s| {
            distributed_round(s, &px1, &px2, &px3, revived)
        })?;
        if next_error > error {
            iteration_errors.push(error);
            continue;
        }
        let delta = error.abs_diff(next_error) as f64;
        let stalled = next == factorization;
        factorization = next;
        error = next_error;
        iteration_errors.push(error);
        if (delta <= threshold && stalled) || error == 0 {
            converged = true;
        }
    }
    Ok(TuckerResult {
        iterations: iteration_errors.len(),
        converged,
        relative_error: reconstruct::error_ratio(error, x.nnz()),
        error,
        factorization,
        iteration_errors,
    })
}

/// One distributed round, mirroring the sequential `update_round`:
/// core, A, B, C, core, then the exact error.
fn distributed_round<B: ExecutionBackend>(
    sched: &Scheduler<'_, B>,
    px1: &B::Dataset<PartitionSlot>,
    px2: &B::Dataset<PartitionSlot>,
    px3: &B::Dataset<PartitionSlot>,
    set: TuckerFactorization,
) -> Result<(TuckerFactorization, u64), ClusterError> {
    let TuckerFactorization { core, a, b, c } = set;
    let core = update_core_distributed(sched, px1, &core, &a, &b, &c)?;
    // Mode 1: outer C, inner B; core axes (t=p, oc=r, in=q).
    let a = update_factor_distributed(sched, px1, &a, &c, &core_masks(&core, 0, 2, 1), &b)?;
    // Mode 2: outer C, inner A; core axes (t=q, oc=r, in=p).
    let b = update_factor_distributed(sched, px2, &b, &c, &core_masks(&core, 1, 2, 0), &a)?;
    // Mode 3: outer B, inner A; core axes (t=r, oc=q, in=p).
    let c = update_factor_distributed(sched, px3, &c, &b, &core_masks(&core, 2, 1, 0), &a)?;
    let core = update_core_distributed(sched, px1, &core, &a, &b, &c)?;
    let error = distributed_error(sched, px1, &a, &c, &core_masks(&core, 0, 2, 1), &b)?;
    Ok((TuckerFactorization { core, a, b, c }, error))
}

/// `core_mat[t][oc]` = the `R_in`-bit mask `{ in : g(entry) = 1 }` where
/// the core entry has coordinate `t` on `t_axis`, `oc` on `oc_axis` and
/// `in` on `in_axis`.
fn core_masks(core: &BoolTensor, t_axis: usize, oc_axis: usize, in_axis: usize) -> Vec<Vec<u64>> {
    let dims = core.dims();
    let mut mat = vec![vec![0u64; dims[oc_axis]]; dims[t_axis]];
    for e in core.iter() {
        let t = e[t_axis] as usize;
        let oc = e[oc_axis] as usize;
        let inn = e[in_axis] as usize;
        mat[t][oc] |= 1u64 << inn;
    }
    mat
}

fn update_factor_distributed<B: ExecutionBackend>(
    sched: &Scheduler<'_, B>,
    data: &B::Dataset<PartitionSlot>,
    factor: &BitMatrix,
    mf: &BitMatrix,
    core_mat: &[Vec<u64>],
    ms: &BitMatrix,
) -> Result<BitMatrix, ClusterError> {
    let r_t = factor.cols();
    let bytes = matrix_bytes(factor)
        + matrix_bytes(mf)
        + matrix_bytes(ms)
        + (core_mat.len() * core_mat.first().map_or(0, Vec::len) * 8) as u64;
    let payload = sched.broadcast(
        "tucker.update.factors",
        (factor.clone(), mf.clone(), core_mat.to_vec(), ms.clone()),
        bytes,
    )?;

    // Begin: build the per-partition state.
    sched.map_partitions("tucker.update.begin", data, {
        let payload = payload.clone();
        move |_idx, slot: &mut PartitionSlot, ctx| {
            let (factor, mf, core_mat, ms) = payload.get();
            let (state, ops) = TuckerWorkState::build(&slot.part, factor, mf, core_mat, ms, 15);
            ctx.charge_kernel("kernel.build_cache", ops);
            slot.tucker = Some(state);
        }
    })?;

    // The Tucker sweep task stays a plain closure (no wire registration),
    // so distributed Tucker runs on the in-process backends only — the
    // networked backend rejects it with instructions at the first
    // superstep.
    let mut master = factor.clone();
    let cols: Vec<usize> = (0..r_t).collect();
    let last = column_sweep(
        sched,
        SweepLabels {
            sweep: "tucker.update.sweep",
            reduce: "tucker.update.reduce",
            decision: "tucker.update.decision",
        },
        data,
        &mut master,
        &cols,
        move |col, prev| {
            let task = move |_idx: usize, slot: &mut PartitionSlot, ctx: &mut TaskContext| {
                if let Some(decided) = prev.as_deref() {
                    let state = slot.tucker.as_mut().expect("tucker update not begun");
                    state.apply_column(decided.col, &decided.values);
                    ctx.charge_kernel("kernel.apply_column", decided.values.len() as u64);
                }
                let state = slot.tucker.as_ref().expect("tucker update not begun");
                let part = &slot.part;
                let mut errs = vec![(0u64, 0u64); part.nrows];
                let mut scratch = vec![0u64; part.slab_width.div_ceil(64).max(1)];
                let mut ops = 0u64;
                for b in 0..part.blocks.len() {
                    let mask_t = state.block_masks[b][col];
                    if mask_t == 0 {
                        continue; // both candidates reconstruct identically
                    }
                    for (row, err) in errs.iter_mut().enumerate() {
                        let base = state.union_mask(b, row, Some(col));
                        let (e0, o0) = state.block_error(part, b, row, base, &mut scratch);
                        let (e1, o1) = state.block_error(part, b, row, base | mask_t, &mut scratch);
                        err.0 += e0;
                        err.1 += e1;
                        ops += o0 + o1 + r_t as u64;
                    }
                }
                ctx.charge_kernel("kernel.column_errors", ops);
                ctx.set_result_bytes(errs.len() as u64 * 16);
                errs
            };
            InProcess(task)
        },
    )?;

    // Finish: apply the last column and drop the state.
    sched.map_partitions("tucker.update.finish", data, move |_idx, slot, ctx| {
        let state = slot.tucker.as_mut().expect("tucker update not begun");
        let decided = last.get();
        state.apply_column(decided.col, &decided.values);
        ctx.charge_kernel("kernel.apply_column", decided.values.len() as u64);
        slot.tucker = None;
    })?;
    // Every partition is back to its distribute-time state (`part` is never
    // mutated, `tucker` is None again), so crash recovery no longer needs
    // to replay this update's supersteps.
    sched.reset_lineage(data);
    Ok(master)
}

/// The exact reconstruction error under the current model, computed over
/// the mode-1 partitions.
fn distributed_error<B: ExecutionBackend>(
    sched: &Scheduler<'_, B>,
    data: &B::Dataset<PartitionSlot>,
    factor: &BitMatrix,
    mf: &BitMatrix,
    core_mat: &[Vec<u64>],
    ms: &BitMatrix,
) -> Result<u64, ClusterError> {
    let payload = sched.broadcast(
        "tucker.error.factors",
        (factor.clone(), mf.clone(), core_mat.to_vec(), ms.clone()),
        matrix_bytes(factor) + matrix_bytes(mf) + matrix_bytes(ms),
    )?;
    let errors: Vec<u64> =
        sched.map_partitions("tucker.error.map", data, move |_idx, slot, ctx| {
            let (factor, mf, core_mat, ms) = payload.get();
            let (state, build_ops) =
                TuckerWorkState::build(&slot.part, factor, mf, core_mat, ms, 15);
            let part = &slot.part;
            let mut scratch = vec![0u64; part.slab_width.div_ceil(64).max(1)];
            let mut err = 0u64;
            let mut ops = build_ops;
            for b in 0..part.blocks.len() {
                for row in 0..part.nrows {
                    let union = state.union_mask(b, row, None);
                    let (e, o) = state.block_error(part, b, row, union, &mut scratch);
                    err += e;
                    ops += o;
                }
            }
            ctx.charge_kernel("kernel.partition_error", ops);
            ctx.set_result_bytes(8);
            err
        })?;
    Ok(errors.iter().sum())
}

/// One distributed greedy core update: the driver walks the entries in the
/// sequential order; for each non-empty block, one superstep collects the
/// exact flip delta (exclusively-covered / newly-covered cell counts split
/// by the cell's value in `X`) and the driver applies the greedy decision.
fn update_core_distributed<B: ExecutionBackend>(
    sched: &Scheduler<'_, B>,
    px1: &B::Dataset<PartitionSlot>,
    core: &BoolTensor,
    a: &BitMatrix,
    b: &BitMatrix,
    c: &BitMatrix,
) -> Result<BoolTensor, ClusterError> {
    let [r1, r2, r3] = core.dims();
    let factors = sched.broadcast(
        "tucker.core.factors",
        (a.clone(), b.clone(), c.clone()),
        matrix_bytes(a) + matrix_bytes(b) + matrix_bytes(c),
    )?;
    let mut entries: Vec<[u32; 3]> = core.iter().collect();
    for p in 0..r1 {
        for q in 0..r2 {
            for r in 0..r3 {
                let e = [p as u32, q as u32, r as u32];
                let active = entries.binary_search(&e).is_ok();
                // Empty blocks are left alone (sequential semantics): the
                // driver can see emptiness from the master factors.
                if a.column(p).count_ones() == 0
                    || b.column(q).count_ones() == 0
                    || c.column(r).count_ones() == 0
                {
                    continue;
                }
                let current = sched.broadcast(
                    "tucker.core.entries",
                    entries.clone(),
                    entries.len() as u64 * 6 + 16,
                )?;
                let counts: Vec<(u64, u64)> = sched.map_partitions("tucker.core.count", px1, {
                    let factors = factors.clone();
                    let current = current.clone();
                    move |_idx, slot: &mut PartitionSlot, ctx| {
                        let (a, b, c) = factors.get();
                        let (ones, zeros, ops) =
                            flip_delta(&slot.part, current.get(), e, active, a, b, c);
                        ctx.charge_kernel("kernel.flip_delta", ops);
                        ctx.set_result_bytes(16);
                        (ones, zeros)
                    }
                })?;
                let ones: u64 = counts.iter().map(|&(o, _)| o).sum();
                let zeros: u64 = counts.iter().map(|&(_, z)| z).sum();
                sched.charge_driver("tucker.core.reduce", counts.len() as u64);
                if active {
                    // delta = ones − zeros; flip off when delta ≤ 0.
                    if ones <= zeros {
                        let idx = entries.binary_search(&e).expect("active entry present");
                        entries.remove(idx);
                    }
                } else {
                    // delta = zeros − ones; flip on when delta < 0.
                    if ones > zeros {
                        let idx = entries
                            .binary_search(&e)
                            .expect_err("inactive entry absent");
                        entries.insert(idx, e);
                    }
                }
            }
        }
    }
    Ok(BoolTensor::from_entries([r1, r2, r3], entries))
}

/// Counts, within this mode-1 partition, the cells of `entry`'s block that
/// are exclusively covered by it (`active = true`) or would be newly
/// covered (`active = false`), split into `(x == 1, x == 0)`.
fn flip_delta(
    part: &ModePartition,
    core_entries: &[[u32; 3]],
    entry: [u32; 3],
    active: bool,
    a: &BitMatrix,
    b: &BitMatrix,
    c: &BitMatrix,
) -> (u64, u64, u64) {
    let [p, q, r] = entry;
    let is: Vec<usize> = a.column(p as usize).iter_ones().collect();
    let mut ones = 0u64;
    let mut zeros = 0u64;
    let mut ops = 0u64;
    for block in &part.blocks {
        let k = block.slab;
        if !c.get(k, r as usize) {
            continue;
        }
        let lo = block.inner_lo as usize;
        let hi = lo + block.inner_len as usize;
        for j in b.column(q as usize).iter_ones() {
            if j < lo || j >= hi {
                continue;
            }
            for &i in &is {
                ops += core_entries.len() as u64 + 1;
                // Covered by another active entry?
                let covered_by_other = core_entries.iter().any(|&[p2, q2, r2]| {
                    [p2, q2, r2] != entry
                        && a.get(i, p2 as usize)
                        && b.get(j, q2 as usize)
                        && c.get(k, r2 as usize)
                });
                // For an active entry we need exclusively-covered cells;
                // for an inactive one, cells not covered at all. Both are
                // "no other active entry covers this cell".
                if covered_by_other {
                    continue;
                }
                let _ = active;
                let x_is_one = block.row(i).binary_search(&((j - lo) as u32)).is_ok();
                if x_is_one {
                    ones += 1;
                } else {
                    zeros += 1;
                }
            }
        }
    }
    (ones, zeros, ops)
}
