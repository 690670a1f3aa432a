//! Worker-side state and inner loops of the factor update (paper
//! Section III-A/III-C, Algorithm 4).
//!
//! During one `UpdateFactor` call, every partition holds a transient
//! [`WorkState`]: the per-row group key masks of the factor being updated,
//! the per-block key masks of `M_f`, and the cached Boolean row summations
//! of `M_sᵀ` (full-size plus vertically sliced caches for the partition's
//! edge blocks). The driver drives one superstep per factor column; each
//! superstep scores both candidate values of every row's entry in that
//! column against the partition's share of the unfolded tensor.
//!
//! # Hot-path design
//!
//! The column superstep is DBTF's innermost loop, so [`WorkState`] is built
//! for zero per-superstep heap allocation and minimal redundant work:
//!
//! - **Incremental key masks.** The working factor copy is held directly as
//!   the `P × G` group-key buffer `row_masks`; [`WorkState::apply_column`]
//!   patches the changed column's single bit per row (word-wise over the
//!   broadcast column) instead of rebuilding the whole buffer each call.
//! - **Owned scratch.** Key and OR scratch buffers live in the state, sized
//!   once in [`WorkState::build`].
//! - **Density-adaptive intersection.** Each block chooses between probing
//!   its sparse ones against the cached row (cost `O(nnz)`) and a word-wise
//!   AND + popcount against a dense bitmap of its rows (cost `O(width/64)`
//!   per row) — whichever is cheaper. The bitmap depends only on the
//!   immutable block, so it lives on the
//!   [`Block`](crate::partition::Block): built by the first update that
//!   needs it and reused by every later one. The build still charges its
//!   ops and reports its bytes every call, so the cost model prices a
//!   rebuild per update as before.
//! - **Hardware popcount.** [`WorkState::column_errors`],
//!   [`WorkState::partition_error`] and the cache build each have a copy
//!   compiled with `popcnt` enabled, chosen at run time when the CPU has
//!   the instruction; the portable body is the fallback. Both copies
//!   compute the same bits and charge the same ops.

use dbtf_tensor::{BitMatrix, BitVec};

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
use crate::cache::hardware_popcnt;
use crate::cache::{GroupLayout, RowSumCache};
use crate::partition::{BlockKind, ModePartition};

/// A partition plus its transient update state; the element type stored in
/// the cluster's distributed datasets.
pub struct PartitionSlot {
    /// The immutable partitioned unfolding (cached across the whole run).
    pub part: ModePartition,
    /// Per-`UpdateFactor` state (CP path); `None` outside an update.
    pub(crate) work: Option<WorkState>,
    /// Per-`UpdateFactor` state (Tucker path); `None` outside an update.
    pub(crate) tucker: Option<crate::tucker_distributed::TuckerWorkState>,
}

impl PartitionSlot {
    /// Wraps a partition with no active update state.
    pub fn new(part: ModePartition) -> Self {
        PartitionSlot {
            part,
            work: None,
            tucker: None,
        }
    }
}

/// Per-block cache handle: full blocks share the partition's full-size
/// cache; edge blocks own a sliced cache (Algorithm 5 line 4).
enum BlockCache {
    Full,
    Sliced(RowSumCache),
}

/// Transient state of one partition during an `UpdateFactor` call.
///
/// Public so benchmarks can drive the column-superstep kernel directly;
/// within the crate it is owned by [`PartitionSlot`].
pub struct WorkState {
    layout: GroupLayout,
    /// Row count `P` of the factor being updated.
    nrows: usize,
    /// The working factor copy, held directly in key form: `P × G` group
    /// key words, `row_masks[r·G + g]` = group-`g` bits of factor row `r`.
    /// Maintained incrementally by [`WorkState::apply_column`].
    row_masks: Vec<u64>,
    /// Per-block group key masks of the owning `M_f` row
    /// (`mf_masks[b][g] = group-g bits of m_{f, slab(b)}`).
    mf_masks: Vec<Vec<u64>>,
    full_cache: RowSumCache,
    block_caches: Vec<BlockCache>,
    /// Bytes of the dense bitmaps of the blocks past the density
    /// threshold; the bitmaps themselves live on the blocks.
    dense_bytes: u64,
    /// Scratch: one key word per group.
    keys: Vec<u64>,
    /// Scratch: OR of the cached rows of all groups except the superstep's.
    scratch_base: Vec<u64>,
    /// Scratch: combined cached row under candidate 0 / the current keys.
    scratch0: Vec<u64>,
    /// Scratch: combined cached row under candidate 1.
    scratch1: Vec<u64>,
}

/// Ops-accounting constants: one unit ≈ one 64-bit word operation.
mod cost {
    /// Key construction per (row, block, group).
    pub const KEY: u64 = 1;
    /// Per word ORed or popcounted.
    pub const WORD: u64 = 1;
    /// Per sparse one tested against a cached row.
    pub const NNZ_TEST: u64 = 1;
    /// Per word ANDed + popcounted on the dense intersection path.
    pub const DENSE_AND: u64 = 1;
}

impl WorkState {
    /// Builds the update state for `part`: caches all Boolean row
    /// summations of `M_sᵀ` (sliced per edge block), extracts the
    /// per-block `M_f` key masks, converts `a` into the incremental
    /// row-key buffer, and sizes all kernel scratch. Returns the state and
    /// the charged ops.
    pub fn build(
        part: &ModePartition,
        a: &BitMatrix,
        mf: &BitMatrix,
        ms: &BitMatrix,
        v_limit: usize,
    ) -> (Self, u64) {
        let rank = a.cols();
        debug_assert_eq!(mf.cols(), rank);
        debug_assert_eq!(ms.cols(), rank);
        debug_assert_eq!(
            ms.rows(),
            part.slab_width,
            "M_s height must be the slab width"
        );
        let layout = GroupLayout::new(rank, v_limit);
        let ngroups = layout.num_groups();

        let full_cache = RowSumCache::build(ms, &layout);
        let width_words = part.slab_width.div_ceil(64) as u64;
        let mut ops = full_cache.num_entries() as u64 * width_words;

        let mut mf_masks = Vec::with_capacity(part.blocks.len());
        let mut block_caches = Vec::with_capacity(part.blocks.len());
        let mut dense_bytes = 0u64;
        for block in &part.blocks {
            let mut masks = vec![0u64; ngroups];
            layout.row_masks(mf, block.slab, &mut masks);
            mf_masks.push(masks);
            ops += ngroups as u64 * cost::KEY;
            match block.kind {
                BlockKind::Full => block_caches.push(BlockCache::Full),
                _ => {
                    let sliced =
                        full_cache.slice(block.inner_lo as usize, block.inner_len as usize);
                    ops += sliced.num_entries() as u64
                        * (block.inner_len as u64).div_ceil(64)
                        * cost::WORD;
                    block_caches.push(BlockCache::Sliced(sliced));
                }
            }
            if block.prefers_dense() {
                // Built by the first update only, but charged as a rebuild
                // every time: the cost model prices it per update.
                let dense = block.dense_rows();
                ops += dense.data.len() as u64 * cost::WORD;
                dense_bytes += dense.byte_size();
            }
        }

        // Seed the incremental key buffer from the initial factor copy.
        let mut row_masks = vec![0u64; part.nrows * ngroups];
        for r in 0..part.nrows {
            layout.row_masks(a, r, &mut row_masks[r * ngroups..(r + 1) * ngroups]);
        }
        ops += (part.nrows * ngroups) as u64 * cost::KEY;

        let scratch_words = part.slab_width.div_ceil(64).max(1);
        let state = WorkState {
            layout,
            nrows: part.nrows,
            row_masks,
            mf_masks,
            full_cache,
            block_caches,
            dense_bytes,
            keys: vec![0u64; ngroups],
            scratch_base: vec![0u64; scratch_words],
            scratch0: vec![0u64; scratch_words],
            scratch1: vec![0u64; scratch_words],
        };
        (state, ops)
    }

    /// Total bytes held by this state's caches and dense bitmaps (for
    /// memory reporting).
    pub fn cache_bytes(&self) -> u64 {
        let sliced: u64 = self
            .block_caches
            .iter()
            .map(|c| match c {
                BlockCache::Full => 0,
                BlockCache::Sliced(s) => s.byte_size(),
            })
            .sum();
        self.full_cache.byte_size() + sliced + self.dense_bytes
    }

    /// Applies a decided column to the working factor copy by patching the
    /// affected group key word of every row — the incremental counterpart
    /// of the former full `P × G` rebuild. The broadcast column is read
    /// whole words at a time.
    pub fn apply_column(&mut self, col: usize, values: &BitVec) {
        debug_assert_eq!(values.len(), self.nrows);
        let ngroups = self.layout.num_groups();
        let (gc, off) = self.layout.locate(col);
        let col_bit = 1u64 << off;
        for (wi, &word) in values.words().iter().enumerate() {
            let row0 = wi * 64;
            let in_word = (self.nrows - row0).min(64);
            for i in 0..in_word {
                let idx = (row0 + i) * ngroups + gc;
                // Branchless single-bit patch from the value word.
                #[allow(unused_mut)]
                let mut bit = (word >> i) & 1;
                // Seeded kernel bug for the differential harness's teeth
                // test (crates/oracle/tests/teeth.rs): the decided column
                // is applied inverted to row 0.
                #[cfg(feature = "mutation")]
                if wi == 0 && i == 0 {
                    bit ^= 1;
                }
                self.row_masks[idx] = (self.row_masks[idx] & !col_bit) | (bit * col_bit);
            }
        }
    }

    /// Scores both candidate values of column `col` for every row
    /// (Algorithm 4 lines 4–10).
    ///
    /// Returns `(err0, err1)` per row, summed over this partition's blocks
    /// whose `M_f` row has a one in column `col` — blocks without it
    /// contribute identically to both candidates, so skipping them leaves
    /// every `err1 − err0` comparison exact. Also returns the charged ops.
    ///
    /// Aside from the returned vector (the task's result payload), this
    /// performs no heap allocation: all scratch lives in the state.
    pub fn column_errors(&mut self, part: &ModePartition, col: usize) -> (Vec<(u64, u64)>, u64) {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if hardware_popcnt() {
            // SAFETY: `hardware_popcnt` just confirmed the CPU has `popcnt`.
            return unsafe { self.column_errors_popcnt(part, col) };
        }
        self.column_errors_portable(part, col)
    }

    /// [`WorkState::column_errors`] compiled with hardware popcount.
    ///
    /// # Safety
    ///
    /// The CPU must support `popcnt` (see [`hardware_popcnt`]).
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "popcnt")]
    fn column_errors_popcnt(&mut self, part: &ModePartition, col: usize) -> (Vec<(u64, u64)>, u64) {
        self.column_errors_portable(part, col)
    }

    #[inline(always)]
    fn column_errors_portable(
        &mut self,
        part: &ModePartition,
        col: usize,
    ) -> (Vec<(u64, u64)>, u64) {
        let nrows = part.nrows;
        let ngroups = self.layout.num_groups();
        let (gc, off) = self.layout.locate(col);
        let col_bit = 1u64 << off;
        let mut ops = 0u64;
        let mut errs = vec![(0u64, 0u64); nrows];

        for (b, block) in part.blocks.iter().enumerate() {
            let mf = &self.mf_masks[b];
            if (mf[gc] & col_bit) == 0 {
                continue; // irrelevant: both candidates reconstruct equally
            }
            let cache = match &self.block_caches[b] {
                BlockCache::Full => &self.full_cache,
                BlockCache::Sliced(s) => s,
            };
            let dense = block.prefers_dense().then(|| block.dense_rows());
            // Loop-invariant per block: word width of the cached rows.
            let cache_words = cache.width().div_ceil(64);
            if ngroups == 1 {
                let mf0 = mf[0];
                for (r, err) in errs.iter_mut().enumerate() {
                    let base = self.row_masks[r * ngroups] & mf0;
                    let key0 = base & !col_bit;
                    let key1 = base | col_bit;
                    let (row0, pop0) = cache.fetch_single(key0);
                    let (row1, pop1) = cache.fetch_single(key1);
                    let (inter0, inter1);
                    let nnz = block.row(r).len() as u64;
                    match dense {
                        Some(d) => {
                            let (mut i0, mut i1) = (0u64, 0u64);
                            for ((&w0, &w1), &dw) in row0.iter().zip(row1).zip(d.row(r)) {
                                i0 += (w0 & dw).count_ones() as u64;
                                i1 += (w1 & dw).count_ones() as u64;
                            }
                            (inter0, inter1) = (i0, i1);
                            ops += cost::KEY + 2 * cache_words as u64 * cost::DENSE_AND;
                        }
                        None => {
                            let (mut i0, mut i1) = (0u64, 0u64);
                            for &o in block.row(r) {
                                let w = (o / 64) as usize;
                                let bit = 1u64 << (o % 64);
                                i0 += u64::from(row0[w] & bit != 0);
                                i1 += u64::from(row1[w] & bit != 0);
                            }
                            (inter0, inter1) = (i0, i1);
                            ops += cost::KEY + 2 * nnz * cost::NNZ_TEST;
                        }
                    }
                    err.0 += pop0 as u64 + nnz - 2 * inter0;
                    err.1 += pop1 as u64 + nnz - 2 * inter1;
                }
            } else {
                for (r, err) in errs.iter_mut().enumerate() {
                    let base = r * ngroups;
                    for (g, key) in self.keys.iter_mut().enumerate() {
                        *key = self.row_masks[base + g] & mf[g];
                    }
                    // The two candidates differ only in group `gc`, so the
                    // OR of the other groups is shared. With two groups it
                    // is one cached row; otherwise OR them into scratch.
                    // The ops below charge the OR either way.
                    let shared: &[u64] = if ngroups == 2 {
                        cache.group_row(1 - gc, self.keys[1 - gc])
                    } else {
                        let sb = &mut self.scratch_base[..cache_words];
                        sb.fill(0);
                        for g in (0..ngroups).filter(|&g| g != gc) {
                            for (d, s) in sb.iter_mut().zip(cache.group_row(g, self.keys[g])) {
                                *d |= s;
                            }
                        }
                        sb
                    };
                    let key0 = self.keys[gc] & !col_bit;
                    let key1 = self.keys[gc] | col_bit;
                    let row0 = cache.group_row(gc, key0);
                    let row1 = cache.group_row(gc, key1);
                    let nnz = block.row(r).len() as u64;
                    let (mut pop0, mut pop1) = (0u64, 0u64);
                    let (inter0, inter1);
                    match dense {
                        Some(d) => {
                            let (mut i0, mut i1) = (0u64, 0u64);
                            let words = shared.iter().zip(row0).zip(row1).zip(d.row(r));
                            for (((&s, &a0), &a1), &dw) in words {
                                let (w0, w1) = (s | a0, s | a1);
                                pop0 += w0.count_ones() as u64;
                                pop1 += w1.count_ones() as u64;
                                i0 += (w0 & dw).count_ones() as u64;
                                i1 += (w1 & dw).count_ones() as u64;
                            }
                            (inter0, inter1) = (i0, i1);
                            ops += ngroups as u64 * cost::KEY
                                + cache_words as u64 * (ngroups as u64 - 1) * cost::WORD
                                + 2 * cache_words as u64 * (cost::WORD + cost::DENSE_AND);
                        }
                        None => {
                            let words = shared.iter().zip(row0).zip(row1);
                            let out = self.scratch0.iter_mut().zip(self.scratch1.iter_mut());
                            for (((&s, &a0), &a1), (o0, o1)) in words.zip(out) {
                                (*o0, *o1) = (s | a0, s | a1);
                                pop0 += o0.count_ones() as u64;
                                pop1 += o1.count_ones() as u64;
                            }
                            let (mut i0, mut i1) = (0u64, 0u64);
                            for &o in block.row(r) {
                                let w = (o / 64) as usize;
                                let bit = 1u64 << (o % 64);
                                i0 += u64::from(self.scratch0[w] & bit != 0);
                                i1 += u64::from(self.scratch1[w] & bit != 0);
                            }
                            (inter0, inter1) = (i0, i1);
                            ops += ngroups as u64 * cost::KEY
                                + cache_words as u64 * (ngroups as u64 - 1) * cost::WORD
                                + 2 * cache_words as u64 * cost::WORD
                                + 2 * nnz * cost::NNZ_TEST;
                        }
                    }
                    err.0 += pop0 + nnz - 2 * inter0;
                    err.1 += pop1 + nnz - 2 * inter1;
                }
            }
        }
        (errs, ops)
    }

    /// Exact reconstruction error of this partition's column range under
    /// the *current* working factor copy:
    /// `Σ_rows |[X_(n)]_{r, lo..hi} ⊕ [A ∘ (M_f ⊙ M_s)ᵀ]_{r, lo..hi}|`.
    pub fn partition_error(&mut self, part: &ModePartition) -> (u64, u64) {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if hardware_popcnt() {
            // SAFETY: `hardware_popcnt` just confirmed the CPU has `popcnt`.
            return unsafe { self.partition_error_popcnt(part) };
        }
        self.partition_error_portable(part)
    }

    /// [`WorkState::partition_error`] compiled with hardware popcount.
    ///
    /// # Safety
    ///
    /// The CPU must support `popcnt` (see [`hardware_popcnt`]).
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "popcnt")]
    fn partition_error_popcnt(&mut self, part: &ModePartition) -> (u64, u64) {
        self.partition_error_portable(part)
    }

    #[inline(always)]
    fn partition_error_portable(&mut self, part: &ModePartition) -> (u64, u64) {
        let nrows = part.nrows;
        let ngroups = self.layout.num_groups();
        let mut ops = 0u64;
        let mut err = 0u64;
        for (b, block) in part.blocks.iter().enumerate() {
            let mf = &self.mf_masks[b];
            let cache = match &self.block_caches[b] {
                BlockCache::Full => &self.full_cache,
                BlockCache::Sliced(s) => s,
            };
            let dense = block.prefers_dense().then(|| block.dense_rows());
            // Loop-invariant per block: word width of the cached rows.
            let cache_words = cache.width().div_ceil(64);
            for r in 0..nrows {
                let base = r * ngroups;
                let nnz = block.row(r).len() as u64;
                let (pop, inter);
                if ngroups == 1 {
                    let (row, row_pop) = cache.fetch_single(self.row_masks[r] & mf[0]);
                    pop = row_pop as u64;
                    match dense {
                        Some(d) => {
                            let mut i = 0u64;
                            for (&rw, &dw) in row.iter().zip(d.row(r)) {
                                i += (rw & dw).count_ones() as u64;
                            }
                            inter = i;
                            ops += cost::KEY + cache_words as u64 * cost::DENSE_AND;
                        }
                        None => {
                            let mut i = 0u64;
                            for &o in block.row(r) {
                                let w = (o / 64) as usize;
                                i += u64::from(row[w] & (1u64 << (o % 64)) != 0);
                            }
                            inter = i;
                            ops += cost::KEY + nnz * cost::NNZ_TEST;
                        }
                    }
                } else {
                    for (g, key) in self.keys.iter_mut().enumerate() {
                        *key = self.row_masks[base + g] & mf[g];
                    }
                    pop = cache.fetch_or(&self.keys, &mut self.scratch0[..cache_words]) as u64;
                    match dense {
                        Some(d) => {
                            let mut i = 0u64;
                            for (w, &dw) in d.row(r).iter().enumerate() {
                                i += (self.scratch0[w] & dw).count_ones() as u64;
                            }
                            inter = i;
                            ops += ngroups as u64 * cost::KEY
                                + cache_words as u64 * (ngroups as u64 + 1) * cost::WORD
                                + cache_words as u64 * cost::DENSE_AND;
                        }
                        None => {
                            let mut i = 0u64;
                            for &o in block.row(r) {
                                let w = (o / 64) as usize;
                                i += u64::from(self.scratch0[w] & (1u64 << (o % 64)) != 0);
                            }
                            inter = i;
                            ops += ngroups as u64 * cost::KEY
                                + cache_words as u64 * (ngroups as u64 + 1) * cost::WORD
                                + nnz * cost::NNZ_TEST;
                        }
                    }
                }
                err += pop + nnz - 2 * inter;
            }
        }
        (err, ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition_unfolding;
    use dbtf_tensor::ops::{bool_matmul, khatri_rao};
    use dbtf_tensor::reconstruct::reconstruct;
    use dbtf_tensor::{BoolTensor, Mode, Unfolding};
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

    /// Reference: |X_(1) ⊕ A ∘ (M_f ⊙ M_s)ᵀ| restricted to a column range.
    fn naive_range_error(
        unf: &Unfolding,
        a: &BitMatrix,
        mf: &BitMatrix,
        ms: &BitMatrix,
        lo: u64,
        hi: u64,
    ) -> u64 {
        let recon = bool_matmul(a, &khatri_rao(mf, ms).transpose());
        let mut err = 0u64;
        for r in 0..unf.nrows() {
            for c in lo..hi {
                let x = unf.get(r, c);
                let y = recon.get(r, c as usize);
                err += u64::from(x != y);
            }
        }
        err
    }

    /// The partition_error of every partition must sum to the full
    /// matricized reconstruction error, for any partitioning and grouping.
    #[test]
    fn partition_error_sums_to_full_error() {
        let dims = [5, 6, 7];
        let t = random_tensor(dims, 0.2, 20);
        let mut rng = StdRng::seed_from_u64(21);
        let rank = 4;
        let a = BitMatrix::random(dims[0], rank, 0.4, &mut rng);
        let b = BitMatrix::random(dims[1], rank, 0.4, &mut rng);
        let c = BitMatrix::random(dims[2], rank, 0.4, &mut rng);
        let unf = Unfolding::new(&t, Mode::One);
        let full = naive_range_error(&unf, &a, &c, &b, 0, unf.ncols());
        // Cross-check against the tensor-level error.
        let x_hat = reconstruct(&a, &b, &c);
        assert_eq!(full, t.xor_count(&x_hat) as u64);

        for n in [1usize, 2, 5, 11] {
            for v in [15usize, 2, 1] {
                let parts = partition_unfolding(&unf, n);
                let mut total = 0u64;
                for p in &parts {
                    let (mut ws, _) = WorkState::build(p, &a, &c, &b, v);
                    let (err, _) = ws.partition_error(p);
                    total += err;
                }
                assert_eq!(total, full, "N = {n}, V = {v}");
            }
        }
    }

    /// column_errors must report, for each row, exactly the error of the
    /// relevant blocks under both candidate bit values.
    #[test]
    fn column_errors_match_naive() {
        let dims = [4, 5, 6];
        let t = random_tensor(dims, 0.25, 22);
        let mut rng = StdRng::seed_from_u64(23);
        let rank = 3;
        let a = BitMatrix::random(dims[0], rank, 0.5, &mut rng);
        let b = BitMatrix::random(dims[1], rank, 0.5, &mut rng);
        let c = BitMatrix::random(dims[2], rank, 0.5, &mut rng);
        let unf = Unfolding::new(&t, Mode::One);
        let s = Mode::One.slab_width(dims) as u64;

        for n in [1usize, 3, 7] {
            for v in [15usize, 2, 1] {
                let parts = partition_unfolding(&unf, n);
                for col in 0..rank {
                    // Gather distributed (err0, err1) sums per row.
                    let mut sums = vec![(0u64, 0u64); dims[0]];
                    for p in &parts {
                        let (mut ws, _) = WorkState::build(p, &a, &c, &b, v);
                        let (errs, _) = ws.column_errors(p, col);
                        for (r, (e0, e1)) in errs.into_iter().enumerate() {
                            sums[r].0 += e0;
                            sums[r].1 += e1;
                        }
                    }
                    // Naive: for each candidate value, error over the
                    // columns belonging to slabs with m_f[k][col] = 1.
                    for val in [false, true] {
                        let mut a_mod = a.clone();
                        for r in 0..dims[0] {
                            a_mod.set(r, col, val);
                        }
                        let recon = bool_matmul(&a_mod, &khatri_rao(&c, &b).transpose());
                        for (r, &sum) in sums.iter().enumerate() {
                            let mut expect = 0u64;
                            for k in 0..dims[2] {
                                if !c.get(k, col) {
                                    continue;
                                }
                                for cc in (k as u64 * s)..((k as u64 + 1) * s) {
                                    expect +=
                                        u64::from(unf.get(r, cc) != recon.get(r, cc as usize));
                                }
                            }
                            let got = if val { sum.1 } else { sum.0 };
                            assert_eq!(got, expect, "N={n} V={v} col={col} row={r} val={val}");
                        }
                    }
                }
            }
        }
    }

    /// Applying a column must change subsequent error computations.
    #[test]
    fn apply_column_updates_state() {
        let dims = [3, 4, 5];
        let t = random_tensor(dims, 0.3, 24);
        let mut rng = StdRng::seed_from_u64(25);
        let a = BitMatrix::random(dims[0], 2, 0.5, &mut rng);
        let b = BitMatrix::random(dims[1], 2, 0.5, &mut rng);
        let c = BitMatrix::random(dims[2], 2, 0.5, &mut rng);
        let unf = Unfolding::new(&t, Mode::One);
        let parts = partition_unfolding(&unf, 1);
        let (mut ws, _) = WorkState::build(&parts[0], &a, &c, &b, 15);
        let (before, _) = ws.partition_error(&parts[0]);
        // Flip column 0 to all-ones and recompute.
        let all = BitVec::ones(dims[0]);
        ws.apply_column(0, &all);
        let mut a_mod = a.clone();
        for r in 0..dims[0] {
            a_mod.set(r, 0, true);
        }
        let expect = naive_range_error(&unf, &a_mod, &c, &b, 0, unf.ncols());
        let (after, _) = ws.partition_error(&parts[0]);
        assert_eq!(after, expect);
        // (`before` is almost surely different, but don't rely on chance.)
        let expect_before = naive_range_error(&unf, &a, &c, &b, 0, unf.ncols());
        assert_eq!(before, expect_before);
    }

    /// The incremental mask maintenance must agree with rebuilding the
    /// state from the modified factor, across multi-group layouts and
    /// repeated column applications.
    #[test]
    fn incremental_masks_match_rebuild() {
        let dims = [6, 5, 7];
        let t = random_tensor(dims, 0.3, 28);
        let mut rng = StdRng::seed_from_u64(29);
        let rank = 5;
        let a = BitMatrix::random(dims[0], rank, 0.5, &mut rng);
        let b = BitMatrix::random(dims[1], rank, 0.5, &mut rng);
        let c = BitMatrix::random(dims[2], rank, 0.5, &mut rng);
        let unf = Unfolding::new(&t, Mode::One);
        for v in [15usize, 2, 1] {
            let parts = partition_unfolding(&unf, 3);
            for p in &parts {
                let (mut ws, _) = WorkState::build(p, &a, &c, &b, v);
                let mut a_mod = a.clone();
                // Apply a pseudo-random column sequence to both copies.
                for (step, col) in [0usize, 3, 1, 4, 2, 0, 4].into_iter().enumerate() {
                    let mut vals = BitVec::zeros(dims[0]);
                    for r in 0..dims[0] {
                        let bit = (r + step + col) % 3 != 0;
                        vals.set(r, bit);
                        a_mod.set(r, col, bit);
                    }
                    ws.apply_column(col, &vals);
                }
                let (mut fresh, _) = WorkState::build(p, &a_mod, &c, &b, v);
                let (err_inc, ops_inc) = ws.partition_error(p);
                let (err_fresh, ops_fresh) = fresh.partition_error(p);
                assert_eq!(err_inc, err_fresh, "V = {v}, partition {}", p.index);
                assert_eq!(ops_inc, ops_fresh, "ops must not depend on history");
                for col in 0..rank {
                    let (e_inc, _) = ws.column_errors(p, col);
                    let (e_fresh, _) = fresh.column_errors(p, col);
                    assert_eq!(e_inc, e_fresh, "V = {v}, col {col}");
                }
            }
        }
    }

    /// A dense block must take the bitmap path and produce identical
    /// errors to the sparse probe path (exercised via a sparse tensor).
    #[test]
    fn dense_path_matches_sparse_semantics() {
        let dims = [4, 6, 5];
        // Density 0.9 ⇒ every block passes the nnz ≥ nrows × words
        // threshold (words = 1 at these widths).
        let t = random_tensor(dims, 0.9, 30);
        let mut rng = StdRng::seed_from_u64(31);
        let rank = 3;
        let a = BitMatrix::random(dims[0], rank, 0.5, &mut rng);
        let b = BitMatrix::random(dims[1], rank, 0.5, &mut rng);
        let c = BitMatrix::random(dims[2], rank, 0.5, &mut rng);
        let unf = Unfolding::new(&t, Mode::One);
        let parts = partition_unfolding(&unf, 2);
        let mut used_dense = false;
        for p in &parts {
            for block in &p.blocks {
                used_dense |= block.prefers_dense();
            }
            for v in [15usize, 2] {
                let (mut ws, _) = WorkState::build(p, &a, &c, &b, v);
                let (err, _) = ws.partition_error(p);
                let lo = p.col_lo;
                let hi = p.col_hi;
                assert_eq!(err, naive_range_error(&unf, &a, &c, &b, lo, hi));
            }
        }
        assert!(used_dense, "test tensor should trigger the dense path");
    }

    /// The hardware-popcount copies of the kernels must return the same
    /// errors and charge the same ops as the portable bodies, on dense,
    /// sparse and edge (sliced-cache) blocks, for one- and multi-group
    /// caches.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[test]
    fn popcnt_kernels_match_portable() {
        if !hardware_popcnt() {
            return;
        }
        let dims = [70, 6, 9];
        let rank = 5;
        let mut rng = StdRng::seed_from_u64(32);
        let a = BitMatrix::random(dims[0], rank, 0.5, &mut rng);
        let b = BitMatrix::random(dims[1], rank, 0.5, &mut rng);
        let c = BitMatrix::random(dims[2], rank, 0.5, &mut rng);
        let (mut dense, mut sparse, mut sliced) = (false, false, false);
        for (density, seed) in [(0.9, 33), (0.01, 34)] {
            let t = random_tensor(dims, density, seed);
            // Mode 3: S = 70 (two words per row); 4 × 105 columns ⇒ edge blocks.
            let unf = Unfolding::new(&t, Mode::Three);
            for p in &partition_unfolding(&unf, 4) {
                for block in &p.blocks {
                    dense |= block.prefers_dense();
                    sparse |= !block.prefers_dense();
                    sliced |= block.kind != BlockKind::Full;
                }
                for v in [15usize, 3, 2, 1] {
                    let (mut ws, _) = WorkState::build(p, &c, &b, &a, v);
                    for col in 0..rank {
                        let portable = ws.column_errors_portable(p, col);
                        // SAFETY: checked above that the CPU supports `popcnt`.
                        let fast = unsafe { ws.column_errors_popcnt(p, col) };
                        assert_eq!(portable, fast, "V = {v}, col {col}");
                        ws.apply_column(col, &c.column((col + 1) % rank));
                        let portable = ws.partition_error_portable(p);
                        // SAFETY: as above.
                        let fast = unsafe { ws.partition_error_popcnt(p) };
                        assert_eq!(portable, fast, "V = {v}, after col {col}");
                    }
                }
            }
        }
        assert!(
            dense && sparse && sliced,
            "every block kind must be covered"
        );
    }

    /// The dense bitmaps are built by the first update and reused by the
    /// next, while every build still charges and reports them.
    #[test]
    fn dense_bitmap_is_built_once_per_block() {
        let dims = [4, 6, 5];
        let t = random_tensor(dims, 0.9, 35);
        let mut rng = StdRng::seed_from_u64(36);
        let a = BitMatrix::random(dims[0], 3, 0.5, &mut rng);
        let b = BitMatrix::random(dims[1], 3, 0.5, &mut rng);
        let c = BitMatrix::random(dims[2], 3, 0.5, &mut rng);
        let part = partition_unfolding(&Unfolding::new(&t, Mode::One), 2).remove(0);
        let bitmaps = |p: &ModePartition| -> Vec<Option<*const u64>> {
            p.blocks
                .iter()
                .map(|b| b.dense.get().map(|d| d.data.as_ptr()))
                .collect()
        };
        assert!(bitmaps(&part).iter().all(Option::is_none));
        let (first, ops1) = WorkState::build(&part, &a, &c, &b, 15);
        let built = bitmaps(&part);
        assert!(built.iter().any(Option::is_some), "no dense block");
        let (second, ops2) = WorkState::build(&part, &a, &c, &b, 15);
        assert_eq!(bitmaps(&part), built, "the bitmaps must be reused");
        assert_eq!(ops1, ops2);
        assert_eq!(first.cache_bytes(), second.cache_bytes());
    }

    #[test]
    fn cache_bytes_reported() {
        let dims = [3, 4, 5];
        let t = random_tensor(dims, 0.3, 26);
        let mut rng = StdRng::seed_from_u64(27);
        let a = BitMatrix::random(dims[0], 2, 0.5, &mut rng);
        let b = BitMatrix::random(dims[1], 2, 0.5, &mut rng);
        let c = BitMatrix::random(dims[2], 2, 0.5, &mut rng);
        let unf = Unfolding::new(&t, Mode::One);
        // 3 partitions over 20 columns with S = 4 → edge blocks exist.
        let parts = partition_unfolding(&unf, 3);
        let (ws, ops) = WorkState::build(&parts[0], &a, &c, &b, 15);
        assert!(ws.cache_bytes() > 0);
        assert!(ops > 0);
    }
}
