//! Vertical partitioning of unfolded tensors with PVM-boundary blocks
//! (paper Section III-D, Algorithm 3, Figure 5).
//!
//! Each unfolded tensor `X_(n)` is split into `N` vertical partitions of
//! near-equal column ranges. Within a partition, the columns are further
//! divided into *blocks* at the boundaries of the underlying pointwise
//! vector-matrix (PVM) products `(m_{k:} ⊛ M_s)ᵀ` — the paper's *slabs* of
//! width `S`. Blocks are the unit at which the cached row summations are
//! fetched: a full-slab block reads the full-size cache directly, while the
//! at-most-two edge blocks of a partition use vertically sliced caches.

use std::sync::OnceLock;

use dbtf_tensor::UnfoldingStore;

/// The block types of the paper's Figure 5, keyed by how a block sits
/// inside its PVM slab.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// Type (1): a strict interior range of one slab (the partition starts
    /// and ends inside the same slab).
    Interior,
    /// Type (2): a suffix of a slab (starts inside, runs to the slab end).
    Suffix,
    /// Type (3): a full slab.
    Full,
    /// Type (4): a prefix of a slab (starts at the slab start, ends inside).
    Prefix,
}

/// One block of a partition: a contiguous column range within a single PVM
/// slab, with the partition's rows of the unfolded tensor restricted to it.
///
/// Row data is stored CSR-style (one offsets array plus one concatenated
/// column array) rather than as per-row `Vec`s: at NELL-like shapes a
/// partition holds hundreds of blocks over tens of thousands of rows, and
/// 24-byte `Vec` headers per (row, block) pair would dwarf the data.
///
/// A block dense enough for the bitmap intersection path also carries a
/// dense copy of its rows, built the first time a factor update needs it
/// and kept for the life of the block. It is derived data: never shipped on
/// the wire and ignored by equality.
#[derive(Clone, Debug)]
pub struct Block {
    /// Index `k` of the PVM slab this block lies in (a row of `M_f`).
    pub slab: usize,
    /// First column of the block, as an offset inside the slab (`0..S`).
    pub inner_lo: u32,
    /// Width of the block (`1..=S`).
    pub inner_len: u32,
    /// Figure 5 block type.
    pub kind: BlockKind,
    /// CSR row offsets (`row_offsets.len() = nrows + 1`).
    pub(crate) row_offsets: Vec<u32>,
    /// Concatenated sorted column offsets (relative to `inner_lo`).
    pub(crate) cols: Vec<u32>,
    /// The dense bitmap of the rows, built on first use.
    pub(crate) dense: OnceLock<DenseRows>,
}

impl PartialEq for Block {
    /// Compares the block's data; the derived bitmap is not part of it.
    fn eq(&self, other: &Self) -> bool {
        self.slab == other.slab
            && self.inner_lo == other.inner_lo
            && self.inner_len == other.inner_len
            && self.kind == other.kind
            && self.row_offsets == other.row_offsets
            && self.cols == other.cols
    }
}

impl Eq for Block {}

/// A dense row-major bitmap of one block's rows, for blocks dense enough
/// that word-wise AND + popcount beats per-nonzero probing.
#[derive(Clone, Debug)]
pub(crate) struct DenseRows {
    /// Words per row (`inner_len.div_ceil(64)`).
    words: usize,
    /// `nrows × words` bitmap; bit `c` of row `r` ⇔ block one at `(r, c)`.
    pub(crate) data: Vec<u64>,
}

impl DenseRows {
    /// The bitmap words of row `r`.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &[u64] {
        &self.data[r * self.words..(r + 1) * self.words]
    }

    /// Heap bytes held.
    pub(crate) fn byte_size(&self) -> u64 {
        self.data.len() as u64 * 8
    }
}

impl Block {
    /// The sorted one-offsets (relative to `inner_lo`) of unfolding row
    /// `r` within this block.
    #[inline]
    pub fn row(&self, r: usize) -> &[u32] {
        &self.cols[self.row_offsets[r] as usize..self.row_offsets[r + 1] as usize]
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Number of ones stored in this block.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Whether the block should intersect via its dense bitmap: per-row
    /// probing costs `O(nnz)` over the block, the dense path
    /// `O(nrows × words)`, so the bitmap wins once the ones outnumber the
    /// words. A pure function of the block, so virtual-time ops never
    /// depend on the execution schedule.
    pub(crate) fn prefers_dense(&self) -> bool {
        self.nnz() >= self.nrows() * (self.inner_len as usize).div_ceil(64)
    }

    /// The block's dense bitmap, built from the CSR rows on the first call
    /// and kept for the life of the block.
    pub(crate) fn dense_rows(&self) -> &DenseRows {
        self.dense.get_or_init(|| {
            let words = (self.inner_len as usize).div_ceil(64);
            let mut data = vec![0u64; self.nrows() * words];
            for (r, row) in data.chunks_exact_mut(words).enumerate() {
                for &o in self.row(r) {
                    row[(o / 64) as usize] |= 1u64 << (o % 64);
                }
            }
            DenseRows { words, data }
        })
    }
}

/// One vertical partition of an unfolded tensor (Algorithm 3's `p_i`),
/// split into blocks and ready to be shipped to a worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModePartition {
    /// Partition index (`0..N`).
    pub index: usize,
    /// Global column range `[col_lo, col_hi)` of the unfolding.
    pub col_lo: u64,
    /// End of the global column range (exclusive).
    pub col_hi: u64,
    /// PVM slab width `S` (the row count of `M_s`).
    pub slab_width: usize,
    /// Row count `P` of the unfolding (the factor matrix height).
    pub nrows: usize,
    /// The partition's blocks, in column order.
    pub blocks: Vec<Block>,
}

/// Read access to a partition's geometry and blocks — the only surface the
/// [`WorkState`](crate::update::WorkState) hot kernels touch.
///
/// Kernels are generic over this trait with static dispatch, so they
/// monomorphize to exactly the pre-refactor code for [`ModePartition`]
/// (proven flat by the `factor_update` criterion bench) while admitting
/// alternative block containers (e.g. store-backed or borrowed views)
/// without another kernel rewrite.
pub trait PartitionData {
    /// Row count `P` of the unfolding.
    fn nrows(&self) -> usize;
    /// PVM slab width `S`.
    fn slab_width(&self) -> usize;
    /// The partition's blocks, in column order.
    fn blocks(&self) -> &[Block];
}

impl PartitionData for ModePartition {
    #[inline]
    fn nrows(&self) -> usize {
        self.nrows
    }

    #[inline]
    fn slab_width(&self) -> usize {
        self.slab_width
    }

    #[inline]
    fn blocks(&self) -> &[Block] {
        &self.blocks
    }
}

impl ModePartition {
    /// Number of ones stored in this partition.
    pub fn nnz(&self) -> usize {
        self.blocks.iter().map(Block::nnz).sum()
    }

    /// Wire size in bytes, used to meter the shuffle (Lemma 6) and worker
    /// memory (Lemma 5): each non-zero ships as a (row, column) pair; the
    /// CSR block structure is rebuilt worker-side (Algorithm 3 line 4) and
    /// adds only per-block headers.
    pub fn byte_size(&self) -> u64 {
        64 + self.nnz() as u64 * 12 + self.blocks.len() as u64 * 16
    }
}

/// Splits the unfolding into `n_partitions` vertical partitions with
/// PVM-boundary blocks (Algorithm 3).
///
/// Column ranges are the balanced split `[p·Q/N, (p+1)·Q/N)`, satisfying
/// the algorithm's `⌊Q/N⌋ ≤ H ≤ ⌈Q/N⌉`. Partitions with an empty column
/// range (possible only when `N > Q`) carry no blocks.
///
/// Generic over [`UnfoldingStore`] (static dispatch): the heap `Unfolding`
/// and the on-disk `MmapUnfolding` yield bit-identical partitions, because
/// everything here flows through the store's `row_range` contract.
///
/// # Panics
///
/// Panics if `n_partitions == 0`.
pub fn partition_unfolding<S: UnfoldingStore>(
    unfolding: &S,
    n_partitions: usize,
) -> Vec<ModePartition> {
    assert!(n_partitions > 0, "need at least one partition");
    (0..n_partitions)
        .map(|p| partition_unfolding_one(unfolding, p, n_partitions))
        .collect()
}

/// Builds just partition `index` of the `n_partitions`-way split — the
/// lineage-recompute entry point: re-opening an unfolding store and
/// re-slicing one lost partition costs `O(partition)` instead of
/// rebuilding the whole split.
///
/// # Panics
///
/// Panics if `index >= n_partitions` or `n_partitions == 0`.
pub fn partition_unfolding_one<S: UnfoldingStore>(
    unfolding: &S,
    index: usize,
    n_partitions: usize,
) -> ModePartition {
    assert!(n_partitions > 0, "need at least one partition");
    assert!(index < n_partitions, "partition index out of range");
    let q = unfolding.ncols();
    let s = unfolding.mode().slab_width(unfolding.tensor_dims()) as u64;
    let nrows = unfolding.nrows();
    let n = n_partitions as u64;
    let p = index as u64;
    let col_lo = p * q / n;
    let col_hi = (p + 1) * q / n;
    build_partition(unfolding, index, col_lo, col_hi, s, nrows)
}

fn build_partition<S: UnfoldingStore>(
    unfolding: &S,
    index: usize,
    col_lo: u64,
    col_hi: u64,
    s: u64,
    nrows: usize,
) -> ModePartition {
    let mut blocks = Vec::new();
    let mut lo = col_lo;
    while lo < col_hi {
        let slab = lo / s;
        let slab_start = slab * s;
        let slab_end = slab_start + s;
        let hi = col_hi.min(slab_end);
        let inner_lo = (lo - slab_start) as u32;
        let inner_len = (hi - lo) as u32;
        let kind = match (inner_lo == 0, hi == slab_end) {
            (true, true) => BlockKind::Full,
            (true, false) => BlockKind::Prefix,
            (false, true) => BlockKind::Suffix,
            (false, false) => BlockKind::Interior,
        };
        let mut row_offsets = Vec::with_capacity(nrows + 1);
        let mut cols = Vec::new();
        row_offsets.push(0u32);
        for r in 0..nrows {
            for &c in unfolding.row_range(r, lo, hi) {
                cols.push((c - slab_start) as u32 - inner_lo);
            }
            row_offsets.push(u32::try_from(cols.len()).expect("block nnz exceeds u32"));
        }
        blocks.push(Block {
            slab: slab as usize,
            inner_lo,
            inner_len,
            kind,
            row_offsets,
            cols,
            dense: OnceLock::new(),
        });
        lo = hi;
    }
    ModePartition {
        index,
        col_lo,
        col_hi,
        slab_width: s as usize,
        nrows,
        blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn partitions_tile_columns() {
        let t = random_tensor([6, 7, 5], 0.2, 1);
        for mode in Mode::ALL {
            let u = Unfolding::new(&t, mode);
            for n in [1, 2, 3, 7, 50] {
                let parts = partition_unfolding(&u, n);
                assert_eq!(parts.len(), n);
                let mut expect_lo = 0u64;
                for p in &parts {
                    assert_eq!(p.col_lo, expect_lo);
                    assert!(p.col_hi >= p.col_lo);
                    expect_lo = p.col_hi;
                }
                assert_eq!(expect_lo, u.ncols());
            }
        }
    }

    #[test]
    fn partition_widths_balanced() {
        // Algorithm 3: ⌊Q/N⌋ ≤ H ≤ ⌈Q/N⌉.
        let t = random_tensor([5, 9, 11], 0.15, 2);
        let u = Unfolding::new(&t, Mode::One);
        let q = u.ncols();
        for n in [2usize, 3, 4, 10] {
            for p in partition_unfolding(&u, n) {
                let h = p.col_hi - p.col_lo;
                assert!(h >= q / n as u64 && h <= q.div_ceil(n as u64), "H = {h}");
            }
        }
    }

    #[test]
    fn blocks_tile_partition_at_slab_boundaries() {
        let t = random_tensor([4, 6, 8], 0.25, 3);
        for mode in Mode::ALL {
            let u = Unfolding::new(&t, mode);
            let s = mode.slab_width(t.dims()) as u64;
            for n in [1, 3, 5, 13] {
                for p in partition_unfolding(&u, n) {
                    let mut pos = p.col_lo;
                    for b in &p.blocks {
                        let global_lo = b.slab as u64 * s + b.inner_lo as u64;
                        assert_eq!(global_lo, pos, "blocks must be contiguous");
                        assert!(b.inner_len >= 1);
                        assert!(b.inner_lo as u64 + b.inner_len as u64 <= s);
                        // A block never crosses a slab boundary.
                        pos = global_lo + b.inner_len as u64;
                    }
                    assert_eq!(pos, p.col_hi);
                }
            }
        }
    }

    #[test]
    fn block_kinds_match_geometry() {
        let t = random_tensor([3, 4, 6], 0.3, 4);
        let u = Unfolding::new(&t, Mode::One);
        let s = Mode::One.slab_width(t.dims()) as u64;
        for n in [1, 2, 3, 5, 8, 24] {
            for p in partition_unfolding(&u, n) {
                for b in &p.blocks {
                    let starts_at_slab = b.inner_lo == 0;
                    let ends_at_slab = b.inner_lo as u64 + b.inner_len as u64 == s;
                    let expect = match (starts_at_slab, ends_at_slab) {
                        (true, true) => BlockKind::Full,
                        (true, false) => BlockKind::Prefix,
                        (false, true) => BlockKind::Suffix,
                        (false, false) => BlockKind::Interior,
                    };
                    assert_eq!(b.kind, expect);
                }
            }
        }
    }

    #[test]
    fn lemma3_at_most_three_block_types() {
        // Lemma 3: a partition has at most three types of blocks, with the
        // legal compositions (1) | (2) | (4) | (2)(4) | (2)(3)*(4) |
        // (3)+(4)? | (2)?(3)+.
        let t = random_tensor([4, 5, 7], 0.2, 5);
        for mode in Mode::ALL {
            let u = Unfolding::new(&t, mode);
            for n in [1, 2, 3, 4, 6, 11, 35] {
                for p in partition_unfolding(&u, n) {
                    let kinds: Vec<BlockKind> = p.blocks.iter().map(|b| b.kind).collect();
                    let distinct: std::collections::HashSet<_> = kinds.iter().collect();
                    assert!(distinct.len() <= 3, "partition with kinds {kinds:?}");
                    // Interior blocks only appear alone.
                    if kinds.contains(&BlockKind::Interior) {
                        assert_eq!(kinds.len(), 1);
                    }
                    // At most one Suffix (it must come first) and one
                    // Prefix (it must come last).
                    let suffixes = kinds.iter().filter(|&&k| k == BlockKind::Suffix).count();
                    let prefixes = kinds.iter().filter(|&&k| k == BlockKind::Prefix).count();
                    assert!(suffixes <= 1 && prefixes <= 1);
                    if suffixes == 1 {
                        assert_eq!(kinds[0], BlockKind::Suffix);
                    }
                    if prefixes == 1 {
                        assert_eq!(*kinds.last().unwrap(), BlockKind::Prefix);
                    }
                }
            }
        }
    }

    #[test]
    fn partitioning_preserves_every_one() {
        let t = random_tensor([5, 6, 4], 0.3, 6);
        for mode in Mode::ALL {
            let u = Unfolding::new(&t, mode);
            let s = mode.slab_width(t.dims()) as u64;
            for n in [1, 3, 9] {
                let parts = partition_unfolding(&u, n);
                let total: usize = parts.iter().map(ModePartition::nnz).sum();
                assert_eq!(total, u.nnz());
                // Rebuild the full set of (row, col) pairs from blocks.
                let mut rebuilt: Vec<(usize, u64)> = Vec::new();
                for p in &parts {
                    for b in &p.blocks {
                        for r in 0..u.nrows() {
                            for &o in b.row(r) {
                                let col = b.slab as u64 * s + b.inner_lo as u64 + o as u64;
                                rebuilt.push((r, col));
                            }
                        }
                    }
                }
                rebuilt.sort_unstable();
                let mut expect: Vec<(usize, u64)> = Vec::new();
                for r in 0..u.nrows() {
                    for &c in u.row(r) {
                        expect.push((r, c));
                    }
                }
                expect.sort_unstable();
                assert_eq!(rebuilt, expect, "mode {mode:?}, N = {n}");
            }
        }
    }

    #[test]
    fn more_partitions_than_columns() {
        let t = random_tensor([2, 2, 2], 0.5, 7);
        let u = Unfolding::new(&t, Mode::One);
        let parts = partition_unfolding(&u, 10);
        assert_eq!(parts.len(), 10);
        let nonempty: usize = parts.iter().filter(|p| p.col_hi > p.col_lo).count();
        assert_eq!(nonempty, u.ncols() as usize);
        let total: usize = parts.iter().map(ModePartition::nnz).sum();
        assert_eq!(total, u.nnz());
    }

    #[test]
    fn mmap_store_yields_bit_identical_partitions() {
        use dbtf_tensor::MmapUnfolding;
        let t = random_tensor([6, 7, 5], 0.25, 11);
        let dir = std::env::temp_dir().join(format!("dbtf-partition-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for mode in Mode::ALL {
            let u = Unfolding::new(&t, mode);
            let path = dir.join(format!("m{}.unf", mode.index()));
            MmapUnfolding::write_from_store(&u, &path).unwrap();
            let m = MmapUnfolding::open(&path).unwrap();
            for n in [1, 2, 3, 7] {
                let from_heap = partition_unfolding(&u, n);
                let from_mmap = partition_unfolding(&m, n);
                assert_eq!(from_heap, from_mmap, "mode {mode:?}, N = {n}");
                for (idx, expect) in from_heap.iter().enumerate() {
                    assert_eq!(
                        &partition_unfolding_one(&m, idx, n),
                        expect,
                        "single-partition rebuild, mode {mode:?}, N = {n}, idx = {idx}"
                    );
                }
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    /// The dense bitmap is derived data: a partition whose bitmaps were
    /// built equals a freshly built one, and a clone keeps them.
    #[test]
    fn equality_ignores_the_dense_bitmap() {
        let t = random_tensor([5, 6, 4], 0.9, 9);
        let u = Unfolding::new(&t, Mode::Two);
        let used = partition_unfolding(&u, 2);
        for p in &used {
            for b in &p.blocks {
                let bitmap = b.dense_rows();
                for r in 0..b.nrows() {
                    let ones: usize = bitmap.row(r).iter().map(|w| w.count_ones() as usize).sum();
                    assert_eq!(ones, b.row(r).len());
                }
            }
        }
        assert_eq!(used, partition_unfolding(&u, 2));
        assert!(used[0]
            .clone()
            .blocks
            .iter()
            .all(|b| b.dense.get().is_some()));
    }

    #[test]
    fn byte_size_grows_with_nnz() {
        let sparse = random_tensor([8, 8, 8], 0.05, 8);
        let dense = random_tensor([8, 8, 8], 0.5, 8);
        let pu_sparse = partition_unfolding(&Unfolding::new(&sparse, Mode::One), 2);
        let pu_dense = partition_unfolding(&Unfolding::new(&dense, Mode::One), 2);
        let total = |ps: &[ModePartition]| ps.iter().map(|p| p.byte_size()).sum::<u64>();
        assert!(total(&pu_dense) > total(&pu_sparse));
    }
}
