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

use std::ops::Range;
use std::sync::OnceLock;

use dbtf_tensor::{BoolTensor, Mode, UnfoldingStore};

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
    let (col_lo, col_hi) = column_range(index, n_partitions, q);
    build_partition(unfolding, index, col_lo, col_hi, s, nrows)
}

/// The balanced column range `[p·Q/N, (p+1)·Q/N)` of partition `index`.
fn column_range(index: usize, n_partitions: usize, q: u64) -> (u64, u64) {
    let (n, p) = (n_partitions as u64, index as u64);
    (p * q / n, (p + 1) * q / n)
}

/// Cuts all `n_partitions` partitions of `tensor`'s mode-`mode` unfolding
/// straight from its entries, equal to [`partition_unfolding`] of
/// `Unfolding::new(tensor, mode)` without building that unfolding.
///
/// A [`BoolTensor`] keeps its entries sorted by `(i, j, k)` and
/// duplicate-free, so in every mode the entries of one (row, slab) pair
/// arrive with their inner offset rising: mode 1 has row `i`, slab `k` and
/// offset `j`; mode 2 has `j`, `k`, `i`; mode 3 has `k`, `j`, `i`. One pass
/// counts each (block, row) pair into the block's row offsets, one scatter
/// writes each entry's offset into its block's exactly-sized column array,
/// and every block comes out in its final order. No row is sorted, and
/// nothing is held beside the partitions' own arrays but one slab index.
///
/// # Panics
///
/// Panics if `n_partitions == 0` or a block holds more than `u32::MAX` ones.
pub(crate) fn partition_tensor(
    tensor: &BoolTensor,
    mode: Mode,
    n_partitions: usize,
) -> Vec<ModePartition> {
    assert!(n_partitions > 0, "need at least one partition");
    cut_tensor(tensor, mode, 0..n_partitions, n_partitions)
}

/// Cuts partition `index` of the `n_partitions`-way split alone — the
/// lineage-recompute form of [`partition_tensor`]: one pass over the
/// entries, holding only that partition's arrays.
///
/// # Panics
///
/// Panics if `index >= n_partitions`, or where [`partition_tensor`] does.
pub(crate) fn partition_tensor_one(
    tensor: &BoolTensor,
    mode: Mode,
    index: usize,
    n_partitions: usize,
) -> ModePartition {
    assert!(n_partitions > 0, "need at least one partition");
    assert!(index < n_partitions, "partition index out of range");
    cut_tensor(tensor, mode, index..index + 1, n_partitions)
        .pop()
        .expect("one partition")
}

/// Partitions `parts` of the `n`-way split, cut by [`cut_with`].
fn cut_tensor(
    tensor: &BoolTensor,
    mode: Mode,
    parts: Range<usize>,
    n: usize,
) -> Vec<ModePartition> {
    match mode {
        Mode::One => cut_with(tensor, mode, parts, n, |[i, j, k]| (i, k, j)),
        Mode::Two => cut_with(tensor, mode, parts, n, |[i, j, k]| (j, k, i)),
        Mode::Three => cut_with(tensor, mode, parts, n, |[i, j, k]| (k, j, i)),
    }
}

/// The counting cut of [`partition_tensor`], for the consecutive partitions
/// `parts`; `key` maps an entry to its (row, slab, inner offset).
fn cut_with(
    tensor: &BoolTensor,
    mode: Mode,
    parts: Range<usize>,
    n: usize,
    key: impl Fn([u32; 3]) -> (u32, u32, u32),
) -> Vec<ModePartition> {
    let dims = tensor.dims();
    let (q, nrows) = (mode.ncols(dims), mode.nrows(dims));
    let s = mode.slab_width(dims) as u64;
    let mut out: Vec<ModePartition> = parts
        .map(|index| {
            let (col_lo, col_hi) = column_range(index, n, q);
            ModePartition {
                index,
                col_lo,
                col_hi,
                slab_width: s as usize,
                nrows,
                blocks: empty_blocks(col_lo, col_hi, s, nrows),
            }
        })
        .collect();
    let (lo, hi) = (out[0].col_lo, out[out.len() - 1].col_hi);
    // Every block of the range in column order, each with its rows zeroed.
    let block_counts: Vec<usize> = out.iter().map(|p| p.blocks.len()).collect();
    let mut blocks: Vec<Block> = out
        .iter_mut()
        .flat_map(|p| std::mem::take(&mut p.blocks))
        .collect();
    for b in &mut blocks {
        b.row_offsets.resize(nrows + 1, 0);
    }
    // The blocks of slab `slab_lo + k` are `slab_first[k]..slab_first[k + 1]`
    // (they tile the range, so no slab is skipped), starting at `starts`.
    let slab_lo = blocks.first().map_or(0, |b| b.slab);
    let mut slab_first: Vec<usize> = (0..blocks.len())
        .filter(|&b| b == 0 || blocks[b - 1].slab != blocks[b].slab)
        .collect();
    slab_first.push(blocks.len());
    let starts: Vec<u32> = blocks.iter().map(|b| b.inner_lo).collect();
    let locate = |slab: u32, inner: u32| -> Option<usize> {
        let col = slab as u64 * s + inner as u64;
        if col < lo || col >= hi {
            return None;
        }
        let k = slab as usize - slab_lo;
        let (first, end) = (slab_first[k], slab_first[k + 1]);
        Some(first + starts[first + 1..end].partition_point(|&o| o <= inner))
    };

    // Count each (block, row) pair into `row_offsets[row + 1]`: a count is at
    // most `inner_len ≤ u32::MAX`, and the prefix sums are checked.
    for &e in tensor.entries() {
        let (row, slab, inner) = key(e);
        if let Some(b) = locate(slab, inner) {
            blocks[b].row_offsets[row as usize + 1] += 1;
        }
    }
    for b in &mut blocks {
        let mut total = 0u32;
        for offset in &mut b.row_offsets[1..] {
            total = total.checked_add(*offset).expect("block nnz exceeds u32");
            *offset = total;
        }
        b.cols = vec![0; total as usize];
    }
    // Scatter, using `row_offsets[row]` as the row's cursor: afterwards it
    // holds the row's end, and one shift restores the starts.
    for &e in tensor.entries() {
        let (row, slab, inner) = key(e);
        if let Some(b) = locate(slab, inner) {
            let block = &mut blocks[b];
            let at = &mut block.row_offsets[row as usize];
            block.cols[*at as usize] = inner - block.inner_lo;
            *at += 1;
        }
    }
    for b in &mut blocks {
        b.row_offsets.copy_within(..nrows, 1);
        b.row_offsets[0] = 0;
    }
    let mut blocks = blocks.into_iter();
    for (p, count) in out.iter_mut().zip(&block_counts) {
        p.blocks = blocks.by_ref().take(*count).collect();
    }
    out
}

/// The block geometry of the partition `[col_lo, col_hi)`: one empty
/// block per PVM slab the range touches, cut at the slab boundaries.
fn empty_blocks(col_lo: u64, col_hi: u64, s: u64, nrows: usize) -> Vec<Block> {
    let mut blocks = Vec::new();
    let mut lo = col_lo;
    while lo < col_hi {
        let slab = lo / s;
        let slab_start = slab * s;
        let slab_end = slab_start + s;
        let hi = col_hi.min(slab_end);
        let inner_lo = (lo - slab_start) as u32;
        let kind = match (inner_lo == 0, hi == slab_end) {
            (true, true) => BlockKind::Full,
            (true, false) => BlockKind::Prefix,
            (false, true) => BlockKind::Suffix,
            (false, false) => BlockKind::Interior,
        };
        let mut row_offsets = Vec::with_capacity(nrows + 1);
        row_offsets.push(0u32);
        blocks.push(Block {
            slab: slab as usize,
            inner_lo,
            inner_len: (hi - lo) as u32,
            kind,
            row_offsets,
            cols: Vec::new(),
            dense: OnceLock::new(),
        });
        lo = hi;
    }
    blocks
}

/// Fills the partition's blocks with one walk per row: each row's window
/// `[col_lo, col_hi)` is fetched once, then split at the block bounds by a
/// forward cursor — `O(window + blocks)` per row, with no search per
/// (row, block) pair. The cursors advance block by block, so each block's
/// arrays are written front to back.
fn build_partition<S: UnfoldingStore>(
    unfolding: &S,
    index: usize,
    col_lo: u64,
    col_hi: u64,
    s: u64,
    nrows: usize,
) -> ModePartition {
    let mut blocks = empty_blocks(col_lo, col_hi, s, nrows);
    let mut windows: Vec<&[u64]> = (0..nrows)
        .map(|r| unfolding.row_range(r, col_lo, col_hi))
        .collect();
    for b in &mut blocks {
        // The block's global column range `[lo, hi)`.
        let lo = b.slab as u64 * s + b.inner_lo as u64;
        let hi = lo + b.inner_len as u64;
        for window in &mut windows {
            let n = window.iter().position(|&c| c >= hi).unwrap_or(window.len());
            b.cols.extend(window[..n].iter().map(|&c| (c - lo) as u32));
            *window = &window[n..];
            b.row_offsets
                .push(u32::try_from(b.cols.len()).expect("block nnz exceeds u32"));
        }
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

/// The binary-search builder [`build_partition`] replaced, kept as the
/// reference it is checked against: block by block, one `row_range`
/// search pair per (row, block).
#[cfg(test)]
fn reference_partition<S: UnfoldingStore>(
    unfolding: &S,
    index: usize,
    n_partitions: usize,
) -> ModePartition {
    let q = unfolding.ncols();
    let s = unfolding.mode().slab_width(unfolding.tensor_dims()) as u64;
    let nrows = unfolding.nrows();
    let (n, p) = (n_partitions as u64, index as u64);
    let (col_lo, col_hi) = (p * q / n, (p + 1) * q / n);
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
mod reference_props {
    use super::*;
    use dbtf_tensor::{
        BoolTensor, DeltaCell, MmapUnfolding, Mode, OverlayUnfolding, TensorDelta, Unfolding,
    };
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::sync::atomic::{AtomicU64, Ordering};

    static FILE_SEQ: AtomicU64 = AtomicU64::new(0);

    fn cell(dims: [usize; 3]) -> impl Strategy<Value = [u32; 3]> {
        (0..dims[0] as u32, 0..dims[1] as u32, 0..dims[2] as u32).prop_map(|(i, j, k)| [i, j, k])
    }

    /// A tensor of random shape and density, a delta over it, and a
    /// partition count from 1 to past the widest unfolding's column count.
    fn case() -> impl Strategy<Value = (BoolTensor, Vec<DeltaCell>, usize)> {
        (1usize..=6, 1usize..=7, 1usize..=7).prop_flat_map(|(i, j, k)| {
            let dims = [i, j, k];
            let q = (j * k).max(i * k).max(i * j);
            (
                proptest::collection::vec(cell(dims), 0..=i * j * k)
                    .prop_map(move |entries| BoolTensor::from_entries(dims, entries)),
                proptest::collection::vec(
                    (cell(dims), proptest::bool::ANY)
                        .prop_map(|(coord, set)| DeltaCell { coord, set }),
                    0..=6,
                ),
                1usize..=q + 3,
            )
        })
    }

    /// Every partition of `store`, built all at once and one at a time,
    /// equals the reference builder's.
    fn matches_reference<S: UnfoldingStore>(
        store: &S,
        n: usize,
        label: &str,
    ) -> Result<(), TestCaseError> {
        let all = partition_unfolding(store, n);
        prop_assert_eq!(all.len(), n);
        for (idx, part) in all.iter().enumerate() {
            let want = reference_partition(store, idx, n);
            prop_assert_eq!(part, &want, "{} partition {} of {}", label, idx, n);
            let one = partition_unfolding_one(store, idx, n);
            prop_assert_eq!(&one, &want, "{} single partition {} of {}", label, idx, n);
        }
        Ok(())
    }

    /// The counting cut of `t`, all at once and one partition at a time,
    /// equals the reference builder's partitions of `store`.
    fn cut_matches_reference<S: UnfoldingStore>(
        t: &BoolTensor,
        mode: Mode,
        store: &S,
        n: usize,
        label: &str,
    ) -> Result<(), TestCaseError> {
        let all = partition_tensor(t, mode, n);
        prop_assert_eq!(all.len(), n);
        for (idx, part) in all.iter().enumerate() {
            let want = reference_partition(store, idx, n);
            prop_assert_eq!(part, &want, "{} partition {} of {}", label, idx, n);
            let one = partition_tensor_one(t, mode, idx, n);
            prop_assert_eq!(&one, &want, "{} single partition {} of {}", label, idx, n);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The one-walk builder equals the binary-search reference on heap,
        /// mmap and overlay stores, in every mode, for every N; so does the
        /// counting cut of the tensor, and of the updated tensor against
        /// the overlay.
        #[test]
        fn one_walk_builder_equals_the_reference((t, edits, n) in case()) {
            let delta = TensorDelta::new(t.dims(), edits).unwrap();
            let updated = delta.apply(&t);
            let seq = FILE_SEQ.fetch_add(1, Ordering::Relaxed);
            for mode in Mode::ALL {
                let heap = Unfolding::new(&t, mode);
                let path = std::env::temp_dir().join(format!(
                    "dbtf-partition-prop-{}-{seq}-{}.unf",
                    std::process::id(),
                    mode.index()
                ));
                MmapUnfolding::write_from_store(&heap, &path).unwrap();
                let mmap = MmapUnfolding::open(&path).unwrap();
                let checked = matches_reference(&heap, n, "heap")
                    .and_then(|()| matches_reference(&mmap, n, "mmap"))
                    .and_then(|()| {
                        matches_reference(&OverlayUnfolding::new(&heap, &delta), n, "overlay")
                    })
                    .and_then(|()| {
                        matches_reference(&OverlayUnfolding::new(&mmap, &delta), n, "mmap overlay")
                    })
                    .and_then(|()| cut_matches_reference(&t, mode, &heap, n, "tensor cut"))
                    .and_then(|()| {
                        let overlay = OverlayUnfolding::new(&heap, &delta);
                        cut_matches_reference(&updated, mode, &overlay, n, "updated tensor cut")
                    });
                drop(mmap);
                let _ = std::fs::remove_file(&path);
                checked?;
            }
        }
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
