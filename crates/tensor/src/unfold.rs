//! Mode-n matricization (unfolding) of three-way tensors.

use crate::BoolTensor;

/// One of the three modes of a three-way tensor.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Mode {
    /// Mode 1: rows of `X_(1)` are indexed by `i`; columns by `j + k·J`.
    One,
    /// Mode 2: rows of `X_(2)` are indexed by `j`; columns by `i + k·I`.
    Two,
    /// Mode 3: rows of `X_(3)` are indexed by `k`; columns by `i + j·I`.
    Three,
}

impl Mode {
    /// All three modes, in update order (A, then B, then C).
    pub const ALL: [Mode; 3] = [Mode::One, Mode::Two, Mode::Three];

    /// The 0-based mode number (0, 1 or 2).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Mode::One => 0,
            Mode::Two => 1,
            Mode::Three => 2,
        }
    }

    /// Maps a tensor coordinate to its `(row, column)` in this unfolding
    /// (the 0-based form of the paper's Equation 1).
    #[inline]
    pub fn matricize(self, dims: [usize; 3], e: [u32; 3]) -> (u32, u64) {
        let [i, j, k] = [e[0] as u64, e[1] as u64, e[2] as u64];
        let [di, dj, _dk] = [dims[0] as u64, dims[1] as u64, dims[2] as u64];
        match self {
            Mode::One => (e[0], j + k * dj),
            Mode::Two => (e[1], i + k * di),
            Mode::Three => (e[2], i + j * di),
        }
    }

    /// Inverse of [`Mode::matricize`]: reconstructs `(i, j, k)` from a
    /// `(row, column)` position in this unfolding.
    #[inline]
    pub fn dematricize(self, dims: [usize; 3], row: u32, col: u64) -> [u32; 3] {
        let [di, dj, _dk] = [dims[0] as u64, dims[1] as u64, dims[2] as u64];
        match self {
            Mode::One => [row, (col % dj) as u32, (col / dj) as u32],
            Mode::Two => [(col % di) as u32, row, (col / di) as u32],
            Mode::Three => [(col % di) as u32, (col / di) as u32, row],
        }
    }

    /// Row count of this unfolding for a tensor of shape `dims`.
    #[inline]
    pub fn nrows(self, dims: [usize; 3]) -> usize {
        dims[self.index()]
    }

    /// Column count of this unfolding for a tensor of shape `dims`.
    ///
    /// Equals the product of the other two mode sizes. For mode *n*, the
    /// columns are grouped into contiguous *slabs* of width
    /// [`Mode::slab_width`]; slab `k` of `X_(1)` holds the mode-3 slice `k`
    /// (the paper's pointwise vector-matrix product `(c_k: ⊛ B)ᵀ` spans
    /// exactly one slab).
    #[inline]
    pub fn ncols(self, dims: [usize; 3]) -> u64 {
        let [di, dj, dk] = [dims[0] as u64, dims[1] as u64, dims[2] as u64];
        match self {
            Mode::One => dj * dk,
            Mode::Two => di * dk,
            Mode::Three => di * dj,
        }
    }

    /// Width of one column slab: the size of the *inner* (faster-varying)
    /// mode in this unfolding's column index.
    ///
    /// `X_(1)`: J (columns `j + k·J`), `X_(2)`: I, `X_(3)`: I. In the DBTF
    /// factor update for mode *n*, the slab width is the row count of the
    /// second Khatri-Rao operand `M_s` — the unit of caching.
    #[inline]
    pub fn slab_width(self, dims: [usize; 3]) -> usize {
        match self {
            Mode::One => dims[1],
            Mode::Two => dims[0],
            Mode::Three => dims[0],
        }
    }

    /// Number of column slabs: the size of the *outer* mode (the row count
    /// of the first Khatri-Rao operand `M_f`).
    #[inline]
    pub fn slab_count(self, dims: [usize; 3]) -> usize {
        match self {
            Mode::One => dims[2],
            Mode::Two => dims[2],
            Mode::Three => dims[1],
        }
    }
}

/// The sparse mode-n matricization `X_(n)` of a [`BoolTensor`].
///
/// Stored as one sorted column-index list (`u64`) per row — the layout DBTF
/// partitions vertically and scores error against. Column counts can exceed
/// `u32` (`J·K` for large tensors), hence `u64` indices.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Unfolding {
    mode: Mode,
    dims: [usize; 3],
    nrows: usize,
    ncols: u64,
    rows: Vec<Vec<u64>>,
}

impl Unfolding {
    /// Matricizes `tensor` along `mode` (Equation 1 of the paper).
    ///
    /// Runs in `O(|X|)` plus the per-row sorts (input entries are already
    /// in lexicographic order, so mode-1 rows come out sorted for free;
    /// other modes pay `O(|X| log |X|)` in the worst case).
    pub fn new(tensor: &BoolTensor, mode: Mode) -> Self {
        let dims = tensor.dims();
        let nrows = mode.nrows(dims);
        let ncols = mode.ncols(dims);
        let mut rows: Vec<Vec<u64>> = vec![Vec::new(); nrows];
        for e in tensor.iter() {
            let (r, c) = mode.matricize(dims, e);
            rows[r as usize].push(c);
        }
        for row in &mut rows {
            row.sort_unstable();
            row.dedup();
        }
        Unfolding {
            mode,
            dims,
            nrows,
            ncols,
            rows,
        }
    }

    /// The mode this unfolding was taken along.
    #[inline]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The shape of the original tensor.
    #[inline]
    pub fn tensor_dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Number of rows (`P` in Algorithm 4).
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns (`Q·S` in Algorithm 4).
    #[inline]
    pub fn ncols(&self) -> u64 {
        self.ncols
    }

    /// Total number of ones (equals `|X|`).
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// The sorted one-column indices of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[u64] {
        &self.rows[r]
    }

    /// The one-column indices of row `r` that fall in `[lo, hi)`, found by
    /// binary search (`O(log nnz_row + output)`). Empty when `lo >= hi`.
    pub fn row_range(&self, r: usize, lo: u64, hi: u64) -> &[u64] {
        let row = &self.rows[r];
        let a = row.partition_point(|&c| c < lo);
        let b = row.partition_point(|&c| c < hi);
        &row[a..b.max(a)]
    }

    /// Tests whether the unfolded matrix has a one at `(r, c)`.
    pub fn get(&self, r: usize, c: u64) -> bool {
        self.rows[r].binary_search(&c).is_ok()
    }

    /// Folds the matricization back into a tensor (exact inverse of
    /// [`Unfolding::new`]).
    pub fn refold(&self) -> BoolTensor {
        let mut entries = Vec::with_capacity(self.nnz());
        for (r, row) in self.rows.iter().enumerate() {
            for &c in row {
                entries.push(self.mode.dematricize(self.dims, r as u32, c));
            }
        }
        BoolTensor::from_entries(self.dims, entries)
    }
}

/// Exhaustively checks the [`UnfoldingStore`](crate::UnfoldingStore)
/// `row`/`row_range` contract for one store against a naive filter, probing
/// every window whose endpoints sit on or around 64-bit word boundaries, on
/// actual entries ± 1, at the extremes, and in degenerate (`lo >= hi`)
/// positions. Shared by the heap and mmap store tests so both
/// implementations pin the same contract.
#[cfg(test)]
pub(crate) fn row_range_contract_check<S: crate::UnfoldingStore>(s: &S, label: &str) {
    let ncols = s.ncols();
    let mut total = 0u64;
    for r in 0..s.nrows() {
        let row = s.row(r).to_vec();
        total += row.len() as u64;
        assert!(
            row.windows(2).all(|w| w[0] < w[1]),
            "{label}: row {r} is not strictly increasing"
        );
        assert!(
            row.iter().all(|&c| c < ncols),
            "{label}: row {r} has a column out of range"
        );
        // Full row and empty windows.
        assert_eq!(s.row_range(r, 0, ncols), &row[..], "{label}: full row {r}");
        assert!(s.row_range(r, 0, 0).is_empty(), "{label}: empty lo=hi=0");
        assert!(
            s.row_range(r, ncols, ncols).is_empty(),
            "{label}: empty at ncols"
        );
        // Probe points: word edges, entries ± 1, extremes.
        let mut probes: Vec<u64> = vec![0, 1, 63, 64, 65, 126, 127, 128, 129];
        probes.push(ncols.saturating_sub(1));
        probes.push(ncols);
        for &c in &row {
            probes.push(c.saturating_sub(1));
            probes.push(c);
            probes.push(c + 1);
        }
        probes.retain(|&x| x <= ncols);
        probes.sort_unstable();
        probes.dedup();
        for &lo in &probes {
            for &hi in &probes {
                let got = s.row_range(r, lo, hi);
                if lo >= hi {
                    assert!(
                        got.is_empty(),
                        "{label}: row {r} window [{lo}, {hi}) must be empty"
                    );
                    continue;
                }
                let want: Vec<u64> = row.iter().copied().filter(|&c| c >= lo && c < hi).collect();
                assert_eq!(got, &want[..], "{label}: row {r} window [{lo}, {hi})");
                for &c in got {
                    assert!(s.get(r, c), "{label}: get({r}, {c}) disagrees with row");
                }
            }
        }
    }
    assert_eq!(
        s.nnz(),
        total,
        "{label}: nnz must equal the sum of row lengths"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BoolTensor {
        // 2 × 3 × 4 tensor with a handful of ones.
        BoolTensor::from_entries(
            [2, 3, 4],
            vec![[0, 0, 0], [1, 2, 3], [0, 1, 2], [1, 0, 0], [0, 2, 1]],
        )
    }

    #[test]
    fn matricize_mode1_index_map() {
        // x_{ijk} → [X_(1)]_{i, j + k·J}, J = 3.
        let dims = [2, 3, 4];
        assert_eq!(Mode::One.matricize(dims, [0, 0, 0]), (0, 0));
        assert_eq!(Mode::One.matricize(dims, [1, 2, 3]), (1, 2 + 3 * 3));
        assert_eq!(Mode::One.matricize(dims, [0, 1, 2]), (0, 1 + 2 * 3));
    }

    #[test]
    fn matricize_mode2_index_map() {
        // x_{ijk} → [X_(2)]_{j, i + k·I}, I = 2.
        let dims = [2, 3, 4];
        assert_eq!(Mode::Two.matricize(dims, [1, 2, 3]), (2, 1 + 3 * 2));
        assert_eq!(Mode::Two.matricize(dims, [0, 1, 2]), (1, (2 * 2)));
    }

    #[test]
    fn matricize_mode3_index_map() {
        // x_{ijk} → [X_(3)]_{k, i + j·I}, I = 2.
        let dims = [2, 3, 4];
        assert_eq!(Mode::Three.matricize(dims, [1, 2, 3]), (3, 1 + 2 * 2));
        assert_eq!(Mode::Three.matricize(dims, [0, 0, 0]), (0, 0));
    }

    #[test]
    fn dematricize_inverts_matricize() {
        let dims = [5, 7, 9];
        for mode in Mode::ALL {
            for e in [[0u32, 0, 0], [4, 6, 8], [2, 3, 4], [1, 0, 8]] {
                let (r, c) = mode.matricize(dims, e);
                assert_eq!(mode.dematricize(dims, r, c), e, "mode {mode:?}");
            }
        }
    }

    #[test]
    fn shapes() {
        let dims = [2, 3, 4];
        assert_eq!(Mode::One.nrows(dims), 2);
        assert_eq!(Mode::One.ncols(dims), 12);
        assert_eq!(Mode::Two.nrows(dims), 3);
        assert_eq!(Mode::Two.ncols(dims), 8);
        assert_eq!(Mode::Three.nrows(dims), 4);
        assert_eq!(Mode::Three.ncols(dims), 6);
    }

    #[test]
    fn slabs() {
        let dims = [2, 3, 4];
        for mode in Mode::ALL {
            assert_eq!(
                mode.slab_width(dims) as u64 * mode.slab_count(dims) as u64,
                mode.ncols(dims),
                "slabs must tile the columns for {mode:?}"
            );
        }
        assert_eq!(Mode::One.slab_width(dims), 3); // J
        assert_eq!(Mode::One.slab_count(dims), 4); // K
        assert_eq!(Mode::Two.slab_width(dims), 2); // I
        assert_eq!(Mode::Three.slab_width(dims), 2); // I
        assert_eq!(Mode::Three.slab_count(dims), 3); // J
    }

    #[test]
    fn unfold_preserves_nnz_and_refolds() {
        let t = sample();
        for mode in Mode::ALL {
            let u = Unfolding::new(&t, mode);
            assert_eq!(u.nnz(), t.nnz(), "mode {mode:?}");
            assert_eq!(u.refold(), t, "mode {mode:?}");
        }
    }

    #[test]
    fn unfold_rows_are_sorted_unique() {
        let t = sample();
        for mode in Mode::ALL {
            let u = Unfolding::new(&t, mode);
            for r in 0..u.nrows() {
                let row = u.row(r);
                assert!(row.windows(2).all(|w| w[0] < w[1]), "row {r} not sorted");
            }
        }
    }

    #[test]
    fn row_range_binary_search() {
        let t = sample();
        let u = Unfolding::new(&t, Mode::One);
        // Row 0 has ones at columns 0, 1 + 2·3 = 7, 2 + 1·3 = 5.
        assert_eq!(u.row(0), &[0, 5, 7]);
        assert_eq!(u.row_range(0, 0, 6), &[0, 5]);
        assert_eq!(u.row_range(0, 5, 6), &[5]);
        assert_eq!(u.row_range(0, 8, 12), &[] as &[u64]);
        // Degenerate windows are empty, not a panic.
        assert_eq!(u.row_range(0, 5, 5), &[] as &[u64]);
        assert_eq!(u.row_range(0, 7, 2), &[] as &[u64]);
    }

    #[test]
    fn row_range_word_edges_both_stores() {
        // Columns planted exactly on and around the 64-bit word boundaries
        // (63/64/65, 126/127/128) plus the extremes of a 135-column row.
        let dims = [2usize, 9, 15];
        let cols: [u64; 9] = [0, 62, 63, 64, 65, 126, 127, 128, 134];
        let entries: Vec<[u32; 3]> = cols
            .iter()
            .map(|&c| Mode::One.dematricize(dims, 0, c))
            .collect();
        let t = BoolTensor::from_entries(dims, entries);
        let u = Unfolding::new(&t, Mode::One);
        assert_eq!(u.row(0), &cols);
        let path =
            std::env::temp_dir().join(format!("dbtf-unfold-word-edges-{}.unf", std::process::id()));
        crate::MmapUnfolding::write_from_store(&u, &path).unwrap();
        let m = crate::MmapUnfolding::open(&path).unwrap();
        super::row_range_contract_check(&u, "heap");
        super::row_range_contract_check(&m, "mmap");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn get_matches_tensor() {
        let t = sample();
        for mode in Mode::ALL {
            let u = Unfolding::new(&t, mode);
            for e in t.iter() {
                let (r, c) = mode.matricize(t.dims(), e);
                assert!(u.get(r as usize, c));
            }
            assert!(
                !u.get(0, u.ncols() - 1)
                    || t.contains(
                        mode.dematricize(t.dims(), 0, u.ncols() - 1)[0],
                        mode.dematricize(t.dims(), 0, u.ncols() - 1)[1],
                        mode.dematricize(t.dims(), 0, u.ncols() - 1)[2],
                    )
            );
        }
    }
}

#[cfg(test)]
mod row_range_contract_props {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static FILE_SEQ: AtomicU64 = AtomicU64::new(0);

    /// Dims chosen so mode-1 unfoldings span 135 columns — both 64-bit word
    /// boundaries (63/64, 127/128) fall inside the probed range.
    const DIMS: [usize; 3] = [2, 9, 15];

    fn tensor_strategy() -> impl Strategy<Value = BoolTensor> {
        proptest::collection::vec(
            (0..DIMS[0] as u32, 0..DIMS[1] as u32, 0..DIMS[2] as u32)
                .prop_map(|(a, b, c)| [a, b, c]),
            0..=80,
        )
        .prop_map(|entries| BoolTensor::from_entries(DIMS, entries))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Both store implementations satisfy the shared `row`/`row_range`
        /// contract and agree with each other slice-for-slice.
        #[test]
        fn both_stores_pin_the_row_range_contract(t in tensor_strategy()) {
            let seq = FILE_SEQ.fetch_add(1, Ordering::Relaxed);
            for mode in Mode::ALL {
                let u = Unfolding::new(&t, mode);
                let path = std::env::temp_dir().join(format!(
                    "dbtf-unfold-prop-{}-{}-{}.unf",
                    std::process::id(),
                    seq,
                    mode.index()
                ));
                crate::MmapUnfolding::write_from_store(&u, &path).unwrap();
                let m = crate::MmapUnfolding::open(&path).unwrap();
                super::row_range_contract_check(&u, "heap");
                super::row_range_contract_check(&m, "mmap");
                for r in 0..u.nrows() {
                    prop_assert_eq!(u.row(r), crate::UnfoldingStore::row(&m, r));
                }
                let _ = std::fs::remove_file(&path);
            }
        }
    }
}
