//! Sparse three-way Boolean tensors.

use std::fmt;
use std::sync::Arc;

/// A sparse three-way binary tensor `X ∈ B^{I×J×K}`.
///
/// Only the coordinates of the ones are stored, sorted lexicographically by
/// `(i, j, k)` with duplicates removed, so `|X|` ([`BoolTensor::nnz`]) is the
/// storage size. Indices are `u32` (mode sizes up to 2³² − 1), matching the
/// scale of the paper's experiments.
///
/// Construct with [`TensorBuilder`] (streaming inserts) or
/// [`BoolTensor::from_entries`].
///
/// A tensor is immutable once built and shares its entries: a clone is a
/// reference count, not a copy of `|X|` coordinates.
#[derive(Clone, PartialEq, Eq)]
pub struct BoolTensor {
    dims: [usize; 3],
    /// Sorted, deduplicated `(i, j, k)` coordinates of the ones.
    entries: Arc<Vec<[u32; 3]>>,
}

impl BoolTensor {
    /// An all-zeros tensor of shape `I × J × K`.
    pub fn empty(dims: [usize; 3]) -> Self {
        Self::check_dims(dims);
        BoolTensor {
            dims,
            entries: Arc::default(),
        }
    }

    /// Builds a tensor from a list of one-coordinates (any order, duplicates
    /// allowed).
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range or a mode size exceeds
    /// `u32::MAX`.
    pub fn from_entries(dims: [usize; 3], mut entries: Vec<[u32; 3]>) -> Self {
        Self::check_dims(dims);
        for e in &entries {
            for m in 0..3 {
                assert!(
                    (e[m] as usize) < dims[m],
                    "entry {e:?} out of range for dims {dims:?}"
                );
            }
        }
        entries.sort_unstable();
        entries.dedup();
        BoolTensor {
            dims,
            entries: Arc::new(entries),
        }
    }

    /// Wraps entries that are already sorted, duplicate-free and in range
    /// for `dims` (the binary loader checks all three as it reads).
    pub(crate) fn from_sorted_entries(dims: [usize; 3], entries: Vec<[u32; 3]>) -> Self {
        Self::check_dims(dims);
        debug_assert!(
            entries.windows(2).all(|w| w[0] < w[1]),
            "entries not sorted"
        );
        BoolTensor {
            dims,
            entries: Arc::new(entries),
        }
    }

    fn check_dims(dims: [usize; 3]) {
        for d in dims {
            assert!(d <= u32::MAX as usize, "mode size {d} exceeds u32 range");
        }
    }

    /// Shape `[I, J, K]`.
    #[inline]
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Number of ones, `|X|` in the paper's notation.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the tensor has no ones.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Frobenius norm `‖X‖`. For a binary tensor this is `sqrt(|X|)`.
    pub fn frobenius_norm(&self) -> f64 {
        (self.nnz() as f64).sqrt()
    }

    /// Fraction of ones among all `I·J·K` cells.
    pub fn density(&self) -> f64 {
        let cells = self.dims.iter().map(|&d| d as f64).product::<f64>();
        if cells == 0.0 {
            0.0
        } else {
            self.nnz() as f64 / cells
        }
    }

    /// Tests whether `x_{ijk} = 1` (binary search).
    pub fn contains(&self, i: u32, j: u32, k: u32) -> bool {
        self.entries.binary_search(&[i, j, k]).is_ok()
    }

    /// The sorted coordinate list.
    #[inline]
    pub fn entries(&self) -> &[[u32; 3]] {
        &self.entries
    }

    /// Iterates over the one-coordinates in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = [u32; 3]> + '_ {
        self.entries.iter().copied()
    }

    /// Number of cells at which `self` and `other` differ: `|X ⊕ Y|` with
    /// XOR semantics — the reconstruction error measure of Section IV-D.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn xor_count(&self, other: &BoolTensor) -> usize {
        assert_eq!(self.dims, other.dims, "shape mismatch");
        // Both entry lists are sorted: a linear merge counts the symmetric
        // difference without materializing it.
        let (mut a, mut b) = (0usize, 0usize);
        let mut diff = 0usize;
        while a < self.entries.len() && b < other.entries.len() {
            match self.entries[a].cmp(&other.entries[b]) {
                std::cmp::Ordering::Less => {
                    diff += 1;
                    a += 1;
                }
                std::cmp::Ordering::Greater => {
                    diff += 1;
                    b += 1;
                }
                std::cmp::Ordering::Equal => {
                    a += 1;
                    b += 1;
                }
            }
        }
        diff + (self.entries.len() - a) + (other.entries.len() - b)
    }

    /// Number of cells that are one in both tensors: `|X ∧ Y|`.
    pub fn and_count(&self, other: &BoolTensor) -> usize {
        assert_eq!(self.dims, other.dims, "shape mismatch");
        let (mut a, mut b) = (0usize, 0usize);
        let mut both = 0usize;
        while a < self.entries.len() && b < other.entries.len() {
            match self.entries[a].cmp(&other.entries[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    both += 1;
                    a += 1;
                    b += 1;
                }
            }
        }
        both
    }

    /// Boolean sum `X ⊕ Y` (set union of the ones).
    pub fn or(&self, other: &BoolTensor) -> BoolTensor {
        assert_eq!(self.dims, other.dims, "shape mismatch");
        let mut entries = Vec::with_capacity(self.nnz() + other.nnz());
        entries.extend_from_slice(&self.entries);
        entries.extend_from_slice(&other.entries);
        BoolTensor::from_entries(self.dims, entries)
    }

    /// The entries of the mode-1 slice `x_{i,:,:}` — a contiguous run of
    /// the sorted entry list (`O(log |X|)` to locate).
    pub fn slice_mode1(&self, i: u32) -> &[[u32; 3]] {
        let lo = self.entries.partition_point(|e| e[0] < i);
        let hi = self.entries.partition_point(|e| e[0] <= i);
        &self.entries[lo..hi]
    }

    /// The mode-1 (column) fiber `x_{:,j,k}`: sorted `i` with
    /// `x_{ijk} = 1`. `O(|X|)` scan — the only mode whose fibers are not
    /// clustered in the sorted entry list.
    pub fn fiber_mode1(&self, j: u32, k: u32) -> Vec<u32> {
        self.entries
            .iter()
            .filter(|e| e[1] == j && e[2] == k)
            .map(|e| e[0])
            .collect()
    }

    /// The mode-2 (row) fiber `x_{i,:,k}`: sorted `j` with `x_{ijk} = 1`.
    /// `O(log |X| + slice)` via the mode-1 slice.
    pub fn fiber_mode2(&self, i: u32, k: u32) -> Vec<u32> {
        self.slice_mode1(i)
            .iter()
            .filter(|e| e[2] == k)
            .map(|e| e[1])
            .collect()
    }

    /// The mode-3 (tube) fiber `x_{i,j,:}`: sorted `k` with `x_{ijk} = 1`.
    /// `O(log |X| + fiber)` — the fiber is contiguous in the entry list.
    pub fn fiber_mode3(&self, i: u32, j: u32) -> Vec<u32> {
        let lo = self.entries.partition_point(|e| (e[0], e[1]) < (i, j));
        let hi = self.entries.partition_point(|e| (e[0], e[1]) <= (i, j));
        self.entries[lo..hi].iter().map(|e| e[2]).collect()
    }

    /// Permutes the modes: the result `Y` has `y_{e[perm[0]], e[perm[1]],
    /// e[perm[2]]} = x_e`, i.e. mode `m` of `Y` is mode `perm[m]` of `X`.
    ///
    /// Mode permutations are the gauge freedom of the tensor layout: a CP
    /// factorization `(A, B, C)` of `X` turns into one of
    /// `X.permute_modes(perm)` by permuting the factor matrices the same
    /// way, and `|X ⊖ X̂|` is invariant — the metamorphic relation the
    /// verification oracles check.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `[0, 1, 2]`.
    pub fn permute_modes(&self, perm: [usize; 3]) -> BoolTensor {
        let mut seen = [false; 3];
        for &m in &perm {
            assert!(m < 3 && !seen[m], "{perm:?} is not a mode permutation");
            seen[m] = true;
        }
        let dims = [self.dims[perm[0]], self.dims[perm[1]], self.dims[perm[2]]];
        let entries = self
            .entries
            .iter()
            .map(|e| [e[perm[0]], e[perm[1]], e[perm[2]]])
            .collect();
        BoolTensor::from_entries(dims, entries)
    }

    /// The number of ones whose coordinates fall inside the given index
    /// ranges (a subtensor popcount, used by Walk'n'Merge's density checks).
    pub fn count_in_box(
        &self,
        i_range: std::ops::Range<u32>,
        j_range: std::ops::Range<u32>,
        k_range: std::ops::Range<u32>,
    ) -> usize {
        self.entries
            .iter()
            .filter(|e| {
                i_range.contains(&e[0]) && j_range.contains(&e[1]) && k_range.contains(&e[2])
            })
            .count()
    }
}

impl fmt::Debug for BoolTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BoolTensor[{}×{}×{}, |X| = {}]",
            self.dims[0],
            self.dims[1],
            self.dims[2],
            self.nnz()
        )
    }
}

/// Streaming builder for [`BoolTensor`].
///
/// Collects coordinates (any order, duplicates fine) and sorts/dedups once at
/// [`TensorBuilder::build`]. Cheaper than repeated `from_entries` merges when
/// generating large workloads.
#[derive(Clone, Debug)]
pub struct TensorBuilder {
    dims: [usize; 3],
    entries: Vec<[u32; 3]>,
}

impl TensorBuilder {
    /// Starts a builder for a tensor of shape `dims`.
    pub fn new(dims: [usize; 3]) -> Self {
        BoolTensor::check_dims(dims);
        TensorBuilder {
            dims,
            entries: Vec::new(),
        }
    }

    /// Starts a builder with pre-reserved capacity for `nnz` ones.
    pub fn with_capacity(dims: [usize; 3], nnz: usize) -> Self {
        BoolTensor::check_dims(dims);
        TensorBuilder {
            dims,
            entries: Vec::with_capacity(nnz),
        }
    }

    /// Records `x_{ijk} = 1`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    #[inline]
    pub fn insert(&mut self, i: u32, j: u32, k: u32) {
        debug_assert!(
            (i as usize) < self.dims[0]
                && (j as usize) < self.dims[1]
                && (k as usize) < self.dims[2],
            "entry ({i}, {j}, {k}) out of range for dims {:?}",
            self.dims
        );
        self.entries.push([i, j, k]);
    }

    /// Number of recorded (possibly duplicate) coordinates so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Finishes the tensor (sorts and deduplicates).
    pub fn build(self) -> BoolTensor {
        BoolTensor::from_entries(self.dims, self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BoolTensor {
        BoolTensor::from_entries([2, 3, 4], vec![[0, 0, 0], [1, 2, 3], [0, 1, 2]])
    }

    #[test]
    fn from_entries_sorts_and_dedups() {
        let t = BoolTensor::from_entries([2, 2, 2], vec![[1, 1, 1], [0, 0, 0], [1, 1, 1]]);
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.entries(), &[[0, 0, 0], [1, 1, 1]]);
        // A clone shares the entries instead of copying them.
        assert!(std::ptr::eq(t.entries(), t.clone().entries()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_entries_rejects_out_of_range() {
        BoolTensor::from_entries([2, 2, 2], vec![[2, 0, 0]]);
    }

    #[test]
    fn contains_and_nnz() {
        let t = small();
        assert_eq!(t.nnz(), 3);
        assert!(t.contains(0, 0, 0));
        assert!(t.contains(1, 2, 3));
        assert!(!t.contains(1, 0, 0));
    }

    #[test]
    fn density_and_norm() {
        let t = small();
        assert!((t.density() - 3.0 / 24.0).abs() < 1e-12);
        assert!((t.frobenius_norm() - 3f64.sqrt()).abs() < 1e-12);
        assert_eq!(BoolTensor::empty([0, 5, 5]).density(), 0.0);
    }

    #[test]
    fn xor_count_symmetric_difference() {
        let a = small();
        let b = BoolTensor::from_entries([2, 3, 4], vec![[0, 0, 0], [1, 1, 1]]);
        // a \ b = {(1,2,3), (0,1,2)}, b \ a = {(1,1,1)} → 3 differing cells.
        assert_eq!(a.xor_count(&b), 3);
        assert_eq!(b.xor_count(&a), 3);
        assert_eq!(a.xor_count(&a), 0);
    }

    #[test]
    fn and_count_intersection() {
        let a = small();
        let b = BoolTensor::from_entries([2, 3, 4], vec![[0, 0, 0], [1, 1, 1]]);
        assert_eq!(a.and_count(&b), 1);
    }

    #[test]
    fn or_is_union() {
        let a = small();
        let b = BoolTensor::from_entries([2, 3, 4], vec![[0, 0, 0], [1, 1, 1]]);
        let u = a.or(&b);
        assert_eq!(u.nnz(), 4);
        assert!(u.contains(1, 1, 1));
        assert!(u.contains(0, 1, 2));
    }

    #[test]
    fn count_in_box() {
        let t = small();
        assert_eq!(t.count_in_box(0..2, 0..3, 0..4), 3);
        // (0,0,0) and (0,1,2) fall inside; (1,2,3) does not.
        assert_eq!(t.count_in_box(0..1, 0..2, 0..3), 2);
        assert_eq!(t.count_in_box(1..2, 2..3, 3..4), 1);
        assert_eq!(t.count_in_box(0..0, 0..3, 0..4), 0);
    }

    #[test]
    fn fibers_match_contains() {
        let t = BoolTensor::from_entries(
            [3, 4, 5],
            vec![[0, 1, 2], [0, 1, 4], [0, 2, 2], [1, 1, 2], [2, 3, 0]],
        );
        assert_eq!(t.fiber_mode1(1, 2), vec![0, 1]);
        assert_eq!(t.fiber_mode2(0, 2), vec![1, 2]);
        assert_eq!(t.fiber_mode3(0, 1), vec![2, 4]);
        assert_eq!(t.fiber_mode1(3, 0), vec![2]);
        assert!(t.fiber_mode2(2, 4).is_empty());
        // Exhaustive consistency with contains().
        for j in 0..4u32 {
            for k in 0..5u32 {
                let fiber = t.fiber_mode1(j, k);
                for i in 0..3u32 {
                    assert_eq!(fiber.contains(&i), t.contains(i, j, k));
                }
            }
        }
    }

    #[test]
    fn slice_mode1_is_contiguous_run() {
        let t = small();
        assert_eq!(t.slice_mode1(0), &[[0, 0, 0], [0, 1, 2]]);
        assert_eq!(t.slice_mode1(1), &[[1, 2, 3]]);
        assert!(BoolTensor::empty([2, 2, 2]).slice_mode1(0).is_empty());
    }

    #[test]
    fn permute_modes_relabels_coordinates() {
        let t = small();
        let p = t.permute_modes([2, 0, 1]); // y_{k,i,j} = x_{i,j,k}
        assert_eq!(p.dims(), [4, 2, 3]);
        assert_eq!(p.nnz(), t.nnz());
        for [i, j, k] in t.iter() {
            assert!(p.contains(k, i, j));
        }
        // Identity permutation is a no-op; applying a permutation and its
        // inverse round-trips.
        assert_eq!(t.permute_modes([0, 1, 2]), t);
        assert_eq!(p.permute_modes([1, 2, 0]), t);
    }

    #[test]
    #[should_panic(expected = "not a mode permutation")]
    fn permute_modes_rejects_non_permutation() {
        small().permute_modes([0, 0, 2]);
    }

    #[test]
    fn builder_matches_from_entries() {
        let mut b = TensorBuilder::with_capacity([2, 3, 4], 4);
        assert!(b.is_empty());
        b.insert(1, 2, 3);
        b.insert(0, 0, 0);
        b.insert(0, 1, 2);
        b.insert(0, 0, 0); // duplicate
        assert_eq!(b.len(), 4);
        assert_eq!(b.build(), small());
    }
}
