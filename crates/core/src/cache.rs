//! Cached Boolean row summations (paper Section III-C, Algorithm 5,
//! Lemma 2).
//!
//! The inner loop of the DBTF factor update repeatedly forms Boolean sums of
//! subsets of the rows of `M_sᵀ` (equivalently, of the columns of the second
//! Khatri-Rao operand `M_s`). A [`RowSumCache`] precomputes *all* `2^R`
//! such sums; when the rank `R` exceeds the group limit `V`, the `R` rank
//! indices are split evenly into `⌈R/V⌉` groups with a `2^(R/⌈R/V⌉)`-entry
//! table each, and a fetch ORs one cached row per group (Lemma 2's
//! space/time trade-off).

use dbtf_tensor::{BitMatrix, BitVec};

/// How the `R` rank indices are split into cache-table groups.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupLayout {
    /// `(first_rank_index, bit_count)` per group, contiguous and covering
    /// `0..R`.
    groups: Vec<(usize, usize)>,
    rank: usize,
}

impl GroupLayout {
    /// Splits `rank` indices into `⌈rank / v_limit⌉` near-even groups
    /// (Lemma 2).
    ///
    /// # Panics
    ///
    /// Panics if `rank == 0` or `v_limit == 0`.
    pub fn new(rank: usize, v_limit: usize) -> Self {
        assert!(rank > 0, "rank must be positive");
        assert!(v_limit > 0, "group limit must be positive");
        let ngroups = rank.div_ceil(v_limit);
        let base = rank / ngroups;
        let extra = rank % ngroups;
        let mut groups = Vec::with_capacity(ngroups);
        let mut first = 0;
        for g in 0..ngroups {
            let bits = base + usize::from(g < extra);
            groups.push((first, bits));
            first += bits;
        }
        debug_assert_eq!(first, rank);
        GroupLayout { groups, rank }
    }

    /// The rank this layout covers.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of groups (`⌈R/V⌉`).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// `(first_rank_index, bit_count)` of group `g`.
    pub fn group(&self, g: usize) -> (usize, usize) {
        self.groups[g]
    }

    /// The group containing rank index `r` and `r`'s bit offset within it.
    pub fn locate(&self, r: usize) -> (usize, usize) {
        assert!(r < self.rank, "rank index {r} out of range");
        for (g, &(first, bits)) in self.groups.iter().enumerate() {
            if r < first + bits {
                return (g, r - first);
            }
        }
        unreachable!("groups cover 0..rank")
    }

    /// Extracts the per-group key masks of row `row` of `m` (an `? × R`
    /// bit matrix) into `out`.
    pub fn row_masks(&self, m: &BitMatrix, row: usize, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.groups.len());
        for (g, &(first, bits)) in self.groups.iter().enumerate() {
            out[g] = m.row_word(row, first, bits);
        }
    }
}

/// One group's table: the Boolean sums of every subset of its rank rows,
/// stored flat so that building or slicing a table allocates twice, not
/// twice per entry.
#[derive(Clone, Debug)]
struct GroupTable {
    /// `entries × row_words` words; entry `mask` (the OR of the cached base
    /// rows selected by `mask`) is `words[mask·row_words..][..row_words]`.
    words: Vec<u64>,
    /// Popcount of each cached row (precomputed so single-group fetches
    /// never rescan).
    pops: Vec<u32>,
}

/// All cached Boolean row summations for one caching unit `M_sᵀ`
/// (paper Figure 4), possibly split into groups (Lemma 2).
///
/// The *width* is the number of columns of the cached rows — the slab width
/// `S` for the full-size cache, or a block's width for the sliced caches of
/// edge blocks (Section III-D). Rows are returned as packed `u64` words,
/// `width().div_ceil(64)` per row, with the bits past the width zero.
#[derive(Clone, Debug)]
pub struct RowSumCache {
    width: usize,
    /// Words per cached row (`width.div_ceil(64)`).
    row_words: usize,
    tables: Vec<GroupTable>,
}

/// Whether this CPU executes `popcnt`. The standard library caches the
/// probe, so the choice between a kernel's hardware-popcount copy and its
/// portable body is made once per process.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[inline]
pub(crate) fn hardware_popcnt() -> bool {
    std::arch::is_x86_feature_detected!("popcnt")
}

impl RowSumCache {
    /// Builds the cache for the columns of `ms` (`S × R`): entry `mask` of
    /// group `g` holds `⊕_{r ∈ mask} (m_s)_{:r}ᵀ`.
    ///
    /// Construction is incremental — each entry is one OR of a previous
    /// entry with a single base row (`O(S)` per entry), as assumed by the
    /// Lemma 4 cost analysis.
    pub fn build(ms: &BitMatrix, layout: &GroupLayout) -> Self {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if hardware_popcnt() {
            // SAFETY: `hardware_popcnt` just confirmed the CPU has `popcnt`.
            return unsafe { Self::build_popcnt(ms, layout) };
        }
        Self::build_portable(ms, layout)
    }

    /// [`RowSumCache::build`] compiled with hardware popcount.
    ///
    /// # Safety
    ///
    /// The CPU must support `popcnt` (see [`hardware_popcnt`]).
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "popcnt")]
    fn build_popcnt(ms: &BitMatrix, layout: &GroupLayout) -> Self {
        Self::build_portable(ms, layout)
    }

    #[inline(always)]
    fn build_portable(ms: &BitMatrix, layout: &GroupLayout) -> Self {
        assert_eq!(ms.cols(), layout.rank(), "factor rank mismatch");
        let width = ms.rows();
        let row_words = width.div_ceil(64);
        let mst = ms.transpose(); // R × S: row r = column r of M_s.
        let mut tables = Vec::with_capacity(layout.num_groups());
        for g in 0..layout.num_groups() {
            let (first, bits) = layout.group(g);
            let size = 1usize << bits;
            let mut words = vec![0u64; size * row_words];
            let mut pops = vec![0u32; size];
            for (mask, pop) in pops.iter_mut().enumerate().skip(1) {
                let low = mask & (mask - 1); // mask without lowest bit
                let base = mst.row(first + mask.trailing_zeros() as usize);
                let (done, rest) = words.split_at_mut(mask * row_words);
                let prev = &done[low * row_words..(low + 1) * row_words];
                for ((d, &p), &b) in rest[..row_words].iter_mut().zip(prev).zip(base) {
                    *d = p | b;
                    *pop += d.count_ones();
                }
            }
            tables.push(GroupTable { words, pops });
        }
        RowSumCache {
            width,
            row_words,
            tables,
        }
    }

    /// Width (columns) of the cached rows.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of group tables.
    pub fn num_groups(&self) -> usize {
        self.tables.len()
    }

    /// Total number of cached rows across groups (Lemma 2's
    /// `⌈R/V⌉ · 2^(R/⌈R/V⌉)`).
    pub fn num_entries(&self) -> usize {
        self.tables.iter().map(|t| t.pops.len()).sum()
    }

    /// Approximate heap footprint in bytes (for Lemma 5 memory metering).
    pub fn byte_size(&self) -> u64 {
        let row_bytes = self.row_words as u64 * 8;
        self.num_entries() as u64 * (row_bytes + 4)
    }

    /// Single-group fast path: the cached row and popcount for `key`.
    ///
    /// # Panics
    ///
    /// Debug-panics if the cache has more than one group.
    #[inline]
    pub fn fetch_single(&self, key: u64) -> (&[u64], u32) {
        debug_assert_eq!(self.tables.len(), 1, "fetch_single on multi-group cache");
        (self.group_row(0, key), self.tables[0].pops[key as usize])
    }

    /// General fetch: ORs the cached row of each group's key into
    /// `scratch` (which must hold `width().div_ceil(64)` words and is
    /// cleared first). Returns the popcount of the combined row.
    #[inline]
    pub fn fetch_or(&self, keys: &[u64], scratch: &mut [u64]) -> u32 {
        debug_assert_eq!(keys.len(), self.tables.len(), "one key per group");
        scratch.fill(0);
        for (g, &key) in keys.iter().enumerate() {
            for (d, s) in scratch.iter_mut().zip(self.group_row(g, key)) {
                *d |= s;
            }
        }
        scratch.iter().map(|w| w.count_ones()).sum()
    }

    /// The cached row of group `g` for `key` (no OR), for callers that
    /// combine group rows themselves — e.g. the column superstep, which
    /// shares the OR of all non-candidate groups between both candidates.
    #[inline]
    pub fn group_row(&self, g: usize, key: u64) -> &[u64] {
        let at = key as usize * self.row_words;
        &self.tables[g].words[at..at + self.row_words]
    }

    /// Derives the vertically sliced cache for an edge block covering
    /// columns `[lo, lo + len)` of the caching unit (Algorithm 5 line 4):
    /// a single pass over the full-size cache.
    pub fn slice(&self, lo: usize, len: usize) -> RowSumCache {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if hardware_popcnt() {
            // SAFETY: `hardware_popcnt` just confirmed the CPU has `popcnt`.
            return unsafe { self.slice_popcnt(lo, len) };
        }
        self.slice_portable(lo, len)
    }

    /// [`RowSumCache::slice`] compiled with hardware popcount.
    ///
    /// # Safety
    ///
    /// The CPU must support `popcnt` (see [`hardware_popcnt`]).
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "popcnt")]
    fn slice_popcnt(&self, lo: usize, len: usize) -> RowSumCache {
        self.slice_portable(lo, len)
    }

    #[inline(always)]
    fn slice_portable(&self, lo: usize, len: usize) -> RowSumCache {
        assert!(lo + len <= self.width, "slice out of bounds");
        let row_words = len.div_ceil(64);
        // A plain loop, not a closure: the body must stay inside this
        // function to be compiled with the caller's target features.
        let mut tables = Vec::with_capacity(self.tables.len());
        for t in &self.tables {
            let entries = t.pops.len();
            let mut words = vec![0u64; entries * row_words];
            let mut pops = vec![0u32; entries];
            for (e, pop) in pops.iter_mut().enumerate() {
                let src = &t.words[e * self.row_words..(e + 1) * self.row_words];
                let dst = &mut words[e * row_words..(e + 1) * row_words];
                BitVec::slice_into(src, lo, len, dst);
                *pop = dst.iter().map(|w| w.count_ones()).sum();
            }
            tables.push(GroupTable { words, pops });
        }
        RowSumCache {
            width: len,
            row_words,
            tables,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtf_tensor::ops::or_selected_rows;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn layout_single_group() {
        let l = GroupLayout::new(10, 15);
        assert_eq!(l.num_groups(), 1);
        assert_eq!(l.group(0), (0, 10));
        assert_eq!(l.locate(7), (0, 7));
    }

    #[test]
    fn layout_paper_example() {
        // Paper: R = 18, V = 10 → two tables of 2⁹.
        let l = GroupLayout::new(18, 10);
        assert_eq!(l.num_groups(), 2);
        assert_eq!(l.group(0), (0, 9));
        assert_eq!(l.group(1), (9, 9));
    }

    #[test]
    fn layout_uneven_split() {
        let l = GroupLayout::new(20, 9); // ⌈20/9⌉ = 3 groups: 7+7+6.
        assert_eq!(l.num_groups(), 3);
        let total: usize = (0..3).map(|g| l.group(g).1).sum();
        assert_eq!(total, 20);
        assert!((0..3).all(|g| l.group(g).1 <= 9));
        assert_eq!(l.locate(0), (0, 0));
        assert_eq!(l.locate(19), (2, 5));
    }

    #[test]
    fn layout_groups_contiguous() {
        for (rank, v) in [(1, 1), (5, 2), (64, 15), (60, 15), (33, 16)] {
            let l = GroupLayout::new(rank, v);
            let mut next = 0;
            for g in 0..l.num_groups() {
                let (first, bits) = l.group(g);
                assert_eq!(first, next);
                assert!(bits >= 1 && bits <= v);
                next = first + bits;
            }
            assert_eq!(next, rank);
        }
    }

    /// Every cached entry must equal the naive Boolean row summation.
    #[test]
    fn cache_matches_naive_summation() {
        let mut rng = StdRng::seed_from_u64(9);
        let r = 6;
        let ms = BitMatrix::random(20, r, 0.4, &mut rng); // S = 20
        let mst = ms.transpose();
        let layout = GroupLayout::new(r, 15);
        let cache = RowSumCache::build(&ms, &layout);
        assert_eq!(cache.num_groups(), 1);
        assert_eq!(cache.num_entries(), 64);
        for mask in 0u64..64 {
            let sel = BitVec::from_words(r, vec![mask]);
            let expect = or_selected_rows(&mst, &sel);
            let (row, pop) = cache.fetch_single(mask);
            assert_eq!(row, expect.words(), "mask {mask:#b}");
            assert_eq!(pop as usize, expect.count_ones());
        }
    }

    #[test]
    fn multi_group_fetch_matches_naive() {
        let mut rng = StdRng::seed_from_u64(10);
        let r = 7;
        let ms = BitMatrix::random(70, r, 0.3, &mut rng);
        let mst = ms.transpose();
        let layout = GroupLayout::new(r, 3); // 3 groups: 3+2+2 bits.
        assert_eq!(layout.num_groups(), 3);
        let cache = RowSumCache::build(&ms, &layout);
        let mut scratch = vec![0u64; 70usize.div_ceil(64)];
        for mask in [0u64, 1, 0b1010101, 0b1111111, 0b0110010] {
            // Split the full mask into group keys.
            let mut keys = vec![0u64; layout.num_groups()];
            for (g, key) in keys.iter_mut().enumerate() {
                let (first, bits) = layout.group(g);
                *key = (mask >> first) & ((1 << bits) - 1);
            }
            let pop = cache.fetch_or(&keys, &mut scratch);
            let sel = BitVec::from_words(r, vec![mask]);
            let expect = or_selected_rows(&mst, &sel);
            assert_eq!(BitVec::from_words(70, scratch.clone()), expect);
            assert_eq!(pop as usize, expect.count_ones());
        }
    }

    #[test]
    fn lemma2_table_counts() {
        // Lemma 2: ⌈R/V⌉ tables of 2^(R/⌈R/V⌉) each (up to rounding).
        let layout = GroupLayout::new(18, 10);
        let mut rng = StdRng::seed_from_u64(11);
        let ms = BitMatrix::random(8, 18, 0.5, &mut rng);
        let cache = RowSumCache::build(&ms, &layout);
        assert_eq!(cache.num_groups(), 2);
        assert_eq!(cache.num_entries(), 2 * (1 << 9));
    }

    #[test]
    fn sliced_cache_equals_slicing_entries() {
        let mut rng = StdRng::seed_from_u64(12);
        let ms = BitMatrix::random(100, 5, 0.3, &mut rng);
        let layout = GroupLayout::new(5, 15);
        let full = RowSumCache::build(&ms, &layout);
        let sliced = full.slice(30, 45);
        assert_eq!(sliced.width(), 45);
        for mask in 0u64..32 {
            let (full_row, _) = full.fetch_single(mask);
            let (slice_row, pop) = sliced.fetch_single(mask);
            let full_row = BitVec::from_words(100, full_row.to_vec());
            assert_eq!(slice_row, full_row.slice(30, 45).words());
            assert_eq!(pop, popcount(slice_row));
        }
    }

    #[test]
    fn byte_size_positive() {
        let ms = BitMatrix::zeros(10, 4);
        let cache = RowSumCache::build(&ms, &GroupLayout::new(4, 15));
        assert!(cache.byte_size() > 0);
    }

    #[test]
    fn empty_mask_is_zero_row() {
        let mut rng = StdRng::seed_from_u64(13);
        let ms = BitMatrix::random(10, 4, 0.9, &mut rng);
        let cache = RowSumCache::build(&ms, &GroupLayout::new(4, 15));
        let (row, pop) = cache.fetch_single(0);
        assert_eq!(pop, 0);
        assert_eq!(popcount(row), 0);
    }

    /// The hardware-popcount copies of `build` and `slice` must produce
    /// the same tables as the portable bodies, word for word, including
    /// multi-group layouts and slices that start and end mid-word.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[test]
    fn popcnt_copies_match_portable() {
        if !hardware_popcnt() {
            return;
        }
        let same = |x: &RowSumCache, y: &RowSumCache| {
            assert_eq!((x.width, x.row_words), (y.width, y.row_words));
            assert_eq!(x.tables.len(), y.tables.len());
            for (tx, ty) in x.tables.iter().zip(&y.tables) {
                assert_eq!(tx.words, ty.words);
                assert_eq!(tx.pops, ty.pops);
            }
        };
        let mut rng = StdRng::seed_from_u64(14);
        for (s, r) in [(1usize, 3usize), (64, 5), (200, 7), (130, 20)] {
            let ms = BitMatrix::random(s, r, 0.3, &mut rng);
            for v in [15usize, 2, 1] {
                let layout = GroupLayout::new(r, v);
                let portable = RowSumCache::build_portable(&ms, &layout);
                // SAFETY: checked above that the CPU supports `popcnt`.
                let fast = unsafe { RowSumCache::build_popcnt(&ms, &layout) };
                same(&portable, &fast);
                for (lo, len) in [(0, s), (s / 3, s - s / 3), (s / 4, s / 2 + 1)] {
                    let len = len.min(s - lo).max(1);
                    // SAFETY: as above.
                    let fast = unsafe { portable.slice_popcnt(lo, len) };
                    same(&portable.slice_portable(lo, len), &fast);
                }
            }
        }
    }

    fn popcount(row: &[u64]) -> u32 {
        row.iter().map(|w| w.count_ones()).sum()
    }
}
