//! Bit-packed binary matrices.

use rand::Rng;
use std::fmt;

use crate::{BitVec, WORD_BITS};

/// A dense binary matrix over `B = {0, 1}`, packed 64 bits per word with a
/// whole number of words per row.
///
/// Factor matrices (`A ∈ B^{I×R}`) and cached Boolean row summations are
/// `BitMatrix` values. Rows are exposed as word slices ([`BitMatrix::row`])
/// so Boolean row sums are straight word-wise ORs.
///
/// As in [`BitVec`], bits past `cols()` within each row's final word are kept
/// zero at all times.
#[derive(Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl BitMatrix {
    /// Creates an all-zeros `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(WORD_BITS);
        BitMatrix {
            rows,
            cols,
            words_per_row,
            data: vec![0; rows * words_per_row],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Builds a matrix from per-row lists of one-column indices.
    ///
    /// # Panics
    ///
    /// Panics if `row_indices.len() != rows` or any index `≥ cols`.
    pub fn from_rows(rows: usize, cols: usize, row_indices: &[&[usize]]) -> Self {
        assert_eq!(row_indices.len(), rows, "row count mismatch");
        let mut m = Self::zeros(rows, cols);
        for (r, indices) in row_indices.iter().enumerate() {
            for &c in *indices {
                m.set(r, c, true);
            }
        }
        m
    }

    /// Builds a matrix whose rows are the given bit vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors do not all have length `cols`.
    pub fn from_bitvec_rows(cols: usize, rows: &[BitVec]) -> Self {
        let mut m = Self::zeros(rows.len(), cols);
        for (r, v) in rows.iter().enumerate() {
            assert_eq!(v.len(), cols, "row {r} has wrong length");
            m.row_mut(r).copy_from_slice(v.words());
        }
        m
    }

    /// A matrix whose entries are i.i.d. Bernoulli(`density`).
    pub fn random<R: Rng + ?Sized>(rows: usize, cols: usize, density: f64, rng: &mut R) -> Self {
        assert!((0.0..=1.0).contains(&density), "density must be in [0, 1]");
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if rng.gen_bool(density) {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of `u64` words backing each row.
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Reads entry `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of range"
        );
        let w = self.data[r * self.words_per_row + c / WORD_BITS];
        (w >> (c % WORD_BITS)) & 1 == 1
    }

    /// Writes entry `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of range"
        );
        let w = &mut self.data[r * self.words_per_row + c / WORD_BITS];
        let mask = 1u64 << (c % WORD_BITS);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// The packed words of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[u64] {
        let start = r * self.words_per_row;
        &self.data[start..start + self.words_per_row]
    }

    /// Mutable packed words of row `r`.
    ///
    /// Callers must keep tail bits (past `cols()`) zero.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [u64] {
        let start = r * self.words_per_row;
        &mut self.data[start..start + self.words_per_row]
    }

    /// Copies row `r` into a new [`BitVec`].
    pub fn row_bitvec(&self, r: usize) -> BitVec {
        BitVec::from_words(self.cols, self.row(r).to_vec())
    }

    /// ORs row `r` into `dest` (`dest ← dest ∨ row_r`).
    ///
    /// `dest` must have at least `words_per_row()` words; extra words are
    /// untouched.
    #[inline]
    pub fn or_row_into(&self, r: usize, dest: &mut [u64]) {
        for (d, s) in dest.iter_mut().zip(self.row(r)) {
            *d |= s;
        }
    }

    /// Reads up to 64 consecutive bits of row `r` as a `u64` mask.
    ///
    /// See [`BitVec::extract_word`]; DBTF uses this to form cache keys from
    /// factor rows.
    pub fn row_word(&self, r: usize, start: usize, len: usize) -> u64 {
        assert!(len <= 64 && start + len <= self.cols, "range out of bounds");
        BitVec::extract_word_in(self.row(r), start, len)
    }

    /// Number of ones in the whole matrix.
    pub fn count_ones(&self) -> usize {
        self.data.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of ones (0.0 for an empty matrix).
    pub fn density(&self) -> f64 {
        let cells = self.rows * self.cols;
        if cells == 0 {
            0.0
        } else {
            self.count_ones() as f64 / cells as f64
        }
    }

    /// The transpose `Aᵀ`.
    pub fn transpose(&self) -> BitMatrix {
        let mut t = BitMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            let row = self.row(r);
            for (wi, &w) in row.iter().enumerate() {
                let mut rem = w;
                while rem != 0 {
                    let c = wi * WORD_BITS + rem.trailing_zeros() as usize;
                    t.set(c, r, true);
                    rem &= rem - 1;
                }
            }
        }
        t
    }

    /// Iterates over the column indices of the ones in row `r`.
    pub fn iter_row_ones(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(r).iter().enumerate().flat_map(|(wi, &w)| {
            let base = wi * WORD_BITS;
            std::iter::successors(if w != 0 { Some(w) } else { None }, |&rem| {
                let next = rem & (rem - 1);
                (next != 0).then_some(next)
            })
            .map(move |rem| base + rem.trailing_zeros() as usize)
        })
    }

    /// Number of entries at which `self` and `other` differ.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn xor_count(&self, other: &BitMatrix) -> usize {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Column `c` as a [`BitVec`] of length `rows()`.
    pub fn column(&self, c: usize) -> BitVec {
        let mut v = BitVec::zeros(self.rows);
        for r in 0..self.rows {
            if self.get(r, c) {
                v.set(r, true);
            }
        }
        v
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix[{} × {}]", self.rows, self.cols)?;
        for r in 0..self.rows.min(16) {
            for c in 0..self.cols.min(64) {
                write!(f, "{}", u8::from(self.get(r, c)))?;
            }
            writeln!(f)?;
        }
        if self.rows > 16 {
            writeln!(f, "…")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_shape() {
        let m = BitMatrix::zeros(3, 130);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 130);
        assert_eq!(m.words_per_row(), 3);
        assert_eq!(m.count_ones(), 0);
    }

    #[test]
    fn set_get() {
        let mut m = BitMatrix::zeros(4, 70);
        m.set(0, 0, true);
        m.set(3, 69, true);
        m.set(2, 64, true);
        assert!(m.get(0, 0));
        assert!(m.get(3, 69));
        assert!(m.get(2, 64));
        assert!(!m.get(1, 1));
        assert_eq!(m.count_ones(), 3);
        m.set(0, 0, false);
        assert!(!m.get(0, 0));
    }

    #[test]
    fn identity() {
        let m = BitMatrix::identity(5);
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(m.get(i, j), i == j);
            }
        }
    }

    #[test]
    fn from_rows_and_row_bitvec() {
        let m = BitMatrix::from_rows(2, 100, &[&[0, 99][..], &[50][..]]);
        assert_eq!(m.row_bitvec(0).iter_ones().collect::<Vec<_>>(), vec![0, 99]);
        assert_eq!(m.row_bitvec(1).iter_ones().collect::<Vec<_>>(), vec![50]);
    }

    #[test]
    fn from_bitvec_rows_roundtrip() {
        let rows = vec![
            BitVec::from_indices(70, &[0, 69]),
            BitVec::from_indices(70, &[35]),
        ];
        let m = BitMatrix::from_bitvec_rows(70, &rows);
        assert_eq!(m.row_bitvec(0), rows[0]);
        assert_eq!(m.row_bitvec(1), rows[1]);
    }

    #[test]
    fn or_row_into_is_boolean_sum() {
        let m = BitMatrix::from_rows(2, 70, &[&[0, 65][..], &[1, 65][..]]);
        let mut acc = vec![0u64; m.words_per_row()];
        m.or_row_into(0, &mut acc);
        m.or_row_into(1, &mut acc);
        let v = BitVec::from_words(70, acc);
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![0, 1, 65]);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = BitMatrix::random(13, 71, 0.3, &mut rng);
        let tt = m.transpose().transpose();
        assert_eq!(m, tt);
    }

    #[test]
    fn transpose_entries() {
        let m = BitMatrix::from_rows(2, 3, &[&[0, 2][..], &[1][..]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert!(t.get(0, 0) && t.get(2, 0) && t.get(1, 1));
        assert_eq!(t.count_ones(), 3);
    }

    #[test]
    fn row_word_matches_bits() {
        let m = BitMatrix::from_rows(1, 130, &[&[0, 3, 64, 120][..]]);
        assert_eq!(m.row_word(0, 0, 4), 0b1001);
        assert_eq!(m.row_word(0, 63, 2), 0b10);
        assert_eq!(m.row_word(0, 118, 5), 0b00100);
    }

    #[test]
    fn random_density_roughly_matches() {
        let mut rng = StdRng::seed_from_u64(42);
        let m = BitMatrix::random(100, 100, 0.2, &mut rng);
        let d = m.density();
        assert!((0.15..0.25).contains(&d), "density {d} too far from 0.2");
    }

    #[test]
    fn column_extraction() {
        let m = BitMatrix::from_rows(3, 4, &[&[1][..], &[1, 3][..], &[0][..]]);
        assert_eq!(m.column(1).iter_ones().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(m.column(0).iter_ones().collect::<Vec<_>>(), vec![2]);
        assert_eq!(m.column(2).count_ones(), 0);
    }

    #[test]
    fn xor_count_distance() {
        let a = BitMatrix::from_rows(2, 5, &[&[0][..], &[1][..]]);
        let b = BitMatrix::from_rows(2, 5, &[&[0][..], &[2][..]]);
        assert_eq!(a.xor_count(&b), 2);
        assert_eq!(a.xor_count(&a), 0);
    }

    #[test]
    fn iter_row_ones() {
        let m = BitMatrix::from_rows(1, 130, &[&[0, 64, 129][..]]);
        assert_eq!(m.iter_row_ones(0).collect::<Vec<_>>(), vec![0, 64, 129]);
    }
}
