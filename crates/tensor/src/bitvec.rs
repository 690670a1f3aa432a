//! Bit-packed binary vectors.

use std::fmt;

use crate::WORD_BITS;

/// A fixed-length binary vector over `B = {0, 1}`, packed 64 bits per word.
///
/// `BitVec` is the workhorse value type of the crate: rows of cached Boolean
/// row summations, slices of unfolded tensors and factor-matrix rows are all
/// `BitVec`s. The Boolean sum of the paper (`∨`, where `1 ⊕ 1 = 1`) is
/// [`BitVec::or_assign`]; the pointwise product (`∧`) is
/// [`BitVec::and_assign`]; the reconstruction-error primitive
/// `|u ⊕ v|` (number of differing positions) is [`BitVec::xor_count`].
///
/// Bits beyond `len()` within the final storage word are kept zero at all
/// times; every mutating operation restores this invariant, so popcounts
/// never need masking.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    nbits: usize,
    words: Vec<u64>,
}

#[inline]
fn words_for(nbits: usize) -> usize {
    nbits.div_ceil(WORD_BITS)
}

impl BitVec {
    /// Creates an all-zeros vector of length `nbits`.
    pub fn zeros(nbits: usize) -> Self {
        BitVec {
            nbits,
            words: vec![0; words_for(nbits)],
        }
    }

    /// Creates an all-ones vector of length `nbits`.
    pub fn ones(nbits: usize) -> Self {
        let mut v = BitVec {
            nbits,
            words: vec![!0u64; words_for(nbits)],
        };
        v.mask_tail();
        v
    }

    /// Creates a vector of length `nbits` with ones exactly at `indices`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn from_indices(nbits: usize, indices: &[usize]) -> Self {
        let mut v = Self::zeros(nbits);
        for &i in indices {
            v.set(i, true);
        }
        v
    }

    /// Builds a vector directly from packed words.
    ///
    /// Tail bits beyond `nbits` are cleared.
    pub fn from_words(nbits: usize, mut words: Vec<u64>) -> Self {
        assert_eq!(words.len(), words_for(nbits), "word count mismatch");
        let mut v = BitVec {
            nbits,
            words: Vec::new(),
        };
        std::mem::swap(&mut v.words, &mut words);
        v.mask_tail();
        v
    }

    /// Number of bits in the vector.
    #[inline]
    pub fn len(&self) -> usize {
        self.nbits
    }

    /// `true` if the vector has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nbits == 0
    }

    /// The backing words (tail bits beyond `len()` are zero).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.nbits, "bit index {i} out of range {}", self.nbits);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Writes bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.nbits, "bit index {i} out of range {}", self.nbits);
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Sets every bit to zero, keeping the length.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of ones (`|v|` in the paper's notation).
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Boolean sum: `self ← self ∨ other`.
    ///
    /// This is the paper's `⊕` on binary vectors (`1 ⊕ 1 = 1`).
    #[inline]
    pub fn or_assign(&mut self, other: &BitVec) {
        debug_assert_eq!(self.nbits, other.nbits, "length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Pointwise product: `self ← self ∧ other`.
    #[inline]
    pub fn and_assign(&mut self, other: &BitVec) {
        debug_assert_eq!(self.nbits, other.nbits, "length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Symmetric difference: `self ← self XOR other`.
    #[inline]
    pub fn xor_assign(&mut self, other: &BitVec) {
        debug_assert_eq!(self.nbits, other.nbits, "length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// Number of positions where `self` and `other` differ: `|self XOR other|`.
    ///
    /// For binary data this equals the squared Frobenius distance, i.e. the
    /// reconstruction error of the paper restricted to these positions.
    #[inline]
    pub fn xor_count(&self, other: &BitVec) -> usize {
        debug_assert_eq!(self.nbits, other.nbits, "length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Number of positions where both are one: `|self ∧ other|`.
    #[inline]
    pub fn and_count(&self, other: &BitVec) -> usize {
        debug_assert_eq!(self.nbits, other.nbits, "length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Returns a new vector equal to `self ∨ other`.
    pub fn or(&self, other: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.or_assign(other);
        out
    }

    /// Returns a new vector equal to `self ∧ other`.
    pub fn and(&self, other: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.and_assign(other);
        out
    }

    /// Iterates over the indices of the one-bits, in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let base = wi * WORD_BITS;
            std::iter::successors(if w != 0 { Some(w) } else { None }, |&rem| {
                let next = rem & (rem - 1);
                (next != 0).then_some(next)
            })
            .map(move |rem| base + rem.trailing_zeros() as usize)
        })
    }

    /// Extracts up to 64 bits starting at `start` as a `u64` mask
    /// (bit `b` of the result is bit `start + b` of the vector).
    ///
    /// Used to turn a factor-matrix row restricted to a cache-table group
    /// into a table key (Section III-F of the paper uses a bitwise AND of
    /// such masks as the key).
    ///
    /// # Panics
    ///
    /// Panics if `len > 64` or `start + len > self.len()`.
    pub fn extract_word(&self, start: usize, len: usize) -> u64 {
        assert!(start + len <= self.nbits, "range out of bounds");
        Self::extract_word_in(&self.words, start, len)
    }

    /// [`BitVec::extract_word`] over bare packed words (bit `i` is bit
    /// `i % 64` of `words[i / 64]`), for rows held outside a `BitVec`,
    /// such as a [`BitMatrix`](crate::BitMatrix) row or a flat cache table.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64` or the range runs past the end of `words`.
    #[inline]
    pub fn extract_word_in(words: &[u64], start: usize, len: usize) -> u64 {
        assert!(len <= 64, "can extract at most 64 bits");
        if len == 0 {
            return 0;
        }
        let wi = start / WORD_BITS;
        let off = start % WORD_BITS;
        let lo = words[wi] >> off;
        let value = if off + len > WORD_BITS {
            lo | (words[wi + 1] << (WORD_BITS - off))
        } else {
            lo
        };
        if len == 64 {
            value
        } else {
            value & ((1u64 << len) - 1)
        }
    }

    /// Copies the bit range `[start, start + len)` into a new `BitVec`.
    ///
    /// This is the primitive behind the paper's *vertically sliced* cache
    /// tables for edge blocks (Section III-D, Algorithm 5 line 4).
    pub fn slice(&self, start: usize, len: usize) -> BitVec {
        assert!(start + len <= self.nbits, "slice out of bounds");
        let mut out = BitVec::zeros(len);
        Self::slice_into(&self.words, start, len, &mut out.words);
        out
    }

    /// [`BitVec::slice`] over bare packed words: writes the bit range
    /// `[start, start + len)` of `words` into `out`, which must hold
    /// `len.div_ceil(64)` words. Bits past `len` in the last word come out
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of `words`.
    #[inline]
    pub fn slice_into(words: &[u64], start: usize, len: usize, out: &mut [u64]) {
        debug_assert_eq!(out.len(), words_for(len), "output word count");
        for (w, out_word) in out.iter_mut().enumerate() {
            let take = (len - w * WORD_BITS).min(WORD_BITS);
            *out_word = Self::extract_word_in(words, start + w * WORD_BITS, take);
        }
    }

    /// Counts ones within the bit range `[start, start + len)`.
    pub fn count_range(&self, start: usize, len: usize) -> usize {
        assert!(start + len <= self.nbits, "range out of bounds");
        Self::count_range_in(&self.words, start, len)
    }

    /// [`BitVec::count_range`] over bare packed words.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of `words`.
    #[inline]
    pub fn count_range_in(words: &[u64], start: usize, len: usize) -> usize {
        let mut count = 0usize;
        let mut pos = start;
        let end = start + len;
        while pos < end {
            let take = (end - pos).min(WORD_BITS);
            count += Self::extract_word_in(words, pos, take).count_ones() as usize;
            pos += take;
        }
        count
    }

    /// Density of ones: `count_ones() / len()` (0.0 for empty vectors).
    pub fn density(&self) -> f64 {
        if self.nbits == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.nbits as f64
        }
    }

    /// Clears bits at positions `len()..` of the final word.
    fn mask_tail(&mut self) {
        let rem = self.nbits % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.nbits)?;
        for i in 0..self.nbits.min(128) {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.nbits > 128 {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(70);
        assert_eq!(z.len(), 70);
        assert_eq!(z.count_ones(), 0);
        let o = BitVec::ones(70);
        assert_eq!(o.count_ones(), 70);
        // Tail bits past 70 must not be set.
        assert_eq!(o.words()[1].count_ones(), 6);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut v = BitVec::zeros(130);
        for i in [0, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!v.get(i));
            v.set(i, true);
            assert!(v.get(i));
        }
        assert_eq!(v.count_ones(), 8);
        v.set(64, false);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 7);
    }

    #[test]
    fn boolean_sum_is_or() {
        let a = BitVec::from_indices(10, &[1, 3, 5]);
        let b = BitVec::from_indices(10, &[3, 4]);
        let c = a.or(&b);
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), vec![1, 3, 4, 5]);
        // 1 ⊕ 1 = 1: position 3 present once.
        assert_eq!(c.count_ones(), 4);
    }

    #[test]
    fn xor_count_is_hamming() {
        let a = BitVec::from_indices(100, &[0, 50, 99]);
        let b = BitVec::from_indices(100, &[0, 51, 99]);
        assert_eq!(a.xor_count(&b), 2);
        assert_eq!(a.xor_count(&a), 0);
    }

    #[test]
    fn and_count_counts_intersection() {
        let a = BitVec::from_indices(100, &[0, 10, 64, 65]);
        let b = BitVec::from_indices(100, &[10, 64, 90]);
        assert_eq!(a.and_count(&b), 2);
    }

    #[test]
    fn iter_ones_in_order() {
        let idx = [0usize, 2, 63, 64, 100, 127];
        let v = BitVec::from_indices(128, &idx);
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), idx.to_vec());
    }

    #[test]
    fn iter_ones_empty_and_full() {
        assert_eq!(BitVec::zeros(65).iter_ones().count(), 0);
        assert_eq!(BitVec::ones(65).iter_ones().count(), 65);
    }

    #[test]
    fn extract_word_within_one_word() {
        let v = BitVec::from_indices(64, &[0, 3, 10]);
        assert_eq!(v.extract_word(0, 4), 0b1001);
        assert_eq!(v.extract_word(3, 8), 0b10000001);
        assert_eq!(v.extract_word(0, 64), (1 << 0) | (1 << 3) | (1 << 10));
    }

    #[test]
    fn extract_word_across_boundary() {
        let v = BitVec::from_indices(128, &[62, 63, 64, 70]);
        // Bits 62, 63, 64 set; bit 65 unset.
        assert_eq!(v.extract_word(62, 4), 0b0111);
        assert_eq!(v.extract_word(62, 9), 0b100000111);
        assert_eq!(v.extract_word(60, 3), 0b100);
    }

    #[test]
    fn extract_word_zero_len() {
        let v = BitVec::ones(10);
        assert_eq!(v.extract_word(5, 0), 0);
    }

    #[test]
    fn slice_matches_manual_bits() {
        let idx = [1usize, 5, 64, 65, 130, 199];
        let v = BitVec::from_indices(200, &idx);
        let s = v.slice(60, 80);
        let expected: Vec<usize> = idx
            .iter()
            .filter(|&&i| (60..140).contains(&i))
            .map(|&i| i - 60)
            .collect();
        assert_eq!(s.len(), 80);
        assert_eq!(s.iter_ones().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn count_range_agrees_with_slice() {
        let v = BitVec::from_indices(300, &[0, 63, 64, 128, 200, 299]);
        for (start, len) in [(0, 300), (0, 64), (63, 2), (100, 150), (299, 1), (150, 0)] {
            assert_eq!(v.count_range(start, len), v.slice(start, len).count_ones());
        }
    }

    #[test]
    fn word_slice_forms_agree_with_bitvec() {
        let v = BitVec::from_indices(300, &[0, 63, 64, 128, 200, 299]);
        for (start, len) in [(0, 300), (0, 64), (63, 2), (100, 150), (299, 1), (150, 0)] {
            assert_eq!(
                BitVec::count_range_in(v.words(), start, len),
                v.count_range(start, len)
            );
            let mut out = vec![!0u64; len.div_ceil(64)];
            BitVec::slice_into(v.words(), start, len, &mut out);
            assert_eq!(out, v.slice(start, len).words());
            let short = len.min(64);
            assert_eq!(
                BitVec::extract_word_in(v.words(), start, short),
                v.extract_word(start, short)
            );
        }
    }

    #[test]
    fn from_words_masks_tail() {
        let v = BitVec::from_words(3, vec![!0u64]);
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    fn density() {
        assert_eq!(BitVec::zeros(0).density(), 0.0);
        assert_eq!(BitVec::ones(10).density(), 1.0);
        assert_eq!(BitVec::from_indices(10, &[0]).density(), 0.1);
    }
}
