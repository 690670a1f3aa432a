//! Rank-R Boolean CP reconstruction and reconstruction error.

use crate::{BitMatrix, BoolTensor, TensorBuilder};

/// Materializes the rank-R Boolean CP reconstruction
/// `X̃ = ⊕_{r=1}^{R} a_{:r} ∘ b_{:r} ∘ c_{:r}` (Equation 10).
///
/// Factors are `A: I × R`, `B: J × R`, `C: K × R`. The result is sparse;
/// the Boolean sum makes overlapping rank-1 blocks union rather than add.
///
/// Cost is `Σ_r |a_{:r}|·|b_{:r}|·|c_{:r}|` insertions plus a sort — fine
/// for the evaluation-scale tensors of Section IV-D, but prefer
/// [`reconstruction_error`]'s streaming variant when only the error is
/// needed.
///
/// # Panics
///
/// Panics if the factors disagree on the rank.
pub fn reconstruct(a: &BitMatrix, b: &BitMatrix, c: &BitMatrix) -> BoolTensor {
    let r = a.cols();
    assert!(
        b.cols() == r && c.cols() == r,
        "factor ranks differ: {} / {} / {}",
        r,
        b.cols(),
        c.cols()
    );
    let mut builder = TensorBuilder::new([a.rows(), b.rows(), c.rows()]);
    for col in 0..r {
        let ais: Vec<usize> = a.column(col).iter_ones().collect();
        let bjs: Vec<usize> = b.column(col).iter_ones().collect();
        let cks: Vec<usize> = c.column(col).iter_ones().collect();
        for &i in &ais {
            for &j in &bjs {
                for &k in &cks {
                    builder.insert(i as u32, j as u32, k as u32);
                }
            }
        }
    }
    builder.build()
}

/// The reconstruction error `|X ⊕ X̃|` — the number of cells at which the
/// input differs from the rank-R reconstruction (Section IV-D's measure;
/// for binary data it equals `‖X − X̃‖²_F`).
pub fn reconstruction_error(x: &BoolTensor, a: &BitMatrix, b: &BitMatrix, c: &BitMatrix) -> usize {
    let x_hat = reconstruct(a, b, c);
    x.xor_count(&x_hat)
}

/// Relative reconstruction error `|X ⊕ X̃| / |X|` ([`error_ratio`] of
/// [`reconstruction_error`]).
pub fn relative_error(x: &BoolTensor, a: &BitMatrix, b: &BitMatrix, c: &BitMatrix) -> f64 {
    error_ratio(reconstruction_error(x, a, b, c) as u64, x.nnz())
}

/// `error / nnz`: the relative error of a reconstruction `error` cells
/// away from an input with `nnz` ones. Returns 0.0 for an all-zero input
/// reconstructed exactly, and positive infinity when `nnz` is 0 but
/// `error` is not.
pub fn error_ratio(error: u64, nnz: usize) -> f64 {
    if error == 0 {
        0.0
    } else if nnz == 0 {
        f64::INFINITY
    } else {
        error as f64 / nnz as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{bool_matmul, khatri_rao};
    use crate::{Mode, Unfolding};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rank1_outer_product() {
        // a = e0+e1 (I=2), b = e0+e2 (J=3), c = e1 (K=2) → 4 ones.
        let a = BitMatrix::from_rows(2, 1, &[&[0][..], &[0][..]]);
        let b = BitMatrix::from_rows(3, 1, &[&[0][..], &[][..], &[0][..]]);
        let c = BitMatrix::from_rows(2, 1, &[&[][..], &[0][..]]);
        let x = reconstruct(&a, &b, &c);
        assert_eq!(x.dims(), [2, 3, 2]);
        assert_eq!(x.nnz(), 4);
        for (i, j) in [(0, 0), (0, 2), (1, 0), (1, 2)] {
            assert!(x.contains(i, j, 1));
        }
    }

    #[test]
    fn boolean_sum_of_rank1_terms_unions() {
        // Two overlapping rank-1 blocks: union, not sum.
        let a = BitMatrix::from_rows(2, 2, &[&[0, 1][..], &[][..]]);
        let b = BitMatrix::from_rows(2, 2, &[&[0, 1][..], &[][..]]);
        let c = BitMatrix::from_rows(2, 2, &[&[0, 1][..], &[][..]]);
        let x = reconstruct(&a, &b, &c);
        assert_eq!(x.nnz(), 1); // both terms produce only (0,0,0)
    }

    #[test]
    fn reconstruction_matches_matricized_form() {
        // X̃_(1) must equal A ∘ (C ⊙ B)ᵀ (Equation 12).
        let mut rng = StdRng::seed_from_u64(11);
        let (i, j, k, r) = (4, 5, 3, 2);
        let a = BitMatrix::random(i, r, 0.5, &mut rng);
        let b = BitMatrix::random(j, r, 0.5, &mut rng);
        let c = BitMatrix::random(k, r, 0.5, &mut rng);
        let x = reconstruct(&a, &b, &c);
        let unf = Unfolding::new(&x, Mode::One);
        let expected = bool_matmul(&a, &khatri_rao(&c, &b).transpose());
        for row in 0..i {
            for col in 0..(j * k) as u64 {
                assert_eq!(
                    unf.get(row, col),
                    expected.get(row, col as usize),
                    "mismatch at ({row}, {col})"
                );
            }
        }
    }

    #[test]
    fn exact_factorization_has_zero_error() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = BitMatrix::random(6, 3, 0.4, &mut rng);
        let b = BitMatrix::random(7, 3, 0.4, &mut rng);
        let c = BitMatrix::random(5, 3, 0.4, &mut rng);
        let x = reconstruct(&a, &b, &c);
        assert_eq!(reconstruction_error(&x, &a, &b, &c), 0);
        assert_eq!(relative_error(&x, &a, &b, &c), 0.0);
    }

    #[test]
    fn error_counts_both_directions() {
        // X has one extra 1 and misses one reconstructed 1.
        let a = BitMatrix::from_rows(2, 1, &[&[0][..], &[][..]]);
        let b = BitMatrix::from_rows(2, 1, &[&[0][..], &[][..]]);
        let c = BitMatrix::from_rows(2, 1, &[&[0][..], &[][..]]);
        // X̃ = {(0,0,0)}. X = {(1,1,1)}.
        let x = BoolTensor::from_entries([2, 2, 2], vec![[1, 1, 1]]);
        assert_eq!(reconstruction_error(&x, &a, &b, &c), 2);
        assert_eq!(relative_error(&x, &a, &b, &c), 2.0);
    }

    #[test]
    fn empty_input_relative_error() {
        let x = BoolTensor::empty([2, 2, 2]);
        let zero = BitMatrix::zeros(2, 1);
        assert_eq!(relative_error(&x, &zero, &zero, &zero), 0.0);
        let ones = BitMatrix::from_rows(2, 1, &[&[0][..], &[0][..]]);
        assert!(relative_error(&x, &ones, &ones, &ones).is_infinite());
    }
}
