//! Slow, obviously-correct oracles for the serving layer's query API.
//!
//! `crates/serve` answers reconstruction queries with bit-packed row
//! intersections and precomputed column weights. The oracles here answer
//! the *same questions* from first principles — a point is a lookup in
//! the materialized cell-by-cell reconstruction
//! ([`crate::oracles::cp_reconstruct`]), a slice is a plain scan of that
//! tensor, and a topk weight is a literal double loop counting the cells
//! a column contributes — sharing no code with the serving engine beyond
//! element accessors. The serving differential tests replay a seeded
//! query sweep through a live `dbtf serve` process and require bit-exact
//! agreement with these functions.

use dbtf_tensor::{BitMatrix, BoolTensor};

/// Was cell `X̃[i, j, k]` set? A direct membership test against the
/// materialized reconstruction.
pub fn serving_point(recon: &BoolTensor, i: usize, j: usize, k: usize) -> bool {
    recon.contains(i as u32, j as u32, k as u32)
}

/// The nonzero indices of one fiber of the materialized reconstruction:
/// `free_mode` is the axis left free (0, 1, or 2) and `lo`/`hi` are the
/// fixed indices of the other two modes in ascending mode order —
/// matching the serving engine's `slice` convention.
pub fn serving_slice(recon: &BoolTensor, free_mode: usize, lo: usize, hi: usize) -> Vec<usize> {
    let (lo, hi) = (lo as u32, hi as u32);
    let fiber = match free_mode {
        0 => recon.fiber_mode1(lo, hi),
        1 => recon.fiber_mode2(lo, hi),
        2 => recon.fiber_mode3(lo, hi),
        other => panic!("free_mode {other} out of range"),
    };
    fiber.into_iter().map(|t| t as usize).collect()
}

/// The strongest factor columns for entity `entity` of `mode` (0 = A,
/// 1 = B, 2 = C): every column set in the entity's factor row, weighted
/// by the number of cells the column contributes in the entity's slice —
/// counted with a literal double loop over the other two factors — then
/// ranked by weight descending, ties by column ascending, truncated to
/// `k`.
pub fn serving_topk(
    a: &BitMatrix,
    b: &BitMatrix,
    c: &BitMatrix,
    mode: usize,
    entity: usize,
    k: usize,
) -> Vec<(usize, u64)> {
    let rank = a.cols();
    assert!(
        b.cols() == rank && c.cols() == rank,
        "factor ranks must agree"
    );
    let (own, other1, other2) = match mode {
        0 => (a, b, c),
        1 => (b, a, c),
        2 => (c, a, b),
        other => panic!("mode {other} out of range"),
    };
    let mut ranked: Vec<(usize, u64)> = (0..rank)
        .filter(|&r| own.get(entity, r))
        .map(|r| {
            let mut cells = 0u64;
            for s in 0..other1.rows() {
                for t in 0..other2.rows() {
                    if other1.get(s, r) && other2.get(t, r) {
                        cells += 1;
                    }
                }
            }
            (r, cells)
        })
        .collect();
    ranked.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
    ranked.truncate(k);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracles::cp_reconstruct;

    /// A = [[1,1],[0,1],[0,0]], B = [[1,0],[1,1]], C = [[0,1],[1,1],[1,0]].
    fn fixture() -> (BitMatrix, BitMatrix, BitMatrix) {
        (
            BitMatrix::from_rows(3, 2, &[&[0, 1], &[1], &[]]),
            BitMatrix::from_rows(2, 2, &[&[0], &[0, 1]]),
            BitMatrix::from_rows(3, 2, &[&[1], &[0, 1], &[0]]),
        )
    }

    #[test]
    fn point_and_slice_agree_with_the_reconstruction_definition() {
        let (a, b, c) = fixture();
        let recon = cp_reconstruct(&a, &b, &c);
        for i in 0..3 {
            for j in 0..2 {
                for k in 0..3 {
                    let expect = (0..2).any(|r| a.get(i, r) && b.get(j, r) && c.get(k, r));
                    assert_eq!(serving_point(&recon, i, j, k), expect, "({i},{j},{k})");
                }
            }
        }
        // Fibers are the point answers along the free axis.
        for k in 0..3 {
            let ones = serving_slice(&recon, 0, 0, k); // free i, fixed j=0, k
            for i in 0..3 {
                assert_eq!(ones.contains(&i), serving_point(&recon, i, 0, k));
            }
        }
        assert_eq!(serving_slice(&recon, 2, 0, 1), vec![0, 1, 2]);
    }

    #[test]
    fn topk_counts_cells_and_ranks_deterministically() {
        let (a, b, c) = fixture();
        // Entity 0 of mode A has both columns set. Column 0 covers
        // |b_0|·|c_0| = 2·2 cells, column 1 covers 1·2.
        assert_eq!(serving_topk(&a, &b, &c, 0, 0, 10), vec![(0, 4), (1, 2)]);
        assert_eq!(serving_topk(&a, &b, &c, 0, 0, 1), vec![(0, 4)]);
        // Entity 2 of mode A has an empty row.
        assert_eq!(serving_topk(&a, &b, &c, 0, 2, 10), vec![]);
        // Mode C entity 0 has only column 1 set; weight |a_1|·|b_1| = 2·1.
        assert_eq!(serving_topk(&a, &b, &c, 2, 0, 10), vec![(1, 2)]);
    }

    #[test]
    fn ties_break_by_column_ascending() {
        // Two identical columns → equal weights; order must be 0 then 1.
        let a = BitMatrix::from_rows(1, 2, &[&[0, 1]]);
        let b = BitMatrix::from_rows(2, 2, &[&[0, 1], &[0, 1]]);
        let c = BitMatrix::from_rows(1, 2, &[&[0, 1]]);
        assert_eq!(serving_topk(&a, &b, &c, 0, 0, 10), vec![(0, 2), (1, 2)]);
    }
}
