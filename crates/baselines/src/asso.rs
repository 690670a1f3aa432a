//! The ASSO Boolean matrix factorization (Miettinen et al., *The Discrete
//! Basis Problem*, TKDE 2008).
//!
//! Given a binary matrix `X ∈ B^{n×m}` and a rank `R`, ASSO finds a usage
//! matrix `U ∈ B^{n×R}` and a basis matrix `B ∈ B^{R×m}` such that
//! `U ∘ B ≈ X`:
//!
//! 1. **Candidate generation**: the column-association matrix
//!    `A ∈ [0,1]^{m×m}` with `a_{jl} = |x_{:j} ∧ x_{:l}| / |x_{:j}|`
//!    (confidence that column `l` is one where column `j` is), thresholded
//!    at `τ`, yields one candidate basis row per column. This is the
//!    `O(m²)` structure — BCP_ALS applies ASSO to unfolded tensors where
//!    `m = J·K`, which is what blows up its memory (DBTF paper §II-B2).
//! 2. **Greedy selection**: `R` times, pick the candidate (with its
//!    optimal per-row usage) maximizing the cover gain
//!    `w⁺·(newly covered 1s) − w⁻·(newly covered 0s)`.

use dbtf_tensor::{BitMatrix, BitVec};

use crate::{BaselineError, Deadline};

/// ASSO parameters. The DBTF paper's experiments use `τ = 0.7` and default
/// weights (`w⁺ = w⁻ = 1`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AssoConfig {
    /// Rank `R` (number of basis vectors).
    pub rank: usize,
    /// Association confidence threshold `τ` for discretization.
    pub threshold: f64,
    /// Reward for covering a 1.
    pub weight_cover: f64,
    /// Penalty for covering a 0.
    pub weight_overcover: f64,
    /// Modeled memory budget; `None` disables the check.
    pub memory_budget_bytes: Option<u64>,
}

impl Default for AssoConfig {
    fn default() -> Self {
        AssoConfig {
            rank: 10,
            threshold: 0.7,
            weight_cover: 1.0,
            weight_overcover: 1.0,
            memory_budget_bytes: None,
        }
    }
}

/// The factorization ASSO returns.
#[derive(Clone, Debug)]
pub struct AssoResult {
    /// Usage matrix `U ∈ B^{n×R}`.
    pub usage: BitMatrix,
    /// Basis matrix `B ∈ B^{R×m}`.
    pub basis: BitMatrix,
    /// `|X ⊕ U ∘ B|`.
    pub error: u64,
}

/// Bytes the candidate/association structures need for `m` columns and
/// `n` rows: the `m × m` candidate bit matrix plus per-column row sets.
pub fn asso_memory_estimate(n: usize, m: usize) -> u64 {
    // u128 internally: m = J·K of an unfolded tensor can make m² overflow
    // u64 (e.g. NELL-L's 2.4 × 10¹⁰ columns). Saturate — anything that
    // large is far past every budget anyway.
    let candidates = (m as u128 * m as u128).div_ceil(8);
    let columns = (m as u128 * n as u128).div_ceil(8);
    (candidates + columns).min(u64::MAX as u128) as u64
}

/// Runs ASSO on a sparse row-major binary matrix.
///
/// `rows[i]` lists the sorted one-columns of row `i`; `m` is the column
/// count. Returns an error if the memory model or the deadline trips.
pub fn asso(
    rows: &[&[u64]],
    m: usize,
    config: &AssoConfig,
    deadline: Option<&Deadline>,
) -> Result<AssoResult, BaselineError> {
    if config.rank == 0 {
        return Err(BaselineError::InvalidConfig("rank must be ≥ 1".into()));
    }
    if !(0.0..=1.0).contains(&config.threshold) {
        return Err(BaselineError::InvalidConfig(
            "threshold must be in [0, 1]".into(),
        ));
    }
    let n = rows.len();
    if let Some(budget) = config.memory_budget_bytes {
        let required = asso_memory_estimate(n, m);
        if required > budget {
            return Err(BaselineError::OutOfMemory {
                required_bytes: required,
                budget_bytes: budget,
                phase: "ASSO column-association matrix",
            });
        }
    }

    // Column sets: x_{:j} as row bit sets (n bits each).
    let mut columns: Vec<BitVec> = (0..m).map(|_| BitVec::zeros(n)).collect();
    for (i, row) in rows.iter().enumerate() {
        for &j in row.iter() {
            columns[j as usize].set(i, true);
        }
    }
    let col_pop: Vec<usize> = columns.iter().map(BitVec::count_ones).collect();

    // Candidate basis rows from the thresholded association matrix.
    let mut candidates: Vec<BitVec> = Vec::with_capacity(m);
    for j in 0..m {
        if let Some(d) = deadline {
            if d.expired() {
                return Err(BaselineError::OutOfTime);
            }
        }
        let mut cand = BitVec::zeros(m);
        if col_pop[j] > 0 {
            for l in 0..m {
                let inter = columns[j].and_count(&columns[l]);
                if inter as f64 >= config.threshold * col_pop[j] as f64 {
                    cand.set(l, true);
                }
            }
        }
        candidates.push(cand);
    }

    // Greedy cover: R rounds of (candidate, usage) selection.
    let mut usage = BitMatrix::zeros(n, config.rank);
    let mut basis = BitMatrix::zeros(config.rank, m);
    // covered[i] = columns of row i already covered by selected factors.
    let mut covered: Vec<BitVec> = (0..n).map(|_| BitVec::zeros(m)).collect();
    let row_sets: Vec<BitVec> = rows
        .iter()
        .map(|r| {
            let mut v = BitVec::zeros(m);
            for &j in r.iter() {
                v.set(j as usize, true);
            }
            v
        })
        .collect();

    for r in 0..config.rank {
        if let Some(d) = deadline {
            if d.expired() {
                return Err(BaselineError::OutOfTime);
            }
        }
        let mut best: Option<(f64, usize, BitVec)> = None;
        for (cand_idx, cand) in candidates.iter().enumerate() {
            if cand.count_ones() == 0 {
                continue;
            }
            let mut gain = 0.0f64;
            let mut u = BitVec::zeros(n);
            for i in 0..n {
                // Newly covered cells in row i: cand ∧ ¬covered[i],
                // word-wise to avoid per-pair allocations.
                let (mut ones, mut fresh_total) = (0u64, 0u64);
                for ((&cw, &vw), &rw) in cand
                    .words()
                    .iter()
                    .zip(covered[i].words())
                    .zip(row_sets[i].words())
                {
                    let fresh = cw & !vw;
                    fresh_total += fresh.count_ones() as u64;
                    ones += (fresh & rw).count_ones() as u64;
                }
                let zeros = fresh_total - ones;
                let g = config.weight_cover * ones as f64 - config.weight_overcover * zeros as f64;
                if g > 0.0 {
                    gain += g;
                    u.set(i, true);
                }
            }
            if best.as_ref().is_none_or(|(bg, _, _)| gain > *bg) {
                best = Some((gain, cand_idx, u));
            }
        }
        let Some((gain, cand_idx, u)) = best else {
            break; // no usable candidates (e.g. an all-zero matrix)
        };
        if gain <= 0.0 {
            break; // remaining factors would only hurt
        }
        for (i, cov) in covered.iter_mut().enumerate() {
            if u.get(i) {
                usage.set(i, r, true);
                cov.or_assign(&candidates[cand_idx]);
            }
        }
        let cand = candidates[cand_idx].clone();
        for l in cand.iter_ones() {
            basis.set(r, l, true);
        }
    }

    // Error = Σ_rows |x_i ⊕ covered_i| (covered rows are exactly U ∘ B).
    let mut error = 0u64;
    for i in 0..n {
        error += row_sets[i].xor_count(&covered[i]) as u64;
    }
    Ok(AssoResult {
        usage,
        basis,
        error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtf_tensor::ops::bool_matmul;

    fn dense_rows(m: &BitMatrix) -> Vec<Vec<u64>> {
        (0..m.rows())
            .map(|r| m.iter_row_ones(r).map(|c| c as u64).collect())
            .collect()
    }

    fn as_slices(rows: &[Vec<u64>]) -> Vec<&[u64]> {
        rows.iter().map(|v| v.as_slice()).collect()
    }

    #[test]
    fn recovers_exact_block_structure() {
        // X = two disjoint combinatorial blocks → rank-2 exact.
        let mut x = BitMatrix::zeros(6, 8);
        for i in 0..3 {
            for j in 0..4 {
                x.set(i, j, true);
                x.set(i + 3, j + 4, true);
            }
        }
        let cfg = AssoConfig {
            rank: 2,
            ..AssoConfig::default()
        };
        let res = asso(&as_slices(&dense_rows(&x)), 8, &cfg, None).unwrap();
        assert_eq!(
            res.error, 0,
            "usage:\n{:?}\nbasis:\n{:?}",
            res.usage, res.basis
        );
        // And U ∘ B really reconstructs X.
        assert_eq!(bool_matmul(&res.usage, &res.basis), x);
    }

    #[test]
    fn error_matches_reconstruction() {
        let mut x = BitMatrix::zeros(5, 7);
        for (i, j) in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 3), (3, 5), (4, 6)] {
            x.set(i, j, true);
        }
        let cfg = AssoConfig {
            rank: 3,
            ..AssoConfig::default()
        };
        let res = asso(&as_slices(&dense_rows(&x)), 7, &cfg, None).unwrap();
        let recon = bool_matmul(&res.usage, &res.basis);
        assert_eq!(res.error, x.xor_count(&recon) as u64);
    }

    #[test]
    fn rank_one_covers_densest_block() {
        let mut x = BitMatrix::zeros(4, 4);
        for i in 0..3 {
            for j in 0..3 {
                x.set(i, j, true);
            }
        }
        x.set(3, 3, true); // lone out-of-block one
        let cfg = AssoConfig {
            rank: 1,
            ..AssoConfig::default()
        };
        let res = asso(&as_slices(&dense_rows(&x)), 4, &cfg, None).unwrap();
        // The 3×3 block is covered; the lone 1 remains an error.
        assert_eq!(res.error, 1);
    }

    #[test]
    fn memory_budget_trips() {
        let x = BitMatrix::zeros(10, 100);
        let cfg = AssoConfig {
            rank: 2,
            memory_budget_bytes: Some(64),
            ..AssoConfig::default()
        };
        match asso(&as_slices(&dense_rows(&x)), 100, &cfg, None) {
            Err(BaselineError::OutOfMemory { phase, .. }) => {
                assert!(phase.contains("association"));
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn deadline_trips() {
        let mut x = BitMatrix::zeros(20, 60);
        for i in 0..20 {
            for j in 0..60 {
                if (i + j) % 3 == 0 {
                    x.set(i, j, true);
                }
            }
        }
        let cfg = AssoConfig {
            rank: 5,
            ..AssoConfig::default()
        };
        let deadline = Deadline::in_secs(0.0);
        assert_eq!(
            asso(&as_slices(&dense_rows(&x)), 60, &cfg, Some(&deadline)).unwrap_err(),
            BaselineError::OutOfTime
        );
    }

    #[test]
    fn empty_matrix() {
        let rows: Vec<Vec<u64>> = vec![Vec::new(); 4];
        let rows = as_slices(&rows);
        let cfg = AssoConfig {
            rank: 2,
            ..AssoConfig::default()
        };
        let res = asso(&rows, 5, &cfg, None).unwrap();
        assert_eq!(res.error, 0);
        assert_eq!(res.usage.count_ones(), 0);
    }

    #[test]
    fn rejects_bad_config() {
        let rows: Vec<Vec<u64>> = vec![vec![0]];
        let rows = as_slices(&rows);
        let cfg = AssoConfig {
            rank: 0,
            ..AssoConfig::default()
        };
        assert!(matches!(
            asso(&rows, 1, &cfg, None),
            Err(BaselineError::InvalidConfig(_))
        ));
    }
}
