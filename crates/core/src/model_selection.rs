//! Rank selection for Boolean CP factorizations.
//!
//! The Boolean rank of a tensor is NP-hard even to approximate, and the
//! paper (like its baselines) takes the target rank `R` as an input. In
//! practice a user has to pick it; the standard tool in the Boolean
//! factorization literature (e.g. Walk'n'Merge's ordering step) is the
//! **MDL principle**: choose the rank minimizing the total description
//! length of the model plus the error it leaves unexplained.
//!
//! We use the crude-but-effective two-part code common in Boolean matrix
//! factorization work:
//!
//! ```text
//! DL(R) = L(factors) + L(error)
//! L(factors) = Σ_r (|a_r|·log₂ I + |b_r|·log₂ J + |c_r|·log₂ K)   (index lists)
//! L(error)   = |X ⊕ X̃| · log₂(I·J·K)                              (cell list)
//! ```
//!
//! Sparse factors are cheap, every uncorrected cell costs one coordinate —
//! so extra components pay for themselves only while they remove more
//! error than they add model. The minimum over a candidate sweep is a
//! principled rank estimate.

use dbtf_cluster::ExecutionBackend;
use dbtf_tensor::BoolTensor;

use crate::config::{DbtfConfig, DbtfError};
use crate::driver::factorize;
use crate::factors::FactorSet;

/// One candidate rank's outcome in a [`select_rank`] sweep.
#[derive(Clone, Debug)]
pub struct RankCandidate {
    /// The rank tried.
    pub rank: usize,
    /// Reconstruction error at that rank.
    pub error: u64,
    /// Description length in bits (lower is better).
    pub description_length: f64,
}

/// Outcome of a rank-selection sweep.
#[derive(Clone, Debug)]
pub struct RankSelection {
    /// Every candidate, in sweep order.
    pub candidates: Vec<RankCandidate>,
    /// The MDL-optimal rank.
    pub best_rank: usize,
    /// The factorization at the best rank.
    pub best: FactorSet,
}

/// Description length (bits) of a factor set plus its residual error on
/// `x` (see the module docs for the code).
pub fn description_length(x: &BoolTensor, factors: &FactorSet) -> f64 {
    let [i, j, k] = x.dims();
    let (li, lj, lk) = (
        (i.max(2) as f64).log2(),
        (j.max(2) as f64).log2(),
        (k.max(2) as f64).log2(),
    );
    let cell_bits = li + lj + lk;
    let model = factors.a.count_ones() as f64 * li
        + factors.b.count_ones() as f64 * lj
        + factors.c.count_ones() as f64 * lk;
    let error = factors.error(x) as f64 * cell_bits;
    model + error
}

/// Factorizes `x` at each candidate rank and returns the MDL-optimal one.
///
/// Each candidate reuses `base` with only the rank replaced, so the sweep
/// is deterministic and comparable. Candidates must be non-empty and
/// non-zero.
pub fn select_rank<B: ExecutionBackend>(
    backend: &B,
    x: &BoolTensor,
    candidate_ranks: &[usize],
    base: &DbtfConfig,
) -> Result<RankSelection, DbtfError> {
    if candidate_ranks.is_empty() {
        return Err(DbtfError::InvalidConfig(
            "need at least one candidate rank".into(),
        ));
    }
    let mut candidates = Vec::with_capacity(candidate_ranks.len());
    let mut best: Option<(f64, usize, FactorSet)> = None;
    for &rank in candidate_ranks {
        let config = DbtfConfig {
            rank,
            ..base.clone()
        };
        let result = factorize(backend, x, &config)?;
        let dl = description_length(x, &result.factors);
        candidates.push(RankCandidate {
            rank,
            error: result.error,
            description_length: dl,
        });
        if best.as_ref().is_none_or(|(bdl, _, _)| dl < *bdl) {
            best = Some((dl, rank, result.factors));
        }
    }
    let (_, best_rank, best) = best.expect("at least one candidate");
    Ok(RankSelection {
        candidates,
        best_rank,
        best,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtf_cluster::{Cluster, ClusterConfig};
    use dbtf_tensor::BitMatrix;

    fn block_tensor(nblocks: usize) -> BoolTensor {
        let mut entries = Vec::new();
        for b in 0..nblocks as u32 {
            let base = b * 5;
            for i in 0..4u32 {
                for j in 0..4u32 {
                    for k in 0..4u32 {
                        entries.push([base + i, base + j, base + k]);
                    }
                }
            }
        }
        let dim = nblocks * 5;
        BoolTensor::from_entries([dim, dim, dim], entries)
    }

    #[test]
    fn description_length_prefers_exact_sparse_models() {
        let x = block_tensor(2);
        // Exact rank-2 model.
        let dim = x.dims()[0];
        let mut a = BitMatrix::zeros(dim, 2);
        for b in 0..2 {
            for i in 0..4 {
                a.set(b * 5 + i, b, true);
            }
        }
        let exact = FactorSet {
            a: a.clone(),
            b: a.clone(),
            c: a.clone(),
        };
        assert_eq!(exact.error(&x), 0);
        // The empty model pays for every uncovered one.
        let empty = FactorSet {
            a: BitMatrix::zeros(dim, 2),
            b: BitMatrix::zeros(dim, 2),
            c: BitMatrix::zeros(dim, 2),
        };
        assert!(
            description_length(&x, &exact) < description_length(&x, &empty),
            "exact model must beat the empty model"
        );
    }

    #[test]
    fn select_rank_finds_the_planted_rank() {
        let x = block_tensor(3);
        let cluster = Cluster::new(ClusterConfig::with_workers(2));
        let base = DbtfConfig {
            initial_sets: 10,
            seed: 1,
            ..DbtfConfig::default()
        };
        let sel = select_rank(&cluster, &x, &[1, 2, 3, 5], &base).unwrap();
        assert_eq!(sel.best_rank, 3, "candidates: {:#?}", sel.candidates);
        assert_eq!(sel.best.error(&x), 0);
        // DL at the planted rank must be the sweep minimum.
        let best_dl = sel
            .candidates
            .iter()
            .map(|c| c.description_length)
            .fold(f64::INFINITY, f64::min);
        let at3 = sel
            .candidates
            .iter()
            .find(|c| c.rank == 3)
            .unwrap()
            .description_length;
        assert_eq!(at3, best_dl);
    }

    #[test]
    fn rejects_empty_candidates() {
        let x = block_tensor(1);
        let cluster = Cluster::new(ClusterConfig::with_workers(1));
        assert!(select_rank(&cluster, &x, &[], &DbtfConfig::default()).is_err());
    }
}
