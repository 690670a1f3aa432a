//! Factor sets and random initialization.

use dbtf_tensor::reconstruct;
use dbtf_tensor::{BitMatrix, BoolTensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{DbtfConfig, InitStrategy};

/// One set of Boolean CP factor matrices `(A ∈ B^{I×R}, B ∈ B^{J×R},
/// C ∈ B^{K×R})`.
#[derive(Clone, Debug, PartialEq)]
pub struct FactorSet {
    /// Mode-1 factor (`I × R`).
    pub a: BitMatrix,
    /// Mode-2 factor (`J × R`).
    pub b: BitMatrix,
    /// Mode-3 factor (`K × R`).
    pub c: BitMatrix,
}

impl FactorSet {
    /// The rank `R` shared by the three factors.
    pub fn rank(&self) -> usize {
        self.a.cols()
    }

    /// Materializes the Boolean CP reconstruction `⊕_r a_r ∘ b_r ∘ c_r`.
    pub fn reconstruct(&self) -> BoolTensor {
        reconstruct::reconstruct(&self.a, &self.b, &self.c)
    }

    /// Reconstruction error `|X ⊕ X̃|` against an input tensor.
    pub fn error(&self, x: &BoolTensor) -> usize {
        reconstruct::reconstruction_error(x, &self.a, &self.b, &self.c)
    }

    /// Relative reconstruction error `|X ⊕ X̃| / |X|`.
    pub fn relative_error(&self, x: &BoolTensor) -> f64 {
        reconstruct::relative_error(x, &self.a, &self.b, &self.c)
    }

    /// Total ones across the three factors (sparsity diagnostic).
    pub fn total_ones(&self) -> usize {
        self.a.count_ones() + self.b.count_ones() + self.c.count_ones()
    }

    /// Checks that the factors fit a `dims` tensor at `rank`. The error
    /// compares both shapes: `factors are I×R/J×R/K×R but this {job} needs
    /// …`.
    pub(crate) fn check_shape(
        &self,
        dims: [usize; 3],
        rank: usize,
        job: &str,
    ) -> Result<(), String> {
        let have = [&self.a, &self.b, &self.c].map(|m| (m.rows(), m.cols()));
        let need = dims.map(|rows| (rows, rank));
        if have == need {
            return Ok(());
        }
        let show = |shape: [(usize, usize); 3]| shape.map(|(r, c)| format!("{r}×{c}")).join("/");
        Err(format!(
            "factors are {} but this {job} needs {}",
            show(have),
            show(need)
        ))
    }
}

fn set_rng(config: &DbtfConfig, l: usize) -> StdRng {
    StdRng::seed_from_u64(config.seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(l as u64 + 1))
}

/// Draws the `L` random initial factor sets of Algorithm 2 line 6, using
/// the configured [`InitStrategy`].
///
/// Deterministic in `config.seed`; set `l` uses the substream
/// `seed ⊕ hash(l)` so adding sets never perturbs earlier ones. Both the
/// distributed driver and the sequential reference call this, which is what
/// makes them bit-for-bit comparable.
pub fn initial_factor_sets(x: &BoolTensor, config: &DbtfConfig) -> Vec<FactorSet> {
    match config.init {
        InitStrategy::Random => random_factor_sets(x.dims(), x.density(), config),
        InitStrategy::FiberSample => (0..config.initial_sets)
            .map(|l| fiber_sample_set(x, config, &mut set_rng(config, l)))
            .collect(),
    }
}

/// Uniform-random factor sets (the [`InitStrategy::Random`] ablation): the
/// factor density follows [`DbtfConfig::effective_init_density`].
pub fn random_factor_sets(dims: [usize; 3], density: f64, config: &DbtfConfig) -> Vec<FactorSet> {
    let p = config.effective_init_density(density);
    (0..config.initial_sets)
        .map(|l| {
            let mut rng = set_rng(config, l);
            FactorSet {
                a: BitMatrix::random(dims[0], config.rank, p, &mut rng),
                b: BitMatrix::random(dims[1], config.rank, p, &mut rng),
                c: BitMatrix::random(dims[2], config.rank, p, &mut rng),
            }
        })
        .collect()
}

/// One fiber-sampled factor set: component `r` seeds `b_{:r}` and `c_{:r}`
/// from the fibers through a random non-zero of `X`; `A` starts all-zero
/// (the first `UpdateFactor` call fills it in from the data).
fn fiber_sample_set(x: &BoolTensor, config: &DbtfConfig, rng: &mut StdRng) -> FactorSet {
    let dims = x.dims();
    let rank = config.rank;
    let mut b = BitMatrix::zeros(dims[1], rank);
    let mut c = BitMatrix::zeros(dims[2], rank);
    let entries = x.entries();
    if !entries.is_empty() {
        for r in 0..rank {
            let [i, j, k] = entries[rng.gen_range(0..entries.len())];
            for jj in x.fiber_mode2(i, k) {
                b.set(jj as usize, r, true); // mode-2 fiber x_{i,:,k}
            }
            for kk in x.fiber_mode3(i, j) {
                c.set(kk as usize, r, true); // mode-3 fiber x_{i,j,:}
            }
        }
    }
    FactorSet {
        a: BitMatrix::zeros(dims[0], rank),
        b,
        c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_sets_deterministic() {
        let cfg = DbtfConfig {
            initial_sets: 3,
            seed: 42,
            ..DbtfConfig::with_rank(4)
        };
        let a = random_factor_sets([5, 6, 7], 0.1, &cfg);
        let b = random_factor_sets([5, 6, 7], 0.1, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert_ne!(a[0], a[1], "distinct sets must differ (w.h.p.)");
    }

    #[test]
    fn adding_sets_preserves_prefix() {
        let cfg1 = DbtfConfig {
            initial_sets: 1,
            ..DbtfConfig::with_rank(3)
        };
        let cfg2 = DbtfConfig {
            initial_sets: 4,
            ..cfg1.clone()
        };
        let one = random_factor_sets([4, 4, 4], 0.2, &cfg1);
        let four = random_factor_sets([4, 4, 4], 0.2, &cfg2);
        assert_eq!(one[0], four[0]);
    }

    #[test]
    fn factor_shapes() {
        let cfg = DbtfConfig::with_rank(5);
        let sets = random_factor_sets([3, 9, 2], 0.3, &cfg);
        let f = &sets[0];
        assert_eq!((f.a.rows(), f.a.cols()), (3, 5));
        assert_eq!((f.b.rows(), f.b.cols()), (9, 5));
        assert_eq!((f.c.rows(), f.c.cols()), (2, 5));
        assert_eq!(f.rank(), 5);
    }

    #[test]
    fn error_of_exact_reconstruction() {
        let cfg = DbtfConfig::with_rank(2);
        let f = random_factor_sets([4, 4, 4], 0.4, &cfg).remove(0);
        let x = f.reconstruct();
        assert_eq!(f.error(&x), 0);
        assert_eq!(f.relative_error(&x), 0.0);
    }
}
