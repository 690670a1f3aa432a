//! Planted-factorization tensors for the reconstruction-error experiments
//! (paper Section IV-D).

use dbtf_tensor::reconstruct::reconstruct;
use dbtf_tensor::{BitMatrix, BoolTensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::noise::{add_noise, NoiseSpec};

/// Parameters of a planted tensor: the four axes the paper's error
/// experiments sweep (factor density, rank, additive noise, destructive
/// noise), "when we vary one aspect, others are fixed".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlantedConfig {
    /// Tensor shape.
    pub dims: [usize; 3],
    /// Number of planted rank-1 components.
    pub rank: usize,
    /// Density of the ground-truth factor matrices.
    pub factor_density: f64,
    /// Noise applied to the noise-free tensor.
    pub noise: NoiseSpec,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PlantedConfig {
    /// The paper's *Synthetic-error* base point (Table III, scaled): a
    /// rank-10 cube with 0.2-dense factors and 10% additive noise.
    fn default() -> Self {
        PlantedConfig {
            dims: [64, 64, 64],
            rank: 10,
            factor_density: 0.2,
            noise: NoiseSpec::additive(0.10),
            seed: 0,
        }
    }
}

/// A planted tensor together with its ground truth.
#[derive(Clone, Debug)]
pub struct PlantedTensor {
    /// The observed (noisy) tensor.
    pub tensor: BoolTensor,
    /// The noise-free tensor the factors generate.
    pub clean: BoolTensor,
    /// Ground-truth factors `(A, B, C)`.
    pub factors: (BitMatrix, BitMatrix, BitMatrix),
    /// The generating configuration.
    pub config: PlantedConfig,
}

impl PlantedTensor {
    /// Draws ground-truth factors, reconstructs the noise-free tensor and
    /// applies the configured noise.
    pub fn generate(config: PlantedConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let a = BitMatrix::random(config.dims[0], config.rank, config.factor_density, &mut rng);
        let b = BitMatrix::random(config.dims[1], config.rank, config.factor_density, &mut rng);
        let c = BitMatrix::random(config.dims[2], config.rank, config.factor_density, &mut rng);
        let clean = reconstruct(&a, &b, &c);
        let tensor = add_noise(&clean, config.noise, config.seed ^ 0x5eed);
        PlantedTensor {
            tensor,
            clean,
            factors: (a, b, c),
            config,
        }
    }

    /// The reconstruction error an oracle that knows the true factors
    /// achieves on the noisy tensor — exactly the injected noise. A
    /// factorization method "wins" when it approaches this floor.
    pub fn oracle_error(&self) -> usize {
        self.tensor.xor_count(&self.clean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_free_generation_is_exact() {
        let p = PlantedTensor::generate(PlantedConfig {
            dims: [16, 16, 16],
            rank: 3,
            factor_density: 0.3,
            noise: NoiseSpec::none(),
            seed: 1,
        });
        assert_eq!(p.tensor, p.clean);
        assert_eq!(p.oracle_error(), 0);
        let (a, b, c) = &p.factors;
        assert_eq!(reconstruct(a, b, c), p.clean);
    }

    #[test]
    fn oracle_error_equals_injected_noise() {
        let p = PlantedTensor::generate(PlantedConfig {
            dims: [16, 16, 16],
            rank: 3,
            factor_density: 0.3,
            noise: NoiseSpec {
                additive: 0.10,
                destructive: 0.05,
            },
            seed: 2,
        });
        let n = p.clean.nnz();
        let expect = (n as f64 * 0.10).round() as usize + (n as f64 * 0.05).round() as usize;
        assert_eq!(p.oracle_error(), expect);
    }

    #[test]
    fn deterministic() {
        let cfg = PlantedConfig {
            seed: 77,
            ..PlantedConfig::default()
        };
        let a = PlantedTensor::generate(cfg);
        let b = PlantedTensor::generate(cfg);
        assert_eq!(a.tensor, b.tensor);
    }

    #[test]
    fn density_scales_with_factor_density() {
        let sparse = PlantedTensor::generate(PlantedConfig {
            dims: [24, 24, 24],
            factor_density: 0.1,
            noise: NoiseSpec::none(),
            seed: 3,
            rank: 5,
        });
        let dense = PlantedTensor::generate(PlantedConfig {
            dims: [24, 24, 24],
            factor_density: 0.3,
            noise: NoiseSpec::none(),
            seed: 3,
            rank: 5,
        });
        assert!(dense.tensor.nnz() > sparse.tensor.nnz());
    }
}
