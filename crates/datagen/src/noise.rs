//! Additive and destructive noise (paper Section IV-A1).
//!
//! "The amount of noise is determined by the number of 1s in the noise-free
//! tensor. For example, 10% additive noise indicates that we add 10% more
//! 1s to the noise-free tensor, and 5% destructive noise means that we
//! delete 5% of the 1s."

use dbtf_tensor::BoolTensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Noise levels relative to the number of ones of the clean tensor.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NoiseSpec {
    /// Fraction of `|X|` new ones inserted at random zero cells
    /// (e.g. `0.10` = 10% additive noise).
    pub additive: f64,
    /// Fraction of `|X|` existing ones deleted
    /// (e.g. `0.05` = 5% destructive noise).
    pub destructive: f64,
}

impl NoiseSpec {
    /// No noise.
    pub fn none() -> Self {
        NoiseSpec::default()
    }

    /// Only additive noise.
    pub fn additive(level: f64) -> Self {
        NoiseSpec {
            additive: level,
            destructive: 0.0,
        }
    }

    /// Only destructive noise.
    pub fn destructive(level: f64) -> Self {
        NoiseSpec {
            additive: 0.0,
            destructive: level,
        }
    }
}

/// Applies `spec` to `clean`: first deletes `destructive·|X|` random ones,
/// then inserts `additive·|X|` ones at cells that are zero in the clean
/// tensor.
///
/// # Panics
///
/// Panics if either level is negative, or if the additive level exceeds
/// the available zero cells.
pub fn add_noise(clean: &BoolTensor, spec: NoiseSpec, seed: u64) -> BoolTensor {
    assert!(
        spec.additive >= 0.0 && spec.destructive >= 0.0,
        "noise levels must be non-negative"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let dims = clean.dims();
    let n = clean.nnz();
    let delete = ((n as f64) * spec.destructive).round() as usize;
    let insert = ((n as f64) * spec.additive).round() as usize;
    let cells = dims[0] as u128 * dims[1] as u128 * dims[2] as u128;
    assert!(
        (insert as u128) <= cells - n as u128,
        "additive noise exceeds available zero cells"
    );

    // Destructive: drop a uniform sample of the ones.
    let mut entries: Vec<[u32; 3]> = clean.iter().collect();
    entries.shuffle(&mut rng);
    entries.truncate(n.saturating_sub(delete));

    // Additive: rejection-sample zero cells of the *clean* tensor. The
    // acceptance rate is `1 − density`, high for all evaluation tensors.
    let mut added = 0usize;
    while added < insert {
        let e = [
            rng.gen_range(0..dims[0] as u32),
            rng.gen_range(0..dims[1] as u32),
            rng.gen_range(0..dims[2] as u32),
        ];
        if !clean.contains(e[0], e[1], e[2]) {
            entries.push(e);
            added += 1;
        }
    }
    // Duplicates among the inserted cells are removed by from_entries;
    // compensate by re-checking and topping up.
    let mut out = BoolTensor::from_entries(dims, entries);
    while out.nnz() < n - delete + insert {
        let e = [
            rng.gen_range(0..dims[0] as u32),
            rng.gen_range(0..dims[1] as u32),
            rng.gen_range(0..dims[2] as u32),
        ];
        if !out.contains(e[0], e[1], e[2]) && !clean.contains(e[0], e[1], e[2]) {
            out = out.or(&BoolTensor::from_entries(dims, vec![e]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::uniform_random;

    #[test]
    fn no_noise_is_identity() {
        let x = uniform_random([12, 12, 12], 0.1, 1);
        assert_eq!(add_noise(&x, NoiseSpec::none(), 0), x);
    }

    #[test]
    fn additive_adds_exactly() {
        let x = uniform_random([16, 16, 16], 0.05, 2);
        let n = x.nnz();
        let noisy = add_noise(&x, NoiseSpec::additive(0.10), 3);
        assert_eq!(noisy.nnz(), n + (n as f64 * 0.10).round() as usize);
        // Every clean one survives.
        assert_eq!(noisy.and_count(&x), n);
    }

    #[test]
    fn destructive_removes_exactly() {
        let x = uniform_random([16, 16, 16], 0.05, 4);
        let n = x.nnz();
        let noisy = add_noise(&x, NoiseSpec::destructive(0.20), 5);
        assert_eq!(noisy.nnz(), n - (n as f64 * 0.20).round() as usize);
        // No new ones appear.
        assert_eq!(noisy.and_count(&x), noisy.nnz());
    }

    #[test]
    fn combined_noise_counts() {
        let x = uniform_random([16, 16, 16], 0.08, 6);
        let n = x.nnz();
        let noisy = add_noise(
            &x,
            NoiseSpec {
                additive: 0.10,
                destructive: 0.05,
            },
            7,
        );
        let expect = n - (n as f64 * 0.05).round() as usize + (n as f64 * 0.10).round() as usize;
        assert_eq!(noisy.nnz(), expect);
    }

    #[test]
    fn deterministic() {
        let x = uniform_random([10, 10, 10], 0.1, 8);
        let a = add_noise(&x, NoiseSpec::additive(0.2), 9);
        let b = add_noise(&x, NoiseSpec::additive(0.2), 9);
        assert_eq!(a, b);
    }
}
