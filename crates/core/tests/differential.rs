//! Differential tests: the distributed DBTF must match the sequential
//! reference bit-for-bit, for every worker count, partition count and cache
//! grouping — and both must behave like a proper ALS (monotone errors).

use dbtf::reference::factorize_reference;
use dbtf::{factorize, DbtfConfig, InitStrategy};
use dbtf_cluster::{Cluster, ClusterConfig};
use dbtf_tensor::BoolTensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_tensor(dims: [usize; 3], density: f64, seed: u64) -> BoolTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut entries = Vec::new();
    for i in 0..dims[0] as u32 {
        for j in 0..dims[1] as u32 {
            for k in 0..dims[2] as u32 {
                if rng.gen_bool(density) {
                    entries.push([i, j, k]);
                }
            }
        }
    }
    BoolTensor::from_entries(dims, entries)
}

fn planted_tensor(dims: [usize; 3], rank: usize, p: f64, seed: u64) -> BoolTensor {
    use dbtf_tensor::reconstruct::reconstruct;
    use dbtf_tensor::BitMatrix;
    let mut rng = StdRng::seed_from_u64(seed);
    let a = BitMatrix::random(dims[0], rank, p, &mut rng);
    let b = BitMatrix::random(dims[1], rank, p, &mut rng);
    let c = BitMatrix::random(dims[2], rank, p, &mut rng);
    reconstruct(&a, &b, &c)
}

/// Distributed ≡ reference across worker counts and partition counts.
#[test]
fn distributed_matches_reference_across_cluster_shapes() {
    let x = random_tensor([9, 11, 7], 0.15, 100);
    let config = DbtfConfig {
        rank: 4,
        max_iters: 3,
        seed: 5,
        ..DbtfConfig::default()
    };
    let reference = factorize_reference(&x, &config).unwrap();
    for workers in [1usize, 2, 5] {
        for partitions in [None, Some(1), Some(3), Some(17)] {
            let cluster = Cluster::new(ClusterConfig::with_workers(workers));
            let config = DbtfConfig {
                partitions,
                ..config.clone()
            };
            let result = factorize(&cluster, &x, &config).unwrap();
            assert_eq!(
                result.factors, reference.factors,
                "workers={workers} partitions={partitions:?}"
            );
            assert_eq!(result.iteration_errors, reference.iteration_errors);
        }
    }
}

/// Distributed ≡ reference across cache group limits (multi-group tables).
#[test]
fn distributed_matches_reference_across_cache_grouping() {
    let x = random_tensor([8, 8, 8], 0.2, 101);
    let base = DbtfConfig {
        rank: 7,
        max_iters: 2,
        seed: 9,
        ..DbtfConfig::default()
    };
    let reference = factorize_reference(&x, &base).unwrap();
    for v in [15usize, 7, 3, 2, 1] {
        let cluster = Cluster::new(ClusterConfig::with_workers(3));
        let config = DbtfConfig {
            cache_group_limit: v,
            ..base.clone()
        };
        let result = factorize(&cluster, &x, &config).unwrap();
        assert_eq!(result.factors, reference.factors, "V = {v}");
        assert_eq!(result.error, reference.error, "V = {v}");
    }
}

/// Both init strategies stay in lockstep between the two implementations.
#[test]
fn distributed_matches_reference_for_random_init() {
    let x = random_tensor([10, 6, 8], 0.25, 102);
    let config = DbtfConfig {
        rank: 3,
        max_iters: 2,
        initial_sets: 3,
        init: InitStrategy::Random,
        init_density: Some(0.3),
        seed: 11,
        ..DbtfConfig::default()
    };
    let reference = factorize_reference(&x, &config).unwrap();
    let cluster = Cluster::new(ClusterConfig::with_workers(2));
    let result = factorize(&cluster, &x, &config).unwrap();
    assert_eq!(result.factors, reference.factors);
    assert_eq!(result.error, reference.error);
}

/// Iteration errors never increase (ALS monotonicity), and the reported
/// error matches a from-scratch reconstruction of the returned factors.
#[test]
fn errors_monotone_and_consistent() {
    let x = planted_tensor([12, 12, 12], 3, 0.3, 103);
    let cluster = Cluster::new(ClusterConfig::with_workers(2));
    let config = DbtfConfig {
        rank: 3,
        max_iters: 6,
        initial_sets: 2,
        seed: 3,
        ..DbtfConfig::default()
    };
    let result = factorize(&cluster, &x, &config).unwrap();
    for w in result.iteration_errors.windows(2) {
        assert!(
            w[1] <= w[0],
            "errors increased: {:?}",
            result.iteration_errors
        );
    }
    assert_eq!(result.factors.error(&x) as u64, result.error);
    assert_eq!(result.iterations, result.iteration_errors.len());
}

/// An exactly rank-R tensor is recovered exactly (error 0) for at least
/// some seeds, and convergence is flagged.
#[test]
fn exact_recovery_on_planted_blocks() {
    let mut entries = Vec::new();
    for i in 0..5u32 {
        for j in 0..5u32 {
            for k in 0..5u32 {
                entries.push([i, j, k]);
                entries.push([i + 6, j + 6, k + 6]);
            }
        }
    }
    let x = BoolTensor::from_entries([11, 11, 11], entries);
    let cluster = Cluster::new(ClusterConfig::with_workers(2));
    let config = DbtfConfig {
        rank: 2,
        initial_sets: 8,
        seed: 0,
        ..DbtfConfig::default()
    };
    let result = factorize(&cluster, &x, &config).unwrap();
    assert_eq!(result.error, 0);
    assert!(result.converged);
}

/// The Lemma 6/7 communication shapes: the shuffle is O(|X|) and happens
/// once; per-iteration traffic is broadcasts plus per-column collections.
#[test]
fn communication_metering_shapes() {
    let x = random_tensor([10, 10, 10], 0.1, 104);
    let cluster = Cluster::new(ClusterConfig::with_workers(4));
    let config = DbtfConfig {
        rank: 4,
        max_iters: 2,
        convergence_threshold: -1.0,
        seed: 1,
        ..DbtfConfig::default()
    };
    let result = factorize(&cluster, &x, &config).unwrap();
    let comm = &result.stats.comm;
    // The shuffle moved each unfolding once: roughly 3 × partition bytes.
    assert_eq!(comm.bytes_shuffled, result.stats.partition_bytes);
    assert!(comm.bytes_shuffled >= 3 * x.nnz() as u64 * 4);
    // Broadcast and collection happened every iteration.
    assert!(comm.bytes_broadcast > 0);
    assert!(comm.bytes_collected > 0);
    assert!(comm.supersteps as usize >= config.rank * 3 * result.iterations);
    assert!(result.stats.virtual_secs > 0.0);
    assert!(result.stats.peak_cache_bytes > 0);
}

/// Rejects invalid configurations and empty tensors.
#[test]
fn error_paths() {
    let cluster = Cluster::new(ClusterConfig::with_workers(1));
    let x = random_tensor([4, 4, 4], 0.2, 105);
    let bad = DbtfConfig {
        rank: 0,
        ..DbtfConfig::default()
    };
    assert!(factorize(&cluster, &x, &bad).is_err());
    let empty = BoolTensor::empty([0, 4, 4]);
    assert!(factorize(&cluster, &empty, &DbtfConfig::default()).is_err());
}

/// Distributed Tucker ≡ sequential Tucker, bit-for-bit, across cluster
/// shapes — the union-of-masks cache reuse and the superstep-per-entry
/// core update must reproduce the sequential greedy exactly.
#[test]
fn distributed_tucker_matches_sequential() {
    use dbtf::tucker::{tucker_factorize, TuckerConfig};
    use dbtf::tucker_distributed::tucker_factorize_distributed;
    for (x, ranks) in [
        (random_tensor([8, 9, 7], 0.2, 200), [2usize, 3, 2]),
        (planted_tensor([10, 10, 10], 3, 0.3, 201), [3, 3, 3]),
    ] {
        let config = TuckerConfig {
            ranks,
            max_iters: 3,
            initial_sets: 2,
            seed: 13,
        };
        let sequential = tucker_factorize(&x, &config).unwrap();
        for workers in [1usize, 3] {
            let cluster = Cluster::new(ClusterConfig::with_workers(workers));
            let distributed = tucker_factorize_distributed(&cluster, &x, &config).unwrap();
            assert_eq!(
                distributed.factorization, sequential.factorization,
                "workers = {workers}, ranks = {ranks:?}"
            );
            assert_eq!(distributed.iteration_errors, sequential.iteration_errors);
        }
    }
}

/// Distributed Tucker with an inner rank above the cache group limit
/// (V = 15): the multi-group fetch path must also match the sequential
/// implementation.
#[test]
fn distributed_tucker_multigroup_cache() {
    use dbtf::tucker::{tucker_factorize, TuckerConfig};
    use dbtf::tucker_distributed::tucker_factorize_distributed;
    let x = random_tensor([7, 12, 8], 0.25, 203);
    let config = TuckerConfig {
        ranks: [3, 17, 3], // R₂ = 17 > V: mode-1 updates use two group tables
        max_iters: 2,
        seed: 21,
        ..TuckerConfig::default()
    };
    let sequential = tucker_factorize(&x, &config).unwrap();
    let cluster = Cluster::new(ClusterConfig::with_workers(2));
    let distributed = tucker_factorize_distributed(&cluster, &x, &config).unwrap();
    assert_eq!(distributed.factorization, sequential.factorization);
    assert_eq!(distributed.error, sequential.error);
}

/// Distributed Tucker input validation.
#[test]
fn distributed_tucker_error_paths() {
    use dbtf::tucker::TuckerConfig;
    use dbtf::tucker_distributed::tucker_factorize_distributed;
    let cluster = Cluster::new(ClusterConfig::with_workers(1));
    let x = random_tensor([4, 4, 4], 0.2, 202);
    let too_big = TuckerConfig {
        ranks: [65, 2, 2],
        ..TuckerConfig::default()
    };
    assert!(tucker_factorize_distributed(&cluster, &x, &too_big).is_err());
    let empty = BoolTensor::empty([0, 2, 2]);
    assert!(tucker_factorize_distributed(&cluster, &empty, &TuckerConfig::default()).is_err());
}

/// An all-zero tensor factorizes to all-zero factors with zero error.
#[test]
fn all_zero_tensor() {
    let x = BoolTensor::empty([5, 5, 5]);
    let cluster = Cluster::new(ClusterConfig::with_workers(2));
    let config = DbtfConfig {
        rank: 2,
        seed: 0,
        ..DbtfConfig::default()
    };
    let result = factorize(&cluster, &x, &config).unwrap();
    assert_eq!(result.error, 0);
    assert_eq!(result.relative_error, 0.0);
    assert_eq!(result.factors.total_ones(), 0);
}
