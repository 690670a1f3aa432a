//! # DBTF — Distributed Boolean Tensor Factorization
//!
//! A from-scratch Rust implementation of **DBTF** from *Fast and Scalable
//! Distributed Boolean Tensor Factorization* (Namyong Park, Sejoon Oh,
//! U Kang — ICDE 2017): Boolean CP decomposition of large binary three-way
//! tensors on a distributed cluster.
//!
//! Given a binary tensor `X ∈ B^{I×J×K}` and a rank `R`, DBTF finds binary
//! factor matrices `A ∈ B^{I×R}`, `B ∈ B^{J×R}`, `C ∈ B^{K×R}` minimizing
//! `|X ⊕ ⊕_r a_r ∘ b_r ∘ c_r|` under Boolean arithmetic (`1 + 1 = 1`).
//! The three ideas of the paper, all implemented here:
//!
//! 1. **Distributed generation & minimal transfer of intermediate data**
//!    (Section III-B): only the small factor matrices are broadcast; each
//!    machine generates the rows of the Khatri-Rao product it needs; the
//!    unfolded tensors are shuffled once and never again.
//! 2. **Caching of intermediate computation results** (Section III-C):
//!    all `2^R` Boolean row summations of `M_sᵀ` are precomputed per
//!    partition ([`cache::RowSumCache`]), split into `⌈R/V⌉` group tables
//!    when `R` exceeds the limit `V` (Lemma 2).
//! 3. **Careful partitioning of the workload** (Section III-D): vertical
//!    partitions subdivided into blocks at pointwise vector-matrix product
//!    boundaries ([`partition`]), so every block fetches cached summations
//!    directly (edge blocks get vertically sliced caches).
//!
//! The distributed substrate is [`dbtf_cluster`] — a hand-rolled engine
//! reproducing the slice of Spark the paper uses, with a virtual-time cost
//! model for scalability experiments.
//!
//! # Quick start
//!
//! ```
//! use dbtf::{factorize, DbtfConfig};
//! use dbtf_cluster::{Cluster, ClusterConfig};
//! use dbtf_tensor::BoolTensor;
//!
//! // A tiny 8×8×8 tensor: two disjoint combinatorial blocks.
//! let mut entries = Vec::new();
//! for i in 0..4u32 {
//!     for j in 0..4u32 {
//!         for k in 0..4u32 {
//!             entries.push([i, j, k]);
//!             entries.push([i + 4, j + 4, k + 4]);
//!         }
//!     }
//! }
//! let x = BoolTensor::from_entries([8, 8, 8], entries);
//!
//! let cluster = Cluster::new(ClusterConfig::with_workers(2));
//! let config = DbtfConfig { rank: 2, seed: 1, ..DbtfConfig::default() };
//! let result = factorize(&cluster, &x, &config).unwrap();
//! assert_eq!(result.error, 0); // both blocks recovered exactly
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod checkpoint;
mod config;
mod delta;
mod driver;
mod factors;
pub mod model_selection;
pub mod net_tasks;
mod ooc;
pub mod partition;
pub mod reference;
mod stats;
mod sweep;
pub mod tucker;
pub mod tucker_distributed;
pub mod update;

pub use checkpoint::{Checkpoint, FactorSetError, FactorSetFile};
pub use config::{BackendKind, DbtfConfig, DbtfError, InitStrategy, StorageKind};
pub use delta::{affected_columns, update_factors, update_factors_traced, DeltaResult};
pub use driver::{factorize, factorize_instrumented, factorize_traced, DbtfResult};
pub use factors::{initial_factor_sets, random_factor_sets, FactorSet};
pub use stats::DbtfStats;
pub use update::{PartitionSlot, WorkState};
