//! # dbtf-oracle — differential & metamorphic verification for DBTF
//!
//! The optimized pipeline (bit-packed kernels, cached row summations,
//! distributed supersteps, fault recovery) is fast precisely because it is
//! *not* obviously correct. This crate holds the other side of that trade:
//!
//! - [`oracles`]: slow, obviously-correct implementations — cell-by-cell
//!   Boolean CP/Tucker reconstruction and `|X ⊖ X̂|`, the literal
//!   Equation-1 unfolding index maps, and gauge-normalized factor
//!   comparison (Boolean CP is unique only up to simultaneous column
//!   permutation).
//! - [`invariants`]: closed-form Lemma 6/7 communication and scheduling
//!   formulas checked against the engine's byte meters, plus recovery-
//!   counter consistency.
//! - [`runner`]: the differential runner — one seed pins a
//!   `(tensor, rank, config, backend, storage, fault-plan)` point;
//!   the pipeline runs under the sequential reference, the cluster
//!   backend, the local backend and a fault-injected replica, and every
//!   oracle plus bit-identity/plan-fingerprint/checkpoint-resume
//!   invariant is checked.
//! - [`report`]: sweep aggregation with diversity accounting and JSON
//!   output for CI artifacts.
//!
//! The `verify-sweep` binary in `dbtf-bench` (driven by
//! `scripts/verify_sweep.sh`) runs seeded sweeps over [`runner::run_point`];
//! a fixed-seed slice runs in CI. The `mutation` feature compiles a
//! deliberately seeded kernel bug into `dbtf` so the `teeth` test can
//! prove the harness actually detects broken kernels.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod delta;
pub mod invariants;
pub mod oracles;
pub mod report;
pub mod runner;
pub mod serving;

pub use delta::{check_bounded_resweep, delta_affected_columns, delta_apply};
pub use invariants::{check_recovery_counters, check_wire_meters, CommOracle};
pub use oracles::{
    check_unfolding, cp_error, cp_reconstruct, factors_equivalent, gauge_canonical, tucker_error,
};
pub use report::SweepReport;
pub use runner::{run_point, PointReport, SamplePoint};
pub use serving::{serving_point, serving_slice, serving_topk};
