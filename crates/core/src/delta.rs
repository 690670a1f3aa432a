//! Incremental factor updates: bounded column re-sweeps after a tensor
//! delta (`dbtf update`).
//!
//! The full driver re-factorizes from scratch; this module updates an
//! existing factor set after a *small* change to the tensor. The key
//! observations, both consequences of how Algorithm 4 already works:
//!
//! 1. **The unfoldings don't need rebuilding.** Each delta cell maps
//!    through the Equation-1 index maps to exactly one `(row, column)`
//!    of each mode's unfolding, so a copy-on-write
//!    [`OverlayUnfolding`] over the *old* unfolding (heap or mmap)
//!    presents the updated tensor to the partitioner unchanged — and
//!    produces partitions bit-identical to a rebuild.
//! 2. **Only incident columns need re-sweeping.** A delta cell
//!    `(i, j, k)` interacts with factor column `r` only through the
//!    rows `a_i`, `b_j`, `c_k`; columns with no bit set in any of those
//!    rows for any delta cell scored the same before and after the
//!    delta, so the greedy sweep would reproduce them verbatim. The
//!    re-sweep is therefore bounded to [`affected_columns`] — unless a
//!    *set* cell is incident to no column at all, in which case no
//!    bounded subset could ever cover it and the sweep degrades
//!    gracefully to all columns.
//!
//! Because every column decision picks the per-row error minimum *with
//! the current value among the candidates*, a re-sweep over any column
//! subset can never increase the reconstruction error on the updated
//! tensor: the result is proven no worse than the pre-delta factors
//! (and the differential suite in `crates/oracle` pins the stronger
//! property that it is *bit-identical* to a full-rank refactorization
//! restricted to the same columns, across all backends and storage
//! kinds).

use std::time::Instant;

use dbtf_cluster::{ExecutionBackend, PlanTrace, Scheduler};
use dbtf_telemetry::Tracer;
use dbtf_tensor::{BoolTensor, TensorDelta};

use crate::config::{DbtfConfig, DbtfError};
use crate::driver::{
    catch_cluster, distribute_unfoldings, update_factor_subset, UpdateOutcome,
    DELTA_DISTRIBUTE_LABELS, DELTA_UPDATE_LABELS,
};
use crate::factors::FactorSet;
use crate::stats::DbtfStats;
use crate::update::PartitionSlot;

/// The outcome of an incremental [`update_factors`] run.
#[derive(Clone, Debug)]
pub struct DeltaResult {
    /// The updated factor set.
    pub factors: FactorSet,
    /// Reconstruction error of the updated factors on the *updated*
    /// tensor. Never exceeds [`DeltaResult::pre_error`].
    pub error: u64,
    /// Reconstruction error of the *pre-delta* factors on the updated
    /// tensor — the baseline the re-sweep is proven no worse than.
    pub pre_error: u64,
    /// The columns the bounded re-sweep ran over, ascending. Empty when
    /// the delta touched no column (the factors are returned unchanged).
    pub affected_columns: Vec<usize>,
    /// Number of re-sweep rounds executed.
    pub iterations: usize,
    /// Reconstruction error after each round.
    pub iteration_errors: Vec<u64>,
    /// Whether the rounds stopped on the convergence criterion.
    pub converged: bool,
    /// Resource accounting (the `delta.*` operator family).
    pub stats: DbtfStats,
}

/// The factor columns a delta is incident to, ascending and
/// deduplicated — the bound of the re-sweep.
///
/// Column `r` is affected iff some delta cell `(i, j, k)` has a one in
/// row `i` of `A`, row `j` of `B`, or row `k` of `C` at column `r`. A
/// *set* cell incident to no column at all can never be covered by
/// re-sweeping a subset, so it widens the answer to every column.
///
/// # Panics
///
/// Panics if a delta coordinate is out of range for the factor row
/// counts — deltas are validated against the tensor dims at parse time,
/// and the factors must share those dims.
pub fn affected_columns(delta: &TensorDelta, factors: &FactorSet) -> Vec<usize> {
    let rank = factors.rank();
    let mut hit = vec![false; rank];
    let mut orphan_set = false;
    for cell in delta.cells() {
        let [i, j, k] = [
            cell.coord[0] as usize,
            cell.coord[1] as usize,
            cell.coord[2] as usize,
        ];
        let mut any = false;
        for (r, hit_r) in hit.iter_mut().enumerate() {
            if factors.a.get(i, r) || factors.b.get(j, r) || factors.c.get(k, r) {
                *hit_r = true;
                any = true;
            }
        }
        if cell.set && !any {
            orphan_set = true;
        }
    }
    if orphan_set {
        return (0..rank).collect();
    }
    hit.iter()
        .enumerate()
        .filter_map(|(r, &h)| h.then_some(r))
        .collect()
}

/// Incrementally updates `factors` after applying `delta` to `x` (the
/// *pre-delta* tensor), on the given backend.
///
/// Runs a bounded greedy re-sweep of only the [`affected_columns`]
/// through the same superstep pipeline as [`crate::factorize`] — begin /
/// per-column sweep / finish, metered under `delta.*` operator labels —
/// over copy-on-write overlays of the existing unfoldings. Deterministic
/// for a fixed `(config, x, delta, factors)` regardless of backend,
/// worker count, or partitioning, exactly like the full driver.
///
/// # Errors
///
/// Returns [`DbtfError::InvalidConfig`] when the config is bad or the
/// factors/delta do not match `x`'s shape, and [`DbtfError::EmptyTensor`]
/// if any mode of `x` has size 0.
pub fn update_factors<B: ExecutionBackend>(
    backend: &B,
    x: &BoolTensor,
    delta: &TensorDelta,
    factors: &FactorSet,
    config: &DbtfConfig,
) -> Result<DeltaResult, DbtfError> {
    update_factors_traced(backend, x, delta, factors, config).map(|(result, _)| result)
}

/// [`update_factors`], additionally returning the executed dataflow
/// plan. The trace's fingerprint is identical across backends, thread
/// counts, and storage kinds for the same inputs — the delta pipeline
/// inherits the behavior-preservation invariant of the full driver.
pub fn update_factors_traced<B: ExecutionBackend>(
    backend: &B,
    x: &BoolTensor,
    delta: &TensorDelta,
    factors: &FactorSet,
    config: &DbtfConfig,
) -> Result<(DeltaResult, PlanTrace), DbtfError> {
    config.validate()?;
    let dims = x.dims();
    if dims.contains(&0) {
        return Err(DbtfError::EmptyTensor);
    }
    if delta.dims() != dims {
        return Err(DbtfError::InvalidConfig(format!(
            "delta was validated for dims {:?} but the tensor is {dims:?}",
            delta.dims()
        )));
    }
    let shape_ok = factors.a.rows() == dims[0]
        && factors.b.rows() == dims[1]
        && factors.c.rows() == dims[2]
        && factors.rank() == config.rank
        && factors.b.cols() == config.rank
        && factors.c.cols() == config.rank;
    if !shape_ok {
        return Err(DbtfError::InvalidConfig(format!(
            "factors are {}×{}/{}×{}/{}×{} but this update needs {}×{r}/{}×{r}/{}×{r}",
            factors.a.rows(),
            factors.a.cols(),
            factors.b.rows(),
            factors.b.cols(),
            factors.c.rows(),
            factors.c.cols(),
            dims[0],
            dims[1],
            dims[2],
            r = config.rank,
        )));
    }
    let sched = Scheduler::with_tracer(backend, Tracer::disabled());
    let result = run_delta(&sched, x, delta, factors, config);
    Ok((result?, sched.into_trace()))
}

/// The delta-driver body: everything after validation.
fn run_delta<B: ExecutionBackend>(
    sched: &Scheduler<'_, B>,
    x: &BoolTensor,
    delta: &TensorDelta,
    factors: &FactorSet,
    config: &DbtfConfig,
) -> Result<DeltaResult, DbtfError> {
    let wall_start = Instant::now();
    let metrics_start = sched.backend().metrics();
    let n_partitions = config
        .partitions
        .unwrap_or_else(|| sched.backend().suggested_partitions());

    // ---- Driver prologue: the updated tensor, the baseline error, and --
    // the re-sweep bound. All O(|X| + |Δ|·R) driver work, metered.
    let x_new = delta.apply(x);
    sched.charge_driver("delta.apply", (x.nnz() + delta.len()) as u64);
    let pre_error = factors.error(&x_new) as u64;
    sched.charge_driver("delta.pre_error", x_new.nnz().max(1) as u64);
    let cols = affected_columns(delta, factors);
    sched.charge_driver(
        "delta.affected",
        (delta.len() as u64 * config.rank as u64).max(1),
    );

    let stats = |partition_bytes, peak_cache_bytes| DbtfStats {
        wall_secs: wall_start.elapsed().as_secs_f64(),
        virtual_secs: sched
            .backend()
            .metrics()
            .since(&metrics_start)
            .virtual_time
            .as_secs_f64(),
        comm: sched.backend().metrics().since(&metrics_start),
        n_partitions,
        partition_bytes,
        peak_cache_bytes,
    };

    if cols.is_empty() {
        // No column is incident to the delta: the greedy sweep would
        // reproduce every column verbatim, so don't run it.
        return Ok(DeltaResult {
            factors: factors.clone(),
            error: pre_error,
            pre_error,
            affected_columns: cols,
            iterations: 0,
            iteration_errors: Vec::new(),
            converged: true,
            stats: stats(0, 0),
        });
    }

    // ---- Distribute the three overlaid unfoldings (no rebuild). --------
    let ([px1, px2, px3], partition_bytes) = catch_cluster(|| {
        sched.phase("delta.distribute", |s| {
            distribute_unfoldings(
                s,
                x,
                Some(delta),
                &DELTA_DISTRIBUTE_LABELS,
                n_partitions,
                config.storage,
                config.spill_dir.as_deref(),
            )
        })
    })??;

    // ---- Bounded re-sweep rounds over the affected columns only. -------
    let threshold = config.convergence_threshold * x_new.nnz().max(1) as f64;
    let mut set = factors.clone();
    let mut error = pre_error;
    let mut iteration_errors = Vec::new();
    let mut converged = false;
    let mut peak_cache_bytes = 0u64;
    for _t in 1..=config.max_iters {
        let (next, next_error, cache) = catch_cluster(|| {
            sched.phase("delta.iteration", |s| {
                delta_round(s, &px1, &px2, &px3, set.clone(), &cols, config)
            })
        })?;
        peak_cache_bytes = peak_cache_bytes.max(cache);
        let step = error.abs_diff(next_error) as f64;
        set = next;
        error = next_error;
        iteration_errors.push(error);
        if step <= threshold || error == 0 {
            converged = true;
            break;
        }
    }

    debug_assert!(
        error <= pre_error,
        "greedy re-sweep increased the error ({error} > {pre_error})"
    );
    Ok(DeltaResult {
        factors: set,
        error,
        pre_error,
        affected_columns: cols,
        iterations: iteration_errors.len(),
        converged,
        stats: stats(partition_bytes, peak_cache_bytes),
        iteration_errors,
    })
}

/// One re-sweep round: update A, B, C in turn over `cols` only,
/// computing the exact reconstruction error on the final mode (the
/// `delta.*`-labelled mirror of the full driver's `update_round`).
fn delta_round<B: ExecutionBackend>(
    sched: &Scheduler<'_, B>,
    px1: &B::Dataset<PartitionSlot>,
    px2: &B::Dataset<PartitionSlot>,
    px3: &B::Dataset<PartitionSlot>,
    set: FactorSet,
    cols: &[usize],
    config: &DbtfConfig,
) -> (FactorSet, u64, u64) {
    let v = config.cache_group_limit;
    let sweep = |data, a: &_, mf: &_, ms: &_, compute_error| -> UpdateOutcome {
        update_factor_subset(
            sched,
            data,
            a,
            mf,
            ms,
            v,
            compute_error,
            &DELTA_UPDATE_LABELS,
            cols,
        )
    };
    let o1 = sweep(px1, &set.a, &set.c, &set.b, false);
    let a = o1.a;
    let o2 = sweep(px2, &set.b, &set.c, &a, false);
    let b = o2.a;
    let o3 = sweep(px3, &set.c, &b, &a, true);
    let c = o3.a;
    let error = o3.error.expect("error requested");
    let cache = o1.cache_bytes.max(o2.cache_bytes).max(o3.cache_bytes);
    (FactorSet { a, b, c }, error, cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::factorize;
    use dbtf_cluster::{Cluster, ClusterConfig, LocalBackend};
    use dbtf_tensor::DeltaCell;

    /// Two disjoint 4×4×4 combinatorial blocks in an 8×8×8 tensor —
    /// rank 2 recovers them exactly.
    fn planted() -> BoolTensor {
        let mut entries = Vec::new();
        for i in 0..4u32 {
            for j in 0..4u32 {
                for k in 0..4u32 {
                    entries.push([i, j, k]);
                    entries.push([i + 4, j + 4, k + 4]);
                }
            }
        }
        BoolTensor::from_entries([8, 8, 8], entries)
    }

    fn config() -> DbtfConfig {
        DbtfConfig {
            rank: 2,
            seed: 1,
            ..DbtfConfig::default()
        }
    }

    fn fitted(x: &BoolTensor) -> FactorSet {
        let cluster = Cluster::new(ClusterConfig::with_workers(2));
        let result = factorize(&cluster, x, &config()).unwrap();
        assert_eq!(result.error, 0, "planted blocks recover exactly");
        result.factors
    }

    fn sample_delta(x: &BoolTensor) -> TensorDelta {
        TensorDelta::new(
            x.dims(),
            vec![
                DeltaCell {
                    coord: [0, 0, 0],
                    set: false,
                },
                DeltaCell {
                    coord: [1, 2, 3],
                    set: false,
                },
                DeltaCell {
                    coord: [5, 5, 1],
                    set: true,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn resweep_is_never_worse_and_bounds_its_columns() {
        let x = planted();
        let factors = fitted(&x);
        let delta = sample_delta(&x);
        let cluster = Cluster::new(ClusterConfig::with_workers(2));
        let result = update_factors(&cluster, &x, &delta, &factors, &config()).unwrap();
        assert!(
            result.error <= result.pre_error,
            "{} > {}",
            result.error,
            result.pre_error
        );
        assert_eq!(
            result.pre_error,
            factors.error(&delta.apply(&x)) as u64,
            "baseline is the old factors scored on the new tensor"
        );
        assert!(!result.affected_columns.is_empty());
        assert!(result.affected_columns.iter().all(|&c| c < 2));
        assert_eq!(
            result.error,
            result.factors.error(&delta.apply(&x)) as u64,
            "reported error is the real reconstruction error"
        );
    }

    #[test]
    fn untouched_columns_mean_no_sweep_at_all() {
        let x = planted();
        let factors = fitted(&x);
        // Clearing an already-zero cell whose rows no column covers:
        // (0, 0, 7) has a ∈ block 1 rows for modes 1–2 — pick a cell in
        // no block instead: rows of block 1 and tube of block 2 still
        // hit columns, so build an explicitly orthogonal factor set.
        let zero = FactorSet {
            a: dbtf_tensor::BitMatrix::zeros(8, 2),
            b: dbtf_tensor::BitMatrix::zeros(8, 2),
            c: dbtf_tensor::BitMatrix::zeros(8, 2),
        };
        let delta = TensorDelta::new(
            x.dims(),
            vec![DeltaCell {
                coord: [0, 0, 7],
                set: false,
            }],
        )
        .unwrap();
        assert!(affected_columns(&delta, &zero).is_empty());
        let cluster = Cluster::new(ClusterConfig::with_workers(2));
        let result = update_factors(&cluster, &x, &delta, &zero, &config()).unwrap();
        assert_eq!(result.iterations, 0);
        assert_eq!(result.factors, zero, "factors returned unchanged");
        assert_eq!(result.error, result.pre_error);
        let _ = factors;
    }

    #[test]
    fn orphan_set_cells_widen_to_every_column() {
        let x = planted();
        let zero = FactorSet {
            a: dbtf_tensor::BitMatrix::zeros(8, 2),
            b: dbtf_tensor::BitMatrix::zeros(8, 2),
            c: dbtf_tensor::BitMatrix::zeros(8, 2),
        };
        let delta = TensorDelta::new(
            x.dims(),
            vec![DeltaCell {
                coord: [0, 0, 7],
                set: true,
            }],
        )
        .unwrap();
        assert_eq!(affected_columns(&delta, &zero), vec![0, 1]);
    }

    #[test]
    fn backends_and_storage_agree_bit_for_bit() {
        let x = planted();
        let factors = fitted(&x);
        let delta = sample_delta(&x);
        // Matched topologies (2 workers × 2 cores) and pinned partitions:
        // the plan fingerprint meters per-worker broadcast bytes, so the
        // invariant is per-topology, exactly as for the full driver.
        let cluster = Cluster::new(ClusterConfig {
            workers: 2,
            cores_per_worker: 2,
            ..ClusterConfig::default()
        });
        let local = LocalBackend::new(2, 2);
        let ram = DbtfConfig {
            partitions: Some(4),
            ..config()
        };
        let mmap = DbtfConfig {
            storage: crate::StorageKind::Mmap,
            ..ram.clone()
        };
        let (r1, t1) = update_factors_traced(&cluster, &x, &delta, &factors, &ram).unwrap();
        let (r2, t2) = update_factors_traced(&local, &x, &delta, &factors, &ram).unwrap();
        let (r3, t3) = update_factors_traced(&cluster, &x, &delta, &factors, &mmap).unwrap();
        assert_eq!(r1.factors, r2.factors, "cluster vs local");
        assert_eq!(r1.factors, r3.factors, "ram vs mmap");
        assert_eq!(r1.error, r2.error);
        assert_eq!(r1.error, r3.error);
        assert_eq!(
            t1.fingerprint(),
            t2.fingerprint(),
            "plan is backend-invariant"
        );
        assert_eq!(
            t1.fingerprint(),
            t3.fingerprint(),
            "plan is storage-invariant"
        );
        assert!(
            t1.fingerprint().contains("delta."),
            "delta supersteps meter under delta.* labels"
        );
    }

    #[test]
    fn shape_mismatches_are_typed_errors() {
        let x = planted();
        let factors = fitted(&x);
        let cluster = Cluster::new(ClusterConfig::with_workers(2));
        let wrong_dims = TensorDelta::new([4, 4, 4], Vec::new()).unwrap();
        let err = update_factors(&cluster, &x, &wrong_dims, &factors, &config()).unwrap_err();
        assert!(matches!(err, DbtfError::InvalidConfig(_)), "{err}");
        let delta = sample_delta(&x);
        let wrong_rank = DbtfConfig {
            rank: 3,
            ..config()
        };
        let err = update_factors(&cluster, &x, &delta, &factors, &wrong_rank).unwrap_err();
        assert!(matches!(err, DbtfError::InvalidConfig(_)), "{err}");
    }
}
