//! The distributed DBTF driver (paper Algorithms 2 and 4).
//!
//! The driver (the calling thread) is generic over an
//! [`ExecutionBackend`] and emits a dataflow plan through a
//! [`Scheduler`] — it never talks to the engine directly. It partitions
//! and distributes the three unfolded tensors once, then iterates factor
//! updates. One `UpdateFactor` call runs `R + 2` supersteps:
//!
//! 1. **begin** — broadcast `(A, M_f, M_s)`; every partition builds its
//!    [`WorkState`] (cached row summations, sliced caches for edge blocks).
//! 2. **column `c`** (× R) — apply the previously decided column, score
//!    both candidate values of every row's entry in column `c`, and send
//!    the per-row error pairs to the driver, which picks the smaller
//!    (Algorithm 4 lines 10–12) and broadcasts the decided column. This
//!    loop is the shared [`crate::sweep::column_sweep`].
//! 3. **finish** — apply the last column; optionally compute the exact
//!    partition-local reconstruction error (for convergence and for the
//!    first-iteration selection among the `L` initial sets); drop the
//!    caches.

use std::sync::Arc;
use std::time::Instant;

use dbtf_cluster::{ClusterError, ExecutionBackend, PlanTrace, Scheduler};
use dbtf_telemetry::{SpanKind, Tracer};
use dbtf_tensor::{
    BitMatrix, BoolTensor, FactorTriple, Mode, OverlayUnfolding, TensorDelta, Unfolding,
    UnfoldingStore,
};

use crate::checkpoint::Checkpoint;
use crate::config::{DbtfConfig, DbtfError, StorageKind};
use crate::factors::{initial_factor_sets, FactorSet};
use crate::net_tasks;
use crate::ooc::RunStores;
use crate::partition::{partition_unfolding, partition_unfolding_one, ModePartition};
use crate::stats::DbtfStats;
use crate::sweep::{column_sweep_subset, SweepLabels};
use crate::update::PartitionSlot;

/// The outcome of a [`factorize`] run.
#[derive(Clone, Debug)]
pub struct DbtfResult {
    /// The best factor set found.
    pub factors: FactorSet,
    /// Final reconstruction error `|X ⊕ X̃|`.
    pub error: u64,
    /// `error / |X|` (infinite if the input is empty but the
    /// reconstruction is not).
    pub relative_error: f64,
    /// Number of iterations executed (including the first, multi-set one).
    pub iterations: usize,
    /// Whether the run stopped on the convergence criterion (rather than
    /// exhausting `max_iters`).
    pub converged: bool,
    /// Reconstruction error after each iteration.
    pub iteration_errors: Vec<u64>,
    /// Resource accounting.
    pub stats: DbtfStats,
}

pub(crate) struct UpdateOutcome {
    pub(crate) a: BitMatrix,
    pub(crate) error: Option<u64>,
    pub(crate) cache_bytes: u64,
}

/// Trace labels for the supersteps of one `UpdateFactor` call, so the
/// full-sweep CP path and the bounded delta re-sweep meter under
/// distinct `cp.*` / `delta.*` operator names.
pub(crate) struct UpdateLabels {
    /// The factor-triple `Broadcast`.
    pub factors: &'static str,
    /// The cache-building begin superstep.
    pub begin: &'static str,
    /// The apply-and-score sweep superstep (per column).
    pub sweep: &'static str,
    /// The driver-side per-row reduce (per column).
    pub reduce: &'static str,
    /// The decided-column `Broadcast` (per column).
    pub decision: &'static str,
    /// The apply-last-column / error / cache-drop finish superstep.
    pub finish: &'static str,
}

/// The labels of the full CP sweep (Algorithm 4 as written).
pub(crate) const CP_UPDATE_LABELS: UpdateLabels = UpdateLabels {
    factors: "cp.update.factors",
    begin: "cp.update.begin",
    sweep: "cp.update.sweep",
    reduce: "cp.update.reduce",
    decision: "cp.update.decision",
    finish: "cp.update.finish",
};

/// The labels of the bounded delta re-sweep (`dbtf update`).
pub(crate) const DELTA_UPDATE_LABELS: UpdateLabels = UpdateLabels {
    factors: "delta.update.factors",
    begin: "delta.update.begin",
    sweep: "delta.update.sweep",
    reduce: "delta.update.reduce",
    decision: "delta.update.decision",
    finish: "delta.update.finish",
};

/// Boolean CP-factorizes `x` at the configured rank on the given backend
/// (the paper's Algorithm 2).
///
/// Deterministic for a fixed `(config, x)` regardless of backend, worker
/// count, or partitioning — the greedy updates depend only on error sums,
/// which are invariant under how columns are split across partitions
/// (verified by the differential tests against [`crate::reference`]).
///
/// # Errors
///
/// Returns [`DbtfError::InvalidConfig`] for bad configurations and
/// [`DbtfError::EmptyTensor`] if any mode of `x` has size 0.
pub fn factorize<B: ExecutionBackend>(
    backend: &B,
    x: &BoolTensor,
    config: &DbtfConfig,
) -> Result<DbtfResult, DbtfError> {
    factorize_traced(backend, x, config).map(|(result, _)| result)
}

/// [`factorize`], additionally returning the executed dataflow plan —
/// every operator the driver emitted, with its cost/byte annotations.
/// The trace is the behavior-preservation invariant in testable form:
/// its [`PlanTrace::fingerprint`] is identical across backends, thread
/// counts, and fault plans for the same `(config, x)`.
pub fn factorize_traced<B: ExecutionBackend>(
    backend: &B,
    x: &BoolTensor,
    config: &DbtfConfig,
) -> Result<(DbtfResult, PlanTrace), DbtfError> {
    factorize_instrumented(backend, x, config, &Tracer::disabled())
}

/// [`factorize_traced`], additionally recording a hierarchical span trace
/// into `tracer`: one `Run` root, a `Phase` per driver stage and
/// iteration, an `Operator`/`Superstep` per dataflow operator, and
/// `Task`/`Kernel` child spans from the backend's task events. Every span
/// is stamped on the virtual clock (deterministic — see `DESIGN.md`
/// §1.2.4) and the wall clock; the backend's counters are exported into
/// the tracer at the end. Call `tracer.finish()` afterwards for the
/// [`dbtf_telemetry::TraceLog`]. With a disabled tracer this *is*
/// [`factorize_traced`], at the cost of one branch per operator.
pub fn factorize_instrumented<B: ExecutionBackend>(
    backend: &B,
    x: &BoolTensor,
    config: &DbtfConfig,
    tracer: &Tracer,
) -> Result<(DbtfResult, PlanTrace), DbtfError> {
    config.validate()?;
    let dims = x.dims();
    if dims.contains(&0) {
        return Err(DbtfError::EmptyTensor);
    }
    let sched = Scheduler::with_tracer(backend, tracer.clone());
    let root = tracer.begin(
        SpanKind::Run,
        "cp.factorize",
        backend.metrics().virtual_time.as_secs_f64(),
    );
    let result = run(&sched, x, config);
    tracer.end(root, backend.metrics().virtual_time.as_secs_f64());
    if tracer.is_enabled() {
        for (name, value) in backend.metrics().named_counters() {
            tracer.set_counter(name, value);
        }
        backend.set_task_event_capture(false);
    }
    Ok((result?, sched.into_trace()))
}

/// Runs `f`, converting a panicking [`ClusterError`] — how backends
/// report unrecoverable cluster failures, e.g. the networked backend's
/// exhausted respawn budget — into a typed result instead of unwinding
/// through the driver. Any other panic resumes unwinding. Safe because
/// every operator runs to completion before the next is issued, so
/// dropping mid-phase state never double-panics.
pub(crate) fn catch_cluster<R>(f: impl FnOnce() -> R) -> Result<R, ClusterError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => Ok(r),
        Err(payload) => match payload.downcast::<ClusterError>() {
            Ok(err) => Err(*err),
            Err(payload) => std::panic::resume_unwind(payload),
        },
    }
}

/// Graceful degradation on an unrecoverable cluster failure: flush the
/// last *committed* iteration to the configured checkpoint path (directly,
/// not through the scheduler — the backend may be unusable) so the run can
/// later `--resume`, then surface the typed engine error. A flush failure
/// never masks the cluster error.
fn degrade(
    ckpt_path: Option<&std::path::Path>,
    factors: &FactorSet,
    iteration_errors: &[u64],
    err: ClusterError,
) -> DbtfError {
    if let (Some(path), Some(&error)) = (ckpt_path, iteration_errors.last()) {
        let _ = Checkpoint {
            iteration: iteration_errors.len(),
            error,
            iteration_errors: iteration_errors.to_vec(),
            factors: factors.clone(),
        }
        .write(path);
    }
    DbtfError::from(err)
}

/// The driver body: everything after validation, emitting through `sched`.
fn run<B: ExecutionBackend>(
    sched: &Scheduler<'_, B>,
    x: &BoolTensor,
    config: &DbtfConfig,
) -> Result<DbtfResult, DbtfError> {
    let dims = x.dims();
    let wall_start = Instant::now();
    let metrics_start = sched.backend().metrics();
    let n_partitions = config
        .partitions
        .unwrap_or_else(|| sched.backend().suggested_partitions());

    // ---- Partition the three unfolded tensors (Algorithm 2 lines 1–3). --
    // No iteration has committed yet, so an unrecoverable cluster failure
    // here degrades to the typed error with nothing to checkpoint.
    let ([px1, px2, px3], partition_bytes) = catch_cluster(|| {
        sched.phase("cp.distribute", |s| {
            distribute_unfoldings(
                s,
                x,
                None,
                &CP_DISTRIBUTE_LABELS,
                n_partitions,
                config.storage,
                config.spill_dir.as_deref(),
            )
        })
    })??;

    let threshold = config.convergence_threshold * x.nnz().max(1) as f64;
    let ckpt_path = config.checkpoint_path.as_deref().map(std::path::Path::new);
    let save_if_due =
        |completed: usize, factors: &FactorSet, errors: &[u64]| -> Result<(), DbtfError> {
            if let (Some(k), Some(path)) = (config.checkpoint_every, ckpt_path) {
                if completed.is_multiple_of(k) {
                    sched.checkpoint("cp.checkpoint", || {
                        Checkpoint {
                            iteration: completed,
                            error: *errors.last().expect("at least one iteration"),
                            iteration_errors: errors.to_vec(),
                            factors: factors.clone(),
                        }
                        .write(path)
                    })?;
                }
            }
            Ok(())
        };

    // ---- Resume from a checkpoint, or initialize L factor sets ---------
    // (Algorithm 2 line 6). The RNG is consumed only here, so iterations
    // ≥ 2 are pure functions of the factor state and a resumed run
    // reproduces the uninterrupted one bit for bit.
    let resumed = if config.resume {
        let path = ckpt_path.expect("validate() requires checkpoint_path with resume");
        let ck = Checkpoint::read_if_exists(path)?;
        if let Some(ck) = &ck {
            let f = &ck.factors;
            let shape_ok = f.a.rows() == dims[0]
                && f.b.rows() == dims[1]
                && f.c.rows() == dims[2]
                && f.a.cols() == config.rank
                && f.b.cols() == config.rank
                && f.c.cols() == config.rank;
            if !shape_ok || ck.iteration == 0 {
                return Err(DbtfError::Checkpoint(format!(
                    "{}: checkpoint factors are {}×{}/{}×{}/{}×{} but this run needs \
                     {}×{r}/{}×{r}/{}×{r}",
                    path.display(),
                    f.a.rows(),
                    f.a.cols(),
                    f.b.rows(),
                    f.b.cols(),
                    f.c.rows(),
                    f.c.cols(),
                    dims[0],
                    dims[1],
                    dims[2],
                    r = config.rank,
                )));
            }
        }
        ck
    } else {
        None
    };

    let mut peak_cache_bytes = 0u64;
    let (mut factors, mut error, mut iteration_errors, mut converged) = match resumed {
        Some(ck) => {
            // Re-derive the convergence flag from the error history, so a
            // checkpoint taken after convergence does not iterate further.
            let n = ck.iteration_errors.len();
            let converged = ck.error == 0
                || (n >= 2
                    && ck.iteration_errors[n - 2].abs_diff(ck.iteration_errors[n - 1]) as f64
                        <= threshold);
            (ck.factors, ck.error, ck.iteration_errors, converged)
        }
        None => {
            let sets = initial_factor_sets(x, config);
            sched.charge_driver(
                "cp.init",
                sets.len() as u64 * (dims[0] + dims[1] + dims[2]) as u64 * config.rank as u64,
            );

            // Iteration 1: update every set, keep the best (lines 7–8).
            // A cluster failure here is before the first commit — typed
            // error, no checkpoint (a partial best over the initial sets
            // is not a committed iteration).
            let mut best: Option<(FactorSet, u64)> = None;
            for set in sets {
                let (factors, error, cache) = catch_cluster(|| {
                    sched.phase("cp.iteration", |s| {
                        update_round(s, &px1, &px2, &px3, set, config)
                    })
                })?;
                peak_cache_bytes = peak_cache_bytes.max(cache);
                if best.as_ref().is_none_or(|(_, be)| error < *be) {
                    best = Some((factors, error));
                }
            }
            let (factors, error) = best.expect("initial_sets ≥ 1");
            let iteration_errors = vec![error];
            save_if_due(1, &factors, &iteration_errors)?;
            (factors, error, iteration_errors, error == 0)
        }
    };

    // ---- Iterations 2..T (lines 9–12); a resumed run continues where ----
    // the checkpoint left off.
    for _t in (iteration_errors.len() + 1)..=config.max_iters {
        if converged {
            break;
        }
        let round = catch_cluster(|| {
            sched.phase("cp.iteration", |s| {
                update_round(s, &px1, &px2, &px3, factors.clone(), config)
            })
        });
        let (next, next_error, cache) = match round {
            Ok(r) => r,
            // The last committed iteration's factors are still in hand:
            // flush them durably, then fail with the typed engine error.
            Err(err) => return Err(degrade(ckpt_path, &factors, &iteration_errors, err)),
        };
        peak_cache_bytes = peak_cache_bytes.max(cache);
        let delta = error.abs_diff(next_error) as f64;
        factors = next;
        error = next_error;
        iteration_errors.push(error);
        if delta <= threshold || error == 0 {
            converged = true;
        }
        save_if_due(iteration_errors.len(), &factors, &iteration_errors)?;
    }

    let comm = sched.backend().metrics().since(&metrics_start);
    let relative_error = if x.nnz() == 0 {
        if error == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        error as f64 / x.nnz() as f64
    };
    Ok(DbtfResult {
        iterations: iteration_errors.len(),
        converged,
        relative_error,
        error,
        factors,
        stats: DbtfStats {
            wall_secs: wall_start.elapsed().as_secs_f64(),
            virtual_secs: comm.virtual_time.as_secs_f64(),
            comm,
            n_partitions,
            partition_bytes,
            peak_cache_bytes,
        },
        iteration_errors,
    })
}

/// Trace labels of one distribute phase, so the full factorization and
/// the delta update meter their driver map, shuffle and block organization
/// under distinct `unfold.*` / `delta.unfold.*` operator names.
pub(crate) struct DistributeLabels {
    /// The driver-side unfolding map (charged once per mode).
    pub map: &'static str,
    /// The partition shuffle.
    pub distribute: &'static str,
    /// The worker-side block organization superstep.
    pub organize: &'static str,
}

/// The labels of the full factorization's distribute phase.
pub(crate) const CP_DISTRIBUTE_LABELS: DistributeLabels = DistributeLabels {
    map: "unfold.map",
    distribute: "unfold.distribute",
    organize: "unfold.organize",
};

/// The labels of the delta update's distribute phase (`dbtf update`).
pub(crate) const DELTA_DISTRIBUTE_LABELS: DistributeLabels = DistributeLabels {
    map: "delta.unfold.map",
    distribute: "delta.unfold.distribute",
    organize: "delta.unfold.organize",
};

/// Where a run's partitions are cut from, and re-cut from when lineage
/// recovery rebuilds a lost one (Spark's recompute-from-source contract).
#[derive(Clone)]
enum PartitionSource {
    /// A heap copy of the tensor, re-unfolded on demand.
    Ram(Arc<BoolTensor>),
    /// The run's three spilled columnar files, re-opened on demand. The
    /// stores hold the spill-directory guard, so the files outlive every
    /// dataset that could still replay from them.
    Mmap(RunStores),
}

impl PartitionSource {
    /// All `n` partitions of mode `mode`, with `delta` overlaid.
    fn partitions(
        &self,
        mode: Mode,
        delta: Option<&TensorDelta>,
        n: usize,
    ) -> Result<Vec<ModePartition>, DbtfError> {
        Ok(match self {
            PartitionSource::Ram(x) => cut_all(Unfolding::new(x, mode), delta, n),
            PartitionSource::Mmap(stores) => cut_all(stores.open(mode)?, delta, n),
        })
    }

    /// Partition `idx` of `n` of mode `mode` alone, with `delta` overlaid.
    fn partition(
        &self,
        mode: Mode,
        delta: Option<&TensorDelta>,
        idx: usize,
        n: usize,
    ) -> ModePartition {
        match self {
            PartitionSource::Ram(x) => cut_one(Unfolding::new(x, mode), delta, idx, n),
            PartitionSource::Mmap(stores) => {
                let base = stores
                    .open(mode)
                    .unwrap_or_else(|e| panic!("lineage rebuild lost its spilled unfolding: {e}"));
                cut_one(base, delta, idx, n)
            }
        }
    }
}

/// [`partition_unfolding`] of `base`, through an overlay only when there
/// is a delta.
fn cut_all<S: UnfoldingStore>(
    base: S,
    delta: Option<&TensorDelta>,
    n: usize,
) -> Vec<ModePartition> {
    match delta {
        None => partition_unfolding(&base, n),
        Some(d) => partition_unfolding(&OverlayUnfolding::new(base, d), n),
    }
}

/// [`partition_unfolding_one`] of `base`, through an overlay only when
/// there is a delta.
fn cut_one<S: UnfoldingStore>(
    base: S,
    delta: Option<&TensorDelta>,
    idx: usize,
    n: usize,
) -> ModePartition {
    match delta {
        None => partition_unfolding_one(&base, idx, n),
        Some(d) => partition_unfolding_one(&OverlayUnfolding::new(base, d), idx, n),
    }
}

/// Unfolds `x` (with `delta` applied, if given) along all three modes,
/// partitions each unfolding into `n_partitions` PVM-blocked vertical
/// partitions (Algorithm 3), and distributes them across the backend with
/// full shuffle metering under `labels`. Returns the three datasets (mode
/// order) and the total metered bytes.
///
/// A delta is never applied to the unfoldings themselves: each mode's base
/// unfolding is read through a copy-on-write [`OverlayUnfolding`], which
/// yields the partitions of the updated tensor bit for bit. The driver map
/// is charged `|X| + |Δ|` ops per mode.
///
/// With [`StorageKind::Ram`] each unfolding is materialized on the heap;
/// with [`StorageKind::Mmap`] it is spilled once to an on-disk columnar
/// file and partitioned through a read-only map, so no heap unfolding
/// exists. The driver still holds the whole tensor, and each mode's N
/// partitions plus their encoded frames while that mode ships: on the
/// benchmark's `cp-ooc-net` job (2560×2560×640, |X| ≈ 1.4M, N = 16, two
/// net workers) the mmap driver peaks near 60 MiB while a mode ships, and
/// the RAM driver near 67 MiB. The partitions (and therefore every downstream
/// byte, op, and clock meter) are identical byte for byte either way: the
/// spill pass is real I/O, never charged to the virtual cost model.
///
/// A lost partition is rebuilt alone (`partition_unfolding_one`) from the
/// same source on both storages: RAM runs keep a heap copy of the tensor
/// and re-unfold it, mmap runs re-open the spilled file.
///
/// Shared by the CP, the delta-update and the distributed-Tucker drivers —
/// all three operate on exactly this layout.
pub(crate) fn distribute_unfoldings<B: ExecutionBackend>(
    sched: &Scheduler<'_, B>,
    x: &BoolTensor,
    delta: Option<&TensorDelta>,
    labels: &DistributeLabels,
    n_partitions: usize,
    storage: StorageKind,
    spill_dir: Option<&str>,
) -> Result<([B::Dataset<PartitionSlot>; 3], u64), DbtfError> {
    let source = match storage {
        StorageKind::Ram => PartitionSource::Ram(Arc::new(x.clone())),
        StorageKind::Mmap => PartitionSource::Mmap(RunStores::build(x, spill_dir)?),
    };
    let delta = delta.map(|d| Arc::new(d.clone()));
    // The driver-side unfolding map is O(|X| + |Δ|) (Lemma 4 part 1),
    // identical on both storage paths — mmap runs paid the same logical
    // work during the spill pass.
    let map_ops = (x.nnz() + delta.as_ref().map_or(0, |d| d.len())) as u64;
    let mut partition_bytes = 0u64;
    let mut datasets = Vec::with_capacity(3);
    for mode in Mode::ALL {
        let parts = source.partitions(mode, delta.as_deref(), n_partitions)?;
        sched.charge_driver(labels.map, map_ops);
        let elems: Vec<(PartitionSlot, u64)> = parts
            .into_iter()
            .map(|p| {
                let bytes = p.byte_size();
                (PartitionSlot::new(p), bytes)
            })
            .collect();
        partition_bytes += elems.iter().map(|e| e.1).sum::<u64>();
        let (root, delta) = (source.clone(), delta.clone());
        let data = sched.distribute_with_lineage(labels.distribute, elems, move |idx| {
            PartitionSlot::new(root.partition(mode, delta.as_deref(), idx, n_partitions))
        });
        // Distributed block organization (Algorithm 3 line 4): each worker
        // walks its share of the non-zeros once. The driver never reads the
        // result.
        sched.map_partitions_task(labels.organize, &data, net_tasks::organize_task());
        // Read-only superstep: partitions still equal their rebuilt form.
        sched.reset_lineage(&data);
        datasets.push(data);
    }
    let px3 = datasets.pop().expect("three modes");
    let px2 = datasets.pop().expect("three modes");
    let px1 = datasets.pop().expect("three modes");
    Ok(([px1, px2, px3], partition_bytes))
}

/// One full `UpdateFactors` round (Algorithm 2 lines 14–18): update A, B, C
/// in turn, computing the exact reconstruction error on the final mode.
fn update_round<B: ExecutionBackend>(
    sched: &Scheduler<'_, B>,
    px1: &B::Dataset<PartitionSlot>,
    px2: &B::Dataset<PartitionSlot>,
    px3: &B::Dataset<PartitionSlot>,
    set: FactorSet,
    config: &DbtfConfig,
) -> (FactorSet, u64, u64) {
    let v = config.cache_group_limit;
    // X_(1) ≈ A ∘ (C ⊙ B)ᵀ.
    let o1 = update_factor(sched, px1, &set.a, &set.c, &set.b, v, false);
    let a = o1.a;
    // X_(2) ≈ B ∘ (C ⊙ A)ᵀ.
    let o2 = update_factor(sched, px2, &set.b, &set.c, &a, v, false);
    let b = o2.a;
    // X_(3) ≈ C ∘ (B ⊙ A)ᵀ; |X_(3) ⊕ C ∘ (B ⊙ A)ᵀ| = |X ⊕ X̃|.
    let o3 = update_factor(sched, px3, &set.c, &b, &a, v, true);
    let c = o3.a;
    let error = o3.error.expect("error requested");
    let cache = o1.cache_bytes.max(o2.cache_bytes).max(o3.cache_bytes);
    (FactorSet { a, b, c }, error, cache)
}

fn matrix_bytes(m: &BitMatrix) -> u64 {
    ((m.rows() * m.cols()) as u64).div_ceil(8)
}

/// One `UpdateFactor` call (Algorithm 4): updates the factor `a` of the
/// mode whose partitioned unfolding is `data`, against the fixed Khatri-Rao
/// operands `mf` and `ms`.
fn update_factor<B: ExecutionBackend>(
    sched: &Scheduler<'_, B>,
    data: &B::Dataset<PartitionSlot>,
    a: &BitMatrix,
    mf: &BitMatrix,
    ms: &BitMatrix,
    v_limit: usize,
    compute_error: bool,
) -> UpdateOutcome {
    let cols: Vec<usize> = (0..a.cols()).collect();
    update_factor_subset(
        sched,
        data,
        a,
        mf,
        ms,
        v_limit,
        compute_error,
        &CP_UPDATE_LABELS,
        &cols,
    )
}

/// [`update_factor`] restricted to an explicit, non-empty column subset —
/// the bounded re-sweep of the incremental-update path. Columns outside
/// `cols` keep their values from `a` (and are still part of the caches,
/// error scoring, and the finish-superstep reconstruction error).
#[allow(clippy::too_many_arguments)]
pub(crate) fn update_factor_subset<B: ExecutionBackend>(
    sched: &Scheduler<'_, B>,
    data: &B::Dataset<PartitionSlot>,
    a: &BitMatrix,
    mf: &BitMatrix,
    ms: &BitMatrix,
    v_limit: usize,
    compute_error: bool,
    labels: &UpdateLabels,
    cols: &[usize],
) -> UpdateOutcome {
    assert!(!cols.is_empty(), "subset sweep needs at least one column");
    // Begin: broadcast the factors, build per-partition caches
    // (Algorithm 4 line 1 / Algorithm 5). Every superstep of the update is
    // a named `RemoteTask` whose body lives in `net_tasks`, so the same
    // plan runs unchanged over the networked multi-process backend.
    let bytes = matrix_bytes(a) + matrix_bytes(mf) + matrix_bytes(ms);
    let factors = sched.broadcast(
        labels.factors,
        FactorTriple {
            a: a.clone(),
            mf: mf.clone(),
            ms: ms.clone(),
        },
        bytes,
    );
    let cache_bytes: Vec<u64> =
        sched.map_partitions_task(labels.begin, data, net_tasks::begin_task(&factors, v_limit));
    let peak_cache: u64 = cache_bytes.iter().sum();

    // Column sweep (Algorithm 4 lines 2–12): one superstep per column.
    let mut master = a.clone();
    let last = column_sweep_subset(
        sched,
        SweepLabels {
            sweep: labels.sweep,
            reduce: labels.reduce,
            decision: labels.decision,
        },
        data,
        &mut master,
        cols,
        net_tasks::sweep_task,
    )
    .expect("cols is non-empty");

    // Finish: apply the last column; optionally compute the exact error;
    // drop the caches.
    let finish = net_tasks::finish_task(&last, compute_error);
    let errors: Option<Vec<u64>> = if compute_error {
        Some(sched.map_partitions_task(labels.finish, data, finish))
    } else {
        // All results are zero and nothing downstream reads them.
        sched.map_partitions_task(labels.finish, data, finish);
        None
    };
    // The partitions are back to their distribute-time state (`part` is
    // never mutated, `work` is None again), so a crash from here on only
    // needs the rebuild closure — truncating the lineage log keeps replay
    // cost bounded by one UpdateFactor instead of the whole run.
    sched.reset_lineage(data);
    UpdateOutcome {
        a: master,
        error: errors.map(|e| e.iter().sum()),
        cache_bytes: peak_cache,
    }
}
