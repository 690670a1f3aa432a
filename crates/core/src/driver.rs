//! The distributed DBTF driver (paper Algorithms 2 and 4).
//!
//! The driver (the calling thread) is generic over an
//! [`ExecutionBackend`] and emits a dataflow plan through a
//! [`Scheduler`] — it never talks to the engine directly. It partitions
//! and distributes the three unfolded tensors once, then iterates factor
//! updates. One `UpdateFactor` call sweeping all `R` columns runs `R + 2`
//! supersteps:
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
//!
//! A factorization and an incremental update (`crate::delta`) share one
//! skeleton: the traced shell [`traced`], the iteration loop [`iterate`],
//! its round [`update_round`] and the factor update [`update_factor`]. The
//! update enters the loop from fitted factors and sweeps only the columns
//! its delta touches; the distributed Tucker driver shares the shell and
//! the sweep but keeps its own loop.

use std::path::Path;
use std::time::Instant;

use dbtf_cluster::{ClusterError, ExecutionBackend, PlanTrace, Scheduler};
use dbtf_telemetry::{SpanKind, Tracer};
use dbtf_tensor::{reconstruct, BitMatrix, BoolTensor, FactorTriple, Mode};

use crate::checkpoint::Checkpoint;
use crate::config::{DbtfConfig, DbtfError, StorageKind};
use crate::factors::{initial_factor_sets, FactorSet};
use crate::net_tasks::{BeginTask, FinishTask, OrganizeTask, SweepTask};
use crate::ooc::RunStores;
use crate::partition::{
    partition_tensor, partition_tensor_one, partition_unfolding_one, ModePartition,
};
use crate::stats::DbtfStats;
use crate::sweep::{column_sweep, SweepLabels};
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

struct UpdateOutcome {
    a: BitMatrix,
    error: Option<u64>,
    cache_bytes: u64,
}

/// Trace labels of one driver's rounds, so the full-sweep CP path and
/// the bounded delta re-sweep meter under distinct `cp.*` / `delta.*`
/// operator names.
pub(crate) struct UpdateLabels {
    /// The phase span of one round.
    pub iteration: &'static str,
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
    iteration: "cp.iteration",
    factors: "cp.update.factors",
    begin: "cp.update.begin",
    sweep: "cp.update.sweep",
    reduce: "cp.update.reduce",
    decision: "cp.update.decision",
    finish: "cp.update.finish",
};

/// The labels of the bounded delta re-sweep (`dbtf update`).
pub(crate) const DELTA_UPDATE_LABELS: UpdateLabels = UpdateLabels {
    iteration: "delta.iteration",
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
    if x.dims().contains(&0) {
        return Err(DbtfError::EmptyTensor);
    }
    let (result, trace) = traced(backend, tracer, "cp.factorize", |sched| {
        run(sched, x, config)
    });
    Ok((result?, trace))
}

/// The shell every distributed driver runs its body in: a [`Scheduler`]
/// over `backend` recording into `tracer`, and a `Run` span named `name`
/// on the virtual clock around `body`. With the tracer on, the backend's
/// counters are exported into it afterwards. Returns the body's result
/// and the executed plan.
pub(crate) fn traced<B: ExecutionBackend, R>(
    backend: &B,
    tracer: &Tracer,
    name: &'static str,
    body: impl FnOnce(&Scheduler<'_, B>) -> R,
) -> (R, PlanTrace) {
    let sched = Scheduler::with_tracer(backend, tracer.clone());
    let root = tracer.begin(
        SpanKind::Run,
        name,
        backend.metrics().virtual_time.as_secs_f64(),
    );
    let result = body(&sched);
    tracer.end(root, backend.metrics().virtual_time.as_secs_f64());
    if tracer.is_enabled() {
        for (name, value) in backend.metrics().named_counters() {
            tracer.set_counter(name, value);
        }
    }
    (result, sched.into_trace())
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
fn degrade(ckpt_path: Option<&Path>, state: &Progress, err: ClusterError) -> DbtfError {
    if let Some(path) = ckpt_path.filter(|_| !state.iteration_errors.is_empty()) {
        let _ = state.checkpoint().write(path);
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
    let (px, partition_bytes) = catch_cluster(|| {
        sched.phase("cp.distribute", |s| {
            distribute_unfoldings(
                s,
                x,
                x.nnz() as u64,
                &CP_DISTRIBUTE_LABELS,
                n_partitions,
                config.storage,
                config.spill_dir.as_deref(),
            )
        })
    })??;
    let cols: Vec<usize> = (0..config.rank).collect();
    let ckpt_path = config.checkpoint_path.as_deref().map(Path::new);

    // ---- Resume from a checkpoint, or initialize L factor sets ---------
    // (Algorithm 2 line 6). The RNG is consumed only here, so iterations
    // ≥ 2 are pure functions of the factor state and a resumed run
    // reproduces the uninterrupted one bit for bit.
    let resumed = if config.resume {
        let path = ckpt_path.expect("validate() requires checkpoint_path with resume");
        let ck = Checkpoint::read_if_exists(path)?;
        if let Some(ck) = &ck {
            ck.factors
                .check_shape(dims, config.rank, "run")
                .map_err(|e| {
                    DbtfError::Checkpoint(format!("{}: checkpoint {e}", path.display()))
                })?;
        }
        ck
    } else {
        None
    };

    let start = match resumed {
        Some(ck) => Progress {
            factors: ck.factors,
            error: ck.error,
            iteration_errors: ck.iteration_errors,
            peak_cache_bytes: 0,
        },
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
            let mut peak_cache_bytes = 0u64;
            let mut best: Option<(FactorSet, u64)> = None;
            for set in sets {
                let (factors, error, cache) = catch_cluster(|| {
                    sched.phase(CP_UPDATE_LABELS.iteration, |s| {
                        update_round(s, &px, set, config, &CP_UPDATE_LABELS, &cols)
                    })
                })?;
                peak_cache_bytes = peak_cache_bytes.max(cache);
                if best.as_ref().is_none_or(|(_, be)| error < *be) {
                    best = Some((factors, error));
                }
            }
            let (factors, error) = best.expect("initial_sets ≥ 1");
            let first = Progress {
                factors,
                error,
                iteration_errors: vec![error],
                peak_cache_bytes,
            };
            save_if_due(sched, config, ckpt_path, &first)?;
            first
        }
    };

    // ---- Iterations 2..T (lines 9–12); a resumed run continues where ----
    // the checkpoint left off.
    let (end, converged) = iterate(
        sched,
        &px,
        config,
        &CP_UPDATE_LABELS,
        &cols,
        x.nnz(),
        ckpt_path,
        start,
    )?;

    let comm = sched.backend().metrics().since(&metrics_start);
    Ok(DbtfResult {
        iterations: end.iteration_errors.len(),
        converged,
        relative_error: reconstruct::error_ratio(end.error, x.nnz()),
        error: end.error,
        factors: end.factors,
        stats: DbtfStats {
            wall_secs: wall_start.elapsed().as_secs_f64(),
            virtual_secs: comm.virtual_time.as_secs_f64(),
            comm,
            n_partitions,
            partition_bytes,
            peak_cache_bytes: end.peak_cache_bytes,
        },
        iteration_errors: end.iteration_errors,
    })
}

/// A run's state after its last committed round: the factors, their
/// error, the error after every round so far, and the largest cache any
/// round built.
pub(crate) struct Progress {
    pub(crate) factors: FactorSet,
    pub(crate) error: u64,
    pub(crate) iteration_errors: Vec<u64>,
    pub(crate) peak_cache_bytes: u64,
}

impl Progress {
    /// The checkpoint of the rounds committed so far.
    fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            iteration: self.iteration_errors.len(),
            error: self.error,
            iteration_errors: self.iteration_errors.clone(),
            factors: self.factors.clone(),
        }
    }
}

/// The iteration loop (Algorithm 2 lines 9–12): from `state`, runs rounds
/// `len + 1 ..= max_iters` over `cols` (see [`update_round`]) until a
/// round moves the error by at most `convergence_threshold · nnz` or the
/// error is 0. The flag is first derived from the history handed in, so a
/// checkpoint taken after convergence does not iterate further and an
/// empty history always runs a round. After each round the error is
/// pushed and, with a `checkpoint` path, a due checkpoint is written.
/// Returns the final state and whether it converged.
///
/// An unrecoverable cluster failure goes through [`degrade`]: the last
/// committed round is flushed to `checkpoint`, if any, before the typed
/// engine error is returned.
#[allow(clippy::too_many_arguments)]
pub(crate) fn iterate<B: ExecutionBackend>(
    sched: &Scheduler<'_, B>,
    px: &[B::Dataset<PartitionSlot>; 3],
    config: &DbtfConfig,
    labels: &UpdateLabels,
    cols: &[usize],
    nnz: usize,
    checkpoint: Option<&Path>,
    mut state: Progress,
) -> Result<(Progress, bool), DbtfError> {
    let threshold = config.convergence_threshold * nnz.max(1) as f64;
    let settled = |prev: u64, next: u64| prev.abs_diff(next) as f64 <= threshold || next == 0;
    let mut converged = match state.iteration_errors[..] {
        [] => false,
        [error] => error == 0,
        [.., prev, error] => settled(prev, error),
    };
    for _t in (state.iteration_errors.len() + 1)..=config.max_iters {
        if converged {
            break;
        }
        let round = catch_cluster(|| {
            sched.phase(labels.iteration, |s| {
                update_round(s, px, state.factors.clone(), config, labels, cols)
            })
        });
        let (factors, error, cache) = match round {
            Ok(r) => r,
            // The last committed round's factors are still in hand: flush
            // them durably, then fail with the typed engine error.
            Err(err) => return Err(degrade(checkpoint, &state, err)),
        };
        converged = settled(state.error, error);
        state.peak_cache_bytes = state.peak_cache_bytes.max(cache);
        state.factors = factors;
        state.error = error;
        state.iteration_errors.push(error);
        save_if_due(sched, config, checkpoint, &state)?;
    }
    Ok((state, converged))
}

/// Writes `state`'s checkpoint to `path` when `config.checkpoint_every`
/// says one is due after its rounds.
fn save_if_due<B: ExecutionBackend>(
    sched: &Scheduler<'_, B>,
    config: &DbtfConfig,
    path: Option<&Path>,
    state: &Progress,
) -> Result<(), DbtfError> {
    if let (Some(k), Some(path)) = (config.checkpoint_every, path) {
        if state.iteration_errors.len().is_multiple_of(k) {
            sched.checkpoint("cp.checkpoint", || state.checkpoint().write(path))?;
        }
    }
    Ok(())
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

/// Where lineage recovery re-cuts a lost partition from (Spark's
/// recompute-from-source contract).
#[derive(Clone)]
enum PartitionSource {
    /// The tensor itself, cut again on demand (a clone shares its entries).
    Ram(BoolTensor),
    /// The run's spilled columnar files, re-opened on demand. The stores
    /// hold the spill-directory guard, so the files outlive every dataset
    /// that could still replay from them.
    Mmap(RunStores),
}

impl PartitionSource {
    /// Partition `idx` of `n` of mode `mode` alone.
    fn partition(&self, mode: Mode, idx: usize, n: usize) -> ModePartition {
        match self {
            PartitionSource::Ram(x) => partition_tensor_one(x, mode, idx, n),
            PartitionSource::Mmap(stores) => {
                let store = stores
                    .open(mode)
                    .unwrap_or_else(|e| panic!("lineage rebuild lost its spilled unfolding: {e}"));
                partition_unfolding_one(&store, idx, n)
            }
        }
    }
}

/// Partitions `x` along all three modes into `n_partitions` PVM-blocked
/// vertical partitions each (Algorithm 3), and distributes them across the
/// backend with full shuffle metering under `labels`. Returns the three
/// datasets (mode order) and the total metered bytes.
///
/// The driver map is charged `map_ops` per mode: `|X|` for a fresh
/// factorization, and `|X| + |Δ|` for a delta update, which hands in the
/// updated tensor it already built (Lemma 4 part 1).
///
/// Each mode's partitions are cut straight from the tensor's sorted entries
/// ([`partition_tensor`]) on either storage, so no unfolding is ever built
/// or sorted. The storage only picks the lineage source a lost partition is
/// rebuilt alone from:
///
/// - [`StorageKind::Ram`] keeps the tensor itself, a reference count, and
///   re-cuts one partition from it (`partition_tensor_one`);
/// - [`StorageKind::Mmap`] writes each mode's `DBTFUNFD` file from the N
///   partitions just cut, before they ship, and re-opens that file.
///
/// The driver holds the whole tensor either way, and each mode's N
/// partitions plus their encoded frames while that mode ships. The
/// partitions (and therefore every downstream byte, op, and clock meter)
/// are the same on either storage: the spill is real I/O, never charged to
/// the virtual cost model.
///
/// Shared by the CP, the delta-update and the distributed-Tucker drivers —
/// all three operate on exactly this layout.
pub(crate) fn distribute_unfoldings<B: ExecutionBackend>(
    sched: &Scheduler<'_, B>,
    x: &BoolTensor,
    map_ops: u64,
    labels: &DistributeLabels,
    n_partitions: usize,
    storage: StorageKind,
    spill_dir: Option<&str>,
) -> Result<([B::Dataset<PartitionSlot>; 3], u64), DbtfError> {
    let source = match storage {
        StorageKind::Ram => PartitionSource::Ram(x.clone()),
        StorageKind::Mmap => PartitionSource::Mmap(RunStores::create(spill_dir)?),
    };
    let mut partition_bytes = 0u64;
    let mut datasets = Vec::with_capacity(3);
    for mode in Mode::ALL {
        let parts = partition_tensor(x, mode, n_partitions);
        if let PartitionSource::Mmap(stores) = &source {
            stores.write(mode, x.dims(), &parts)?;
        }
        sched.charge_driver(labels.map, map_ops);
        let elems: Vec<(PartitionSlot, u64)> = parts
            .into_iter()
            .map(|p| {
                let bytes = p.byte_size();
                (PartitionSlot::new(p), bytes)
            })
            .collect();
        partition_bytes += elems.iter().map(|e| e.1).sum::<u64>();
        let root = source.clone();
        let data = sched.distribute_with_lineage(labels.distribute, elems, move |idx| {
            PartitionSlot::new(root.partition(mode, idx, n_partitions))
        });
        // Distributed block organization (Algorithm 3 line 4): each worker
        // walks its share of the non-zeros once. The driver never reads the
        // result.
        sched.map_partitions_task(labels.organize, &data, OrganizeTask);
        // Read-only superstep: partitions still equal their rebuilt form.
        sched.reset_lineage(&data);
        datasets.push(data);
    }
    let px3 = datasets.pop().expect("three modes");
    let px2 = datasets.pop().expect("three modes");
    let px1 = datasets.pop().expect("three modes");
    Ok(([px1, px2, px3], partition_bytes))
}

/// One `UpdateFactors` round (Algorithm 2 lines 14–18): update A, B, C in
/// turn over `cols`, computing the exact reconstruction error on the final
/// mode. Returns the factors, the error and the round's largest cache.
fn update_round<B: ExecutionBackend>(
    sched: &Scheduler<'_, B>,
    [px1, px2, px3]: &[B::Dataset<PartitionSlot>; 3],
    set: FactorSet,
    config: &DbtfConfig,
    labels: &UpdateLabels,
    cols: &[usize],
) -> (FactorSet, u64, u64) {
    let sweep = |data, a: &_, mf: &_, ms: &_, compute_error| {
        let v = config.cache_group_limit;
        update_factor(sched, data, a, mf, ms, v, compute_error, labels, cols)
    };
    // X_(1) ≈ A ∘ (C ⊙ B)ᵀ.
    let o1 = sweep(px1, &set.a, &set.c, &set.b, false);
    let a = o1.a;
    // X_(2) ≈ B ∘ (C ⊙ A)ᵀ.
    let o2 = sweep(px2, &set.b, &set.c, &a, false);
    let b = o2.a;
    // X_(3) ≈ C ∘ (B ⊙ A)ᵀ; |X_(3) ⊕ C ∘ (B ⊙ A)ᵀ| = |X ⊕ X̃|.
    let o3 = sweep(px3, &set.c, &b, &a, true);
    let c = o3.a;
    let error = o3.error.expect("error requested");
    let cache = o1.cache_bytes.max(o2.cache_bytes).max(o3.cache_bytes);
    (FactorSet { a, b, c }, error, cache)
}

/// The bytes of `m` packed one bit per entry — a broadcast's meter.
pub(crate) fn matrix_bytes(m: &BitMatrix) -> u64 {
    ((m.rows() * m.cols()) as u64).div_ceil(8)
}

/// One `UpdateFactor` call (Algorithm 4): updates the factor `a` of the
/// mode whose partitioned unfolding is `data`, against the fixed Khatri-Rao
/// operands `mf` and `ms`, sweeping the non-empty column list `cols`.
/// Columns outside `cols` keep their values from `a` (and are still part
/// of the caches, error scoring, and the finish-superstep reconstruction
/// error).
#[allow(clippy::too_many_arguments)]
fn update_factor<B: ExecutionBackend>(
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
    // Begin: broadcast the factors, build per-partition caches
    // (Algorithm 4 line 1 / Algorithm 5). Every superstep of the update is
    // a `WireTask` type from `net_tasks`, so the same plan runs unchanged
    // over the networked multi-process backend.
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
        sched.map_partitions_task(labels.begin, data, BeginTask { factors, v_limit });
    let peak_cache: u64 = cache_bytes.iter().sum();

    // Column sweep (Algorithm 4 lines 2–12): one superstep per column.
    let mut master = a.clone();
    let last = column_sweep(
        sched,
        SweepLabels {
            sweep: labels.sweep,
            reduce: labels.reduce,
            decision: labels.decision,
        },
        data,
        &mut master,
        cols,
        |col, prev| SweepTask { col, prev },
    );

    // Finish: apply the last column; optionally compute the exact error
    // (every result is zero without it); drop the caches.
    let finish = FinishTask {
        last,
        compute_error,
    };
    let errors: Vec<u64> = sched.map_partitions_task(labels.finish, data, finish);
    // The partitions are back to their distribute-time state (`part` is
    // never mutated, `work` is None again), so a crash from here on only
    // needs the rebuild closure — truncating the lineage log keeps replay
    // cost bounded by one UpdateFactor instead of the whole run.
    sched.reset_lineage(data);
    UpdateOutcome {
        a: master,
        error: compute_error.then(|| errors.iter().sum()),
        cache_bytes: peak_cache,
    }
}
